"""Loop-based kernel language for task bodies.

Each task kind has a generator producing a small loop-nest program over its
point-local sub-store buffers. Fused task bodies are program-order
compositions of generated kernels: temporaries become local buffers and
adjacent nests over the same extents are merged as they are composed. Then
locals used in one nest collapse to per-iteration values, and negations that
cancel are folded away. Every rewrite of an expression is a callback on one
node of a single bottom-up traversal, ``_rewrite``.

Every access is at the loop index: a load reads its buffer at the nest's
indices, or whole when the buffer is a replicated rank-0 operand, and a store
writes at the nest's indices. A shifted access is a partition of the store
(an offset tiling), never a kernel offset, so each nest evaluates as a whole
with numpy. Buffer extents stay symbolic: a nest iterates over the extents of
a named buffer, and concrete shapes are bound only at interpretation time. So
the IR holds no ranks and no index lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ir import IndexTask, Privilege


class KernelError(Exception):
    pass


class NoGeneratorError(KernelError):
    """Task kind has no registered generator; acts as a fusion barrier."""


class PrivilegeViolationError(KernelError):
    pass


# --- program representation -------------------------------------------------


@dataclass(frozen=True)
class BufParam:
    name: str
    privilege: Privilege


@dataclass(frozen=True)
class Load:
    buf: str


@dataclass(frozen=True)
class ScalarRef:
    name: str


@dataclass(frozen=True)
class TempRef:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ** min max
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Neg:
    x: "Expr"


Expr = Load | ScalarRef | TempRef | Bin | Neg


@dataclass(frozen=True)
class SetTemp:
    name: str
    expr: Expr


@dataclass(frozen=True)
class StoreStmt:
    """Write the expression at the nest's loop indices."""

    buf: str
    expr: Expr


@dataclass(frozen=True)
class ReduceStmt:
    """Sum-accumulate the expression into a rank-0 buffer."""

    buf: str
    expr: Expr


Stmt = SetTemp | StoreStmt | ReduceStmt


@dataclass(frozen=True)
class LoopNest:
    domain: str  # buffer whose extents give the iteration bounds
    body: tuple[Stmt, ...]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A compiled kernel. Kernels compare by identity: a memoized kernel is
    shared by every launch that replays it, so caches can key on it."""

    buf_params: tuple[BufParam, ...]
    scalar_params: tuple[str, ...]
    locals: tuple[str, ...]  # task-local buffers, shaped at interpretation
    nests: tuple[LoopNest, ...]
    # buffer name -> hashable iteration-domain class; nests merge only within a class
    shape_class: Mapping[str, object] = field(default_factory=dict)

    @cached_property
    def plans(self) -> tuple["_NestPlan", ...]:
        """Each nest compiled for ``interpret``, once per kernel."""
        priv = {p.name: p.privilege for p in self.buf_params}
        return tuple(_compile_nest(nest, priv) for nest in self.nests)

    @cached_property
    def loaded(self) -> frozenset[str]:
        """The buffers the kernel reads: by a load, or by reducing into them."""
        return frozenset().union(*(plan.reads for plan in self.plans))

    @cached_property
    def traffic(self) -> dict[tuple[tuple[int, ...], ...], tuple[int, int]]:
        """Per-point (loads, stores) by argument shapes, filled in by the
        sessions that launch the kernel and kept while it lives."""
        return {}


# --- expression / statement walking ----------------------------------------


def _leaves(e: Expr) -> Iterable[Expr]:
    """Leaf expressions in evaluation order."""
    if isinstance(e, Bin):
        yield from _leaves(e.lhs)
        yield from _leaves(e.rhs)
    elif isinstance(e, Neg):
        yield from _leaves(e.x)
    else:
        yield e


def _expr_loads(e: Expr) -> Iterable[Load]:
    return (leaf for leaf in _leaves(e) if isinstance(leaf, Load))


def _rewrite(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``f`` to each node once its operands
    are rewritten. A node whose operands did not change is kept as it is."""
    if isinstance(e, Bin):
        lhs, rhs = _rewrite(e.lhs, f), _rewrite(e.rhs, f)
        if lhs is not e.lhs or rhs is not e.rhs:
            e = Bin(e.op, lhs, rhs)
    elif isinstance(e, Neg):
        x = _rewrite(e.x, f)
        if x is not e.x:
            e = Neg(x)
    return f(e)


# --- generators -------------------------------------------------------------


def arg_name(j: int, local: bool = False) -> str:
    """The buffer name of task argument j in every kernel, generated or fused:
    ``a{j}``, or ``l{j}`` when the argument is demoted to a task-local buffer."""
    return f"l{j}" if local else f"a{j}"


Generator = Callable[[IndexTask], Kernel]


class KernelRegistry:
    """task_kind -> generator(task) -> Kernel. A generator's kernel may depend
    only on the task's kind, arity, privileges and scalar count: the memo
    replays it for every task with the same key."""

    def __init__(self) -> None:
        self._gens: dict[str, Generator] = {}

    def has(self, kind: str) -> bool:
        return kind in self._gens

    def generate(self, task: IndexTask) -> Kernel:
        gen = self._gens.get(task.kind)
        if gen is None:
            raise NoGeneratorError(f"no kernel generator for task kind {task.kind!r}")
        return gen(task)


def _arity(task: IndexTask, nargs: int, nscalars: int | None = None) -> None:
    if len(task.args) != nargs:
        raise KernelError(f"{task.kind}: expected {nargs} store args, got {len(task.args)}")
    if nscalars is not None and len(task.scalars) != nscalars:
        raise KernelError(f"{task.kind}: expected {nscalars} scalar params, got {len(task.scalars)}")


def _template(
    nargs: int, out: int, body: Callable, nscalars: int | None = None, reduce: bool = False
) -> Generator:
    """The generator of one nest holding one statement that stores ``body(ld)``
    into argument ``out``, or sum-accumulates it there for a reduction. The
    nest iterates over argument ``out``, or 0 for a reduction; ``ld(i)``
    loads argument i."""

    def gen(task: IndexTask) -> Kernel:
        _arity(task, nargs, nscalars)
        expr = body(lambda i: Load(arg_name(i)))
        stmt = (ReduceStmt if reduce else StoreStmt)(arg_name(out), expr)
        return Kernel(
            tuple(BufParam(arg_name(i), a.privilege) for i, a in enumerate(task.args)),
            tuple(f"s{k}" for k in range(len(task.scalars))),
            (),
            (LoopNest(arg_name(0 if reduce else out), (stmt,)),),
        )

    return gen


_S0 = ScalarRef("s0")  # the first scalar


def _binary(op: str) -> Generator:
    return _template(3, 2, lambda ld: Bin(op, ld(0), ld(1)))


def _by_nargs(two: Generator, three: Generator) -> Generator:
    return lambda task: (two if len(task.args) == 2 else three)(task)


def _ratio(ld: Callable[[int], Load]) -> Expr:
    # num / den of the ratio kinds, with args (x: R, y: RW, num: R, den: R)
    return Bin("/", ld(2), ld(3))


_GENERATORS: dict[str, Generator] = {
    "ADD": _binary("+"),
    "SUB": _binary("-"),
    "DIV": _binary("/"),
    "MIN": _binary("min"),
    "MAX": _binary("max"),
    "MULT": _by_nargs(_template(2, 1, lambda ld: Bin("*", _S0, ld(0)), 1), _binary("*")),
    "POW": _by_nargs(_template(2, 1, lambda ld: Bin("**", ld(0), _S0), 1), _binary("**")),
    "COPY": _template(2, 1, lambda ld: ld(0)),
    "NEG": _template(2, 1, lambda ld: Neg(ld(0))),
    "FILL": _template(1, 0, lambda ld: _S0, 1),
    # y = y + s * x with args (x: R, y: RW)
    "AXPY": _template(2, 1, lambda ld: Bin("+", ld(1), Bin("*", _S0, ld(0))), 1),
    "DOT": _template(3, 2, lambda ld: Bin("*", ld(0), ld(1)), reduce=True),
    "SUM": _template(2, 1, lambda ld: ld(0), reduce=True),
    "AXPY_RATIO": _template(4, 1, lambda ld: Bin("+", ld(1), Bin("*", _ratio(ld), ld(0)))),
    "AXMY_RATIO": _template(4, 1, lambda ld: Bin("-", ld(1), Bin("*", _ratio(ld), ld(0)))),
    "XPBY_RATIO": _template(4, 1, lambda ld: Bin("+", ld(0), Bin("*", _ratio(ld), ld(1)))),
}


def default_registry() -> KernelRegistry:
    reg = KernelRegistry()
    reg._gens.update(_GENERATORS)
    return reg


# --- composition ------------------------------------------------------------


def compose(
    kernels: Sequence[Kernel],
    arg_maps: Sequence[Sequence[int]],
    privileges: Sequence[Privilege],
    temp_arg_indices: frozenset[int],
    shape_classes: Mapping[int, object],
) -> Kernel:
    """Concatenate generated kernel bodies, which hold only stores and
    reductions, with parameters unified per fused argument.

    Fused argument j becomes buffer ``arg_name(j)``, ``a{j}`` as in a
    generated kernel, with the joined privilege ``privileges[j]``, or local
    ``l{j}`` when j is a demoted temporary. Scalars of kernel i become
    ``s{i}_{k}``, in kernel order.

    Each nest is merged into the one before it when their domains share a
    shape class. Every access is at the loop index, so any dependence between
    two such nests stays within one iteration and running the bodies in one
    nest, in order, keeps it. Within one fused kernel the class also fixes the
    nest's rank: a replication's nest runs at the launch rank, a tiling's at
    the rank of its tile.
    """
    buf_name = [arg_name(j, j in temp_arg_indices) for j in range(len(privileges))]
    shape_class = {buf_name[j]: shape_classes[j] for j in range(len(buf_name)) if j in shape_classes}
    groups: list[tuple[str, list[Stmt]]] = []  # (domain, body) of each merged nest
    scalar_params: list[str] = []

    def rename(e: Expr) -> Expr:  # by the maps of the kernel being composed
        if isinstance(e, Load):
            return Load(bmap.get(e.buf, e.buf))
        if isinstance(e, ScalarRef):
            return ScalarRef(smap.get(e.name, e.name))
        return e

    def domain_key(domain: str) -> object:
        return shape_class.get(domain, ("buf", domain))

    for i, (kernel, amap) in enumerate(zip(kernels, arg_maps)):
        bmap = {p.name: buf_name[j] for p, j in zip(kernel.buf_params, amap)}
        smap = {name: f"s{i}_{k}" for k, name in enumerate(kernel.scalar_params)}
        scalar_params.extend(smap.values())
        for nest in kernel.nests:
            domain = bmap[nest.domain]
            if not groups or domain_key(groups[-1][0]) != domain_key(domain):
                groups.append((domain, []))
            groups[-1][1].extend(type(s)(bmap.get(s.buf, s.buf), _rewrite(s.expr, rename)) for s in nest.body)
    return Kernel(
        tuple(
            BufParam(buf_name[j], priv)
            for j, priv in enumerate(privileges)
            if j not in temp_arg_indices
        ),
        tuple(scalar_params),
        tuple(name for j, name in enumerate(buf_name) if j in temp_arg_indices),
        tuple(LoopNest(domain, tuple(body)) for domain, body in groups),
        shape_class,
    )


def _domain_replacement(
    nest: LoopNest, gone: set[str], shape_class: Mapping[str, object]
) -> str | None:
    """A surviving store or load of the nest in its domain's shape class, whose
    extents can stand in for the domain's, or None."""
    cands = [s.buf for s in nest.body if isinstance(s, StoreStmt)]
    cands += [ld.buf for s in nest.body for ld in _expr_loads(s.expr)]
    cls = shape_class.get(nest.domain)
    if cls is None:
        return None
    return next((c for c in cands if c not in gone and shape_class.get(c) == cls), None)


def scalarize_locals(kernel: Kernel) -> Kernel:
    """Replace locals used in a single nest with per-iteration scalars.

    Locals written but never read are dead and dropped along with their stores.
    The kernel is as ``compose`` made it: its nests hold only stores and
    reductions, and this pass makes the temps.
    """
    nests_of: dict[str, set[int]] = {}  # buffer -> the nests that load or write it
    read: set[str] = set()  # the buffers some nest loads
    reduced_into: set[str] = set()
    for ni, nest in enumerate(kernel.nests):
        for s in nest.body:
            for ld in _expr_loads(s.expr):
                read.add(ld.buf)
                nests_of.setdefault(ld.buf, set()).add(ni)
            nests_of.setdefault(s.buf, set()).add(ni)
            if isinstance(s, ReduceStmt):
                reduced_into.add(s.buf)

    dead = {name for name in kernel.locals if name not in read}
    # accumulation targets stay buffers
    scalarized = {name for name in kernel.locals if len(nests_of.get(name, ())) == 1} - dead - reduced_into

    # A removed local may be some nest's iteration domain; each such nest needs
    # another buffer with the same extents to iterate over, otherwise the local
    # has to stay.
    while True:
        gone = dead | scalarized
        for nest in kernel.nests:
            if nest.domain in gone and any(s.buf not in gone for s in nest.body):
                if _domain_replacement(nest, gone, kernel.shape_class) is None:
                    dead.discard(nest.domain)
                    scalarized.discard(nest.domain)
                    break
        else:
            break

    def scalarize(e: Expr) -> Expr:
        return TempRef(f"_v_{e.buf}") if isinstance(e, Load) and e.buf in scalarized else e

    nests = []
    for nest in kernel.nests:
        body: list[Stmt] = []
        for s in nest.body:
            if s.buf in dead:
                continue
            e = _rewrite(s.expr, scalarize)
            if s.buf in scalarized:
                body.append(SetTemp(f"_v_{s.buf}", e))
            else:
                body.append(s if e is s.expr else type(s)(s.buf, e))
        if all(isinstance(s, SetTemp) for s in body):
            continue  # no observable effects left
        domain = nest.domain
        if domain in gone:
            domain = _domain_replacement(nest, gone, kernel.shape_class)
            assert domain is not None  # guaranteed by the back-off loop above
        nests.append(LoopNest(domain, tuple(body)))
    locals_ = tuple(name for name in kernel.locals if name not in gone)
    return Kernel(kernel.buf_params, kernel.scalar_params, locals_, tuple(nests), kernel.shape_class)


def fold_negations(kernel: Kernel) -> Kernel:
    """Fold double negations, then drop the temps nothing reads any more.

    ``-(-y)`` becomes ``y``, which is exact for every float64: NaN payloads
    and signs, -0.0, infinities and subnormals. The inner negation may be
    inline or the value of a temp the outer one reads; through a temp, ``y``
    must be a leaf, so that nothing is evaluated twice, and must still hold
    the value it had when the temp was set. Temps are not SSA, so that is
    the case only if no temp ``y`` names was set again since and, if ``y``
    loads, no buffer was written since: two buffer names may share memory.
    Nothing else is rewritten: ``s * (-x)`` is not ``-(s * x)`` when ``s`` is
    a NaN, and scalars are runtime parameters, not constants. A nest where
    nothing folds is kept as it is, and so is a kernel.
    """
    nests = tuple(_fold_nest(n) for n in kernel.nests)
    if nests == kernel.nests:
        return kernel
    return Kernel(kernel.buf_params, kernel.scalar_params, kernel.locals, nests, kernel.shape_class)


def _fold_nest(nest: LoopNest) -> LoopNest:
    set_at: dict[str, int] = {}  # temp -> the index of its latest SetTemp
    negated: dict[str, tuple[Expr, int]] = {}  # temp now -y for a leaf y -> (y, that index)
    written = -1  # the index of the latest store or reduction

    def fold(e: Expr) -> Expr:
        if not isinstance(e, Neg):
            return e
        if isinstance(e.x, Neg):
            return e.x.x
        if isinstance(e.x, TempRef) and e.x.name in negated:
            y, at = negated[e.x.name]
            if isinstance(y, TempRef):
                unchanged = set_at.get(y.name, -1) < at
            else:
                unchanged = isinstance(y, ScalarRef) or written < at
            if unchanged:
                return y
        return e

    folded: list[Stmt] = []
    for i, s in enumerate(nest.body):
        e = _rewrite(s.expr, fold)
        if isinstance(s, SetTemp):
            folded.append(s if e is s.expr else SetTemp(s.name, e))
            set_at[s.name] = i
            negated.pop(s.name, None)
            if isinstance(e, Neg) and not isinstance(e.x, (Bin, Neg)):
                negated[s.name] = (e.x, i)
        else:
            folded.append(s if e is s.expr else type(s)(s.buf, e))
            written = i
    if folded == list(nest.body):
        return nest

    read: set[str] = set()  # temps read later, walking backwards
    kept: list[Stmt] = []
    for s in reversed(folded):
        if isinstance(s, SetTemp):
            if s.name not in read:
                continue
            read.discard(s.name)
        read.update(x.name for x in _leaves(s.expr) if isinstance(x, TempRef))
        kept.append(s)
    return LoopNest(nest.domain, tuple(reversed(kept)))


def optimize(kernel: Kernel) -> Kernel:
    return fold_negations(scalarize_locals(kernel))


# --- instrumentation --------------------------------------------------------


def count_memory_traffic(kernel: Kernel, shapes: Mapping[str, tuple[int, ...]]) -> tuple[int, int]:
    """Static (loads, stores) element-access counts for one execution.

    ReduceStmt counts as one store per iteration; scalar params are free.
    """
    loads = 0
    stores = 0
    for nest in kernel.nests:
        vol = prod(shapes[nest.domain])
        for s in nest.body:
            loads += sum(1 for _ in _expr_loads(s.expr)) * vol
            if isinstance(s, (StoreStmt, ReduceStmt)):
                stores += vol
    return loads, stores


# --- interpretation ---------------------------------------------------------

_BIN_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "**": np.power,
    "min": np.minimum,
    "max": np.maximum,
}


STRIP = 1 << 16  # about this many elements of a store-only nest run at a time


class _NestPlan(NamedTuple):
    """A compiled nest: ops over registers holding its buffers, scalars and slots.

    A nest with no reduction runs its ops strip by strip, about ``STRIP``
    elements of whole rows along axis 0 of its domain at a time, so that a
    strip's values stay in cache from one op to the next. Every access is at
    the loop index, so this gives the bits of one whole pass. Buffers of rank
    >= 1 and the store slabs of chains are sliced per strip; rank-0 buffers
    and scalars stay whole, and slots keep their strip-sized arrays from strip
    to strip. A nest runs whole if its domain has rank 0 or fits in one
    strip, if it reduces (pairwise ``np.sum`` depends on blocking), if a
    buffer it stores to may share memory with another bound buffer, or if a
    buffer of rank >= 1 has a shape other than the domain's.
    """

    inputs: tuple[tuple[int, str, bool], ...]  # (register, name, is a scalar)
    slabs: tuple[tuple[str, int], ...]  # (store, the slot of its chain)
    domain: str
    reads: frozenset[str]  # the buffers it loads or reduces into
    stored: tuple[str, ...]  # the buffers its StoreStmts write
    strips: bool  # no ReduceStmt
    nregs: int
    ops: tuple[tuple[Callable, tuple[int, ...], int, bool], ...]

    def run(self, env: Mapping[str, np.ndarray], scalars: Mapping[str, float]) -> None:
        regs: list = [None] * self.nregs
        for r, name, is_scalar in self.inputs:
            regs[r] = (scalars if is_scalar else env)[name]
        rows = self._strip_rows(env)
        if rows is None:
            for name, r in self.slabs:
                if not _shares_memory(name, env):
                    regs[r] = env[name]
            self._eval(regs)
            return
        cut = [(r, name) for r, name, is_scalar in self.inputs if not is_scalar and env[name].ndim]
        cut += [(r, name) for name, r in self.slabs]
        for lo in range(0, len(env[self.domain]), rows):
            views = {name: env[name][lo : lo + rows] for _, name in cut}
            for r, name in cut:
                regs[r] = views[name]
            self._eval(regs)

    def _strip_rows(self, env: Mapping[str, np.ndarray]) -> int | None:
        """Rows of axis 0 per strip, or None to run whole."""
        shape = env[self.domain].shape
        if not (self.strips and shape):
            return None
        rows = max(1, STRIP // max(1, prod(shape[1:])))
        if rows >= shape[0]:
            return None
        for _, name, is_scalar in self.inputs:
            if not is_scalar and env[name].ndim and env[name].shape != shape:
                return None
        if any(_shares_memory(name, env) for name in self.stored):
            return None
        return rows

    def _eval(self, regs: list) -> None:
        for fn, srcs, dst, into in self.ops:
            args = [regs[i] for i in srcs]
            out = regs[dst]
            if not into:  # reuse the slot's array if the result has its shape
                shape = out.shape if isinstance(out, np.ndarray) else None
                shapes = {getattr(a, "shape", ()) for a in args}
                if shape not in shapes or not shapes <= {shape, ()}:
                    out = None
            regs[dst] = fn(*args, out=out)


def _shares_memory(name: str, env: Mapping[str, np.ndarray]) -> bool:
    """Whether buffer ``name`` may share memory with another bound buffer."""
    buf = env[name]
    return any(o != name and np.may_share_memory(buf, a) for o, a in env.items())


def _assign(val: object, out: np.ndarray) -> np.ndarray:
    if val is not out:
        out[...] = val
    return out


def _reduce(val: object, domain: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[()] += np.sum(val) if np.ndim(val) else val * np.prod(domain.shape)
    return out


def _copy_if_shared(val: object, *written: np.ndarray, out: None = None) -> object:
    shared = isinstance(val, np.ndarray) and any(np.may_share_memory(val, w) for w in written)
    return val.copy() if shared else val


def _compile_nest(nest: LoopNest, priv: Mapping[str, Privilege]) -> _NestPlan:
    """Compile a nest into ops in evaluation order.

    An op ``(fn, sources, dst, into)`` runs ``regs[dst] = fn(*sources,
    out=...)``. Each Bin or Neg is one op. A store's root op writes into its
    target (``into``); any other op into a slot whose value had its last read
    at this op or earlier, else a new one, with the slot's array as out if it
    has the result's shape. A temp set to a load, scalar or temp names that
    operand, but a bare load with a write after it is a copy op, which
    copies if the two share memory.

    A chain of single-read temps ending in ``StoreStmt D`` shares one slot,
    which starts as D's slab, when D is written once in the nest and read by
    no statement up to and including that store: until then D's contents are
    dead. Each link is the first single-read temp its successor reads. The
    slot starts empty if another bound buffer shares D's memory. A store or
    reduction through a param that forbids it raises here, before any op runs.
    """
    body = nest.body
    reads = [0] * len(body)  # per SetTemp, the reads of the value it sets
    sources: list[list[int]] = []
    defined: dict[str, int] = {}
    for i, s in enumerate(body):
        srcs = [defined[x.name] for x in _leaves(s.expr) if isinstance(x, TempRef) and x.name in defined]
        for j in srcs:
            reads[j] += 1
        sources.append(srcs)
        if isinstance(s, SetTemp):
            defined[s.name] = i
    writes = Counter(s.buf for s in body if not isinstance(s, SetTemp))
    chain: dict[int, str] = {}
    loaded: set[str] = set()
    for k, s in enumerate(body):
        loaded.update(ld.buf for ld in _expr_loads(s.expr))
        if not isinstance(s, StoreStmt) or writes[s.buf] != 1 or s.buf in loaded:
            continue
        j: int | None = k
        while (j := next((src for src in sources[j] if reads[src] == 1), None)) is not None:
            chain[j] = s.buf

    new_reg = count().__next__
    slabs = {buf: new_reg() for buf in dict.fromkeys(chain.values())}
    inputs: dict[tuple[type, str], int] = {}
    left: dict[int, int] = {}  # slot -> reads still due of its value; 0 when free
    free: list[int] = []
    temps: dict[str, int] = {}
    ops: list[tuple[Callable, tuple[int, ...], int, bool]] = []

    def operand(*key) -> int:
        if key not in inputs:
            inputs[key] = new_reg()
        return inputs[key]

    def read(r: int) -> None:
        if left.get(r):
            left[r] -= 1
            if not left[r]:
                free.append(r)

    def emit(fn: Callable, srcs: tuple[int, ...], dst=None, nreads=1, into=False) -> int:
        for r in srcs:
            read(r)
        if dst is None:
            dst = free.pop() if free else new_reg()
        elif dst in free:
            free.remove(dst)
        ops.append((fn, srcs, dst, into))
        if not into:
            if nreads:
                left[dst] = nreads
            else:
                free.append(dst)  # a value nothing reads
        return dst

    def value(e: Expr, dst: int | None = None, nreads: int = 1, into: bool = False) -> int:
        if isinstance(e, Load):
            return operand(Load, e.buf)
        if isinstance(e, ScalarRef):
            return operand(ScalarRef, e.name)
        if isinstance(e, TempRef):
            return temps[e.name]
        if isinstance(e, Bin):
            return emit(_BIN_OPS[e.op], (value(e.lhs), value(e.rhs)), dst, nreads, into)
        if isinstance(e, Neg):
            return emit(np.negative, (value(e.x),), dst, nreads, into)
        raise KernelError(f"unknown expression {e!r}")

    for i, s in enumerate(body):
        if not isinstance(s, SetTemp):
            p = priv.get(s.buf, Privilege.READ_WRITE)
            reduce = isinstance(s, ReduceStmt)
            if not (p.is_write or reduce and p.is_reduce):
                what = "reduce into" if reduce else "store to"
                raise PrivilegeViolationError(f"{what} read-only param {s.buf}")
            target = operand(Load, s.buf)
            if reduce:
                emit(_reduce, (value(s.expr), operand(Load, nest.domain)), target, 0, True)
            elif isinstance(s.expr, (Bin, Neg)):
                value(s.expr, target, into=True)
            else:
                emit(_assign, (value(s.expr),), target, 0, True)
            if slabs.get(s.buf) in free:
                free.remove(slabs[s.buf])  # it may hold the store's slab
        elif isinstance(s.expr, (Bin, Neg)):
            temps[s.name] = value(s.expr, slabs.get(chain.get(i, "")), reads[i])
        elif isinstance(s.expr, Load) and (
            written := dict.fromkeys(t.buf for t in body[i + 1 :] if not isinstance(t, SetTemp))
        ):
            srcs = tuple(operand(Load, b) for b in (s.expr.buf, *written))
            temps[s.name] = emit(_copy_if_shared, srcs, new_reg(), 0, True)
        else:
            r = temps[s.name] = value(s.expr)
            if r in left:
                left[r] += reads[i]
            read(r)

    del value  # it names itself; the compile state is freed now, not by the cycle collector
    return _NestPlan(
        tuple((r, name, kind is ScalarRef) for (kind, name), r in inputs.items()),
        tuple(slabs.items()),
        nest.domain,
        frozenset(loaded).union(s.buf for s in body if isinstance(s, ReduceStmt)),
        tuple(dict.fromkeys(s.buf for s in body if isinstance(s, StoreStmt))),
        not any(isinstance(s, ReduceStmt) for s in body),
        new_reg(),
        tuple(ops),
    )


def interpret(
    kernel: Kernel,
    bufs: Mapping[str, np.ndarray],
    scalars: Mapping[str, float] | None = None,
    local_shapes: Mapping[str, tuple[int, ...]] | None = None,
) -> None:
    """Execute the kernel in place on the given buffers.

    ``bufs`` must bind every buffer param, ``scalars`` every scalar a nest
    reads, and ``local_shapes`` give the shape of every local. The kernel's
    nests are compiled on its first call. A missing binding raises before any
    nest runs.
    """
    scalars = scalars or {}
    local_shapes = local_shapes or {}
    env: dict[str, np.ndarray] = dict(bufs)
    for p in kernel.buf_params:
        if p.name not in env:
            raise KernelError(f"missing buffer binding for param {p.name}")
    for loc in kernel.locals:
        if loc not in local_shapes:
            raise KernelError(f"no shape given for local buffer {loc}")
        env[loc] = np.zeros(local_shapes[loc], dtype=np.float64)
    for plan in kernel.plans:
        for _, name, is_scalar in plan.inputs:
            if is_scalar and name not in scalars:
                raise KernelError(f"missing scalar binding for {name}")

    with np.errstate(all="ignore"):
        for plan in kernel.plans:
            plan.run(env, scalars)


# --- pretty printing --------------------------------------------------------


def _expr_text(e: Expr) -> str:
    if isinstance(e, Load):
        return e.buf
    if isinstance(e, ScalarRef):
        return e.name
    if isinstance(e, TempRef):
        return e.name
    if isinstance(e, Bin):
        if e.op in ("min", "max"):
            return f"{e.op}({_expr_text(e.lhs)}, {_expr_text(e.rhs)})"
        return f"({_expr_text(e.lhs)} {e.op} {_expr_text(e.rhs)})"
    if isinstance(e, Neg):
        return f"(-{_expr_text(e.x)})"
    return repr(e)


def kernel_text(kernel: Kernel) -> str:
    """Stable textual dump used by golden tests."""
    lines = []
    params = ", ".join(f"{p.name}: {p.privilege.value}" for p in kernel.buf_params)
    scalars = ", ".join(kernel.scalar_params)
    lines.append(f"kernel({params})" + (f" scalars({scalars})" if scalars else ""))
    for l in kernel.locals:
        lines.append(f"  local {l}")
    for nest in kernel.nests:
        lines.append(f"  for extents({nest.domain}):")
        for s in nest.body:
            if isinstance(s, SetTemp):
                lines.append(f"    {s.name} = {_expr_text(s.expr)}")
            elif isinstance(s, StoreStmt):
                lines.append(f"    {s.buf} = {_expr_text(s.expr)}")
            else:
                lines.append(f"    {s.buf} += sum {_expr_text(s.expr)}")
    return "\n".join(lines)
