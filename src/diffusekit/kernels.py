"""Loop-based kernel language for task bodies.

Each task kind has a generator producing a small loop-nest program over its
point-local sub-store buffers. Fused task bodies are program-order
compositions of generated kernels; temporaries become local buffers, adjacent
nests over the same extents are merged, and locals used in one nest collapse
to per-iteration values.

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count
from math import prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ir import IndexTask, Privilege, StoreArg


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
class ScalarParam:
    name: str


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
class Un:
    op: str  # neg
    x: "Expr"


Expr = Load | ScalarRef | TempRef | Bin | Un


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
    scalar_params: tuple[ScalarParam, ...]
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
    elif isinstance(e, Un):
        yield from _leaves(e.x)
    else:
        yield e


def _expr_loads(e: Expr) -> Iterable[Load]:
    return (leaf for leaf in _leaves(e) if isinstance(leaf, Load))


def _rename_expr(e: Expr, bufs: Mapping[str, str], scalars: Mapping[str, str]) -> Expr:
    if isinstance(e, Load):
        return Load(bufs.get(e.buf, e.buf))
    if isinstance(e, ScalarRef):
        return ScalarRef(scalars.get(e.name, e.name))
    if isinstance(e, Bin):
        return Bin(e.op, _rename_expr(e.lhs, bufs, scalars), _rename_expr(e.rhs, bufs, scalars))
    if isinstance(e, Un):
        return Un(e.op, _rename_expr(e.x, bufs, scalars))
    return e


def _rename_stmt(s: Stmt, bufs: Mapping[str, str], scalars: Mapping[str, str]) -> Stmt:
    if isinstance(s, SetTemp):
        return SetTemp(s.name, _rename_expr(s.expr, bufs, scalars))
    if isinstance(s, StoreStmt):
        return StoreStmt(bufs.get(s.buf, s.buf), _rename_expr(s.expr, bufs, scalars))
    return ReduceStmt(bufs.get(s.buf, s.buf), _rename_expr(s.expr, bufs, scalars))


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
        kernel = gen(task)
        if len(kernel.buf_params) != len(task.args):
            raise KernelError(
                f"generator for {task.kind!r} produced {len(kernel.buf_params)} buffer params "
                f"for a task with {len(task.args)} arguments"
            )
        return kernel


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
            tuple(ScalarParam(f"s{k}") for k in range(len(task.scalars))),
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
    "NEG": _template(2, 1, lambda ld: Un("neg", ld(0))),
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
    args: Sequence[StoreArg],
    temp_arg_indices: frozenset[int],
    shape_classes: Mapping[int, object],
) -> Kernel:
    """Concatenate kernel bodies with parameters unified per fused argument.

    Fused argument j becomes buffer ``arg_name(j)``, ``a{j}`` as in a
    generated kernel, with the privilege of ``args[j]``, or local ``l{j}``
    when j is a demoted temporary. Scalars of kernel i become ``s{i}_{k}``.
    """
    buf_name = [arg_name(j, j in temp_arg_indices) for j in range(len(args))]
    nests: list[LoopNest] = []
    scalar_params: list[ScalarParam] = []
    for i, (kernel, amap) in enumerate(zip(kernels, arg_maps)):
        bmap = {p.name: buf_name[j] for p, j in zip(kernel.buf_params, amap)}
        smap = {sp.name: f"s{i}_{k}" for k, sp in enumerate(kernel.scalar_params)}
        scalar_params.extend(ScalarParam(v) for v in smap.values())
        for nest in kernel.nests:
            nests.append(LoopNest(bmap[nest.domain], tuple(_rename_stmt(s, bmap, smap) for s in nest.body)))
    shape_class = {buf_name[j]: shape_classes[j] for j in range(len(args)) if j in shape_classes}
    return Kernel(
        tuple(
            BufParam(buf_name[j], a.privilege)
            for j, a in enumerate(args)
            if j not in temp_arg_indices
        ),
        tuple(scalar_params),
        tuple(name for j, name in enumerate(buf_name) if j in temp_arg_indices),
        tuple(nests),
        shape_class,
    )


def fuse_loops(kernel: Kernel) -> Kernel:
    """Merge adjacent nests of the same iteration-domain class.

    Every access is at the loop index, so any dependence between two such
    nests stays within one iteration and running the bodies in one nest, in
    order, keeps it. Within one fused kernel the class also fixes the nest's
    rank: a replication's nest runs at the launch rank, a tiling's at the
    rank of its tile.
    """
    if not kernel.nests:
        return kernel
    cls = dict(kernel.shape_class)

    def domain_key(nest: LoopNest) -> object:
        return cls.get(nest.domain, ("buf", nest.domain))

    merged = [kernel.nests[0]]
    for nest in kernel.nests[1:]:
        prev = merged[-1]
        if domain_key(nest) == domain_key(prev):
            merged[-1] = LoopNest(prev.domain, prev.body + nest.body)
        else:
            merged.append(nest)
    return replace(kernel, nests=tuple(merged))


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
    """
    usage: dict[str, list[tuple[int, bool]]] = {}
    reduced_into: set[str] = set()
    for ni, nest in enumerate(kernel.nests):
        for s in nest.body:
            for ld in _expr_loads(s.expr):
                usage.setdefault(ld.buf, []).append((ni, False))
            if isinstance(s, (StoreStmt, ReduceStmt)):
                usage.setdefault(s.buf, []).append((ni, True))
                if isinstance(s, ReduceStmt):
                    reduced_into.add(s.buf)

    dead: set[str] = set()
    scalarized: set[str] = set()
    for name in kernel.locals:
        uses = usage.get(name, [])
        if all(is_w for _, is_w in uses):
            dead.add(name)
            continue
        if name in reduced_into:
            continue  # accumulation targets stay buffers
        if len({ni for ni, _ in uses}) == 1:
            scalarized.add(name)

    # A removed local may be some nest's iteration domain; each such nest needs
    # another buffer with the same extents to iterate over, otherwise the local
    # has to stay.
    while True:
        gone = dead | scalarized
        problem = None
        for nest in kernel.nests:
            if nest.domain not in gone:
                continue
            survives = any(
                isinstance(s, (StoreStmt, ReduceStmt)) and s.buf not in gone
                for s in nest.body
            )
            if survives and _domain_replacement(nest, gone, kernel.shape_class) is None:
                problem = nest.domain
                break
        if problem is None:
            break
        dead.discard(problem)
        scalarized.discard(problem)

    def temp_of(name: str) -> str:
        return f"_v_{name}"

    def rewrite_expr(e: Expr) -> Expr:
        if isinstance(e, Load) and e.buf in scalarized:
            return TempRef(temp_of(e.buf))
        if isinstance(e, Bin):
            return Bin(e.op, rewrite_expr(e.lhs), rewrite_expr(e.rhs))
        if isinstance(e, Un):
            return Un(e.op, rewrite_expr(e.x))
        return e

    gone = dead | scalarized
    new_nests = []
    for nest in kernel.nests:
        body: list[Stmt] = []
        for s in nest.body:
            if isinstance(s, StoreStmt) and s.buf in dead:
                continue
            if isinstance(s, ReduceStmt) and s.buf in dead:
                continue
            if isinstance(s, StoreStmt) and s.buf in scalarized:
                body.append(SetTemp(temp_of(s.buf), rewrite_expr(s.expr)))
            elif isinstance(s, SetTemp):
                body.append(SetTemp(s.name, rewrite_expr(s.expr)))
            elif isinstance(s, StoreStmt):
                body.append(StoreStmt(s.buf, rewrite_expr(s.expr)))
            else:
                body.append(ReduceStmt(s.buf, rewrite_expr(s.expr)))
        if not any(isinstance(s, (StoreStmt, ReduceStmt)) for s in body):
            continue  # no observable effects left
        domain = nest.domain
        if domain in gone:
            domain = _domain_replacement(nest, gone, kernel.shape_class)
            assert domain is not None  # guaranteed by the back-off loop above
        new_nests.append(LoopNest(domain, tuple(body)))
    return replace(
        kernel,
        locals=tuple(l for l in kernel.locals if l not in gone),
        nests=tuple(new_nests),
    )


def optimize(kernel: Kernel) -> Kernel:
    return scalarize_locals(fuse_loops(kernel))


# --- instrumentation --------------------------------------------------------


def count_memory_traffic(kernel: Kernel, shapes: Mapping[str, tuple[int, ...]]) -> tuple[int, int]:
    """Static (loads, stores) element-access counts for one execution.

    ReduceStmt counts as one store per iteration; scalar params are free.
    """
    loads = 0
    stores = 0
    for nest in kernel.nests:
        vol = 1
        for e in shapes[nest.domain]:
            vol *= e
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
    out=...)``. Each Bin/Un is one op. A store's root op writes into its
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
        if isinstance(e, Un):
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
            elif isinstance(s.expr, (Bin, Un)):
                value(s.expr, target, into=True)
            else:
                emit(_assign, (value(s.expr),), target, 0, True)
            if slabs.get(s.buf) in free:
                free.remove(slabs[s.buf])  # it may hold the store's slab
        elif isinstance(s.expr, (Bin, Un)):
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

    ``bufs`` must bind every buffer param and ``local_shapes`` give the shape
    of every local. The kernel's nests are compiled on its first call.
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
    if isinstance(e, Un):
        return f"(-{_expr_text(e.x)})"
    return repr(e)


def kernel_text(kernel: Kernel) -> str:
    """Stable textual dump used by golden tests."""
    lines = []
    params = ", ".join(f"{p.name}: {p.privilege.value}" for p in kernel.buf_params)
    scalars = ", ".join(s.name for s in kernel.scalar_params)
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
