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
a named buffer, and concrete shapes are bound only at interpretation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ir import IndexTask, Privilege, join_privileges


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
    rank: int
    privilege: Privilege


@dataclass(frozen=True)
class ScalarParam:
    name: str


@dataclass(frozen=True)
class LocalBuf:
    name: str
    rank: int


@dataclass(frozen=True)
class Load:
    buf: str
    rank: int  # the nest's rank, or 0 for a whole rank-0 buffer


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
    rank: int
    body: tuple[Stmt, ...]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A compiled kernel. Kernels compare by identity: a memoized kernel is
    shared by every launch that replays it, so caches can key on it."""

    buf_params: tuple[BufParam, ...]
    scalar_params: tuple[ScalarParam, ...]
    locals: tuple[LocalBuf, ...]
    nests: tuple[LoopNest, ...]
    # buffer name -> hashable iteration-domain class; nests merge only within a class
    shape_class: Mapping[str, object] = field(default_factory=dict)


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
        return Load(bufs.get(e.buf, e.buf), e.rank)
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
    """task_kind -> generator(task) -> Kernel."""

    def __init__(self) -> None:
        self._gens: dict[str, Generator] = {}

    def register(self, kind: str, fn: Generator) -> None:
        self._gens[kind] = fn

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


def _params(task: IndexTask) -> tuple[BufParam, ...]:
    # ranks are unknown to generators beyond what the store args imply; the
    # executor binds concrete sub-store arrays positionally
    return tuple(
        BufParam(arg_name(i), _arg_rank(task, i), a.privilege) for i, a in enumerate(task.args)
    )


def _arg_rank(task: IndexTask, i: int) -> int:
    # Partitions carry the store rank for tilings; NonePart args default to the
    # launch rank unless a tiling elsewhere in the task pins the store.
    part = task.args[i].partition
    if hasattr(part, "tile"):
        return len(part.tile)
    return task.domain.rank


def _elementwise(task: IndexTask, out: int, expr: Expr) -> Kernel:
    rank = _arg_rank(task, out)
    nest = LoopNest(arg_name(out), rank, (StoreStmt(arg_name(out), expr),))
    return Kernel(
        _params(task),
        tuple(ScalarParam(f"s{k}") for k in range(len(task.scalars))),
        (),
        (nest,),
    )


def _ld(i: int, rank: int) -> Load:
    return Load(arg_name(i), rank)


def _binary_gen(op: str) -> Generator:
    def gen(task: IndexTask) -> Kernel:
        _arity(task, 3)
        r = _arg_rank(task, 2)
        return _elementwise(task, 2, Bin(op, _ld(0, r), _ld(1, r)))

    return gen


def _gen_mult(task: IndexTask) -> Kernel:
    if len(task.args) == 2:
        _arity(task, 2, 1)
        r = _arg_rank(task, 1)
        return _elementwise(task, 1, Bin("*", ScalarRef("s0"), _ld(0, r)))
    _arity(task, 3)
    r = _arg_rank(task, 2)
    return _elementwise(task, 2, Bin("*", _ld(0, r), _ld(1, r)))


def _gen_pow(task: IndexTask) -> Kernel:
    if len(task.args) == 2:
        _arity(task, 2, 1)
        r = _arg_rank(task, 1)
        return _elementwise(task, 1, Bin("**", _ld(0, r), ScalarRef("s0")))
    _arity(task, 3)
    r = _arg_rank(task, 2)
    return _elementwise(task, 2, Bin("**", _ld(0, r), _ld(1, r)))


def _gen_copy(task: IndexTask) -> Kernel:
    _arity(task, 2)
    r = _arg_rank(task, 1)
    return _elementwise(task, 1, _ld(0, r))


def _gen_neg(task: IndexTask) -> Kernel:
    _arity(task, 2)
    r = _arg_rank(task, 1)
    return _elementwise(task, 1, Un("neg", _ld(0, r)))


def _gen_fill(task: IndexTask) -> Kernel:
    _arity(task, 1, 1)
    r = _arg_rank(task, 0)
    return _elementwise(task, 0, ScalarRef("s0"))


def _gen_axpy(task: IndexTask) -> Kernel:
    # y = y + s * x with args (x: R, y: RW)
    _arity(task, 2, 1)
    r = _arg_rank(task, 1)
    return _elementwise(task, 1, Bin("+", _ld(1, r), Bin("*", ScalarRef("s0"), _ld(0, r))))


def _reduction(task: IndexTask, acc: int, expr: Expr) -> Kernel:
    rank = _arg_rank(task, 0)
    nest = LoopNest(arg_name(0), rank, (ReduceStmt(arg_name(acc), expr),))
    return Kernel(
        _params(task),
        tuple(ScalarParam(f"s{k}") for k in range(len(task.scalars))),
        (),
        (nest,),
    )


def _gen_dot(task: IndexTask) -> Kernel:
    _arity(task, 3)
    r = _arg_rank(task, 0)
    return _reduction(task, 2, Bin("*", _ld(0, r), _ld(1, r)))


def _gen_sum(task: IndexTask) -> Kernel:
    _arity(task, 2)
    return _reduction(task, 1, _ld(0, _arg_rank(task, 0)))


def _ratio_update(sign: str) -> Generator:
    # y = y +/- (num / den) * x with args (x: R, y: RW, num: R, den: R)
    def gen(task: IndexTask) -> Kernel:
        _arity(task, 4)
        r = _arg_rank(task, 1)
        ratio = Bin("/", _ld(2, 0), _ld(3, 0))
        return _elementwise(task, 1, Bin(sign, _ld(1, r), Bin("*", ratio, _ld(0, r))))

    return gen


def _gen_xpby_ratio(task: IndexTask) -> Kernel:
    # p = r + (num / den) * p with args (r: R, p: RW, num: R, den: R)
    _arity(task, 4)
    r = _arg_rank(task, 1)
    ratio = Bin("/", _ld(2, 0), _ld(3, 0))
    return _elementwise(task, 1, Bin("+", _ld(0, r), Bin("*", ratio, _ld(1, r))))


def default_registry() -> KernelRegistry:
    reg = KernelRegistry()
    reg.register("ADD", _binary_gen("+"))
    reg.register("SUB", _binary_gen("-"))
    reg.register("DIV", _binary_gen("/"))
    reg.register("MIN", _binary_gen("min"))
    reg.register("MAX", _binary_gen("max"))
    reg.register("MULT", _gen_mult)
    reg.register("POW", _gen_pow)
    reg.register("COPY", _gen_copy)
    reg.register("NEG", _gen_neg)
    reg.register("FILL", _gen_fill)
    reg.register("AXPY", _gen_axpy)
    reg.register("DOT", _gen_dot)
    reg.register("SUM", _gen_sum)
    reg.register("AXPY_RATIO", _ratio_update("+"))
    reg.register("AXMY_RATIO", _ratio_update("-"))
    reg.register("XPBY_RATIO", _gen_xpby_ratio)
    return reg


# --- composition ------------------------------------------------------------


def compose(
    kernels: Sequence[Kernel],
    arg_maps: Sequence[Sequence[int]],
    temp_arg_indices: frozenset[int],
    shape_classes: Mapping[int, object],
    n_fused_args: int,
) -> Kernel:
    """Concatenate kernel bodies with parameters unified per fused argument.

    Fused argument j becomes buffer ``arg_name(j)``, ``a{j}`` as in a
    generated kernel, or local ``l{j}`` when j is a demoted temporary.
    Scalars of kernel i become ``s{i}_{k}``.
    """
    buf_name = {j: arg_name(j, j in temp_arg_indices) for j in range(n_fused_args)}
    nests: list[LoopNest] = []
    params: dict[int, BufParam] = {}
    scalar_params: list[ScalarParam] = []
    locals_: dict[int, LocalBuf] = {}
    for i, (kernel, amap) in enumerate(zip(kernels, arg_maps)):
        bmap: dict[str, str] = {}
        for k, p in enumerate(kernel.buf_params):
            j = amap[k]
            bmap[p.name] = buf_name[j]
            if j in temp_arg_indices:
                locals_.setdefault(j, LocalBuf(buf_name[j], p.rank))
            else:
                prev = params.get(j)
                priv = p.privilege
                if prev is not None:
                    priv = join_privileges(prev.privilege, priv)
                params[j] = BufParam(buf_name[j], p.rank, priv)
        smap = {sp.name: f"s{i}_{k}" for k, sp in enumerate(kernel.scalar_params)}
        scalar_params.extend(ScalarParam(v) for v in smap.values())
        for nest in kernel.nests:
            nests.append(LoopNest(bmap[nest.domain], nest.rank, tuple(_rename_stmt(s, bmap, smap) for s in nest.body)))
    shape_class = {buf_name[j]: shape_classes[j] for j in range(n_fused_args) if j in shape_classes}
    return Kernel(
        tuple(params[j] for j in sorted(params)),
        tuple(scalar_params),
        tuple(locals_[j] for j in sorted(locals_)),
        tuple(nests),
        shape_class,
    )


def fuse_loops(kernel: Kernel) -> Kernel:
    """Merge adjacent nests of the same rank and iteration-domain class.

    Every access is at the loop index, so any dependence between two such
    nests stays within one iteration and running the bodies in one nest, in
    order, keeps it.
    """
    if not kernel.nests:
        return kernel
    cls = dict(kernel.shape_class)

    def domain_key(nest: LoopNest) -> object:
        return cls.get(nest.domain, ("buf", nest.domain))

    merged = [kernel.nests[0]]
    for nest in kernel.nests[1:]:
        prev = merged[-1]
        if nest.rank == prev.rank and domain_key(nest) == domain_key(prev):
            merged[-1] = LoopNest(prev.domain, prev.rank, prev.body + nest.body)
        else:
            merged.append(nest)
    return replace(kernel, nests=tuple(merged))


def _domain_replacement(
    nest: LoopNest, gone: set[str], shape_class: Mapping[str, object]
) -> str | None:
    """A surviving buffer whose extents can stand in for the nest's domain.

    Prefers a buffer in the same shape class; falls back to any store or
    nest-rank load, which iterates identically for elementwise bodies.
    """
    cands = [s.buf for s in nest.body if isinstance(s, StoreStmt) and s.buf not in gone]
    for s in nest.body:
        cands.extend(
            ld.buf for ld in _expr_loads(s.expr) if ld.buf not in gone and ld.rank == nest.rank
        )
    cls = shape_class.get(nest.domain)
    for c in cands:
        if cls is not None and shape_class.get(c) == cls:
            return c
    return cands[0] if cands else None


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

    local_names = {l.name for l in kernel.locals}
    dead: set[str] = set()
    scalarized: set[str] = set()
    for name in local_names:
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
        new_nests.append(LoopNest(domain, nest.rank, tuple(body)))
    return replace(
        kernel,
        locals=tuple(l for l in kernel.locals if l.name not in gone),
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


def _plan_nest(body: Sequence[Stmt]) -> tuple[list[int], dict[int, str]]:
    """Per statement, the reads of the value it sets; and the SetTemps that may
    compute directly in a store's slab, mapped to that store.

    A chain of single-read temps ending in ``StoreStmt D`` may live in D's
    slab when D is written once in the nest and read by no statement up to and
    including that store: until then D's contents are dead. Each link is the
    first single-read temp its successor reads.
    """
    reads = [0] * len(body)
    sources: list[list[int]] = []
    defined: dict[str, int] = {}
    for i, s in enumerate(body):
        srcs = [
            defined[leaf.name]
            for leaf in _leaves(s.expr)
            if isinstance(leaf, TempRef) and leaf.name in defined
        ]
        for j in srcs:
            reads[j] += 1
        sources.append(srcs)
        if isinstance(s, SetTemp):
            defined[s.name] = i
    writes: dict[str, int] = {}
    for s in body:
        if not isinstance(s, SetTemp):
            writes[s.buf] = writes.get(s.buf, 0) + 1
    chain: dict[int, str] = {}
    loaded: set[str] = set()
    for k, s in enumerate(body):
        loaded.update(ld.buf for ld in _expr_loads(s.expr))
        if not isinstance(s, StoreStmt) or writes[s.buf] != 1 or s.buf in loaded:
            continue
        j: int | None = k
        while (j := next((src for src in sources[j] if reads[src] == 1), None)) is not None:
            chain[j] = s.buf
    return reads, chain


def _spare(a, a_free: bool, b) -> np.ndarray | None:
    """``a`` if it may receive the result of an elementwise op on (a, b)."""
    if a_free and isinstance(a, np.ndarray) and (not isinstance(b, np.ndarray) or b.shape == a.shape):
        return a
    return None


class _InPlace:
    """Vectorized evaluation of one nest that reuses dead arrays.

    Values are ``(value, free)`` pairs; a free value is an array this
    evaluation made and nothing will read again, so the op consuming it may
    write its result there. A temp's array turns free at its last read and the
    temp is released then; ``refs`` counts the reads still due through every
    temp that names an array.
    """

    def __init__(self, env: Mapping[str, np.ndarray], scalars: Mapping[str, float]) -> None:
        self.env = env
        self.scalars = scalars
        self.temps: dict[str, object] = {}
        self.left: dict[str, int] = {}
        self.refs: dict[int, int] = {}

    def value(self, e: Expr, out: np.ndarray | None = None) -> tuple[object, bool]:
        """Evaluate ``e``; a root op writes into ``out`` when one is given."""
        if isinstance(e, Bin):
            lhs, lf = self.value(e.lhs)
            rhs, rf = self.value(e.rhs)
            lf, rf = self.take(e.lhs, lhs, lf), self.take(e.rhs, rhs, rf)
            if out is None:
                out = _spare(lhs, lf, rhs)
                if out is None:
                    out = _spare(rhs, rf, lhs)
            return _BIN_OPS[e.op](lhs, rhs, out=out), True
        if isinstance(e, Un):
            x, xf = self.value(e.x)
            xf = self.take(e.x, x, xf)
            return np.negative(x, out=out if out is not None else _spare(x, xf, None)), True
        if isinstance(e, Load):
            arr = self.env[e.buf]
            return (arr[()] if arr.ndim == 0 else arr), False
        if isinstance(e, ScalarRef):
            return self.scalars[e.name], False
        if isinstance(e, TempRef):
            return self.temps[e.name], False
        raise KernelError(f"unknown expression {e!r}")

    def take(self, e: Expr, value: object, free: bool) -> bool:
        """Consume one read of ``e``'s value; returns whether it is now free."""
        if not isinstance(e, TempRef):
            return free
        left = self.left[e.name] - 1
        if left:
            self.left[e.name] = left
        else:
            del self.left[e.name], self.temps[e.name]
        key = id(value)
        n = self.refs.get(key)
        if n is None:
            return False
        if n > 1:
            self.refs[key] = n - 1
            return False
        del self.refs[key]
        return True

    def set_temp(self, name: str, value: object, free: bool, reads: int) -> None:
        if not reads:
            return
        self.temps[name] = value
        self.left[name] = reads
        key = id(value)
        if isinstance(value, np.ndarray) and (free or key in self.refs):
            self.refs[key] = self.refs.get(key, 0) + reads


def _run_nest(
    nest: LoopNest,
    env: Mapping[str, np.ndarray],
    scalars: Mapping[str, float],
    priv: Mapping[str, Privilege],
) -> None:
    """Run a nest statement by statement over whole buffers."""
    reads, chain = _plan_nest(nest.body)
    bounds = env[nest.domain].shape
    # a chain target is scratch only if it is writable and nothing else bound
    # to the kernel can see its memory
    scratch = {
        buf: env[buf]
        for buf in set(chain.values())
        if priv.get(buf, Privilege.READ_WRITE).is_write
        and not any(o != buf and np.may_share_memory(env[buf], arr) for o, arr in env.items())
    }
    run = _InPlace(env, scalars)
    for i, s in enumerate(nest.body):
        if isinstance(s, SetTemp):
            val, free = run.value(s.expr, scratch.get(chain.get(i, "")))
            free = run.take(s.expr, val, free)
            if isinstance(s.expr, Load) and isinstance(val, np.ndarray) and any(
                not isinstance(t, SetTemp) and np.may_share_memory(val, env[t.buf])
                for t in nest.body[i + 1 :]
            ):
                # a view of a buffer written later: keep the values it has now
                val, free = val.copy(), True
            run.set_temp(s.name, val, free, reads[i])
        elif isinstance(s, StoreStmt):
            if not priv.get(s.buf, Privilege.READ_WRITE).is_write and s.buf in priv:
                raise PrivilegeViolationError(f"store to read-only param {s.buf}")
            target = env[s.buf]
            if isinstance(s.expr, (Bin, Un)):
                run.value(s.expr, target)
            else:
                val, free = run.value(s.expr)
                run.take(s.expr, val, free)
                if val is not target:
                    target[...] = val
        else:
            if s.buf in priv and not priv[s.buf].is_reduce and not priv[s.buf].is_write:
                raise PrivilegeViolationError(f"reduce into read-only param {s.buf}")
            val, free = run.value(s.expr)
            run.take(s.expr, val, free)
            env[s.buf][()] += np.sum(val) if np.ndim(val) else val * np.prod(bounds)


def interpret(
    kernel: Kernel,
    bufs: Mapping[str, np.ndarray],
    scalars: Mapping[str, float] | None = None,
    local_shapes: Mapping[str, tuple[int, ...]] | None = None,
) -> None:
    """Execute the kernel in place on the given buffers.

    ``bufs`` must bind every buffer param and ``local_shapes`` give the shape
    of every local.
    """
    scalars = scalars or {}
    local_shapes = local_shapes or {}
    env: dict[str, np.ndarray] = dict(bufs)
    priv = {p.name: p.privilege for p in kernel.buf_params}
    for p in kernel.buf_params:
        if p.name not in env:
            raise KernelError(f"missing buffer binding for param {p.name}")
    for loc in kernel.locals:
        if loc.name not in local_shapes:
            raise KernelError(f"no shape given for local buffer {loc.name}")
        env[loc.name] = np.zeros(local_shapes[loc.name], dtype=np.float64)

    with np.errstate(all="ignore"):
        for nest in kernel.nests:
            _run_nest(nest, env, scalars, priv)


# --- pretty printing --------------------------------------------------------


def _index_text(rank: int) -> str:
    return ", ".join(f"i{a}" for a in range(rank))


def _expr_text(e: Expr) -> str:
    if isinstance(e, Load):
        return f"{e.buf}[{_index_text(e.rank)}]"
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
    params = ", ".join(f"{p.name}: {p.privilege.value} rank{p.rank}" for p in kernel.buf_params)
    scalars = ", ".join(s.name for s in kernel.scalar_params)
    lines.append(f"kernel({params})" + (f" scalars({scalars})" if scalars else ""))
    for l in kernel.locals:
        lines.append(f"  local {l.name} rank{l.rank}")
    for nest in kernel.nests:
        lines.append(f"  for extents({nest.domain}):")
        for s in nest.body:
            if isinstance(s, SetTemp):
                lines.append(f"    {s.name} = {_expr_text(s.expr)}")
            elif isinstance(s, StoreStmt):
                lines.append(f"    {s.buf}[{_index_text(nest.rank)}] = {_expr_text(s.expr)}")
            else:
                lines.append(f"    {s.buf} += sum {_expr_text(s.expr)}")
    return "\n".join(lines)
