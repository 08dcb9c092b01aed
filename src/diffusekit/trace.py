"""JSON-lines stream format and benchmark stream generators.

One event per line: create_store, create_partition, index_task, drop_ref,
flush. print_trace writes each line as ``json.dumps`` would write the event's
object, and the format round-trips through parse_trace/print_trace exactly.
Parsing validates ids, ranks, projections (rows of one width, projecting from
the rank of the launch that uses them) and reference counts, with
line-numbered errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ir import PRIVILEGES, NonePart, Partition, ProjectionFn, Tiling

_INF = float("inf")
_ABSENT = object()  # a key missing from a JSON object, which null is not
_encode_string = json.encoder.encode_basestring_ascii


class TraceError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class CreateStore:
    id: int
    shape: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CreatePartition:
    id: int
    store: int
    kind: str  # "none" | "tiling"
    tile: tuple[int, ...] | None = None
    offset: tuple[int, ...] | None = None
    proj: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None  # (A, b)


@dataclass(frozen=True, slots=True)
class TaskEvent:
    kind: str
    domain: tuple[int, ...]
    args: tuple[tuple[int, int, str], ...]  # (store, partition id, privilege)
    scalars: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, slots=True)
class DropRef:
    store: int


@dataclass(frozen=True, slots=True)
class Flush:
    pass


Event = CreateStore | CreatePartition | TaskEvent | DropRef | Flush


def partition_from_event(ev: CreatePartition) -> Partition:
    if ev.kind == "none":
        return NonePart()
    assert ev.tile is not None and ev.offset is not None and ev.proj is not None
    matrix, offset_vec = ev.proj
    return Tiling(ev.tile, ev.offset, ProjectionFn(matrix, offset_vec))


# --- serialization -----------------------------------------------------------


class _Quoted(dict):
    """JSON text of each string, encoded once, on first use."""

    def __missing__(self, s: str) -> str:
        text = self[s] = _encode_string(s)
        return text


def _number(value: object) -> str:
    """A scalar value as ``json.dumps`` writes it."""
    if type(value) is float:
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    return json.dumps(value)


def print_trace(events: Iterable[Event]) -> str:
    """One JSON object per event and line, as ``json.dumps`` writes it: keys
    in a fixed order per event, ``", "`` and ``": "`` separators, strings
    ASCII-escaped, and ``"scalars"`` on every task."""
    quoted = _Quoted()
    lines = []
    append = lines.append
    for ev in events:
        cls = type(ev)
        if cls is TaskEvent:
            args = ", ".join(
                [f'{{"store": {s}, "part": {p}, "priv": {quoted[pr]}}}' for s, p, pr in ev.args]
            )
            # a dict, as json.dumps saw it: a repeated name keeps its first
            # place and its last value
            scalars = ", ".join(
                [f"{quoted[name]}: {_number(v)}" for name, v in dict(ev.scalars).items()]
            )
            append(
                f'{{"event": "index_task", "kind": {quoted[ev.kind]}, "domain": {list(ev.domain)}, '
                f'"args": [{args}], "scalars": {{{scalars}}}}}'
            )
        elif cls is CreateStore:
            append(f'{{"event": "create_store", "id": {ev.id}, "shape": {list(ev.shape)}}}')
        elif cls is CreatePartition:
            head = (
                f'{{"event": "create_partition", "id": {ev.id}, "store": {ev.store}, '
                f'"kind": {quoted[ev.kind]}'
            )
            if ev.kind == "tiling":
                matrix, b = ev.proj or ((), ())
                append(
                    f'{head}, "tile": {list(ev.tile or ())}, "offset": {list(ev.offset or ())}, '
                    f'"proj": {{"A": {[list(row) for row in matrix]}, "b": {list(b)}}}}}'
                )
            else:
                append(head + "}")
        elif cls is DropRef:
            append(f'{{"event": "drop_ref", "store": {ev.store}}}')
        else:
            append('{"event": "flush"}')
    return "\n".join(lines) + "\n"


def _int_tuple(value: object, line: int, what: str) -> tuple[int, ...]:
    """``value`` as a tuple of JSON integers; a bool or a float is no integer."""
    if type(value) is list:
        for v in value:
            if type(v) is not int:
                break
        else:
            return tuple(value)
    raise TraceError(line, f"{what} must be a list of integers")


def _scalar(name: str, value: object, line: int) -> tuple[str, float]:
    if type(value) is not int and type(value) is not float:
        raise TraceError(line, f"scalar {name!r} must be a number, got {value!r}")
    try:
        return name, float(value)
    except OverflowError:  # an integer beyond the float range
        raise TraceError(line, f"scalar {name!r} is out of range") from None


def _unusable_store(sid: object, created: set[int]) -> str:
    if type(sid) is int and sid in created:
        return f"store {sid} used after its last drop_ref"
    return f"unknown store {sid}"


def parse_trace(source: str | Iterable[str]) -> list[Event]:
    """Events of a JSON-lines trace. Every check raises a TraceError naming
    its line; a message is formatted only when its check fails. The checks
    on projection widths and ranks run after every other check of a line. A
    store may not be named after its last ``drop_ref``."""
    lines: Iterator[str] = iter(source.splitlines() if isinstance(source, str) else source)
    scan = json.JSONDecoder().scan_once
    events: list[Event] = []
    append = events.append
    store_ranks: dict[int, int] = {}  # of the stores a line may still name
    # partition id -> (store id, rank of the launch points a tiling projects
    # from; None for a "none" partition, which takes any launch)
    parts: dict[int, tuple[int, int | None]] = {}
    created: set[int] = set()  # every store id defined so far, live or dropped
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj, end = scan(raw, 0)
        except (StopIteration, ValueError, TypeError):
            end = -1
        if end != len(raw):
            # json.loads reports the failure as it always did (and decodes a
            # line given as bytes)
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceError(lineno, f"invalid JSON: {exc}") from exc
        if type(obj) is not dict:
            raise TraceError(lineno, "expected an object with an 'event' field")
        tag = obj.get("event")
        if tag == "index_task":
            kind = obj.get("kind")
            if type(kind) is not str or not kind:
                raise TraceError(lineno, "task kind must be a nonempty string")
            domain = _int_tuple(obj.get("domain"), lineno, "domain")
            if not domain or min(domain) <= 0:
                raise TraceError(lineno, "domain extents must be positive")
            raw_args = obj.get("args")
            if type(raw_args) is not list or not raw_args:
                raise TraceError(lineno, "args must be a nonempty list")
            launch_rank = len(domain)
            misprojected = None
            args = []
            for a in raw_args:
                if type(a) is not dict:
                    raise TraceError(lineno, "each arg must be an object")
                s, p, pr = a.get("store"), a.get("part"), a.get("priv")
                if type(s) is not int or s not in store_ranks:
                    raise TraceError(lineno, _unusable_store(s, created))
                part = parts.get(p) if type(p) is int else None
                if part is None:
                    raise TraceError(lineno, f"unknown partition {p}")
                owner, in_rank = part
                if owner != s:
                    raise TraceError(lineno, f"partition {p} belongs to store {owner}, not {s}")
                if type(pr) is not str or pr not in PRIVILEGES:
                    raise TraceError(lineno, f"malformed privilege {pr!r}")
                if in_rank is not None and in_rank != launch_rank and misprojected is None:
                    misprojected = p
                args.append((s, p, pr))
            raw_scalars = obj.get("scalars", {})
            if type(raw_scalars) is not dict:
                raise TraceError(lineno, "scalars must be an object")
            scalars = tuple([_scalar(k, v, lineno) for k, v in raw_scalars.items()])
            if misprojected is not None:
                raise TraceError(
                    lineno,
                    f"partition {misprojected} projects from rank {parts[misprojected][1]}, "
                    f"not the launch rank {launch_rank}",
                )
            append(TaskEvent(kind, domain, tuple(args), scalars))
        elif tag == "create_store":
            sid = obj.get("id")
            if type(sid) is not int or sid < 0:
                raise TraceError(lineno, "store id must be a non-negative integer")
            if sid in created:
                raise TraceError(lineno, f"store id {sid} already defined")
            shape = _int_tuple(obj.get("shape"), lineno, "shape")
            if shape and min(shape) <= 0:
                raise TraceError(lineno, "shape extents must be positive")
            store_ranks[sid] = len(shape)
            created.add(sid)
            append(CreateStore(sid, shape))
        elif tag == "create_partition":
            pid, sid, kind = obj.get("id"), obj.get("store"), obj.get("kind")
            if type(pid) is not int:
                raise TraceError(lineno, "partition id must be an integer")
            if pid in parts:
                raise TraceError(lineno, f"partition id {pid} already defined")
            rank = store_ranks.get(sid) if type(sid) is int else None
            if rank is None:
                raise TraceError(lineno, _unusable_store(sid, created))
            if kind == "none":
                append(CreatePartition(pid, sid, "none"))
                parts[pid] = (sid, None)
            elif kind == "tiling":
                tile = _int_tuple(obj.get("tile"), lineno, "tile")
                offset = _int_tuple(obj.get("offset"), lineno, "offset")
                proj = obj.get("proj")
                rows = b = _ABSENT
                if type(proj) is dict:
                    rows, b = proj.get("A", _ABSENT), proj.get("b", _ABSENT)
                if rows is _ABSENT or b is _ABSENT:
                    raise TraceError(lineno, "tiling needs proj {A, b}")
                if type(rows) is not list:
                    raise TraceError(lineno, "proj.A must be a list of rows")
                matrix = tuple([_int_tuple(row, lineno, "proj.A row") for row in rows])
                b = _int_tuple(b, lineno, "proj.b")
                if not len(tile) == len(offset) == len(matrix) == len(b) == rank:
                    raise TraceError(lineno, f"tiling rank must match store rank {rank}")
                if tile and min(tile) <= 0:
                    raise TraceError(lineno, "tile extents must be positive")
                widths = {len(row) for row in matrix}
                if len(widths) > 1:
                    raise TraceError(lineno, f"proj.A rows differ in length: {sorted(widths)}")
                append(CreatePartition(pid, sid, "tiling", tile, offset, (matrix, b)))
                parts[pid] = (sid, widths.pop() if widths else 0)
            else:
                raise TraceError(lineno, f"unknown partition kind {kind!r}")
        elif tag == "drop_ref":
            sid = obj.get("store")
            if type(sid) is not int or sid not in created:
                raise TraceError(lineno, f"unknown store {sid}")
            if store_ranks.pop(sid, None) is None:  # dropped before: a store has one reference
                raise TraceError(lineno, f"reference underflow on store {sid}")
            append(DropRef(sid))
        elif tag == "flush":
            append(Flush())
        elif tag is None and "event" not in obj:
            raise TraceError(lineno, "expected an object with an 'event' field")
        else:
            raise TraceError(lineno, f"unknown event {tag!r}")
    return events


# --- benchmark generators ----------------------------------------------------


def _identity_proj(rank: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    return (
        tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)),
        (0,) * rank,
    )


class _Builder:
    def __init__(self) -> None:
        self.events: list[Event] = []
        self._next_store = 0
        self._next_part = 0
        self._identity: dict[int, tuple] = {}  # rank -> one shared identity projection

    def store(self, shape: Sequence[int]) -> int:
        sid = self._next_store
        self._next_store += 1
        self.events.append(CreateStore(sid, tuple(shape)))
        return sid

    def none_part(self, store: int) -> int:
        pid = self._next_part
        self._next_part += 1
        self.events.append(CreatePartition(pid, store, "none"))
        return pid

    def tiling(self, store: int, tile: Sequence[int], offset: Sequence[int]) -> int:
        pid = self._next_part
        self._next_part += 1
        rank = len(tile)
        proj = self._identity.get(rank)
        if proj is None:
            proj = self._identity[rank] = _identity_proj(rank)
        self.events.append(CreatePartition(pid, store, "tiling", tuple(tile), tuple(offset), proj))
        return pid

    def task(self, kind, domain, args, scalars=()) -> None:
        self.events.append(TaskEvent(kind, tuple(domain), tuple(args), tuple(scalars)))

    def drop(self, store: int) -> None:
        self.events.append(DropRef(store))

    def flush(self) -> None:
        self.events.append(Flush())


def _check_counts(size: int, nodes: int, iters: int) -> None:
    """Reject generator arguments that give no valid trace."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if nodes <= 0:
        raise ValueError(f"nodes must be positive, got {nodes}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def gen_stencil(size: int = 34, nodes: int = 2, iters: int = 10) -> list[Event]:
    """Five-point averaging stencil over aliased interior views of one grid.

    Per iteration: four ADDs chaining the neighbor views, one scalar MULT into
    the work array, and a COPY of work back into the grid's center view.
    """
    _check_counts(size, nodes, iters)
    m = size - 2
    if m < 1:
        raise ValueError(f"stencil size {size} leaves no interior: it must be at least 3")
    if m % nodes:
        raise ValueError(f"interior size {m} must be divisible by nodes {nodes}")
    t = m // nodes
    b = _Builder()
    grid = b.store((size, size))
    work = b.store((m, m))
    p_center = b.tiling(grid, (t, t), (1, 1))
    p_north = b.tiling(grid, (t, t), (0, 1))
    p_east = b.tiling(grid, (t, t), (1, 2))
    p_west = b.tiling(grid, (t, t), (1, 0))
    p_south = b.tiling(grid, (t, t), (2, 1))
    p_work = b.tiling(work, (t, t), (0, 0))
    launch = (nodes, nodes)
    for _ in range(iters):
        tmp = [b.store((m, m)) for _ in range(4)]  # t1, t2, t3, avg
        pt = [b.tiling(s, (t, t), (0, 0)) for s in tmp]
        t1, t2, t3, avg = tmp
        b.task("ADD", launch, [(grid, p_center, "R"), (grid, p_north, "R"), (t1, pt[0], "W")])
        b.task("ADD", launch, [(t1, pt[0], "R"), (grid, p_east, "R"), (t2, pt[1], "W")])
        b.drop(t1)
        b.task("ADD", launch, [(t2, pt[1], "R"), (grid, p_west, "R"), (t3, pt[2], "W")])
        b.drop(t2)
        b.task("ADD", launch, [(t3, pt[2], "R"), (grid, p_south, "R"), (avg, pt[3], "W")])
        b.drop(t3)
        b.task("MULT", launch, [(avg, pt[3], "R"), (work, p_work, "W")], [("s", 0.2)])
        b.drop(avg)
        b.task("COPY", launch, [(work, p_work, "R"), (grid, p_center, "W")])
        b.flush()
    return b.events


def gen_blackscholes_chain(size: int = 1024, nodes: int = 4, iters: int = 4) -> list[Event]:
    """A 67-task elementwise chain per iteration over rank-1 stores.

    The operator cycle (negate, scale by 2, copy, scale by one half, negate)
    keeps every element exactly representable and bounded, so fused and
    unfused runs compare bit for bit.
    """
    _check_counts(size, nodes, iters)
    if size % nodes:
        raise ValueError(f"size {size} must be divisible by nodes {nodes}")
    t = size // nodes
    b = _Builder()
    x = b.store((size,))
    y = b.store((size,))
    out = b.store((size,))
    px = b.tiling(x, (t,), (0,))
    py = b.tiling(y, (t,), (0,))
    pout = b.tiling(out, (t,), (0,))
    launch = (nodes,)
    cycle = ("NEG", "MULT", "COPY", "MULT", "NEG")
    for _ in range(iters):
        prev = b.store((size,))
        pprev = b.tiling(prev, (t,), (0,))
        b.task("ADD", launch, [(x, px, "R"), (y, py, "R"), (prev, pprev, "W")])
        for k in range(65):
            op = cycle[k % 5]
            cur = b.store((size,))
            pcur = b.tiling(cur, (t,), (0,))
            if op == "MULT":
                scale = 2.0 if k % 5 == 1 else 0.5
                b.task("MULT", launch, [(prev, pprev, "R"), (cur, pcur, "W")], [("s", scale)])
            else:
                b.task(op, launch, [(prev, pprev, "R"), (cur, pcur, "W")])
            b.drop(prev)
            prev, pprev = cur, pcur
        b.task("COPY", launch, [(prev, pprev, "R"), (out, pout, "W")])
        b.drop(prev)
        b.flush()
    return b.events


def gen_jacobi(size: int = 16, nodes: int = 4, iters: int = 5) -> list[Event]:
    """Jacobi-style update: opaque MATVEC, then residual and relaxed update.

    The MATVEC reads the iterate through replication, so only the two
    elementwise tasks fuse.
    """
    _check_counts(size, nodes, iters)
    if size % nodes:
        raise ValueError(f"size {size} must be divisible by nodes {nodes}")
    t = size // nodes
    b = _Builder()
    mat = b.store((size, size))
    x = b.store((size,))
    rhs = b.store((size,))
    y = b.store((size,))
    n_mat = b.none_part(mat)
    n_x = b.none_part(x)
    n_y = b.none_part(y)
    p_x = b.tiling(x, (t,), (0,))
    p_y = b.tiling(y, (t,), (0,))
    p_rhs = b.tiling(rhs, (t,), (0,))
    launch = (nodes,)
    for _ in range(iters):
        r = b.store((size,))
        p_r = b.tiling(r, (t,), (0,))
        b.task("MATVEC", (1,), [(mat, n_mat, "R"), (x, n_x, "R"), (y, n_y, "W")])
        b.task("SUB", launch, [(rhs, p_rhs, "R"), (y, p_y, "R"), (r, p_r, "W")])
        b.task("AXPY", launch, [(r, p_r, "R"), (x, p_x, "RW")], [("w", 0.5)])
        b.drop(r)
        b.flush()
    return b.events


def gen_cg_like(size: int = 16, nodes: int = 4, iters: int = 5) -> list[Event]:
    """Conjugate-gradient-shaped iteration: 12 tasks mixing an opaque SPMV,
    dot-product reductions into rank-0 stores, ratio updates reading those
    scalars through replication, and an elementwise tail."""
    _check_counts(size, nodes, iters)
    if size % nodes:
        raise ValueError(f"size {size} must be divisible by nodes {nodes}")
    t = size // nodes
    b = _Builder()
    mat = b.store((size, size))
    x = b.store((size,))
    r = b.store((size,))
    p = b.store((size,))
    q = b.store((size,))
    resid = b.store((size,))
    n_mat = b.none_part(mat)
    n_p = b.none_part(p)
    n_q = b.none_part(q)
    p_x = b.tiling(x, (t,), (0,))
    p_r = b.tiling(r, (t,), (0,))
    p_p = b.tiling(p, (t,), (0,))
    p_q = b.tiling(q, (t,), (0,))
    p_resid = b.tiling(resid, (t,), (0,))
    launch = (nodes,)
    for _ in range(iters):
        pq = b.store(())
        rs_old = b.store(())
        rs_new = b.store(())
        n_pq = b.none_part(pq)
        n_rso = b.none_part(rs_old)
        n_rsn = b.none_part(rs_new)
        w = [b.store((size,)) for _ in range(4)]
        pw = [b.tiling(s, (t,), (0,)) for s in w]
        b.task("SPMV", (1,), [(mat, n_mat, "R"), (p, n_p, "R"), (q, n_q, "W")])
        b.task("DOT", launch, [(p, p_p, "R"), (q, p_q, "R"), (pq, n_pq, "Rd")])
        b.task("DOT", launch, [(r, p_r, "R"), (r, p_r, "R"), (rs_old, n_rso, "Rd")])
        b.task("AXPY_RATIO", launch, [(p, p_p, "R"), (x, p_x, "RW"), (rs_old, n_rso, "R"), (pq, n_pq, "R")])
        b.task("AXMY_RATIO", launch, [(q, p_q, "R"), (r, p_r, "RW"), (rs_old, n_rso, "R"), (pq, n_pq, "R")])
        b.drop(pq)
        b.task("DOT", launch, [(r, p_r, "R"), (r, p_r, "R"), (rs_new, n_rsn, "Rd")])
        b.task("XPBY_RATIO", launch, [(r, p_r, "R"), (p, p_p, "RW"), (rs_new, n_rsn, "R"), (rs_old, n_rso, "R")])
        b.drop(rs_old)
        b.drop(rs_new)
        b.task("COPY", launch, [(r, p_r, "R"), (w[0], pw[0], "W")])
        b.task("NEG", launch, [(w[0], pw[0], "R"), (w[1], pw[1], "W")])
        b.drop(w[0])
        b.task("MULT", launch, [(w[1], pw[1], "R"), (w[2], pw[2], "W")], [("s", 2.0)])
        b.drop(w[1])
        b.task("ADD", launch, [(w[2], pw[2], "R"), (r, p_r, "R"), (w[3], pw[3], "W")])
        b.drop(w[2])
        b.task("COPY", launch, [(w[3], pw[3], "R"), (resid, p_resid, "W")])
        b.drop(w[3])
        b.flush()
    return b.events


BENCHMARKS = {
    "stencil": gen_stencil,
    "blackscholes_chain": gen_blackscholes_chain,
    "jacobi": gen_jacobi,
    "cg_like": gen_cg_like,
}


def gen_benchmark(name: str, size: int | None = None, nodes: int | None = None, iters: int | None = None) -> list[Event]:
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")
    kwargs = {}
    if size is not None:
        kwargs["size"] = size
    if nodes is not None:
        kwargs["nodes"] = nodes
    if iters is not None:
        kwargs["iters"] = iters
    return BENCHMARKS[name](**kwargs)
