"""Command-line front end: analyze, run, canon, and bench subcommands."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from .executor import ExecutionError, heap_diff
from .kernels import KernelError
from .memo import CanonicalStream, Carve, MemoCache, canon_text
from .oracle import DEFAULT_ORACLE_CAP
from .pipeline import Report, Session, SessionConfig, run_events
from .trace import (
    BENCHMARKS,
    TraceError,
    gen_benchmark,
    parse_trace,
    print_trace,
)


def _setup_logging() -> None:
    level_name = os.environ.get("DIFFUSEKIT_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=10, help="initial task-window size")
    p.add_argument("--seed", type=int, default=0, help="seed for deterministic store contents")
    p.add_argument("--json-report", metavar="PATH", help="write the machine-readable report here")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    _add_common_flags(p)
    p.add_argument("--no-fusion", action="store_true", help="run every task unfused")
    p.add_argument("--no-memo", action="store_true", help="disable the analysis memo cache")
    p.add_argument("--no-temp-elim", action="store_true", help="keep temporaries as stores")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check every fused prefix launched over at most "
        f"{DEFAULT_ORACLE_CAP} points against the brute-force dependence oracle",
    )


def _config(ns: argparse.Namespace, execute: bool) -> SessionConfig:
    return SessionConfig(
        window=ns.window,
        fusion=not ns.no_fusion,
        memoize=not ns.no_memo,
        temp_elim=not ns.no_temp_elim,
        oracle_check=ns.oracle,
        execute=execute,
        seed=ns.seed,
    )


def _load_events(path: str):
    if path == "-":
        return parse_trace(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


def _emit_report(report: Report, ns: argparse.Namespace) -> None:
    print(report.summary())
    if ns.json_report:
        with open(ns.json_report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")


def _cmd_analyze(ns: argparse.Namespace) -> int:
    events = _load_events(ns.trace)
    session = Session(_config(ns, execute=False))
    report = run_events(session, events)
    _emit_report(report, ns)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    events = _load_events(ns.trace)
    session = Session(_config(ns, execute=True))
    report = run_events(session, events)
    _emit_report(report, ns)
    if not ns.diff:
        return 0
    ref_cfg = _config(ns, execute=True)
    ref_cfg.fusion = False
    reference = Session(ref_cfg)
    run_events(reference, events)
    ids = sorted(set(session.live_store_ids()) | set(reference.live_store_ids()))
    mismatches = heap_diff(session.heap, reference.heap, ids)
    if mismatches:
        print(f"heap mismatch on stores {mismatches}", file=sys.stderr)
        return 1
    print("heaps identical")
    return 0


class _RecordingMemo(MemoCache):
    """A memo cache that keeps every key it is asked for and whether it hit."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups: list[tuple[CanonicalStream, bool]] = []

    def lookup(self, key: CanonicalStream) -> tuple[Carve, ...] | None:
        carves = super().lookup(key)
        self.lookups.append((key, carves is not None))
        return carves


def _cmd_canon(ns: argparse.Namespace) -> int:
    session = Session(SessionConfig(execute=False))
    session.memo = memo = _RecordingMemo()
    run_events(session, _load_events(ns.trace))
    for key, hit in memo.lookups:
        print("hit" if hit else "miss")
        print(canon_text(key))
        print()
    return 0


def bench_report(
    name: str,
    size: int | None = None,
    nodes: int | None = None,
    iters: int | None = None,
    window: int = 10,
    seed: int = 0,
) -> dict:
    """Fused vs unfused pass counts and static traffic for one benchmark.

    Runs analysis only; steady-state counts come from the final iteration,
    and are zero when there is none.
    """
    events = gen_benchmark(name, size, nodes, iters)
    fused = Session(SessionConfig(window=window, execute=False, seed=seed))
    fused_report = run_events(fused, events)
    plain = Session(SessionConfig(window=window, fusion=False, execute=False, seed=seed))
    plain_report = run_events(plain, events)
    per_iter = fused_report.iterations()
    tin, tout = per_iter[-1] if per_iter else (0, 0)
    return {
        "name": name,
        "per_iteration": per_iter,
        "tasks_per_iter_in": tin,
        "tasks_per_iter_fused": tout,
        "fused": fused_report.to_json(),
        "unfused": plain_report.to_json(),
        "traffic_reduction": (
            (plain_report.loads + plain_report.stores)
            / max(1, fused_report.loads + fused_report.stores)
        ),
    }


def _cmd_bench(ns: argparse.Namespace) -> int:
    result = bench_report(ns.name, ns.size, ns.nodes, ns.iters, window=ns.window, seed=ns.seed)
    print(
        f"{result['name']}: tasks/iteration {result['tasks_per_iter_in']} -> "
        f"{result['tasks_per_iter_fused']}"
    )
    print(
        f"traffic: unfused {result['unfused']['loads']}+{result['unfused']['stores']}, "
        f"fused {result['fused']['loads']}+{result['fused']['stores']} "
        f"({result['traffic_reduction']:.1f}x reduction)"
    )
    if ns.json_report:
        with open(ns.json_report, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_gen(ns: argparse.Namespace) -> int:
    events = gen_benchmark(ns.name, ns.size, ns.nodes, ns.iters)
    sys.stdout.write(print_trace(events))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusekit",
        description="Task-stream fusion engine: analyze, execute and benchmark "
        "distributed index-task traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fusion report without execution")
    p.add_argument("trace", help="trace file, or - for stdin")
    _add_engine_flags(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("run", help="execute a trace, optionally diffing against the unfused run")
    p.add_argument("trace", help="trace file, or - for stdin")
    p.add_argument("--diff", action="store_true", help="compare final heaps against an unfused run")
    _add_engine_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("canon", help="print the memo key of every lookup, marked hit or miss")
    p.add_argument("trace", help="trace file, or - for stdin")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("bench", help="benchmark generators with pass-count and traffic stats")
    p.add_argument("name", choices=sorted(BENCHMARKS))
    p.add_argument("--size", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--iters", type=int)
    _add_common_flags(p)  # bench compares fused with unfused; engine flags would not apply
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("gen", help="emit a benchmark trace to stdout")
    p.add_argument("name", choices=sorted(BENCHMARKS))
    p.add_argument("--size", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--iters", type=int)
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KernelError, ExecutionError) as exc:
        # a trace the engine rejects; a SoundnessError, an engine fault,
        # keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
