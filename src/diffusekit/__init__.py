"""diffusekit: scale-free fusion of distributed index-task streams.

The package ingests streams of index tasks over partitioned distributed
arrays, greedily fuses fusible prefixes, demotes fusion-created temporaries to
task-local buffers, memoizes analysis across isomorphic windows, and verifies
everything against a brute-force dependence oracle and a reference
interpreter.
"""

from __future__ import annotations

from .ir import (
    Domain,
    IndexTask,
    NonePart,
    Partition,
    Privilege,
    ProjectionFn,
    Store,
    StoreArg,
    Tiling,
    covers,
    sub_store_bounds,
)
from .fusion import (
    ConstraintVerdict,
    FusionConstraint,
    build_fused_task,
    longest_fusible_prefix,
)
from .kernels import Kernel, KernelRegistry, default_registry, optimize
from .memo import CanonicalStream, MemoCache, canonicalize
from .oracle import dependence_map, oracle_fusible
from .pipeline import Report, Session, SessionConfig, run_events
from .temporaries import RefState, find_temporaries
from .trace import gen_benchmark, parse_trace, print_trace

__version__ = "0.1.0"

__all__ = [
    "CanonicalStream",
    "ConstraintVerdict",
    "Domain",
    "FusionConstraint",
    "IndexTask",
    "Kernel",
    "KernelRegistry",
    "MemoCache",
    "NonePart",
    "Partition",
    "Privilege",
    "ProjectionFn",
    "RefState",
    "Report",
    "Session",
    "SessionConfig",
    "Store",
    "StoreArg",
    "Tiling",
    "build_fused_task",
    "canonicalize",
    "covers",
    "default_registry",
    "dependence_map",
    "find_temporaries",
    "gen_benchmark",
    "longest_fusible_prefix",
    "optimize",
    "oracle_fusible",
    "parse_trace",
    "print_trace",
    "run_events",
    "sub_store_bounds",
]
