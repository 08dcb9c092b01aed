"""Kernel IR: generators, composition, loop fusion, scalarization, negation
folding, interpret."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusekit import executor, kernels, pipeline
from diffusekit.executor import Heap, execute_sequential
from diffusekit.fusion import build_fused_task
from diffusekit.ir import Domain, NonePart, Privilege
from diffusekit.kernels import (
    Bin,
    BufParam,
    Kernel,
    KernelError,
    KernelRegistry,
    Load,
    LoopNest,
    Neg,
    NoGeneratorError,
    PrivilegeViolationError,
    ReduceStmt,
    ScalarRef,
    SetTemp,
    StoreStmt,
    TempRef,
    _compile_nest,
    compose,
    count_memory_traffic,
    default_registry,
    fold_negations,
    interpret,
    kernel_text,
    optimize,
    scalarize_locals,
)
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.trace import gen_benchmark, gen_blackscholes_chain, gen_stencil
import stream_fuzz
from helpers import R, RD, RW, W, store_table, task, tasks_of, tiling

REG = default_registry()


def _p(rank=1):
    return tiling((2,) * rank)


def _args(*privileges):
    """The joined privileges of fused arguments, as ``compose`` takes them."""
    return privileges


# case -> (kind, argument privileges, scalar count, kernel_text at any rank).
# Reduction targets and the ratio kinds' num/den are rank-0 replications;
# every other argument is a tiling of the launch rank.
_GOLDEN = {
    f"{kind}/{len(privs)}": (kind, privs, nscalars, text)
    for kind, privs, nscalars, text in [
        ("ADD", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = (a0 + a1)"),
        ("SUB", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = (a0 - a1)"),
        ("DIV", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = (a0 / a1)"),
        ("MIN", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = min(a0, a1)"),
        ("MAX", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = max(a0, a1)"),
        ("MULT", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = (a0 * a1)"),
        ("MULT", (R, W), 1,
         "kernel(a0: R, a1: W) scalars(s0)\n  for extents(a1):\n"
         "    a1 = (s0 * a0)"),
        ("POW", (R, R, W), 0,
         "kernel(a0: R, a1: R, a2: W)\n  for extents(a2):\n"
         "    a2 = (a0 ** a1)"),
        ("POW", (R, W), 1,
         "kernel(a0: R, a1: W) scalars(s0)\n  for extents(a1):\n"
         "    a1 = (a0 ** s0)"),
        ("COPY", (R, W), 0,
         "kernel(a0: R, a1: W)\n  for extents(a1):\n"
         "    a1 = a0"),
        ("NEG", (R, W), 0,
         "kernel(a0: R, a1: W)\n  for extents(a1):\n"
         "    a1 = (-a0)"),
        ("FILL", (W,), 1,
         "kernel(a0: W) scalars(s0)\n  for extents(a0):\n"
         "    a0 = s0"),
        ("AXPY", (R, RW), 1,
         "kernel(a0: R, a1: RW) scalars(s0)\n  for extents(a1):\n"
         "    a1 = (a1 + (s0 * a0))"),
        ("DOT", (R, R, RD), 0,
         "kernel(a0: R, a1: R, a2: Rd)\n  for extents(a0):\n"
         "    a2 += sum (a0 * a1)"),
        ("SUM", (R, RD), 0,
         "kernel(a0: R, a1: Rd)\n  for extents(a0):\n"
         "    a1 += sum a0"),
        ("AXPY_RATIO", (R, RW, R, R), 0,
         "kernel(a0: R, a1: RW, a2: R, a3: R)\n  for extents(a1):\n"
         "    a1 = (a1 + ((a2 / a3) * a0))"),
        ("AXMY_RATIO", (R, RW, R, R), 0,
         "kernel(a0: R, a1: RW, a2: R, a3: R)\n  for extents(a1):\n"
         "    a1 = (a1 - ((a2 / a3) * a0))"),
        ("XPBY_RATIO", (R, RW, R, R), 0,
         "kernel(a0: R, a1: RW, a2: R, a3: R)\n  for extents(a1):\n"
         "    a1 = (a0 + ((a2 / a3) * a1))"),
    ]
}


class TestGenerators:
    def test_add_is_a_single_elementwise_nest(self):
        t = task("ADD", (2,), [(0, _p(), R), (1, _p(), R), (2, _p(), W)])
        k = REG.generate(t)
        assert len(k.nests) == 1 and k.locals == ()
        text = kernel_text(k)
        assert "a2 = (a0 + a1)" in text

    def test_scalar_mult(self):
        t = task("MULT", (2, 2), [(0, _p(2), R), (1, _p(2), W)], [("s", 0.2)])
        k = REG.generate(t)
        assert "a1 = (s0 * a0)" in kernel_text(k)

    def test_dot_reduces_into_rank_zero(self):
        t = task("DOT", (2,), [(0, _p(), R), (1, _p(), R), (2, NonePart(), RD)])
        k = REG.generate(t)
        assert isinstance(k.nests[0].body[0], ReduceStmt)
        assert "a2 += sum (a0 * a1)" in kernel_text(k)

    def test_arity_mismatch_rejected(self):
        t = task("ADD", (2,), [(0, _p(), R), (1, _p(), W)])
        with pytest.raises(KernelError):
            REG.generate(t)

    def test_unknown_kind_signals_no_generator(self):
        t = task("MATVEC", (2,), [(0, NonePart(), R)])
        with pytest.raises(NoGeneratorError):
            REG.generate(t)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("case", sorted(_GOLDEN))
    def test_kernel_text_matches_golden(self, case, rank):
        kind, privs, nscalars, golden = _GOLDEN[case]
        p = _p(rank)
        args = [
            (j, NonePart() if pr == RD or (kind.endswith("_RATIO") and j >= 2) else p, pr)
            for j, pr in enumerate(privs)
        ]
        t = task(kind, (2,) * rank, args, [("s", 2.0)] * nscalars)
        assert kernel_text(REG.generate(t)) == golden

    def test_generated_kernels_compute_their_operation(self):
        rng = np.random.default_rng(3)
        a = rng.integers(1, 9, 8).astype(np.float64)
        b = rng.integers(1, 9, 8).astype(np.float64)
        cases = {
            "ADD": a + b,
            "SUB": a - b,
            "MIN": np.minimum(a, b),
            "MAX": np.maximum(a, b),
            "MULT": a * b,
            "DIV": a / b,
        }
        for kind, expected in cases.items():
            t = task(kind, (4,), [(0, _p(), R), (1, _p(), R), (2, _p(), W)])
            out = np.zeros(8)
            interpret(REG.generate(t), {"a0": a, "a1": b, "a2": out})
            assert (out == expected).all(), kind


def _chain_kernels(n: int):
    """c = a + b; e = c + d as two generated ADD kernels with an arg map and
    the fused arguments."""
    p = _p()
    t1 = task("ADD", (2,), [(0, p, R), (1, p, R), (2, p, W)])
    t2 = task("ADD", (2,), [(2, p, R), (3, p, R), (4, p, W)])
    return [REG.generate(t1), REG.generate(t2)], [(0, 1, 2), (2, 3, 4)], _args(R, R, RW, R, W)


class TestComposeAndOptimize:
    def test_two_adds_with_local_temporary(self):
        kernels, amap, args = _chain_kernels(2)
        composed = compose(kernels, amap, args, frozenset({2}), {j: 0 for j in range(5)})
        assert [p.name for p in composed.buf_params] == ["a0", "a1", "a3", "a4"]
        assert [l for l in composed.locals] == ["l2"]
        assert len(composed.nests) == 1
        optimized = optimize(composed)
        assert len(optimized.nests) == 1 and optimized.locals == ()

    def test_optimized_chain_matches_reference(self):
        kernels, amap, args = _chain_kernels(2)
        composed = compose(kernels, amap, args, frozenset({2}), {j: 0 for j in range(5)})
        optimized = optimize(composed)
        rng = np.random.default_rng(0)
        a, b, d = (rng.integers(1, 9, 6).astype(np.float64) for _ in range(3))
        out = np.zeros(6)
        interpret(optimized, {"a0": a, "a1": b, "a3": d, "a4": out}, {}, {"l2": (6,)})
        assert (out == a + b + d).all()

    def test_different_shape_classes_block_loop_fusion(self):
        kernels, amap, args = _chain_kernels(2)
        classes = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        composed = compose(kernels, amap, args, frozenset(), classes)
        assert len(composed.nests) == 2

    def test_compiling_leaves_no_cyclic_garbage(self, monkeypatch):
        """Every kernel that two analysis-only runs compose, compiled again
        and planned with the cycle collector off, leaves nothing for it."""
        calls = []
        composing = pipeline.compose
        monkeypatch.setattr(pipeline, "compose", lambda *a: calls.append(a) or composing(*a))
        run_events(Session(SessionConfig(window=10, execute=False)), gen_benchmark("cg_like", iters=3))
        run_events(
            Session(SessionConfig(window=67, execute=False)), gen_benchmark("blackscholes_chain", iters=1)
        )
        assert len(calls) == 8
        gc.collect()
        gc.disable()
        try:
            for a in calls:
                optimize(compose(*a)).plans
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [2, 10, 67])
    def test_elementwise_chain_collapses_to_one_nest(self, k):
        p = _p()
        tasks = [
            task("COPY", (2,), [(i, p, R), (i + 1, p, W)]) for i in range(k)
        ]
        kernels = [REG.generate(t) for t in tasks]
        amap = [(i, i + 1) for i in range(k)]
        temps = frozenset(range(1, k))
        args = _args(R, *[RW] * (k - 1), W)
        composed = compose(kernels, amap, args, temps, {j: 0 for j in range(k + 1)})
        optimized = optimize(composed)
        assert len(optimized.nests) == 1
        assert optimized.locals == ()

    def test_reduction_target_is_never_scalarized(self):
        # Accumulate a dot product into a demoted local, then read it back.
        p = _p()
        n = NonePart()
        t1 = task("DOT", (2,), [(0, p, R), (0, p, R), (1, n, RD)])
        t2 = task("COPY", (1,), [(1, n, R), (2, n, W)])
        kernels = [REG.generate(t1), REG.generate(t2)]
        composed = compose(kernels, [(0, 0, 1), (1, 2)], _args(R, RD, W), frozenset({1}), {0: 0})
        optimized = optimize(composed)
        assert [l for l in optimized.locals] == ["l1"]
        a = np.arange(1.0, 7.0)
        out = np.zeros(())
        interpret(optimized, {"a0": a, "a2": out}, {}, {"l1": ()})
        assert out[()] == float(a @ a)

    def test_local_domain_without_a_stand_in_stays_a_buffer(self):
        """FILL then SUM of a dropped store: the merged nest iterates over
        the demoted store, and no other buffer of the nest shares its shape
        class, so the local stays a buffer instead of a per-iteration value."""
        heaps, kernels = [], []
        for fusion in (True, False):
            session = Session(SessionConfig(fusion=fusion))
            session.create_store(0, (8,))
            session.create_store(1, ())
            session.submit(task("FILL", (4,), [(0, _p(), W)], [("s", 3.0)]))
            session.submit(task("SUM", (4,), [(0, _p(), R), (1, NonePart(), RD)]))
            session.drop_ref(0)
            report = session.finish()
            heaps.append(session.heap.digest([1]))
            kernels.extend(c.kernel for e, _ in session.memo._entries.values() for c in e)
        (fused,) = kernels
        assert report.fused_prefixes == [1, 1] and fused.locals == ("l0",)
        assert [s.buf for s in fused.nests[0].body] == ["l0", "a1"]
        assert heaps[0] == heaps[1]

    def test_unread_reduction_temporary_is_dropped(self):
        p = _p()
        t1 = task("MULT", (2,), [(0, p, R), (1, p, W)], [("s", 2.0)])
        t2 = task("DOT", (2,), [(1, p, R), (1, p, R), (2, NonePart(), RD)])
        kernels = [REG.generate(t1), REG.generate(t2)]
        composed = compose(
            kernels, [(0, 1), (1, 1, 2)], _args(R, RW, RD), frozenset({2}), {0: 0, 1: 0}
        )
        optimized = optimize(composed)
        assert optimized.locals == ()
        assert len(optimized.nests) == 1  # only the surviving MULT remains

    def test_scalarization_preserves_semantics_on_random_chains(self):
        rng = random.Random(11)
        nprng = np.random.default_rng(11)
        p = _p()
        for _ in range(25):
            n = rng.randint(2, 6)
            tasks = []
            for i in range(n):
                kind = rng.choice(["COPY", "NEG", "MULT", "ADD"])
                if kind == "ADD":
                    src = rng.randint(0, i)
                    tasks.append(task("ADD", (2,), [(i, p, R), (src, p, R), (i + 1, p, W)]))
                elif kind == "MULT":
                    tasks.append(
                        task("MULT", (2,), [(i, p, R), (i + 1, p, W)], [("s", 2.0)])
                    )
                else:
                    tasks.append(task(kind, (2,), [(i, p, R), (i + 1, p, W)]))
            kernels = [REG.generate(t) for t in tasks]
            amap = [tuple(a.store for a in t.args) for t in tasks]
            args = _args(R, *[RW] * (n - 1), W)
            composed = compose(kernels, amap, args, frozenset(), {j: 0 for j in range(n + 1)})
            optimized = optimize(composed)
            scalars = dict.fromkeys(composed.scalar_params, 2.0)
            data1 = {f"a{j}": nprng.integers(1, 9, 4).astype(np.float64) for j in range(n + 1)}
            data2 = {k: v.copy() for k, v in data1.items()}
            interpret(composed, data1, scalars)
            interpret(optimized, data2, scalars)
            for name in data1:
                assert (data1[name] == data2[name]).all()


# generator -> the distinct fused kernels it launches at its default size and
# window 10, in launch order, up to the first that scalarizes a temporary.
_FUSED_GOLDEN = {
    "stencil": [
        "kernel(a0: R, a1: R, a3: R, a5: R, a7: R, a9: W) scalars(s4_0)\n"
        "  for extents(a9):\n"
        "    _v_l2 = (a0 + a1)\n"
        "    _v_l4 = (_v_l2 + a3)\n"
        "    _v_l6 = (_v_l4 + a5)\n"
        "    _v_l8 = (_v_l6 + a7)\n"
        "    a9 = (s4_0 * _v_l8)",
    ],
    "blackscholes_chain": [
        "kernel(a0: R, a1: R, a68: W)"
        " scalars(s2_0, s4_0, s7_0, s9_0, s12_0, s14_0, s17_0, s19_0, s22_0, "
        "s24_0, s27_0, s29_0, s32_0, s34_0, s37_0, s39_0, s42_0, s44_0, s47_0, "
        "s49_0, s52_0, s54_0, s57_0, s59_0, s62_0, s64_0)\n"
        "  for extents(a68):\n"
        "    _v_l2 = (a0 + a1)\n"
        "    _v_l3 = (-_v_l2)\n"
        "    _v_l4 = (s2_0 * _v_l3)\n"
        "    _v_l5 = _v_l4\n"
        "    _v_l6 = (s4_0 * _v_l5)\n"
        "    _v_l8 = _v_l6\n"
        "    _v_l9 = (s7_0 * _v_l8)\n"
        "    _v_l10 = _v_l9\n"
        "    _v_l11 = (s9_0 * _v_l10)\n"
        "    _v_l13 = _v_l11\n"
        "    _v_l14 = (s12_0 * _v_l13)\n"
        "    _v_l15 = _v_l14\n"
        "    _v_l16 = (s14_0 * _v_l15)\n"
        "    _v_l18 = _v_l16\n"
        "    _v_l19 = (s17_0 * _v_l18)\n"
        "    _v_l20 = _v_l19\n"
        "    _v_l21 = (s19_0 * _v_l20)\n"
        "    _v_l23 = _v_l21\n"
        "    _v_l24 = (s22_0 * _v_l23)\n"
        "    _v_l25 = _v_l24\n"
        "    _v_l26 = (s24_0 * _v_l25)\n"
        "    _v_l28 = _v_l26\n"
        "    _v_l29 = (s27_0 * _v_l28)\n"
        "    _v_l30 = _v_l29\n"
        "    _v_l31 = (s29_0 * _v_l30)\n"
        "    _v_l33 = _v_l31\n"
        "    _v_l34 = (s32_0 * _v_l33)\n"
        "    _v_l35 = _v_l34\n"
        "    _v_l36 = (s34_0 * _v_l35)\n"
        "    _v_l38 = _v_l36\n"
        "    _v_l39 = (s37_0 * _v_l38)\n"
        "    _v_l40 = _v_l39\n"
        "    _v_l41 = (s39_0 * _v_l40)\n"
        "    _v_l43 = _v_l41\n"
        "    _v_l44 = (s42_0 * _v_l43)\n"
        "    _v_l45 = _v_l44\n"
        "    _v_l46 = (s44_0 * _v_l45)\n"
        "    _v_l48 = _v_l46\n"
        "    _v_l49 = (s47_0 * _v_l48)\n"
        "    _v_l50 = _v_l49\n"
        "    _v_l51 = (s49_0 * _v_l50)\n"
        "    _v_l53 = _v_l51\n"
        "    _v_l54 = (s52_0 * _v_l53)\n"
        "    _v_l55 = _v_l54\n"
        "    _v_l56 = (s54_0 * _v_l55)\n"
        "    _v_l58 = _v_l56\n"
        "    _v_l59 = (s57_0 * _v_l58)\n"
        "    _v_l60 = _v_l59\n"
        "    _v_l61 = (s59_0 * _v_l60)\n"
        "    _v_l63 = _v_l61\n"
        "    _v_l64 = (s62_0 * _v_l63)\n"
        "    _v_l65 = _v_l64\n"
        "    _v_l66 = (s64_0 * _v_l65)\n"
        "    _v_l67 = (-_v_l66)\n"
        "    a68 = _v_l67",
    ],
    "jacobi": [
        "kernel(a0: R, a1: R, a3: RW) scalars(s1_0)\n"
        "  for extents(a3):\n"
        "    _v_l2 = (a0 - a1)\n"
        "    a3 = (a3 + (s1_0 * _v_l2))",
    ],
    "cg_like": [
        "kernel(a0: R, a1: R, a2: Rd, a3: R, a4: Rd)\n"
        "  for extents(a0):\n"
        "    a2 += sum (a0 * a1)\n"
        "    a4 += sum (a3 * a3)",
        "kernel(a0: R, a1: RW, a2: R, a3: R, a4: R, a5: RW, a6: Rd)\n"
        "  for extents(a1):\n"
        "    a1 = (a1 + ((a2 / a3) * a0))\n"
        "    a5 = (a5 - ((a2 / a3) * a4))\n"
        "    a6 += sum (a5 * a5)",
        "kernel(a0: R, a1: RW, a2: R, a3: R, a6: W) scalars(s3_0)\n"
        "  for extents(a1):\n"
        "    a1 = (a0 + ((a2 / a3) * a1))\n"
        "    _v_l4 = a0\n"
        "    _v_l5 = (-_v_l4)\n"
        "    a6 = (s3_0 * _v_l5)",
    ],
}


class TestFusedKernelText:
    @staticmethod
    def _launched(monkeypatch) -> list[str | None]:
        """The kernel_text of every kernel the session executes, in order."""
        texts = []
        execute = pipeline.execute_task

        def recording(t, heap, stores, builtins, kernel, positions, *rest):
            texts.append(kernel_text(kernel) if kernel is not None else None)
            execute(t, heap, stores, builtins, kernel, positions, *rest)

        monkeypatch.setattr(pipeline, "execute_task", recording)
        return texts

    @pytest.mark.parametrize("name", sorted(_FUSED_GOLDEN))
    def test_first_fused_kernels_match_golden(self, name, monkeypatch):
        texts = self._launched(monkeypatch)
        report = run_events(Session(SessionConfig(window=10)), gen_benchmark(name))
        first: list[str] = []
        for f, text in zip(report.fused_prefixes, texts):
            if f > 1 and text not in first:
                first.append(text)
                if "_v_" in text:
                    break
        assert first == _FUSED_GOLDEN[name]

    def test_fuzz_corpus_kernels_match_pinned_hash(self):
        """One sha256 over the kernel_text of every carve the fuzz corpus
        memoizes, at windows 2 and 10. Each missed flush memoizes its own
        carves once, and no fuzz flush hits, so this is also the hash of
        every launched carve. Like the digest golden, re-record it only for
        a change meant to alter kernels."""
        h = hashlib.sha256()
        n = 0
        for window in (2, 10):
            config = SessionConfig(window=window, execute=False)
            for stream in stream_fuzz.corpus(1000):
                session = stream_fuzz.run_stream(stream, config)
                for carves, _ in session.memo._entries.values():
                    for carve in carves:
                        if carve.kernel is not None:
                            h.update(kernel_text(carve.kernel).encode() + b"\n")
                            n += 1
        assert n == 7230
        assert h.hexdigest() == "d2dff6a4943ec2d58446633a1ce6fc46b86d177c636531644c6ea85034b9ca4d"

    def test_fill_then_sum_keeps_its_local_buffer(self, monkeypatch):
        texts = self._launched(monkeypatch)
        session = Session(SessionConfig())
        session.create_store(0, (8,))
        session.create_store(1, ())
        session.submit(task("FILL", (4,), [(0, _p(), W)], [("s", 3.0)]))
        session.submit(task("SUM", (4,), [(0, _p(), R), (1, NonePart(), RD)]))
        session.drop_ref(0)
        assert session.finish().fused_prefixes == [2]
        assert texts == [
            "kernel(a1: Rd) scalars(s0_0)\n"
            "  local l0\n"
            "  for extents(l0):\n"
            "    l0 = s0_0\n"
            "    a1 += sum l0"
        ]


class TestTraffic:
    def test_fused_three_way_add(self):
        kernels, amap, args = _chain_kernels(2)
        composed = compose(kernels, amap, args, frozenset({2}), {j: 0 for j in range(5)})
        optimized = optimize(composed)
        shapes = {name: (8,) for name in ("a0", "a1", "a3", "a4", "l2")}
        loads, stores = count_memory_traffic(optimized, shapes)
        assert (loads, stores) == (24, 8)

    def test_unfused_pair_costs_more(self):
        p = _p()
        t1 = task("ADD", (4,), [(0, p, R), (1, p, R), (2, p, W)])
        t2 = task("ADD", (4,), [(2, p, R), (3, p, R), (4, p, W)])
        total = [0, 0]
        for t in (t1, t2):
            l, s = count_memory_traffic(REG.generate(t), {f"a{i}": (8,) for i in range(3)})
            total[0] += l
            total[1] += s
        assert total == [32, 16]

    def test_fill_loads_nothing(self):
        t = task("FILL", (2,), [(0, _p(), W)], [("s", 1.0)])
        loads, stores = count_memory_traffic(REG.generate(t), {"a0": (8,)})
        assert loads == 0 and stores == 8


class TestInterpretSafety:
    def test_store_to_read_only_param_rejected(self):
        k = Kernel(
            (BufParam("a0", R),),
            (),
            (),
            (LoopNest("a0", (StoreStmt("a0", Load("a0")),)),),
        )
        with pytest.raises(PrivilegeViolationError):
            interpret(k, {"a0": np.ones(4)})

    def test_missing_buffer_binding_rejected(self):
        t = task("COPY", (2,), [(0, _p(), R), (1, _p(), W)])
        with pytest.raises(KernelError):
            interpret(REG.generate(t), {"a0": np.ones(4)})

    def test_missing_local_shape_names_the_local(self):
        kernels, amap, args = _chain_kernels(2)
        composed = compose(kernels, amap, args, frozenset({2}), {j: 0 for j in range(5)})
        bufs = {name: np.ones(6) for name in ("a0", "a1", "a3", "a4")}
        with pytest.raises(KernelError, match="l2"):
            interpret(composed, bufs)

    def test_missing_scalar_raises_before_any_nest_runs(self):
        # s0 is read only by the second nest; the first must not run either
        k = Kernel(
            (BufParam("a0", R), BufParam("a1", W), BufParam("a2", W)),
            ("s0",),
            (),
            (
                LoopNest("a1", (StoreStmt("a1", Neg(Load("a0"))),)),
                LoopNest("a2", (StoreStmt("a2", Bin("*", ScalarRef("s0"), Load("a1"))),)),
            ),
        )
        a1 = np.zeros(4)
        with pytest.raises(KernelError, match="s0"):
            interpret(k, {"a0": np.ones(4), "a1": a1, "a2": np.zeros(4)}, {})
        assert (a1 == 0).all()


def _one_nest(params, body):
    """A kernel with one rank-1 nest over a0 and params (name, privilege)."""
    return Kernel(
        tuple(BufParam(n, pr) for n, pr in params),
        ("s",),
        (),
        (LoopNest("a0", tuple(body)),),
    )


def _vec(seed, n=6):
    return np.random.default_rng(seed).integers(1, 9, n).astype(np.float64)


class TestInPlaceEvaluation:
    @pytest.mark.parametrize("t_first", [True, False])
    def test_temp_read_twice_in_one_expression(self, t_first):
        t, t1 = TempRef("t"), Bin("+", TempRef("t"), ScalarRef("s"))
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W)],
            [
                SetTemp("t", Bin("+", Load("a0"), Load("a1"))),
                StoreStmt("a2", Bin("*", t, t1) if t_first else Bin("*", t1, t)),
            ],
        )
        a0, a1, out = _vec(0), _vec(1), np.zeros(6)
        interpret(k, {"a0": a0, "a1": a1, "a2": out}, {"s": 1.0})
        s = a0 + a1
        assert (out == (s * (s + 1.0) if t_first else (s + 1.0) * s)).all()

    def test_alias_keeps_the_temp_it_names(self):
        # u's last read frees nothing: t still names the same array
        k = _one_nest(
            [("a0", R), ("a1", W), ("a2", W)],
            [
                SetTemp("t", Bin("*", ScalarRef("s"), Load("a0"))),
                SetTemp("u", TempRef("t")),
                SetTemp("v", Neg(TempRef("u"))),
                StoreStmt("a1", Bin("+", TempRef("v"), TempRef("v"))),
                StoreStmt("a2", Bin("+", TempRef("t"), Load("a0"))),
            ],
        )
        a0, a1, a2 = _vec(0), np.zeros(6), np.zeros(6)
        interpret(k, {"a0": a0, "a1": a1, "a2": a2}, {"s": 2.0})
        assert (a1 == -(2.0 * a0) + -(2.0 * a0)).all() and (a2 == 2.0 * a0 + a0).all()

    def test_store_target_read_in_its_own_statement(self):
        # jacobi's fused body: a3 = a3 + s * (a0 - a1)
        k = _one_nest(
            [("a0", R), ("a1", R), ("a3", RW)],
            [
                SetTemp("t", Bin("-", Load("a0"), Load("a1"))),
                StoreStmt(
                    "a3",
                    Bin("+", Load("a3"), Bin("*", ScalarRef("s"), TempRef("t"))),
                ),
            ],
        )
        a0, a1, a3 = _vec(0), _vec(1), _vec(2)
        want = a3 + 0.5 * (a0 - a1)
        interpret(k, {"a0": a0, "a1": a1, "a3": a3}, {"s": 0.5})
        assert (a3 == want).all()

    def test_target_sharing_memory_is_not_scratch(self):
        # a1 overlaps a0 shifted by one: computing t in a1's slab would
        # overwrite a0 before the store reads it
        base = _vec(0, 7)
        a0, a1 = base[1:], base[:-1]
        want = 2.0 * a0 + a0
        k = _one_nest(
            [("a0", R), ("a1", W)],
            [
                SetTemp("t", Bin("*", ScalarRef("s"), Load("a0"))),
                StoreStmt("a1", Bin("+", TempRef("t"), Load("a0"))),
            ],
        )
        interpret(k, {"a0": a0, "a1": a1}, {"s": 2.0})
        assert (a1 == want).all()

    def test_temp_viewing_a_buffer_stored_later_keeps_old_values(self):
        k = _one_nest(
            [("a0", RW), ("a1", R), ("a2", W)],
            [
                SetTemp("t", Load("a0")),
                StoreStmt("a0", Load("a1")),
                StoreStmt("a2", TempRef("t")),
            ],
        )
        a0, a1, a2 = _vec(0), _vec(1), np.zeros(6)
        old = a0.copy()
        interpret(k, {"a0": a0, "a1": a1, "a2": a2}, {"s": 0.0})
        assert (a2 == old).all() and (a0 == a1).all()

    @staticmethod
    def _peak(k, bufs, scalars):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            interpret(k, bufs, scalars)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_dead_temps_receive_the_next_result(self):
        # a0 is read before its store, so its slab is no scratch; t1's array
        # must carry t2 and t3 instead of three arrays being live at once
        n = 1 << 14
        k = _one_nest(
            [("a0", RW), ("a1", R)],
            [
                SetTemp("t1", Bin("+", Load("a0"), Load("a1"))),
                SetTemp("t2", Neg(TempRef("t1"))),
                SetTemp("t3", Bin("*", ScalarRef("s"), TempRef("t2"))),
                StoreStmt("a0", Bin("+", TempRef("t3"), Load("a0"))),
            ],
        )
        a0, a1 = _vec(0, n), _vec(1, n)
        want = 0.5 * -(a0 + a1) + a0
        peak = self._peak(k, {"a0": a0, "a1": a1}, {"s": 0.5})
        assert (a0 == want).all()
        assert peak < 1.5 * a0.nbytes

    def test_single_read_chain_computes_in_the_store_slab(self):
        n = 1 << 14
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W)],
            [
                SetTemp("t", Bin("+", Load("a0"), Load("a1"))),
                SetTemp("u", Neg(TempRef("t"))),
                SetTemp("v", TempRef("u")),
                StoreStmt("a2", Bin("*", ScalarRef("s"), TempRef("v"))),
            ],
        )
        a0, a1, a2 = _vec(0, n), _vec(1, n), np.zeros(n)
        peak = self._peak(k, {"a0": a0, "a1": a1, "a2": a2}, {"s": 0.5})
        assert (a2 == 0.5 * -(a0 + a1)).all()
        assert peak < a2.nbytes // 2

    def test_rejected_store_leaves_a_read_only_target_untouched(self):
        k = _one_nest(
            [("a0", R), ("a1", R)],
            [
                SetTemp("t", Neg(Load("a1"))),
                StoreStmt("a0", Bin("*", ScalarRef("s"), TempRef("t"))),
            ],
        )
        a0, a1 = _vec(0), _vec(1)
        before = a0.copy()
        with pytest.raises(PrivilegeViolationError):
            interpret(k, {"a0": a0, "a1": a1}, {"s": 2.0})
        assert (a0 == before).all()

    def test_fused_chain_allocates_at_most_two_slabs(self):
        kernel, bufs, scalars, out, want = _fused_chain(1 << 16)
        peak = self._peak(kernel, bufs, scalars)
        assert (out == want).all()
        assert peak <= 2 * out.nbytes, f"{peak / out.nbytes:.1f} slabs"


def _fused_chain(n):
    """The 67-task chain kernel fused whole and bound over slabs of n elements:
    (kernel, bound buffers, scalars, the output slab, its expected contents)."""
    tasks, stores = tasks_of(gen_blackscholes_chain(size=n, nodes=1, iters=1))
    assert len(tasks) == 67
    _, args, arg_map = build_fused_task(tasks, 67)
    x, y, out = 0, 1, 2  # the chain's first three stores
    arg_stores = [tasks[i].args[k].store for i, k, _ in args]
    temps = frozenset(j for j, s in enumerate(arg_stores) if s not in (x, y, out))
    kernel = optimize(
        compose(
            [REG.generate(t) for t in tasks],
            arg_map,
            [priv for _, _, priv in args],
            temps,
            {j: 0 for j in range(len(args))},
        )
    )
    assert len(kernel.nests) == 1 and len(kernel.nests[0].body) == 55
    rng = np.random.default_rng(0)
    bound = {x: rng.integers(1, 9, n).astype(np.float64), y: rng.integers(1, 9, n).astype(np.float64)}
    bound[out] = np.zeros(n)
    bufs = {f"a{j}": bound[s] for j, s in enumerate(arg_stores) if j not in temps}
    scalars = dict(zip(kernel.scalar_params, [v for t in tasks for _, v in t.scalars]))
    return kernel, bufs, scalars, bound[out], bound[x] + bound[y]


class TestNestPlans:
    def test_reduce_into_read_only_param_raises_before_any_op(self):
        k = _one_nest(
            [("a0", R), ("a1", W), ("a2", R)],
            [
                StoreStmt("a1", Bin("*", ScalarRef("s"), Load("a0"))),
                ReduceStmt("a2", Load("a0")),
            ],
        )
        a0, a1, a2 = _vec(0), np.zeros(6), np.zeros(())
        with pytest.raises(PrivilegeViolationError):
            interpret(k, {"a0": a0, "a1": a1, "a2": a2}, {"s": 2.0})
        assert not a1.any() and a2[()] == 0.0

    def test_store_slab_is_not_reused_after_its_store(self):
        # t is computed in a2's slab; u, read twice, is no chain and must not
        # take that slot once a2 is stored
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W), ("a3", W)],
            [
                SetTemp("t", Bin("+", Load("a0"), Load("a1"))),
                StoreStmt("a2", Bin("*", ScalarRef("s"), TempRef("t"))),
                SetTemp("u", Bin("-", Load("a0"), Load("a1"))),
                StoreStmt("a3", Bin("*", TempRef("u"), TempRef("u"))),
            ],
        )
        a0, a1, a2, a3 = _vec(0), _vec(1), np.zeros(6), np.zeros(6)
        interpret(k, {"a0": a0, "a1": a1, "a2": a2, "a3": a3}, {"s": 2.0})
        assert (a2 == 2.0 * (a0 + a1)).all() and (a3 == (a0 - a1) ** 2).all()

    def test_scalar_result_stays_scalar_beside_a_free_slot(self):
        # t's slot is free when u is computed; u stays a scalar, so its
        # reduction is u times the nest volume, not a sum of six copies
        k = _one_nest(
            [("a0", R), ("a1", W), ("a2", RD)],
            [
                SetTemp("t", Bin("+", Load("a0"), Load("a0"))),
                StoreStmt("a1", Bin("*", TempRef("t"), TempRef("t"))),
                SetTemp("u", Neg(ScalarRef("s"))),
                ReduceStmt("a2", TempRef("u")),
            ],
        )
        a0, a1, a2 = _vec(0), np.zeros(6), np.zeros(())
        interpret(k, {"a0": a0, "a1": a1, "a2": a2}, {"s": 0.1})
        assert (a1 == (a0 + a0) ** 2).all()
        assert a2[()] == -0.1 * 6 != np.sum(np.full(6, -0.1))

    @staticmethod
    def _count_plans(monkeypatch):
        """Nests compiled, and kernels interpreted, while the test runs."""
        compiled, interpreted = [], []
        compile_nest, run = _compile_nest, executor.interpret

        def counted_compile(nest, priv):
            compiled.append(nest)
            return compile_nest(nest, priv)

        def counted_interpret(kernel, *args):
            interpreted.append(kernel)
            return run(kernel, *args)

        monkeypatch.setattr("diffusekit.kernels._compile_nest", counted_compile)
        monkeypatch.setattr(executor, "interpret", counted_interpret)
        return compiled, interpreted

    def test_each_kernel_is_planned_once(self, monkeypatch):
        compiled, interpreted = self._count_plans(monkeypatch)
        generated = []
        generate = KernelRegistry.generate
        monkeypatch.setattr(
            KernelRegistry, "generate", lambda reg, t: generated.append(t.kind) or generate(reg, t)
        )
        session = Session(SessionConfig())
        run_events(session, gen_stencil(size=10, nodes=2, iters=6))
        # only the first iteration's window misses: it carves the fused ADDs
        # and MULT, then the COPY on its own, and every later iteration
        # replays both carves
        assert session.report.memo_misses == 1
        assert sorted(generated) == ["ADD"] * 4 + ["COPY", "MULT"]
        distinct = list({id(k): k for k in interpreted}.values())
        assert sorted(map(id, compiled)) == sorted(id(n) for k in distinct for n in k.nests)
        hits = [c.kernel for e, _ in session.memo._entries.values() for c in e if c.kernel]
        assert hits and session.report.memo_hits
        for k in hits:
            assert interpreted.count(k) > 1
            assert sum(n is k.nests[0] for n in compiled) == 1

    def test_per_point_launch_plans_once(self, monkeypatch):
        compiled, interpreted = self._count_plans(monkeypatch)
        t = task("DOT", (4,), [(0, _p(), R), (1, _p(), R), (2, NonePart(), RD)])
        stores = store_table((8,), (8,), ())
        execute_sequential([t], Heap(stores), stores, REG, {})
        assert len(interpreted) == 4 and len(set(map(id, interpreted))) == 1
        assert len(compiled) == 1


def _generated(kind, privs, nscalars=0):
    """The generated rank-1 kernel of ``kind`` over tilings of a 4-point launch."""
    return REG.generate(task(kind, (4,), [(j, _p(), pr) for j, pr in enumerate(privs)], [("s", 0.0)] * nscalars))


class TestStrips:
    @pytest.fixture(params=[3, 5])
    def strip(self, request, monkeypatch):
        monkeypatch.setattr(kernels, "STRIP", request.param)
        return request.param

    @staticmethod
    def _whole(monkeypatch, k, bufs, scalars):
        """Runs the kernel on copies of ``bufs`` in one pass per nest."""
        copies = {name: b.copy() for name, b in bufs.items()}
        with monkeypatch.context() as m:
            m.setattr(kernels, "STRIP", 1 << 30)
            interpret(k, copies, scalars)
        return copies

    @pytest.mark.parametrize("n", [7, 11, 16])
    def test_pow_div_min_max_match_the_whole_pass(self, strip, n, monkeypatch):
        rng = np.random.default_rng(n)
        a0, a1 = rng.normal(size=n), rng.normal(size=n)
        a1[:3] = [0.0, -0.0, np.inf]  # x/0, x**inf and nan keep their bits too
        t, u, v = TempRef("t"), TempRef("u"), TempRef("v")
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W), ("a3", W)],
            [
                SetTemp("t", Bin("**", Load("a0"), Load("a1"))),
                SetTemp("u", Bin("/", t, Load("a1"))),
                SetTemp("v", Bin("min", u, Bin("**", Load("a0"), ScalarRef("s")))),
                StoreStmt("a2", Bin("max", v, Load("a0"))),
                StoreStmt("a3", Bin("/", Load("a0"), Bin("min", t, u))),
            ],
        )
        bufs = {"a0": a0, "a1": a1, "a2": np.zeros(n), "a3": np.zeros(n)}
        want = self._whole(monkeypatch, k, bufs, {"s": 0.5})
        interpret(k, bufs, {"s": 0.5})
        assert all(bufs[b].tobytes() == want[b].tobytes() for b in bufs)
        for kind, privs, nscalars in [
            ("POW", (R, R, W), 0), ("POW", (R, W), 1), ("DIV", (R, R, W), 0),
            ("MIN", (R, R, W), 0), ("MAX", (R, R, W), 0),
        ]:
            k = _generated(kind, privs, nscalars)
            bufs = {"a0": a0, "a1": a1.copy() if len(privs) == 3 else np.zeros(n), "a2": np.zeros(n)}
            bufs = {p.name: bufs[p.name] for p in k.buf_params}
            want = self._whole(monkeypatch, k, bufs, {"s0": 1.5})
            interpret(k, bufs, {"s0": 1.5})
            assert all(bufs[b].tobytes() == want[b].tobytes() for b in bufs), kind

    @pytest.mark.parametrize("kind", ["DOT", "SUM"])
    def test_reductions_keep_the_bits_of_one_sum(self, kind, strip):
        n = 1001
        rng = np.random.default_rng(7)
        a0, a1 = rng.normal(size=n), rng.normal(size=n)
        k = _generated(kind, (R, R, RD) if kind == "DOT" else (R, RD))
        acc = np.full((), 0.25)
        bufs = {"a0": a0, "a1": a1, "a2": acc} if kind == "DOT" else {"a0": a0, "a1": acc}
        interpret(k, bufs, {})
        want = np.full((), 0.25)
        want[()] += np.sum(a0 * a1) if kind == "DOT" else np.sum(a0)
        assert acc.tobytes() == want.tobytes()
        # the strip-wise partial sums round differently, so blocking would show
        step = kernels.STRIP
        blocked = sum(np.sum(a0[i : i + step] * (a1[i : i + step] if kind == "DOT" else 1.0)) for i in range(0, n, step))
        assert blocked + 0.25 != want[()]

    def test_overlapping_copy_runs_whole(self, strip):
        x = np.arange(12, dtype=np.float64)
        k = _generated("COPY", (R, W))
        interpret(k, {"a0": x[0:10], "a1": x[1:11]}, {})
        assert x.tolist() == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11]

    def test_rank_two_strips_are_whole_rows(self, strip, monkeypatch):
        rng = np.random.default_rng(3)
        a0, a1 = rng.normal(size=(7, 4)), np.zeros((7, 4))
        k = REG.generate(task("NEG", (2, 2), [(0, _p(2), R), (1, _p(2), W)]))
        interpret(k, {"a0": a0, "a1": a1}, {})
        assert a1.tobytes() == (-a0).tobytes()

    def test_a_broadcast_input_runs_the_nest_whole(self, monkeypatch):
        """An input of rank >= 1 shaped other than the domain cannot be cut
        into the domain's strips, so the nest runs in one pass."""
        n = 1 << 15
        monkeypatch.setattr(kernels, "STRIP", n)
        evals = []
        run = kernels._NestPlan._eval
        monkeypatch.setattr(kernels._NestPlan, "_eval", lambda plan, regs: evals.append(1) or run(plan, regs))
        rng = np.random.default_rng(5)
        a0, a1, a2 = rng.normal(size=(4, n)), rng.normal(size=n), np.zeros((4, n))
        k = _generated("ADD", (R, R, W))
        interpret(k, {"a0": a0, "a1": a1, "a2": a2}, {})
        assert len(evals) == 1
        assert a2.tobytes() == (a0 + a1).tobytes()

    def test_chain_allocates_under_half_a_slab(self):
        kernel, bufs, scalars, out, want = _fused_chain(1 << 20)
        assert kernels.STRIP < len(out) // 2
        peak = TestInPlaceEvaluation._peak(kernel, bufs, scalars)
        assert (out == want).all()
        assert peak < out.nbytes // 2, f"{peak / out.nbytes:.2f} slabs"


def _folds_to_same_bits(k, bind, scalars):
    """``fold_negations(k)``, after checking that it leaves every buffer with
    the bytes ``k`` leaves. ``bind()`` makes fresh buffers for each run."""
    folded = fold_negations(k)
    after = []
    for kernel in (k, folded):
        bufs = bind()
        interpret(kernel, bufs, scalars)
        after.append({name: b.tobytes() for name, b in bufs.items()})
    assert after[0] == after[1]
    return folded


def _negs(k):
    return kernel_text(k).count("(-")


def _shifted(n=6):
    """Two views of one array, the second one element ahead of the first."""
    base = np.arange(n + 1.0)
    return base[:-1], base[1:]


# NaNs of both signs, quiet and signalling with payloads, infinities, zeros
# of both signs and subnormals
_SPECIAL = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123],
             dtype=np.uint64).view(np.float64),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5, -3.0],
])
_SPECIAL_SCALARS = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.0)


@st.composite
def _fold_cases(draw):
    """A one-nest kernel over a0: R, a1: R, a2: RW, a3: W of up to eight
    statements whose expressions mix every op and many negations. Temps come
    from a pool of three, so they are often set again; ``shared`` binds a2
    one element ahead of a0 in one array."""
    defined: list[str] = []

    def leaf():
        if defined and draw(st.booleans()):
            return TempRef(draw(st.sampled_from(defined)))
        return draw(st.sampled_from([Load("a0"), Load("a1"), Load("a2"), ScalarRef("s0"), ScalarRef("s1")]))

    def expr(depth):
        kind = draw(st.sampled_from(("leaf", "neg", "neg", "bin") if depth else ("leaf",)))
        if kind == "neg":
            return Neg(expr(depth - 1))
        if kind == "bin":
            op = draw(st.sampled_from(sorted(kernels._BIN_OPS)))
            return Bin(op, expr(depth - 1), expr(depth - 1))
        return leaf()

    body = []
    for _ in range(draw(st.integers(1, 8))):
        # a temp set to a negated leaf is what a later negation looks through
        kind = draw(st.sampled_from(("set", "set -leaf", "store")))
        e = Neg(leaf()) if kind == "set -leaf" else expr(3)
        if kind == "store":
            body.append(StoreStmt(draw(st.sampled_from(("a2", "a3"))), e))
        else:
            name = draw(st.sampled_from(("t0", "t1")))
            body.append(SetTemp(name, e))
            defined += [name] if name not in defined else []
    params = tuple(BufParam(n, pr) for n, pr in [("a0", R), ("a1", R), ("a2", RW), ("a3", W)])
    k = Kernel(params, ("s0", "s1"), (), (LoopNest("a3", tuple(body)),))
    scalars = {s: draw(st.sampled_from(_SPECIAL_SCALARS)) for s in ("s0", "s1")}
    return k, scalars, draw(st.booleans())


class TestFoldNegations:
    def test_cancelling_negations_through_temps_fold_to_an_alias(self):
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W)],
            [
                SetTemp("v", Bin("+", Load("a0"), Load("a1"))),
                SetTemp("t", Neg(TempRef("v"))),
                SetTemp("u", Neg(TempRef("t"))),
                StoreStmt("a2", Bin("*", ScalarRef("s"), TempRef("u"))),
            ],
        )
        folded = _folds_to_same_bits(k, lambda: {"a0": _vec(0), "a1": _vec(1), "a2": np.zeros(6)}, {"s": 0.5})
        assert folded.nests[0].body == (
            SetTemp("v", Bin("+", Load("a0"), Load("a1"))),
            SetTemp("u", TempRef("v")),
            StoreStmt("a2", Bin("*", ScalarRef("s"), TempRef("u"))),
        )

    def test_temp_whose_operand_is_set_again_does_not_fold(self):
        k = _one_nest(
            [("a0", R), ("a1", R), ("a2", W)],
            [
                SetTemp("y", Bin("+", Load("a0"), Load("a1"))),
                SetTemp("t", Neg(TempRef("y"))),
                SetTemp("y", Bin("*", ScalarRef("s"), Load("a0"))),
                StoreStmt("a2", Bin("+", Neg(TempRef("t")), TempRef("y"))),
            ],
        )
        folded = _folds_to_same_bits(k, lambda: {"a0": _vec(0), "a1": _vec(1), "a2": np.zeros(6)}, {"s": 3.0})
        assert folded.nests == k.nests

    @pytest.mark.parametrize("stored", ["a1", "a3"])
    def test_temp_negating_a_buffer_written_since_does_not_fold(self, stored):
        """a3 is a1 shifted by one element in one array, so a store to either
        changes what a1 loads."""
        k = _one_nest(
            [("a0", R), ("a1", RW), ("a2", W), ("a3", W)],
            [
                SetTemp("t", Neg(Load("a1"))),
                StoreStmt(stored, Bin("*", ScalarRef("s"), Load("a0"))),
                StoreStmt("a2", Neg(TempRef("t"))),
            ],
        )

        def bind():
            a1, a3 = _shifted()
            return {"a0": _vec(0), "a1": a1, "a2": np.zeros(6), "a3": a3}

        folded = _folds_to_same_bits(k, bind, {"s": 2.0})
        assert folded.nests == k.nests

    def test_inline_double_negation_into_a_buffer_sharing_memory(self):
        k = _one_nest([("a0", R), ("a1", W)], [StoreStmt("a1", Neg(Neg(Load("a0"))))])

        def bind():
            a1, a0 = _shifted()
            return {"a0": a0, "a1": a1}

        folded = _folds_to_same_bits(k, bind, {})
        assert folded.nests[0].body == (StoreStmt("a1", Load("a0")),)
        bufs = bind()
        interpret(folded, bufs, {})
        assert bufs["a1"].tolist() == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("through_temps", [False, True])
    def test_triple_negation_keeps_one(self, through_temps):
        if through_temps:
            body = [
                SetTemp("t", Neg(Load("a0"))),
                SetTemp("u", Neg(TempRef("t"))),
                StoreStmt("a1", Neg(TempRef("u"))),
            ]
        else:
            body = [StoreStmt("a1", Neg(Neg(Neg(Load("a0")))))]
        k = _one_nest([("a0", R), ("a1", W)], body)
        folded = _folds_to_same_bits(k, lambda: {"a0": _SPECIAL.copy(), "a1": np.zeros(12)}, {})
        assert (_negs(k), _negs(folded)) == (3, 1)

    def test_negation_is_not_moved_through_a_product(self):
        # s * (-x) and -(s * x) differ in the sign of the NaN when s is one
        k = _one_nest(
            [("a0", R), ("a1", W)],
            [
                SetTemp("t", Neg(Load("a0"))),
                StoreStmt("a1", Neg(Bin("*", ScalarRef("s"), TempRef("t")))),
            ],
        )
        folded = _folds_to_same_bits(k, lambda: {"a0": _SPECIAL.copy(), "a1": np.zeros(12)}, {"s": np.nan})
        assert folded.nests == k.nests

    @settings(max_examples=300)
    @given(_fold_cases())
    def test_folding_keeps_every_bit(self, case):
        k, scalars, shared = case

        def bind():
            if shared:
                base = np.concatenate([_SPECIAL, [7.0]])
                a0, a2 = base[:-1], base[1:]
            else:
                a0, a2 = _SPECIAL.copy(), np.roll(_SPECIAL, 5)
            return {"a0": a0, "a1": np.roll(_SPECIAL, 3), "a2": a2, "a3": np.roll(_SPECIAL, 7)}

        _folds_to_same_bits(k, bind, scalars)
