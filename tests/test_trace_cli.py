"""Trace format round-trips, validation diagnostics, and the CLI."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from diffusekit.cli import bench_report, main
from diffusekit.pipeline import Report, Session, SessionConfig, run_events
from diffusekit.trace import (
    BENCHMARKS,
    CreatePartition,
    CreateStore,
    DropRef,
    Flush,
    TaskEvent,
    TraceError,
    gen_benchmark,
    parse_trace,
    print_trace,
)

# a string that JSON must escape: a quote, a backslash, control characters,
# and non-ASCII characters inside and beyond the Basic Multilingual Plane
_ODD = 'q"b\\s/\t\n\x7f\u00e9\u2603\U0001f600'


class TestTraceFormat:
    @pytest.mark.parametrize(
        "name", ["stencil", "blackscholes_chain", "jacobi", "cg_like"]
    )
    def test_round_trip(self, name):
        events = gen_benchmark(name, iters=2)
        assert parse_trace(print_trace(events)) == events

    def test_partition_lines_keep_their_text(self):
        lines = print_trace(gen_benchmark("stencil", iters=1)).splitlines()
        assert lines[3] == (
            '{"event": "create_partition", "id": 1, "store": 0, "kind": "tiling", '
            '"tile": [16, 16], "offset": [0, 1], "proj": {"A": [[1, 0], [0, 1]], "b": [0, 0]}}'
        )

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_printed_lines_are_json_dumps_of_their_value(self, name):
        for line in print_trace(gen_benchmark(name, iters=2)).splitlines():
            assert line == json.dumps(json.loads(line))

    # sha256 of the text that json.dumps wrote for each event, line by line
    _DIGESTS = {
        ("stencil", None, None, 2): "93f51b5e3f1e7b9268f7969c6e973aecfc6b75d3f4a4f0c16019c3ecd5b28447",
        ("blackscholes_chain", None, None, 2): "b6e03f7dc6a6ab189b0bef4b444824f648a74331458255845198b520f605af81",
        ("jacobi", None, None, 2): "15fd6886750c3f032dd1a8bd20e8efe776165c24babe18d7adf7add209df9dcb",
        ("cg_like", None, None, 2): "13cdad5d3324a5549741fce3c3b85a68b2ea8dc953059820782cb2667b7d7706",
        ("cg_like", 4096, 1024, 300): "ce2caced79b33a5c7aa2d874de1632acd10639255bca7e8d306318c76f1d0243",
    }

    @pytest.mark.parametrize("args", sorted(_DIGESTS, key=str))
    def test_printed_text_is_unchanged(self, args):
        text = print_trace(gen_benchmark(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == self._DIGESTS[args]

    def test_hand_built_events_print_as_json_dumps(self):
        values = [0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf")]
        scalars = tuple((f"{_ODD}{i}", v) for i, v in enumerate(values))
        events = [
            CreateStore(0, (4,)),
            CreateStore(1, ()),
            CreatePartition(0, 0, "tiling", (2,), (0,), (((1,),), (0,))),
            CreatePartition(1, 1, "none"),
            TaskEvent(_ODD, (2,), ((0, 0, "R"), (1, 1, "Rd")), scalars),
            TaskEvent("K", (2,), ((0, 0, "RW"),)),
            DropRef(1),
            Flush(),
        ]
        expected = [
            {"event": "create_store", "id": 0, "shape": [4]},
            {"event": "create_store", "id": 1, "shape": []},
            {
                "event": "create_partition", "id": 0, "store": 0, "kind": "tiling",
                "tile": [2], "offset": [0], "proj": {"A": [[1]], "b": [0]},
            },
            {"event": "create_partition", "id": 1, "store": 1, "kind": "none"},
            {
                "event": "index_task", "kind": _ODD, "domain": [2],
                "args": [
                    {"store": 0, "part": 0, "priv": "R"},
                    {"store": 1, "part": 1, "priv": "Rd"},
                ],
                "scalars": dict(scalars),
            },
            {
                "event": "index_task", "kind": "K", "domain": [2],
                "args": [{"store": 0, "part": 0, "priv": "RW"}], "scalars": {},
            },
            {"event": "drop_ref", "store": 1},
            {"event": "flush"},
        ]
        text = print_trace(events)
        assert text.splitlines() == [json.dumps(obj) for obj in expected]
        assert text.isascii()
        assert parse_trace(text) == events

    def test_integer_and_nan_scalars_print_as_json_dumps(self):
        head = [CreateStore(0, (4,)), CreatePartition(0, 0, "none")]
        args = ((0, 0, "R"),)
        task = TaskEvent("K", (1,), args, (("n", 3), ("nan", float("nan"))))
        text = print_trace([*head, task])
        assert text.splitlines()[-1] == json.dumps(
            {
                "event": "index_task", "kind": "K", "domain": [1],
                "args": [{"store": 0, "part": 0, "priv": "R"}],
                "scalars": {"n": 3, "nan": float("nan")},
            }
        )
        # the integer comes back as a float; NaN equals nothing, so compare text
        parsed = parse_trace(text)
        assert parsed[-1].scalars[0] == ("n", 3.0)
        assert print_trace(parsed) == text.replace('"n": 3,', '"n": 3.0,')

    def test_empty_trace_prints_one_newline(self):
        assert print_trace([]) == "\n"

    def test_empty_input(self):
        assert parse_trace("") == []
        assert parse_trace("\n\n") == []

    def test_malformed_privilege_names_line(self):
        text = (
            '{"event": "create_store", "id": 0, "shape": [4]}\n'
            '{"event": "create_partition", "id": 0, "store": 0, "kind": "none"}\n'
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": 0, "part": 0, "priv": "X"}]}\n'
        )
        with pytest.raises(TraceError, match="line 3.*privilege"):
            parse_trace(text)

    def test_unknown_store_rejected(self):
        with pytest.raises(TraceError, match="unknown store"):
            parse_trace('{"event": "create_partition", "id": 0, "store": 5, "kind": "none"}')

    def test_duplicate_store_id_rejected(self):
        text = (
            '{"event": "create_store", "id": 0, "shape": [4]}\n'
            '{"event": "create_store", "id": 0, "shape": [4]}\n'
        )
        with pytest.raises(TraceError, match="line 2"):
            parse_trace(text)

    def test_reference_underflow_rejected(self):
        text = (
            '{"event": "create_store", "id": 0, "shape": [4]}\n'
            '{"event": "drop_ref", "store": 0}\n'
            '{"event": "drop_ref", "store": 0}\n'
        )
        with pytest.raises(TraceError, match="underflow"):
            parse_trace(text)

    # stores 0 and 1; store 0 is dropped and flushed, then copied into 1
    _USE_AFTER_DROP = "".join(
        json.dumps(line) + "\n"
        for line in [
            {"event": "create_store", "id": 0, "shape": [4]},
            {"event": "create_store", "id": 1, "shape": [4]},
            {"event": "create_partition", "id": 0, "store": 0, "kind": "none"},
            {"event": "create_partition", "id": 1, "store": 1, "kind": "none"},
            {"event": "drop_ref", "store": 0},
            {"event": "flush"},
            {
                "event": "index_task",
                "kind": "COPY",
                "domain": [1],
                "args": [
                    {"store": 0, "part": 0, "priv": "R"},
                    {"store": 1, "part": 1, "priv": "W"},
                ],
            },
            {"event": "flush"},
        ]
    )

    def test_task_naming_a_store_after_its_last_drop_ref_rejected(self):
        with pytest.raises(TraceError) as exc:
            parse_trace(self._USE_AFTER_DROP)
        assert str(exc.value) == "line 7: store 0 used after its last drop_ref"

    def test_partition_of_a_store_after_its_last_drop_ref_rejected(self):
        text = (
            '{"event": "create_store", "id": 3, "shape": [4]}\n'
            '{"event": "drop_ref", "store": 3}\n'
            '{"event": "create_partition", "id": 0, "store": 3, "kind": "none"}\n'
        )
        with pytest.raises(TraceError) as exc:
            parse_trace(text)
        assert str(exc.value) == "line 3: store 3 used after its last drop_ref"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"event": "create_store", "id": 3, "shape": [4]}', "store id 3 already defined"),
            ('{"event": "drop_ref", "store": 3}', "reference underflow on store 3"),
            ('{"event": "drop_ref", "store": 4}', "unknown store 4"),
            (
                '{"event": "create_partition", "id": 0, "store": 4, "kind": "none"}',
                "unknown store 4",
            ),
        ],
    )
    def test_a_dropped_store_id_stays_defined(self, line, message):
        text = (
            '{"event": "create_store", "id": 3, "shape": [4]}\n'
            '{"event": "drop_ref", "store": 3}\n' + line + "\n"
        )
        with pytest.raises(TraceError) as exc:
            parse_trace(text)
        assert str(exc.value) == f"line 3: {message}"

    def test_invalid_json_names_line(self):
        with pytest.raises(TraceError, match="line 1"):
            parse_trace("not json")

    def test_unknown_event_rejected(self):
        with pytest.raises(TraceError, match="unknown event"):
            parse_trace('{"event": "destroy_everything"}')

    def test_tiling_rank_mismatch_rejected(self):
        text = (
            '{"event": "create_store", "id": 0, "shape": [4, 4]}\n'
            '{"event": "create_partition", "id": 0, "store": 0, "kind": "tiling",'
            ' "tile": [2], "offset": [0], "proj": {"A": [[1]], "b": [0]}}\n'
        )
        with pytest.raises(TraceError, match="rank"):
            parse_trace(text)

    _STORE_AND_PART = (
        '{"event": "create_store", "id": 0, "shape": [4]}\n'
        '{"event": "create_partition", "id": 0, "store": 0, "kind": "none"}\n'
    )
    _BAD_THIRD_LINES = {
        "unhashable arg store": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": [0], "part": 0, "priv": "R"}]}',
            "unknown store",
        ),
        "unhashable arg partition": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": 0, "part": {"p": 0}, "priv": "R"}]}',
            "unknown partition",
        ),
        "unhashable dropped store": ('{"event": "drop_ref", "store": [0]}', "unknown store"),
        "unhashable partitioned store": (
            '{"event": "create_partition", "id": 1, "store": [0], "kind": "none"}',
            "unknown store",
        ),
        "list scalar": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": 0, "part": 0, "priv": "R"}], "scalars": {"s": [1]}}',
            "scalar 's' must be a number",
        ),
        "string scalar": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": 0, "part": 0, "priv": "R"}], "scalars": {"s": "x"}}',
            "scalar 's' must be a number",
        ),
        "huge integer scalar": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": 0, "part": 0, "priv": "R"}], "scalars": {"s": 1' + "0" * 400 + "}}",
            "scalar 's' is out of range",
        ),
        "bool store id": ('{"event": "create_store", "id": true, "shape": [4]}', "store id"),
        "bool extent": ('{"event": "create_store", "id": 1, "shape": [true]}', "shape"),
        "bool task extent": (
            '{"event": "index_task", "kind": "K", "domain": [true],'
            ' "args": [{"store": 0, "part": 0, "priv": "R"}]}',
            "domain",
        ),
        "bool arg store": (
            '{"event": "index_task", "kind": "K", "domain": [2],'
            ' "args": [{"store": false, "part": 0, "priv": "R"}]}',
            "unknown store",
        ),
    }

    _TWO_BY_TWO = (
        '{"event": "create_store", "id": 0, "shape": [4, 4]}\n'
        '{"event": "create_store", "id": 1, "shape": [4, 4]}\n'
    )
    _TILE_2D = '"kind": "tiling", "tile": [2, 2], "offset": [0, 0], "proj": {"A": %s, "b": [0, 0]}}\n'
    # projections that analysis could not apply; parsing rejects them at their line
    _MISFIT_PROJECTIONS = {
        "ragged matrix": (
            _TWO_BY_TWO
            + '{"event": "create_partition", "id": 0, "store": 0, ' + _TILE_2D % "[[1], [0, 1]]",
            "line 3: proj.A rows differ in length: [1, 2]",
        ),
        "task launched at another rank": (
            _TWO_BY_TWO
            + '{"event": "create_partition", "id": 0, "store": 0, ' + _TILE_2D % "[[1, 0], [0, 1]]"
            + '{"event": "create_partition", "id": 1, "store": 1, "kind": "none"}\n'
            + '{"event": "index_task", "kind": "COPY", "domain": [2],'
            ' "args": [{"store": 1, "part": 1, "priv": "R"}, {"store": 0, "part": 0, "priv": "W"}]}\n',
            "line 5: partition 0 projects from rank 2, not the launch rank 1",
        ),
        "rank-0 tiling in a launch": (
            '{"event": "create_store", "id": 0, "shape": []}\n'
            '{"event": "create_partition", "id": 0, "store": 0, "kind": "tiling",'
            ' "tile": [], "offset": [], "proj": {"A": [], "b": []}}\n'
            '{"event": "index_task", "kind": "K", "domain": [1],'
            ' "args": [{"store": 0, "part": 0, "priv": "R"}]}\n',
            "line 3: partition 0 projects from rank 0, not the launch rank 1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(_MISFIT_PROJECTIONS))
    def test_misfit_projection_is_a_trace_error_naming_its_line(self, case):
        text, message = self._MISFIT_PROJECTIONS[case]
        with pytest.raises(TraceError) as exc:
            parse_trace(text)
        assert str(exc.value) == message

    def test_projection_rank_is_checked_after_the_older_checks(self):
        # a task with a misprojected argument and a bad privilege later on
        # still reports the privilege, as it did before the rank check
        text, _ = self._MISFIT_PROJECTIONS["task launched at another rank"]
        text = text.replace('"priv": "W"', '"priv": "X"')
        with pytest.raises(TraceError, match="line 5: malformed privilege 'X'"):
            parse_trace(text)

    @pytest.mark.parametrize("case", sorted(_BAD_THIRD_LINES))
    def test_bad_value_is_a_trace_error_naming_its_line(self, case):
        line, message = self._BAD_THIRD_LINES[case]
        with pytest.raises(TraceError, match=f"line 3: {message}"):
            parse_trace(self._STORE_AND_PART + line + "\n")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            gen_benchmark("nonsense")

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(size=0), "size must be positive, got 0"),
            (dict(size=-4), "size must be positive, got -4"),
            (dict(nodes=0), "nodes must be positive, got 0"),
            (dict(nodes=-2), "nodes must be positive, got -2"),
            (dict(iters=-1), "iters must be >= 0, got -1"),
        ],
    )
    def test_generator_rejects_counts_that_give_no_trace(self, name, kwargs, message):
        with pytest.raises(ValueError, match=message):
            gen_benchmark(name, **kwargs)

    @pytest.mark.parametrize("size", [1, 2])
    def test_stencil_without_an_interior_rejected(self, size):
        with pytest.raises(ValueError, match=f"stencil size {size} leaves no interior"):
            gen_benchmark("stencil", size=size, nodes=1)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_smallest_accepted_counts_give_a_valid_trace(self, name):
        size = 3 if name == "stencil" else 1
        events = gen_benchmark(name, size=size, nodes=1, iters=0)
        assert parse_trace(print_trace(events)) == events


_STENCIL_LINES = print_trace(gen_benchmark("stencil", iters=1)).splitlines()
_OTHER_VALUES = {
    "string": "x", "list": [1], "object": {"k": 1}, "bool": True, "float": 1.5, "negative int": -3,
}
_DROP = object()


def _paths(value, path=()):
    """Every key or index path into the objects and lists of a decoded line."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _edited(obj, path, new):
    obj = copy.deepcopy(obj)
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    if new is _DROP:
        del target[last]
    else:
        target[last] = new
    return obj


def _changed_lines(change):
    """(line index, new text) for each way ``change`` applies to each line."""
    for i, line in enumerate(_STENCIL_LINES):
        if change == "truncate":
            for cut in range(0, len(line), 5):
                yield i, line[:cut]
        elif change == "bom":
            yield i, "\ufeff" + line
        else:
            obj = json.loads(line)
            new = _DROP if change == "drop" else _OTHER_VALUES[change]
            for path in _paths(obj):
                yield i, json.dumps(_edited(obj, path, new))


@pytest.mark.parametrize("change", ["drop", "truncate", "bom", *_OTHER_VALUES])
def test_one_changed_line_parses_or_fails_at_or_after_it(change):
    """A stencil trace with one line changed parses, or raises a TraceError
    no earlier than that line; no other exception escapes."""
    tried = 0
    for i, text in _changed_lines(change):
        lines = list(_STENCIL_LINES)
        lines[i] = text
        try:
            parse_trace("\n".join(lines))
        except TraceError as exc:
            assert exc.line >= i + 1, (text, str(exc))
        tried += 1
    assert tried >= len(_STENCIL_LINES)


@pytest.fixture()
def stencil_trace(tmp_path):
    path = tmp_path / "stencil.trace"
    path.write_text(print_trace(gen_benchmark("stencil", iters=2)))
    return str(path)


class TestCli:
    def test_gen_round_trips_through_stdout(self, capsys):
        assert main(["gen", "stencil", "--iters", "1"]) == 0
        out = capsys.readouterr().out
        assert parse_trace(out) == gen_benchmark("stencil", iters=1)

    def test_analyze_reports_fusion(self, stencil_trace, capsys):
        assert main(["analyze", stencil_trace]) == 0
        out = capsys.readouterr().out
        assert "tasks: 12 -> 4" in out

    def test_analyze_small_window_reports_aliasing_verdict(self, capsys):
        path = "-"
        import io
        import sys

        trace = print_trace(gen_benchmark("stencil", iters=3))
        old = sys.stdin
        sys.stdin = io.StringIO(trace)
        try:
            assert main(["analyze", "-", "--window", "5"]) == 0
        finally:
            sys.stdin = old
        out = capsys.readouterr().out
        assert "AntiDep" in out

    def test_verdict_line_names_partitions_by_their_fields(self):
        session = Session(SessionConfig(window=5, execute=False))
        summary = run_events(session, gen_benchmark("stencil", iters=2)).summary()
        assert summary.splitlines()[-1] == (
            "flush 2: stopped by AntiDep at task 5 on store 0 partitions "
            "Tiling(tile=(16, 16), offset=(0, 1), "
            "proj=ProjectionFn(matrix=((1, 0), (0, 1)), offset=(0, 0))) vs "
            "Tiling(tile=(16, 16), offset=(1, 1), "
            "proj=ProjectionFn(matrix=((1, 0), (0, 1)), offset=(0, 0)))"
        )

    def test_run_diff_reports_identical_heaps(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text(print_trace(gen_benchmark("stencil", iters=10)))
        assert main(["run", str(path), "--diff"]) == 0
        out = capsys.readouterr().out
        assert "tasks: 60 -> 20" in out
        assert "heaps identical" in out

    def test_window_out_of_range_is_an_error(self, stencil_trace, capsys):
        assert main(["analyze", stencil_trace, "--window", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "got -3" in captured.err

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("flags", [["--nodes", "0"], ["--size", "0"], ["--iters", "-1"]])
    def test_gen_with_counts_that_give_no_trace_is_an_error(self, name, flags, capsys):
        assert main(["gen", name, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("size", ["1", "2"])
    def test_gen_stencil_without_an_interior_is_an_error(self, size, capsys):
        assert main(["gen", "stencil", "--size", size]) == 2
        assert capsys.readouterr().err.startswith("error: stencil size")

    @pytest.mark.parametrize("command", ["analyze", "run"])
    def test_negative_seed_is_an_error(self, stencil_trace, command, capsys):
        assert main([command, stencil_trace, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_python_dash_m_runs_the_command_line(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "diffusekit", "gen", "stencil", "--iters", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert parse_trace(done.stdout) == gen_benchmark("stencil", iters=1)

    def test_run_diff_engine_flags(self, stencil_trace, capsys):
        for flags in ([], ["--no-temp-elim"], ["--no-memo"], ["--window", "3"]):
            assert main(["run", stencil_trace, "--diff", *flags]) == 0
            assert "heaps identical" in capsys.readouterr().out

    def test_json_report(self, stencil_trace, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", stencil_trace, "--json-report", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tasks_in"] == 12 and payload["tasks_out"] == 4
        for key in ("fused_prefixes", "temporaries_eliminated", "memo_hits", "loads", "stores"):
            assert key in payload
        # the first iteration's two windows miss the memo and the second's hit,
        # so only the first iteration spends constraint steps
        assert payload["memo_hits"] == 2 and payload["memo_misses"] == 2
        assert payload["final_window"] == 10
        assert main(["analyze", stencil_trace, "--no-memo", "--json-report", str(out)]) == 0
        unmemoized = json.loads(out.read_text())
        assert unmemoized["memo_hits"] == 0 and unmemoized["memo_misses"] == 0
        assert unmemoized["constraint_steps"] == 2 * payload["constraint_steps"] > 0
        # one list per flush; each iteration's five-task prefix stops at the copy
        assert payload["verdicts"] == [[{"constraint": "AntiDep", "task": 5, "store": 0}]] * 2
        assert payload["verdicts"] == unmemoized["verdicts"]

    def test_json_report_has_every_report_field(self):
        session = Session(SessionConfig(execute=False))
        payload = run_events(session, gen_benchmark("jacobi", iters=1)).to_json()
        # per_flush appears only as each flush's verdicts
        names = {f.name for f in fields(Report)} - {"per_flush"}
        assert set(payload) == names | {"verdicts"}

    @staticmethod
    def _copy_windows(tmp_path, drop_second_output=False):
        """Two flush-delimited one-task COPY windows over fresh store pairs."""
        lines = []
        for base in (0, 10):
            a, b = base, base + 1
            lines.append({"event": "create_store", "id": a, "shape": [4]})
            lines.append({"event": "create_store", "id": b, "shape": [4]})
            lines.append({"event": "create_partition", "id": a, "store": a, "kind": "none"})
            lines.append({"event": "create_partition", "id": b, "store": b, "kind": "none"})
            lines.append(
                {
                    "event": "index_task",
                    "kind": "COPY",
                    "domain": [1],
                    "args": [
                        {"store": a, "part": a, "priv": "R"},
                        {"store": b, "part": b, "priv": "W"},
                    ],
                }
            )
            if drop_second_output and base:
                # after the task that names it: a store may not be named
                # after its last drop_ref
                lines.append({"event": "drop_ref", "store": b})
            lines.append({"event": "flush"})
        path = tmp_path / "canon.trace"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return str(path)

    @staticmethod
    def _canon_lookups(path, capsys):
        """(hit or miss, canonical text) per memo lookup that canon prints."""
        assert main(["canon", path]) == 0
        blocks = [b for b in capsys.readouterr().out.strip().split("\n\n") if b]
        return [tuple(b.split("\n", 1)) for b in blocks]

    def _canon_blocks(self, path, capsys):
        blocks = [text for _, text in self._canon_lookups(path, capsys)]
        assert len(blocks) == 2
        return blocks

    def test_canon_prints_identical_lines_for_isomorphic_windows(self, tmp_path, capsys):
        blocks = self._canon_blocks(self._copy_windows(tmp_path), capsys)
        assert blocks[0] == blocks[1]

    def test_canon_shows_liveness_and_coverage(self, tmp_path, capsys):
        # dropping the second window's output makes it a different memo key,
        # which the canonical text must show
        path = self._copy_windows(tmp_path, drop_second_output=True)
        blocks = self._canon_blocks(path, capsys)
        assert blocks[0] != blocks[1]
        assert blocks[0].splitlines()[-1] == "live: 0 1"
        assert blocks[1].splitlines()[-1] == "live: 0"
        assert "(0,0,R) covers k0" in blocks[0]
        assert main(["analyze", path]) == 0
        assert "memo: 0 hits, 2 misses" in capsys.readouterr().out

    def test_canon_prints_every_lookup(self, tmp_path, capsys):
        # the first window misses, and so does the COPY remainder carved off
        # it; the later windows hit and replay both carves without a lookup
        path = tmp_path / "stencil3.trace"
        path.write_text(print_trace(gen_benchmark("stencil", iters=3)))
        lookups = self._canon_lookups(str(path), capsys)
        assert [mark for mark, _ in lookups] == ["miss", "miss", "hit", "hit"]
        window, remainder = lookups[0][1], lookups[1][1]
        assert len(window.splitlines()) == 7  # six tasks and the live line
        assert len(remainder.splitlines()) == 2 and " COPY " in remainder
        assert lookups[2][1] == lookups[3][1] == window

    def test_analyze_gives_a_stop_reason_for_memo_hits(self, tmp_path, capsys):
        path = tmp_path / "stencil3.trace"
        path.write_text(print_trace(gen_benchmark("stencil", iters=3)))
        stops = []
        for flags in ([], ["--no-memo"]):
            assert main(["analyze", str(path), *flags]) == 0
            out = capsys.readouterr().out
            stops.append([l for l in out.splitlines() if "stopped by AntiDep" in l])
        assert len(stops[0]) == 3
        assert stops[0] == stops[1]

    def test_bench_stencil_counts(self, capsys):
        assert main(["bench", "stencil", "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 -> 2" in out

    @pytest.mark.parametrize("case", sorted(TestTraceFormat._BAD_THIRD_LINES))
    def test_analyze_reports_a_bad_value_with_its_line(self, case, tmp_path, capsys):
        line, message = TestTraceFormat._BAD_THIRD_LINES[case]
        path = tmp_path / "bad.trace"
        path.write_text(TestTraceFormat._STORE_AND_PART + line + "\n")
        assert main(["analyze", str(path)]) == 2
        assert f"trace error: line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(TestTraceFormat._MISFIT_PROJECTIONS))
    def test_analyze_reports_a_misfit_projection_with_its_line(self, case, tmp_path, capsys):
        text, message = TestTraceFormat._MISFIT_PROJECTIONS[case]
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"trace error: {message}\n"

    @pytest.mark.parametrize(
        "command, kind, nargs, message",
        [
            ("analyze", "COPY", 1, "error: COPY: expected 2 store args, got 1\n"),
            ("run", "FOO", 2, "error: no generator or builtin for task kind 'FOO'\n"),
        ],
    )
    def test_trace_the_engine_rejects_is_an_error(self, command, kind, nargs, message, tmp_path, capsys):
        lines = []
        for i in range(nargs):
            lines.append({"event": "create_store", "id": i, "shape": [4]})
            lines.append({"event": "create_partition", "id": i, "store": i, "kind": "none"})
        privs = ["R", "W"][:nargs]
        args = [{"store": i, "part": i, "priv": pr} for i, pr in enumerate(privs)]
        lines.append({"event": "index_task", "kind": kind, "domain": [1], "args": args})
        lines.append({"event": "flush"})
        path = tmp_path / "rejected.trace"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("flag", ["--no-fusion", "--no-memo", "--no-temp-elim", "--oracle"])
    def test_bench_rejects_engine_flags_it_would_ignore(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "cg_like", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bench_takes_window_seed_and_json_report(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        args = ["bench", "cg_like", "--window", "4", "--seed", "3", "--json-report", str(path)]
        assert main(args) == 0
        assert "cg_like: tasks/iteration 12 -> " in capsys.readouterr().out
        assert json.loads(path.read_text())["name"] == "cg_like"

    @pytest.mark.parametrize("command", ["analyze", "run"])
    def test_store_used_after_its_last_drop_ref_is_a_trace_error(self, command, tmp_path, capsys):
        path = tmp_path / "dropped.trace"
        path.write_text(TestTraceFormat._USE_AFTER_DROP)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "trace error: line 7: store 0 used after its last drop_ref\n"

    def test_trace_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text('{"event": "drop_ref", "store": 9}\n')
        assert main(["run", str(path)]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_bench_report_structure(self):
        result = bench_report("jacobi", iters=3)
        assert result["tasks_per_iter_in"] == 3
        assert result["tasks_per_iter_fused"] == 2
        assert result["traffic_reduction"] >= 1.0

    def test_bench_report_keeps_iterations_apart(self):
        # at window 67 each iteration fills the buffer; it is flushed by the
        # iteration's explicit flush, before the next task could find it full
        result = bench_report("blackscholes_chain", window=67)
        assert result["per_iteration"] == [(67, 1)] * 4
