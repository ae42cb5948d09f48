"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        # from the repository root

They take about twenty seconds; one traced ``verify --scope all`` dominates.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import tracer  # noqa: E402
from tracer import layer_metrics  # noqa: E402


def run_op(op: workloads.Operation, cache_dir: Path, traced: bool) -> dict:
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    result, _ = run.run_child({"kind": op.kind, "inputs": op.inputs, "trace_id": 0 if traced else None},
                              run.child_env())
    assert result is not None
    return result


def run_main(args: list[str], capsys) -> dict:
    assert run.main(args) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_and_untraced_outputs_identical(tmp_path):
    op = workloads.rider_sweep(3, tmp_path / "cache")
    plain = run_op(op, tmp_path / "cache", traced=False)
    traced = run_op(op, tmp_path / "cache", traced=True)
    assert traced["outputs"] == plain["outputs"]
    assert all(op.check(plain["outputs"]))
    assert "spans" in traced and "spans" not in plain


def test_wrappers_catch_internal_calls(tmp_path):
    op = workloads.verify_all(0, tmp_path / "cache")
    result = run_op(op, tmp_path / "cache", traced=True)
    assert op.check(result["outputs"]) == [True]
    layers = layer_metrics(result["spans"])
    # Only internal calls reach these layers: the benchmark calls cli.main alone.
    assert layers["cli.main.calls"] == 1
    assert layers["enumerator.count_unlabelled.calls"] == 546
    assert layers["enumerator.count_unlabelled.distinct"] == 264
    assert layers["enumerator.count_pattern.calls"] == 5970
    assert layers["audit.subcases.calls"] == 4494
    assert layers["audit.subcases.distinct"] == 136
    assert layers["quasipoly.fit.calls"] == 41
    assert layers["quasipoly.fit.reject_ratio"] == pytest.approx(5 / 41)


def test_self_time_excludes_child_spans():
    spans = [
        [0, 0, None, "cli.main", 0.0, 10.0, None],
        [0, 1, 0, "quasipoly.fit", 1.0, 5.0, False],
        [0, 2, 1, "quasipoly.lagrange", 2.0, 3.0, None],
        [0, 3, 0, "quasipoly.fit", 6.0, 7.0, True],
    ]
    layers = layer_metrics(spans)
    assert layers["cli.main.self_s"] == pytest.approx(5.0)
    assert layers["quasipoly.fit.self_s"] == pytest.approx(4.0)
    assert layers["quasipoly.lagrange.self_s"] == pytest.approx(1.0)
    assert layers["quasipoly.fit.reject_ratio"] == pytest.approx(0.5)


def test_wrong_pinned_value_yields_failures(monkeypatch, capsys):
    pinned = workloads.load_queen_q4()
    small = {str(n): pinned["counts"][str(n)] for n in range(1, 9)}
    small["8"] += 1
    monkeypatch.setattr(workloads, "load_queen_q4", lambda: {**pinned, "counts": small})
    result = run_main(["--workload", "queen-q4", "--seed", "1", "--seconds", "0"], capsys)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (8, 1)


def test_exception_in_operation_is_a_failure_not_a_crash(monkeypatch, capsys):
    pinned = workloads.load_queen_q4()
    monkeypatch.setattr(workloads, "load_queen_q4", lambda: {**pinned, "q": 0, "counts": {"3": 0}})
    result = run_main(["--workload", "queen-q4", "--seed", "1", "--seconds", "0"], capsys)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_tracer_notes_a_signature_it_cannot_read():
    t = tracer.Tracer(0)
    traced = t.wrap("cache.load", lambda path: None, tracer._records)  # the recorder reads ``self``
    traced("counts.jsonl")
    assert t.spans[0][5] is None
    assert t.errors


def test_tracing_error_is_a_failure(monkeypatch, capsys):
    real = run.run_child

    def broken_tracer(spec, env):
        result, elapsed = real(spec, env)
        if spec["trace_id"] is not None:
            result["trace_errors"] = ["cannot trace qqueens.enumerator.count_pattern"]
        return result, elapsed

    monkeypatch.setattr(run, "run_child", broken_tracer)
    pinned = workloads.load_queen_q4()
    small = {str(n): pinned["counts"][str(n)] for n in range(1, 7)}
    monkeypatch.setattr(workloads, "load_queen_q4", lambda: {**pinned, "counts": small})
    result = run_main(["--workload", "queen-q4", "--seed", "1", "--seconds", "0", "--trace", "1"], capsys)
    assert result["correct"] is False
    assert result["failed"] >= 6


def test_wrong_exit_code_is_a_failure(tmp_path):
    op = workloads.verify_all(0, tmp_path / "cache")
    op.inputs["calls"] = [["verify", "--scope", "no-such-scope"]]
    result = run_op(op, tmp_path / "cache", traced=False)
    assert result["outputs"][0]["exit"] == 2
    assert op.check(result["outputs"]) == [False]


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.rider_sweep(7, tmp_path).inputs
    assert a == workloads.rider_sweep(7, tmp_path).inputs
    assert a != workloads.rider_sweep(8, tmp_path).inputs


def brute_force(moves, q: int, n: int) -> int:
    """Nonattacking q-subsets of the n x n board, by trying every subset."""
    squares = [(x, y) for x in range(n) for y in range(n)]

    def attacks(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        return any(dx * d == dy * c for c, d in moves)

    return sum(1 for combo in itertools.combinations(squares, q)
               if not any(attacks(a, b) for a, b in itertools.combinations(combo, 2)))


def test_independent_oracles():
    rook = ((0, 1), (1, 0))
    assert all(workloads.rider_pairs(rook, n) == n * n * (n - 1) * (n - 1) // 2 for n in range(1, 9))
    assert workloads.rider_triples(rook, 4) == 96
    for moves in workloads.draw_riders(random.Random(0), 4):
        assert brute_force(moves, 2, 5) == workloads.rider_pairs(moves, 5)
        assert [brute_force(moves, 3, n) for n in range(1, 6)] == [workloads.rider_triples(moves, n)
                                                                   for n in range(1, 6)]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queen-q4", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
