"""Benchmark of the qqueens pipeline: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Workloads are defined in ``workloads.py``; each operation runs
in a fresh interpreter (``op.py``), one after another, with no threads or
pools, while a typical operation still fits in ``--seconds`` (at least
one operation, two when tracing).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (mean
operation time over the run), ``setup_s`` (median time from interpreter start until
``qqueens.cli`` is imported, over fresh processes spread through the run) and
``peak_rss_mb`` (largest resident set of any child).  With ``--trace 1``
untraced and traced operations alternate; the metrics are the per-layer
numbers of the traced ones (see README.md), plus the tracing overhead, and
the spans are written to ``.perfbench-run/spans/`` when the run ends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import SPAN_FIELDS, layer_metrics, median_layers

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES_MIN = 3  # set-up probes before the first operation
SETUP_PROBE_EVERY_S = 2.0  # then one more for each further 2 s of operations
EXIT_NO_PACKAGE = 2


def child_env() -> dict:
    """Environment for child interpreters: the checkout's package, no user cache."""
    env = {k: v for k, v in os.environ.items() if k != "QQUEENS_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_left() -> float:
    return HARD_LIMIT_S - (time.perf_counter() - PROCESS_START)


def probe_setup(env: dict) -> float:
    """Time from spawning a fresh interpreter until ``import qqueens.cli`` returns in it.

    Both ends read the system-wide monotonic clock, so neither the child's
    teardown nor the parent's wait for it is counted.
    """
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import time, qqueens.cli; print(time.monotonic())"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, time_left()), check=False)
    try:
        return float(proc.stdout.split()[-1]) - start
    except (ValueError, IndexError):  # the import failed; the operations will fail too
        return time.monotonic() - start


def top_up_setup(times: list[float], env: dict, op_time: float) -> None:
    """Probe set-up until the run holds one probe per ``SETUP_PROBE_EVERY_S`` of ``op_time``.

    Called before every operation and once after the last, so the probes
    are spread over the run like the operations whose mean is ``wall_s``.
    Probes do not count against ``--seconds``, which is the operations' time.
    """
    while len(times) < SETUP_PROBES_MIN + int(op_time / SETUP_PROBE_EVERY_S) and time_left() > 0:
        times.append(probe_setup(env))


def run_child(spec: dict, env: dict) -> tuple[dict | None, float]:
    """One operation in a fresh interpreter; ``None`` if it crashed or timed out."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "op.py"), json.dumps(spec)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(1.0, time_left()))
    except subprocess.TimeoutExpired:
        print("operation timed out", file=sys.stderr)
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"operation failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None, elapsed
    try:
        return json.loads(lines[-1]), elapsed
    except json.JSONDecodeError:
        print("operation printed no result", file=sys.stderr)
        return None, elapsed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(workload: str, seed: int) -> dict:
    """Run metadata: recorded, never gated."""
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_sha": git_sha(), "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qqueens" / "__init__.py").is_file():
        print(f"no qqueens package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = child_env()
    RUN_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        cache_dir = work_dir / "cache"
        op = WORKLOADS[args.workload](args.seed, cache_dir)
        setup: list[float] = []

        attempted = failed = 0
        walls: dict[bool, list[float]] = {False: [], True: []}
        traced_layers, spans, elapsed_ops = [], [], []
        for op_index in itertools.count():
            if not args.trace:
                top_up_setup(setup, env, sum(elapsed_ops))
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir.mkdir()
            spec = {"kind": op.kind, "inputs": op.inputs, "trace_id": op_index if traced else None}
            result, elapsed = run_child(spec, env)
            attempted += op.calls
            if result is None:
                failed += op.calls
                walls[traced].append(elapsed)
            elif result.get("trace_errors"):
                print("tracing failed: " + "; ".join(result["trace_errors"]), file=sys.stderr)
                failed += op.calls
                walls[traced].append(result["wall_s"])
            else:
                verdicts = op.check(result["outputs"])
                failed += op.calls - sum(1 for ok in verdicts[:op.calls] if ok)
                walls[traced].append(result["wall_s"])
                if traced:
                    spans.append(result["spans"])
                    traced_layers.append(layer_metrics(result["spans"]))
            elapsed_ops.append(elapsed)
            # Start another operation only if a typical one still fits in --seconds.
            done = sum(elapsed_ops) + statistics.median(elapsed_ops) > args.seconds
            if (done or time_left() <= 0) and (not args.trace or walls[True]):
                break
        if not args.trace:
            top_up_setup(setup, env, sum(elapsed_ops))

        meta = metadata(args.workload, args.seed)
        meta["operations"] = {"untraced": len(walls[False]), "traced": len(walls[True])}
        print("# meta " + json.dumps(meta, sort_keys=True))
        if args.trace:
            metrics = trace_metrics(traced_layers, spans, walls)
            counts_differ = sum(1 for m in traced_layers[1:] if counts_of(m) != counts_of(traced_layers[0]))
            attempted += max(0, len(traced_layers) - 1)
            failed += counts_differ
            write_spans(args.workload, args.seed, spans)
        else:
            metrics = {
                # The mean, not the median: on a shared host the processor's speed
                # can switch between regimes lasting seconds, and the mean of a
                # run's operations then varies less from run to run than their
                # median does.  Medians are taken over runs.
                "wall_s": (statistics.fmean(walls[False]), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
            }
            q1, q2, q3 = quartiles(walls[False])
            print(f"# operation wall time over {len(walls[False])} operations: q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:.6g} {unit}")
        print(f"{'fail_ratio':44s} {failed}/{attempted}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def counts_of(layers: dict) -> dict:
    """The deterministic part of one traced operation's layer metrics."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def trace_metrics(traced_layers, spans, walls) -> dict:
    layers = median_layers(traced_layers) if traced_layers else layer_metrics([])
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    traced_wall = statistics.fmean(walls[True])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.fmean(walls[False]), "s")
    metrics["trace.spans"] = (statistics.median(len(s) for s in spans) if spans else 0, "count")
    return metrics


def write_spans(workload: str, seed: int, spans) -> None:
    """All spans of the run, one JSON list per line after a header line of field names."""
    out_dir = RUN_DIR / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / f"{workload}-seed{seed}.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        for op_spans in spans:
            for span in op_spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
