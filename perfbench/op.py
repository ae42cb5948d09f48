"""One operation of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/op.py '<json spec>'

The spec holds ``kind`` ("counts" or "cli"), the generated ``inputs``, and
``trace_id`` (an integer when the operation is traced, else null).  The
process imports the package, installs the tracer if asked, times the
operation and prints one JSON line: ``wall_s``, the raw ``outputs`` in input
order and, when traced, the ``spans`` and the tracer's ``trace_errors``.
Checking the outputs is the caller's job, so nothing here decides what is
correct.

Package functions are looked up through their modules at call time, so the
tracer's rebinding sees the benchmark's own calls as well as internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from qqueens import cli, core, enumerator


def run_counts(inputs: dict) -> list[dict]:
    """``count_unlabelled(moves, q, n)`` for each n, one output per call."""
    moves = core.MoveSet.from_pairs(inputs["moves"])
    outputs = []
    for n in inputs["n"]:
        try:
            outputs.append({"count": enumerator.count_unlabelled(moves, inputs["q"], n)})
        except Exception as err:
            outputs.append({"error": repr(err)})
    return outputs


def run_cli(inputs: dict) -> list[dict]:
    """``cli.main(argv)`` for each argv in order, capturing stdout and exit status."""
    outputs = []
    for argv in inputs["calls"]:
        out = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as err:
            error = repr(err)
        outputs.append({"exit": code, "stdout": out.getvalue(), "error": error})
    return outputs


KINDS = {"counts": run_counts, "cli": run_cli}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace_id"] is not None:
        from tracer import Tracer

        tracer = Tracer(spec["trace_id"])
        tracer.install()
    run = KINDS[spec["kind"]]
    start = time.perf_counter()
    outputs = run(spec["inputs"])
    wall_s = time.perf_counter() - start
    result = {"wall_s": wall_s, "outputs": outputs}
    if tracer is not None:
        result["spans"] = tracer.records()
        result["trace_errors"] = sorted(tracer.errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
