import os
import subprocess
import sys
from pathlib import Path

import qqueens

ROOT = Path(__file__).resolve().parents[1]


def test_queen_four_piece_analysis_confirms_the_top_coefficients():
    # the script at its default --n-max 37, run as a reader would run it
    src = str(Path(qqueens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "queen_four_piece_analysis.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "top three coefficients confirmed exactly: True" in proc.stdout.splitlines()
