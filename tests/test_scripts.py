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


def test_readme_library_example_holds():
    # the README's Library block, run line by line; "expr  # value" lines are checked
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        expr, _, value = line.partition("  # ")
        if value:
            assert eval(expr, namespace) == eval(value, namespace), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3
