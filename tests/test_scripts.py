import shlex
from pathlib import Path

from qqueens.cache import ENV_VAR
from qqueens.cli import main

ROOT = Path(__file__).resolve().parents[1]


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


def test_readme_command_line_examples_hold(capsys, monkeypatch):
    # the README's command-line Examples block, run command by command
    # through the CLI; each exits 0, and a count's comment gives its counts
    monkeypatch.delenv(ENV_VAR, raising=False)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    counted = 0
    for line in block.splitlines():
        command, _, comment = line.partition("  # ")
        prog, *argv = shlex.split(command)
        assert prog == "qqueens", line
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "count":
            counts = [row.split()[1] for row in out.splitlines()[1:]]
            assert counts == comment.rpartition(":")[2].split(), line
            counted += 1
    assert len(block.splitlines()) == 11
    assert counted == 2
