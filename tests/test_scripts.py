from pathlib import Path

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
