import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_results():
    # each "expression  # result" line of the Library example must evaluate
    # to a value whose repr is the result it shows
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        shown = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if shown:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(got) == shown, ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == sum("#" in line for line in lines) > 0
