import ast
from pathlib import Path

import class_spectrum


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise explicit errors
    sources = sorted(Path(class_spectrum.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "verify.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
