import ast
from pathlib import Path

import protkern

SRC = Path(protkern.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so every self-check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
