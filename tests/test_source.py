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


def test_src_line_cap():
    # the size of src/ at the last re-anchor of ROADMAP.md; features pay for
    # their lines with removals
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= 2622
