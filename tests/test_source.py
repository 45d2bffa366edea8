import ast
import importlib
import inspect
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


def test_traced_functions_exist():
    # perfbench/spans.py wraps these by name; a renamed or deleted one breaks
    # only the traced benchmark run
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    [traced] = [
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and list(map(ast.unparse, node.targets)) == ["TRACED"]
    ]
    assert traced
    missing = [
        f"{mod}.{fn}"
        for mod, fn in traced
        if not inspect.isfunction(getattr(importlib.import_module(f"protkern.{mod}"), fn, None))
    ]
    assert missing == []


def test_no_unbounded_recursion():
    # a call per node of a tree decomposition overflows the interpreter's
    # stack on deep witnesses; only these searches, bounded by a cap or by
    # the size of a small input, call themselves
    found = sorted(
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
            for call in ast.walk(node)
        )
    )
    assert found == sorted([
        "parse_family", "generate", "_min_short_cycle_transversal", "_matchings", "go", "go",
        "link", "_emit_group", "_branch_and_bound",
    ])


def test_table_is_the_only_process_state():
    # the table of representatives is replace.TABLE; a mutable module global
    # would be a second cache that no caller can swap or drop
    constants = {("graph", "FAMILY_FORMS"), ("__init__", "__all__")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            called = isinstance(value, ast.Call) and getattr(value.func, "id", None)
            if isinstance(value, displays) or called in ("dict", "list", "set"):
                found += [
                    f"{path.stem}.{name.id}"
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and (path.stem, name.id) not in constants
                ]
    assert found == []
