import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "varietal"


def test_no_assert_statements_in_src():
    """Runtime checks must survive `python -O`, which strips asserts."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_oracles_import_nothing_from_the_package():
    """The oracles cross-check src/, so they must share none of its code;
    conftest counts too, because it imports the package."""
    found = []
    for name in ("oracles.py", "altops.py"):
        path = TESTS / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for m in modules
                      if m.split(".")[0] in ("varietal", "conftest")]
    assert found == []
