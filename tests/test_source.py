import ast
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "varietal"


def absolute_imports(path):
    """(line, module) for each module a file imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


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
    found = [f"{name}:{line}" for name in ("oracles.py", "altops.py")
             for line, module in absolute_imports(TESTS / name)
             if module.split(".")[0] in ("varietal", "conftest")]
    assert found == []


def test_src_imports_only_the_standard_library_and_numpy():
    """pyproject.toml declares numpy alone, so any other third-party import
    (scipy, say) would pass where it happens to be installed and fail on a
    clean install."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = [f"{path.name}:{line} {module}" for path in sorted(SRC.glob("*.py"))
             for line, module in absolute_imports(path)
             if module.split(".")[0] not in allowed]
    assert found == []
