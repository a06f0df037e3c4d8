import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "varietal"


def test_no_assert_statements_in_src():
    """Runtime checks must survive `python -O`, which strips asserts."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
