import ast
import pathlib
import re
import sys

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "varietal"


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


def test_src_defines_no_dataclasses():
    """A dataclass writes and compiles its methods when its module is
    imported, in every process.  The sixteen classes of src/ once did: the
    time spent in `dataclasses._process_class` while importing every module
    was 7.9-12.5 ms a process (nine fresh interpreters, 2-core host,
    Python 3.11.7).  With NamedTuples and plain classes, importing every
    module after numpy took 33.6 ms against 41.4 ms (medians of 30, without
    bytecode caches, as the benchmark runs)."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line, module in absolute_imports(path)
             if module.split(".")[0] == "dataclasses"]
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


def test_src_reads_every_name_it_imports():
    """An import whose name the module never reads is dead code or a
    re-export for some other caller; either way it is not the module's
    own use.  The bound name of `import a.b` is `a`, and the
    `from __future__` directive binds nothing."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
                 for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        found += [f"{path.name}:{line} {name}" for line, name in bound
                  if name not in read]
    assert found == []


def test_readme_library_example_runs(monkeypatch):
    """The README's Library example is the documented API: it must run."""
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})


def test_only_cli_run_skips_the_interpreter_exit():
    """`os._exit` ends a process without flushing its streams or running
    its atexit handlers; `cli.run` does both first, so it alone may call
    it.  Each hit is (file, outermost enclosing function, line)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        found += [(path.name, owner.get(node), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_exit"
                  or isinstance(node, ast.alias) and node.name == "_exit"]
    assert [hit[:2] for hit in found] == [("cli.py", "run")]


def test_the_script_and_python_m_share_one_entry_point():
    """The installed `varietal` script and `python -m varietal.cli` both
    call `cli.run`, so both end the process the same way."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject,
                        re.M | re.S).group(1)
    assert scripts.split() == ["varietal", "=", '"varietal.cli:run"']
    tree = ast.parse((SRC / "cli.py").read_text())
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["run()"]]
