import ast
import importlib
import os
import subprocess
import sys

import pytest

import varietal
from conftest import FIXTURES

HALTING = str(FIXTURES / "halting.tm")

# the package's public names by home module; `__all__` must keep exactly these
HOMES = {
    "algebra": ("Budget", "BudgetExceeded", "Congruence", "DEFAULT_BUDGET",
                "FiniteAlgebra", "Operation", "TranslationStep"),
    "depth": ("PairDepthGraph", "TranslationSystem", "maltsev_depth",
              "pair_depth_graph", "principal_congruences", "translation_system"),
    "lattice": ("Lattice", "congruence_lattice", "is_meet_semidistributive",
                "lattice_of_congruences", "m3_lattice"),
    "machine_algebra": ("BnContext", "Element", "MachineAlgebra", "build_bn",
                        "compile_machine", "vector_evaluator", "witness_tuples"),
    "subpower": ("Subpower", "close_subpower", "op_image", "translation_maps"),
    "tm": ("Instruction", "RunOutcome", "TMError", "TuringMachine", "load_tm",
           "parse_tm", "run_bounded"),
    "witness": ("LEMMA_ORDER", "LemmaReport", "kprime_collapse", "run_lemma",
                "run_width", "verify_atomicity", "verify_bn_structure",
                "verify_chain", "verify_depth", "verify_f_characterization",
                "verify_nonzero_ops", "verify_omission_all",
                "verify_support_growth"),
}


def test_compiling_a_machine_loads_only_what_it_needs():
    """`import varietal` loads no module; compiling a machine (with K, as
    the benchmark's set-up does) leaves subpower, depth, lattice, witness
    and cli unloaded, so set-up never compiles their source."""
    code = ("import sys, varietal\n"
            "print([m for m in sys.modules if m.startswith('varietal.')])\n"
            "varietal.compile_machine(varietal.load_tm(sys.argv[1]), with_k=True)\n"
            "print([m for m in ('subpower', 'depth', 'lattice', 'witness', 'cli')\n"
            "       if 'varietal.' + m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    run = subprocess.run([sys.executable, "-c", code, HALTING], env=env,
                         capture_output=True, timeout=120)
    assert run.stdout.decode().split() == ["[]", "[]"], run.stderr


@pytest.mark.parametrize("argv, unloaded", [
    (["bn", "build", "--with-k", "--n", "2..3", "--tm", HALTING],
     {"depth", "lattice", "witness"}),
    (["sd-meet", "--n", "2", "--tm", HALTING], {"witness"}),
    (["verify", "--n", "2", "--tm", HALTING], {"lattice"}),
    (["depth", "--n", "2", "--tm", HALTING], {"lattice"}),
    (["tm", "run", HALTING], {"subpower", "depth", "lattice", "witness"}),
    (["algebra", "build", "--tm", HALTING],
     {"subpower", "depth", "lattice", "witness"}),
], ids=["bn build --with-k", "sd-meet", "verify", "depth", "tm run",
        "algebra build"])
def test_each_command_loads_only_the_modules_it_runs(argv, unloaded):
    """In a fresh interpreter each command succeeds without loading the
    modules it does not run, so it never compiles their source."""
    code = ("import contextlib, io, sys\n"
            "from varietal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('varietal.')))\n")
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, timeout=120)
    code, *loaded = run.stdout.decode().split()
    assert code == "0", run.stderr
    assert "varietal.cli" in loaded
    assert unloaded.isdisjoint(m.split(".")[1] for m in loaded), loaded


def test_exports_resolve_to_their_home_objects():
    """`__all__` is the package's 56 public names (the seven modules
    among them); each resolves to what its module binds."""
    exports = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])
    assert len(exports) == 56
    assert varietal.__all__ == exports
    for home, names in HOMES.items():
        module = importlib.import_module(f"varietal.{home}")
        assert getattr(varietal, home) is module
        for name in names:
            assert getattr(varietal, name) is getattr(module, name), name
    namespace = {}
    exec("from varietal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exports)
    assert set(exports) <= set(dir(varietal))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        varietal.nope


def _uses_in_home(tree: ast.Module, name: str) -> bool:
    """Whether the module `tree` that defines `name` reads it outside its
    own def or class: a load of the name where no enclosing function binds
    it, or a string equal to it (lemmas dispatch to verifiers by name)."""
    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return False
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a}
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            shadowed = shadowed or name in bound
        if isinstance(node, ast.Name) and node.id == name and \
                isinstance(node.ctx, ast.Load) and not shadowed:
            return True
        if isinstance(node, ast.Constant) and node.value == name:
            return True
        return any(visit(child, shadowed) for child in ast.iter_child_nodes(node))
    return visit(tree, False)


def _imported(tree: ast.Module, home: str, name: str) -> bool:
    """Whether the module `tree` imports `name` from its home module, or
    reads it as an attribute of that module."""
    return any(
        (isinstance(node, ast.ImportFrom) and node.module == home
         and any(alias.name == name for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == home)
        for node in ast.walk(tree))


def test_every_export_is_used_in_the_package():
    """Each public name other than a module is used somewhere in the
    package beyond its own definition and the export table of
    `__init__.py`, so no helper that only the tests need lives in src."""
    src = os.path.dirname(varietal.__file__)
    trees = {path[:-3]: ast.parse(open(os.path.join(src, path)).read())
             for path in sorted(os.listdir(src))
             if path.endswith(".py") and path != "__init__.py"}
    unused = [name for name in varietal.__all__ if name not in HOMES
              if not any(_uses_in_home(tree, name) if module == varietal._HOME[name]
                         else _imported(tree, varietal._HOME[name], name)
                         for module, tree in trees.items())]
    assert unused == []
