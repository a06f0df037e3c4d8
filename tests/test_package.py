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
                "FiniteAlgebra", "Operation", "TranslationStep", "table_op"),
    "depth": ("PairDepthGraph", "TranslationSystem", "maltsev_depth",
              "pair_depth_graph", "principal_congruences", "translation_system"),
    "lattice": ("Lattice", "congruence_lattice", "is_meet_semidistributive",
                "lattice_of_congruences", "m3_lattice"),
    "machine_algebra": ("Element", "MachineAlgebra", "compile_machine",
                        "vector_evaluator"),
    "subpower": ("Subpower", "close_subpower", "op_image", "translation_maps"),
    "tm": ("Instruction", "RunOutcome", "TMError", "TuringMachine", "load_tm",
           "machine", "parse_tm", "run_bounded"),
    "witness": ("BnContext", "LEMMA_ORDER", "LemmaReport", "build_bn",
                "explicit_chain_polynomial", "kprime_collapse", "run_lemma",
                "verify_atomicity", "verify_bn_structure", "verify_chain",
                "verify_depth", "verify_f_characterization", "verify_nonzero_ops",
                "verify_omission_all", "verify_subalgebra_omission",
                "verify_support_growth", "witness_tuples"),
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


def test_exports_resolve_to_their_home_objects():
    """`__all__` is the package's 59 public names (the seven modules
    among them); each resolves to what its module binds."""
    exports = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])
    assert len(exports) == 59
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
