"""Finite-algebra workbench: compile a Turing machine into a finite
algebra, build witness subpowers, and machine-check congruence-growth
properties (atomic principal congruences, translation depth, lattice
meet-semidistributivity)."""

import importlib

__version__ = "0.1.0"
_EXPORTS = {"algebra": "Budget BudgetExceeded Congruence DEFAULT_BUDGET FiniteAlgebra "
                       "Operation TranslationStep",
            "depth": "PairDepthGraph TranslationSystem maltsev_depth pair_depth_graph "
                     "principal_congruences translation_system",
            "lattice": "Lattice congruence_lattice is_meet_semidistributive "
                       "lattice_of_congruences m3_lattice",
            "machine_algebra": "BnContext Element MachineAlgebra build_bn compile_machine "
                               "vector_evaluator witness_tuples",
            "subpower": "Subpower close_subpower op_image translation_maps",
            "tm": "Instruction RunOutcome TMError TuringMachine load_tm parse_tm run_bounded",
            "witness": "LEMMA_ORDER LemmaReport kprime_collapse run_lemma run_width "
                       "verify_atomicity verify_bn_structure verify_chain verify_depth "
                       "verify_f_characterization verify_nonzero_ops verify_omission_all "
                       "verify_support_growth"}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names.split())}
__all__ = sorted(_HOME)


def __getattr__(name):  # PEP 562: a name loads its module on first use
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _HOME[name], __name__)
    globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
