"""Finite-algebra workbench: compile a Turing machine into a finite
algebra, build witness subpowers, and machine-check congruence-growth
properties (atomic principal congruences, translation depth, lattice
meet-semidistributivity)."""

from .algebra import Budget, BudgetExceeded, Congruence, DEFAULT_BUDGET, \
    FiniteAlgebra, Operation, TranslationStep, table_op
from .depth import PairDepthGraph, TranslationSystem, maltsev_depth, \
    pair_depth_graph, principal_congruences, translation_system
from .lattice import Lattice, congruence_lattice, is_meet_semidistributive, \
    lattice_of_congruences, m3_lattice
from .machine_algebra import Element, MachineAlgebra, compile_machine, \
    monotonicity_report, parse_element_name, vector_evaluator
from .subpower import Subpower, close_subpower, op_image, translation_maps
from .tm import Configuration, Instruction, RunOutcome, TMError, \
    TuringMachine, load_tm, machine, parse_tm, run_bounded
from .witness import BnContext, LEMMA_ORDER, LemmaReport, build_bn, \
    explicit_chain_polynomial, kprime_collapse, run_lemma, verify_atomicity, \
    verify_bn_structure, verify_chain, verify_depth, \
    verify_f_characterization, verify_nonzero_ops, verify_omission_all, \
    verify_subalgebra_omission, verify_support_growth, witness_tuples

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
