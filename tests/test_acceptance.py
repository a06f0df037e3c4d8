"""Acceptance gate: one test per release criterion, numbered, each with
its stated runtime cap asserted.  Every check here is end-to-end against
the public API; independent oracles live in oracles.py and altops.py.
"""

import json
import time
from itertools import combinations, product

import numpy as np
import pytest

import altops
import oracles
from varietal.algebra import Budget, BudgetExceeded, FiniteAlgebra, table_op
from varietal.cli import main
from varietal.depth import pair_depth_graph, principal_congruences, \
    translation_system
from varietal.lattice import (
    congruence_lattice,
    is_meet_semidistributive,
    lattice_of_congruences,
    m3_lattice,
)
from varietal.machine_algebra import (
    compile_machine,
    monotonicity_report,
    vector_evaluator,
)
from varietal.witness import (
    build_bn,
    explicit_chain_polynomial,
    kprime_collapse,
    verify_atomicity,
    verify_bn_structure,
    verify_chain,
    verify_depth,
    verify_f_characterization,
    verify_nonzero_ops,
    verify_subalgebra_omission,
    verify_support_growth,
)
from conftest import FIXTURES

HALTING = str(FIXTURES / "halting.tm")


@pytest.fixture(scope="module")
def ctx5(ma2):
    return build_bn(ma2, 5)


@pytest.fixture(scope="module")
def ctx6(ma2):
    return build_bn(ma2, 6)


def report_line(num, name, t0, cap=None):
    dt = time.monotonic() - t0
    budget = f" [< {cap:g}s]" if cap else ""
    print(f"criterion {num:02d} ({name}): PASS in {dt:.2f}s{budget}")
    if cap is not None:
        assert dt < cap, f"criterion {num} exceeded its {cap}s budget ({dt:.2f}s)"


# -- 1: universe sizes ---------------------------------------------------------

def test_criterion_01_universe_size(halting_tm, three_state_tm, four_state_tm):
    t0 = time.monotonic()
    for tm, expected in ((halting_tm, 48), (three_state_tm, 68),
                         (four_state_tm, 88)):
        ma = compile_machine(tm)
        assert ma.size == expected
        # independent count: 8 state-free elements plus 20 cells per state
        assert ma.size == 8 + 20 * len(tm.states)
        families = [el.family for el in ma.elements]
        assert families.count("zero") == 1 and families.count("head") == 3
        assert families.count("letter") == 4
        assert families.count("cell") == 20 * len(tm.states)
        assert len(set(ma.names)) == ma.size
    report_line(1, "universe size", t0, cap=1.0)


# -- 2: operation case tables --------------------------------------------------

CASES_2STATE = [
    ("meet", ("D", "D"), "D"), ("meet", ("D", "C"), "0"),
    ("meet", ("0", "D"), "0"),
    ("mul", ("2", "D"), "D"), ("mul", ("H", "C"), "D"),
    ("mul", ("1", "C"), "C"), ("mul", ("2", "bD"), "bD"),
    ("mul", ("H", "bC"), "bD"), ("mul", ("1", "bC"), "bC"),
    ("mul", ("D", "2"), "0"), ("mul", ("1", "D"), "0"),
    ("J", ("D", "bD", "D"), "D"), ("J", ("D", "bD", "C"), "0"),
    ("J", ("D", "D", "C"), "D"), ("J", ("D", "C", "D"), "0"),
    ("J'", ("D", "bD", "C"), "D"), ("J'", ("D", "bD", "0"), "D"),
    ("J'", ("D", "D", "D"), "D"), ("J'", ("D", "D", "C"), "0"),
    ("S2", ("D", "bD", "D", "D", "C"), "D"),
    ("S2", ("D", "bD", "D", "C", "D"), "D"),
    ("S2", ("D", "bD", "D", "C", "C"), "0"),
    ("S2", ("1", "2", "D", "D", "D"), "0"),
    ("S1", ("1", "D", "D", "C"), "D"), ("S1", ("2", "C", "0", "C"), "C"),
    ("S1", ("D", "D", "D", "D"), "0"), ("S1", ("H", "D", "D", "D"), "0"),
    ("S0", ("C[0,0]^0", "D", "D", "C"), "D"),
    ("S0", ("C[1,0]^0", "D", "D", "D"), "0"),
    ("S0", ("1", "D", "D", "D"), "0"),
    ("T", ("2", "D", "2", "D"), "D"), ("T", ("2", "D", "H", "C"), "bD"),
    ("T", ("H", "C", "2", "D"), "bD"), ("T", ("1", "C", "2", "D"), "0"),
    ("I", ("1",), "C[1,0]^0"), ("I", ("H",), "M[1]^0"),
    ("I", ("2",), "D[1,0]^0"), ("I", ("D",), "0"),
    ("L[1,0,0]", ("2", "H", "M[1]^0"), "D[0,0]^0"),
    ("L[1,0,1]", ("2", "H", "M[1]^0"), "D[0,1]^0"),
    ("L[1,0,0]", ("1", "1", "C[1,0]^1"), "C[0,0]^1"),
    ("L[1,0,0]", ("H", "1", "C[1,0]^0"), "M[0]^0"),
    ("L[1,0,1]", ("H", "1", "C[1,0]^1"), "M[0]^1"),
    ("L[1,0,0]", ("2", "2", "D[1,0]^1"), "D[0,0]^1"),
    ("L[1,0,0]", ("1", "1", "bC[1,0]^0"), "bC[0,0]^0"),
    ("L[1,0,0]", ("2", "H", "M[0]^0"), "0"),
    ("U1_L[1,0,0]", ("2", "H", "H", "M[1]^0"), "D[0,0]^0"),
    ("U1_L[1,0,0]", ("2", "H", "2", "M[1]^0"), "bD[0,0]^0"),
    ("U1_L[1,0,0]", ("H", "1", "1", "C[1,0]^0"), "0"),
    ("U0_L[1,0,0]", ("2", "2", "H", "M[1]^0"), "D[0,0]^0"),
    ("U0_L[1,0,0]", ("1", "H", "1", "C[1,0]^0"), "bM[0]^0"),
]

CASES_3STATE = [
    ("R[1,0,0]", ("H", "1", "M[1]^0"), "C[2,0]^1"),
    ("R[1,0,1]", ("H", "1", "M[1]^0"), "C[2,1]^1"),
    ("R[1,0,0]", ("2", "H", "D[1,0]^0"), "M[2]^0"),
    ("R[1,0,0]", ("1", "1", "C[1,0]^1"), "C[2,0]^1"),
    ("R[1,0,0]", ("2", "2", "D[1,0]^0"), "D[2,0]^0"),
    ("R[1,0,0]", ("H", "1", "bM[1]^0"), "bC[2,0]^1"),
]

CASES_K = [
    ("K", ("D", "bD", "C"), "bD"), ("K", ("bD", "D", "0"), "D"),
    ("K", ("D", "D", "bD"), "bD"), ("K", ("D", "D", "D"), "D"),
    ("K", ("D", "C", "D"), "0"),
]


def test_criterion_02_operation_tables(ma2, ma2_k, ma3):
    t0 = time.monotonic()
    for ma, cases in ((ma2, CASES_2STATE), (ma3, CASES_3STATE),
                      (ma2_k, CASES_K)):
        for symbol, args, expected in cases:
            got = ma.name(ma.algebra.eval(symbol, [ma.idx(a) for a in args]))
            assert got == expected, (symbol, args, got, expected)

    names = ma2.names
    meet_fn = ma2.algebra.op("meet").func
    mul_fn = ma2.algebra.op("mul").func
    for x, y in product(range(48), repeat=2):
        assert names[meet_fn(x, y)] == altops.alt_meet(names[x], names[y])
        assert names[mul_fn(x, y)] == altops.alt_mul(names[x], names[y])
    j_fn = ma2.algebra.op("J").func
    jp_fn = ma2.algebra.op("J'").func
    k_fn = ma2_k.algebra.op("K").func
    for x, y, z in product(range(48), repeat=3):
        nx, ny, nz = names[x], names[y], names[z]
        assert names[j_fn(x, y, z)] == altops.alt_j(nx, ny, nz)
        assert names[jp_fn(x, y, z)] == altops.alt_jprime(nx, ny, nz)
        assert names[k_fn(x, y, z)] == altops.alt_k(nx, ny, nz)
    report_line(2, "operation tables", t0, cap=10.0)


# -- 3: monotonicity -----------------------------------------------------------

def test_criterion_03_monotonicity(ma2):
    t0 = time.monotonic()
    report = monotonicity_report(ma2, samples=1_000_000, seed=0)
    assert report["pass"] is True
    assert all(c["violations"] == 0 for c in report["ops"])
    exhaustive = {c["op"] for c in report["ops"] if c["mode"] == "exhaustive"}
    assert {"meet", "mul", "J", "J'", "I"} <= exhaustive
    moves = {c["op"] for c in report["ops"] if c["op"].startswith(("L[", "R["))}
    assert moves and moves <= exhaustive

    # an explicit sampled pass (>= 1e6 each) over the machine-derived
    # families, including the arity-3 ones already covered exhaustively
    rng = np.random.default_rng(0)
    scaffolding = {"zero", "meet", "mul", "J", "J'", "I"}
    sampled = 0
    for op in ma2.algebra.ops:
        if op.symbol in scaffolding:
            continue
        evaluate = vector_evaluator(ma2, op.symbol)
        k = op.arity
        vs = [rng.integers(0, ma2.size, size=1_000_000) for _ in range(k)]
        keep = [rng.integers(0, 2, size=1_000_000).astype(bool)
                for _ in range(k)]
        us = [np.where(keep[j], vs[j], 0) for j in range(k)]
        fv = evaluate(*vs)
        fu = evaluate(*us)
        assert np.count_nonzero((fu != 0) & (fu != fv)) == 0, op.symbol
        sampled += 1
    assert sampled == 10  # S0, S1, S2, T, two L families, four U variants
    report_line(3, "monotonicity", t0, cap=60.0)


# -- 4..10: lemma-level verifiers ------------------------------------------------

def test_criterion_04_structure(ctx2, ctx3, ctx4, ctx5):
    t0 = time.monotonic()
    for ctx in (ctx2, ctx3, ctx4, ctx5):
        report = verify_bn_structure(ctx)
        assert report.status == "PASSED", (ctx.n, report.counterexamples)
    assert ctx5.subpower.size == 62
    report_line(4, "B_n structure", t0, cap=30.0)


def test_criterion_05_nonzero_operations(ctx2, ctx3, ctx4, ctx5):
    t0 = time.monotonic()
    for ctx in (ctx2, ctx3, ctx4, ctx5):
        report = verify_nonzero_ops(ctx)
        assert report.status == "PASSED", (ctx.n, report.counterexamples)
        assert {w["op"] for w in report.witnesses} == {"meet", "J", "J'", "S2"}
    report_line(5, "nonzero operations", t0)


def test_criterion_06_atomicity(ctx2, ctx3, ctx4):
    t0 = time.monotonic()
    for ctx in (ctx2, ctx3):
        assert verify_atomicity(ctx).status == "PASSED"
    t4 = time.monotonic()
    assert verify_atomicity(ctx4).status == "PASSED"
    assert time.monotonic() - t4 < 300.0
    report_line(6, "atomicity", t0, cap=300.0)


def test_criterion_07_chain_membership(request, ma2, ctx5, ctx6):
    t0 = time.monotonic()
    for n in (2, 3, 4, 5, 6):
        ctx = {5: ctx5, 6: ctx6}.get(n) or request.getfixturevalue(f"ctx{n}")
        steps, on_a, on_zero = explicit_chain_polynomial(ctx)
        assert len(steps) == n - 1
        assert on_a == ctx.id_of(ctx.b[n])
        assert on_zero == ctx.id_of(ctx.c[n])
        report = verify_chain(ctx)
        assert report.status == "PASSED", (n, report.counterexamples)
    report_line(7, "chain membership", t0)


def test_criterion_08_f_characterization(ctx2, ctx3, ctx4):
    t0 = time.monotonic()
    for ctx in (ctx2, ctx3, ctx4):
        report = verify_f_characterization(ctx)
        assert report.status == "PASSED", (ctx.n, report.counterexamples)
        assert report.witnesses[0]["cap"] == ctx.n + 2
        assert report.witnesses[0]["partners_of_b_n"] == \
            [ctx.render(ctx.c[ctx.n])]
    report_line(8, "f characterization", t0)


def test_criterion_09_omission(ctx3, ctx4):
    t0 = time.monotonic()
    for ctx in (ctx3, ctx4):
        for k in range(2, ctx.n + 1):
            report = verify_subalgebra_omission(ctx, k)
            assert report.status == "PASSED", (ctx.n, k,
                                               report.counterexamples)
            detail = report.witnesses[0]
            assert detail["closure_size"] < detail["full_size"]
    report_line(9, "omission", t0)


def test_criterion_10_support_growth(ctx3, ctx4):
    t0 = time.monotonic()
    for ctx in (ctx3, ctx4):
        report = verify_support_growth(ctx)
        assert report.status == "PASSED", (ctx.n, report.counterexamples)
        assert report.witnesses[0]["hypothesis_pairs"] > 0
    report_line(10, "support growth", t0)


# -- 11: depth growth ------------------------------------------------------------

def test_criterion_11_depth_growth(ma2, ctx2, ctx3, ctx4):
    t0 = time.monotonic()
    for ctx in (ctx2, ctx3, ctx4):
        report = verify_depth(ctx)
        assert report.status == "PASSED", (ctx.n, report.counterexamples)
        assert report.witnesses[0]["depth"] == ctx.n - 1
    # n=5 runs under its own 15 minute budget and may be skipped on it
    budget = Budget(deadline=time.monotonic() + 900.0)
    try:
        ctx5 = build_bn(ma2, 5, budget)
        report = verify_depth(ctx5)
    except BudgetExceeded:
        report_line(11, "depth growth (n=5 SKIPPED)", t0)
        pytest.skip("n=5 exceeded its 15 minute budget; n<=4 passed")
    if report.skipped:
        report_line(11, "depth growth (n=5 SKIPPED)", t0)
        pytest.skip("n=5 exceeded its 15 minute budget; n<=4 passed")
    assert report.status == "PASSED" and report.witnesses[0]["depth"] == 4
    report_line(11, "depth growth", t0)


# -- 12: K collapse ---------------------------------------------------------------

def test_criterion_12_k_collapse(ma2_k):
    t0 = time.monotonic()
    for n in (3, 4):
        report = kprime_collapse(ma2_k, n)
        assert report.status == "PASSED", (n, report.counterexamples)
        witness = report.witnesses[0]
        assert witness["depth"] == 1
        b_prime = witness["b_prime"]
        assert b_prime[0] == "D" and all(v == "bD" for v in b_prime[1:])
    report_line(12, "K collapse", t0)


# -- 13: meet-semidistributivity ---------------------------------------------------

def test_criterion_13_sd_meet(ctx2, ctx3):
    t0 = time.monotonic()
    for ctx, expected in ((ctx2, 4), (ctx3, 8)):
        congs = congruence_lattice(ctx.system())
        assert len(congs) == expected
        sd, witness = is_meet_semidistributive(lattice_of_congruences(congs))
        assert sd and witness is None
    sd, witness = is_meet_semidistributive(m3_lattice())
    assert not sd and witness == (1, 2, 3)
    report_line(13, "meet semidistributivity", t0)


# -- 14: oracle equivalence ----------------------------------------------------------

def random_instance(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 61))
    arities = [1, 2] if size > 12 else [1, 2, 3]
    ops = []
    tables = []
    for k in arities:
        raw = rng.integers(0, size, size=size ** k)
        ops.append(table_op(f"f{k}", k, size, raw.tolist()))
        tables.append(raw.reshape((size,) * k))
    alg = FiniteAlgebra(size=size, ops=tuple(ops))
    a = int(rng.integers(0, size))
    b = int(rng.integers(0, size))
    return alg, tables, (a, b)


def test_criterion_14_oracle_equivalence(ctx2, ctx3):
    t0 = time.monotonic()
    for i in range(50):
        alg, tables, (a, b) = random_instance(1000 + i)
        theta = pair_depth_graph(translation_system(alg), a, b).congruence()
        labels = oracles.bucket_congruence(alg.size, tables, [(a, b)])
        assert theta.labels == labels, f"instance {i}"
    for ctx in (ctx2, ctx3):
        theta = pair_depth_graph(ctx.system(), ctx.a_id,
                                 ctx.zero_id).congruence()
        labels = oracles.bucket_congruence(
            ctx.subpower.size, oracles.subpower_op_values(ctx.subpower),
            [(ctx.a_id, ctx.zero_id)])
        assert theta.labels == labels
    report_line(14, "oracle equivalence", t0)


def test_principal_congruences_match_on_random_instances():
    """Every pair of criterion 14's instances against the bucket oracle."""
    for i in range(50):
        alg, tables, _ = random_instance(1000 + i)
        pairs = list(combinations(range(alg.size), 2))
        got = principal_congruences(translation_system(alg), pairs)
        for (x, y), theta in zip(pairs, got):
            assert theta.labels == oracles.bucket_congruence(
                alg.size, tables, [(x, y)]), (i, x, y)


# -- 15: determinism -----------------------------------------------------------------

def test_criterion_15_determinism(tmp_path):
    t0 = time.monotonic()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["verify", "--tm", HALTING, "--n", "2..4", "--seed", "5"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["pass"] is True and doc["skipped"] == 0
    assert len(doc["reports"]) == 26
    report_line(15, "determinism", t0)
