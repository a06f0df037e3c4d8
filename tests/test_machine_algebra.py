from itertools import product

import numpy as np
import pytest

import altops
from conftest import FIXTURES
from support import bar, eval_op, flat_leq, monotonicity_report
from varietal import cli
from varietal.machine_algebra import (
    _np_table,
    compile_machine,
    vector_evaluator,
)


def ev(ma, symbol, *args):
    return ma.names[eval_op(ma.algebra, symbol, [ma.idx(a) for a in args])]


# -- universe ----------------------------------------------------------------

def test_universe_sizes(ma2, ma3, four_state_tm):
    assert ma2.size == 48
    assert ma3.size == 68
    assert compile_machine(four_state_tm).size == 88


def test_canonical_element_order(ma2):
    assert ma2.names[:8] == ("0", "1", "2", "H", "C", "D", "bC", "bD")
    assert ma2.names[8:12] == ("C[0,0]^0", "bC[0,0]^0", "C[0,0]^1", "bC[0,0]^1")
    assert ma2.names[24:28] == ("M[0]^0", "bM[0]^0", "M[0]^1", "bM[0]^1")
    # state blocks are contiguous: all 20 state-0 cells before state-1 cells
    state_of = [el.state for el in ma2.elements if el.family == "cell"]
    assert state_of == sorted(state_of)


def test_name_roundtrip(ma2, ma3, ma2_k):
    # Element.name() is the one name grammar: names are distinct, and idx
    # is their inverse
    for ma in (ma2, ma3, ma2_k):
        assert ma.names == tuple(el.name() for el in ma.elements)
        assert len(set(ma.names)) == ma.size
        for i, name in enumerate(ma.names):
            assert ma.idx(name) == i
        for bad in ("", "Q", "C[0,2]^0", "M[1]", "bbC", "C[0,0]", "D[x,0]^1"):
            with pytest.raises(KeyError):
                ma.idx(bad)


def test_bar_involution(ma2):
    assert bar(ma2, ma2.idx("bC")) == ma2.idx("C")
    assert bar(ma2, ma2.idx("C")) == ma2.idx("bC")
    assert ma2.names[bar(ma2, ma2.idx("M[1]^0"))] == "bM[1]^0"
    for x in range(ma2.size):
        if ma2.bar_index[x] >= 0:
            assert bar(ma2, bar(ma2, x)) == x
            assert bar(ma2, x) != x
    for undefined in ("0", "1", "2", "H"):
        with pytest.raises(ValueError):
            bar(ma2, ma2.idx(undefined))


def test_flat_order(ma2):
    d = ma2.idx("D")
    assert flat_leq(0, d) and flat_leq(d, d)
    assert not flat_leq(d, ma2.idx("C")) and not flat_leq(d, 0)


def test_head_precedence(ma2):
    one, two, h = ma2.idx("1"), ma2.idx("2"), ma2.idx("H")
    assert ma2.prec(two, two) and ma2.prec(two, h) and ma2.prec(one, one)
    assert not ma2.prec(h, two) and not ma2.prec(one, two)
    assert not ma2.prec(two, one) and not ma2.prec(h, h)
    assert not ma2.prec(ma2.idx("D"), ma2.idx("D"))


# -- operation inventory -----------------------------------------------------

def test_operation_order(ma2, ma2_k, ma3):
    assert [op.symbol for op in ma2.algebra.ops] == [
        "zero", "meet", "mul", "J", "J'", "S0", "S1", "S2", "T", "I",
        "L[1,0,0]", "L[1,0,1]",
        "U1_L[1,0,0]", "U0_L[1,0,0]", "U1_L[1,0,1]", "U0_L[1,0,1]"]
    assert [op.symbol for op in ma2_k.algebra.ops][-1] == "K"
    symbols3 = [op.symbol for op in ma3.algebra.ops]
    assert "L[2,1,0]" in symbols3 and "R[1,0,1]" in symbols3
    assert symbols3.index("L[2,1,1]") < symbols3.index("R[1,0,0]")
    assert "K" not in symbols3


# -- frozen case examples ----------------------------------------------------

def test_meet_cases(ma2):
    assert ev(ma2, "meet", "D", "D") == "D"
    assert ev(ma2, "meet", "D", "C") == "0"
    assert ev(ma2, "meet", "0", "D") == "0"


def test_mul_cases(ma2):
    assert ev(ma2, "mul", "2", "D") == "D"
    assert ev(ma2, "mul", "H", "C") == "D"
    assert ev(ma2, "mul", "1", "C") == "C"
    assert ev(ma2, "mul", "2", "bD") == "bD"
    assert ev(ma2, "mul", "H", "bC") == "bD"
    assert ev(ma2, "mul", "1", "bC") == "bC"
    assert ev(ma2, "mul", "D", "2") == "0"
    assert ev(ma2, "mul", "1", "D") == "0"
    assert ev(ma2, "mul", "H", "D") == "0"


def test_selector_cases(ma2):
    assert ev(ma2, "J", "D", "D", "C") == "D"
    assert ev(ma2, "J", "D", "bD", "D") == "D"
    assert ev(ma2, "J", "D", "bD", "C") == "0"
    assert ev(ma2, "J", "D", "bD", "0") == "0"
    assert ev(ma2, "J", "D", "C", "D") == "0"

    assert ev(ma2, "J'", "D", "bD", "C") == "D"
    assert ev(ma2, "J'", "D", "bD", "0") == "D"
    assert ev(ma2, "J'", "D", "D", "D") == "D"
    assert ev(ma2, "J'", "D", "D", "C") == "0"
    assert ev(ma2, "J'", "D", "C", "D") == "0"


def test_spreading_cases(ma2):
    assert ev(ma2, "S2", "D", "bD", "D", "D", "C") == "D"
    assert ev(ma2, "S2", "D", "bD", "D", "C", "D") == "D"
    assert ev(ma2, "S2", "D", "bD", "D", "C", "C") == "0"
    assert ev(ma2, "S2", "bD", "D", "C", "C", "0") == "C"
    assert ev(ma2, "S2", "1", "2", "D", "D", "D") == "0"
    assert ev(ma2, "S2", "D", "D", "D", "D", "D") == "0"

    assert ev(ma2, "S1", "1", "D", "D", "C") == "D"
    assert ev(ma2, "S1", "2", "C", "0", "C") == "C"
    assert ev(ma2, "S1", "D", "D", "D", "D") == "0"
    assert ev(ma2, "S1", "H", "D", "D", "D") == "0"

    assert ev(ma2, "S0", "C[0,0]^0", "D", "D", "C") == "D"
    assert ev(ma2, "S0", "M[0]^1", "C", "C", "C") == "C"
    assert ev(ma2, "S0", "C[1,0]^0", "D", "D", "D") == "0"
    assert ev(ma2, "S0", "1", "D", "D", "D") == "0"


def test_pairing_cases(ma2):
    assert ev(ma2, "T", "2", "D", "2", "D") == "D"
    assert ev(ma2, "T", "2", "D", "H", "C") == "bD"
    assert ev(ma2, "T", "H", "C", "2", "D") == "bD"
    assert ev(ma2, "T", "1", "C", "2", "D") == "0"
    assert ev(ma2, "T", "1", "C", "1", "C") == "C"
    assert ev(ma2, "T", "D", "D", "D", "D") == "0"


def test_seed_cases(ma2):
    assert ev(ma2, "I", "1") == "C[1,0]^0"
    assert ev(ma2, "I", "H") == "M[1]^0"
    assert ev(ma2, "I", "2") == "D[1,0]^0"
    assert ev(ma2, "I", "D") == "0"
    assert ev(ma2, "I", "0") == "0"


def test_left_move_cases(ma2):
    # instruction: state 1 reading 0 writes 0, moves L, enters state 0
    for t in (0, 1):
        sym = f"L[1,0,{t}]"
        assert ev(ma2, sym, "2", "H", "M[1]^0") == f"D[0,{t}]^0"
        assert ev(ma2, sym, "1", "1", "C[1,0]^0") == f"C[0,{t}]^0"
        assert ev(ma2, sym, "1", "1", "C[1,0]^1") == f"C[0,{t}]^1"
        assert ev(ma2, sym, "H", "1", f"C[1,0]^{t}") == f"M[0]^{t}"
        assert ev(ma2, sym, "2", "2", "D[1,0]^1") == f"D[0,{t}]^1"
        # barred arguments propagate the bar
        assert ev(ma2, sym, "1", "1", "bC[1,0]^0") == f"bC[0,{t}]^0"
        assert ev(ma2, sym, "2", "H", "bM[1]^0") == f"bD[0,{t}]^0"
        # off-pattern arguments collapse to zero
        assert ev(ma2, sym, "2", "H", "M[0]^0") == "0"
        assert ev(ma2, sym, "H", "1", f"C[1,0]^{1 - t}") == "0"
        assert ev(ma2, sym, "1", "2", "C[1,0]^0") == "0"
        assert ev(ma2, sym, "D", "D", "C[1,0]^0") == "0"


def test_right_move_cases(ma3):
    # instruction: state 1 reading 0 writes 1, moves R, enters state 2
    for t in (0, 1):
        sym = f"R[1,0,{t}]"
        assert ev(ma3, sym, "H", "1", "M[1]^0") == f"C[2,{t}]^1"
        assert ev(ma3, sym, "2", "H", f"D[1,0]^{t}") == f"M[2]^{t}"
        assert ev(ma3, sym, "1", "1", "C[1,0]^0") == f"C[2,{t}]^0"
        assert ev(ma3, sym, "2", "2", "D[1,0]^1") == f"D[2,{t}]^1"
        assert ev(ma3, sym, "H", "1", "bM[1]^0") == f"bC[2,{t}]^1"
        assert ev(ma3, sym, "2", "H", f"D[1,0]^{1 - t}") == "0"
        assert ev(ma3, sym, "H", "1", "M[2]^0") == "0"


def test_gated_move_cases(ma2):
    assert ev(ma2, "U1_L[1,0,0]", "2", "H", "H", "M[1]^0") == "D[0,0]^0"
    assert ev(ma2, "U1_L[1,0,0]", "2", "H", "2", "M[1]^0") == "bD[0,0]^0"
    assert ev(ma2, "U1_L[1,0,0]", "1", "1", "1", "C[1,0]^0") == "C[0,0]^0"
    assert ev(ma2, "U1_L[1,0,0]", "H", "1", "1", "C[1,0]^0") == "0"
    assert ev(ma2, "U1_L[1,0,0]", "2", "2", "H", "D[1,0]^0") == "bD[0,0]^0"

    assert ev(ma2, "U0_L[1,0,0]", "2", "2", "H", "M[1]^0") == "D[0,0]^0"
    assert ev(ma2, "U0_L[1,0,0]", "1", "H", "1", "C[1,0]^0") == "bM[0]^0"
    assert ev(ma2, "U0_L[1,0,0]", "1", "1", "1", "C[1,0]^0") == "C[0,0]^0"
    assert ev(ma2, "U0_L[1,0,0]", "2", "H", "H", "M[1]^0") == "0"
    assert ev(ma2, "U0_L[1,0,0]", "H", "2", "2", "M[1]^0") == "0"


def test_collapse_cases(ma2_k):
    assert ev(ma2_k, "K", "D", "bD", "C") == "bD"
    assert ev(ma2_k, "K", "bD", "D", "0") == "D"
    assert ev(ma2_k, "K", "D", "D", "bD") == "bD"
    assert ev(ma2_k, "K", "D", "D", "D") == "D"
    assert ev(ma2_k, "K", "D", "C", "D") == "0"
    assert ev(ma2_k, "K", "1", "1", "1") == "1"
    assert ev(ma2_k, "K", "D", "D", "C") == "0"


# -- exhaustive agreement with the independent case evaluators ---------------

def test_meet_mul_tables_match_altops(ma2):
    names = ma2.names
    for x, y in product(range(ma2.size), repeat=2):
        assert names[eval_op(ma2.algebra, "meet", (x, y))] == \
            altops.alt_meet(names[x], names[y])
        assert names[eval_op(ma2.algebra, "mul", (x, y))] == \
            altops.alt_mul(names[x], names[y])


def test_selector_tables_match_altops(ma2, ma2_k):
    names = ma2.names
    j_op = ma2.algebra.op("J").func
    jp_op = ma2.algebra.op("J'").func
    k_op = ma2_k.algebra.op("K").func
    for x, y, z in product(range(ma2.size), repeat=3):
        assert names[j_op(x, y, z)] == altops.alt_j(names[x], names[y], names[z])
        assert names[jp_op(x, y, z)] == \
            altops.alt_jprime(names[x], names[y], names[z])
        assert names[k_op(x, y, z)] == altops.alt_k(names[x], names[y], names[z])


@pytest.mark.parametrize("fixture", ["ma2", "ma3"])
def test_move_tables_match_altops(request, fixture):
    """Every cell of the dense table of every L and R operation."""
    ma = request.getfixturevalue(fixture)
    names = ma.names
    moves = 0
    for ins in ma.machine.sorted_instructions():
        for t in (0, 1):
            sym = f"{ins.direction}[{ins.state},{ins.read},{t}]"
            got = [names[v] for v in _np_table(ma, sym).ravel().tolist()]
            want = [altops.alt_move(ins.direction, ins.state, ins.read,
                                    ins.write, ins.next_state, t, x, y, u)
                    for x, y, u in product(names, repeat=3)]
            assert got == want, sym
            moves += 1
    assert moves == 2 * len(ma.machine.sorted_instructions())


def test_bar_name_helper_matches(ma2):
    for i, name in enumerate(ma2.names):
        twin = altops.bar_name(name)
        if ma2.bar_index[i] >= 0:
            assert twin == ma2.names[ma2.bar_index[i]]
        else:
            assert twin is None


# -- closure facts -----------------------------------------------------------

def test_zero_d_is_a_subalgebra(ma2):
    sub = {0, ma2.idx("D")}
    for op in ma2.algebra.ops:
        for args in product(sub, repeat=op.arity):
            assert op.func(*args) in sub, op.symbol


def test_every_op_fixes_zero_everywhere(ma2):
    # argument positions at which a 0 argument forces the value 0, by
    # operation family (moves L/R and their U1_/U0_ lifts share one)
    absorbing = {"meet": (0, 1), "mul": (0, 1), "J": (0, 1), "J'": (0, 1),
                 "S0": (0, 1), "S1": (0, 1), "S2": (0, 1, 2),
                 "T": (0, 1, 2, 3), "I": (0,), "L": (0, 1, 2),
                 "R": (0, 1, 2), "U1": (0, 1, 2, 3), "U0": (0, 1, 2, 3)}
    for op in ma2.algebra.ops:
        family = op.symbol.split("[")[0].split("_")[0]
        if op.arity:
            assert family in absorbing, op.symbol
        for pos in absorbing.get(family, ()):
            args = [ma2.idx("D")] * op.arity
            args[pos] = 0
            assert op.func(*args) == 0, (op.symbol, pos)


# -- bulk evaluation ----------------------------------------------------------

def test_vector_evaluator_matches_scalar(ma2):
    rng = np.random.default_rng(7)
    for op in ma2.algebra.ops:
        if op.arity == 0:
            continue
        ev_fn = vector_evaluator(ma2, op.symbol)
        args = rng.integers(0, ma2.size, size=(op.arity, 300))
        got = ev_fn(*args)
        expected = np.asarray([op.func(*args[:, i]) for i in range(300)])
        assert np.array_equal(got, expected), op.symbol


def test_tables_are_filled_on_demand_by_the_case_rules(ma2, ma2_k, ma3,
                                                       monkeypatch, capsys):
    # the fill visits only the argument regions that can be nonzero; no
    # other reader of the operations checks those regions
    for ma in (ma2, ma2_k, ma3):
        for op in ma.algebra.ops:
            if 1 <= op.arity <= 3:
                table = _np_table(ma, op.symbol)
                cells = np.frompyfunc(op.func, op.arity, 1)(*np.indices(table.shape))
                assert np.array_equal(table, cells.astype(np.int64)), op.symbol
    made = []

    def recording(*args, **kwargs):
        made.append(compile_machine(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "compile_machine", recording)
    halting = str(FIXTURES / "halting.tm")
    for argv in (["depth", "--n", "2..3"], ["sd-meet", "--n", "2..3"],
                 ["bn", "build", "--with-k", "--n", "2..3"]):
        assert cli.main([*argv, "--tm", halting]) == 0
    capsys.readouterr()
    assert [ma._tables for ma in made] == [{}, {}, {}]


def test_monotonicity_report(ma2):
    report = monotonicity_report(ma2, samples=50_000, seed=3)
    assert report["pass"] is True
    assert {c["op"] for c in report["ops"]} == \
        {op.symbol for op in ma2.algebra.ops if op.arity > 0}
    assert all(c["violations"] == 0 for c in report["ops"])
    modes = {c["op"]: c["mode"] for c in report["ops"]}
    assert modes["J"] == "exhaustive"
    assert modes["S2"] == "sampled+boundary"


def test_monotonicity_catches_a_violation(halting_tm):
    ma = compile_machine(halting_tm)
    _np_table(ma, "I")  # tables are filled on demand
    raw = bytearray(ma._tables["I"])
    raw[0] = ma.idx("C")  # f(0) != 0 breaks 0 <= x => f(0) <= f(x)
    ma._tables["I"] = bytes(raw)
    report = monotonicity_report(ma, samples=1_000, seed=0)
    assert report["pass"] is False
    per_op = {c["op"]: c["violations"] for c in report["ops"]}
    assert per_op["I"] > 0
    assert per_op["meet"] == 0
