import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from varietal.algebra import Budget, BudgetExceeded, Operation
from varietal.subpower import (
    Subpower,
    _build_automaton,
    _row_codes,
    close_subpower,
    op_image,
    translation_maps,
)
from varietal.witness import witness_tuples


def generators_for(ma, n):
    b, d, _ = witness_tuples(ma, n)
    return [b[i] for i in range(1, n + 1)] + [d[i] for i in range(2, n + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_closure_matches_naive_oracle(ma2, n):
    sp = close_subpower(ma2.algebra, n, generators_for(ma2, n))
    expected = oracles.naive_closure(ma2.algebra, n, generators_for(ma2, n))
    assert list(sp.elements) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_k_closure_matches_naive_oracle(ma2_k, n):
    gens = generators_for(ma2_k, n)
    sp = close_subpower(ma2_k.algebra, n, gens)
    assert list(sp.elements) == oracles.naive_closure(ma2_k.algebra, n, gens)


@st.composite
def int64_rows(draw):
    """Row matrices whose values span from a few to all int64 values, so
    radix ** width runs past 2**63 and both re-ranking steps run."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    bound = draw(st.sampled_from([1, 2, 6, 255, 2 ** 20, 2 ** 40, 2 ** 62]))
    low = draw(st.sampled_from([0, -bound, -2 ** 63]))
    values = st.integers(low, bound if low > -2 ** 63 else 2 ** 63 - 1)
    return draw(hnp.arrays(np.int64, shape, elements=values))


@settings(max_examples=300, deadline=None)
@given(int64_rows())
@example(np.array([[3, -1, 7]], dtype=np.int64))
@example(np.array([[2], [0], [2], [-5]], dtype=np.int64))
@example(np.array([[2 ** 40, 5], [0, 2 ** 40], [2 ** 40, 1]], dtype=np.int64))
@example(np.array([[2 ** 62, 0, 0], [0, 2 ** 62, 1], [0, 2 ** 62, 0]],
                  dtype=np.int64))
def test_row_codes_sort_and_dedupe_like_rows(rows):
    codes = _row_codes(rows)
    assert codes.dtype == np.int64 and codes.shape == (len(rows),)
    got = np.unique(codes, return_index=True)[1]
    want = np.unique(rows, axis=0, return_index=True)[1]
    assert got.tolist() == want.tolist()


def test_closure_is_sorted_and_deduped(ctx2):
    elems = ctx2.subpower.elements
    assert list(elems) == sorted(set(elems))
    assert ctx2.subpower.size == len(elems)


def test_closure_input_validation(ma2):
    with pytest.raises(ValueError):
        close_subpower(ma2.algebra, 2, [])
    with pytest.raises(ValueError):
        close_subpower(ma2.algebra, 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        close_subpower(ma2.algebra, 2, [(0, ma2.algebra.size)])


def test_closure_respects_budget(ma2):
    with pytest.raises(BudgetExceeded):
        close_subpower(ma2.algebra, 4, generators_for(ma2, 4),
                       Budget(max_elements=5))


def test_op_image_matches_bruteforce(ctx2):
    sp = ctx2.subpower
    for op in sp.base.ops:
        if op.arity == 0:
            expected = {(op.func(),) * sp.width}
        else:
            expected = {
                sp.eval_tuple(op.symbol, args)
                for args in product(sp.elements, repeat=op.arity)
            }
        assert op_image(sp, op.symbol) == expected, op.symbol


def test_translation_maps_match_oracle_full(ctx2):
    sp = ctx2.subpower
    maps, steps = translation_maps(sp)
    assert len(maps) == len(steps) == len(set(maps))
    assert set(maps) == oracles.subpower_translation_maps(sp)


def test_translation_maps_match_oracle_low_arity(ctx3):
    sp = ctx3.subpower
    low = [op.symbol for op in sp.base.ops if 1 <= op.arity <= 3]
    maps, _ = translation_maps(sp, symbols=low)
    assert set(maps) == oracles.subpower_translation_maps(sp, symbols=low)


def test_translation_maps_honour_an_expired_deadline(ctx2):
    expired = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceeded) as info:
        translation_maps(ctx2.subpower, budget=expired)
    assert info.value.what == "max_seconds"


def test_translation_image_escaping_a_non_closed_set_is_named(ma2):
    dd, bd = ma2.idx("D"), ma2.idx("bD")
    sp = Subpower(base=ma2.algebra, width=2,
                  elements=((0, 0), (dd, dd), (dd, bd)))
    with pytest.raises(ValueError, match=rf"image \({dd}, 0\) of meet escapes"):
        translation_maps(sp)


def test_translation_witnesses_reproduce_maps(ctx2):
    sp = ctx2.subpower
    maps, steps = translation_maps(sp)
    for mp, step in zip(maps, steps):
        consts = step.constants
        assert len(consts) == sp.base.op(step.op).arity - 1
        for x in range(sp.size):
            args = consts[:step.position] + (x,) + consts[step.position:]
            assert sp.algebra.eval(step.op, args) == mp[x]


def test_automaton_respects_argorder():
    op = Operation("f", 3, lambda x, y, z: (x * 9 + y * 3 + z) % 5 % 3)
    alphabet = (0, 1, 2)
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        aut = _build_automaton(op, alphabet, order)
        for word in product(range(3), repeat=3):
            state = 0
            for level, letter in zip(aut.levels, word):
                state = int(level[state, letter])
            args = [0, 0, 0]
            for i, pos in enumerate(order):
                args[pos] = alphabet[word[i]]
            assert int(aut.values[state]) == op.func(*args)


def test_automaton_rejects_nullary_and_blowup():
    with pytest.raises(ValueError):
        _build_automaton(Operation("c", 0, lambda: 0), (0, 1))
    wide = Operation("w", 8, lambda *a: 0)
    with pytest.raises(BudgetExceeded):
        _build_automaton(wide, tuple(range(20)))


def test_induced_algebra_agrees_with_tuples(ctx2):
    sp = ctx2.subpower
    assert sp.algebra.zero == sp.index[(0, 0)]
    for i, j in product(range(sp.size), repeat=2):
        raw = sp.eval_tuple("meet", (sp.elements[i], sp.elements[j]))
        assert sp.algebra.eval("meet", (i, j)) == sp.index[raw]


def test_coordinate_alphabet(ctx2, ma2):
    assert ctx2.subpower.coordinate_alphabet() == tuple(
        sorted((0, ma2.idx("D"), ma2.idx("bD"))))


def test_non_closed_subpower_is_rejected(ma2):
    dd = ma2.idx("D")
    with pytest.raises(ValueError):
        Subpower(base=ma2.algebra, width=2, elements=((dd, 0),))
