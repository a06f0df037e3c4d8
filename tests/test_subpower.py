import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from support import omission_subpower
from varietal.algebra import (
    DEFAULT_BUDGET, Budget, BudgetExceeded, Operation, TranslationStep)
from varietal import build_bn, compile_machine, subpower
from varietal.machine_algebra import witness_tuples
from varietal.subpower import (
    Subpower,
    _automaton,
    _build_automaton,
    _row_codes,
    _signatures,
    close_subpower,
    op_image,
    translation_maps,
)


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
def coded_rows(draw):
    """Row matrices over [0, radix) with radix from 1 to 2**56, so radix **
    width runs past 2**63 and the re-ranking runs, plus a block split and
    a code cap: none (int64 codes), or one below 2**31, which re-ranks
    codes past it and gives int32 codes while the cap, or the budget's
    larger max_signatures, times radix stays below 2**31."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    radix = draw(st.sampled_from([1, 2, 6, 255, 1024, 2 ** 20, 2 ** 40, 2 ** 56]))
    rows = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, radix - 1)))
    cap = draw(st.sampled_from([None, 1, 7, 2 ** 10, 2 ** 20, 2 ** 21 - 1, 2 ** 30]))
    return rows, radix, draw(st.integers(1, shape[0])), cap


@settings(max_examples=300, deadline=None)
@given(coded_rows())
@example((np.array([[2, 0, 7]], dtype=np.int64), 8, 1, None))
@example((np.array([[2], [0], [2], [5]], dtype=np.int64), 6, 3, None))
@example((np.array([[2 ** 40, 5], [0, 2 ** 40], [2 ** 40, 1]], dtype=np.int64),
          2 ** 40 + 1, 2, None))
@example((np.array([[2 ** 56, 0, 0], [0, 2 ** 56, 1], [0, 2 ** 56, 0]],
                   dtype=np.int64), 2 ** 56 + 1, 1, None))
# int32 codes at the cap: 1024 ** 2 codes fit a cap of 2 ** 20 exactly, and
# one less re-ranks the first column; 2 ** 21 - 1 is the largest cap with
# int32 codes at radix 1024, and three columns re-rank under it
@example((np.array([[1023, 1023], [0, 0], [1023, 1022], [1023, 1023]],
                   dtype=np.int64), 1024, 3, 2 ** 20))
@example((np.array([[1023, 1023], [0, 0], [1023, 1022], [1023, 1023]],
                   dtype=np.int64), 1024, 3, 2 ** 20 - 1))
@example((np.array([[1023, 1023, 1023], [1023, 1023, 1022], [0, 1023, 1023]],
                   dtype=np.int64), 1024, 2, 2 ** 21 - 1))
def test_row_codes_sort_and_dedupe_like_rows(case):
    rows, radix, step, cap = case

    def blocks():
        for lo in range(0, len(rows), step):
            yield lo, lambda c, lo=lo: rows[lo:lo + step, c]

    budget = Budget()
    if cap is None:
        _, coded = _row_codes(blocks, rows.shape[1], radix, budget)
    else:
        _, coded = _row_codes(blocks, rows.shape[1], radix, budget, cap)
    codes = np.concatenate([block for _, block in coded])
    # past a re-ranking, codes stay below radix times a length the budget caps
    narrow = cap is not None and max(cap, budget.max_signatures) * radix < 2 ** 31
    assert codes.dtype == (np.int32 if narrow else np.int64)
    assert codes.shape == (len(rows),)
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


def map_rows(table):
    return [tuple(row) for row in table.tolist()]


def test_translation_maps_match_oracle_full(ctx2, ctx3, looping_tm):
    # B_2, omission's C_2 and C_3 of B_3, and looping's B_3: subpowers
    # whose coordinates have different letter sets
    for sp in (ctx2.subpower, omission_subpower(ctx3, 2), omission_subpower(ctx3, 3),
               build_bn(compile_machine(looping_tm), 3).subpower):
        table, steps = translation_maps(sp)
        assert table.dtype == np.min_scalar_type(sp.size - 1) and table.flags.c_contiguous
        assert table.shape == (len(steps), sp.size)
        assert len(set(map_rows(table))) == len(steps)
        assert set(map_rows(table)) == oracles.subpower_translation_maps(sp)


def test_translation_maps_match_oracle_low_arity(ctx3):
    sp = ctx3.subpower
    low = [op.symbol for op in sp.base.ops if 1 <= op.arity <= 3]
    table, _ = translation_maps(sp, symbols=low)
    assert set(map_rows(table)) == \
        oracles.subpower_translation_maps(sp, symbols=low)


class BlockBudget(Budget):
    """Budget whose count checks never fire, so max_signatures only sets
    the block size of the automaton sweeps."""

    def check_signatures(self, count):
        pass


def reference_signatures(levels, elem_alpha):
    """_signatures by a pure-Python scan of the (signature, element) cells,
    plus the most signatures any level has."""
    rows = elem_alpha.tolist()
    sigs, wits, most = [(0,) * elem_alpha.shape[1]], [()], 1
    for delta in levels:
        first = {}
        for s, sig in enumerate(sigs):
            for e, row in enumerate(rows):
                cell = tuple(int(delta[q, a]) for q, a in zip(sig, row))
                first.setdefault(cell, (s, e))
        sigs, wits = list(first), [wits[s] + (e,) for s, e in first.values()]
        most = max(most, len(sigs))
    return sigs, wits, most


@st.composite
def signature_cases(draw):
    """Levels with 1-5 states over an alphabet of 2-3 letters, element rows
    over it, and a budget: unbounded, or blocks of 1-3 signature rows whose
    cells also cap the first-occurrence table (so most levels re-rank),
    with the caps enforced or not."""
    m = draw(st.integers(2, 3))
    states = [1] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    levels = [draw(hnp.arrays(np.int64, (states[j], m),
                              elements=st.integers(0, states[j + 1] - 1)))
              for j in range(len(states) - 1)]
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    elem_alpha = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, m - 1)))
    kind = draw(st.sampled_from([Budget, BlockBudget]))
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    budget = Budget() if rows is None else kind(max_signatures=rows * shape[0])
    return levels, elem_alpha, budget


@settings(max_examples=300, deadline=None)
@given(signature_cases())
@example(([np.array([[0, 1]]), np.array([[1, 0], [0, 0]])],
          np.array([[0, 1], [1, 1], [0, 1], [1, 0]]), BlockBudget(max_signatures=4)))
def test_signatures_match_a_cell_scan(case):
    levels, elem_alpha, budget = case
    want_sigs, want_wits, most = reference_signatures(levels, elem_alpha)
    try:
        sigs, wits = _signatures(levels, elem_alpha, budget)
    except BudgetExceeded as exc:
        # only an enforced cap below some level's signature count may stop it
        assert type(budget) is Budget and exc.what == "max_signatures"
        assert most > budget.max_signatures
        return
    assert list(map(tuple, sigs.tolist())) == want_sigs
    assert list(map(tuple, wits.tolist())) == want_wits


def with_generators(*ctxs):
    for ctx in ctxs:
        gens = [ctx.b[i] for i in range(1, ctx.n + 1)] + \
            [ctx.d[i] for i in range(2, ctx.n + 1)]
        yield ctx.subpower, gens


def test_automaton_sweeps_charge_one_row_before_building(ctx3, kctx3):
    for sp, gens in with_generators(ctx3, kctx3):
        with pytest.raises(BudgetExceeded) as info:
            translation_maps(sp, budget=Budget(max_signatures=sp.size - 1))
        assert info.value.what == "max_signatures"
        assert f"{sp.size} > {sp.size - 1}" in str(info.value)
        # the first closure round sweeps the generators themselves
        with pytest.raises(BudgetExceeded) as info:
            close_subpower(sp.base, sp.width, gens,
                           Budget(max_signatures=len(gens) - 1))
        assert info.value.what == "max_signatures"
        assert f"{len(gens)} > {len(gens) - 1}" in str(info.value)


def test_row_blocks_do_not_change_results(ctx3, ctx4, kctx3):
    for sp, gens in with_generators(ctx3, ctx4, kctx3):
        table, steps = translation_maps(sp)
        for rows in (1, 3):
            # closure rounds sweep smaller sets, so their blocks hold more rows
            budget = BlockBudget(max_signatures=rows * sp.size)
            got_table, got_steps = translation_maps(sp, budget=budget)
            assert np.array_equal(got_table, table) and got_steps == steps
            closed = close_subpower(sp.base, sp.width, gens, budget)
            assert closed.elements == sp.elements


def test_reranked_codes_do_not_change_results(monkeypatch, ma2, ctx3, kctx3):
    cases = list(with_generators(ctx3, kctx3))
    expected = [(translation_maps(sp),
                 close_subpower(sp.base, sp.width, gens).elements,
                 op_image(sp, "S2")) for sp, gens in cases]
    reranks = []
    distinct = subpower._distinct
    monkeypatch.setattr(subpower, "_distinct",
                        lambda codes: reranks.append(len(codes)) or distinct(codes))

    def check(budget_for):
        for (sp, gens), ((table, steps), elements, image) in zip(cases, expected):
            budget = budget_for(sp)
            got_table, got_steps = translation_maps(sp, budget=budget)
            assert np.array_equal(got_table, table) and got_steps == steps
            assert close_subpower(sp.base, sp.width, gens, budget).elements == elements
            assert op_image(sp, "S2", budget) == image

    # a first-occurrence table of at most one signature row's cells: every
    # level of _signatures whose radix ** width passes that re-ranks
    check(lambda sp: BlockBudget(max_signatures=sp.size))
    assert reranks
    # every column past the first now re-ranks its partial codes, and
    # every level's full codes are re-ranked for the table
    reranks.clear()
    monkeypatch.setattr(subpower, "_INT64_MAX", 1)
    check(lambda sp: Budget())
    assert reranks
    dd, bd = ma2.idx("D"), ma2.idx("bD")
    open_set = Subpower(base=ma2.algebra, width=2,
                        elements=((0, 0), (dd, dd), (dd, bd)))
    with pytest.raises(ValueError, match=rf"image \({dd}, 0\) of meet escapes"):
        translation_maps(open_set)


@pytest.mark.parametrize("cap", [13, 40, 100, 300, 700])
def test_signature_table_cap_holds_or_names_max_signatures(ctx3, kctx3, cap):
    """Below radix ** width a real budget still gives the same closure and
    translation system, or stops naming max_signatures; never a
    MemoryError.  Caps of 300 and up hold every level's signatures."""
    for sp, gens in with_generators(ctx3, kctx3):
        table, steps = translation_maps(sp)
        radix = max(int(level.max()) + 1
                    for aut in sp.base.automata.values() for level in aut.levels)
        assert cap < radix ** sp.width
        budget = Budget(max_signatures=cap)
        try:
            assert close_subpower(sp.base, sp.width, gens, budget).elements == sp.elements
            got_table, got_steps = translation_maps(sp, budget=budget)
            assert np.array_equal(got_table, table) and got_steps == steps
        except BudgetExceeded as exc:
            assert exc.what == "max_signatures" and cap < 300


def test_automata_are_built_once_per_algebra(monkeypatch, halting_tm):
    built = []
    build = subpower._build_automaton

    def counted(op, alphabet, argorder=None, budget=DEFAULT_BUDGET):
        built.append((op.symbol, alphabet, argorder))
        return build(op, alphabet, argorder, budget)

    monkeypatch.setattr(subpower, "_build_automaton", counted)
    ma = compile_machine(halting_tm)
    for n in range(2, 6):
        build_bn(ma, n).system()
    assert len(built) == len(set(built)) == len(ma.algebra.automata)
    assert set(built) == set(ma.algebra.automata)
    # the K-extended algebra has operations of the same symbols over the
    # same alphabet, and builds its own automata for them
    plain = set(built)
    built.clear()
    ma_k = compile_machine(halting_tm, with_k=True)
    build_bn(ma_k, 3).system()
    assert len(built) == len(set(built)) == len(ma_k.algebra.automata)
    assert plain & set(built)


def test_automaton_build_honours_an_expired_deadline(ctx3):
    # 14 ** 5 words of an arity-5 operation over 14 letters, each
    # evaluated in Python: the build checks the deadline between chunks
    alg = ctx3.subpower.base
    op = next(op for op in alg.ops if op.arity == 5)
    alphabet = tuple(range(ctx3.subpower.size))
    expired = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceeded) as info:
        _automaton(alg, op, alphabet, budget=expired)
    assert info.value.what == "max_seconds"
    assert (op.symbol, alphabet, tuple(range(5))) not in alg.automata


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


@pytest.fixture(scope="module", params=["halting", "halting-k", "three-state",
                                        "four-state", "halting C_2"])
def b2(request, ctx2, ma2_k, ma3, four_state_tm):
    """B_2 subpowers whose translation passes skip coinciding automata; the
    machines with R moves have more operations that can coincide.  B_2's
    coordinates have different letter sets ({0, D} and {0, D, bD}); its
    subalgebra C_2, which omission closes without d_2, has no bD."""
    return {"halting": lambda: ctx2.subpower,
            "halting-k": lambda: build_bn(ma2_k, 2).subpower,
            "three-state": lambda: build_bn(ma3, 2).subpower,
            "four-state": lambda: build_bn(compile_machine(four_state_tm), 2).subpower,
            "halting C_2": lambda: omission_subpower(ctx2, 2),
            }[request.param]()


def test_translation_witnesses_are_the_first_in_canonical_order(b2):
    # every translation in (operation, position, constants lexicographic)
    # order, on element ids: the first witness of each map wins,
    # and maps are listed in the order their first witnesses come
    sp = b2
    first = {}
    for op in sp.base.ops:
        for pos in range(op.arity):
            for consts in product(range(sp.size), repeat=op.arity - 1):
                image = tuple(sp.eval(op.symbol, consts[:pos] + (x,) + consts[pos:])
                              for x in range(sp.size))
                first.setdefault(image, TranslationStep(op.symbol, pos, consts))
    table, steps = translation_maps(sp)
    assert map_rows(table) == list(first)
    assert steps == list(first.values())


def test_translation_witnesses_reproduce_maps(b2):
    sp = b2
    table, steps = translation_maps(sp)
    for mp, step in zip(table.tolist(), steps):
        consts = step.constants
        assert len(consts) == sp.base.op(step.op).arity - 1
        for x in range(sp.size):
            args = consts[:step.position] + (x,) + consts[step.position:]
            assert sp.eval(step.op, args) == mp[x]


def test_equal_automata_are_swept_once_per_pass(monkeypatch, ma2, ctx3):
    # on {0, D, bD} eleven of the fifteen non-nullary operations are
    # constant 0, so most automata of a closure round or a translation
    # pass are copies of one swept before
    sweeps, rounds = [], []
    sweep, automaton = subpower._signatures, subpower._automaton

    def counted_sweep(*args):
        sweeps.append(args[0])
        return sweep(*args)

    def counted_automaton(base, op, *args, **kwargs):
        if op.symbol == "meet" and len(args) == 1:  # once a closure round
            rounds.append(op)
        return automaton(base, op, *args, **kwargs)

    monkeypatch.setattr(subpower, "_signatures", counted_sweep)
    monkeypatch.setattr(subpower, "_automaton", counted_automaton)
    build_bn(ma2, 3)
    assert len(rounds) == 3 and len(sweeps) == 8 * 3
    sweeps.clear()
    translation_maps(ctx3.subpower)
    assert len(sweeps) == 14


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


def test_eval_on_ids_agrees_with_tuples(ctx2, ma2):
    sp = ctx2.subpower
    for i, j in product(range(sp.size), repeat=2):
        raw = sp.eval_tuple("meet", (sp.elements[i], sp.elements[j]))
        assert sp.eval("meet", (i, j)) == sp.index[raw]
    for bad in ((0, sp.size), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            sp.eval("meet", bad)
    dd, bd = ma2.idx("D"), ma2.idx("bD")
    open_set = Subpower(base=ma2.algebra, width=2,
                        elements=((0, 0), (dd, dd), (dd, bd)))
    with pytest.raises(ValueError, match=rf"^meet image \({dd}, 0\) escapes the subuniverse$"):
        open_set.eval("meet", (1, 2))


def test_coordinate_alphabet(ctx2, ma2):
    assert ctx2.subpower.coordinate_alphabet() == tuple(
        sorted((0, ma2.idx("D"), ma2.idx("bD"))))


def test_non_closed_subpower_is_rejected(ma2):
    dd = ma2.idx("D")
    with pytest.raises(ValueError):
        Subpower(base=ma2.algebra, width=2, elements=((dd, 0),))
