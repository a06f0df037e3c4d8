import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from support import equiv_join, equiv_meet, lattice_join, lattice_meet, \
    spanning_pairs, table_op
from varietal import build_bn, compile_machine, lattice
from varietal.algebra import Budget, BudgetExceeded, FiniteAlgebra
from varietal.depth import principal_congruences, translation_system
from varietal.lattice import (
    Lattice,
    congruence_lattice,
    is_meet_semidistributive,
    lattice_of_congruences,
    m3_lattice,
)


@pytest.fixture(scope="module")
def con_b2(ctx2):
    return congruence_lattice(ctx2.system())


@pytest.fixture(scope="module")
def con_b3(ctx3):
    return congruence_lattice(ctx3.system())


@pytest.mark.parametrize("fixture, n", [("halting", n) for n in range(2, 6)]
                         + [("looping", n) for n in range(2, 5)])
def test_con_bn_is_the_projection_kernels(fixture, n, halting_tm, looping_tm):
    """Con(B_n) is the 2^n kernels ker pi_S, S a set of coordinates, all
    distinct; the oracle groups elements on S and shares no code with the
    package."""
    tm = {"halting": halting_tm, "looping": looping_tm}[fixture]
    ctx = build_bn(compile_machine(tm), n)
    kernels = oracles.projection_kernels(ctx.subpower)
    assert len(kernels) == 2 ** n
    assert [tuple(c.least.tolist()) for c in congruence_lattice(ctx.system())] \
        == kernels


def test_con_b2_contents(ctx2, con_b2):
    assert len(con_b2) == 4
    assert sorted(c.num_blocks for c in con_b2) == [1, 2, 3, 6]
    op_values = oracles.subpower_op_values(ctx2.subpower)
    for cong in con_b2:
        assert_compatible(op_values, cong)
    # the atom glues each pair that differs only in the first coordinate
    atom = next(c for c in con_b2 if c.num_blocks == 3)
    sp = ctx2.subpower
    dd = ctx2.algebra.idx("D")
    for x, y in combinations(range(sp.size), 2):
        tx, ty = sp.elements[x], sp.elements[y]
        glued = tx[1:] == ty[1:] and {tx[0], ty[0]} == {0, dd}
        assert atom.relates(x, y) == glued


def test_con_b2_is_closed_under_meet_and_join(con_b2):
    congs = set(con_b2)
    for a, b in product(con_b2, repeat=2):
        assert equiv_meet(a, b) in congs
        assert equiv_join(a, b) in congs


def assert_compatible(op_values, cong):
    """Changing one related argument never moves the value across blocks.
    Spanning pairs suffice: full blocks follow by transitivity."""
    lab = cong.least
    for vals in op_values:
        blocks_of_vals = lab[vals]
        for axis in range(vals.ndim):
            rolled = np.moveaxis(blocks_of_vals, axis, 0)
            for a, b in spanning_pairs(cong):
                assert np.array_equal(rolled[a], rolled[b])


def test_con_b3_size(con_b3, b3_op_values):
    assert len(con_b3) == 8
    for cong in con_b3:
        assert_compatible(b3_op_values, cong)


def test_lattice_joins_match_generated_congruences(ctx3, con_b3, b3_op_values):
    """The lattice joins by equivalence closure; the oracle's congruence
    generated by both spanning-pair lists is the same."""
    for theta, psi in product(con_b3, repeat=2):
        seeds = spanning_pairs(theta) + spanning_pairs(psi)
        assert tuple(equiv_join(theta, psi).least.tolist()) == oracles.bucket_congruence(
            ctx3.subpower.size, b3_op_values, seeds)


def test_congruence_lattices_are_meet_semidistributive(con_b2, con_b3):
    for congs in (con_b2, con_b3):
        sd, witness = is_meet_semidistributive(lattice_of_congruences(congs))
        assert sd and witness is None


def test_lattice_axioms(con_b3):
    lat = lattice_of_congruences(con_b3)
    for x in range(lat.size):
        assert lattice_join(lat, x, x) == x and lattice_meet(lat, x, x) == x
        for y in range(lat.size):
            assert lattice_join(lat, x, y) == lattice_join(lat, y, x)
            assert lattice_meet(lat, x, y) == lattice_meet(lat, y, x)
            assert lattice_meet(lat, x, lattice_join(lat, x, y)) == x
            assert lattice_join(lat, x, lattice_meet(lat, x, y)) == x


def test_m3_fails_meet_semidistributivity():
    lat = m3_lattice()
    sd, witness = is_meet_semidistributive(lat)
    assert not sd
    assert witness == (1, 2, 3)
    a, b, c = witness
    assert lattice_meet(lat, a, b) == lattice_meet(lat, a, c) == 0
    assert lattice_meet(lat, a, lattice_join(lat, b, c)) == a


def test_from_order_rejects_non_lattices():
    # two maximal elements: no upper bound for the pair
    leq = [[True, True, True], [False, True, False], [False, False, True]]
    with pytest.raises(ValueError):
        Lattice.from_order(leq)
    # four-element "bowtie": two bottoms, two tops, no least upper bound
    leq4 = [[x == y or (x < 2 and y >= 2) for y in range(4)] for x in range(4)]
    with pytest.raises(ValueError):
        Lattice.from_order(leq4)


def test_chain_is_a_lattice():
    leq = [[x <= y for y in range(4)] for x in range(4)]
    lat = Lattice.from_order(leq)
    assert lattice_join(lat, 1, 2) == 2 and lattice_meet(lat, 1, 2) == 1
    sd, _ = is_meet_semidistributive(lat)
    assert sd


def brute_force_tables(leq):
    """Join and meet tables by scanning every pair's bounds, or None when
    some pair has no least upper or greatest lower bound."""
    n = len(leq)
    tables = []
    for above in (lambda x, z: leq[x][z], lambda x, z: leq[z][x]):
        table = []
        for x in range(n):
            row = []
            for y in range(n):
                bounds = [z for z in range(n) if above(x, z) and above(y, z)]
                least = [z for z in bounds if all(above(z, w) for w in bounds)]
                if not least:
                    return None
                row.append(least[0])
            table.append(row)
        tables.append(table)
    return tables


@st.composite
def subset_orders(draw):
    """Families of distinct subsets of a 4-element set, in random order,
    ordered by inclusion; half of them get the empty and the full set."""
    family = draw(st.lists(st.integers(0, 15), min_size=1, max_size=12,
                           unique=True))
    if draw(st.booleans()):
        family = list(dict.fromkeys([*family, 0, 15]))
    return [[x & y == x for y in family] for x in family]


@settings(max_examples=300, deadline=None)
@given(subset_orders())
def test_from_order_matches_brute_force(leq):
    expected = brute_force_tables(leq)
    if expected is None:
        with pytest.raises(ValueError):
            Lattice.from_order(leq)
        return
    lat = Lattice.from_order(leq)
    assert [lat.join_table.tolist(), lat.meet_table.tolist()] == expected
    n = len(leq)
    bottom = next(x for x in range(n) if all(leq[x]))
    top = next(x for x in range(n) if all(row[x] for row in leq))
    assert lattice_join(lat, bottom, top) == top
    assert lattice_meet(lat, bottom, top) == bottom


# -- all of Con(A) against the partition oracle --------------------------------

def random_algebra(seed):
    """Up to 7 elements and one to three operations of arity 0 to 3.  Every
    other algebra keeps a random partition compatible (each value drawn
    from the block that a block-level table picks), so its lattice is more
    than the identity and the full relation."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 8))
    blocks = rng.integers(0, min(3, size), size=size) if seed % 2 else np.arange(size)
    ops = []
    for i, k in enumerate(rng.integers(0, 4, size=int(rng.integers(1, 4)))):
        k = int(k)
        args = np.indices((size,) * k).reshape(k, size ** k)
        codes = np.zeros(args.shape[1], dtype=np.int64)
        for column in args:
            codes = codes * size + blocks[column]
        targets = rng.integers(0, size, size=size ** k)[codes]
        values = [int(rng.choice(np.flatnonzero(blocks == blocks[t])))
                  for t in targets]
        ops.append(table_op(f"f{i}", k, size, values))
    return FiniteAlgebra(size=size, ops=tuple(ops))


def assert_lattice_matches_oracle(alg):
    got = [tuple(c.least.tolist()) for c in congruence_lattice(translation_system(alg))]
    assert got == oracles.naive_congruences(alg.size,
                                            oracles.algebra_op_values(alg))
    return got


def test_congruence_lattices_of_random_algebras_match_the_partition_oracle():
    t0 = time.monotonic()
    sizes = [len(assert_lattice_matches_oracle(random_algebra(seed)))
             for seed in range(30)]
    assert max(sizes) > 2          # some lattice is more than a chain 0 < 1
    assert time.monotonic() - t0 < 3


def test_congruence_lattice_edge_cases_match_the_partition_oracle():
    unary = [table_op("s", 1, 4, [1, 0, 3, 2]), table_op("z", 1, 4, [0, 0, 2, 2])]
    cases = [
        FiniteAlgebra(size=1, ops=()),
        FiniteAlgebra(size=2, ops=(table_op("m", 2, 2, [0, 0, 0, 1]),)),
        FiniteAlgebra(size=3, ops=()),
        FiniteAlgebra(size=4, ops=tuple(unary)),
    ]
    got = [assert_lattice_matches_oracle(alg) for alg in cases]
    assert got[0] == [(0,)]
    assert got[1] == [(0, 0), (0, 1)]
    assert len(got[2]) == 5         # every partition of 3 elements


# -- budgets and the meet check of the batched closure -------------------------

def test_congruence_lattice_honours_an_expired_deadline(ctx3, monkeypatch):
    system = ctx3.system()
    with pytest.raises(BudgetExceeded) as exc:
        congruence_lattice(system, budget=Budget(deadline=time.monotonic() - 1))
    assert exc.value.what == "max_seconds"

    # the deadline passes after the principal pass: the join blocks see it
    real = lattice.principal_congruences

    def then_expire(system, pairs, *, budget):
        out = real(system, pairs, budget=budget)
        budget.deadline = time.monotonic() - 1
        return out

    monkeypatch.setattr(lattice, "principal_congruences", then_expire)
    with pytest.raises(BudgetExceeded) as exc:
        congruence_lattice(system, budget=Budget(deadline=time.monotonic() + 60))
    assert exc.value.what == "max_seconds"


def test_a_label_row_over_the_cell_cap_is_refused_before_any_block(
        monkeypatch):
    """One translation map (the identity) on five elements: every block of
    the pair pass, at one cell a pair, fits a cap of size - 1 cells, so it
    is the lattice's own label rows, of size cells, that go over it."""
    size = 5
    system = translation_system(FiniteAlgebra(
        size, (table_op("id", 1, size, range(size)),)))
    assert len(system.table) == 1
    calls = []
    for name in ("_generated", "_meets"):
        real = getattr(lattice, name)
        monkeypatch.setattr(lattice, name,
                            lambda *a, _real=real: calls.append(a) or _real(*a))
    with pytest.raises(BudgetExceeded) as exc:
        congruence_lattice(system, budget=Budget(max_signatures=size - 1))
    assert exc.value.what == "max_signatures" and calls == []
    assert str(exc.value) == "budget exceeded: max_signatures (5 > 4)"
    # one label row per block is enough, and gives the same lattice: every
    # partition of five elements
    narrow = congruence_lattice(system, budget=Budget(max_signatures=size))
    assert len(narrow) == 52 and narrow == congruence_lattice(system)


def test_a_join_dropped_by_the_closure_escapes_as_a_meet(monkeypatch):
    """On the five-element set with no operations every partition is a
    congruence.  Drop {0,1,2}{3}{4}, which only joins make and which is
    the meet of {0,1,2,3}{4} and {0,1,2,4}{3}: the meet check finds it
    missing."""
    system = translation_system(FiniteAlgebra(size=5, ops=()))
    assert len(congruence_lattice(system)) == 52
    dropped = np.array([0, 0, 0, 3, 4])       # least form of {0,1,2}{3}{4}
    assert not any((c.least == dropped).all() for c in principal_congruences(
        system, combinations(range(5), 2)))
    real = lattice._joins

    def dropping(*args):
        for block in real(*args):
            yield block[~(block == dropped).all(1)]

    monkeypatch.setattr(lattice, "_joins", dropping)
    with pytest.raises(ValueError, match="meet escaped the generated lattice"):
        congruence_lattice(system)


def test_the_first_join_round_joins_each_incomparable_pair_once(
        ctx4, monkeypatch):
    """Every nonzero congruence of B_4 is principal, so the closure is its
    first round alone: one join row per unordered pair of incomparable
    principals, 55 of them.  Joining every principal with each one whose
    pair it does not relate took 160 rows."""
    rows = []
    real = lattice._joins

    def counting(*args):
        for block in real(*args):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(lattice, "_joins", counting)
    congs = congruence_lattice(ctx4.system())
    assert len(congs) == 16
    nonzero = [c for c in congs if c.num_blocks < c.size]
    incomparable = sum(not a.refines(b) and not b.refines(a)
                       for a, b in combinations(nonzero, 2))
    assert sum(rows) == incomparable == 55


def test_lattice_tables_and_sd_check_are_unchanged_by_slabs(con_b3):
    """One (x, y) pair per slab, and a slab of many pairs, give the same
    tables and the same first violating triple as the default cap."""
    lat = lattice_of_congruences(con_b3)
    m3 = m3_lattice()
    for cap in (lat.size, 3 * lat.size + 1):
        small = lattice_of_congruences(con_b3, budget=Budget(max_signatures=cap))
        assert np.array_equal(small.join_table, lat.join_table)
        assert np.array_equal(small.meet_table, lat.meet_table)
        assert is_meet_semidistributive(small, budget=Budget(max_signatures=cap)) \
            == (True, None)
    for cap in (5, 7, 11):
        assert is_meet_semidistributive(m3, budget=Budget(max_signatures=cap)) \
            == (False, (1, 2, 3))
    bowtie = [[x == y or (x < 2 and y >= 2) for y in range(4)] for x in range(4)]
    with pytest.raises(ValueError, match="no least upper bound for 0,1"):
        Lattice.from_order(bowtie, budget=Budget(max_signatures=4))


def test_lattice_tables_and_sd_check_charge_the_budget(con_b3):
    lat = lattice_of_congruences(con_b3)
    for check in (lambda b: lattice_of_congruences(con_b3, budget=b),
                  lambda b: is_meet_semidistributive(lat, budget=b)):
        with pytest.raises(BudgetExceeded) as exc:
            check(Budget(max_signatures=lat.size - 1))
        assert exc.value.what == "max_signatures"
        with pytest.raises(BudgetExceeded) as exc:
            check(Budget(deadline=time.monotonic() - 1))
        assert exc.value.what == "max_seconds"
