from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    labels = {c.labels for c in con_b2}
    for a, b in product(con_b2, repeat=2):
        assert a.meet(b).labels in labels
        assert a.equiv_join(b).labels in labels


def assert_compatible(op_values, cong):
    """Changing one related argument never moves the value across blocks.
    Spanning pairs suffice: full blocks follow by transitivity."""
    lab = np.asarray(cong.labels, dtype=np.int64)
    for vals in op_values:
        blocks_of_vals = lab[vals]
        for axis in range(vals.ndim):
            rolled = np.moveaxis(blocks_of_vals, axis, 0)
            for a, b in cong.spanning_pairs():
                assert np.array_equal(rolled[a], rolled[b])


def test_con_b3_size(con_b3, b3_op_values):
    assert len(con_b3) == 8
    for cong in con_b3:
        assert_compatible(b3_op_values, cong)


def test_lattice_joins_match_generated_congruences(ctx3, con_b3, b3_op_values):
    """The lattice joins by equivalence closure; the oracle's congruence
    generated by both spanning-pair lists is the same."""
    for theta, psi in product(con_b3, repeat=2):
        seeds = theta.spanning_pairs() + psi.spanning_pairs()
        assert theta.equiv_join(psi).labels == oracles.bucket_congruence(
            ctx3.subpower.size, b3_op_values, seeds)


def test_congruence_lattices_are_meet_semidistributive(con_b2, con_b3):
    for congs in (con_b2, con_b3):
        sd, witness = is_meet_semidistributive(lattice_of_congruences(congs))
        assert sd and witness is None


def test_lattice_axioms(con_b3):
    lat = lattice_of_congruences(con_b3)
    for x in range(lat.size):
        assert lat.join(x, x) == x and lat.meet(x, x) == x
        for y in range(lat.size):
            assert lat.join(x, y) == lat.join(y, x)
            assert lat.meet(x, y) == lat.meet(y, x)
            assert lat.meet(x, lat.join(x, y)) == x
            assert lat.join(x, lat.meet(x, y)) == x


def test_m3_fails_meet_semidistributivity():
    lat = m3_lattice()
    sd, witness = is_meet_semidistributive(lat)
    assert not sd
    assert witness == (1, 2, 3)
    a, b, c = witness
    assert lat.meet(a, b) == lat.meet(a, c) == 0
    assert lat.meet(a, lat.join(b, c)) == a


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
    assert lat.join(1, 2) == 2 and lat.meet(1, 2) == 1
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
    assert lat.join(bottom, top) == top and lat.meet(bottom, top) == bottom
