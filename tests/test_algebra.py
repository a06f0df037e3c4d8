import time

import pytest

from varietal.algebra import (
    Budget,
    BudgetExceeded,
    Congruence,
    DisjointSets,
    FiniteAlgebra,
    Operation,
    is_congruence,
    table_op,
)
from varietal.subpower import close_subpower


def mod_algebra(n):
    """(Z_n, successor, +) for exercising the generic machinery."""
    succ = Operation("succ", 1, lambda x: (x + 1) % n)
    add = Operation("add", 2, lambda x, y: (x + y) % n)
    return FiniteAlgebra(size=n, ops=(succ, add), zero=None)


def test_budget_caps():
    budget = Budget(max_elements=10, max_pairs=20, max_signatures=30)
    budget.check_elements(10)
    with pytest.raises(BudgetExceeded) as err:
        budget.check_elements(11)
    assert err.value.what == "max_elements"
    with pytest.raises(BudgetExceeded):
        budget.check_pairs(21)
    with pytest.raises(BudgetExceeded):
        budget.check_signatures(31)


def test_budget_deadline():
    budget = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceeded) as err:
        budget.check_time()
    assert err.value.what == "max_seconds"
    Budget(deadline=None).check_time()


def test_table_op_all_arities():
    const = table_op("c", 0, 3, [2])
    assert const() == 2
    neg = table_op("neg", 1, 2, [1, 0])
    assert [neg(0), neg(1)] == [1, 0]
    xor = table_op("xor", 2, 2, [0, 1, 1, 0])
    assert xor(1, 1) == 0
    maj = table_op("maj", 3, 2, [int(x + y + z >= 2)
                                 for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert maj(1, 0, 1) == 1 and maj(0, 1, 0) == 0
    par4 = table_op("par", 4, 2, [(a + b + c + d) % 2
                                  for a in (0, 1) for b in (0, 1)
                                  for c in (0, 1) for d in (0, 1)])
    assert par4(1, 1, 1, 0) == 1


def test_algebra_validation():
    op = Operation("f", 1, lambda x: x)
    with pytest.raises(ValueError):
        FiniteAlgebra(size=2, ops=(op, Operation("f", 2, lambda x, y: x)))
    alg = mod_algebra(4)
    assert alg.op("succ").arity == 1
    with pytest.raises(KeyError):
        alg.op("missing")
    assert alg.eval("add", (3, 3)) == 2
    with pytest.raises(ValueError):
        alg.eval("add", (1,))
    with pytest.raises(ValueError):
        alg.eval("add", (1, 4))


def test_generate_subuniverse():
    def generated(alg, gens):
        return [t[0] for t in close_subpower(alg, 1, [(g,) for g in gens]).elements]

    alg = mod_algebra(6)
    assert generated(alg, [0]) == [0, 1, 2, 3, 4, 5]
    even = FiniteAlgebra(size=6, ops=(Operation("add", 2, lambda x, y: (x + y) % 6),))
    assert generated(even, [2]) == [0, 2, 4]
    with pytest.raises(ValueError):
        generated(alg, [])
    with pytest.raises(ValueError):
        generated(alg, [6])


def test_generate_subuniverse_respects_budget():
    alg = mod_algebra(100)
    with pytest.raises(BudgetExceeded):
        close_subpower(alg, 1, [(1,)], Budget(max_elements=10))


def test_disjoint_sets():
    dsu = DisjointSets(5)
    assert dsu.union(3, 4)
    assert not dsu.union(4, 3)
    dsu.union(0, 2)
    assert dsu.labels() == (0, 1, 0, 2, 2)


def test_congruence_canonical_form():
    with pytest.raises(ValueError):
        Congruence((0, 2, 1))
    cong = Congruence((0, 0, 1, 0, 2))
    assert cong.num_blocks == 3
    assert cong.blocks() == [[0, 1, 3], [2], [4]]
    assert cong.relates(0, 3) and not cong.relates(2, 4)
    assert Congruence.identity(3).is_identity()
    assert Congruence.full(3).is_full()


def test_congruence_meet_join_refines():
    theta = Congruence((0, 0, 1, 1))
    psi = Congruence((0, 1, 1, 2))
    meet = theta.meet(psi)
    assert meet.labels == (0, 1, 2, 3)
    join = theta.equiv_join(psi)
    assert join.labels == (0, 0, 0, 0)
    assert meet.refines(theta) and meet.refines(psi)
    assert theta.refines(join) and not theta.refines(psi)


def test_congruence_binary_ops_reject_mismatched_sizes():
    small, large = Congruence.identity(3), Congruence.full(4)
    for binary in (Congruence.meet, Congruence.equiv_join, Congruence.refines):
        with pytest.raises(ValueError):
            binary(small, large)


def test_congruence_spanning_pairs_regenerate():
    cong = Congruence((0, 1, 0, 1, 0, 2))
    pairs = cong.spanning_pairs()
    assert Congruence.from_pairs(cong.size, pairs) == cong
    assert Congruence.identity(4).spanning_pairs() == []


def test_is_congruence():
    alg = mod_algebra(4)
    mod2 = Congruence((0, 1, 0, 1))
    assert is_congruence(alg, mod2)
    lopsided = Congruence((0, 0, 1, 2))
    assert not is_congruence(alg, lopsided)
    assert is_congruence(alg, Congruence.identity(4))
    assert is_congruence(alg, Congruence.full(4))
