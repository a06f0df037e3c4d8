"""Congruence lattices and the meet-semidistributivity test.

The congruence lattice is generated from the principal congruences:
every congruence is the join of the principals it contains, so closing
the principals (one pass over the pair graph, sinks first: Mal'cev) and
the identity under joins with a principal yields the whole lattice.  The
closure works on least forms (see `algebra`) a frontier at a time.  The
first round joins each two incomparable principals once; each later
round joins every congruence the last round found with every principal
whose generating pair it does not relate.  A join needs no translations,
only the transitive closure of the union, so a block of joins is one
min-label hooking pass: the block's frontier rows lie end to end, row k
offset by k * size, and each hooks its principal's least form.  New rows
are deduped by their bytes.  Then the meet of every two congruences must
be in the set: one row-wise meet per block of pairs.  The order is read
off the least-form matrix, and the join and meet tables off the order.

Meet-semidistributivity: a ^ b = a ^ c implies a ^ b = a ^ (b v c) for
all triples.  The check runs over the triple cube a slab of (a, b) pairs
at a time and reports the lexicographically first violating triple.

Every block and slab comes from `Budget.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Budget, Congruence, DEFAULT_BUDGET, _generated, _meets
from .depth import TranslationSystem, principal_congruences


def congruence_lattice(system: TranslationSystem, *,
                       budget: Budget = DEFAULT_BUDGET) -> list[Congruence]:
    """All congruences of the algebra whose translation system is given,
    sorted by least form.

    Takes the principal congruences of every pair from one pass over the
    pair graph, then closes them under joins a frontier at a time (see
    the module docstring).  Every meet of two congruences must be among
    them; one that is not raises ValueError.
    """
    size = system.table.shape[1]
    xs, ys = np.triu_indices(size, 1)
    cgs = principal_congruences(system, np.stack([xs, ys], 1), budget=budget)
    # each distinct principal congruence, with the first pair generating it
    seen = {}
    for i, cg in enumerate(cgs):
        seen.setdefault(cg.least.tobytes(), i)
    first = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    forms = np.array([cgs[i].least for i in first], dtype=np.intp).reshape(-1, size)
    found = {row.tobytes(): row for row in [np.arange(size), *forms]}
    xs, ys = xs[first], ys[first]
    # round one: each two principals, neither relating the other's pair
    apart = forms[:, xs] != forms[:, ys]
    frontier, pairs = forms, np.nonzero(np.triu(apart & apart.T, 1))
    while len(frontier):
        fresh = {}
        for block in _joins(frontier, forms, *pairs, budget):
            for row in block:
                if (key := row.tobytes()) not in found:
                    found[key] = fresh[key] = row
        budget.check_elements(len(found))
        frontier = np.array(list(fresh.values()), dtype=np.intp).reshape(-1, size)
        pairs = np.nonzero(frontier[:, xs] != frontier[:, ys])

    table = np.array(list(found.values()))
    table = table[np.lexsort(table.T[::-1])]
    left, right = np.triu_indices(len(table), 1)
    for part in budget.blocks(len(left), size):
        meets = _meets(table[left[part]], table[right[part]])
        if not {row.tobytes() for row in meets} <= found.keys():
            raise ValueError("meet escaped the generated lattice")
    return [Congruence(row) for row in table]


def _joins(frontier: np.ndarray, forms: np.ndarray, theta: np.ndarray,
           psi: np.ndarray, budget: Budget):
    """Least forms of frontier[theta[k]] v forms[psi[k]] for each k, a
    block of rows at a time."""
    size = frontier.shape[1]
    for part in budget.blocks(len(theta), size):
        offset = (np.arange(len(part)) * size)[:, None]
        least = _generated((frontier[theta[part]] + offset).ravel(),
                           np.arange(offset.size * size),
                           (forms[psi[part]] + offset).ravel())
        yield least.reshape(-1, size) - offset


@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite lattice given by dense join and meet tables, read-only
    intp arrays."""

    size: int
    join_table: np.ndarray
    meet_table: np.ndarray

    @staticmethod
    def from_order(leq: Sequence[Sequence[bool]], *,
                   budget: Budget = DEFAULT_BUDGET) -> "Lattice":
        """Build join/meet tables from a partial order, leq[x][y] when
        x <= y; raises ValueError when some pair lacks a least upper or
        greatest lower bound.  The meet is the join of the dual order."""
        n = len(leq)
        leq = np.asarray(leq, dtype=bool).reshape(n, n)
        join = _least_bounds(leq, "least upper bound", budget)
        meet = _least_bounds(leq.T, "greatest lower bound", budget)
        return Lattice(n, join, meet)


def _least_bounds(leq: np.ndarray, what: str, budget: Budget) -> np.ndarray:
    """[x, y] -> the least z with x, y <= z.  Of a pair's upper bounds the
    least one has the fewest elements below it, so it is the argmin of
    those counts over the pair's bounds z; when that argmin is not below
    every bound, the pair has no least one.  Computed in slabs of pairs."""
    n = len(leq)
    narrow = np.min_scalar_type(n + 1)
    below = leq.sum(0, dtype=narrow)
    best = np.empty(n * n, dtype=np.intp)
    for part in budget.blocks(n * n, n):      # slabs of pairs (x, y)
        xs, ys = np.divmod(part, n)
        bounds = leq[xs] & leq[ys]              # [pair, z]
        # the sentinel n + 1 outweighs every count, the top's n included
        least = np.where(bounds, below, narrow.type(n + 1)).argmin(1)
        ok = bounds.any(1) & (leq[least] >= bounds).all(1)
        if not ok.all():
            bad = np.argmin(ok)
            raise ValueError(f"no {what} for {xs[bad]},{ys[bad]}")
        best[part] = least
    best = best.reshape(n, n)
    best.flags.writeable = False
    return best


def lattice_of_congruences(congs: list[Congruence], *,
                           budget: Budget = DEFAULT_BUDGET) -> Lattice:
    """Order a closed set of congruences by refinement, off the least-form
    matrix: theta <= psi when psi relates each element to the least member
    of its theta-block, so that psi's least form gathered at theta's is
    unchanged."""
    forms = np.array([c.least for c in congs])
    leq = [(forms[:, c.least] == forms).all(1) for c in congs]
    return Lattice.from_order(leq, budget=budget)


def is_meet_semidistributive(lat: Lattice, *, budget: Budget = DEFAULT_BUDGET
                             ) -> tuple[bool, tuple[int, int, int] | None]:
    """Check of a^b = a^c  implies  a^b = a^(b v c) over the whole [a, b, c]
    cube, in slabs of (a, b) pairs.

    Returns (True, None) or (False, first violating triple (a, b, c) in
    lexicographic order).
    """
    meet, join = lat.meet_table, lat.join_table
    for part in budget.blocks(lat.size ** 2, lat.size):
        a, b = np.divmod(part, lat.size)
        ab = meet[a, b][:, None]                    # [pair, 1]
        a_join = meet[a[:, None], join[b]]          # [pair, c] -> a ^ (b v c)
        viol = (ab == meet[a]) & (a_join != ab)
        if viol.any():
            p, c = np.argwhere(viol)[0]
            return False, (int(a[p]), int(b[p]), int(c))
    return True, None


def m3_lattice() -> Lattice:
    """The five-element diamond: bottom, three pairwise-incomparable
    atoms, top.  The classic meet-semidistributivity failure."""
    n = 5
    bottom, top = 0, 4
    leq = [[False] * n for _ in range(n)]
    for x in range(n):
        leq[x][x] = True
        leq[bottom][x] = True
        leq[x][top] = True
    return Lattice.from_order(leq)
