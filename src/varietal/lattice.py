"""Congruence lattices and the meet-semidistributivity test.

The congruence lattice is generated from the principal congruences:
every congruence is the join of the principals it contains, so closing
the principals (one pass over the pair graph, sinks first: Mal'cev) and
the identity under joins with a principal yields the whole lattice.  A
join is the transitive closure of the union of two congruences
(Congruence.equiv_join, min-label hooking on the label arrays), which
needs no translations; meets are block-label intersections.  The order
is read off the label matrix, and the join and meet tables off the order.

Meet-semidistributivity: a ^ b = a ^ c implies a ^ b = a ^ (b v c) for
all triples.  The check runs over the full triple cube with numpy and
reports the lexicographically first violating triple, if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .algebra import Budget, Congruence, DEFAULT_BUDGET
from .depth import TranslationSystem, principal_congruences, translation_system


def congruence_lattice(target, *, system: TranslationSystem | None = None,
                       budget: Budget = DEFAULT_BUDGET) -> list[Congruence]:
    """All congruences of the target algebra, canonically sorted.

    Takes the principal congruences of every pair from one pass over the
    pair graph, then closes them under joins.  Meets come for free (label
    intersection); one outside the set raises ValueError.
    """
    if system is None:
        system = translation_system(target, budget=budget)
    pairs = list(combinations(range(target.size), 2))
    cgs = principal_congruences(target, pairs, system=system, budget=budget)
    # each distinct principal congruence, with the first pair generating it
    principals = {cg.labels: (cg, pair) for pair, cg in reversed(list(zip(pairs, cgs)))}
    found = {cg.labels: cg for cg in [Congruence.identity(target.size), *cgs]}
    # the join closure of a generating set needs joins with generators
    # only, and theta v Cg(x,y) = theta when theta relates x and y
    work = list(found.values())
    while work:
        theta = work.pop()
        budget.check_time()
        for psi, (x, y) in principals.values():
            if theta.relates(x, y):
                continue
            join = theta.equiv_join(psi)
            if join.labels not in found:
                found[join.labels] = join
                work.append(join)
                budget.check_elements(len(found))

    congs = sorted(found.values(), key=lambda c: c.labels)
    for theta, psi in combinations(congs, 2):
        if theta.meet(psi).labels not in found:
            raise ValueError("meet escaped the generated lattice")
    return congs


@dataclass(frozen=True)
class Lattice:
    """A finite lattice given by dense join and meet tables."""

    size: int
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    @staticmethod
    def from_order(leq: Sequence[Sequence[bool]]) -> "Lattice":
        """Build join/meet tables from a partial order, leq[x][y] when
        x <= y; raises ValueError when some pair lacks a least upper or
        greatest lower bound.  The meet is the join of the dual order."""
        n = len(leq)
        leq = np.asarray(leq, dtype=bool).reshape(n, n)
        join = _least_bounds(leq, "least upper bound")
        meet = _least_bounds(leq.T, "greatest lower bound")
        return Lattice(n, tuple(map(tuple, join.tolist())),
                       tuple(map(tuple, meet.tolist())))


def _least_bounds(leq: np.ndarray, what: str) -> np.ndarray:
    """[x, y] -> the least z with x, y <= z.  Of a pair's upper bounds the
    least one has the fewest elements below it, so it is the argmin of
    those counts over the [x, y, z] cube of bounds; when that argmin is
    not below every bound, the pair has no least one."""
    n = len(leq)
    narrow = np.min_scalar_type(n + 1)
    bounds = leq[:, None, :] & leq[None, :, :]
    # the sentinel n + 1 outweighs every count, the top's n included
    below = np.where(bounds, leq.sum(0, dtype=narrow), narrow.type(n + 1))
    best = below.argmin(2)
    ok = bounds.any(2) & (leq[best] >= bounds).all(2)
    if not ok.all():
        x, y = np.argwhere(~ok)[0]
        raise ValueError(f"no {what} for {x},{y}")
    return best


def lattice_of_congruences(congs: list[Congruence]) -> Lattice:
    """Order a closed set of congruences by refinement, off the label
    matrix: theta <= psi when psi gives each element the label of the
    least member of its theta-block."""
    labels = np.array([c.labels for c in congs])
    leq = [(labels[:, c._least] == labels).all(1) for c in congs]
    return Lattice.from_order(leq)


def is_meet_semidistributive(lat: Lattice) -> tuple[bool, tuple[int, int, int] | None]:
    """Whole-cube check of: a^b = a^c  implies  a^b = a^(b v c).

    Returns (True, None) or (False, first violating triple (a, b, c) in
    lexicographic order).
    """
    n = lat.size
    meet = np.asarray(lat.meet_table, dtype=np.int64)
    join = np.asarray(lat.join_table, dtype=np.int64)
    ab = meet[:, :, None]                      # [a, b, 1]
    ac = meet[:, None, :]                      # [a, 1, c]
    a_idx = np.arange(n)[:, None, None]
    a_join = meet[a_idx, join[None, :, :]]     # [a, b, c] -> a ^ (b v c)
    viol = (ab == ac) & (a_join != ab)
    if not viol.any():
        return True, None
    a, b, c = np.argwhere(viol)[0]
    return False, (int(a), int(b), int(c))


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
