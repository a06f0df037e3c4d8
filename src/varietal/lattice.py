"""Congruence lattices and the meet-semidistributivity test.

The congruence lattice is generated from the principal congruences:
every congruence is the join of the principals it contains, so closing
the principals (one pass over the pair graph, sinks first: Mal'cev) and
the identity under joins with a principal yields the whole lattice.  A
join is the transitive closure of the union of two congruences
(Congruence.equiv_join), which needs no translations; meets are
block-label intersections.

Meet-semidistributivity: a ^ b = a ^ c implies a ^ b = a ^ (b v c) for
all triples.  The check runs over the full triple cube with numpy and
reports the lexicographically first violating triple, if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    def from_order(leq: list[list[bool]]) -> "Lattice":
        """Build join/meet tables from a partial order; raises ValueError
        when some pair lacks a least upper or greatest lower bound."""
        n = len(leq)

        def least_upper(x: int, y: int) -> int:
            ub = [z for z in range(n) if leq[x][z] and leq[y][z]]
            if not ub:
                raise ValueError(f"no upper bound for {x},{y}")
            best = ub[0]
            for z in ub:
                if leq[z][best]:
                    best = z
            if not all(leq[best][z] for z in ub):
                raise ValueError(f"no least upper bound for {x},{y}")
            return best

        def greatest_lower(x: int, y: int) -> int:
            lb = [z for z in range(n) if leq[z][x] and leq[z][y]]
            if not lb:
                raise ValueError(f"no lower bound for {x},{y}")
            best = lb[0]
            for z in lb:
                if leq[best][z]:
                    best = z
            if not all(leq[z][best] for z in lb):
                raise ValueError(f"no greatest lower bound for {x},{y}")
            return best

        jt = tuple(tuple(least_upper(x, y) for y in range(n)) for x in range(n))
        mt = tuple(tuple(greatest_lower(x, y) for y in range(n)) for x in range(n))
        return Lattice(n, jt, mt)


def lattice_of_congruences(congs: list[Congruence]) -> Lattice:
    """Order a closed set of congruences by refinement."""
    leq = [[a.refines(b) for b in congs] for a in congs]
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
