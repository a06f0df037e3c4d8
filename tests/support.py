"""Helpers that only the tests need, written on the package (unlike
oracles.py and altops.py, this module may import varietal): equiv_join
and equiv_meet work on least forms with the package's own min-label and
meet helpers, the rest use its public API."""

from typing import Sequence

import numpy as np

from varietal.algebra import Congruence, FiniteAlgebra, _generated, _meets
from varietal.lattice import Lattice
from varietal.machine_algebra import MachineAlgebra, vector_evaluator
from varietal.tm import TuringMachine


def eval_op(alg: FiniteAlgebra, symbol: str, args: Sequence[int]) -> int:
    """One operation of `alg` on element indices, checking the arity and
    that every index is in the universe."""
    op = alg.op(symbol)
    if len(args) != op.arity:
        raise ValueError(f"{symbol} takes {op.arity} arguments, got {len(args)}")
    for a in args:
        if not (0 <= a < alg.size):
            raise ValueError(f"element index {a} out of range")
    return op.func(*args)


def bar(ma: MachineAlgebra, x: int) -> int:
    """The barred twin of a letter or cell; ValueError elsewhere."""
    b = ma.bar_index[x]
    if b < 0:
        raise ValueError(f"bar undefined on {ma.names[x]!r}")
    return b


def equiv_meet(theta: Congruence, psi: Congruence) -> Congruence:
    """Meet of two partitions (the common refinement): one row-wise meet
    of their least forms."""
    if theta.size != psi.size:
        raise ValueError(f"congruences on {theta.size} and {psi.size} elements")
    return Congruence(_meets(theta.least[None], psi.least[None])[0])


def lattice_join(lat: Lattice, x: int, y: int) -> int:
    return int(lat.join_table[x, y])


def lattice_meet(lat: Lattice, x: int, y: int) -> int:
    return int(lat.meet_table[x, y])


def spanning_pairs(cong: Congruence) -> list[tuple[int, int]]:
    """One chain of pairs per nontrivial block; generates the same
    congruence."""
    prev: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i, root in enumerate(cong.least.tolist()):
        if root in prev:
            pairs.append((prev[root], i))
        prev[root] = i
    return pairs


def identity(size: int) -> Congruence:
    return Congruence(np.arange(size))


def full(size: int) -> Congruence:
    return Congruence(np.zeros(size, dtype=np.intp))


def equiv_join(theta: Congruence, psi: Congruence) -> Congruence:
    """Join in the lattice of equivalences (transitive closure of the
    union).  For two congruences this is also the congruence join."""
    if theta.size != psi.size:
        raise ValueError(f"congruences on {theta.size} and {psi.size} elements")
    return Congruence(_generated(theta.least.copy(), np.arange(theta.size),
                                 psi.least))


def is_identity(cong: Congruence) -> bool:
    return cong.num_blocks == cong.size


def is_full(cong: Congruence) -> bool:
    return cong.num_blocks <= 1


def flat_leq(x: int, y: int) -> bool:
    """The flat order of a machine algebra: 0 lies below every element."""
    return x == 0 or x == y


def format_tm(tm: TuringMachine) -> str:
    """Render back to the file format (parse_tm round-trips it)."""
    lines = ["states: " + " ".join(tm.states)]
    for ins in tm.sorted_instructions():
        lines.append(
            f"{tm.states[ins.state]} {ins.read} -> {ins.write}"
            f" {ins.direction} {tm.states[ins.next_state]}"
        )
    return "\n".join(lines) + "\n"


def monotonicity_report(ma: MachineAlgebra, *, samples: int = 1_000_000,
                        seed: int = 0) -> dict:
    """Check every operation for monotonicity: u <= v coordinatewise
    implies f(u) <= f(v), where x <= y iff x in {0, y}.

    Arities <= 3 are exhaustive (all argument tuples v, all zero-masks
    giving u).  Arities 4-5 run seeded uniform samples plus an exhaustive
    sweep over the 8 state-free elements.  Returns a report dict with
    per-operation violation counts.
    """
    rng = np.random.default_rng(seed)
    checks = []
    ok = True
    for op in ma.algebra.ops:
        if op.arity == 0:
            continue
        k = op.arity
        ev = vector_evaluator(ma, op.symbol)
        violations = 0
        if k <= 3:
            grids = np.indices((ma.size,) * k)
            full = ev(*grids)
            for mask in range(1, 1 << k):
                sel = [np.zeros_like(grids[j]) if mask >> j & 1 else grids[j]
                       for j in range(k)]
                low = ev(*sel)
                violations += int(np.count_nonzero((low != 0) & (low != full)))
            mode = "exhaustive"
            n_checked = (ma.size ** k) * ((1 << k) - 1)
        else:
            grids = np.indices((8,) * k)
            full = ev(*grids)
            n_checked = 0
            for mask in range(1, 1 << k):
                sel = [np.zeros_like(grids[j]) if mask >> j & 1 else grids[j]
                       for j in range(k)]
                low = ev(*sel)
                violations += int(np.count_nonzero((low != 0) & (low != full)))
                n_checked += 8 ** k
            vs = [rng.integers(0, ma.size, size=samples) for _ in range(k)]
            keep = [rng.integers(0, 2, size=samples).astype(bool) for _ in range(k)]
            us = [np.where(keep[j], vs[j], 0) for j in range(k)]
            fv = ev(*vs)
            fu = ev(*us)
            violations += int(np.count_nonzero((fu != 0) & (fu != fv)))
            n_checked += samples
            mode = "sampled+boundary"
        ok = ok and violations == 0
        checks.append({"op": op.symbol, "arity": k, "mode": mode,
                       "checked": int(n_checked), "violations": violations})
    return {"pass": ok, "seed": seed, "samples": samples, "ops": checks}
