"""Helpers that only the tests need, written on the package (unlike
oracles.py and altops.py, this module may import varietal): from_pairs,
equiv_join and equiv_meet work on least forms with the package's own
min-label and meet helpers, the rest use its public API."""

from typing import Iterable, Sequence

import numpy as np

from varietal.algebra import Congruence, FiniteAlgebra, Operation, _generated, \
    _meets
from varietal.lattice import Lattice
from varietal.machine_algebra import BnContext, MachineAlgebra, vector_evaluator
from varietal.subpower import Subpower, close_subpower
from varietal.tm import Instruction, TuringMachine


def table_op(symbol: str, arity: int, size: int,
             values: Sequence[int]) -> Operation:
    """Operation backed by a dense row-major table."""
    if len(values) != size ** arity:
        raise ValueError(
            f"{symbol} needs {size ** arity} table values, got {len(values)}")
    table = list(values)
    if arity == 0:
        const = table[0]
        return Operation(symbol, 0, lambda: const)
    if arity == 1:
        return Operation(symbol, 1, lambda x: table[x])
    if arity == 2:
        return Operation(symbol, 2, lambda x, y: table[x * size + y])
    if arity == 3:
        return Operation(
            symbol, 3, lambda x, y, z: table[(x * size + y) * size + z]
        )

    def func(*args):
        idx = 0
        for a in args:
            idx = idx * size + a
        return table[idx]

    return Operation(symbol, arity, func)


def machine(states: Iterable[str], quintuples: Iterable[tuple]) -> TuringMachine:
    """Build from state names and (state, read, write, dir, next) name tuples."""
    names = tuple(states)
    idx = {name: i for i, name in enumerate(names)}
    ins = tuple(
        Instruction(idx[s], r, w, d, idx[n]) for (s, r, w, d, n) in quintuples
    )
    return TuringMachine(states=names, instructions=ins)


def omission_subpower(ctx: BnContext, k: int) -> Subpower:
    """C_k: the subalgebra of B_n that the generators without d_k close."""
    gens = [*ctx.b.values(), *(t for i, t in ctx.d.items() if i != k)]
    return close_subpower(ctx.subpower.base, ctx.n, gens)


def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Equivalence (not necessarily compatible) generated by pairs."""
    pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    return Congruence(_generated(np.arange(size), pairs[:, 0], pairs[:, 1]))


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
