"""Subalgebras of finite powers: closure, images, translation maps.

Elements are width-n tuples over a base algebra and every operation acts
coordinatewise, so bulk work factors through the base operation restricted
to the small set of values that actually occur in coordinates (the
coordinate alphabet).  For each operation we build a layered automaton
whose level-j states are suffix classes of the restricted operation: two
argument prefixes that reach the same state yield the same value under
every completion.  A tuple of per-coordinate states therefore determines
everything a partial argument choice can still do, which collapses the
|B|^arity argument space to a few hundred distinct state signatures even
for arity-5 operations.  Image sweeps (for closure and exhaustive
zero-image checks) and unary translation enumeration both run on state
signatures; numpy drives the per-level transitions.  Rows of states or
values are deduped and looked up through one-dimensional int64 codes
(mixed radix, first column most significant, so code order is row order):
signatures are deduped with a 1-d `np.unique` on their codes, and the
element ids of translation images come from `np.searchsorted` on the
codes of the subpower's sorted elements.

Enumeration order is canonical everywhere: operations in declared order,
argument positions ascending, constants in lexicographic element order;
the first witness reaching a signature is kept, so reported translation
witnesses are lexicographically least.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Operation,
    TranslationStep,
)

# alphabet**arity words are enumerated once per (operation, alphabet);
# beyond this the automaton build itself would be the bottleneck.
_MAX_WORDS = 2_000_000


@dataclass(frozen=True)
class OpAutomaton:
    arity: int
    alphabet: tuple[int, ...]
    levels: tuple[np.ndarray, ...]   # levels[j]: (states_j, |alphabet|) -> states_{j+1}
    values: np.ndarray               # final state id -> base element


def _build_automaton(op: Operation, alphabet: tuple[int, ...],
                     argorder: tuple[int, ...] | None = None) -> OpAutomaton:
    k = op.arity
    m = len(alphabet)
    if k == 0:
        raise ValueError("nullary operations have no automaton")
    if m ** k > _MAX_WORDS:
        raise BudgetExceeded("max_signatures", f"alphabet^{k} = {m ** k} words")
    order = argorder if argorder is not None else tuple(range(k))
    func = op.func
    args = [0] * k
    evals: list[int] = []
    for word in product(alphabet, repeat=k):
        for i, pos in enumerate(order):
            args[pos] = word[i]
        evals.append(func(*args))

    ids: dict[int, int] = {}
    arr: list[int] = []
    for v in evals:
        cid = ids.get(v)
        if cid is None:
            cid = len(ids)
            ids[v] = cid
        arr.append(cid)
    values = np.fromiter(ids.keys(), dtype=np.int64, count=len(ids))

    levels_rev: list[np.ndarray] = []
    for j in range(k - 1, -1, -1):
        rows: dict[tuple[int, ...], int] = {}
        delta: list[tuple[int, ...]] = []
        new_arr: list[int] = []
        for r in range(m ** j):
            sig = tuple(arr[r * m:(r + 1) * m])
            cid = rows.get(sig)
            if cid is None:
                cid = len(rows)
                rows[sig] = cid
                delta.append(sig)
            new_arr.append(cid)
        levels_rev.append(np.asarray(delta, dtype=np.int64))
        arr = new_arr
    levels_rev.reverse()
    return OpAutomaton(arity=k, alphabet=alphabet,
                       levels=tuple(levels_rev), values=values)


@dataclass(eq=False)
class Subpower:
    """A subuniverse of base^width, closed under every operation.

    elements are sorted lexicographically; index maps tuple -> position.
    algebra is the induced FiniteAlgebra on the reindexed universe.
    """

    base: FiniteAlgebra
    width: int
    elements: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(init=False)
    algebra: FiniteAlgebra = field(init=False)
    _automata: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.elements)}
        zero = None
        if self.base.zero is not None:
            zero = self.index.get((self.base.zero,) * self.width)
        self.algebra = FiniteAlgebra(
            size=len(self.elements),
            ops=tuple(self._induced(op) for op in self.base.ops),
            zero=zero,
        )

    def _induced(self, op: Operation) -> Operation:
        elements, index, width = self.elements, self.index, self.width
        base_func = op.func
        if op.arity == 0:
            t = (base_func(),) * width
            if t not in index:
                raise ValueError(f"{op.symbol} constant escapes the subuniverse")
            const = index[t]
            return Operation(op.symbol, 0, lambda: const, op.absorbing)

        def func(*ids):
            tups = [elements[a] for a in ids]
            out = tuple(base_func(*(tp[i] for tp in tups)) for i in range(width))
            v = index.get(out)
            if v is None:
                raise ValueError(f"{op.symbol} image {out} escapes the subuniverse")
            return v

        return Operation(op.symbol, op.arity, func, op.absorbing)

    @property
    def size(self) -> int:
        return len(self.elements)

    def coordinate_alphabet(self) -> tuple[int, ...]:
        return tuple(sorted({v for t in self.elements for v in t}))

    def eval_tuple(self, symbol: str, args: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        """Apply a base operation coordinatewise to raw tuples (membership
        of arguments or result is not required)."""
        op = self.base.op(symbol)
        if len(args) != op.arity:
            raise ValueError(f"{symbol} takes {op.arity} arguments")
        return tuple(op.func(*(a[i] for a in args)) for i in range(self.width))

    def _alpha_matrix(self, alphabet: tuple[int, ...]) -> np.ndarray:
        pos = {v: i for i, v in enumerate(alphabet)}
        return np.asarray([[pos[v] for v in t] for t in self.elements], dtype=np.int64)

    def _automaton(self, op: Operation, argorder: tuple[int, ...] | None) -> OpAutomaton:
        key = (op.symbol, argorder)
        aut = self._automata.get(key)
        if aut is None:
            aut = _build_automaton(op, self.coordinate_alphabet(), argorder)
            self._automata[key] = aut
        return aut


_INT64_MAX = int(np.iinfo(np.int64).max)


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Order-preserving int64 codes of the rows of a 2-d int array: codes
    compare as the rows do lexicographically, so equal rows share a code.
    Columns are folded in mixed radix, first column most significant.
    Before a multiply could overflow, the partial codes are replaced by
    their dense ranks, which keeps their order, so the codes are exact at
    every width and value range."""
    m, w = rows.shape
    lo, hi = int(rows.min()), int(rows.max())
    radix = hi - lo + 1
    if m * radix > _INT64_MAX:
        # even ranked partial codes (< m) could overflow: rank the values
        ranks = np.unique(rows, return_inverse=True)[1]
        rows, lo, radix = ranks.reshape(m, w), 0, int(ranks.max()) + 1
    codes = rows[:, 0] - lo
    span = radix
    for c in range(1, w):
        if span * radix > _INT64_MAX:
            codes = np.unique(codes, return_inverse=True)[1]
            span = int(codes.max()) + 1
        codes = codes * radix + (rows[:, c] - lo)
        span *= radix
    return codes


def _image_signatures(aut: OpAutomaton, elem_alpha: np.ndarray, width: int,
                      budget: Budget) -> np.ndarray:
    sigs = np.zeros((1, width), dtype=np.int64)
    for delta in aut.levels:
        budget.check_time()
        cand = delta[sigs[:, None, :], elem_alpha[None, :, :]].reshape(-1, width)
        sigs = cand[np.unique(_row_codes(cand), return_index=True)[1]]
        budget.check_signatures(len(sigs))
    return sigs


def op_image(sp: Subpower, symbol: str,
             budget: Budget = DEFAULT_BUDGET) -> set[tuple[int, ...]]:
    """Exact image {f(args) : args in elements^arity} as raw value tuples."""
    op = sp.base.op(symbol)
    if op.arity == 0:
        return {(op.func(),) * sp.width}
    aut = sp._automaton(op, None)
    elem_alpha = sp._alpha_matrix(aut.alphabet)
    sigs = _image_signatures(aut, elem_alpha, sp.width, budget)
    return set(map(tuple, aut.values[sigs].tolist()))


def close_subpower(base: FiniteAlgebra, width: int,
                   generators: Iterable[Sequence[int]],
                   budget: Budget = DEFAULT_BUDGET) -> Subpower:
    """Least subuniverse of base^width containing the generators."""
    known: set[tuple[int, ...]] = set()
    for g in generators:
        t = tuple(g)
        if len(t) != width:
            raise ValueError(f"generator {t} has width {len(t)}, want {width}")
        for v in t:
            if not (0 <= v < base.size):
                raise ValueError(f"coordinate {v} out of range")
        known.add(t)
    if not known:
        raise ValueError("need at least one generator")

    automata: dict[tuple, OpAutomaton] = {}
    while True:
        budget.check_time()
        alphabet = tuple(sorted({v for t in known for v in t}))
        pos = {v: i for i, v in enumerate(alphabet)}
        ordered = sorted(known)
        elem_alpha = np.asarray([[pos[v] for v in t] for t in ordered], dtype=np.int64)
        new: set[tuple[int, ...]] = set()
        for op in base.ops:
            if op.arity == 0:
                new.add((op.func(),) * width)
                continue
            key = (op.symbol, alphabet)
            aut = automata.get(key)
            if aut is None:
                aut = _build_automaton(op, alphabet)
                automata[key] = aut
            sigs = _image_signatures(aut, elem_alpha, width, budget)
            new.update(map(tuple, aut.values[sigs].tolist()))
        new -= known
        if not new:
            break
        known |= new
        budget.check_elements(len(known))
    return Subpower(base=base, width=width, elements=tuple(sorted(known)))


def translation_maps(sp: Subpower, symbols: Iterable[str] | None = None,
                     budget: Budget = DEFAULT_BUDGET
                     ) -> tuple[list[tuple[int, ...]], list[TranslationStep]]:
    """All distinct unary translation maps on the subpower, with canonical
    witnesses.

    A translation fixes every argument of one operation except one with
    constants drawn from the subpower.  Maps are deduped; the witness kept
    for each map is the first in (operation order, position ascending,
    constants lexicographic) order.  Constants in witnesses are subpower
    element ids in position-ascending order.
    """
    wanted = None if symbols is None else set(symbols)
    n_elems, width = sp.size, sp.width
    elems = np.asarray(sp.elements, dtype=np.int64).reshape(n_elems, width)
    maps: dict[tuple[int, ...], TranslationStep] = {}
    for op in sp.base.ops:
        if op.arity == 0 or (wanted is not None and op.symbol not in wanted):
            continue
        k = op.arity
        for posn in range(k):
            budget.check_time()
            argorder = tuple([p for p in range(k) if p != posn] + [posn])
            aut = sp._automaton(op, argorder)
            elem_alpha = sp._alpha_matrix(aut.alphabet)
            sigs = np.zeros((1, width), dtype=np.int64)
            wits = np.zeros((1, 0), dtype=np.int64)
            for j in range(k - 1):
                delta = aut.levels[j]
                cand = delta[sigs[:, None, :], elem_alpha[None, :, :]]
                cand = cand.reshape(-1, width)
                order = np.sort(np.unique(_row_codes(cand), return_index=True)[1])
                sigs = cand[order]
                wits = np.hstack([wits[order // n_elems], (order % n_elems)[:, None]])
                budget.check_signatures(len(sigs))
            final = aut.levels[k - 1]
            vals = aut.values[final[sigs[:, None, :], elem_alpha[None, :, :]]]
            vals = vals.reshape(-1, width)  # (n_sigs * n_elems, width)
            # elements are sorted, so their codes are too; coding both
            # blocks in one call makes the codes comparable
            codes = _row_codes(np.vstack([elems, vals]))
            elem_codes, img_codes = codes[:n_elems], codes[n_elems:]
            ids = np.minimum(np.searchsorted(elem_codes, img_codes), n_elems - 1)
            escaped = np.flatnonzero(elem_codes[ids] != img_codes)
            if len(escaped):
                t = tuple(vals[escaped[0]].tolist())
                raise ValueError(
                    f"translation image {t} of {op.symbol} escapes the subuniverse"
                )
            for srow, img in enumerate(ids.reshape(len(sigs), n_elems).tolist()):
                key = tuple(img)
                if key not in maps:
                    consts = tuple(wits[srow].tolist())
                    maps[key] = TranslationStep(op.symbol, posn, consts)
                    budget.check_signatures(len(maps))
    return list(maps.keys()), list(maps.values())
