"""Subalgebras of finite powers: closure, images, translation maps.

A Subpower evaluates its operations on raw tuples or on element ids and
builds no induced algebra: by Mal'cev's lemma the congruence engines
need only its translation maps (`translation_maps`, or
`depth.translation_system` for any algebra).

Operations act coordinatewise, so bulk work runs on the base operation
restricted to the values occurring in coordinates (the alphabet).  Each
operation gets a layered automaton whose level-j states are suffix classes:
prefixes reaching one state agree under every completion.  So a tuple of
per-coordinate states (a signature) is all a partial argument choice can
still do, a few hundred signatures even for arity-5 operations.  An
automaton depends only on the operation, the alphabet and the argument
order, so each algebra keeps its automata in one cache (its `automata`
field) keyed by (symbol, alphabet, argument order), shared by every
closure round, subpower and width over that algebra.

On a small alphabet many operations coincide: on B_n's {0, D, bD} eleven
of the fifteen non-nullary operations of the halting machine's algebra
are constant 0.  Each automaton carries a content key (its level shapes
and bytes, and its final values), and a closure round or a translation
pass sweeps each key once.  This is exact: equal automata reach equal
signatures with equal witnesses, so a repeated closure sweep adds no
image, and a repeated translation sweep adds only maps already in the
table, each already witnessed earlier in canonical order.

A level step takes each (signature s, element e) cell to delta[s[c], e[c]]
per coordinate c.  No cells x width block is built: a cell's code folds
one coordinate at a time in radix (first most significant, so code order
is row order); where a multiply would pass a cap, partial codes are
replaced by their ranks among all cells, found in one more pass.  Signature
codes are deduped without sorting: every code lies below a span of at most
Budget.max_signatures (the cap; past it the codes are re-ranked, and a
level with more signatures than the cap is a budget skip), and one
first-occurrence table of span entries, charged before it is allocated,
keeps each code's least flat cell index (np.minimum.at).  The entries that
were reached, sorted, are the first cells of the distinct signatures in
first-reached order; only they are expanded back into rows.  Cells are
coded in blocks of signature rows from `Budget.blocks`.

A translation row maps x to (F_1(x_1), ..., F_w(x_w)), F_c the letter map
of its state at coordinate c.  Two rows give one map iff their F_c agree on
V_c, the letters at coordinate c (where they differ at l, an element with
x_c = l tells them apart), so the F_c on V_c are an exact key, not a hash:
only the first row with each key is imaged.  An image is coded by the
alphabet positions of its values (capped only by int64), so np.searchsorted
on the sorted elements' codes gives its element id.

Every integer array is as narrow as its range allows.  Automaton levels
hold next-level state ids in the smallest unsigned dtype (uint8 in
practice).  Signature codes are int32 when the cap times the radix stays
below 2**31; the first-occurrence table and its cell indices are int32
below 2**31 cells, one dtype for both, as np.minimum.at is slow on mixed
ones.  Translation images keep int64 codes.  The translation table holds
element ids in the smallest unsigned dtype for the universe, so its
readers widen them before any arithmetic.

Enumeration order is canonical everywhere: operations in declared order,
argument positions ascending, constants in lexicographic element order;
the first witness reaching a signature is kept, so reported translation
witnesses are lexicographically least.
"""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Iterable, NamedTuple, Sequence

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
# words evaluated between two deadline checks of an automaton build
_WORDS_PER_CHECK = 1 << 16


class OpAutomaton(NamedTuple):
    """One operation on an alphabet as a layered automaton of suffix classes."""
    arity: int
    alphabet: tuple[int, ...]
    levels: tuple[np.ndarray, ...]   # levels[j]: (states_j, |alphabet|) -> states_{j+1}
    values: np.ndarray               # final state id -> base element
    key: tuple                       # equal keys: equal levels and values


def _build_automaton(op: Operation, alphabet: tuple[int, ...],
                     argorder: tuple[int, ...] | None = None,
                     budget: Budget = DEFAULT_BUDGET) -> OpAutomaton:
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
    words = product(alphabet, repeat=k)
    for _ in range(0, m ** k, _WORDS_PER_CHECK):
        budget.check_time()
        for word in islice(words, _WORDS_PER_CHECK):
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

    # each level holds next-level state ids in the narrowest dtype for them
    levels_rev: list[np.ndarray] = []
    states = len(ids)
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
        levels_rev.append(np.asarray(delta, dtype=np.min_scalar_type(states - 1)))
        arr, states = new_arr, len(rows)
    levels_rev.reverse()
    key = (tuple(level.shape for level in levels_rev),
           b"".join(level.tobytes() for level in levels_rev), values.tobytes())
    return OpAutomaton(arity=k, alphabet=alphabet, levels=tuple(levels_rev),
                       values=values, key=key)


def _automaton(base: FiniteAlgebra, op: Operation, alphabet: tuple[int, ...],
               argorder: tuple[int, ...] | None = None, *,
               budget: Budget = DEFAULT_BUDGET) -> OpAutomaton:
    """The automaton of base's operation op over alphabet, built once per
    (symbol, alphabet, argument order) and kept in base.automata."""
    key = (op.symbol, alphabet,
           tuple(range(op.arity)) if argorder is None else argorder)
    aut = base.automata.get(key)
    if aut is None:
        aut = base.automata[key] = _build_automaton(op, alphabet, key[2], budget)
    return aut


class Subpower:
    """A subuniverse of base^width, closed under every operation.

    elements are sorted lexicographically; index maps tuple -> position,
    the element id.  Operations act on raw tuples (`eval_tuple`) or on
    element ids (`eval`).
    """

    def __init__(self, base: FiniteAlgebra, width: int,
                 elements: tuple[tuple[int, ...], ...]):
        self.base = base
        self.width = width
        self.elements = elements
        self.index = {t: i for i, t in enumerate(elements)}
        for op in base.ops:
            if op.arity == 0 and (op.func(),) * width not in self.index:
                raise ValueError(f"{op.symbol} constant escapes the subuniverse")

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

    def eval(self, symbol: str, ids: Sequence[int]) -> int:
        """Apply a base operation to element ids: the id of the image of
        their tuples, which must lie in the subuniverse."""
        for i in ids:
            if not 0 <= i < self.size:
                raise ValueError(f"element index {i} out of range")
        out = self.eval_tuple(symbol, [self.elements[i] for i in ids])
        if out not in self.index:
            raise ValueError(f"{symbol} image {out} escapes the subuniverse")
        return self.index[out]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct values of codes, flattened: np.unique without
    its cost on large arrays, and without importing numpy.ma."""
    codes = codes.flatten()
    codes.sort()
    keep = np.empty(codes.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _row_codes(blocks, width: int, radix: int, budget: Budget,
               cap: int = _INT64_MAX):
    """(span, iterator of (first row, codes) per block of blocks()), where
    blocks() yields (first row, column) with column(c) holding coordinate c
    of its rows, in [0, radix), and every code lies in [0, span), span <=
    cap unless the rows have more distinct codes than cap; the fold and
    its re-ranking are described in the module docstring."""
    limit = min(cap, _INT64_MAX)
    # a code lies below limit, or below radix times a rank table's length,
    # which is charged to the budget
    bound = max(limit, budget.max_signatures) * radix
    dtype = np.int32 if bound < 2 ** 31 else np.int64
    ranks: dict[int, np.ndarray] = {}

    def fold(column, upto: int) -> np.ndarray:
        codes = column(0).astype(dtype)
        for c in range(1, upto + 1):
            if c in ranks:
                codes = np.searchsorted(ranks[c], codes).astype(dtype, copy=False)
            if c < upto:
                codes *= radix
                codes += column(c)
        return codes

    def rank(upto: int) -> int:
        # ranks[upto]: the distinct codes of the first upto coordinates
        table = np.zeros(0, dtype=dtype)
        for _, column in blocks():
            table = _distinct(np.concatenate([table, fold(column, upto).ravel()]))
            budget.check_signatures(len(table))
        ranks[upto] = table
        return len(table)

    span = radix
    for c in range(1, width):
        if span * radix > limit:
            span = rank(c)
        span *= radix
    if span > limit:
        span = rank(width)
    return span, ((lo, fold(column, width)) for lo, column in blocks())


def _blocks(table: np.ndarray, sigs: np.ndarray, cols: np.ndarray,
            budget: Budget):
    """(first signature, column) per block of signature rows (one row
    being a cell per element), where column(c)[s, e] = table[sigs[s, c],
    cols[c, e]] for elements e."""
    for part in budget.blocks(len(sigs), cols.shape[1]):
        rows = np.ascontiguousarray(sigs[part].T)
        yield int(part[0]), lambda c, rows=rows: table[rows[c]].take(cols[c], axis=1)


def _signatures(levels, elem_alpha: np.ndarray,
                budget: Budget) -> tuple[np.ndarray, np.ndarray]:
    """The distinct state signatures after `levels`, in first-reached order
    over (signature, element) cells, with the element ids reaching each."""
    n_elems, width = elem_alpha.shape
    cols = np.ascontiguousarray(elem_alpha.T)
    sigs, wits = np.zeros((1, width), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    for delta in levels:
        radix = int(delta.max()) + 1
        # a level into state 0 alone has one signature, first reached at cell 0
        first = np.zeros(1, dtype=np.int64)
        if radix > 1:
            span, coded = _row_codes(lambda: _blocks(delta, sigs, cols, budget),
                                     width, radix, budget, budget.max_signatures)
            # least[code]: the least flat cell index with that code, or cells
            cells = len(sigs) * n_elems
            budget.check_signatures(span)
            # one dtype for the table and the cell indices: np.minimum.at
            # takes a slow casting path on mixed ones
            dtype = np.int32 if cells < 2 ** 31 else np.int64
            least = np.full(span, cells, dtype=dtype)
            for lo, block in coded:
                np.minimum.at(least, block.ravel(),
                              np.arange(lo * n_elems, lo * n_elems + block.size,
                                        dtype=dtype))
            first = np.sort(least[least < cells])
        s, e = np.divmod(first, n_elems)
        sigs = delta[sigs[s], elem_alpha[e]]
        wits = np.concatenate([wits[s], e[:, None]], axis=1)
    return sigs, wits


def op_image(sp: Subpower, symbol: str,
             budget: Budget = DEFAULT_BUDGET) -> set[tuple[int, ...]]:
    """Exact image {f(args) : args in elements^arity} as raw value tuples."""
    op = sp.base.op(symbol)
    if op.arity == 0:
        return {(op.func(),) * sp.width}
    aut = _automaton(sp.base, op, sp.coordinate_alphabet(), budget=budget)
    sigs, _ = _signatures(aut.levels, np.searchsorted(aut.alphabet, np.asarray(sp.elements)),
                          budget)
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

    while True:
        budget.check_time()
        alphabet = tuple(sorted({v for t in known for v in t}))
        elem_alpha = np.searchsorted(alphabet, np.asarray(sorted(known)))
        new: set[tuple[int, ...]] = set()
        swept: set[tuple] = set()
        for op in base.ops:
            if op.arity == 0:
                new.add((op.func(),) * width)
                continue
            aut = _automaton(base, op, alphabet, budget=budget)
            if aut.key in swept:
                continue
            swept.add(aut.key)
            sigs, _ = _signatures(aut.levels, elem_alpha, budget)
            new.update(map(tuple, aut.values[sigs].tolist()))
        new -= known
        if not new:
            break
        known |= new
        budget.check_elements(len(known))
    return Subpower(base=base, width=width, elements=tuple(sorted(known)))


def translation_maps(sp: Subpower, symbols: Iterable[str] | None = None,
                     budget: Budget = DEFAULT_BUDGET
                     ) -> tuple[np.ndarray, list[TranslationStep]]:
    """All distinct unary translation maps on the subpower, as the rows of
    one C-contiguous (maps x universe) table, with canonical witnesses.  The
    table holds element ids in the narrowest unsigned dtype for the universe
    (uint8 up to 256 elements, uint16 up to 65536): widen before arithmetic.

    A translation fixes every argument of one operation except one with
    constants drawn from the subpower.  Maps are deduped before imaging
    (module docstring); the witness kept for each is the first in (operation
    order, position ascending, constants lexicographic) order.  Constants in
    witnesses are subpower element ids in position-ascending order.
    """
    wanted = None if symbols is None else set(symbols)
    n_elems, width = sp.size, sp.width
    letters = sp.coordinate_alphabet()
    alphabet = np.asarray(letters, dtype=np.int64)
    elem_alpha, m = np.searchsorted(alphabet, np.asarray(sp.elements)), len(alphabet)
    cols = np.ascontiguousarray(elem_alpha.T)
    # present[c, l]: letter l occurs at coordinate c
    present = np.zeros((width, m), dtype=bool)
    present[np.arange(width), elem_alpha] = True
    value_dtype = np.min_scalar_type(sp.base.size - 1)
    table = np.zeros((0, n_elems), dtype=np.min_scalar_type(n_elems - 1))
    seen, steps = set(), []
    swept: set[tuple] = set()
    for op in sp.base.ops:
        if op.arity == 0 or (wanted is not None and op.symbol not in wanted):
            continue
        k = op.arity
        for posn in range(k):
            argorder = tuple([p for p in range(k) if p != posn] + [posn])
            aut = _automaton(sp.base, op, letters, argorder, budget=budget)
            if aut.key in swept:
                continue
            swept.add(aut.key)
            sigs, wits = _signatures(aut.levels[:-1], elem_alpha, budget)
            final = aut.levels[-1]
            # a row's key: the value each coordinate gives each letter
            # occurring there; equal keys iff equal maps
            keys = aut.values.astype(value_dtype)[final][sigs][:, present]
            fresh = []
            for i, key in enumerate(map(bytes, keys)):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            budget.check_signatures(len(seen))
            sigs, wits = sigs[fresh], wits[fresh]
            # image values by alphabet position, m for one outside it; the
            # elements are coded first, so they share the ranks
            pos = np.searchsorted(alphabet, aut.values)
            pos[alphabet[np.minimum(pos, m - 1)] != aut.values] = m
            pos = pos.astype(np.min_scalar_type(m))
            _, coded = _row_codes(lambda: chain([(0, cols.__getitem__)],
                                                _blocks(pos[final], sigs, cols, budget)),
                                  width, m + 1, budget)
            elem_codes = next(coded)[1]
            count = len(table)
            table.resize((len(seen), n_elems), refcheck=False)
            for lo, img in coded:
                ids = np.minimum(np.searchsorted(elem_codes, img), n_elems - 1)
                escaped = np.flatnonzero(elem_codes[ids] != img)
                if len(escaped):
                    s, e = divmod(int(escaped[0]), n_elems)
                    t = tuple(aut.values[final[sigs[lo + s], elem_alpha[e]]].tolist())
                    raise ValueError(f"translation image {t} of {op.symbol} "
                                     "escapes the subuniverse")
                table[count + lo:count + lo + len(ids)] = ids
            steps += [TranslationStep(op.symbol, posn, tuple(w)) for w in wits.tolist()]
    return table, steps
