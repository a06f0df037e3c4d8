"""Congruence generation and chain depth through fundamental translations.

A fundamental translation fixes all arguments of one operation but one
with constants.  The pair walk from (a,b) visits the pairs {g(a), g(b)}
over composed translations g, layer by layer, to its fixed point: layer
0 is {a,b}, layer d+1 holds unseen images of layer-d pairs, and the
walk lists its pairs in layer order.  By Mal'cev's lemma Cg(a,b) is the
equivalence generated by the reached pairs, so one walk serves Cg(a,b),
depth and f-char: a pair (c,d) lies in Cg(a,b) iff c and d are joined by
a path of reached pairs.  The chain depth of (c,d) is the least M such
that some such path uses only pairs of depth <= M (a minimax path
weight), so it is the least layer M whose reached pairs of depth <= M
generate an equivalence relating c and d.  The all-pairs job takes one
pass over the pair graph (each pair to its images): a strongly connected
component's pairs share their Cg, and Tarjan's components, finished
sinks first, each join their successors' Cg and their own pairs.

Pairs {x,x} are recorded but never expanded: they cannot witness a
nontrivial chain edge.  Enumeration order is canonical (operation order,
position ascending, constants lexicographic), so layers, witnesses and
reports are reproducible.

As Mal'cev's lemma needs only the translations, every engine here takes
a TranslationSystem and nothing else of the algebra;
`translation_system` builds one for any FiniteAlgebra or Subpower.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .algebra import (
    Budget,
    DEFAULT_BUDGET,
    Congruence,
    FiniteAlgebra,
    TranslationStep,
    _generated,
)
from .subpower import Subpower, _distinct, translation_maps


class TranslationSystem:
    """Deduped unary translation maps with canonical witnesses: row i of
    the C-contiguous (maps x universe) table is the map that steps[i]
    witnesses, so label[table[:, x]] gathers the images of x at once.  The
    table holds element ids in the narrowest unsigned dtype for the
    universe, so arithmetic on them widens first."""

    def __init__(self, table: np.ndarray, steps: list[TranslationStep]):
        self.table = table
        self.steps = steps


def translation_system(target: FiniteAlgebra | Subpower,
                       symbols: Iterable[str] | None = None,
                       budget: Budget = DEFAULT_BUDGET) -> TranslationSystem:
    """The deduped translation maps of `target` with canonical witnesses.
    A plain FiniteAlgebra is enumerated as the width-1 subpower of itself,
    whose element ids are the algebra's own element indices."""
    if not isinstance(target, Subpower):
        target = Subpower(target, 1, tuple((x,) for x in range(target.size)))
    return TranslationSystem(*translation_maps(target, symbols, budget))


class PairDepthGraph:
    """The pair walk from a source pair on a universe of `size` elements:
    `pairs` is a (P, 2) intp array of the reached pairs (x, y), x <= y, in
    layer order, and depth[i] is the layer of pairs[i], the least number
    of translations that take the source pair onto it."""

    def __init__(self, size: int, pairs: np.ndarray, depth: np.ndarray):
        self.size = size
        self.pairs = pairs
        self.depth = depth

    def congruence(self) -> Congruence:
        """Cg of the source pair: the equivalence the reached pairs generate."""
        return Congruence(_generated(np.arange(self.size), *self.pairs.T))


def pair_depth_graph(system: TranslationSystem, a: int, b: int, *,
                     budget: Budget = DEFAULT_BUDGET) -> PairDepthGraph:
    """The pair walk from (a, b), a layer at a time: its pairs' images
    under every map, gathered from table columns as codes min * N + max,
    in the blocks of `Budget.blocks`.  Each layer's new codes are sorted
    and appended, so depths never decrease along the pairs."""
    table = system.table
    size = table.shape[1]
    seen = frontier = np.array([min(a, b) * size + max(a, b)])
    layers = [frontier]
    while len(frontier):
        xs, ys = np.divmod(frontier, size)
        xs, ys = xs[xs != ys], ys[xs != ys]
        found = [seen[:0]]
        for part in budget.blocks(len(xs), len(table)):
            p, q = table[:, xs[part]], table[:, ys[part]]
            codes = np.minimum(p, q, dtype=np.int64)
            codes *= size
            codes += np.maximum(p, q, out=p)
            found.append(_distinct(codes))
        new = _distinct(np.concatenate(found))
        new = new[~np.isin(new, seen, assume_unique=True)]
        # name the first count past the cap, as a pair-at-a-time check would
        budget.check_pairs(min(len(seen) + len(new), budget.max_pairs + 1))
        layers.append(new)
        seen, frontier = _distinct(np.concatenate([seen, new])), new
    pairs = np.stack(np.divmod(np.concatenate(layers), size), 1).astype(np.intp)
    depth = np.repeat(np.arange(len(layers)), [len(layer) for layer in layers])
    return PairDepthGraph(size, pairs, depth)


def maltsev_depth(graph: PairDepthGraph, pair: tuple[int, int]) -> int | None:
    """Minimax chain depth of `pair` inside the walk's Cg: the least layer
    m whose reached pairs of depth <= m generate an equivalence relating
    the ends.  One forest is hooked a layer at a time, so each pair is
    hooked once.  0 when the ends are equal; None when no layer relates
    them."""
    c, d = pair
    if c == d:
        return 0
    forest = np.arange(graph.size)
    ends = np.searchsorted(graph.depth, np.arange(graph.depth[-1] + 1), side="right")
    for m, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
        forest = _generated(forest, *graph.pairs[lo:hi].T)
        if forest[c] == forest[d]:
            return m
    return None


def _pair_graph(table: np.ndarray, pairs: np.ndarray,
                budget: Budget) -> tuple[list[int], memoryview]:
    """CSR (indptr, successors) of the pair graph, i -> j when a translation
    maps pair i onto pair j: ranked per first element in the blocks of
    `Budget.blocks`, deduped as codes i * (P + 1) + j (rank P: x = y)."""
    count = len(pairs)
    # int32 ranks: fewer than 2**31 pairs for any N x N rank that fits memory
    rank = np.full((table.shape[1],) * 2, -1, dtype=np.int32)
    rank[pairs[:, 0], pairs[:, 1]] = rank[pairs[:, 1], pairs[:, 0]] = np.arange(count)
    np.fill_diagonal(rank, count)
    edges, links = [np.zeros(0, dtype=np.intp)], 0
    for x in dict.fromkeys(pairs[:, 0].tolist()):
        group = np.flatnonzero(pairs[:, 0] == x)
        for part in budget.blocks(len(group), len(table)):
            src = group[part]
            ys = pairs[src, 1]
            dst = rank.take(table[:, x, None].astype(np.intp) * len(rank) + table[:, ys])
            if (dst < 0).any():
                m, j = np.unravel_index(np.argmax(dst < 0), dst.shape)
                raise ValueError(f"image {table[m, [x, ys[j]]].tolist()} of pair "
                                 f"{pairs[src[j]].tolist()} is not a listed pair")
            dst = dst + src * (count + 1)
            src, dst = np.divmod(codes := _distinct(dst), count + 1)
            edges.append(codes[(dst != count) & (dst != src)])
            budget.check_pairs(links := links + len(edges[-1]))
    edges = np.concatenate(edges)
    edges.sort()
    indptr = np.searchsorted(edges, np.arange(count + 1) * (count + 1)).tolist()
    edges %= count + 1
    return indptr, memoryview(edges)


def _components(indptr: list[int], successors: memoryview, budget: Budget):
    """Strongly connected components, each after those it reaches (Tarjan,
    SIAM J. Comput. 1972, iterative)."""
    size, counter = len(indptr) - 1, 0
    index, low, stack, path = [-1] * size, [0] * size, [], []
    for root in range(size):
        w = root if index[root] < 0 else None
        while w is not None or path:
            if w is not None:
                index[w] = low[w] = counter
                counter += 1
                path.append([w, indptr[w], len(stack)])
                stack.append(w)
            (v, i, base), end, w = path[-1], indptr[path[-1][0] + 1], None
            while i < end and (seen := index[successors[i]]) >= 0:
                if seen < low[v]:
                    low[v] = seen
                i += 1
            if i < end:
                path[-1][1], w = i + 1, successors[i]
                continue
            path.pop()
            if path:
                low[path[-1][0]] = min(low[path[-1][0]], low[v])
            if low[v] == index[v]:
                members, stack[base:] = stack[base:], []
                for u in members:
                    index[u] = size   # closed: above every lowlink
                budget.check_time()
                yield members


def principal_congruences(system: TranslationSystem,
                          pairs: Iterable[tuple[int, int]], *,
                          budget: Budget = DEFAULT_BUDGET) -> list[Congruence]:
    """Cg(x, y) for every listed pair, in one pass over the pair graph (see
    the module docstring).  Components share successor sets, so the join
    of each distinct set takes one hooking pass, from one member's least
    form, and the own pairs a component's join leaves unrelated take one
    more.  The distinct least forms are interned by their bytes, and each
    becomes one Congruence at the end.  An image that is not listed
    raises ValueError; all pairs, or the pairs inside a congruence's
    blocks, are closed."""
    pairs = np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2)
    budget.check_pairs(len(pairs))
    indptr, successors = _pair_graph(system.table, pairs, budget)
    size, xs, ys = system.table.shape[1], pairs[:, 0].tolist(), pairs[:, 1].tolist()
    forms = [np.arange(size)]   # interned least forms; 0 is the identity
    ids = {forms[0].tobytes(): 0}
    joins = {frozenset(): 0}     # the join of each successor set met so far

    def hooked(start: int, us: np.ndarray, vs: np.ndarray) -> int:
        least = _generated(forms[start].copy(), us, vs)
        if ids.setdefault(least.tobytes(), len(forms)) == len(forms):
            forms.append(least)
        return ids[least.tobytes()]

    cg = [0] * len(pairs)        # the identity until the pair's component closes
    for members in _components(indptr, successors, budget):
        succ = frozenset({cg[w] for v in members
                          for w in successors[indptr[v]:indptr[v + 1]]} - {0})
        if succ not in joins:
            first, *rest = succ
            joins[succ] = first if not rest else hooked(
                first, np.tile(forms[0], len(rest)),
                np.concatenate([forms[s] for s in rest]))
        acc = joins[succ]
        own = [v for v in members if forms[acc][xs[v]] != forms[acc][ys[v]]]
        if own:
            acc = hooked(acc, np.array([xs[v] for v in own], dtype=np.intp),
                         np.array([ys[v] for v in own], dtype=np.intp))
        for v in members:
            cg[v] = acc
    congs = [Congruence(least) for least in forms]
    return [congs[i] for i in cg]
