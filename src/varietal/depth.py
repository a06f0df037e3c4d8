"""Congruence generation and chain depth through fundamental translations.

A fundamental translation fixes all arguments of one operation but one
with constants.  Congruences come from one block-merging closure (Freese,
"Computing congruences efficiently", Algebra Universalis 59, 2008).
Depth comes from the pair BFS: the pairs {g(a), g(b)} over composed
translations g, organized by how many translations were composed, form a
layered graph on unordered pairs (layer 0 is {a,b}, layer d+1 holds
unseen images of layer-d pairs).  A pair (c,d) lies in Cg(a,b) iff c and
d are joined by a path of reached pairs, and the least M such that some
path uses only pairs of depth <= M is the chain depth of (c,d) (a
minimax path weight).

Pairs {x,x} are recorded but never expanded: they cannot witness a
nontrivial chain edge.  Enumeration order is canonical (operation order,
position ascending, constants lexicographic), so layers, witnesses and
reports are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import (
    Budget,
    DEFAULT_BUDGET,
    Congruence,
    FiniteAlgebra,
    TranslationStep,
)
from .subpower import Subpower, translation_maps


@dataclass(eq=False)
class TranslationSystem:
    """Deduped unary translation maps with canonical witnesses: row i of
    the C-contiguous intp (maps x universe) table is the map that steps[i]
    witnesses, so label[table[:, x]] gathers the images of x at once."""

    table: np.ndarray
    steps: list[TranslationStep]


def translation_system(target: FiniteAlgebra | Subpower,
                       symbols: Iterable[str] | None = None,
                       budget: Budget = DEFAULT_BUDGET) -> TranslationSystem:
    """The deduped translation maps of `target` with canonical witnesses.
    A plain FiniteAlgebra is enumerated as the width-1 subpower of itself,
    whose element ids are the algebra's own element indices."""
    if not isinstance(target, Subpower):
        target = Subpower(target, 1, tuple((x,) for x in range(target.size)))
    return TranslationSystem(*translation_maps(target, symbols, budget))


def _distinct(codes: np.ndarray) -> np.ndarray:
    codes = np.sort(codes, axis=None)
    return codes[np.diff(codes, prepend=-1) != 0]


def _pair_bfs(table: np.ndarray, a: int, b: int, cap: int | None,
              budget: Budget) -> dict[tuple[int, int], int]:
    """A layer at a time: its pairs' images under every map, gathered from
    table columns as codes min * N + max, in chunks of at most
    max_signatures cells (the cell budget of the automaton layer)."""
    size = table.shape[1]
    source = (a, b) if a <= b else (b, a)
    depth = {source: 0}
    seen = frontier = np.array([source[0] * size + source[1]])
    step = max(1, budget.max_signatures // max(1, len(table)))
    d = 0
    while len(frontier) and (cap is None or d < cap):
        budget.check_time()
        xs, ys = np.divmod(frontier, size)
        xs, ys = xs[xs != ys], ys[xs != ys]
        found = [seen[:0]]
        for lo in range(0, len(xs), step):
            p, q = table[:, xs[lo:lo + step]], table[:, ys[lo:lo + step]]
            codes = np.minimum(p, q)
            codes *= size
            codes += np.maximum(p, q, out=p)
            found.append(_distinct(codes))
        new = _distinct(np.concatenate(found))
        new = new[~np.isin(new, seen)]
        # name the first count past the cap, as a pair-at-a-time check would
        budget.check_pairs(min(len(depth) + len(new), budget.max_pairs + 1))
        d += 1
        px, py = np.divmod(new, size)
        depth.update(dict.fromkeys(zip(px.tolist(), py.tolist()), d))
        seen, frontier = np.union1d(seen, new), new
    return depth


@dataclass(eq=False)
class PairDepthGraph:
    """Minimum translation counts for every unordered pair reached from
    the source pair within the cap (cap=None: to the fixed point)."""

    source: tuple[int, int]
    cap: int | None
    depth: dict[tuple[int, int], int]

    def to_json(self) -> dict:
        pairs = [
            {"x": x, "y": y, "depth": d}
            for (x, y), d in sorted(self.depth.items())
        ]
        return {"source": list(self.source), "cap": self.cap, "pairs": pairs}


def pair_depth_graph(target, a: int, b: int, cap: int | None = None, *,
                     system: TranslationSystem | None = None,
                     symbols: Iterable[str] | None = None,
                     budget: Budget = DEFAULT_BUDGET) -> PairDepthGraph:
    sys_ = system if system is not None else translation_system(target, symbols, budget)
    depth = _pair_bfs(sys_.table, a, b, cap, budget)
    return PairDepthGraph(source=(a, b), cap=cap, depth=depth)


def _closure(target, candidates: Iterable[tuple[int, int]],
             system: TranslationSystem | None, budget: Budget) -> Congruence:
    """Least congruence containing the candidate pairs, by block merging.
    label[x] is the least member of the block of x.  A candidate either
    merges two blocks and is queued, or is dropped: at most |A|-1 merges.
    The images of a queued pair under every translation are the next
    candidates.  Labels, not merge order, fix the output."""
    size = target.size
    label = np.arange(size)
    work: list[tuple[int, int]] = []
    while True:
        for u, v in candidates:
            lu, lv = label[u], label[v]
            if lu != lv:
                lu, lv = min(lu, lv), max(lu, lv)
                label[label == lv] = lu
                work.append((lu, lv))
        if not work:
            return Congruence(tuple(np.unique(label, return_inverse=True)[1].tolist()))
        budget.check_time()
        if system is None:
            system = translation_system(target, None, budget)
        x, y = work.pop()
        p, q = label[system.table[:, x]], label[system.table[:, y]]
        apart = p != q
        codes = np.minimum(p, q)[apart] * size + np.maximum(p, q)[apart]
        candidates = [divmod(c, size) for c in np.unique(codes).tolist()]


def principal_congruence(target, a: int, b: int, *,
                         system: TranslationSystem | None = None,
                         budget: Budget = DEFAULT_BUDGET) -> Congruence:
    """Cg(a,b): the least congruence relating a and b."""
    return _closure(target, [(a, b)], system, budget)


def congruence_from_pairs(target, pairs: Iterable[tuple[int, int]], *,
                          system: TranslationSystem | None = None,
                          budget: Budget = DEFAULT_BUDGET) -> Congruence:
    """Least congruence containing all the pairs (the join of their
    principal congruences)."""
    return _closure(target, pairs, system, budget)


def _adjacency(depth: dict[tuple[int, int], int]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for (x, y), d in sorted(depth.items()):
        if x == y:
            continue
        adj.setdefault(x, []).append((y, d))
        adj.setdefault(y, []).append((x, d))
    return adj


def _bottleneck(adj: dict[int, list[tuple[int, int]]], src: int, dst: int) -> int | None:
    best: dict[int, int] = {src: 0}
    heap: list[tuple[int, int]] = [(0, src)]
    while heap:
        w, u = heapq.heappop(heap)
        if w > best.get(u, 1 << 60):
            continue
        if u == dst:
            return w
        for v, ew in adj.get(u, ()):
            nw = max(w, ew)
            if nw < best.get(v, 1 << 60):
                best[v] = nw
                heapq.heappush(heap, (nw, v))
    return None


def _lex_shortest_path(adj, src: int, dst: int, limit: int) -> list[int] | None:
    """Lexicographically smallest among minimum-hop src->dst paths in the
    subgraph of edges with weight <= limit."""
    from collections import deque

    nbrs: dict[int, list[int]] = {}
    for u, edges in adj.items():
        nbrs[u] = sorted({v for v, w in edges if w <= limit})
    if src == dst:
        return [src]

    def bfs(start):
        dist = {start: 0}
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for v in nbrs.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        return dist

    d_src = bfs(src)
    if dst not in d_src:
        return None
    d_dst = bfs(dst)
    total = d_src[dst]
    path = [src]
    u = src
    while u != dst:
        step = d_src[u] + 1
        u = min(v for v in nbrs.get(u, ())
                if d_dst.get(v, 1 << 60) + step == total)
        path.append(u)
    return path


def maltsev_depth(target, gen: tuple[int, int], pair: tuple[int, int],
                  cap: int | None = None, *,
                  system: TranslationSystem | None = None,
                  budget: Budget = DEFAULT_BUDGET) -> int | None:
    """Minimax chain depth of `pair` inside Cg(gen): the least M such that
    a Maltsev chain links the pair using only translation polynomials of
    depth <= M.  None when the pair is not connected within the cap."""
    c, d = pair
    if c == d:
        return 0
    graph = pair_depth_graph(target, gen[0], gen[1], cap,
                             system=system, budget=budget)
    return _bottleneck(_adjacency(graph.depth), c, d)


def maltsev_chain(target, gen: tuple[int, int], pair: tuple[int, int],
                  cap: int | None = None, *,
                  system: TranslationSystem | None = None,
                  budget: Budget = DEFAULT_BUDGET
                  ) -> tuple[int, list[int]] | None:
    """Like maltsev_depth but also returns a witness chain of elements:
    the minimax value, then among minimax-optimal chains one with fewest
    edges, lexicographically smallest."""
    c, d = pair
    if c == d:
        return 0, [c]
    graph = pair_depth_graph(target, gen[0], gen[1], cap,
                             system=system, budget=budget)
    adj = _adjacency(graph.depth)
    value = _bottleneck(adj, c, d)
    if value is None:
        return None
    path = _lex_shortest_path(adj, c, d, value)
    if path is None:
        raise RuntimeError(f"no path of weight <= {value} from {c} to {d}")
    return value, path
