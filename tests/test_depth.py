import time
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

import oracles
from support import table_op
from varietal import build_bn, depth as depth_module
from varietal.algebra import Budget, BudgetExceeded, FiniteAlgebra
from varietal.depth import (
    PairDepthGraph,
    maltsev_depth,
    pair_depth_graph,
    principal_congruences,
    TranslationSystem,
    translation_system,
)
from varietal.witness import verify_f_characterization


def cg(system, a, b, **kwargs):
    """Cg(a, b): the equivalence the pair walk from (a, b) generates."""
    return pair_depth_graph(system, a, b, **kwargs).congruence()


def listed(graph):
    """The walk's pairs, each with its depth, in the walk's order."""
    return list(zip(map(tuple, graph.pairs.tolist()), graph.depth.tolist()))


def layered_bfs(maps, a, b, cap):
    """Re-derivation of the pair layers: each round expands every pair
    seen so far (not just the frontier), so agreement is meaningful."""
    src = (a, b) if a <= b else (b, a)
    layers = [{src}]
    seen = {src}
    for _ in range(cap if cap is not None else 10 ** 6):
        cur = set()
        for layer in layers:
            for x, y in layer:
                if x == y:
                    continue
                for mp in maps:
                    p, q = mp[x], mp[y]
                    cur.add((p, q) if p <= q else (q, p))
        new = cur - seen
        if not new:
            break
        layers.append(new)
        seen |= new
    depth = {}
    for d, layer in enumerate(layers):
        for pair in layer:
            depth.setdefault(pair, d)
    return depth


def minimax_closure(depth, size):
    """All-pairs bottleneck weights by Floyd-Warshall."""
    inf = 10 ** 9
    w = [[inf] * size for _ in range(size)]
    for i in range(size):
        w[i][i] = 0
    for (x, y), d in depth.items():
        if x != y and d < w[x][y]:
            w[x][y] = w[y][x] = d
    for k in range(size):
        for i in range(size):
            wik = w[i][k]
            if wik == inf:
                continue
            for j in range(size):
                cand = max(wik, w[k][j])
                if cand < w[i][j]:
                    w[i][j] = cand
    return w


def test_pair_bfs_matches_layered_rederivation(ctx2, ctx3, ctx4):
    for ctx in (ctx2, ctx3, ctx4):
        system = ctx.system()
        graph = pair_depth_graph(system, ctx.a_id, ctx.zero_id)
        expected = layered_bfs(system.table.tolist(), ctx.a_id, ctx.zero_id,
                               None)
        walk = listed(graph)
        assert dict(walk) == expected and len(walk) == len(expected), ctx.n
        # layer order, from the source pair, each pair with x <= y
        assert walk[0] == ((min(ctx.a_id, ctx.zero_id),
                            max(ctx.a_id, ctx.zero_id)), 0)
        assert graph.depth.tolist() == sorted(graph.depth.tolist())
        assert (graph.pairs[:, 0] <= graph.pairs[:, 1]).all()


class GatherLog(np.ndarray):
    """A translation table that logs the column count of each gather."""

    def __getitem__(self, key):
        if isinstance(key, tuple):
            self.log.append(np.size(key[1]))
        return np.asarray(super().__getitem__(key))


def test_pair_bfs_chunks_follow_the_cell_budget_not_max_pairs(ctx3):
    # a chunk of table columns holds at most max_signatures cells; a huge
    # max_pairs only lets the walk grow, it sizes no array
    system = ctx3.system()
    maps = len(system.table)
    full = listed(pair_depth_graph(system, ctx3.a_id, ctx3.zero_id))
    for cells in (maps, 3 * maps):
        table = system.table.view(GatherLog)
        table.log = []
        logged = TranslationSystem(table, system.steps)
        budget = Budget(max_pairs=10 ** 12, max_signatures=cells)
        assert listed(pair_depth_graph(logged, ctx3.a_id, ctx3.zero_id,
                                       budget=budget)) == full
        assert max(table.log) == cells // maps


def test_pair_passes_charge_a_block_before_they_gather_it(ctx3):
    """A pair's column of images takes one cell a map: 103 on B_3, over a
    cap of 50, so neither the walk nor the pair graph gathers a block."""
    system = ctx3.system()
    assert len(system.table) == 103
    table = system.table.view(GatherLog)
    table.log = []
    logged = TranslationSystem(table, system.steps)
    pairs = list(combinations(range(ctx3.subpower.size), 2))
    for run in (lambda budget: pair_depth_graph(logged, ctx3.a_id, ctx3.zero_id,
                                                budget=budget),
                lambda budget: principal_congruences(logged, pairs, budget=budget)):
        with pytest.raises(BudgetExceeded) as info:
            run(Budget(max_signatures=50))
        assert info.value.what == "max_signatures"
        assert "103 > 50" in str(info.value)
    assert table.log == []


def test_pair_walk_checks_the_deadline_once_per_block(ctx3):
    """At one pair a block, the walk checks the deadline at every pair it
    expands, so a deadline passing inside a layer stops that layer."""
    system = ctx3.system()
    ticks, limit = [], None

    class Ticking(Budget):
        def check_time(self):
            ticks.append(None)
            if limit is not None and len(ticks) > limit:
                raise BudgetExceeded("max_seconds")

    def walk():
        ticks.clear()
        return pair_depth_graph(system, ctx3.a_id, ctx3.zero_id,
                                budget=Ticking(max_signatures=len(system.table)))

    # every reached pair off the diagonal is expanded once
    layers = Counter(d for (x, y), d in listed(walk()) if x != y)
    assert len(ticks) == sum(layers.values())
    layer, width = layers.most_common(1)[0]
    assert width >= 2
    # the deadline passes after the first pair of that layer
    limit = sum(count for d, count in layers.items() if d < layer) + 1
    with pytest.raises(BudgetExceeded) as info:
        walk()
    assert info.value.what == "max_seconds" and len(ticks) == limit + 1


def test_cap_is_a_prefix_of_the_uncapped_graph(ctx2, ctx3, ctx4):
    # f-char keeps the pairs of the shared walk within n+2 layers
    for ctx in (ctx2, ctx3, ctx4):
        report = verify_f_characterization(ctx)
        expected = layered_bfs(ctx.system().table.tolist(), ctx.a_id,
                               ctx.zero_id, ctx.n + 2)
        assert report.witnesses[0]["pairs_reached"] == len(expected), ctx.n


def test_reached_pairs_lie_in_the_principal_congruence(ctx2):
    system = ctx2.system()
    graph = pair_depth_graph(system, ctx2.a_id, ctx2.zero_id)
    theta = cg(system, ctx2.a_id, ctx2.zero_id)
    pairs = graph.pairs.tolist()
    for x, y in pairs:
        assert theta.relates(x, y)
    nontrivial = {e for bl in theta.blocks() if len(bl) > 1 for e in bl}
    touched = {e for pair in pairs for e in pair if pair[0] != pair[1]}
    assert touched == nontrivial


def test_principal_congruence_matches_bucket_oracle(ctx2, ctx3, b3_op_values):
    sp2 = ctx2.subpower
    tables2 = oracles.subpower_op_values(sp2)
    cases = [(ctx2, tables2, x, y)
             for x, y in product(range(sp2.size), repeat=2)]
    cases += [(ctx3, b3_op_values, x, ctx3.zero_id)
              for x in range(ctx3.subpower.size)]
    for ctx, tables, x, y in cases:
        theta = cg(ctx.system(), x, y)
        least = oracles.bucket_congruence(ctx.subpower.size, tables, [(x, y)])
        assert tuple(theta.least.tolist()) == least, (ctx.n, x, y)


def test_principal_congruences_match_bucket_oracle(ctx2, ctx3, b3_op_values):
    for ctx, tables in ((ctx2, oracles.subpower_op_values(ctx2.subpower)),
                        (ctx3, b3_op_values)):
        pairs = list(combinations(range(ctx.subpower.size), 2))
        got = principal_congruences(ctx.system(), pairs)
        for (x, y), theta in zip(pairs, got):
            least = oracles.bucket_congruence(ctx.subpower.size, tables, [(x, y)])
            assert tuple(theta.least.tolist()) == least, (ctx.n, x, y)


def test_principal_congruences_match_one_closure_per_pair(ctx4):
    sp, system = ctx4.subpower, ctx4.system()
    pairs = list(combinations(range(sp.size), 2))
    got = principal_congruences(system, pairs)
    assert len(pairs) == len(got) == 435
    for (x, y), theta in zip(pairs, got):
        assert theta == cg(system, x, y), (x, y)


def test_principal_congruences_take_pairs_in_any_order_and_orientation(ctx3):
    sp, system = ctx3.subpower, ctx3.system()
    pairs = list(combinations(range(sp.size), 2))
    shuffled = [(y, x) if i % 3 else (x, y) for i, (x, y) in enumerate(pairs[::-1])]
    # a repeated and a reflexive pair ride along
    shuffled += [shuffled[0], (4, 4)]
    got = principal_congruences(system, shuffled)
    for (x, y), theta in zip(shuffled, got):
        assert theta == cg(system, x, y), (x, y)
    assert principal_congruences(system, []) == []


def test_principal_congruences_reject_pairs_not_closed_under_images(ctx3):
    sp, system = ctx3.subpower, ctx3.system()
    theta = cg(system, ctx3.a_id, ctx3.zero_id)
    inside = [p for block in theta.blocks() for p in combinations(block, 2)]
    assert [psi.refines(theta) for psi in
            principal_congruences(system, inside)] == [True] * len(inside)
    outside = next((x, y) for x, y in combinations(range(sp.size), 2)
                   if not theta.relates(x, y))
    with pytest.raises(ValueError, match=rf"of pair \[{outside[0]}, {outside[1]}\] "
                                         "is not a listed pair"):
        principal_congruences(system, [outside])


def test_principal_congruences_charge_pairs_links_and_time(ctx3):
    sp, system = ctx3.subpower, ctx3.system()
    pairs = list(combinations(range(sp.size), 2))
    with pytest.raises(BudgetExceeded, match="91 > 90"):
        principal_congruences(system, pairs, budget=Budget(max_pairs=90))
    # 91 pairs pass the first charge; the links of the pair graph do not
    with pytest.raises(BudgetExceeded, match="max_pairs"):
        principal_congruences(system, pairs, budget=Budget(max_pairs=91))
    with pytest.raises(BudgetExceeded) as info:
        principal_congruences(system, pairs,
                              budget=Budget(deadline=time.monotonic() - 1.0))
    assert info.value.what == "max_seconds"


def test_principal_congruences_are_unchanged_by_the_cell_budget(ctx3):
    sp, system = ctx3.subpower, ctx3.system()
    pairs = list(combinations(range(sp.size), 2))
    expected = principal_congruences(system, pairs)
    # one column of map images per block
    tiny = Budget(max_signatures=len(system.table))
    assert principal_congruences(system, pairs, budget=tiny) == expected


@pytest.mark.parametrize("cut", [None, 1])
@pytest.mark.parametrize("source", ["a,0", "a,d_2"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["halting", "three-state", "k-extended"])
def test_maltsev_depth_matches_minimax_oracle(request, kind, n, source, cut):
    """On the whole walk, and on the walk cut after layer 1 (a prefix,
    as f-char keeps one), where some pairs of Cg are not joined."""
    ma = request.getfixturevalue({"halting": "ma2", "three-state": "ma3",
                                  "k-extended": "ma2_k"}[kind])
    ctx = build_bn(ma, n)
    sp = ctx.subpower
    gen = (ctx.a_id, ctx.zero_id if source == "a,0" else ctx.id_of(ctx.d[2]))
    graph = pair_depth_graph(ctx.system(), *gen)
    layers = graph.depth.tolist()
    assert layers == sorted(layers)
    if cut is not None:
        kept = graph.depth <= cut
        graph = PairDepthGraph(sp.size, graph.pairs[kept], graph.depth[kept])
    w = minimax_closure(dict(listed(graph)), sp.size)
    for i, j in product(range(sp.size), repeat=2):
        expected = w[i][j] if w[i][j] < 10 ** 9 else None
        assert maltsev_depth(graph, (i, j)) == expected, (i, j)


def test_maltsev_depth_hooks_each_pair_once(ctx4, monkeypatch):
    """One forest grows a layer at a time, so the rows hooked over a whole
    search, even one that ends unrelated, are at most the walk's pairs."""
    graph = ctx4.walk()
    theta = graph.congruence()
    apart = next((x, y) for x, y in combinations(range(ctx4.subpower.size), 2)
                 if not theta.relates(x, y))
    rows = []
    real = depth_module._generated

    def counting(forest, xs, ys):
        rows.append(len(xs))
        return real(forest, xs, ys)

    monkeypatch.setattr(depth_module, "_generated", counting)
    for pair, expected in (((ctx4.id_of(ctx4.b[4]), ctx4.id_of(ctx4.c[4])), 3),
                           (apart, None)):
        rows.clear()
        assert maltsev_depth(graph, pair) == expected
        assert 0 < sum(rows) <= len(graph.depth), pair


def test_generic_and_subpower_translations_agree(ctx2):
    # the algebra B_2 induces on its element ids, from the oracle's tables
    sp = ctx2.subpower
    ops = [op for op in sp.base.ops if op.arity > 0]
    induced = FiniteAlgebra(sp.size, tuple(
        table_op(op.symbol, op.arity, sp.size, values.ravel().tolist())
        for op, values in zip(ops, oracles.subpower_op_values(sp))))
    assert set(map(tuple, translation_system(induced).table.tolist())) == \
        set(map(tuple, translation_system(sp).table.tolist()))


def test_translation_system_is_deterministic(ctx2):
    first = translation_system(ctx2.subpower)
    second = translation_system(ctx2.subpower)
    assert np.array_equal(first.table, second.table)
    assert first.steps == second.steps


def test_closure_honours_an_expired_deadline(ctx2):
    expired = Budget(deadline=time.monotonic() - 1.0)
    system = ctx2.system()
    with pytest.raises(BudgetExceeded) as info:
        cg(system, ctx2.a_id, ctx2.zero_id, budget=expired)
    assert info.value.what == "max_seconds"


def test_principal_congruence_charges_the_pairs_it_reaches(ctx3):
    system = ctx3.system()
    gen = (ctx3.a_id, ctx3.zero_id)
    assert len(pair_depth_graph(system, *gen).depth) == 21
    with pytest.raises(BudgetExceeded, match="21 > 20") as info:
        cg(system, *gen, budget=Budget(max_pairs=20))
    assert info.value.what == "max_pairs"
    assert cg(system, *gen, budget=Budget(max_pairs=21)) == cg(system, *gen)


def test_pair_bfs_checks_max_pairs_inside_a_layer(ctx3):
    with pytest.raises(BudgetExceeded) as info:
        pair_depth_graph(ctx3.system(), ctx3.a_id, ctx3.zero_id,
                         budget=Budget(max_pairs=5))
    assert info.value.what == "max_pairs"
    assert "6 > 5" in str(info.value)


@pytest.mark.parametrize("size", [250, 255, 256, 257, 300])
def test_narrow_tables_walk_like_intp_tables(size):
    """Translation tables hold element ids in the narrowest unsigned dtype
    (uint8 up to 256 elements, uint16 past it); pair codes such as
    x * size + y must not wrap at that width."""
    rng = np.random.default_rng(size)
    x, blocks = np.arange(size), (size + 3) // 4
    # maps taking each block x // 4 into one block, the last block first,
    # so the pairs inside blocks are closed under them
    into = rng.integers(0, blocks, size=(3, blocks))
    into[:, 0] = blocks - 1
    closed = np.minimum(into[:, x // 4] * 4 + rng.integers(0, 4, size=(3, 4))[:, x % 4],
                        size - 1)
    wide = np.concatenate([closed, rng.integers(0, size, size=(2, size)),
                           (size - 1 - x)[None]])
    narrow = wide.astype(np.min_scalar_type(size - 1))
    assert narrow.dtype == (np.uint8 if size <= 256 else np.uint16)
    assert narrow.max() == size - 1
    for a, b in [(0, size - 1), (size - 2, size - 1), (249, size - 3)]:
        assert listed(pair_depth_graph(TranslationSystem(narrow, []), a, b)) == \
            listed(pair_depth_graph(TranslationSystem(wide, []), a, b))
    pairs = [(u, v) for u, v in combinations(range(size), 2) if u // 4 == v // 4]
    got, want = (principal_congruences(TranslationSystem(t[:3], []), pairs)
                 for t in (narrow, wide))
    assert got == want
