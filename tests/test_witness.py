import copy
import time

import numpy as np
import pytest

import oracles
from conftest import FIXTURES
from support import omission_subpower
from varietal import depth as depth_module, witness
from varietal.algebra import Budget, BudgetExceeded, TranslationStep
from varietal.cli import main
from varietal.depth import maltsev_depth, pair_depth_graph, \
    translation_system
from varietal.machine_algebra import BnContext, compile_machine, witness_tuples
from varietal.subpower import close_subpower, op_image
from varietal.witness import (
    LEMMA_ORDER,
    NONZERO_OPS,
    LemmaReport,
    build_bn,
    kprime_collapse,
    run_lemma,
    run_width,
    verify_chain,
    verify_f_characterization,
    verify_nonzero_ops,
    verify_omission_all,
    verify_support_growth,
)

EXPECTED_SIZE = {2: 6, 3: 14, 4: 30, 5: 62, 6: 126}
HALTING = str(FIXTURES / "halting.tm")


def get_ctx(request, n):
    return request.getfixturevalue(f"ctx{n}")


def altered(ctx, **changes):
    """A shallow copy of a BnContext with some of its attributes replaced."""
    assert changes.keys() <= vars(ctx).keys()
    ctx = copy.copy(ctx)
    vars(ctx).update(changes)
    return ctx


def test_witness_tuples_shapes(ma2):
    b, d, c = witness_tuples(ma2, 4)
    dd, bd = ma2.idx("D"), ma2.idx("bD")
    assert b[1] == (dd, 0, 0, 0)
    assert b[4] == (dd, dd, dd, dd)
    assert d[2] == (dd, bd, 0, 0)
    assert d[4] == (dd, dd, dd, bd)
    assert c[1] == (0, 0, 0, 0)
    assert c[3] == (0, dd, dd, 0)
    assert sorted(d) == [2, 3, 4]      # d_1 is never a generator


def test_b2_contents(ctx2):
    rendered = {tuple(ctx2.render(t)) for t in ctx2.subpower.elements}
    assert rendered == {("0", "0"), ("0", "D"), ("0", "bD"),
                        ("D", "0"), ("D", "D"), ("D", "bD")}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bn_size(request, n):
    assert get_ctx(request, n).subpower.size == EXPECTED_SIZE[n]


def test_b5_size(ma2):
    assert build_bn(ma2, 5).subpower.size == EXPECTED_SIZE[5]


def test_generator_meets(ctx4):
    sp = ctx4.subpower
    for i in range(1, 5):
        for j in range(1, 5):
            got = sp.eval_tuple("meet", (ctx4.b[i], ctx4.b[j]))
            assert got == ctx4.b[min(i, j)]
    for i in range(1, 5):
        assert sp.eval_tuple("meet", (ctx4.a, ctx4.c[i])) == ctx4.zero_tuple


def test_context_helpers(ctx2):
    assert ctx2.render(ctx2.a) == ["D", "0"]
    assert ctx2.render_id(ctx2.zero_id) == ["0", "0"]
    assert ctx2.id_of(ctx2.a) == ctx2.a_id
    step = TranslationStep("J'", 2, (ctx2.id_of(ctx2.b[2]),
                                     ctx2.id_of(ctx2.d[2])))
    doc = ctx2.step_json(step)
    assert doc == {"op": "J'", "position": 2,
                   "constants": [["D", "D"], ["D", "bD"]]}


def test_build_bn_rejects_width_one(ma2):
    with pytest.raises(ValueError):
        build_bn(ma2, 1)


def test_translation_map_counts(ctx2, ctx3):
    assert len(ctx2.system().table) == 25
    assert len(ctx3.system().table) == 103


def test_nonzero_translations_are_the_whole_system(ctx2, ctx3):
    # support-growth reads the whole system here: the other operations act
    # as the constant 0 on B_n, and meet already gives the constant-0 map
    for ctx in (ctx2, ctx3):
        assert set(map(tuple, ctx.system().table.tolist())) == \
            oracles.subpower_translation_maps(ctx.subpower, symbols=NONZERO_OPS)


@pytest.mark.parametrize("n, maps, pairs, bad", [(2, 25, 3, 0), (3, 161, 9, 4)])
def test_support_growth_keeps_to_its_four_ops_beside_k(ma2_k, n, maps, pairs, bad):
    # closed under K too, the subpower has K translations that are not
    # constant 0, so the shared system is larger and support-growth
    # enumerates meet, J, J', S2 alone; figures as before it shared one
    ctx = build_bn(ma2_k, n)
    assert any(step.op == "K" for step in ctx.system().steps)
    report = verify_support_growth(ctx)
    assert report.witnesses == [{"hypothesis_pairs": pairs, "translations": maps}]
    assert len(report.counterexamples) == bad
    assert maps == len(translation_system(ctx.subpower, NONZERO_OPS).table)


@pytest.mark.parametrize("lemma", [l for l in LEMMA_ORDER if l != "k-collapse"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lemma_passes(request, ma2, lemma, n):
    ctx = get_ctx(request, n)
    report = run_lemma(lemma, n, ctx)
    assert report.status == "PASSED", (lemma, n, report.counterexamples)
    assert report.lemma == lemma and report.n == n
    assert not report.counterexamples


@pytest.mark.parametrize("n", [3, 4])
def test_k_collapse_passes(ma2, ma2_k, n):
    # run_width builds k-collapse's context on the K-extended algebra, from
    # the plain algebra or from one already compiled with K
    for ma in (ma2, ma2_k):
        [report] = run_width(ma, n, ["k-collapse"])
        assert report.status == "PASSED", report.counterexamples
        assert report.witnesses[0]["depth"] == 1
        assert report.stats["universe"] == {3: 18, 4: 54}[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_k_extended_pair_walk_gives_depth_one(ma2_k, n):
    """k-collapse reads its depth from its certificate; the generic engine
    over the K-extended translations agrees."""
    ctx = build_bn(ma2_k, n)
    assert maltsev_depth(ctx.walk(), (ctx.id_of(ctx.b[n]), ctx.id_of(ctx.c[n]))) == 1


def test_kprime_sizes(ma2_k, kctx3):
    assert kctx3.subpower.size == 18
    assert build_bn(ma2_k, 4).subpower.size == 54


def test_kprime_shortcut_element(kctx3):
    report = kprime_collapse(kctx3)
    assert report.witnesses[0]["b_prime"] == ["D", "bD", "bD"]
    assert ("D", "bD", "bD") in {tuple(kctx3.render(t))
                                 for t in kctx3.subpower.elements}


def test_kprime_guards(ma2_k, ctx3):
    with pytest.raises(ValueError):
        kprime_collapse(ctx3)
    with pytest.raises(ValueError):
        kprime_collapse(build_bn(ma2_k, 2))


@pytest.mark.parametrize("n,depth", [(2, 1), (3, 2), (4, 3)])
def test_depth_values(request, n, depth):
    ctx = get_ctx(request, n)
    graph = pair_depth_graph(ctx.system(), ctx.a_id, ctx.zero_id)
    assert maltsev_depth(graph, (ctx.id_of(ctx.b[n]), ctx.id_of(ctx.c[n]))) == depth


def test_verify_walks_from_a_0_once_per_width(tmp_path, monkeypatch):
    """atomic, chain, f-char and depth share one walk on B_4, and omission
    walks no subalgebra C_k, since the projection kernel decides each k.
    Every walk is made by `BnContext.walk`, which looks the walk up in
    `depth` when it makes one."""
    walks = []
    real = pair_depth_graph

    def walk(system, *args, **kwargs):
        walks.append(system.table.shape[1])
        return real(system, *args, **kwargs)

    monkeypatch.setattr(depth_module, "pair_depth_graph", walk)
    assert main(["verify", "--tm", HALTING, "--n", "4",
                 "--out", str(tmp_path / "v.json")]) == 0
    assert walks == [EXPECTED_SIZE[4]]


def test_theta_structure(ctx3):
    theta = pair_depth_graph(ctx3.system(), ctx3.a_id,
                             ctx3.zero_id).congruence()
    assert theta.num_blocks == 7
    assert all(len(block) == 2 for block in theta.blocks())
    # each block glues two tuples differing exactly in the first coordinate
    for block in theta.blocks():
        tx = ctx3.subpower.elements[block[0]]
        ty = ctx3.subpower.elements[block[1]]
        assert tx[1:] == ty[1:] and tx[0] != ty[0]


def test_chain_polynomial_endpoints(ctx4):
    report = verify_chain(ctx4)
    assert report.passed, report.counterexamples
    chain = report.witnesses[0]["chain"]
    assert report.witnesses[0]["length"] == len(chain) == 3
    assert all(s["op"] == "J'" and s["position"] == 2 for s in chain)
    assert [s["constants"] for s in chain] == \
        [[ctx4.render(ctx4.b[l]), ctx4.render(ctx4.d[l])] for l in (2, 3, 4)]


def test_chain_reports_the_step_a_wrong_constant_breaks(ctx3):
    """With d_2 in place of d_3, the last step leaves (b_2, c_2) where it
    should reach (b_3, c_3)."""
    wrong = altered(ctx3, d={**ctx3.d, 3: ctx3.d[2]})
    report = verify_chain(wrong)
    assert report.status == "FAILED"
    assert report.counterexamples == [
        {"step": 3, "expected": ctx3.render(ctx3.b[3]), "got": ctx3.render(ctx3.b[2])},
        {"step": 3, "expected": ctx3.render(ctx3.c[3]), "got": ctx3.render(ctx3.c[2])}]
    assert report.witnesses[0]["chain"][1]["constants"][1] == \
        ctx3.render(ctx3.d[2])


def test_single_chain_step_grows_support_by_one(ctx2):
    sp = ctx2.subpower
    b2, d2 = ctx2.id_of(ctx2.b[2]), ctx2.id_of(ctx2.d[2])
    image_a = sp.eval("J'", (b2, d2, ctx2.a_id))
    image_0 = sp.eval("J'", (b2, d2, ctx2.zero_id))
    assert image_a == b2
    assert image_0 == ctx2.id_of(ctx2.c[2])
    supp = lambda t: sum(1 for v in t if v != 0)
    assert supp(ctx2.a) == 1 and supp(ctx2.b[2]) == 2
    assert supp(ctx2.zero_tuple) == 0 and supp(ctx2.c[2]) == 1


def test_nonzero_ops_witnesses(ctx3, b3_op_values):
    report = verify_nonzero_ops(ctx3)
    assert report.passed
    assert {w["op"] for w in report.witnesses} == set(NONZERO_OPS)
    # brute force over every argument tuple of B_3, without automata
    ops = [op for op in ctx3.subpower.base.ops if op.arity > 0]
    assert len(ops) == len(b3_op_values)
    nonzero = {op.symbol for op, values in zip(ops, b3_op_values)
               if (values != ctx3.zero_id).any()}
    assert nonzero == set(NONZERO_OPS)


def _fake_evaluator(monkeypatch, symbol, rule):
    real = witness.vector_evaluator
    monkeypatch.setattr(witness, "vector_evaluator",
                        lambda ma, sym: rule if sym == symbol else real(ma, sym))


def test_nonzero_ops_reports_a_grid_counterexample(ctx3, monkeypatch):
    dd, bd = ctx3.algebra.idx("D"), ctx3.algebra.idx("bD")
    _fake_evaluator(monkeypatch, "T",
                    lambda w, x, y, z: ((w == dd) & (z == bd)).astype(np.int64))
    report = verify_nonzero_ops(ctx3)
    # coordinate 1 of B_3 never holds bD; each argument is the first
    # element carrying its grid value at coordinate 2
    first = {v: next(x for x in ctx3.subpower.elements if x[1] == v)
             for v in (0, dd, bd)}
    assert report.status == "FAILED"
    assert report.counterexamples == [
        {"op": "T", "coordinate": 2,
         "args": [ctx3.render(first[v]) for v in (dd, 0, 0, bd)]}]


def test_nonzero_ops_ignores_letters_outside_the_columns(ctx2, monkeypatch):
    present = {v for x in ctx2.subpower.elements for v in x}
    absent = next(v for v in range(ctx2.algebra.size) if v not in present)
    _fake_evaluator(monkeypatch, "T",
                    lambda *args: sum(a == absent for a in args))
    assert verify_nonzero_ops(ctx2).status == "PASSED"


def test_nonzero_ops_charges_each_value_grid(ma2):
    # B_2 and every op_image fit in 80 elements; the 3^4 grid does not
    budget = Budget(max_elements=80)
    ctx = build_bn(ma2, 2, budget)
    for op in ctx.subpower.base.ops:
        op_image(ctx.subpower, op.symbol, budget)
    report = run_lemma("nonzero-ops", 2, ctx)
    assert report.status == "SKIPPED"
    assert "max_elements" in report.note and "81 > 80" in report.note
    assert report.stats["universe"] == 6 and report.stats["pairs"] == 0


def test_nonzero_ops_honours_an_expired_deadline(ctx2):
    ctx = altered(ctx2, budget=Budget(deadline=time.monotonic() - 1))
    report = run_lemma("nonzero-ops", 2, ctx)
    assert report.status == "SKIPPED"
    assert "max_seconds" in report.note


def test_verifiers_let_an_exhausted_budget_propagate(ctx2):
    ctx = altered(ctx2, budget=Budget(deadline=time.monotonic() - 1))
    with pytest.raises(BudgetExceeded):
        verify_nonzero_ops(ctx)


def test_run_lemma_skips_a_failed_build(ma2):
    budget = Budget(max_elements=20)
    with pytest.raises(BudgetExceeded) as failed:
        build_bn(ma2, 4, budget)
    want = {"lemma": "depth", "n": 4, "pass": None, "status": "SKIPPED",
            "witnesses": [], "counterexamples": [],
            "note": "budget exceeded: max_elements (28 > 20)",
            "stats": {"universe": 0, "pairs": 0, "seconds": 0.0}}
    assert run_lemma("depth", 4, failed.value).to_json() == want
    assert [r.to_json() for r in run_width(ma2, 4, ["depth"], budget)] == [want]


def test_run_lemma_calls_the_verifier_bound_in_witness_when_called(
        ctx2, monkeypatch):
    """Verifiers are looked up by name at each call, so a patched (or a
    traced) binding is the one run_lemma runs; it fills the stats."""
    calls = []

    def fake(ctx):
        calls.append(ctx)
        return LemmaReport("depth", ctx.n, passed=True, stats={"pairs": 7})

    monkeypatch.setattr(witness, "verify_depth", fake)
    report = run_lemma("depth", 2, ctx2)
    assert calls == [ctx2]
    assert report.stats["universe"] == 6 and report.stats["pairs"] == 7
    assert report.stats["seconds"] >= 0.0


def record_builds(monkeypatch, fail_plain=False):
    """The (with_k, n, budget) of each build_bn call made through witness;
    with fail_plain, each build on an algebra without K runs out."""
    builds = []
    real = witness.build_bn

    def recording(ma, n, budget):
        builds.append((ma.with_k, n, budget))
        if fail_plain and not ma.with_k:
            raise BudgetExceeded("max_elements", "forced")
        return real(ma, n, budget)

    monkeypatch.setattr(witness, "build_bn", recording)
    return builds


@pytest.mark.parametrize("n, builds_made, k_universe", [
    (2, [(False, 2)], None), (3, [(False, 3), (True, 3)], 18)])
def test_run_width_builds_each_algebra_once_in_order_of_first_use(
        ma2, monkeypatch, n, builds_made, k_universe):
    """k-collapse, and its K build, are left out below width 3."""
    builds = record_builds(monkeypatch)
    reports = run_width(ma2, n, LEMMA_ORDER)
    plain = list(LEMMA_ORDER[:-1])
    assert [r.lemma for r in reports] == plain + ["k-collapse"] * (n >= 3)
    assert all(r.status == "PASSED" for r in reports)
    assert [b[:2] for b in builds] == builds_made
    assert [r.stats["universe"] for r in reports[len(plain):]] == \
        [k_universe] * (n >= 3)


def test_k_collapse_builds_its_k_context_under_the_width_budget(
        ma2, monkeypatch):
    builds = record_builds(monkeypatch)
    budget = Budget()
    [report] = run_width(ma2, 3, ["k-collapse"], budget)
    assert report.status == "PASSED"
    assert builds == [(True, 3, budget)] and builds[0][2] is budget
    budget.deadline = time.monotonic() - 1
    [report] = run_width(ma2, 3, ["k-collapse"], budget)
    assert report.status == "SKIPPED" and "max_seconds" in report.note


def test_k_collapse_runs_on_a_k_context_it_is_given(ma2_k, kctx3, monkeypatch):
    builds = record_builds(monkeypatch)
    report = run_lemma("k-collapse", 3, kctx3)
    assert report.status == "PASSED" and report.stats["universe"] == kctx3.subpower.size
    assert builds == []


def test_run_width_on_an_algebra_with_k_builds_one_context(ma2_k, monkeypatch):
    builds = record_builds(monkeypatch)
    # with K, depth collapses, so the plain depth lemma fails on it
    reports = run_width(ma2_k, 3, ["depth", "k-collapse"])
    assert [r.status for r in reports] == ["FAILED", "PASSED"]
    assert [r.stats["universe"] for r in reports] == [18, 18]
    assert [b[:2] for b in builds] == [(True, 3)]
    assert "k_extended" not in vars(ma2_k)


def test_run_width_skips_the_plain_lemmas_of_a_failed_build(ma2, monkeypatch):
    """The failed plain build is not retried, and k-collapse still runs on
    its own K-extended build."""
    builds = record_builds(monkeypatch, fail_plain=True)
    reports = run_width(ma2, 3, LEMMA_ORDER)
    assert [(r.lemma, r.status) for r in reports] == \
        [(lemma, "SKIPPED") for lemma in LEMMA_ORDER[:-1]] + \
        [("k-collapse", "PASSED")]
    for r in reports[:-1]:
        assert r.note == "budget exceeded: max_elements (forced)"
        assert r.stats["universe"] == 0 and r.stats["pairs"] == 0
    assert reports[-1].stats["universe"] == 18
    assert [b[:2] for b in builds] == [(False, 3), (True, 3)]


def test_run_width_rejects_an_unknown_lemma_before_any_build(ma2, monkeypatch):
    builds = record_builds(monkeypatch)
    with pytest.raises(ValueError, match="no-such-lemma"):
        run_width(ma2, 3, ["structure", "no-such-lemma"])
    assert builds == []


def test_s2_acts_at_later_coordinates_only(ctx2):
    sp = ctx2.subpower
    b2, d2 = ctx2.id_of(ctx2.b[2]), ctx2.id_of(ctx2.d[2])
    got = sp.eval("S2", (b2, d2, b2, b2, b2))
    assert got == ctx2.id_of(ctx2.c[2])


def test_f_characterization_partner(ctx3):
    report = verify_f_characterization(ctx3)
    assert report.passed
    partners = report.witnesses[0]["partners_of_b_n"]
    assert partners == [ctx3.render(ctx3.c[3])]


def test_omission_details(ctx3):
    report = verify_omission_all(ctx3)
    assert report.passed, report.counterexamples
    assert [w["k"] for w in report.witnesses] == [2, 3]
    for w in report.witnesses:
        sizes = w["details"][0]
        assert sizes["omitted"] == ctx3.render(ctx3.d[w["k"]])
        assert sizes["closure_size"] < sizes["full_size"] == 14


def test_bn_context_wraps_an_omission_subalgebra(ctx3):
    """C_2 of B_3, closed without d_2, wrapped as B_3 is: its context
    derives n and the named tuples from its width, and its walk from
    (a, 0) is the one built by hand from C_2's own translation system."""
    sub = close_subpower(ctx3.subpower.base, 3, [*ctx3.b.values(), ctx3.d[3]])
    c2 = BnContext(ctx3.algebra, sub, ctx3.budget)
    assert c2.subpower is sub and sub.size < ctx3.subpower.size
    assert (c2.n, c2.a, c2.zero_tuple) == (3, ctx3.a, ctx3.zero_tuple)
    assert (c2.b, c2.d, c2.c) == (ctx3.b, ctx3.d, ctx3.c)
    by_hand = pair_depth_graph(translation_system(sub), sub.index[ctx3.a],
                               sub.index[ctx3.zero_tuple])
    walk = c2.walk()
    assert np.array_equal(walk.pairs, by_hand.pairs)
    assert np.array_equal(walk.depth, by_hand.depth)
    assert c2.walk() is walk


@pytest.mark.parametrize("tm", ["halting_tm", "looping_tm", "three_state_tm",
                                "four_state_tm"])
def test_omission_kernel_class_decides_as_the_walk_does(tm, request):
    """b_n's class under Cg^C(a,0), read off C_k's own walk, lies in its
    class under the projection kernel onto coordinates 2..n.  On these
    machines the kernel class is {b_n} for every k at n <= 6, so the walk
    class is too, and omission's verdict needs no walk."""
    ma = compile_machine(request.getfixturevalue(tm))
    for n in range(2, 7):
        ctx = build_bn(ma, n)
        bn = ctx.b[n]
        for k in range(2, n + 1):
            sub = BnContext(ma, omission_subpower(ctx, k), ctx.budget)
            theta = sub.walk().congruence()
            block = np.flatnonzero(theta.least == theta.least[sub.id_of(bn)])
            walk_class = {sub.subpower.elements[e] for e in block.tolist()}
            kernel_class = {t for t in sub.subpower.elements if t[1:] == bn[1:]}
            assert walk_class <= kernel_class
            assert walk_class == kernel_class == {bn}, (n, k)
        assert verify_omission_all(ctx).passed


def test_omission_fails_for_each_k_when_no_generator_is_dropped(ctx3,
                                                                  monkeypatch):
    """A closure that gives back the whole subpower keeps (b_3, c_3)
    linked, so every k reports the closure, b_3's class and the link."""
    monkeypatch.setattr(witness, "close_subpower", lambda *args: ctx3.subpower)
    report = verify_omission_all(ctx3)
    assert report.status == "FAILED"
    assert [(c["k"], list(c)) for c in report.counterexamples] == \
        [(k, ["k", kind]) for k in (2, 3) for kind in ("closure", "b_n_class", "related")]
    assert [w["details"][1] for w in report.witnesses] == [{"c_n_in_C": True}] * 2


def test_report_json_shape():
    report = LemmaReport("chain", 3, passed=True,
                         stats={"universe": 14, "pairs": 7, "seconds": 1.25})
    doc = report.to_json()
    assert doc["pass"] is True and doc["status"] == "PASSED"
    assert doc["stats"]["seconds"] == 0.0
    timed = report.to_json(timings=True)
    assert timed["stats"]["seconds"] == 1.25

    skipped = LemmaReport("depth", 5, passed=False, skipped=True,
                          note="budget exhausted: max_seconds")
    doc = skipped.to_json()
    assert doc["pass"] is None and doc["status"] == "SKIPPED"
    assert doc["note"].startswith("budget exhausted")


def test_run_lemma_rejects_unknown(ctx2):
    with pytest.raises(ValueError):
        run_lemma("no-such-lemma", 2, ctx2)
