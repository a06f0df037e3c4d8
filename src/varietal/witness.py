"""The lemma-level verification suite on the witness subpowers.

For a compiled machine algebra and a width n >= 2, the witness subpower
is generated inside the n-th power by the tuples

    b_i = (D,...,D,0,...,0)   with i leading D's, 1 <= i <= n,
    d_i = (D,...,D,bD,0,...)  with bD at coordinate i, 2 <= i <= n,

with a = b_1.  The derived tuples c_i = (0,D,...,D,0,...) (D at
coordinates 2..i) appear in the closure, which `build_bn` (in
`machine_algebra`, so that commands that run no lemma need not load
this module) wraps in a `BnContext`; omission wraps each subalgebra
C_k it closes in one too, so each walk from (a, 0) is a context's.
Every verifier returns a LemmaReport carrying pass/fail, witnesses,
counterexamples and its `pairs` count, and never raises on a falsified
claim.  A verifier lets
BudgetExceeded propagate.  `run_width` builds B_n once per algebra for
a width's lemmas, and `run_lemma` alone times each run, turns an
exhausted budget (the build's or the verifier's, a MemoryError as the
budget named `memory`) into a SKIPPED report and fills the stats.  No
verifier samples, so --seed changes no verdict.

Verifier index (CLI lemma names):
  structure       four membership constraints on every closure element
  nonzero-ops     only meet, J, J', S2 are nonzero on the subpower
  atomic          Cg(a,0) is atomic: every nontrivial pair regenerates it
  chain           the explicit J' chain maps (a,0) to (b_n,c_n)
  f-char          the only distinct BFS partner of b_n is c_n
  omission        dropping a d_k generator kills the (b_n,c_n) link
  support-growth  one translation grows support by at most one
  depth           minimax translation depth of (b_n,c_n) is exactly n-1
  k-collapse      with K, a depth-1 shortcut exists and the structure
                  constraints fail for the shortcut element
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .algebra import Budget, BudgetExceeded, DEFAULT_BUDGET, TranslationStep
from .depth import maltsev_depth, principal_congruences, translation_system
from .machine_algebra import BnContext, MachineAlgebra, build_bn, \
    vector_evaluator
from .subpower import close_subpower, op_image

NONZERO_OPS = ("meet", "J", "J'", "S2")


class LemmaReport:
    """One lemma's verdict at width n, with its witnesses, counterexamples and stats."""

    def __init__(self, lemma: str, n: int, passed: bool,
                 witnesses: list | None = None, counterexamples: list | None = None,
                 stats: dict | None = None, skipped: bool = False, note: str = ""):
        self.lemma = lemma
        self.n = n
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.stats = {} if stats is None else stats
        self.skipped = skipped
        self.note = note

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIPPED"
        return "PASSED" if self.passed else "FAILED"

    def to_json(self, *, timings: bool = False) -> dict:
        stats = dict(self.stats)
        secs = stats.get("seconds", 0.0)
        stats["seconds"] = round(float(secs), 3) if timings else 0.0
        doc = {
            "lemma": self.lemma,
            "n": self.n,
            "pass": None if self.skipped else self.passed,
            "status": self.status,
            "witnesses": self.witnesses,
            "counterexamples": self.counterexamples,
            "stats": stats,
        }
        if self.note:
            doc["note"] = self.note
        return doc


# ---------------------------------------------------------------------------
# structure

def verify_bn_structure(ctx: BnContext) -> LemmaReport:
    """Four membership constraints on every element x of the closure:
    (1) x(1) in {0,D} and every x(l) in {0,D,bD};
    (2) at most one coordinate equals bD;
    (3) every coordinate after a bD is 0;
    (4) if x(l) = bD then x = d_l or some earlier coordinate is 0.
    """
    ma = ctx.algebra
    dd, bd = ma.idx("D"), ma.idx("bD")
    allowed = {0, dd, bd}
    bad = []
    for x in ctx.subpower.elements:
        items = []
        if x[0] not in (0, dd) or any(v not in allowed for v in x):
            items.append(1)
        barred = [l for l, v in enumerate(x) if v == bd]
        if len(barred) > 1:
            items.append(2)
        if barred:
            l = barred[0]
            if any(x[k] != 0 for k in range(l + 1, ctx.n)):
                items.append(3)
            if x != ctx.d.get(l + 1) and not any(x[k] == 0 for k in range(l)):
                items.append(4)
        if items:
            bad.append({"element": ctx.render(x), "violated_items": items})
    return LemmaReport("structure", ctx.n, passed=not bad,
                       witnesses=[{"universe": ctx.subpower.size,
                                   "checked_items": [1, 2, 3, 4]}],
                       counterexamples=bad)


# ---------------------------------------------------------------------------
# nonzero-ops

def verify_nonzero_ops(ctx: BnContext) -> LemmaReport:
    """Every operation outside {meet, J, J', S2} maps the subpower S to
    the all-zero tuple, checked by the automaton image and, at arities
    4-5, by the independent case rules of `vector_evaluator` too.  As f
    acts coordinatewise, the coordinate-c arguments over S^k are exactly
    V_c^k, V_c = {x(c) : x in S}; so f(S^k) = {0} iff all f(V_c^k) = {0}.
    """
    sp = ctx.subpower
    zero_t = ctx.zero_tuple
    counterexamples = []
    witnesses = []
    columns = [np.unique(column, return_index=True)
               for column in np.asarray(sp.elements, dtype=np.int64).T]
    for op in sp.base.ops:
        ctx.budget.check_time()
        image = op_image(sp, op.symbol, ctx.budget)
        nonzero = sorted(v for v in image if v != zero_t)
        if op.symbol in NONZERO_OPS:
            if nonzero:
                witnesses.append({"op": op.symbol,
                                  "nonzero_value": ctx.render(nonzero[0])})
            continue
        if nonzero:
            counterexamples.append({"op": op.symbol,
                                    "value": ctx.render(nonzero[0])})
        if op.arity >= 4:
            evaluate = vector_evaluator(ctx.algebra, op.symbol)
            for coord, (values, first) in enumerate(columns):
                shape = (values.size,) * op.arity
                ctx.budget.check_elements(values.size ** op.arity)
                grid = values[np.indices(shape).reshape(op.arity, -1)]
                hit = np.flatnonzero(evaluate(*grid))
                if hit.size:
                    cell = first[list(np.unravel_index(hit[0], shape))]
                    counterexamples.append(
                        {"op": op.symbol, "coordinate": coord + 1,
                         "args": [ctx.render_id(i) for i in cell.tolist()]})
                    break
    passed = not counterexamples and len(witnesses) == len(NONZERO_OPS)
    return LemmaReport("nonzero-ops", ctx.n, passed, witnesses,
                       counterexamples)


# ---------------------------------------------------------------------------
# atomic

def verify_atomicity(ctx: BnContext) -> LemmaReport:
    """theta = Cg(a, 0) is atomic: every (u,v) in theta with u != v
    satisfies Cg(u,v) >= theta."""
    sp = ctx.subpower
    theta = ctx.walk().congruence()
    # theta is a congruence: the pairs in its blocks are closed under images
    pairs = [p for block in theta.blocks() for p in combinations(block, 2)]
    bad = [{"pair": [ctx.render_id(u), ctx.render_id(v)]}
           for (u, v), psi in zip(pairs, principal_congruences(
               ctx.system(), pairs, budget=ctx.budget))
           if not theta.refines(psi)]
    passed = not bad and theta.num_blocks < sp.size
    report = LemmaReport("atomic", ctx.n, passed,
                         witnesses=[{"theta_blocks": theta.num_blocks,
                                     "nontrivial_pairs_checked": len(pairs)}],
                         counterexamples=bad, stats={"pairs": len(pairs)})
    if theta.num_blocks == sp.size:
        report.note = "Cg(a,0) is the identity; nothing to regenerate"
    return report


# ---------------------------------------------------------------------------
# chain

def verify_chain(ctx: BnContext) -> LemmaReport:
    """The chain J'(b_l, d_l, -), l = 2..n, run from (a, 0), takes its pair
    to (b_l, c_l) at each step l, so (a, 0) to (b_n, c_n); and the generic
    congruence engine agrees that (b_n, c_n) lies in Cg(a, 0)."""
    sp = ctx.subpower
    bad = []
    steps = []
    x, y = ctx.a_id, ctx.zero_id
    for l in range(2, ctx.n + 1):
        step = TranslationStep("J'", 2, (ctx.id_of(ctx.b[l]), ctx.id_of(ctx.d[l])))
        steps.append(step)
        x, y = (sp.eval("J'", (*step.constants, v)) for v in (x, y))
        for got, expected in ((x, ctx.b[l]), (y, ctx.c[l])):
            if got != ctx.id_of(expected):
                bad.append({"step": l, "expected": ctx.render(expected),
                            "got": ctx.render_id(got)})
    theta = ctx.walk().congruence()
    pairs = sum(len(bl) * (len(bl) - 1) // 2 for bl in theta.blocks())
    if not theta.relates(ctx.id_of(ctx.b[ctx.n]), ctx.id_of(ctx.c[ctx.n])):
        bad.append({"generic_congruence_misses": "(b_n, c_n)"})
    witnesses = [{"chain": [ctx.step_json(s) for s in steps],
                  "length": len(steps)}]
    return LemmaReport("chain", ctx.n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad, stats={"pairs": pairs})


# ---------------------------------------------------------------------------
# f-char

def verify_f_characterization(ctx: BnContext) -> LemmaReport:
    """Among the pairs of the walk from (a, 0) within n+2 layers, the only
    element paired with b_n besides itself is c_n."""
    cap = ctx.n + 2
    walk = ctx.walk()
    xs, ys = walk.pairs[walk.depth <= cap].T
    b_id = ctx.id_of(ctx.b[ctx.n])
    c_id = ctx.id_of(ctx.c[ctx.n])
    partners = (set(ys[xs == b_id].tolist()) | set(xs[ys == b_id].tolist())) - {b_id}
    bad = [{"partner": ctx.render_id(p)} for p in sorted(partners - {c_id})]
    if c_id not in partners:
        bad.append({"missing_partner": ctx.render(ctx.c[ctx.n])})
    witnesses = [{"cap": cap, "pairs_reached": len(xs),
                  "partners_of_b_n": [ctx.render_id(p) for p in sorted(partners)]}]
    return LemmaReport("f-char", ctx.n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad, stats={"pairs": len(xs)})


# ---------------------------------------------------------------------------
# omission

def verify_omission_all(ctx: BnContext) -> LemmaReport:
    """For each k in 2..n, dropping the generator d_k yields a proper
    subalgebra C in which the class of b_n under Cg^C(a,0) is trivial; in
    particular (b_n,c_n) is not in Cg^C(a,0).  Also checks
    J(b_n, d_k, b_n) = b_k, the fact that makes omitting b_k equivalent to
    omitting d_k.  Each C_k is wrapped in a `BnContext`, whose walk gives
    Cg^C(a,0).  Witnesses and counterexamples are tagged with their k."""
    sp = ctx.subpower
    n = ctx.n
    bad = []
    witnesses = []
    for k in range(2, n + 1):
        got = sp.eval_tuple("J", (ctx.b[n], ctx.d[k], ctx.b[n]))
        if got != ctx.b[k]:
            bad.append({"k": k, "J(b_n,d_k,b_n)": ctx.render(got),
                        "expected": ctx.render(ctx.b[k])})
        gens = [*ctx.b.values(), *(t for i, t in ctx.d.items() if i != k)]
        sub = BnContext(ctx.algebra, close_subpower(sp.base, n, gens, ctx.budget),
                        ctx.budget)
        if not set(sub.subpower.elements) < set(sp.elements):
            bad.append({"k": k, "closure": "not a proper subset"})
        theta = sub.walk().congruence()
        b_id = sub.subpower.index.get(ctx.b[n])
        if b_id is None:
            raise RuntimeError("b_n is a generator, must be present")
        block = np.flatnonzero(theta.least == theta.least[b_id])
        if len(block) > 1:
            bad.append({"k": k, "b_n_class": [sub.render_id(e)
                                              for e in block.tolist()]})
        c_id = sub.subpower.index.get(ctx.c[n])
        if c_id is not None and theta.relates(b_id, c_id):
            bad.append({"k": k, "related": "(b_n, c_n) in Cg^C(a,0)"})
        witnesses.append({"k": k, "details": [
            {"omitted": ctx.render(ctx.d[k]), "closure_size": sub.subpower.size,
             "full_size": sp.size},
            {"c_n_in_C": c_id is not None}]})
    return LemmaReport("omission", n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad)


# ---------------------------------------------------------------------------
# support-growth

def verify_support_growth(ctx: BnContext) -> LemmaReport:
    """For r, s in the subpower with r(1) != s(1) = 0 and r(i) = s(i) for
    i >= 2, one application of a translation of meet, J, J', S2 with
    g(r) != g(s) grows |supp| by at most one.  Exhaustive over all such
    pairs and all translation maps of those four operations.  If each map
    of the shared system is first witnessed by one of them, that system is
    exactly theirs, witnesses too: a map another operation gives first
    would carry its witness.  Otherwise (K, say) they are enumerated alone."""
    sp = ctx.subpower
    system = ctx.system()
    if any(step.op not in NONZERO_OPS for step in system.steps):
        system = translation_system(sp, NONZERO_OPS, ctx.budget)
    supp = (np.asarray(sp.elements) != 0).sum(axis=1)
    hyp_pairs = []
    for r_id, r in enumerate(sp.elements):
        if r[0] == 0:
            continue
        s = (0,) + r[1:]
        s_id = sp.index.get(s)
        if s_id is not None:
            hyp_pairs.append((r_id, s_id))
    bad = []
    for r_id, s_id in hyp_pairs:
        gr, gs = system.table[:, r_id], system.table[:, s_id]
        for m in np.flatnonzero((gr != gs) & (supp[gr] > supp[r_id] + 1)):
            bad.append({"r": ctx.render_id(r_id),
                        "translation": ctx.step_json(system.steps[m]),
                        "g(r)": ctx.render_id(int(gr[m])),
                        "supp_r": int(supp[r_id]),
                        "supp_gr": int(supp[gr[m]])})
    return LemmaReport("support-growth", ctx.n, passed=not bad,
                       witnesses=[{"hypothesis_pairs": len(hyp_pairs),
                                   "translations": len(system.table)}],
                       counterexamples=bad, stats={"pairs": len(hyp_pairs)})


# ---------------------------------------------------------------------------
# depth

def verify_depth(ctx: BnContext) -> LemmaReport:
    """The depth equals n-1 exactly: the explicit chain gives the upper
    bound and the support-growth argument forbids anything shallower."""
    graph = ctx.walk()
    depth = maltsev_depth(graph, (ctx.id_of(ctx.b[ctx.n]),
                                  ctx.id_of(ctx.c[ctx.n])))
    found = {"depth": depth, "expected": ctx.n - 1}
    passed = depth == ctx.n - 1
    return LemmaReport("depth", ctx.n, passed, witnesses=[found],
                       counterexamples=[] if passed else [dict(found)],
                       stats={"pairs": len(graph.depth)})


# ---------------------------------------------------------------------------
# k-collapse

KCOLLAPSE_MIN_N = 3


def kprime_collapse(ctx: BnContext) -> LemmaReport:
    """With the extra K operation, iterating b'_2 = d_n and
    b'_{k+1} = K(b_n, b'_k, d_{n-(k-1)}) produces b'_n whose coordinates
    2..n are the barred twins of b_n's.  The single translation
    J'(b_n, b'_n, -) then maps (a, 0) straight to (b_n, c_n), so the
    depth collapses to 1.  The element b'_n also breaks the structure
    constraint that at most one coordinate is barred.  `ctx` is the
    witness subpower of the algebra compiled with K.
    """
    n = ctx.n
    if not ctx.algebra.with_k:
        raise ValueError("k-collapse needs the algebra compiled with K")
    if n < KCOLLAPSE_MIN_N:
        raise ValueError(f"k-collapse is meaningful for n >= {KCOLLAPSE_MIN_N}")
    sp = ctx.subpower
    bad = []
    b_prime = ctx.id_of(ctx.d[n])
    trace = [b_prime]
    for k in range(2, n):
        args = (ctx.id_of(ctx.b[n]), b_prime, ctx.id_of(ctx.d[n - (k - 1)]))
        try:
            b_prime = sp.eval("K", args)
        except ValueError as exc:
            return LemmaReport("k-collapse", n, passed=False,
                               counterexamples=[{"escape": str(exc)}])
        trace.append(b_prime)
    raw = sp.elements[b_prime]
    bar = ctx.algebra.bar_index
    b_n, c_n = ctx.b[n], ctx.c[n]
    for i in range(1, n):
        if raw[i] != bar[b_n[i]]:
            bad.append({"coordinate": i + 1,
                        "b_prime": ctx.render(raw)})
    barred_count = sum(1 for v in raw if ctx.algebra.elements[v].barred)
    if barred_count < 2:
        bad.append({"structure_item_2_not_violated": ctx.render(raw)})
    before = len(bad)
    b_id, c_id = ctx.id_of(b_n), ctx.id_of(c_n)
    lam_a = sp.eval("J'", (b_id, b_prime, ctx.a_id))
    lam_0 = sp.eval("J'", (b_id, b_prime, ctx.zero_id))
    if lam_a != b_id:
        bad.append({"lambda(a)": ctx.render_id(lam_a)})
    if lam_0 != c_id:
        bad.append({"lambda(0)": ctx.render_id(lam_0)})
    # lambda once more, by the dense J' table on the 2n coordinates of a, 0
    lam = vector_evaluator(ctx.algebra, "J'")(b_n * 2, raw * 2,
                                              ctx.a + ctx.zero_tuple).tolist()
    images = [tuple(lam[:n]), tuple(lam[n:])]
    if images != [b_n, c_n]:
        bad.append({"lambda_per_coordinate": [ctx.render(v) for v in images]})
    # lambda maps {a, 0} onto {b_n, c_n}, a layer-1 pair of the pair walk
    # from {a, 0}; that pair is neither trivial nor the source pair, since
    # b_n(1) = D but c_n(1) = 0, and b_n != a for n >= 2
    depth = 1 if len(bad) == before else None
    if depth != 1:
        bad.append({"depth": depth, "expected": 1})
    witnesses = [{"b_prime": ctx.render(raw),
                  "recursion_trace": [ctx.render_id(e) for e in trace],
                  "depth": depth}]
    return LemmaReport("k-collapse", n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad)


# ---------------------------------------------------------------------------
# dispatch

# the verifier of each lemma by its name in this module, looked up at each
# call, so a verifier rebound here (patched, or wrapped) is the one run
VERIFIERS = {"structure": "verify_bn_structure",
             "nonzero-ops": "verify_nonzero_ops",
             "atomic": "verify_atomicity", "chain": "verify_chain",
             "f-char": "verify_f_characterization",
             "omission": "verify_omission_all",
             "support-growth": "verify_support_growth",
             "depth": "verify_depth", "k-collapse": "kprime_collapse"}
LEMMA_ORDER = tuple(VERIFIERS)


def run_lemma(lemma: str, n: int,
              ctx: BnContext | BudgetExceeded) -> LemmaReport:
    """Run one named verifier at width n on `ctx`, or, when `ctx` is the
    BudgetExceeded its build raised, skip it on that.  The only place a
    lemma is timed, is skipped when its budget or memory runs out, and
    gets its stats; its seconds never include the B_n build."""
    if lemma not in VERIFIERS:
        raise ValueError(f"unknown lemma {lemma!r}")
    exc = ctx if isinstance(ctx, BudgetExceeded) else None
    universe = 0 if exc else ctx.subpower.size
    t0 = time.monotonic()
    if exc is None:
        try:
            report = globals()[VERIFIERS[lemma]](ctx)
        except BudgetExceeded as caught:
            exc = caught
        except MemoryError as caught:
            exc = BudgetExceeded.memory(caught)
    if exc is not None:
        report = LemmaReport(lemma, n, passed=False, skipped=True,
                             note=str(exc))
    report.stats = {"universe": universe,
                    "pairs": report.stats.get("pairs", 0),
                    "seconds": time.monotonic() - t0}
    return report


def run_width(ma: MachineAlgebra, n: int, lemmas,
              budget: Budget = DEFAULT_BUDGET) -> list[LemmaReport]:
    """The reports of `lemmas` at width n, in their order.  B_n is built
    once per algebra: `ma`'s for the plain lemmas, and for k-collapse
    `ma`'s own when it has K, else `ma.k_extended`'s.  k-collapse is
    left out below width KCOLLAPSE_MIN_N.  A build that runs out of
    budget or memory is not retried: each lemma on it is skipped."""
    for lemma in lemmas:
        if lemma not in VERIFIERS:
            raise ValueError(f"unknown lemma {lemma!r}")
    ctxs, reports = {}, []
    for lemma in lemmas:
        alg = ma
        if lemma == "k-collapse":
            if n < KCOLLAPSE_MIN_N:
                continue
            alg = ma if ma.with_k else ma.k_extended
        if alg.with_k not in ctxs:
            try:
                ctxs[alg.with_k] = build_bn(alg, n, budget)
            except BudgetExceeded as exc:
                ctxs[alg.with_k] = exc
            except MemoryError as exc:
                ctxs[alg.with_k] = BudgetExceeded.memory(exc)
        reports.append(run_lemma(lemma, n, ctxs[alg.with_k]))
    return reports
