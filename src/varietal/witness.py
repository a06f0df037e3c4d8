"""Witness subpowers and the lemma-level verification suite.

For a compiled machine algebra and a width n >= 2, the witness subpower
is generated inside the n-th power by the tuples

    b_i = (D,...,D,0,...,0)   with i leading D's, 1 <= i <= n,
    d_i = (D,...,D,bD,0,...)  with bD at coordinate i, 2 <= i <= n,

with a = b_1.  The derived tuples c_i = (0,D,...,D,0,...) (D at
coordinates 2..i) appear in the closure.  Every verifier returns a
LemmaReport carrying pass/fail, witnesses, counterexamples, and size
stats, and never raises on a falsified claim; budget exhaustion is
reported as skipped.  No verifier samples, so --seed changes no verdict.

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
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .algebra import Budget, BudgetExceeded, DEFAULT_BUDGET, TranslationStep
from .depth import PairDepthGraph, TranslationSystem, maltsev_depth, \
    pair_depth_graph, principal_congruences, translation_system
from .machine_algebra import MachineAlgebra, vector_evaluator
from .subpower import Subpower, close_subpower, op_image

NONZERO_OPS = ("meet", "J", "J'", "S2")


@dataclass
class LemmaReport:
    lemma: str
    n: int
    passed: bool
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    skipped: bool = False
    note: str = ""

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


@dataclass(eq=False)
class BnContext:
    """The witness subpower plus named generators and derived tuples, with
    its translation system and its pair walk from (a, 0), each built once."""

    n: int
    algebra: MachineAlgebra
    subpower: Subpower
    a: tuple[int, ...]
    b: dict[int, tuple[int, ...]]
    d: dict[int, tuple[int, ...]]
    c: dict[int, tuple[int, ...]]
    zero_tuple: tuple[int, ...]
    budget: Budget
    _system: TranslationSystem | None = None
    _walk: PairDepthGraph | None = None

    def id_of(self, raw: tuple[int, ...]) -> int:
        return self.subpower.index[raw]

    @property
    def a_id(self) -> int:
        return self.id_of(self.a)

    @property
    def zero_id(self) -> int:
        return self.id_of(self.zero_tuple)

    def system(self) -> TranslationSystem:
        if self._system is None:
            self._system = translation_system(self.subpower, budget=self.budget)
        return self._system

    def walk(self) -> PairDepthGraph:
        """The pair walk from (a, 0), shared by atomic, chain, f-char and depth."""
        if self._walk is None:
            self._walk = pair_depth_graph(self.system(), self.a_id, self.zero_id,
                                          budget=self.budget)
        return self._walk

    def render(self, raw: tuple[int, ...]) -> list[str]:
        names = self.algebra.names
        return [names[v] for v in raw]

    def render_id(self, element_id: int) -> list[str]:
        return self.render(self.subpower.elements[element_id])

    def step_json(self, step: TranslationStep) -> dict:
        return {"op": step.op, "position": step.position,
                "constants": [self.render_id(c) for c in step.constants]}


def witness_tuples(ma: MachineAlgebra, n: int):
    """The generator and derived tuples, instantiated at width n."""
    dd = ma.idx("D")
    bd = ma.idx("bD")
    b = {i: (dd,) * i + (0,) * (n - i) for i in range(1, n + 1)}
    d = {i: (dd,) * (i - 1) + (bd,) + (0,) * (n - i) for i in range(2, n + 1)}
    c = {i: (0,) + (dd,) * (i - 1) + (0,) * (n - i) for i in range(1, n + 1)}
    return b, d, c


def build_bn(ma: MachineAlgebra, n: int,
             budget: Budget = DEFAULT_BUDGET) -> BnContext:
    """Close the witness generators inside the n-th power.

    The closure sweeps every operation of the algebra; the claim that
    only four of them matter is verified afterwards, not assumed.
    """
    if n < 2:
        raise ValueError("witness width must be at least 2")
    b, d, c = witness_tuples(ma, n)
    gens = [b[i] for i in range(1, n + 1)] + [d[i] for i in range(2, n + 1)]
    sp = close_subpower(ma.algebra, n, gens, budget)
    ctx = BnContext(n=n, algebra=ma, subpower=sp, a=b[1], b=b, d=d, c=c,
                    zero_tuple=(0,) * n, budget=budget)
    # sanity: the derived tuples really are in the closure
    for raw in [c[i] for i in range(1, n + 1)] + [ctx.zero_tuple]:
        if raw not in sp.index:
            raise ValueError(f"{ctx.render(raw)} missing from the closure")
    return ctx


def _stats(ctx: BnContext, pairs: int, t0: float) -> dict:
    return {"universe": ctx.subpower.size, "pairs": pairs,
            "seconds": time.monotonic() - t0}


def _skip(lemma: str, n: int, exc: BudgetExceeded, t0: float,
          universe: int = 0) -> LemmaReport:
    return LemmaReport(lemma, n, passed=False, skipped=True,
                       note=f"budget exhausted: {exc}",
                       stats={"universe": universe, "pairs": 0,
                              "seconds": time.monotonic() - t0})


# ---------------------------------------------------------------------------
# structure

def verify_bn_structure(ctx: BnContext) -> LemmaReport:
    """Four membership constraints on every element x of the closure:
    (1) x(1) in {0,D} and every x(l) in {0,D,bD};
    (2) at most one coordinate equals bD;
    (3) every coordinate after a bD is 0;
    (4) if x(l) = bD then x = d_l or some earlier coordinate is 0.
    """
    t0 = time.monotonic()
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
    report = LemmaReport("structure", ctx.n, passed=not bad,
                         counterexamples=bad,
                         stats=_stats(ctx, 0, t0))
    report.witnesses = [{"universe": ctx.subpower.size,
                         "checked_items": [1, 2, 3, 4]}]
    return report


# ---------------------------------------------------------------------------
# nonzero-ops

def verify_nonzero_ops(ctx: BnContext) -> LemmaReport:
    """Every operation outside {meet, J, J', S2} maps the subpower S to
    the all-zero tuple, checked by the automaton image and, at arities
    4-5, by the independent case rules of `vector_evaluator` too.  As f
    acts coordinatewise, the coordinate-c arguments over S^k are exactly
    V_c^k, V_c = {x(c) : x in S}; so f(S^k) = {0} iff all f(V_c^k) = {0}.
    """
    t0 = time.monotonic()
    sp = ctx.subpower
    zero_t = ctx.zero_tuple
    counterexamples = []
    witnesses = []
    columns = [np.unique(column, return_index=True)
               for column in np.asarray(sp.elements, dtype=np.int64).T]
    try:
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
    except BudgetExceeded as exc:
        return _skip("nonzero-ops", ctx.n, exc, t0, sp.size)
    passed = not counterexamples and len(witnesses) == len(NONZERO_OPS)
    return LemmaReport("nonzero-ops", ctx.n, passed, witnesses,
                       counterexamples, _stats(ctx, 0, t0))


# ---------------------------------------------------------------------------
# atomic

def verify_atomicity(ctx: BnContext) -> LemmaReport:
    """theta = Cg(a, 0) is atomic: every (u,v) in theta with u != v
    satisfies Cg(u,v) >= theta."""
    t0 = time.monotonic()
    sp = ctx.subpower
    try:
        theta = ctx.walk().congruence()
        # theta is a congruence: the pairs in its blocks are closed under images
        pairs = [p for block in theta.blocks() for p in combinations(block, 2)]
        bad = [{"pair": [ctx.render_id(u), ctx.render_id(v)]}
               for (u, v), psi in zip(pairs, principal_congruences(
                   ctx.system(), pairs, budget=ctx.budget))
               if not theta.refines(psi)]
    except BudgetExceeded as exc:
        return _skip("atomic", ctx.n, exc, t0, sp.size)
    passed = not bad and theta.num_blocks < sp.size
    report = LemmaReport("atomic", ctx.n, passed, counterexamples=bad,
                         stats=_stats(ctx, len(pairs), t0))
    report.witnesses = [{"theta_blocks": theta.num_blocks,
                         "nontrivial_pairs_checked": len(pairs)}]
    if theta.num_blocks == sp.size:
        report.note = "Cg(a,0) is the identity; nothing to regenerate"
    return report


# ---------------------------------------------------------------------------
# chain

def explicit_chain_polynomial(ctx: BnContext):
    """The n-1 step translation chain J'(b_l, d_l, -): returns the step
    list plus the values it takes on a and on the zero tuple."""
    sp = ctx.subpower
    steps = [TranslationStep("J'", 2, (ctx.id_of(ctx.b[l]), ctx.id_of(ctx.d[l])))
             for l in range(2, ctx.n + 1)]
    x, y = ctx.a_id, ctx.zero_id
    for step in steps:
        bl, dl = step.constants
        x = sp.eval("J'", (bl, dl, x))
        y = sp.eval("J'", (bl, dl, y))
    return steps, x, y


def verify_chain(ctx: BnContext) -> LemmaReport:
    """The chain sends a to b_n and 0 to c_n, each intermediate step maps
    (b_{l-1}, c_{l-1}) to (b_l, c_l), and the generic congruence engine
    agrees that (b_n, c_n) lies in Cg(a, 0)."""
    t0 = time.monotonic()
    sp = ctx.subpower
    bad = []
    witnesses = []
    for l in range(2, ctx.n + 1):
        bl, dl = ctx.id_of(ctx.b[l]), ctx.id_of(ctx.d[l])
        prev_b = ctx.id_of(ctx.b[l - 1])
        prev_c = ctx.id_of(ctx.c[l - 1])
        got_b = sp.eval("J'", (bl, dl, prev_b))
        got_c = sp.eval("J'", (bl, dl, prev_c))
        if got_b != ctx.id_of(ctx.b[l]):
            bad.append({"step": l, "expected": ctx.render(ctx.b[l]),
                        "got": ctx.render_id(got_b)})
        if got_c != ctx.id_of(ctx.c[l]):
            bad.append({"step": l, "expected": ctx.render(ctx.c[l]),
                        "got": ctx.render_id(got_c)})
    steps, fa, f0 = explicit_chain_polynomial(ctx)
    if fa != ctx.id_of(ctx.b[ctx.n]):
        bad.append({"chain_value_on_a": ctx.render_id(fa)})
    if f0 != ctx.id_of(ctx.c[ctx.n]):
        bad.append({"chain_value_on_0": ctx.render_id(f0)})
    pairs = 0
    try:
        theta = ctx.walk().congruence()
        pairs = sum(len(bl) * (len(bl) - 1) // 2 for bl in theta.blocks())
        if not theta.relates(ctx.id_of(ctx.b[ctx.n]), ctx.id_of(ctx.c[ctx.n])):
            bad.append({"generic_congruence_misses": "(b_n, c_n)"})
    except BudgetExceeded as exc:
        return _skip("chain", ctx.n, exc, t0, sp.size)
    witnesses.append({"chain": [ctx.step_json(s) for s in steps],
                      "length": len(steps)})
    return LemmaReport("chain", ctx.n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad, stats=_stats(ctx, pairs, t0))


# ---------------------------------------------------------------------------
# f-char

def verify_f_characterization(ctx: BnContext) -> LemmaReport:
    """Among the pairs of the walk from (a, 0) within n+2 layers, the only
    element paired with b_n besides itself is c_n."""
    t0 = time.monotonic()
    cap = ctx.n + 2
    try:
        reached = [p for p, d in ctx.walk().depth.items() if d <= cap]
    except BudgetExceeded as exc:
        return _skip("f-char", ctx.n, exc, t0, ctx.subpower.size)
    b_id = ctx.id_of(ctx.b[ctx.n])
    c_id = ctx.id_of(ctx.c[ctx.n])
    partners = set()
    for x, y in reached:
        if x == b_id and y != b_id:
            partners.add(y)
        elif y == b_id and x != b_id:
            partners.add(x)
    bad = [{"partner": ctx.render_id(p)} for p in sorted(partners - {c_id})]
    if c_id not in partners:
        bad.append({"missing_partner": ctx.render(ctx.c[ctx.n])})
    report = LemmaReport("f-char", ctx.n, passed=not bad,
                         counterexamples=bad,
                         stats=_stats(ctx, len(reached), t0))
    report.witnesses = [{"cap": cap, "pairs_reached": len(reached),
                         "partners_of_b_n": [ctx.render_id(p)
                                             for p in sorted(partners)]}]
    return report


# ---------------------------------------------------------------------------
# omission

def verify_subalgebra_omission(ctx: BnContext, k: int) -> LemmaReport:
    """Dropping the generator d_k yields a proper subalgebra C in which
    the class of b_n under Cg^C(a,0) is trivial; in particular (b_n,c_n)
    is not in Cg^C(a,0).  Also checks J(b_n, d_k, b_n) = b_k, the fact
    that makes omitting b_k equivalent to omitting d_k."""
    t0 = time.monotonic()
    if not 2 <= k <= ctx.n:
        raise ValueError(f"omitted index {k} out of range 2..{ctx.n}")
    sp = ctx.subpower
    n = ctx.n
    bad = []
    witnesses = []
    got = sp.eval_tuple("J", (ctx.b[n], ctx.d[k], ctx.b[n]))
    if got != ctx.b[k]:
        bad.append({"J(b_n,d_k,b_n)": ctx.render(got),
                    "expected": ctx.render(ctx.b[k])})
    gens = [ctx.b[i] for i in range(1, n + 1)]
    gens += [ctx.d[i] for i in range(2, n + 1) if i != k]
    try:
        sub = close_subpower(sp.base, n, gens, ctx.budget)
        if not set(sub.elements) < set(sp.elements):
            bad.append({"closure": "not a proper subset"})
        witnesses.append({"omitted": ctx.render(ctx.d[k]),
                          "closure_size": sub.size,
                          "full_size": sp.size})
        theta = pair_depth_graph(translation_system(sub, budget=ctx.budget),
                                 sub.index[ctx.a], sub.index[ctx.zero_tuple],
                                 budget=ctx.budget).congruence()
        b_id = sub.index.get(ctx.b[n])
        if b_id is None:
            raise RuntimeError("b_n is a generator, must be present")
        block = [e for e in theta.blocks() if b_id in e][0]
        if len(block) > 1:
            bad.append({"b_n_class": [ctx.render(sub.elements[e])
                                      for e in block]})
        c_id = sub.index.get(ctx.c[n])
        if c_id is not None and theta.relates(b_id, c_id):
            bad.append({"related": "(b_n, c_n) in Cg^C(a,0)"})
        witnesses.append({"c_n_in_C": c_id is not None})
    except BudgetExceeded as exc:
        return _skip("omission", ctx.n, exc, t0, sp.size)
    return LemmaReport("omission", ctx.n, passed=not bad,
                       witnesses=witnesses, counterexamples=bad,
                       stats=_stats(ctx, 0, t0))


def verify_omission_all(ctx: BnContext) -> LemmaReport:
    """All omitted indices k in 2..n, merged into one report."""
    t0 = time.monotonic()
    merged = LemmaReport("omission", ctx.n, passed=True,
                         stats={"universe": ctx.subpower.size, "pairs": 0,
                                "seconds": 0.0})
    for k in range(2, ctx.n + 1):
        rep = verify_subalgebra_omission(ctx, k)
        if rep.skipped:
            return rep
        merged.passed = merged.passed and rep.passed
        merged.witnesses.append({"k": k, "details": rep.witnesses})
        merged.counterexamples.extend(
            {"k": k, **c} for c in rep.counterexamples)
    merged.stats["seconds"] = time.monotonic() - t0
    return merged


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
    t0 = time.monotonic()
    sp = ctx.subpower
    try:
        system = ctx.system()
        if any(step.op not in NONZERO_OPS for step in system.steps):
            system = translation_system(sp, NONZERO_OPS, ctx.budget)
    except BudgetExceeded as exc:
        return _skip("support-growth", ctx.n, exc, t0, sp.size)
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
    report = LemmaReport("support-growth", ctx.n, passed=not bad,
                         counterexamples=bad,
                         stats=_stats(ctx, len(hyp_pairs), t0))
    report.witnesses = [{"hypothesis_pairs": len(hyp_pairs),
                         "translations": len(system.table)}]
    return report


# ---------------------------------------------------------------------------
# depth

def verify_depth(ctx: BnContext) -> LemmaReport:
    """The depth equals n-1 exactly: the explicit chain gives the upper
    bound and the support-growth argument forbids anything shallower."""
    t0 = time.monotonic()
    try:
        graph = ctx.walk()
    except BudgetExceeded as exc:
        return _skip("depth", ctx.n, exc, t0, ctx.subpower.size)
    depth = maltsev_depth(graph, (ctx.id_of(ctx.b[ctx.n]),
                                  ctx.id_of(ctx.c[ctx.n])))
    expected = ctx.n - 1
    passed = depth == expected
    report = LemmaReport("depth", ctx.n, passed,
                         stats=_stats(ctx, len(graph.depth), t0))
    report.witnesses = [{"depth": depth, "expected": expected}]
    if not passed:
        report.counterexamples = [{"depth": depth, "expected": expected}]
    return report


# ---------------------------------------------------------------------------
# k-collapse

KCOLLAPSE_MIN_N = 3


def kprime_collapse(ma_k: MachineAlgebra, n: int,
                    budget: Budget = DEFAULT_BUDGET) -> LemmaReport:
    """With the extra K operation, iterating b'_2 = d_n and
    b'_{k+1} = K(b_n, b'_k, d_{n-(k-1)}) produces b'_n whose coordinates
    2..n are the barred twins of b_n's.  The single translation
    J'(b_n, b'_n, -) then maps (a, 0) straight to (b_n, c_n), so the
    depth collapses to 1.  The element b'_n also breaks the structure
    constraint that at most one coordinate is barred.
    """
    t0 = time.monotonic()
    if not ma_k.with_k:
        raise ValueError("k-collapse needs the algebra compiled with K")
    if n < KCOLLAPSE_MIN_N:
        raise ValueError(f"k-collapse is meaningful for n >= {KCOLLAPSE_MIN_N}")
    try:
        ctx = build_bn(ma_k, n, budget)
    except BudgetExceeded as exc:
        return _skip("k-collapse", n, exc, t0)
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
                               counterexamples=[{"escape": str(exc)}],
                               stats=_stats(ctx, 0, t0))
        trace.append(b_prime)
    raw = sp.elements[b_prime]
    bar = ctx.algebra.bar_index
    b_n, c_n = ctx.b[n], ctx.c[n]
    for i in range(1, n):
        if raw[i] != bar[b_n[i]]:
            bad.append({"coordinate": i + 1,
                        "b_prime": ctx.render(raw)})
    barred_count = sum(1 for v in raw if bar[v] >= 0
                       and ctx.algebra.elements[v].barred)
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
    # from {a, 0}: its depth is 1 unless it is trivial or that source pair
    if b_id == c_id or {b_id, c_id} == {ctx.a_id, ctx.zero_id}:
        depth = 0
    else:
        depth = 1 if len(bad) == before else None
    if depth != 1:
        bad.append({"depth": depth, "expected": 1})
    witnesses = [{"b_prime": ctx.render(raw),
                  "recursion_trace": [ctx.render_id(e) for e in trace],
                  "depth": depth}]
    return LemmaReport("k-collapse", n, passed=not bad, witnesses=witnesses,
                       counterexamples=bad, stats=_stats(ctx, 0, t0))


# ---------------------------------------------------------------------------
# dispatch

LEMMA_ORDER = ("structure", "nonzero-ops", "atomic", "chain", "f-char",
               "omission", "support-growth", "depth", "k-collapse")


def run_lemma(lemma: str, ma: MachineAlgebra, n: int, *,
              budget: Budget = DEFAULT_BUDGET,
              ctx: BnContext | None = None) -> LemmaReport:
    """Run one named verifier at width n; k-collapse compiles its own
    K-extended algebra from the same machine."""
    if lemma == "k-collapse":
        ma_k = ma if ma.with_k else MachineAlgebra(ma.machine, with_k=True)
        return kprime_collapse(ma_k, n, budget)
    t0 = time.monotonic()
    if ctx is None:
        try:
            ctx = build_bn(ma, n, budget)
        except BudgetExceeded as exc:
            return _skip(lemma, n, exc, t0)
    if lemma == "structure":
        return verify_bn_structure(ctx)
    if lemma == "nonzero-ops":
        return verify_nonzero_ops(ctx)
    if lemma == "atomic":
        return verify_atomicity(ctx)
    if lemma == "chain":
        return verify_chain(ctx)
    if lemma == "f-char":
        return verify_f_characterization(ctx)
    if lemma == "omission":
        return verify_omission_all(ctx)
    if lemma == "support-growth":
        return verify_support_growth(ctx)
    if lemma == "depth":
        return verify_depth(ctx)
    raise ValueError(f"unknown lemma {lemma!r}")
