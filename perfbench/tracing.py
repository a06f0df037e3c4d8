"""Per-layer spans for one traced run of the varietal command line.

Run as a script, this installs timing wrappers on the layer functions of
every ``varietal`` module namespace that bound them by name, runs
``varietal.cli.main(argv)`` in this process with its standard output
captured, and prints one JSON line holding the CLI's exit code and
output, the spans and the counters.  Spans are kept in memory and
written only at the end::

    PYTHONPATH=src python3 perfbench/tracing.py depth --tm fixtures/halting.tm --n 2..5

Nothing in ``src/`` is changed: the wrappers are installed from here.
Patching only the defining module would miss calls made through other
bindings (``witness`` imports ``principal_congruence`` from ``depth``,
``cli`` imports ``build_bn`` from ``witness``, and so on), so every
namespace holding the same function object gets the same wrapper.

Imported as a module, it provides the self-time arithmetic and the
mapping from spans to the per-layer metrics, which need no ``varietal``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import EXPECTED

MODULES = ("tm", "algebra", "machine_algebra", "subpower", "depth",
           "lattice", "witness", "cli")

LEMMAS = EXPECTED["lemmas"]

# the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["per_layer"]]


# -- counters taken from a wrapped call -------------------------------------

def _count_compile(counters, args, kwargs, result):
    ma = args[0]            # MachineAlgebra.__init__(self, ...)
    counters["machine_algebra.elements"] += ma.size
    counters["machine_algebra.ops"] += len(ma.algebra.ops)


def _count_close(counters, args, kwargs, result):
    counters["subpower.close_elements"] += result.size


def _count_maps(counters, args, kwargs, result):
    maps = len(result[0])
    counters["subpower.translation_maps"] += maps
    symbols = args[1] if len(args) > 1 else kwargs.get("symbols")
    kind = "all" if symbols is None else ",".join(sorted(symbols))
    counters[f"maps:{args[0].size}:{kind}"] = maps


def _count_pairs(counters, args, kwargs, result):
    counters["depth.pairs_reached"] += len(result.depth)


def _count_congruences(counters, args, kwargs, result):
    counters["lattice.congruences"] += len(result)


# (defining module, attribute, span name, counter or None).  A span name
# is "<module>.<function>"; LAYER_SECONDS below groups them into layers.
TARGETS = [
    ("tm", "load_tm", "tm.load_tm", None),
    ("machine_algebra", "compile_machine",
     "machine_algebra.compile_machine", None),
    # k-collapse compiles its K algebra by calling the class directly
    ("machine_algebra", "MachineAlgebra.__init__",
     "machine_algebra.MachineAlgebra", _count_compile),
    ("subpower", "close_subpower", "subpower.close_subpower", _count_close),
    ("subpower", "translation_maps", "subpower.translation_maps",
     _count_maps),
    ("subpower", "op_image", "subpower.op_image", None),
    ("depth", "translation_system", "depth.translation_system", None),
    ("depth", "principal_congruence", "depth.principal_congruence", None),
    ("depth", "congruence_from_pairs", "depth.congruence_from_pairs", None),
    ("depth", "pair_depth_graph", "depth.pair_depth_graph", _count_pairs),
    ("depth", "maltsev_depth", "depth.maltsev_depth", None),
    ("depth", "maltsev_chain", "depth.maltsev_chain", None),
    ("lattice", "congruence_lattice", "lattice.congruence_lattice",
     _count_congruences),
    ("lattice", "lattice_of_congruences", "lattice.lattice_of_congruences",
     None),
    ("lattice", "is_meet_semidistributive",
     "lattice.is_meet_semidistributive", None),
    ("witness", "build_bn", "witness.build_bn", None),
    ("witness", "build_kprime", "witness.build_kprime", None),
    # run_lemma only dispatches, one call per report; its span counts the
    # reports, and its own small time is in no per-layer metric
    ("witness", "run_lemma", "witness.run_lemma", None),
    ("witness", "verify_bn_structure", "witness.structure", None),
    ("witness", "verify_nonzero_ops", "witness.nonzero-ops", None),
    ("witness", "verify_atomicity", "witness.atomic", None),
    ("witness", "verify_chain", "witness.chain", None),
    ("witness", "verify_f_characterization", "witness.f-char", None),
    ("witness", "verify_omission_all", "witness.omission", None),
    ("witness", "verify_subalgebra_omission", "witness.omission", None),
    ("witness", "verify_support_growth", "witness.support-growth", None),
    ("witness", "verify_depth", "witness.depth", None),
    ("witness", "kprime_collapse", "witness.k-collapse", None),
]

# per-layer metric -> span names whose self time it sums
LAYER_SECONDS = {
    "tm.load_s": ["tm.load_tm"],
    "machine_algebra.compile_s": ["machine_algebra.compile_machine",
                                  "machine_algebra.MachineAlgebra"],
    "subpower.close_s": ["subpower.close_subpower"],
    # translation_system only forwards to translation_maps on subpowers
    "subpower.translation_s": ["subpower.translation_maps",
                               "depth.translation_system"],
    "subpower.op_image_s": ["subpower.op_image"],
    "depth.principal_s": ["depth.principal_congruence"],
    "depth.join_s": ["depth.congruence_from_pairs"],
    "depth.pair_graph_s": ["depth.pair_depth_graph"],
    "depth.maltsev_s": ["depth.maltsev_depth", "depth.maltsev_chain"],
    "lattice.closure_s": ["lattice.congruence_lattice"],
    "lattice.order_s": ["lattice.lattice_of_congruences"],
    "lattice.sd_check_s": ["lattice.is_meet_semidistributive"],
    "witness.build_s": ["witness.build_bn", "witness.build_kprime"],
    **{f"witness.{lemma}_s": [f"witness.{lemma}"] for lemma in LEMMAS},
}

# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "subpower.close_calls": "subpower.close_subpower",
    "subpower.translation_calls": "subpower.translation_maps",
    "subpower.op_image_calls": "subpower.op_image",
    "depth.principal_calls": "depth.principal_congruence",
    "depth.join_calls": "depth.congruence_from_pairs",
    "depth.pair_graph_calls": "depth.pair_depth_graph",
    "witness.reports": "witness.run_lemma",
}

LAYER_COUNTS = ["machine_algebra.elements", "machine_algebra.ops",
                "subpower.close_elements", "subpower.translation_maps",
                "depth.pairs_reached", "lattice.congruences"]


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return wrapper


def install(recorder: Recorder):
    """Wrap every target in every varietal namespace that binds it.

    Targets missing from the program are skipped, so their metrics read
    zero.
    """
    mods = [importlib.import_module("varietal")] + \
        [importlib.import_module(f"varietal.{m}") for m in MODULES]
    by_name = {m.__name__.split(".")[-1]: m for m in mods}
    for modname, attr, span, count in TARGETS:
        owner = by_name[modname]
        head, _, method = attr.partition(".")
        if not hasattr(owner, head):
            continue
        if method:
            cls = getattr(owner, head)
            setattr(cls, method, recorder.wrap(span, getattr(cls, method),
                                               count))
            continue
        orig = getattr(owner, head)
        wrapper = recorder.wrap(span, orig, count)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)


# -- self-time arithmetic ----------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the part of each span's
    interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children[i]
                 if min(e, end) > max(s, start)]
        out[name] += (end - start) - _covered(inner)
    return dict(out)


def span_cover(spans) -> float:
    """Time covered by the root spans."""
    return _covered([(s, e) for _, s, e, parent in spans if parent is None])


def layer_metrics(spans, counters, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics, in PER_LAYER order.

    cli.self_s is the traced wall time not covered by any span (start-up,
    imports, argument parsing, JSON output); cli.trace_overhead_s is the
    traced wall time minus the untraced median.
    """
    own = self_times(spans)
    calls = Counter(name for name, *_ in spans)
    values: dict[str, float] = {}
    for metric, names in LAYER_SECONDS.items():
        values[metric] = sum(own.get(n, 0.0) for n in names)
    for metric, name in LAYER_CALLS.items():
        values[metric] = calls[name]
    for metric in LAYER_COUNTS:
        values[metric] = counters.get(metric, 0)
    values["cli.self_s"] = traced_wall - span_cover(spans)
    values["cli.trace_overhead_s"] = traced_wall - untraced_wall
    return {m: values[m] for m in PER_LAYER}


def top_layer(metrics: dict[str, float]) -> str:
    """The program layer with the largest self time (cli excluded)."""
    secs = {m: v for m, v in metrics.items()
            if m.endswith("_s") and not m.startswith("cli.")}
    return max(secs, key=secs.get)


def main(argv) -> int:
    recorder = Recorder()
    install(recorder)
    from varietal import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    doc = {"exit": code, "output": out.getvalue(), "spans": recorder.spans,
           "counters": dict(recorder.counters)}
    sys.stdout.write(json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
