"""Repeated benchmark runs: the steadiness of one checkout, or a parent
commit against a change.

    python3 perfbench/runs.py measure [--save FILE]
    python3 perfbench/runs.py compare --parent DIR --change DIR

Both run every workload of ``BENCHMARK.json`` RUNS times, with seeds 1
to RUNS and its ``run_seconds``, then once traced with seed 1.

``measure`` runs ``run.py`` on the checkout in the current directory
and prints every end-to-end metric of every workload by name with its
unit: median, quartiles, the spread (interquartile range as a share of
the median) against the metric's bound, and the failed share; then
every per-layer metric of the traced run.  ``--save`` writes every
run's record and that summary as JSON (``baseline.json`` is one).

``compare`` runs this benchmark code on two checkouts in pairs that
share a seed, alternating which side goes first, and prints one row per
workload and metric with its verdict (see ``verdict``), then the
per-layer metrics side by side, to show where a saving appears.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles
from tracing import top_layer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
RUN_TIMEOUT_S = 240


def run_once(checkout: str, workload: str, seed: int, trace: bool) -> dict:
    """One run.py process on `checkout`; its record plus the result."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"run.py did not end within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or \
            not lines[-2].startswith("record "):
        return {"error": f"run.py exit {proc.returncode}: "
                         + proc.stderr.decode()[-500:]}
    record = json.loads(lines[-2][len("record "):])
    record["result"] = json.loads(lines[-1])
    return record


def values(records: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if "result" in r]


def failed_share(records: list[dict]) -> tuple[int, int]:
    """(failed, attempted) over the records; a run that gave no result
    counts as one failed check."""
    failed = attempted = 0
    for r in records:
        if "result" in r:
            failed += r["failed"]
            attempted += r["attempted"]
        else:
            failed += 1
            attempted += 1
    return failed, attempted


def spread(vals: list[float]) -> float:
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med


def verdict(parent: list[float], change: list[float], bound: float,
            better: str = "lower") -> tuple[str, int]:
    """The rule for one workload and metric over paired runs.

    gain: the change wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than the parent's interquartile range.
    regression: the change's median is worse than the parent's by more
    than `bound` as a share of the parent's median.  unresolved: either
    side spreads wider than the bound and not every change run beats
    every parent run.  Otherwise: no regression.  Returns the verdict
    and the number of pairs the change won.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain", wins
    if sign * (cm - pm) > bound * pm:
        return "regression", wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    return "no regression", wins


def _fmt(vals: list[float]) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def summarize(records: list[dict], traced: dict) -> dict:
    """One workload's runs: per end-to-end metric its quartiles and
    spread, the failed share, and the traced run's per-layer metrics."""
    failed, attempted = failed_share(records)
    out = {"runs": len(records), "failed": failed, "attempted": attempted,
           "errors": [r["error"] for r in records if "error" in r],
           "end_to_end": {}}
    for name, m in E2E.items():
        vals = values(records, name)
        if vals:
            q1, med, q3 = quartiles(vals)
            out["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "spread": spread(vals), "bound": m["bound"],
                "unit": m["unit"]}
    out["per_layer"] = traced.get("layers")
    if out["per_layer"]:
        out["largest_self_time"] = top_layer(out["per_layer"])
    return out


def print_measure(summary: dict):
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, failed_share "
              f"{s['failed'] / s['attempted']:.4f} "
              f"({s['failed']} of {s['attempted']} checks)")
        for err in s["errors"]:
            print(f"  ERROR {err}")
        for name, st in s["end_to_end"].items():
            third = st["spread"] <= st["bound"] / 3
            print(f"  {name:<12} {st['median']:.4f} [{st['q1']:.4f}, "
                  f"{st['q3']:.4f}] {st['unit']:<3} n={st['n']}  spread "
                  f"{st['spread']:.4f} bound {st['bound']}"
                  f"{'' if third else '  (above a third)'}")
        for name, value in (s["per_layer"] or {}).items():
            print(f"  {name:<28} {value:.4f} s" if name.endswith("_s")
                  else f"  {name:<28} {value} count")
        if s["per_layer"]:
            print(f"  largest self time: {s['largest_self_time']}")


def print_compare(runs: dict, traced: dict):
    for workload in runs["parent"]:
        par, chg = runs["parent"][workload], runs["change"][workload]
        pf, pa = failed_share(par)
        cf, ca = failed_share(chg)
        flag = "  FAILED SHARE ROSE" if cf / ca > pf / pa else ""
        print(f"{workload}: failed_share parent {pf}/{pa}, change {cf}/{ca}"
              f"{flag}")
        for name, m in E2E.items():
            pv, cv = values(par, name), values(chg, name)
            if not pv or len(pv) != len(cv):
                print(f"  {name:<12} unresolved: runs missing")
                continue
            v, wins = verdict(pv, cv, m["bound"], m["better"])
            print(f"  {name:<12} parent {_fmt(pv)}  change {_fmt(cv)} "
                  f"{m['unit']:<3} wins {wins}/{len(pv)}  {v}")
        lp = traced["parent"][workload].get("layers")
        lc = traced["change"][workload].get("layers")
        if lp and lc:
            for name in lp:
                print(f"  {name:<28} parent {lp[name]:.4f}  change "
                      f"{lc[name]:.4f}  delta {lc[name] - lp[name]:+.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("measure").add_argument(
        "--save", help="write every record and the summary here as JSON")
    cmp = sub.add_parser("compare")
    cmp.add_argument("--parent", required=True)
    cmp.add_argument("--change", required=True)
    args = ap.parse_args(argv)

    if args.mode == "measure":
        sides = {"this": "."}
    else:
        sides = {"parent": args.parent, "change": args.change}
    runs = {side: {w: [] for w in WORKLOAD_NAMES} for side in sides}
    traced = {side: {} for side in sides}
    for w in WORKLOAD_NAMES:
        for i in range(RUNS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                rec = run_once(sides[side], w, 1 + i, False)
                runs[side][w].append(rec)
                print(f"{side} {w} seed {1 + i}: "
                      f"{rec.get('error') or rec['result']['metrics']}",
                      file=sys.stderr, flush=True)
        for side in sides:
            traced[side][w] = run_once(sides[side], w, 1, True)
    if args.mode == "compare":
        print_compare(runs, traced)
        return 0
    runs, traced = runs["this"], traced["this"]
    summary = {w: summarize(runs[w], traced[w]) for w in WORKLOAD_NAMES}
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"command": ["python3", "perfbench/runs.py", "measure"],
             "summary": summary, "runs": runs, "traced": traced}, indent=1))
    print_measure(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
