"""One benchmark run of one workload.

    python3 perfbench/run.py --workload depth --seed 1 --seconds 15 --trace 0

Run from the root of a varietal checkout; the program is taken from its
``src/`` (``PYTHONPATH=src``, nothing is installed).  Each measured
command is a fresh single-threaded process, one at a time, in a closed
loop with one client, repeated until ``--seconds`` have passed.  Every
output is checked against the paper's answers (``workloads.py``) and
against the first output of the run, byte for byte.

``--trace 0`` reports the end-to-end metrics: medians over the run of
wall time to verdict, child CPU time, the child's peak RSS, and set-up
time (fresh interpreter to compiled algebra; one set-up process after
each command, and at least SETUP_REPS).  A calibration (``hostspeed.py``)
runs before the first command and after each set-up; every measured
process is scaled to the reference host speed by the two calibrations
around it.  The times as measured are in the record line.  ``--trace 1``
makes the same untraced runs, then one traced run (``tracing.py``) and
reports the per-layer metrics.

The last line of standard output is the JSON result; the line before it
starts with ``record`` and holds every sample and the run's stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing
from workloads import TM, WORKLOADS, check_counters, check_output, \
    first_difference

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 7
ITERATION_CAP_S = 60.0   # kill a measured command after this long
HARD_LIMIT_S = 170.0     # the whole run ends before this

SETUP_CODE = """
import json, platform, sys
import numpy
import varietal
varietal.compile_machine(varietal.load_tm(sys.argv[1]),
                         with_k=sys.argv[2] == "1")
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__}))
"""


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    exit: int | None      # None: killed by the timeout or by a signal
    stdout: bytes
    stderr: bytes
    speed: float = 1.0    # scales its times to the reference host speed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "VARIETAL_BUDGET_SECONDS")}
    env["PYTHONPATH"] = "src"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float) -> Sample:
    """Run one process to its end, or kill it after `timeout` seconds."""
    if timeout <= 0:
        return Sample(0.0, 0.0, 0.0, None, b"", b"no time left")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[str, bytes] = {}
    readers = [threading.Thread(target=lambda k, s: chunks.__setitem__(k, s.read()),
                                args=(k, s))
               for k, s in (("out", proc.stdout), ("err", proc.stderr))]
    for r in readers:
        r.start()
    killed = []
    timer = threading.Timer(timeout, lambda: (killed.append(1), proc.kill()))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  None if killed or code < 0 else code,
                  chunks.get("out", b""), chunks.get("err", b""))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def head_commit() -> str | None:
    """The checkout's commit, or None outside a git checkout.

    git resolves loose and packed refs and worktrees; ``--git-dir`` keeps
    it from searching the directories above the checkout.
    """
    try:
        proc = subprocess.run(["git", "--git-dir=.git", "rev-parse",
                               "--verify", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(args, versions: dict, commands: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "commands": commands,
            "trace": bool(args.trace),
            "commit": head_commit(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu": cpu, **versions}


class Checks:
    """Counts attempted and failed checks; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, where: str, results: dict[str, str | None]):
        for name, reason in results.items():
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(f"{where}: {name}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for need in ("src/varietal/cli.py", TM):
        if not Path(need).is_file():
            print(f"error: {need} not found; run from the root of a varietal "
                  "checkout", file=sys.stderr)
            return 2

    start = time.perf_counter()

    def left(cap: float) -> float:
        return min(cap, HARD_LIMIT_S - (time.perf_counter() - start))

    w = WORKLOADS[args.workload]
    py = sys.executable

    setup = [py, "-c", SETUP_CODE, TM, "1" if w.with_k else "0"]
    setups: list[Sample] = []
    with hostspeed.Probe() as probe:
        probe.calibrate()   # warm-up, not kept
        calibrations = [probe.calibrate()]

        def calibrate(*since: Sample):
            """Calibrate again; scale the processes run since the last
            calibration by the two calibrations around them."""
            calibrations.append(probe.calibrate())
            for s in since:
                s.speed = hostspeed.factor(*calibrations[-2:])

        def set_up() -> Sample | None:
            setups.append(s := run_child(setup, left(ITERATION_CAP_S)))
            if s.exit != 0:
                print("error: set-up failed:\n"
                      + s.stderr.decode(errors="replace"), file=sys.stderr)
                return None
            return s

        checks = Checks()
        cli = [py, "-m", "varietal.cli", *w.argv(args.seed)]
        samples: list[Sample] = []
        first = None
        loop_start = time.perf_counter()
        while True:
            # The host's speed drifts within a run; a set-up after each
            # command spreads the set-up samples over the run, as the
            # commands are, and both are scaled by the same calibrations.
            samples.append(s := run_child(cli, left(ITERATION_CAP_S)))
            if not (s_up := set_up()):
                return 1
            calibrate(s, s_up)
            where = f"run {len(samples)}"
            results = check_output(w, s.stdout, s.exit)
            if first is None:
                first = s.stdout
            elif (diff := first_difference(first, s.stdout)) is not None:
                results = dict.fromkeys(results, diff)
            checks.add(where, results)
            if time.perf_counter() - loop_start >= args.seconds or left(1.0) <= 0:
                break
        while len(setups) < SETUP_REPS:
            if not (s_up := set_up()):
                return 1
            calibrate(s_up)
    versions = json.loads(setups[-1].stdout)

    ok = [s for s in samples if s.exit is not None] or samples
    summary = {}
    for name, vals in (("wall_ref_s", [s.wall * s.speed for s in ok]),
                       ("cpu_ref_s", [s.cpu * s.speed for s in ok]),
                       ("peak_rss_mb", [s.rss_mb for s in ok]),
                       ("setup_s", [s.wall * s.speed for s in setups]),
                       # as measured, before scaling
                       ("wall_s", [s.wall for s in ok]),
                       ("setup_wall_s", [s.wall for s in setups]),
                       ("calibration_s", calibrations)):
        q1, med, q3 = quartiles(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
    units = dict.fromkeys(summary, "s") | {"peak_rss_mb": "MB"}
    end_to_end = ("wall_ref_s", "cpu_ref_s", "peak_rss_mb", "setup_s")

    layers = None
    if args.trace:
        s = run_child([py, str(BENCH / "tracing.py"), *w.argv(args.seed)],
                      left(ITERATION_CAP_S))
        try:
            doc = json.loads(s.stdout.splitlines()[-1])
            output, code = doc["output"].encode(), doc["exit"]
            spans, counters = doc["spans"], doc["counters"]
        except (ValueError, IndexError, KeyError):
            output, code, spans, counters = b"", None, [], {}
        results = check_output(w, output, code if s.exit is not None else None)
        if (diff := first_difference(first, output)) is not None:
            results = dict.fromkeys(results, diff)
        results.update(check_counters(w, counters))
        checks.add("traced run", results)
        layers = tracing.layer_metrics(spans, counters, s.wall,
                                       summary["wall_s"]["median"])

    print(f"workload {w.name}: {' '.join(w.argv(args.seed))}")
    for name, st in summary.items():
        print(f"  {name:<12} {st['median']:.4f} {units[name]}  "
              f"(q1 {st['q1']:.4f}, q3 {st['q3']:.4f}, n={st['n']})")
    print(f"  failed_share {checks.failed / checks.attempted:.4f}  "
          f"({checks.failed} of {checks.attempted} checks)")
    for reason in checks.reasons:
        print(f"  FAILED {reason}")
    if layers is not None:
        for name, value in layers.items():
            unit = "s" if name.endswith("_s") else "count"
            print(f"  {name:<28} {value:.4f} {unit}" if unit == "s"
                  else f"  {name:<28} {value} {unit}")
        print(f"  largest self time: {tracing.top_layer(layers)}")

    record = {"stamp": stamp(args, versions, len(samples)), "summary": summary,
              "samples": [{"wall": s.wall, "cpu": s.cpu, "rss_mb": s.rss_mb,
                           "speed": s.speed, "exit": s.exit} for s in samples],
              "setup_samples": [{"wall": s.wall, "speed": s.speed}
                                for s in setups],
              "calibrations": calibrations,
              "attempted": checks.attempted, "failed": checks.failed,
              "failures": checks.reasons, "layers": layers}
    print("record " + json.dumps(record))

    if layers is None:
        metrics = {name: {"value": summary[name]["median"], "unit": units[name]}
                   for name in end_to_end}
    else:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in layers.items()}
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
