"""How fast the host runs right now, from a fixed piece of work.

The benchmark's machine is shared: the same command's time drifts by
20 to 60% within seconds and from minute to minute, and CPU time drifts
with it, so the cause is contention outside the process.  ``run.py``
times this fixed work (0.4 to 0.5 s) before each command and after the
set-up that follows it, and scales the times of both processes by
``REFERENCE_S`` over the mean of the two calibrations around them.
That gives times in seconds at one fixed host speed, so the spread over
runs shows the program more than the neighbours.

The work is a small mix of what varietal spends its time on: ``np.unique``
over rows of small int64 arrays (closure and translation maps), a
breadth-first search over pairs held in a Python set (the congruence
engine), tuple-keyed dict updates, and gathers and ``np.unique`` over
million-row arrays (the sampled nonzero-ops check).  Contention slows
interpreted work more than streaming array work, so a probe with only
the first kind over-corrects the commands that stream.  It imports
nothing from ``src/``, so a change to the program cannot move it.
Changing ``work`` or ``REFERENCE_S`` changes every scaled time: it is a
change to the benchmark, to be measured again on both sides.
"""

from __future__ import annotations

import subprocess
import sys
import time

# A round figure near the 10th percentile (0.41 s) of `calibrate()` in
# the runs of `baseline.json` (median 0.48 s; 2 vCPUs of an Intel Xeon
# Processor, Python 3.11.7, numpy 2.4.6).  Scaled times are seconds at
# that speed.
REFERENCE_S = 0.4


def work() -> int:
    """A fixed amount of work; returns a checksum so none is skipped."""
    import numpy as np   # here, so that importing this module stays small
    total = 0
    for rep in range(4):
        rng = np.random.default_rng(12345 + rep)
        rows = rng.integers(0, 6, size=(4000, 5))
        for _ in range(6):
            total += len(np.unique(rows, axis=0))
            rows = (rows[:, ::-1] * 3 + 1) % 7
        f = [(i * 7 + 3) % 97 for i in range(97)]
        g = [(i * i + 1) % 97 for i in range(97)]
        seen = {(0, 1)}
        todo = [(0, 1)]
        while todo:
            x, y = todo.pop()
            for h in (f, g):
                pair = (h[x], h[y]) if h[x] <= h[y] else (h[y], h[x])
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
        total += len(seen)
        counts: dict[tuple[int, int], int] = {}
        for i in range(60000):
            key = (i % 211, i % 7)
            counts[key] = counts.get(key, 0) + 1
        total += len(counts)
    # Streaming over arrays far larger than the caches, as the sampled
    # nonzero-ops check does: gather a million random rows per coordinate,
    # encode them, deduplicate with the inverse.
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 62, size=(1_000_000, 4))
    elems = rng.integers(0, 3, size=(62, 5))
    for coord in range(2):
        codes = elems[ids[:, 0], coord]
        for j in range(1, 4):
            codes = codes * 3 + elems[ids[:, j], coord]
        total += len(np.unique(codes, return_inverse=True)[0])
    return total


def calibrate() -> float:
    """Wall seconds `work()` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Multiply a time measured between these two calibrations by this
    to get seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)



class Probe:
    """Runs `calibrate()` in a child process, on request.

    The bench's own process must stay small: the peak RSS that ``wait4``
    gives for a command counts the RSS its parent had when it spawned
    the command, and numpy with this work's arrays takes about 100 MB.
    The child blocks on its standard input between calibrations and ends
    when that closes.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def calibrate(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
