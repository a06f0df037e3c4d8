"""The four benchmark workloads and the checker for their answers.

Every workload is one ``varietal`` command on ``fixtures/halting.tm``.
Only ``suite`` takes the seed (it seeds the nonzero-ops sampling); the
other three are deterministic and ignore it.

A check is one report (one lemma at one width), one lattice row or one
width row.  The answers come from the paper: every report PASSED,
|B_n| = 2^(n+1) - 2, depth n-1 at width n, depth 1 with K, SD-meet
lattices, exit code 0.  Counts that must repeat exactly (congruences per
width, K universes, translation maps per universe) are pinned in
``expected.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

TM = "fixtures/halting.tm"

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    widths: tuple[int, ...]
    with_k: bool            # the compile flag timed by setup_s
    seeded: bool = False

    def argv(self, seed: int) -> list[str]:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


def _range(widths) -> str:
    return f"{widths[0]}..{widths[-1]}"


def _make(name, command, widths, **kw) -> Workload:
    return Workload(name, (*command, "--tm", TM, "--n", _range(widths)),
                    tuple(widths), **kw)


WORKLOADS = {
    w.name: w for w in [
        _make("suite", ["verify"], (2, 3), with_k=False, seeded=True),
        _make("depth", ["depth"], (2, 3, 4, 5), with_k=False),
        _make("lattice", ["sd-meet"], (2, 3, 4), with_k=False),
        _make("kclosure", ["bn", "build", "--with-k"], (2, 3, 4, 5),
              with_k=True),
    ]
}


def bn_universe(n: int) -> int:
    return 2 ** (n + 1) - 2


def expected_checks(w: Workload) -> list[str]:
    if w.name == "suite":
        return [f"n={n} {lemma}" for n in w.widths for lemma in EXPECTED["lemmas"]
                if lemma != "k-collapse" or n >= 3]
    return [f"n={n} {w.name}" for n in w.widths]


def _check_report(r: dict, n: int, lemma: str) -> str | None:
    if r["status"] != "PASSED":
        return f"status {r['status']}"
    universe = r["stats"]["universe"]
    if lemma == "k-collapse":
        if universe != EXPECTED["k_universe"][str(n)]:
            return f"K universe {universe}"
        depth = r["witnesses"][0]["depth"]
        return None if depth == 1 else f"k-collapse depth {depth}, want 1"
    if universe != bn_universe(n):
        return f"universe {universe}, want {bn_universe(n)}"
    if lemma == "depth":
        depth = r["witnesses"][0]["depth"]
        return None if depth == n - 1 else f"depth {depth}, want {n - 1}"
    return None


def _check_suite(doc, n, lemma, reports):
    r = reports.get((n, lemma))
    return "missing report" if r is None else _check_report(r, n, lemma)


def _check_depth(doc, n, _, reports):
    i = n - doc["n_range"][0]
    if doc["depths"][i] != n - 1:
        return f"depth {doc['depths'][i]}, want {n - 1}"
    r = reports.get((n, "depth"))
    return "missing report" if r is None else _check_report(r, n, "depth")


def _row(rows, n):
    for row in rows:
        if row["n"] == n:
            return row
    raise KeyError(f"no row for n={n}")


def _check_lattice(doc, n, _, reports):
    row = _row(doc["lattices"], n)
    if row["universe"] != bn_universe(n):
        return f"universe {row['universe']}, want {bn_universe(n)}"
    want = EXPECTED["congruences"][str(n)]
    if row["congruences"] != want:
        return f"{row['congruences']} congruences, want {want}"
    if row["sd_meet"] is not True or row["witness"] is not None:
        return f"not SD-meet: witness {row['witness']}"
    return None


def _check_kclosure(doc, n, _, reports):
    row = _row(doc["widths"], n)
    want = EXPECTED["k_universe"][str(n)]
    if row["universe"] != want:
        return f"K universe {row['universe']}, want {want}"
    return None


_CHECKERS = {"suite": _check_suite, "depth": _check_depth,
             "lattice": _check_lattice, "kclosure": _check_kclosure}


def check_output(w: Workload, stdout: bytes, exit_code: int | None
                 ) -> dict[str, str | None]:
    """Map each expected check to None (passed) or the reason it failed.

    exit_code None means the run was killed or crashed.
    """
    names = expected_checks(w)
    if exit_code is None:
        return dict.fromkeys(names, "killed or crashed")
    if exit_code != 0:
        return dict.fromkeys(names, f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
        listed = doc.get("reports", [])
        reports = {(r["n"], r["lemma"]): r for r in listed}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return dict.fromkeys(names, f"unreadable output: {exc!r}")
    if len(reports) != len(listed) or (
            w.name == "suite" and len(reports) != len(names)):
        return dict.fromkeys(names, f"{len(listed)} reports, "
                                    f"want {len(names)}")
    out = {}
    for name in names:
        width, _, lemma = name.partition(" ")
        n = int(width[2:])
        try:
            out[name] = _CHECKERS[w.name](doc, n, lemma, reports)
        except (KeyError, IndexError, TypeError) as exc:
            out[name] = f"malformed output: {exc!r}"
    return out


def first_difference(first: bytes, other: bytes) -> str | None:
    """None when the outputs are byte-identical, else where they differ."""
    if first == other:
        return None
    i = next((k for k, (a, b) in enumerate(zip(first, other)) if a != b),
             min(len(first), len(other)))
    return f"output differs from the first run at byte {i}"


def check_counters(w: Workload, counters: dict) -> dict[str, str | None]:
    """Translation-map counts from a traced run against the pinned ones.

    Each counter is keyed by universe size and operation set; a kind the
    program no longer computes is not a failure, a different count is.
    """
    pinned = EXPECTED["translation_maps"][w.name]
    out = {}
    for key, value in sorted(counters.items()):
        if not key.startswith("maps:"):
            continue
        kind = key[len("maps:"):]
        want = pinned.get(kind)
        out[f"maps {kind}"] = None if value == want else \
            f"{value} translation maps, pinned {want}"
    return out
