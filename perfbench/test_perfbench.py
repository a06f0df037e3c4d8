"""Tests of the benchmark's own code: the answer checker, the host-speed
scaling, the self-time arithmetic and the compare rule.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import tracing
from run import run_child
from runs import verdict
from workloads import EXPECTED, WORKLOADS, bn_universe, check_counters, \
    check_output, expected_checks, first_difference

ROOT = Path(__file__).resolve().parent.parent
LEMMAS = EXPECTED["lemmas"]


def _report(lemma, n, *, universe=None, depth=None, status="PASSED"):
    witnesses = [] if depth is None else [{"depth": depth}]
    return {"lemma": lemma, "n": n, "status": status,
            "pass": status == "PASSED", "witnesses": witnesses,
            "counterexamples": [],
            "stats": {"universe": universe or bn_universe(n), "pairs": 0,
                      "seconds": 0.0}}


def suite_doc():
    reports = []
    for n in (2, 3):
        for lemma in LEMMAS:
            if lemma == "k-collapse":
                if n >= 3:
                    reports.append(_report(lemma, n, universe=18, depth=1))
            elif lemma == "depth":
                reports.append(_report(lemma, n, depth=n - 1))
            else:
                reports.append(_report(lemma, n))
    return {"schema": 1, "command": "verify", "pass": True, "skipped": 0,
            "reports": reports}


def depth_doc():
    return {"schema": 1, "command": "depth", "n_range": [2, 5],
            "depths": [1, 2, 3, 4],
            "reports": [_report("depth", n, depth=n - 1) for n in range(2, 6)]}


def lattice_doc():
    return {"schema": 1, "command": "sd-meet", "pass": True, "lattices": [
        {"n": n, "universe": bn_universe(n), "congruences": 2 ** n,
         "sd_meet": True, "witness": None} for n in (2, 3, 4)]}


def kclosure_doc():
    return {"schema": 1, "command": "bn build", "with_k": True, "widths": [
        {"n": n, "universe": 2 * 3 ** (n - 1), "generators": 2 * n - 1}
        for n in (2, 3, 4, 5)]}


DOCS = {"suite": suite_doc, "depth": depth_doc, "lattice": lattice_doc,
        "kclosure": kclosure_doc}


def _out(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _failed(results):
    return {name for name, reason in results.items() if reason is not None}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_output_passes_every_check(name):
    w = WORKLOADS[name]
    results = check_output(w, _out(DOCS[name]()), 0)
    assert list(results) == expected_checks(w)
    assert _failed(results) == set()


def test_suite_has_one_check_per_report():
    assert len(expected_checks(WORKLOADS["suite"])) == 17


def test_wrong_depth_fails_that_width_only():
    doc = depth_doc()
    doc["depths"][2] = 2
    doc["reports"][2]["witnesses"][0]["depth"] = 2
    assert _failed(check_output(WORKLOADS["depth"], _out(doc), 0)) == \
        {"n=4 depth"}


def test_wrong_depth_in_suite_report_fails():
    doc = suite_doc()
    rep = next(r for r in doc["reports"]
               if r["lemma"] == "depth" and r["n"] == 3)
    rep["witnesses"][0]["depth"] = 1
    assert _failed(check_output(WORKLOADS["suite"], _out(doc), 0)) == \
        {"n=3 depth"}


def test_skipped_report_fails():
    doc = suite_doc()
    doc["reports"][1]["status"] = "SKIPPED"
    results = check_output(WORKLOADS["suite"], _out(doc), 0)
    assert _failed(results) == {"n=2 nonzero-ops"}
    assert "SKIPPED" in results["n=2 nonzero-ops"]


def test_k_collapse_depth_must_be_one():
    doc = suite_doc()
    doc["reports"][-1]["witnesses"][0]["depth"] = 2
    assert _failed(check_output(WORKLOADS["suite"], _out(doc), 0)) == \
        {"n=3 k-collapse"}


def test_missing_report_fails_every_check():
    doc = suite_doc()
    del doc["reports"][0]
    w = WORKLOADS["suite"]
    assert _failed(check_output(w, _out(doc), 0)) == set(expected_checks(w))


def test_wrong_congruence_count_and_sd_witness_fail():
    doc = lattice_doc()
    doc["lattices"][1]["congruences"] = 7
    doc["lattices"][2]["sd_meet"] = False
    doc["lattices"][2]["witness"] = [1, 2, 3]
    assert _failed(check_output(WORKLOADS["lattice"], _out(doc), 0)) == \
        {"n=3 lattice", "n=4 lattice"}


def test_wrong_k_universe_fails():
    doc = kclosure_doc()
    doc["widths"][3]["universe"] = 161
    assert _failed(check_output(WORKLOADS["kclosure"], _out(doc), 0)) == \
        {"n=5 kclosure"}


@pytest.mark.parametrize("stdout,code", [
    (b"", None), (b"", 3), (b"", 1), (b"not json", 0), (b"[]", 0)])
def test_bad_exit_or_unreadable_output_fails_every_check(stdout, code):
    w = WORKLOADS["depth"]
    good = stdout or _out(depth_doc())
    assert _failed(check_output(w, good, code)) == set(expected_checks(w))


def test_malformed_field_fails_without_raising():
    doc = depth_doc()
    del doc["depths"]
    assert _failed(check_output(WORKLOADS["depth"], _out(doc), 0)) == \
        set(expected_checks(WORKLOADS["depth"]))


def test_one_changed_byte_is_found():
    first = _out(suite_doc())
    assert first_difference(first, first) is None
    changed = bytearray(first)
    changed[100] ^= 1
    assert "byte 100" in first_difference(first, bytes(changed))
    assert first_difference(first, first[:-1]) is not None


def test_translation_map_counts_against_pinned():
    w = WORKLOADS["depth"]
    assert _failed(check_counters(w, {"maps:62:all": 1059,
                                      "subpower.translation_maps": 1})) == set()
    assert _failed(check_counters(w, {"maps:62:all": 1058})) == \
        {"maps 62:all"}
    assert _failed(check_counters(w, {"maps:126:all": 3133})) == \
        {"maps 126:all"}


def test_a_command_past_the_timeout_is_killed_and_fails():
    s = run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert s.exit is None and s.wall < 10
    assert _failed(check_output(WORKLOADS["depth"], s.stdout, s.exit)) == \
        set(expected_checks(WORKLOADS["depth"]))


def test_a_finished_command_reports_exit_cpu_and_memory():
    s = run_child([sys.executable, "-c", "print('ok')"], 30)
    assert (s.exit, s.stdout) == (0, b"ok\n")
    assert s.cpu > 0 and s.rss_mb > 1


# -- host-speed scaling -------------------------------------------------------

def test_host_speed_factor_scales_by_the_bracketing_calibrations():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor(ref, ref) == pytest.approx(1.0)
    # the host ran at half the reference speed on average
    assert hostspeed.factor(1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_calibration_work_is_fixed():
    assert hostspeed.work() == hostspeed.work()


def test_probe_calibrates_in_a_child_and_stops():
    with hostspeed.Probe() as probe:
        assert probe.calibrate() > 0
        assert probe.proc.poll() is None
    assert probe.proc.returncode == 0


# -- self-time arithmetic ----------------------------------------------------

# root [0, 10] with children a [1, 3] and b [4, 8]; b has child c [5, 6];
# a second root d [12, 13].
TREE = [["root", 0.0, 10.0, None], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2], ["d", 12.0, 13.0, None]]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(TREE) == {"root": 4.0, "a": 2.0, "b": 3.0,
                                        "c": 1.0, "d": 1.0}


def test_self_times_of_one_name_add_up():
    spans = copy.deepcopy(TREE)
    spans[1][0] = spans[2][0] = "x"
    assert tracing.self_times(spans)["x"] == 5.0


def test_overlapping_children_are_counted_once():
    spans = [["p", 0.0, 10.0, None], ["q", 1.0, 5.0, 0], ["r", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)["p"] == 4.0


def test_span_cover_and_cli_self_time():
    assert tracing.span_cover(TREE) == 11.0
    spans = [["witness.build_bn", 0.5, 5.0, None],
             ["subpower.close_subpower", 1.0, 4.0, 0]]
    m = tracing.layer_metrics(spans, {"subpower.close_elements": 6},
                              traced_wall=6.0, untraced_wall=5.5)
    assert m["subpower.close_s"] == 3.0
    assert m["witness.build_s"] == 1.5
    assert m["subpower.close_calls"] == 1
    assert m["subpower.close_elements"] == 6
    assert m["cli.self_s"] == 1.5
    assert m["cli.trace_overhead_s"] == 0.5
    assert list(m) == tracing.PER_LAYER
    assert tracing.top_layer(m) == "subpower.close_s"


def test_recorder_nests_spans_and_closes_on_error():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = rec.wrap("inner", inner)
    outer_w = rec.wrap("outer", lambda x: inner_w(x) + 1)
    assert outer_w(1) == 2
    with pytest.raises(ValueError):
        outer_w(-1)
    assert rec.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0],
                         ["outer", 4.0, 7.0, None], ["inner", 5.0, 6.0, 2]]


def test_traced_cli_run_patches_every_binding():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "depth",
         "--tm", "fixtures/halting.tm", "--n", "2..3"],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["exit"] == 0
    assert json.loads(doc["output"])["depths"] == [1, 2]
    names = {s[0] for s in doc["spans"]}
    # cli, witness and depth reach these through their own bindings
    assert {"tm.load_tm", "machine_algebra.compile_machine",
            "machine_algebra.MachineAlgebra", "witness.build_bn",
            "subpower.close_subpower", "depth.translation_system",
            "subpower.translation_maps", "depth.maltsev_depth",
            "depth.pair_depth_graph", "witness.run_lemma",
            "witness.depth"} <= names
    assert sum(s[0] == "witness.run_lemma" for s in doc["spans"]) == 2
    m = tracing.layer_metrics(doc["spans"], doc["counters"], 1.0, 1.0)
    assert m["witness.reports"] == 2
    assert _failed(check_counters(WORKLOADS["depth"], doc["counters"])) == \
        set()


# -- compare rule ------------------------------------------------------------

def test_verdict_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert verdict(parent, [p - 1.0 for p in parent], 0.1) == ("gain", 10)
    close = [p - 0.01 for p in parent]
    assert verdict(parent, close, 0.1)[0] == "no regression"
    eight = [p - 1.0 for p in parent[:8]] + parent[8:]
    assert verdict(parent, eight, 0.1) == ("no regression", 8)


def test_verdict_regression_and_unresolved():
    parent = [10.0] * 10
    assert verdict(parent, [12.0] * 10, 0.1)[0] == "regression"
    noisy = [8.0, 12.0] * 5
    assert verdict(parent, noisy, 0.1)[0] == "unresolved"
    assert verdict([5.0] * 10, [4.0] * 10, 0.1, better="higher")[0] == \
        "regression"
