import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varietal import cli, lattice, witness
from varietal.algebra import Budget
from varietal.cli import _exit_code, _parse_range, main
from varietal.depth import TranslationSystem
from varietal.machine_algebra import MachineAlgebra
from varietal.witness import LEMMA_ORDER, LemmaReport
from conftest import FIXTURES
from support import format_tm, machine

HALTING = str(FIXTURES / "halting.tm")
LOOPING = str(FIXTURES / "looping.tm")


def read_doc(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    doc = json.loads(text)
    # canonical form: sorted keys, two-space indent, trailing newline
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["schema"] == 1
    return doc


# -- parsing helpers ----------------------------------------------------------

def test_parse_range():
    assert _parse_range("3") == (3, 3)
    assert _parse_range("2..4") == (2, 4)
    for bad in ("1", "4..2", "x", "2..x"):
        with pytest.raises(Exception):
            _parse_range(bad)


def test_exit_code_mapping():
    ok = LemmaReport("chain", 2, passed=True)
    failed = LemmaReport("chain", 2, passed=False)
    skipped = LemmaReport("chain", 2, passed=False, skipped=True)
    assert _exit_code([ok, ok]) == 0
    assert _exit_code([ok, failed]) == 1
    assert _exit_code([ok, skipped]) == 3
    assert _exit_code([failed, skipped]) == 1
    assert _exit_code([]) == 0


# -- tm run -------------------------------------------------------------------

def test_tm_run_halting(capsys, tmp_path):
    out = tmp_path / "run.json"
    assert main(["tm", "run", HALTING, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "HALTED(1)"
    doc = read_doc(out)
    assert doc["status"] == "HALTED" and doc["steps"] == 1
    assert doc["stalled"] is False


def test_tm_run_looping(capsys):
    assert main(["tm", "run", LOOPING, "--max-steps", "50"]) == 0
    assert capsys.readouterr().out.strip() == "RUNNING"


def test_tm_run_stalling(capsys, tmp_path):
    desc = tmp_path / "stall.tm"
    desc.write_text("states: halt start mid\n"
                    "start 0 -> 1 R mid\n"
                    "mid 0 -> 0 L start\n")
    assert main(["tm", "run", str(desc)]) == 0
    assert capsys.readouterr().out.strip() == "HALTED(2) stalled"


def test_tm_run_missing_file(capsys):
    assert main(["tm", "run", "/nonexistent/machine.tm"]) == 2
    assert "error" in capsys.readouterr().err


def test_tm_run_parse_error(capsys, tmp_path):
    desc = tmp_path / "bad.tm"
    desc.write_text("states: halt start\nstart 2 -> 0 L halt\n")
    assert main(["tm", "run", str(desc)]) == 2
    assert "line 2" in capsys.readouterr().err


# commands that read a machine file, each cut where the path goes
MACHINE_READERS = [["tm", "run"], ["verify", "--n", "2", "--tm"], ["sd-meet", "--tm"]]


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("command", MACHINE_READERS, ids=" ".join)
def test_an_unreadable_machine_is_a_usage_error(command, kind, tmp_path, capsys):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "bytes.tm"
        path.write_bytes(b"states: halt start\nstart 0 -> 1 R \xff\xfe\n")
    assert main([*command, str(path)]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("command", MACHINE_READERS, ids=" ".join)
def test_an_unwritable_out_is_a_usage_error(command, tmp_path, capsys):
    argv = [*command, HALTING] + ["--lemma", "structure"] * (command[0] == "verify")
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert main([*argv, "--out", str(tmp_path / "missing" / "doc.json")]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_usage_errors(capsys):
    # argparse refuses a command line that stops before a leaf command
    for argv in ([], ["tm"], ["algebra"], ["bn"]):
        assert main(argv) == 2
    assert main(["tm", "run"]) == 2                      # missing file
    assert main(["verify"]) == 2                         # missing --tm
    assert main(["verify", "--tm", HALTING, "--n", "1"]) == 2
    assert main(["verify", "--tm", HALTING, "--n", "4..2"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["bn", "verify", "--tm", HALTING, "--lemma", "structure",
                 "--n", "2"]) == 2                      # no such subcommand
    assert main(["verify", "--tm", HALTING, "--lemma", "structure",
                 "--n", "2", "--jobs", "2"]) == 2       # no such option
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["tm", "run", "--max-steps", "-5"],
    ["depth", "--max-elements", "-1"],
    ["verify", "--max-pairs", "-1"],
    ["bn", "build", "--max-elements", "-3"],
    ["sd-meet", "--max-pairs", "-1"],
    ["tm", "run", "--max-steps", "ten"],
], ids=" ".join)
def test_limits_that_are_negative_or_not_integers_are_usage_errors(argv, capsys):
    tm_file = [HALTING] if argv[0] == "tm" else ["--tm", HALTING]
    assert main([*argv, *tm_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")
    assert f"argument {argv[-2]}: " in err


def test_zero_limits_stay_valid(capsys):
    assert main(["tm", "run", HALTING, "--max-steps", "0"]) == 0
    assert capsys.readouterr().out == "RUNNING\n"
    assert main(["depth", "--tm", HALTING, "--n", "2", "--max-elements", "0"]) == 3
    assert "max_elements" in capsys.readouterr().out


# -- algebra build -------------------------------------------------------------

def test_algebra_build(tmp_path):
    out = tmp_path / "alg.json"
    assert main(["algebra", "build", "--tm", HALTING, "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["size"] == 48
    assert doc["states"] == ["halt", "start"]
    symbols = [op["symbol"] for op in doc["operations"]]
    assert symbols[0] == "zero" and "K" not in symbols
    arities = {op["symbol"]: op["arity"] for op in doc["operations"]}
    assert arities["S2"] == 5 and arities["L[1,0,0]"] == 3


def test_algebra_build_with_k(tmp_path):
    out = tmp_path / "algk.json"
    assert main(["algebra", "build", "--tm", HALTING, "--with-k",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["with_k"] is True
    assert [op["symbol"] for op in doc["operations"]][-1] == "K"


# -- bn build -------------------------------------------------------------------

def test_bn_build(tmp_path):
    out = tmp_path / "bn.json"
    assert main(["bn", "build", "--tm", HALTING, "--n", "2..3",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["widths"] == [
        {"n": 2, "universe": 6, "generators": 3, "alphabet": ["0", "D", "bD"]},
        {"n": 3, "universe": 14, "generators": 5, "alphabet": ["0", "D", "bD"]},
    ]


def test_bn_build_with_k(tmp_path):
    out = tmp_path / "bnk.json"
    assert main(["bn", "build", "--tm", HALTING, "--with-k", "--n", "3",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["widths"][0]["universe"] == 18


# -- verify ---------------------------------------------------------------------

def test_verify_one_lemma(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--tm", HALTING, "--lemma", "chain",
                 "--n", "2..3", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["pass"] is True and doc["skipped"] == 0
    assert [(r["lemma"], r["n"]) for r in doc["reports"]] == \
        [("chain", 2), ("chain", 3)]
    assert all(r["status"] == "PASSED" for r in doc["reports"])
    assert all(r["stats"]["seconds"] == 0.0 for r in doc["reports"])


def test_lemma_choices_are_the_lemma_order(monkeypatch, capsys):
    """The parser spells out the lemma names so as not to load `witness`;
    they must stay witness's names in its order, and a name outside them
    is argparse's usage error."""
    assert cli.LEMMAS == LEMMA_ORDER
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["verify", "--tm", HALTING, "--lemma", "nope"]) == 2
    assert capsys.readouterr() == ("", """\
usage: varietal verify [-h] --tm TM [--n N] [--max-elements MAX_ELEMENTS]
                       [--max-pairs MAX_PAIRS] [--timings] [--out OUT]
                       [--seed SEED]
                       [--lemma {structure,nonzero-ops,atomic,chain,f-char,omission,support-growth,depth,k-collapse}]
varietal verify: error: argument --lemma: invalid choice: 'nope' (choose from \
'structure', 'nonzero-ops', 'atomic', 'chain', 'f-char', 'omission', \
'support-growth', 'depth', 'k-collapse')
""")


def test_verify_k_collapse_below_its_minimum_width_is_a_usage_error(capsys):
    assert main(["verify", "--tm", HALTING, "--lemma", "k-collapse",
                 "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "width of 3 or more" in captured.err


def test_verify_compiles_the_k_algebra_once_per_run(tmp_path, monkeypatch):
    """Every width's k-collapse shares one K-extended algebra."""
    compiled = []
    real = MachineAlgebra.__init__

    def counting(self, machine, with_k=False):
        compiled.append(with_k)
        real(self, machine, with_k=with_k)

    monkeypatch.setattr(MachineAlgebra, "__init__", counting)
    out = tmp_path / "k.json"
    assert main(["verify", "--tm", HALTING, "--n", "3..5", "--lemma",
                 "k-collapse", "--out", str(out)]) == 0
    assert compiled.count(True) == 1
    assert [r["n"] for r in read_doc(out)["reports"]] == [3, 4, 5]


def test_verify_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["verify", "--tm", HALTING, "--lemma", "depth", "--n", "2..3",
            "--seed", "11"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_budget_skip(tmp_path, monkeypatch):
    monkeypatch.setenv("VARIETAL_BUDGET_SECONDS", "0.0001")
    out = tmp_path / "skip.json"
    code = main(["verify", "--tm", HALTING, "--lemma", "atomic",
                 "--n", "4", "--out", str(out)])
    assert code == 3
    doc = read_doc(out)
    assert doc["skipped"] >= 1 and doc["pass"] is True
    assert doc["reports"][0]["status"] == "SKIPPED"
    assert doc["reports"][0]["pass"] is None
    assert "budget" in doc["reports"][0]["note"]


def test_a_width_whose_build_runs_out_still_runs_k_collapse(tmp_path,
                                                            monkeypatch):
    """B_4 has 30 elements, over a cap of 20: its eight plain lemmas are
    skipped on that one failed build, which is not retried, and k-collapse
    still runs on its own K-extended build (and runs out too)."""
    builds = []
    real = witness.build_bn

    def counting(ma, n, budget):
        builds.append((ma.with_k, n))
        return real(ma, n, budget)

    for module in (cli, witness):
        monkeypatch.setattr(module, "build_bn", counting)
    out = tmp_path / "v.json"
    assert main(["verify", "--tm", HALTING, "--n", "2..4",
                 "--max-elements", "20", "--out", str(out)]) == 3
    doc = read_doc(out)
    assert [(r["lemma"], r["status"]) for r in doc["reports"] if r["n"] == 4] \
        == [(lemma, "SKIPPED") for lemma in LEMMA_ORDER]
    assert len(doc["reports"]) == 26 and doc["skipped"] == 11
    assert builds.count((False, 4)) == 1 and builds.count((True, 4)) == 1
    k4 = doc["reports"][-1]
    assert k4["note"] == "budget exceeded: max_elements (26 > 20)"
    assert k4["stats"] == {"universe": 0, "pairs": 0, "seconds": 0.0}


def test_verify_charges_every_width_to_one_budget(tmp_path, monkeypatch):
    """VARIETAL_BUDGET_SECONDS caps the whole run, not each width."""
    budgets = []

    def recording(lemma, n, ctx):
        budgets.append(ctx.budget)
        return real(lemma, n, ctx)

    real = witness.run_lemma
    monkeypatch.setattr(witness, "run_lemma", recording)
    assert main(["verify", "--tm", HALTING, "--lemma", "structure",
                 "--n", "2..4", "--out", str(tmp_path / "v.json")]) == 0
    assert len(budgets) == 3
    assert all(b is budgets[0] for b in budgets)


@pytest.mark.parametrize("argv, reports", [
    (["verify", "--n", "2..4", "--max-elements", "20"], 26),
    (["depth", "--n", "2..3"], 2),
], ids=["verify", "depth"])
def test_every_report_comes_from_one_run_lemma_call(tmp_path, monkeypatch,
                                                    argv, reports):
    """A report skipped on a failed build passes through run_lemma too."""
    calls = []

    def recording(lemma, n, ctx):
        calls.append((lemma, n))
        return real(lemma, n, ctx)

    real = witness.run_lemma
    monkeypatch.setattr(witness, "run_lemma", recording)
    out = tmp_path / "out.json"
    main([*argv, "--tm", HALTING, "--out", str(out)])
    doc = read_doc(out)
    assert len(doc["reports"]) == reports
    assert calls == [(r["lemma"], r["n"]) for r in doc["reports"]]


def test_verify_seed_changes_nothing_but_its_echo(tmp_path):
    docs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.json"
        assert main(["verify", "--tm", HALTING, "--n", "2..3",
                     "--seed", seed, "--out", str(out)]) == 0
        docs.append(read_doc(out))
    assert [doc.pop("seed") for doc in docs] == [1, 2]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", [["bn", "build"], ["depth"]], ids=" ".join)
def test_seed_is_a_usage_error_outside_verify(command, capsys):
    # only verify echoes --seed; no other command takes it
    assert main([*command, "--tm", HALTING, "--n", "2", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--seed" in err


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_budget_seconds_that_are_not_a_number_are_a_usage_error(value, capsys,
                                                                monkeypatch):
    """A NaN deadline would never fire, as every comparison with NaN is
    false; so it is rejected like a value that is not a number."""
    monkeypatch.setenv("VARIETAL_BUDGET_SECONDS", value)
    assert main(["depth", "--tm", HALTING, "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "VARIETAL_BUDGET_SECONDS" in err
    assert repr(value) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2..3"],
    ["depth", "--n", "2..5"],
    ["bn", "build", "--n", "2..5"],
    ["bn", "build", "--with-k", "--n", "2..5"],
    ["sd-meet", "--n", "2..4"],
    ["algebra", "build"],
], ids=" ".join)
def test_tiny_time_budget_exits_3_without_a_traceback(argv):
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
           "VARIETAL_BUDGET_SECONDS": "0.0001"}
    run = subprocess.run([sys.executable, "-m", "varietal.cli", *argv,
                          "--tm", HALTING], env=env, capture_output=True,
                         timeout=120)
    assert run.returncode == 3
    assert b"Traceback" not in run.stderr
    if argv[0] in ("bn", "sd-meet"):
        lines = run.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("budget exhausted: ")


def test_long_tm_run_stops_at_its_deadline():
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
           "VARIETAL_BUDGET_SECONDS": "0.5"}
    t0 = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "varietal.cli", "tm", "run",
                          LOOPING, "--max-steps", "100000000"], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 3
    assert b"Traceback" not in run.stderr and b"budget" in run.stderr
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2..3", "--max-elements", "5"],
    ["depth", "--n", "2..5", "--max-elements", "5"],
    ["bn", "build", "--n", "2..5", "--max-elements", "5"],
    ["bn", "build", "--with-k", "--n", "2..5", "--max-elements", "5"],
    ["sd-meet", "--n", "2..4", "--max-elements", "5"],
    ["verify", "--n", "2..3", "--max-pairs", "5"],
    ["verify", "--n", "4", "--lemma", "atomic", "--max-pairs", "5"],
    ["depth", "--n", "2..5", "--max-pairs", "5"],
    ["sd-meet", "--n", "4", "--max-pairs", "100"],
], ids=" ".join)
def test_tiny_memory_budget_exits_3_naming_its_cap(argv, capsys):
    """A budget exception that escaped would fail the test; the skip note
    (stdout) or the message (stderr) names the cap that was hit."""
    assert main([*argv, "--tm", HALTING]) == 3
    out, err = capsys.readouterr()
    assert argv[-2][2:].replace("-", "_") in out + err


def raising(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("target", ["verify_depth", "build_bn"])
def test_a_memory_error_in_a_build_or_a_verifier_is_a_budget_skip(
        target, monkeypatch, tmp_path):
    monkeypatch.setattr(witness, target,
                        raising(MemoryError("Unable to allocate 1.00 TiB")))
    out = tmp_path / "verify.json"
    assert main(["verify", "--tm", HALTING, "--n", "2..3", "--lemma", "depth",
                 "--out", str(out)]) == 3
    reports = read_doc(out)["reports"]
    assert [r["status"] for r in reports] == ["SKIPPED", "SKIPPED"]
    for r in reports:
        assert r["note"] == "budget exceeded: memory (Unable to allocate 1.00 TiB)"


def test_a_memory_error_outside_the_lemma_harness_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_bn",
                        raising(MemoryError("Unable to allocate 1.00 TiB")))
    assert main(["bn", "build", "--tm", HALTING, "--n", "2"]) == 3
    assert capsys.readouterr().err == \
        "budget exhausted: budget exceeded: memory (Unable to allocate 1.00 TiB)\n"
    # a MemoryError without a message is named by its type
    monkeypatch.setattr(cli, "build_bn", raising(MemoryError()))
    assert main(["bn", "build", "--tm", HALTING, "--n", "2"]) == 3
    assert capsys.readouterr().err == \
        "budget exhausted: budget exceeded: memory (MemoryError)\n"


def test_depth_out_of_address_space_exits_3_with_a_skip():
    """An RLIMIT_AS set in the child alone, 64 MB above what its imports
    take, is too small for B_9: its report is SKIPPED on the budget named
    memory, and the exit code is 3, not a traceback and 1."""
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("the limit is sized from the child's VmSize")
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, varietal.cli, varietal.witness\n"
         "print(next(line.split()[1] for line in open('/proc/self/status')\n"
         "           if line.startswith('VmSize:')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    limit = (int(probe.stdout) << 10) + (64 << 20)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = subprocess.run([sys.executable, "-m", "varietal.cli", "depth",
                          "--tm", HALTING, "--n", "9"], env=env, preexec_fn=cap,
                         capture_output=True, timeout=120)
    assert run.returncode == 3 and b"Traceback" not in run.stderr
    [report] = json.loads(run.stdout)["reports"]
    assert report["status"] == "SKIPPED"
    assert report["note"].startswith("budget exceeded: memory (")


def test_verify_has_no_with_k_option(capsys):
    assert main(["verify", "--tm", HALTING, "--with-k"]) == 2
    assert "--with-k" in capsys.readouterr().err


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "timed.json"
    assert main(["verify", "--tm", HALTING, "--lemma", "structure",
                 "--n", "2", "--timings", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["reports"][0]["stats"]["seconds"] >= 0.0


# -- depth ------------------------------------------------------------------------

def test_depth_command(tmp_path):
    out = tmp_path / "depth.json"
    assert main(["depth", "--tm", HALTING, "--n", "2..3",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["depths"] == [1, 2]


# -- sd-meet ----------------------------------------------------------------------

def test_sd_meet_fixture(tmp_path):
    out = tmp_path / "m3.json"
    assert main(["sd-meet", "--fixture", "m3", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["sd_meet"] is False
    assert doc["witness"] == [1, 2, 3]
    assert doc["pass"] is True


def test_sd_meet_on_witness_subpowers(tmp_path):
    out = tmp_path / "sd.json"
    assert main(["sd-meet", "--tm", HALTING, "--n", "2..3",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["pass"] is True
    assert [row["congruences"] for row in doc["lattices"]] == [4, 8]
    assert all(row["sd_meet"] for row in doc["lattices"])


def test_sd_meet_budget_exhausted(capsys, monkeypatch):
    monkeypatch.setenv("VARIETAL_BUDGET_SECONDS", "0.0001")
    assert main(["sd-meet", "--tm", HALTING, "--n", "4"]) == 3
    assert "budget" in capsys.readouterr().err


def test_sd_meet_verdicts_survive_optimized_mode():
    """python -O strips asserts; no verdict may depend on one."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    argv = ["-m", "varietal.cli", "sd-meet", "--tm", HALTING, "--n", "2..3"]
    runs = [subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, timeout=120)
            for flags in ([], ["-O"])]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_sd_meet_reports_an_escaped_meet(tmp_path, monkeypatch):
    real = lattice.congruence_lattice

    def escaping_at_width_3(system, **kwargs):
        if system.table.shape[1] == 14:
            raise ValueError("meet escaped the generated lattice")
        return real(system, **kwargs)

    monkeypatch.setattr(lattice, "congruence_lattice", escaping_at_width_3)
    out = tmp_path / "sd.json"
    assert main(["sd-meet", "--tm", HALTING, "--n", "2..3",
                 "--out", str(out)]) == 1
    doc = read_doc(out)
    assert doc["pass"] is False
    ok, escaped = doc["lattices"]
    assert ok["sd_meet"] is True and "error" not in ok
    assert escaped == {"n": 3, "universe": 14, "congruences": None,
                       "sd_meet": False, "witness": None,
                       "error": "meet escaped the generated lattice"}


def test_sd_meet_names_the_cell_cap_of_the_lattice(monkeypatch, capsys):
    """A label row over max_signatures stops the lattice with exit 3.  The
    lattice is taken over the first `cap` translation maps of B_2 only, so
    each block of its pair pass, at one cell a map, fits the cap and the
    label rows of six cells are what go over it."""
    real = lattice.congruence_lattice

    def narrow(system, *, budget):
        cap = system.table.shape[1] - 1
        system = TranslationSystem(system.table[:cap], system.steps[:cap])
        capped = Budget(budget.max_elements, budget.max_pairs,
                        max_signatures=cap, deadline=budget.deadline)
        return real(system, budget=capped)

    monkeypatch.setattr(lattice, "congruence_lattice", narrow)
    assert main(["sd-meet", "--tm", HALTING, "--n", "2"]) == 3
    assert "budget exceeded: max_signatures (6 > 5)" in capsys.readouterr().err


def test_sd_meet_needs_target(capsys):
    assert main(["sd-meet"]) == 2
    assert "needs --tm or --fixture" in capsys.readouterr().err


def test_commands_do_not_import_numpy_ma():
    """A bare np.unique or np.union1d imports numpy.ma (11-15 ms a
    process); no command may reach one."""
    code = ("import contextlib, io, sys\n"
            "from varietal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main([*argv, '--tm', sys.argv[1]]) for argv in\n"
            "             (['depth', '--n', '2..5'], ['verify', '--n', '2..3'])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    run = subprocess.run([sys.executable, "-c", code, HALTING], env=env,
                         capture_output=True, timeout=120)
    assert run.stdout.decode().split() == ["[0,", "0]", "False"], run.stderr


# -- generated machines -----------------------------------------------------------

PIPELINE = (["verify", "--n", "2..3"], ["sd-meet", "--n", "2..3"])


def pipeline_docs(tm_path, out_dir):
    """(exit code, document without its "tm" echo) per PIPELINE command."""
    docs = []
    for i, argv in enumerate(PIPELINE):
        out = Path(out_dir) / f"{i}.json"
        code = main([*argv, "--tm", str(tm_path), "--out", str(out)])
        doc = read_doc(out)
        assert doc.pop("tm") == str(tm_path)
        docs.append((code, doc))
    return docs


@pytest.fixture(scope="module")
def halting_pipeline(tmp_path_factory):
    return pipeline_docs(HALTING, tmp_path_factory.mktemp("halting"))


@st.composite
def machines(draw):
    """Machines of 2 to 4 states, each (state, read) given at most one
    instruction, any of them possibly none."""
    states = ["halt", "start", "mid", "back"][:draw(st.integers(2, 4))]
    keys = draw(st.lists(st.sampled_from(
        [(s, r) for s in states[1:] for r in (0, 1)]), unique=True))
    return machine(states, [(s, r, draw(st.integers(0, 1)),
                             draw(st.sampled_from("LR")),
                             draw(st.sampled_from(states))) for s, r in keys])


@settings(max_examples=8, deadline=None)
@given(machines())
def test_generated_machines_pass_the_pipeline_like_the_halting_fixture(
        halting_pipeline, tm):
    """On B_n's alphabet {0, D, bD} every operation that depends on the
    machine is constant 0, so verify and sd-meet give the halting
    fixture's documents, apart from the machine file they echo."""
    with tempfile.TemporaryDirectory() as out_dir:
        path = Path(out_dir) / "generated.tm"
        path.write_text(format_tm(tm), encoding="utf-8")
        assert pipeline_docs(path, out_dir) == halting_pipeline
