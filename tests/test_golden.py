"""Byte-identical CLI JSON at fixed arguments.

Each file under tests/golden/ is the stdout of one command, run from the
repository root: a JSON document (.json), or the status line of
``tm run`` (.txt).  A change that means to alter the output regenerates
the file with the command below and says so in CHANGES.md:

    PYTHONPATH=src python -m varietal.cli <args> > tests/golden/<name>.<suffix>
"""

import pathlib

import pytest

from varietal.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "verify_halting_n2-3_seed1":
        "verify --tm fixtures/halting.tm --n 2..3 --seed 1",
    "depth_halting_n2-6": "depth --tm fixtures/halting.tm --n 2..6",
    "sd-meet_halting_n2-4": "sd-meet --tm fixtures/halting.tm --n 2..4",
    "sd-meet_halting_n5-6": "sd-meet --tm fixtures/halting.tm --n 5..6",
    "bn-build-k_halting_n2-5":
        "bn build --tm fixtures/halting.tm --with-k --n 2..5",
    "verify_looping_n2-3": "verify --tm fixtures/looping.tm --n 2..3",
    "sd-meet_looping_n2-5": "sd-meet --tm fixtures/looping.tm --n 2..5",
    "verify_halting_n4-5": "verify --tm fixtures/halting.tm --n 4..5",
    "tm-run_halting": "tm run fixtures/halting.tm",
    "tm-run_looping": "tm run fixtures/looping.tm --max-steps 1000",
    "algebra-build_halting": "algebra build --tm fixtures/halting.tm",
    "algebra-build-k_looping": "algebra build --tm fixtures/looping.tm --with-k",
}
SUFFIX = {"tm": ".txt"}     # by command; every other command prints JSON


def golden(name):
    return GOLDEN / (name + SUFFIX.get(COMMANDS[name].split()[0], ".json"))


def test_every_golden_file_has_a_command():
    assert sorted(GOLDEN.iterdir()) == sorted(map(golden, COMMANDS))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_is_byte_identical(name, monkeypatch, capsysbinary):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("VARIETAL_BUDGET_SECONDS", raising=False)
    assert main(COMMANDS[name].split()) == 0
    assert capsysbinary.readouterr().out == golden(name).read_bytes()
