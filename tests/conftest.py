import pathlib

import pytest

import oracles
from support import machine
from varietal import build_bn, compile_machine, load_tm

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def halting_tm():
    return load_tm(FIXTURES / "halting.tm")


@pytest.fixture(scope="session")
def looping_tm():
    return load_tm(FIXTURES / "looping.tm")


@pytest.fixture(scope="session")
def three_state_tm():
    return machine(["halt", "start", "mid"],
                   [("start", 0, 1, "R", "mid"), ("mid", 1, 0, "L", "halt")])


@pytest.fixture(scope="session")
def four_state_tm():
    return machine(["halt", "start", "mid", "back"],
                   [("start", 0, 1, "R", "mid"), ("mid", 1, 0, "L", "back"),
                    ("back", 0, 0, "L", "halt")])


@pytest.fixture(scope="session")
def ma2(halting_tm):
    return compile_machine(halting_tm)


@pytest.fixture(scope="session")
def ma2_k(halting_tm):
    return compile_machine(halting_tm, with_k=True)


@pytest.fixture(scope="session")
def ma3(three_state_tm):
    return compile_machine(three_state_tm)


@pytest.fixture(scope="session")
def ctx2(ma2):
    return build_bn(ma2, 2)


@pytest.fixture(scope="session")
def ctx3(ma2):
    return build_bn(ma2, 3)


@pytest.fixture(scope="session")
def b3_op_values(ctx3):
    """Dense operation tables of B_3 from the oracle, built once because
    the arity-5 grid is large."""
    return oracles.subpower_op_values(ctx3.subpower)


@pytest.fixture(scope="session")
def ctx4(ma2):
    return build_bn(ma2, 4)


@pytest.fixture(scope="session")
def kctx3(ma2_k):
    return build_bn(ma2_k, 3)
