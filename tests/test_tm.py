import pytest

from support import format_tm, machine
from varietal.tm import (
    Instruction,
    TMError,
    TuringMachine,
    parse_tm,
    run_bounded,
)


def test_machine_builder_roundtrip(halting_tm):
    assert halting_tm.states == ("halt", "start")
    assert halting_tm.instructions == (Instruction(1, 0, 0, "L", 0),)
    assert parse_tm(format_tm(halting_tm)) == halting_tm


def outcome(tm, max_steps):
    out = run_bounded(tm, max_steps)
    return out.halted, out.steps, out.stalled


def test_one_left_move_lands_left_of_origin(halting_tm):
    # blank tape, head at 0: write 0, move left, enter the halting state
    assert outcome(halting_tm, 1) == (True, 1, False)
    # mid reads the blank left of the 1 written at cell 0; it has no
    # instruction for reading 1, so a head left on cell 0 would stall
    tm = machine(["halt", "start", "mid"],
                 [("start", 0, 1, "L", "mid"), ("mid", 0, 0, "L", "halt")])
    assert outcome(tm, 10) == (True, 2, False)


def test_write_and_move_right(three_state_tm):
    # mid reads only 1, and the cell right of the written one is blank
    assert outcome(three_state_tm, 10) == (True, 1, True)
    # back returns to cell 0 and halts on the 1 that start wrote there
    tm = machine(["halt", "start", "mid", "back"],
                 [("start", 0, 1, "R", "mid"), ("mid", 0, 0, "L", "back"),
                  ("back", 1, 0, "L", "halt")])
    assert outcome(tm, 10) == (True, 3, False)


def test_halting_step_depends_on_the_write_and_both_moves():
    """start writes 1 at cell 0 and moves left, back moves right onto it,
    check halts on reading it.  Without the write, or with both moves
    going the same way, check reads a blank and stalls after two moves.
    (Swapping L and R everywhere mirrors the run on the symmetric blank
    tape, so no bounded outcome tells it apart.)"""
    tm = machine(["halt", "start", "back", "check"],
                 [("start", 0, 1, "L", "back"), ("back", 0, 0, "R", "check"),
                  ("check", 1, 0, "L", "halt")])
    assert outcome(tm, 10) == (True, 3, False)
    assert outcome(tm, 3) == (True, 3, False)
    assert outcome(tm, 2) == (False, None, False)


def test_run_bounded_halting(halting_tm):
    out = run_bounded(halting_tm, 10)
    assert out.halted and out.steps == 1 and not out.stalled
    assert out.status == "HALTED"


def test_run_bounded_budget_exhausted(looping_tm):
    out = run_bounded(looping_tm, 10000)
    assert not out.halted and out.steps is None
    assert out.status == "RUNNING"


def test_run_bounded_stall_counts_as_halt():
    # no instruction for reading 1, and mid writes a 1 then returns to it
    tm = machine(["halt", "start", "mid"],
                 [("start", 0, 1, "R", "mid"), ("mid", 0, 0, "L", "start")])
    out = run_bounded(tm, 100)
    assert out.halted and out.stalled
    assert out.steps == 2


def test_run_bounded_zero_budget(halting_tm):
    assert run_bounded(halting_tm, 0).halted is False
    with pytest.raises(ValueError):
        run_bounded(halting_tm, -1)


def test_parse_comments_and_blanks(halting_tm):
    text = """
    # leading comment
    states: halt start   # trailing comment

    start 0 -> 0 L halt
    """
    assert parse_tm(text) == halting_tm


def test_parse_error_positions():
    with pytest.raises(TMError) as err:
        parse_tm("states: halt start\nstart 2 -> 0 L halt\n")
    assert err.value.line == 2
    assert err.value.column == "start 2".index("2") + 1
    assert "line 2" in str(err.value)

    with pytest.raises(TMError) as err:
        parse_tm("start 0 -> 0 L halt\n")
    assert err.value.line == 1
    assert "states:" in str(err.value)


@pytest.mark.parametrize("bad", [
    "states: halt\n",
    "states: halt start halt\n",
    "states: halt 2start\n",
    "states: halt start\nstart 0 -> 0 X halt\n",
    "states: halt start\nstart 0 -> 2 L halt\n",
    "states: halt start\nstart 0 L halt\n",
    "states: halt start\nhalt 0 -> 0 L halt\n",
    "states: halt start\nstart 0 -> 0 L other\n",
    "states: halt start\nstart 0 -> 0 L halt\nstart 0 -> 0 R halt\n",
    "",
])
def test_parse_rejections(bad):
    with pytest.raises(TMError):
        parse_tm(bad)


def test_constructor_validation():
    with pytest.raises(TMError):
        TuringMachine(states=("only",), instructions=())
    with pytest.raises(TMError):
        machine(["halt", "start"], [("halt", 0, 0, "L", "halt")])
    with pytest.raises(TMError):
        machine(["halt", "start"],
                [("start", 0, 0, "L", "halt"), ("start", 0, 1, "R", "halt")])


def test_sorted_instructions(four_state_tm):
    keys = [(i.state, i.read) for i in four_state_tm.sorted_instructions()]
    assert keys == sorted(keys)
