"""Deterministic Turing machines over the binary alphabet.

A machine is a finite list of instructions (state, read, write, direction,
next_state) over states numbered 0..n.  State 0 is the halting state and
state 1 the initial state; a description file fixes the numbering by the
order of names on its ``states:`` line.  The tape is bidirectional, blank
(0) outside a finite set of cells holding 1, and runs start on the empty
tape with the head at cell 0.

`run_bounded` is the one machine loop, on the set of cells holding 1 and
a (state, read) table of instructions.  A configuration from which no
instruction applies is a stall; stalls are reported as halting with a
flag so that bounded runs always classify.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import Budget, DEFAULT_BUDGET


class TMError(ValueError):
    """Problem with a machine description.

    Carries the 1-based source line (and column when known) for parse
    errors; programmatic construction errors leave them as None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class Instruction(NamedTuple):
    """One transition: in `state` reading `read`, write, move, change state."""

    state: int
    read: int
    write: int
    direction: str  # "L" or "R"
    next_state: int


class TuringMachine:
    """states[0] is the halting state, states[1] the initial state.  Two
    machines are equal when their states and instructions are."""

    def __init__(self, states: tuple[str, ...], instructions: tuple[Instruction, ...]):
        if len(states) < 2:
            raise TMError("a machine needs a halting state and an initial state")
        if len(set(states)) != len(states):
            raise TMError("duplicate state names")
        seen: set[tuple[int, int]] = set()
        for ins in instructions:
            if not (0 <= ins.state < len(states)):
                raise TMError(f"instruction state {ins.state} out of range")
            if not (0 <= ins.next_state < len(states)):
                raise TMError(f"next state {ins.next_state} out of range")
            if ins.state == 0:
                raise TMError("no instruction may leave the halting state")
            if ins.read not in (0, 1) or ins.write not in (0, 1):
                raise TMError("tape symbols are 0 or 1")
            if ins.direction not in ("L", "R"):
                raise TMError("direction must be L or R")
            key = (ins.state, ins.read)
            if key in seen:
                raise TMError(
                    f"duplicate instruction for state {states[ins.state]!r} reading {ins.read}"
                )
            seen.add(key)
        self.states = states
        self.instructions = instructions

    def __eq__(self, other):
        if not isinstance(other, TuringMachine):
            return NotImplemented
        return (self.states, self.instructions) == (other.states, other.instructions)

    def __hash__(self):
        return hash((self.states, self.instructions))

    @property
    def halting_state(self) -> int:
        return 0

    @property
    def initial_state(self) -> int:
        return 1

    def sorted_instructions(self) -> tuple[Instruction, ...]:
        """Instructions in canonical (state, read) order."""
        return tuple(sorted(self.instructions, key=lambda ins: (ins.state, ins.read)))


class RunOutcome(NamedTuple):
    """run_bounded's verdict, with the moves made when it halted or stalled."""
    halted: bool
    steps: int | None = None
    stalled: bool = False

    @property
    def status(self) -> str:
        return "HALTED" if self.halted else "RUNNING"


def run_bounded(tm: TuringMachine, max_steps: int,
                budget: Budget = DEFAULT_BUDGET) -> RunOutcome:
    """Run from the empty tape for at most max_steps moves.

    HALTED(k) when the halting state is reached after k moves, HALTED with
    stalled=True when no instruction matches (k = moves actually made),
    RUNNING when the step budget runs out first.  The deadline of `budget`
    is checked every 65536 moves.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    table = {(ins.state, ins.read): ins for ins in tm.instructions}
    state, head, ones = tm.initial_state, 0, set()
    for k in range(max_steps + 1):
        if state == tm.halting_state:
            return RunOutcome(halted=True, steps=k)
        if k == max_steps:
            break
        if not k & 0xFFFF:
            budget.check_time()
        ins = table.get((state, int(head in ones)))
        if ins is None:
            return RunOutcome(halted=True, steps=k, stalled=True)
        (ones.add if ins.write else ones.discard)(head)
        head += 1 if ins.direction == "R" else -1
        state = ins.next_state
    return RunOutcome(halted=False)


_STATES_RE = re.compile(r"^states\s*:\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_'-]*$")


def _column(raw_line: str, token: str) -> int | None:
    at = raw_line.find(token)
    return at + 1 if at >= 0 else None


def parse_tm(text: str) -> TuringMachine:
    """Parse a machine description.

    Grammar: optional comment/blank lines; one ``states: halt init [...]``
    line naming every state (halting first, initial second); then one
    instruction per line, ``<state> <read> -> <write> <L|R> <next-state>``.
    ``#`` starts a comment anywhere.
    """
    states: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    instructions: list[Instruction] = []
    seen: dict[tuple[int, int], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if states is None:
            m = _STATES_RE.match(line)
            if not m:
                raise TMError("expected a 'states:' line before any instruction", lineno)
            names = m.group(1).split()
            if len(names) < 2:
                raise TMError("need at least a halting and an initial state name", lineno)
            for name in names:
                if not _NAME_RE.match(name):
                    raise TMError(f"bad state name {name!r}", lineno, _column(raw, name))
                if name in index:
                    raise TMError(f"duplicate state name {name!r}", lineno, _column(raw, name))
                index[name] = len(index)
            states = tuple(names)
            continue

        parts = line.split()
        if len(parts) != 6 or parts[2] != "->":
            raise TMError(
                "expected '<state> <read> -> <write> <L|R> <next-state>'", lineno
            )
        sname, read_s, _, write_s, direction, nname = parts
        if sname not in index:
            raise TMError(f"unknown state {sname!r}", lineno, _column(raw, sname))
        if nname not in index:
            raise TMError(f"unknown state {nname!r}", lineno, _column(raw, nname))
        if read_s not in ("0", "1"):
            raise TMError("read symbol must be 0 or 1", lineno, _column(raw, read_s))
        if write_s not in ("0", "1"):
            raise TMError("write symbol must be 0 or 1", lineno, _column(raw, write_s))
        if direction not in ("L", "R"):
            raise TMError("direction must be L or R", lineno, _column(raw, direction))
        state = index[sname]
        if state == 0:
            raise TMError(
                f"instruction leaves the halting state {sname!r}", lineno, _column(raw, sname)
            )
        key = (state, int(read_s))
        if key in seen:
            raise TMError(
                f"duplicate instruction for {sname!r} reading {read_s}"
                f" (first at line {seen[key]})",
                lineno,
            )
        seen[key] = lineno
        instructions.append(
            Instruction(state, int(read_s), int(write_s), direction, index[nname])
        )

    if states is None:
        raise TMError("empty description: no 'states:' line found")
    return TuringMachine(states=states, instructions=tuple(instructions))


def load_tm(path) -> TuringMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tm(fh.read())

