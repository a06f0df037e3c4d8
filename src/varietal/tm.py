"""Deterministic Turing machines over the binary alphabet.

A machine is a finite list of instructions (state, read, write, direction,
next_state) over states numbered 0..n.  State 0 is the halting state and
state 1 the initial state; a description file fixes the numbering by the
order of names on its ``states:`` line.  The tape is bidirectional, blank
(0) outside a finite set of cells holding 1, and runs start on the empty
tape with the head at cell 0.

A configuration from which no instruction applies is a stall; stalls are
reported as halting with a flag so that bounded runs always classify.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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


@dataclass(frozen=True)
class Instruction:
    """One transition: in `state` reading `read`, write, move, change state."""

    state: int
    read: int
    write: int
    direction: str  # "L" or "R"
    next_state: int


@dataclass(frozen=True)
class TuringMachine:
    """states[0] is the halting state, states[1] the initial state."""

    states: tuple[str, ...]
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if len(self.states) < 2:
            raise TMError("a machine needs a halting state and an initial state")
        if len(set(self.states)) != len(self.states):
            raise TMError("duplicate state names")
        seen: set[tuple[int, int]] = set()
        for ins in self.instructions:
            if not (0 <= ins.state < len(self.states)):
                raise TMError(f"instruction state {ins.state} out of range")
            if not (0 <= ins.next_state < len(self.states)):
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
                    f"duplicate instruction for state {self.states[ins.state]!r} reading {ins.read}"
                )
            seen.add(key)

    @property
    def halting_state(self) -> int:
        return 0

    @property
    def initial_state(self) -> int:
        return 1

    def sorted_instructions(self) -> tuple[Instruction, ...]:
        """Instructions in canonical (state, read) order."""
        return tuple(sorted(self.instructions, key=lambda ins: (ins.state, ins.read)))


@dataclass(frozen=True)
class Configuration:
    """Machine state plus tape: `ones` is the set of cells holding 1."""

    state: int
    head: int
    ones: frozenset[int]

    def read(self) -> int:
        return 1 if self.head in self.ones else 0


class _Halted:
    __slots__ = ()

    def __repr__(self):
        return "HALTED"


HALTED = _Halted()


@dataclass(frozen=True)
class RunOutcome:
    halted: bool
    steps: int | None = None
    stalled: bool = False

    @property
    def status(self) -> str:
        return "HALTED" if self.halted else "RUNNING"


def initial_configuration() -> Configuration:
    return Configuration(state=1, head=0, ones=frozenset())


@lru_cache(maxsize=None)
def _table(tm: TuringMachine) -> dict[tuple[int, int], Instruction]:
    return {(ins.state, ins.read): ins for ins in tm.instructions}


def step(tm: TuringMachine, config: Configuration):
    """One move.  Returns the next Configuration, or HALTED when the state
    is the halting state or no instruction matches (a stall)."""
    if config.state == tm.halting_state:
        return HALTED
    ins = _table(tm).get((config.state, config.read()))
    if ins is None:
        return HALTED
    ones = config.ones
    if ins.write == 1:
        ones = ones | {config.head}
    elif config.head in ones:
        ones = ones - {config.head}
    head = config.head - 1 if ins.direction == "L" else config.head + 1
    return Configuration(state=ins.next_state, head=head, ones=ones)


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
    config = initial_configuration()
    for k in range(max_steps + 1):
        if config.state == tm.halting_state:
            return RunOutcome(halted=True, steps=k)
        if k == max_steps:
            break
        if not k & 0xFFFF:
            budget.check_time()
        nxt = step(tm, config)
        if nxt is HALTED:
            return RunOutcome(halted=True, steps=k, stalled=True)
        config = nxt
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


def format_tm(tm: TuringMachine) -> str:
    """Render back to the file format (parse_tm round-trips it)."""
    lines = ["states: " + " ".join(tm.states)]
    for ins in tm.sorted_instructions():
        lines.append(
            f"{tm.states[ins.state]} {ins.read} -> {ins.write}"
            f" {ins.direction} {tm.states[ins.next_state]}"
        )
    return "\n".join(lines) + "\n"


def machine(states: Iterable[str], quintuples: Iterable[tuple]) -> TuringMachine:
    """Build from state names and (state, read, write, dir, next) name tuples."""
    names = tuple(states)
    idx = {name: i for i, name in enumerate(names)}
    ins = tuple(
        Instruction(idx[s], r, w, d, idx[n]) for (s, r, w, d, n) in quintuples
    )
    return TuringMachine(states=names, instructions=ins)
