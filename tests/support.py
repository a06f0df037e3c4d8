"""Helpers that only the tests need, written on the package's public API
(unlike oracles.py and altops.py, this module may import varietal)."""

from varietal.algebra import Congruence
from varietal.tm import TuringMachine


def spanning_pairs(cong: Congruence) -> list[tuple[int, int]]:
    """One chain of pairs per nontrivial block; generates the same
    congruence."""
    prev: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i, lab in enumerate(cong.labels):
        if lab in prev:
            pairs.append((prev[lab], i))
        prev[lab] = i
    return pairs


def is_identity(cong: Congruence) -> bool:
    return cong.num_blocks == cong.size


def is_full(cong: Congruence) -> bool:
    return cong.num_blocks <= 1


def flat_leq(x: int, y: int) -> bool:
    """The flat order of a machine algebra: 0 lies below every element."""
    return x == 0 or x == y


def format_tm(tm: TuringMachine) -> str:
    """Render back to the file format (parse_tm round-trips it)."""
    lines = ["states: " + " ".join(tm.states)]
    for ins in tm.sorted_instructions():
        lines.append(
            f"{tm.states[ins.state]} {ins.read} -> {ins.write}"
            f" {ins.direction} {tm.states[ins.next_state]}"
        )
    return "\n".join(lines) + "\n"
