"""Generic finite algebras.

A FiniteAlgebra is an indexed universe 0..size-1 with a tuple of named
finitary operations, which evaluate on element indices.  A congruence is
a partition in least form: each element labelled by its block's least
member.  Every equivalence generated by pairs comes from one min-label
hooking helper, and every meet from one row-wise sort, a stack of
least-form rows at once; refinement is one gather.
Everything here is deterministic.  The subuniverse generated by a set of
elements is `subpower.close_subpower` at width 1.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np


class BudgetExceeded(RuntimeError):
    """A configured resource cap was hit. `what` names the cap."""

    def __init__(self, what: str, detail: str = ""):
        self.what = what
        super().__init__(f"budget exceeded: {what}" + (f" ({detail})" if detail else ""))


class Budget:
    """Hard resource caps.  deadline is a time.monotonic() timestamp."""

    def __init__(self, max_elements: int = 1_000_000, max_pairs: int = 5_000_000,
                 max_signatures: int = 2_000_000, deadline: float | None = None):
        self.max_elements = max_elements
        self.max_pairs = max_pairs
        self.max_signatures = max_signatures
        self.deadline = deadline

    def check_elements(self, count: int):
        if count > self.max_elements:
            raise BudgetExceeded("max_elements", f"{count} > {self.max_elements}")

    def check_pairs(self, count: int):
        if count > self.max_pairs:
            raise BudgetExceeded("max_pairs", f"{count} > {self.max_pairs}")

    def check_signatures(self, count: int):
        if count > self.max_signatures:
            raise BudgetExceeded("max_signatures", f"{count} > {self.max_signatures}")

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("max_seconds")

    def blocks(self, count: int, unit: int):
        """range(count) in blocks of index arrays, at `unit` cells an index
        and at most max_signatures cells a block (one index when a single
        one is over the cap).  Each block is charged before the caller
        allocates it, and checks the deadline."""
        step = max(1, self.max_signatures // max(1, unit))
        for lo in range(0, count, step):
            self.check_time()
            self.check_signatures(unit * min(step, count - lo))
            yield np.arange(lo, min(lo + step, count))


DEFAULT_BUDGET = Budget()


class Operation(NamedTuple):
    """A named finitary operation on element indices.

    func takes `arity` positional int arguments and returns an int.
    """

    symbol: str
    arity: int
    func: Callable[..., int]

    def __call__(self, *args: int) -> int:
        return self.func(*args)


class FiniteAlgebra:
    """Universe 0..size-1 plus named operations.  `automata` caches the
    coordinate automata of its operations (see `subpower`).  On the element
    ids of a subpower, operations evaluate through `Subpower.eval`."""

    def __init__(self, size: int, ops: tuple[Operation, ...]):
        symbols = [op.symbol for op in ops]
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate operation symbols")
        self.size = size
        self.ops = ops
        self.automata: dict = {}

    def op(self, symbol: str) -> Operation:
        for op in self.ops:
            if op.symbol == symbol:
                return op
        raise KeyError(f"unknown operation {symbol!r}")


class TranslationStep(NamedTuple):
    """One fundamental translation: fix every argument of `op` except
    `position` with the listed constants (position-ascending order)."""

    op: str
    position: int
    constants: tuple[int, ...]


# ---------------------------------------------------------------------------
# congruences
#
# A partition is kept in least form: least[i] is the least member of i's
# block.  It is unique to the partition, so its bytes key a dict; it is a
# forest of depth one for hooking, and a gather index.

def _generated(forest: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least form of the equivalence generated by a least form `forest`
    (np.arange(size) for the identity) and the pairs (xs[i], ys[i]), by
    min-label hooking (Liu and Tarjan, "Simple concurrent labeling
    algorithms for connected components", SOSA 2019): each root hooks to
    the least root it shares a pair with, pointers jump until each points
    at its root, and that repeats until every pair has one root.  Pointers
    only decrease, so a root is its block's least member.  The forest is
    hooked in place."""
    root = forest
    while True:
        rx, ry = root[xs], root[ys]
        split = rx != ry
        if not split.any():
            return root
        rx, ry = rx[split], ry[split]
        np.minimum.at(root, rx, ry)
        np.minimum.at(root, ry, rx)
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def _meets(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Least forms of the meets of two stacks of least-form rows, row by
    row.  An element's meet block holds the elements with its pair of
    least members, so its least member is where that pair first appears:
    one stable sort of the pair codes, each row's codes offset past the
    last row's."""
    rows, size = left.shape
    codes = left * size + right
    codes += (np.arange(rows) * size * size)[:, None]
    codes = codes.ravel()
    order = np.argsort(codes, kind="stable")
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(codes[order[1:]], codes[order[:-1]], out=new[1:])
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first.reshape(rows, size) - (np.arange(rows) * size)[:, None]


class Congruence:
    """A partition in least form: least[i] is the least member of element
    i's block, a read-only intp array.  Equal partitions have equal least
    forms, so the bytes of `least` are its identity."""

    def __init__(self, least: np.ndarray):
        least = np.array(least, dtype=np.intp)
        if least.ndim != 1 or (least < 0).any() or \
                (least > np.arange(len(least))).any() or (least[least] != least).any():
            raise ValueError("not a least form: each entry must be the least "
                             "member of its block, at or below its own index")
        least.flags.writeable = False
        self._least = least

    @property
    def least(self) -> np.ndarray:
        return self._least

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.least.tobytes() == other.least.tobytes()

    def __hash__(self):
        return hash(self.least.tobytes())

    @property
    def size(self) -> int:
        return len(self.least)

    @property
    def num_blocks(self) -> int:
        return int((self.least == np.arange(self.size)).sum())

    def relates(self, a: int, b: int) -> bool:
        return bool(self.least[a] == self.least[b])

    def blocks(self) -> list[list[int]]:
        """The blocks, in order of their least members."""
        out: dict[int, list[int]] = {}
        for i, root in enumerate(self.least.tolist()):
            out.setdefault(root, []).append(i)
        return list(out.values())

    def refines(self, other: "Congruence") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.size != other.size:
            raise ValueError(f"congruences on {self.size} and {other.size} elements")
        return bool((other.least[self.least] == other.least).all())

