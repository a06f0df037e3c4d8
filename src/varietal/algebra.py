"""Generic finite algebras.

A FiniteAlgebra is an indexed universe 0..size-1 with a tuple of named
finitary operations.  Operations evaluate on element indices; small ones
may be backed by dense row-major tables.  Congruences are partitions in
canonical block-id form (blocks numbered by least member); meets, joins
and refinement are numpy operations on these label arrays, and every
equivalence generated by pairs comes from one min-label hooking helper.
Everything here is deterministic.  The subuniverse generated by a set of
elements is `subpower.close_subpower` at width 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np


class BudgetExceeded(RuntimeError):
    """A configured resource cap was hit. `what` names the cap."""

    def __init__(self, what: str, detail: str = ""):
        self.what = what
        super().__init__(f"budget exceeded: {what}" + (f" ({detail})" if detail else ""))


@dataclass
class Budget:
    """Hard resource caps.  deadline is a time.monotonic() timestamp."""

    max_elements: int = 1_000_000
    max_pairs: int = 5_000_000
    max_signatures: int = 2_000_000
    deadline: float | None = None

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


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Operation:
    """A named finitary operation on element indices.

    func takes `arity` positional int arguments and returns an int.
    """

    symbol: str
    arity: int
    func: Callable[..., int]

    def __call__(self, *args: int) -> int:
        return self.func(*args)


def table_op(symbol: str, arity: int, size: int,
             values: Sequence[int]) -> Operation:
    """Operation backed by a dense row-major table."""
    if len(values) != size ** arity:
        raise ValueError(
            f"{symbol} needs {size ** arity} table values, got {len(values)}")
    table = list(values)
    if arity == 0:
        const = table[0]
        return Operation(symbol, 0, lambda: const)
    if arity == 1:
        return Operation(symbol, 1, lambda x: table[x])
    if arity == 2:
        return Operation(symbol, 2, lambda x, y: table[x * size + y])
    if arity == 3:
        return Operation(
            symbol, 3, lambda x, y, z: table[(x * size + y) * size + z]
        )

    def func(*args):
        idx = 0
        for a in args:
            idx = idx * size + a
        return table[idx]

    return Operation(symbol, arity, func)


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """Universe 0..size-1 plus named operations.  `automata` caches the
    coordinate automata of its operations (see `subpower`).  On the element
    ids of a subpower, operations evaluate through `Subpower.eval`."""

    size: int
    ops: tuple[Operation, ...]
    automata: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        symbols = [op.symbol for op in self.ops]
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate operation symbols")

    def op(self, symbol: str) -> Operation:
        for op in self.ops:
            if op.symbol == symbol:
                return op
        raise KeyError(f"unknown operation {symbol!r}")

    def eval(self, symbol: str, args: Sequence[int]) -> int:
        op = self.op(symbol)
        if len(args) != op.arity:
            raise ValueError(
                f"{symbol} takes {op.arity} arguments, got {len(args)}"
            )
        for a in args:
            if not (0 <= a < self.size):
                raise ValueError(f"element index {a} out of range")
        return op.func(*args)


@dataclass(frozen=True)
class TranslationStep:
    """One fundamental translation: fix every argument of `op` except
    `position` with the listed constants (position-ascending order)."""

    op: str
    position: int
    constants: tuple[int, ...]


# ---------------------------------------------------------------------------
# congruences

def _canonical(keys: np.ndarray) -> np.ndarray:
    """Number the keys 0, 1, ... in order of first appearance."""
    order = np.argsort(keys, kind="stable")
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[order[1:]], keys[order[:-1]], out=new[1:])
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]   # each key's first position
    return _ranked(first)


def _ranked(first: np.ndarray) -> np.ndarray:
    """Canonical labels from first[i] <= i, the first index in i's class:
    the classes numbered in order of those first indices."""
    return (np.cumsum(first == np.arange(len(first))) - 1)[first]


def _generated(size: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Canonical labels of the equivalence on 0..size-1 that the pairs
    (xs[i], ys[i]) generate, by min-label hooking (Liu and Tarjan, "Simple
    concurrent labeling algorithms for connected components", SOSA 2019):
    each root hooks to the least root it shares a pair with, pointers jump
    until each points at its root, and that repeats until every pair has
    one root.  Pointers only decrease, so a root is its block's least
    member."""
    root = np.arange(size)
    while True:
        rx, ry = root[xs], root[ys]
        split = rx != ry
        if not split.any():
            return _ranked(root)
        rx, ry = rx[split], ry[split]
        np.minimum.at(root, rx, ry)
        np.minimum.at(root, ry, rx)
        while not np.array_equal(jumped := root[root], root):
            root = jumped


@dataclass(frozen=True)
class Congruence:
    """A partition in canonical form: labels[i] is the block id of element
    i, blocks numbered 0.. in order of least member.  Meets, joins and
    refinement work on the labels as a numpy array."""

    labels: tuple[int, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.labels, dtype=np.intp)
        running = np.maximum.accumulate(array)
        # labels start at 0, and each is at most one above all before it
        if (array < 0).any() or (array[:1] > 0).any() or \
                (array[1:] > running[:-1] + 1).any():
            raise ValueError("labels not in canonical first-appearance order")
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    @cached_property
    def _least(self) -> np.ndarray:
        """The least member of each element's block: the first index at
        which the running maximum of the canonical labels reaches its label."""
        least = np.maximum.accumulate(self._array).searchsorted(self._array)
        least.flags.writeable = False
        return least

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def num_blocks(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def relates(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for i, lab in enumerate(self.labels):
            out[lab].append(i)
        return out

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_full(self) -> bool:
        return self.num_blocks <= 1

    def _check_same_size(self, other: "Congruence"):
        if self.size != other.size:
            raise ValueError(f"congruences on {self.size} and {other.size} elements")

    def meet(self, other: "Congruence") -> "Congruence":
        self._check_same_size(other)
        keys = self._array * self.size + other._array
        return Congruence(tuple(_canonical(keys).tolist()))

    def equiv_join(self, other: "Congruence") -> "Congruence":
        """Join in the lattice of equivalences (transitive closure of the
        union).  For two congruences this is also the congruence join."""
        self._check_same_size(other)
        every = np.arange(2 * self.size) % self.size
        least = np.concatenate([self._least, other._least])
        return Congruence(tuple(_generated(self.size, every, least).tolist()))

    def refines(self, other: "Congruence") -> bool:
        """True when every block of self lies inside a block of other."""
        self._check_same_size(other)
        return bool((other._array[self._least] == other._array).all())

    def spanning_pairs(self) -> list[tuple[int, int]]:
        """One chain of pairs per nontrivial block; generates the same
        congruence."""
        prev: dict[int, int] = {}
        pairs: list[tuple[int, int]] = []
        for i, lab in enumerate(self.labels):
            if lab in prev:
                pairs.append((prev[lab], i))
            prev[lab] = i
        return pairs

    @staticmethod
    def identity(size: int) -> "Congruence":
        return Congruence(tuple(range(size)))

    @staticmethod
    def full(size: int) -> "Congruence":
        return Congruence((0,) * size)

    @staticmethod
    def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> "Congruence":
        """Equivalence (not necessarily compatible) generated by pairs."""
        pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
        return Congruence(tuple(_generated(size, pairs[:, 0], pairs[:, 1]).tolist()))
