"""Generic finite algebras.

A FiniteAlgebra is an indexed universe 0..size-1 with a tuple of named
finitary operations.  Operations evaluate on element indices; small ones
may be backed by dense row-major tables.  Congruences are partitions in
canonical block-id form (blocks numbered by least member).  Everything
here is deterministic: closure discovers elements in operation order then
argument lexicographic order, and outputs are sorted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Sequence


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
    `absorbing` lists argument positions at which a 0 argument forces the
    value 0 (used to prune translation enumeration; may be empty even for
    operations that do absorb).
    """

    symbol: str
    arity: int
    func: Callable[..., int]
    absorbing: tuple[int, ...] = ()

    def __call__(self, *args: int) -> int:
        return self.func(*args)


def table_op(symbol: str, arity: int, size: int, values: Sequence[int],
             absorbing: tuple[int, ...] = ()) -> Operation:
    """Operation backed by a dense row-major table."""
    if len(values) != size ** arity:
        raise ValueError(
            f"{symbol} needs {size ** arity} table values, got {len(values)}")
    table = list(values)
    if arity == 0:
        const = table[0]
        return Operation(symbol, 0, lambda: const, absorbing)
    if arity == 1:
        return Operation(symbol, 1, lambda x: table[x], absorbing)
    if arity == 2:
        return Operation(symbol, 2, lambda x, y: table[x * size + y], absorbing)
    if arity == 3:
        return Operation(
            symbol, 3, lambda x, y, z: table[(x * size + y) * size + z], absorbing
        )

    def func(*args):
        idx = 0
        for a in args:
            idx = idx * size + a
        return table[idx]

    return Operation(symbol, arity, func, absorbing)


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """Universe 0..size-1 plus named operations.  `zero` is the index of a
    known absorbing bottom element, if any."""

    size: int
    ops: tuple[Operation, ...]
    zero: int | None = None

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
# powers

@dataclass(frozen=True, eq=False)
class Power:
    """Direct power with a mixed-radix codec (first coordinate most
    significant, so numeric order of indices = lexicographic order of
    tuples).  Operations evaluate lazily through the codec; nothing of
    size base.size**exponent is materialized."""

    base: FiniteAlgebra
    exponent: int
    algebra: FiniteAlgebra

    def encode(self, tup: Sequence[int]) -> int:
        if len(tup) != self.exponent:
            raise ValueError(
                f"tuple {tuple(tup)} has width {len(tup)}, want {self.exponent}")
        idx = 0
        for v in tup:
            if not (0 <= v < self.base.size):
                raise ValueError(f"coordinate {v} out of range")
            idx = idx * self.base.size + v
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.exponent):
            idx, v = divmod(idx, self.base.size)
            out.append(v)
        out.reverse()
        return tuple(out)


def power(alg: FiniteAlgebra, n: int) -> Power:
    if n < 1:
        raise ValueError("exponent must be >= 1")
    size = alg.size ** n

    def lift(op: Operation) -> Operation:
        base_size = alg.size

        def decode(idx):
            out = []
            for _ in range(n):
                idx, v = divmod(idx, base_size)
                out.append(v)
            out.reverse()
            return out

        if op.arity == 0:
            c = op.func()
            const = 0
            for _ in range(n):
                const = const * base_size + c
            return Operation(op.symbol, 0, lambda: const, op.absorbing)

        def func(*args):
            cols = [decode(a) for a in args]
            idx = 0
            for i in range(n):
                idx = idx * base_size + op.func(*(col[i] for col in cols))
            return idx

        return Operation(op.symbol, op.arity, func, op.absorbing)

    zero = None
    if alg.zero is not None:
        zero = 0
        for _ in range(n):
            zero = zero * alg.size + alg.zero
    lifted = FiniteAlgebra(size=size, ops=tuple(lift(op) for op in alg.ops), zero=zero)
    return Power(base=alg, exponent=n, algebra=lifted)


# ---------------------------------------------------------------------------
# subuniverse closure

def generate_subuniverse(alg: FiniteAlgebra, generators: Iterable[int],
                         budget: Budget = DEFAULT_BUDGET) -> list[int]:
    """Least subuniverse containing the generators, as a sorted list.

    Worklist closure; each round applies every operation to argument
    tuples that touch at least one element discovered in the previous
    round, in operation order then argument lexicographic order.
    """
    member: set[int] = set()
    found: list[int] = []
    for g in sorted(set(generators)):
        if not (0 <= g < alg.size):
            raise ValueError(f"generator {g} out of range")
        member.add(g)
        found.append(g)
    if not found:
        raise ValueError("need at least one generator")

    fresh = list(found)
    while fresh:
        budget.check_time()
        fresh_set = set(fresh)
        new: list[int] = []
        known = sorted(member)
        for op in alg.ops:
            if op.arity == 0:
                v = op.func()
                if v not in member:
                    member.add(v)
                    new.append(v)
                continue
            for args in product(known, repeat=op.arity):
                if not fresh_set.intersection(args):
                    continue
                v = op.func(*args)
                if v not in member:
                    member.add(v)
                    new.append(v)
                    budget.check_elements(len(member))
        fresh = new
    return sorted(member)


# ---------------------------------------------------------------------------
# congruences

class DisjointSets:
    """Union-find over 0..n-1 with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def labels(self) -> tuple[int, ...]:
        out = []
        seen: dict[int, int] = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            if r not in seen:
                seen[r] = len(seen)
            out.append(seen[r])
        return tuple(out)


@dataclass(frozen=True)
class Congruence:
    """A partition in canonical form: labels[i] is the block id of element
    i, blocks numbered 0.. in order of least member."""

    labels: tuple[int, ...]

    def __post_init__(self):
        seen = -1
        for lab in self.labels:
            if lab > seen + 1:
                raise ValueError("labels not in canonical first-appearance order")
            seen = max(seen, lab)

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
        seen: dict[tuple[int, int], int] = {}
        labels = []
        for pair in zip(self.labels, other.labels):
            if pair not in seen:
                seen[pair] = len(seen)
            labels.append(seen[pair])
        return Congruence(tuple(labels))

    def equiv_join(self, other: "Congruence") -> "Congruence":
        """Join in the lattice of equivalences (transitive closure of the
        union).  For two congruences this is also the congruence join."""
        self._check_same_size(other)
        dsu = DisjointSets(self.size)
        for rel in (self, other):
            first: dict[int, int] = {}
            for i, lab in enumerate(rel.labels):
                if lab in first:
                    dsu.union(first[lab], i)
                else:
                    first[lab] = i
        return Congruence(dsu.labels())

    def refines(self, other: "Congruence") -> bool:
        """True when every block of self lies inside a block of other."""
        self._check_same_size(other)
        rep: dict[int, int] = {}
        for i, lab in enumerate(self.labels):
            if lab in rep:
                if other.labels[rep[lab]] != other.labels[i]:
                    return False
            else:
                rep[lab] = i
        return True

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
        dsu = DisjointSets(size)
        for a, b in pairs:
            dsu.union(a, b)
        return Congruence(dsu.labels())

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        blocks = [sorted(blk) for blk in blocks]
        labels = [-1] * size
        for members in blocks:
            for m in members:
                if not (0 <= m < size) or labels[m] != -1:
                    raise ValueError("blocks must partition 0..size-1")
                labels[m] = -2  # placeholder; relabel below
        if any(lab == -1 for lab in labels):
            raise ValueError("blocks must cover the universe")
        dsu = DisjointSets(size)
        for members in blocks:
            for m in members[1:]:
                dsu.union(members[0], m)
        return Congruence(dsu.labels())


def congruence_to_json(cong: Congruence) -> dict:
    """{"blocks": [[...], ...]} with blocks sorted by least element."""
    return {"blocks": cong.blocks()}


def congruence_from_json(doc: dict, size: int) -> Congruence:
    return Congruence.from_blocks(size, doc["blocks"])


def is_congruence(alg: FiniteAlgebra, cong: Congruence,
                  budget: Budget = DEFAULT_BUDGET) -> bool:
    """Exhaustive compatibility check through one-argument changes.

    An equivalence is a congruence iff it is closed under every
    fundamental translation; checked pair by pair.
    """
    if cong.size != alg.size:
        raise ValueError(
            f"congruence on {cong.size} elements, algebra has {alg.size}")
    pairs = [(a, b) for a in range(alg.size) for b in range(a + 1, alg.size)
             if cong.relates(a, b)]
    work = 0
    for op in alg.ops:
        if op.arity == 0:
            continue
        for pos in range(op.arity):
            for consts in product(range(alg.size), repeat=op.arity - 1):
                work += 1
                if work % 4096 == 0:
                    budget.check_time()
                    budget.check_pairs(work)
                args = list(consts[:pos]) + [0] + list(consts[pos:])
                for a, b in pairs:
                    args[pos] = a
                    va = op.func(*args)
                    args[pos] = b
                    vb = op.func(*args)
                    if not cong.relates(va, vb):
                        return False
    return True
