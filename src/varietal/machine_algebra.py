"""Compile a Turing machine into a finite algebra.

The universe is a flat meet-semilattice (bottom 0, all other elements
pairwise incomparable) built from head markers 1, 2, H, tape letters C and
D, and state-indexed cells C[i,r]^s, D[i,r]^s, M[i]^r for every machine
state i and bits r, s.  Letters and cells come in barred twins (prefix
``b``); the bar is an involution on those two groups only and is not an
operation of the algebra.  The operations encode machine moves: one L and
R operation family per instruction, plus fixed scaffolding (meet, a
two-element product, the selectors J and J', the spreading operations
S0/S1/S2, the pairing test T, the seeding map I, and the U variants of
each instruction family).  An optional extra operation K collapses barred
twins.  Every operation is monotone for x <= y iff x in {0, y}.

Canonical element order: 0, then 1, 2, H, then C, D, bC, bD, then cells
sorted by (state, letter, r, s, barred).  `Element.name()` is the one
name grammar: `MachineAlgebra.names` lists the names in that order and
`MachineAlgebra.idx` maps a name back to its index.  Canonical
operation order: zero, meet, mul, J, J', S0, S1, S2, T, I, then L
families by (state, read, t), then R families, then U1_F/U0_F per family
in the same order, then K when present.  Every operation evaluates by
its case rules; a dense table of an operation of arity <= 3 is filled
only when a numpy evaluator (vector_evaluator) first asks for it.

`build_bn` closes the witness generators at width n (`witness` states
them and checks its lemmas) into a `BnContext`, which builds its
translation system and pair walk on first use.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .algebra import Budget, DEFAULT_BUDGET, FiniteAlgebra, Operation, TranslationStep
from .tm import TuringMachine

if TYPE_CHECKING:
    from .depth import PairDepthGraph, TranslationSystem
    from .subpower import Subpower


class Element(NamedTuple):
    """One universe member.

    family: "zero" | "head" | "letter" | "cell".
    symbol: head name ("1"/"2"/"H") or letter ("C"/"D"/"M").
    Cells carry state and r; C/D cells carry s as well (M cells use -1).
    """

    family: str
    symbol: str = ""
    state: int = -1
    r: int = -1
    s: int = -1
    barred: bool = False

    def name(self) -> str:
        if self.family == "zero":
            return "0"
        if self.family == "head":
            return self.symbol
        prefix = "b" if self.barred else ""
        if self.family == "letter":
            return prefix + self.symbol
        if self.symbol == "M":
            return f"{prefix}M[{self.state}]^{self.r}"
        return f"{prefix}{self.symbol}[{self.state},{self.r}]^{self.s}"


def _universe(n_states: int) -> list[Element]:
    out = [Element("zero")]
    out += [Element("head", sym) for sym in ("1", "2", "H")]
    out += [Element("letter", "C"), Element("letter", "D"),
            Element("letter", "C", barred=True), Element("letter", "D", barred=True)]
    for i in range(n_states):
        for letter in ("C", "D"):
            for r in (0, 1):
                for s in (0, 1):
                    for barred in (False, True):
                        out.append(Element("cell", letter, i, r, s, barred))
        for r in (0, 1):
            for barred in (False, True):
                out.append(Element("cell", "M", i, r, -1, barred))
    return out


class MachineAlgebra:
    """The algebra compiled from one machine; wraps a FiniteAlgebra plus
    element naming, the bar involution and the head order."""

    def __init__(self, machine: TuringMachine, with_k: bool = False):
        self.machine = machine
        self.with_k = with_k
        self.elements = tuple(_universe(len(machine.states)))
        self.size = len(self.elements)
        self.names = tuple(el.name() for el in self.elements)
        self._by_name = {nm: i for i, nm in enumerate(self.names)}

        # bar involution on letters and cells; -1 elsewhere
        bar = [-1] * self.size
        for i, el in enumerate(self.elements):
            if el.family in ("letter", "cell"):
                twin = Element(el.family, el.symbol, el.state, el.r, el.s,
                               not el.barred)
                bar[i] = self._by_name[twin.name()]
        self.bar_index = tuple(bar)

        self.one = self._by_name["1"]
        self.two = self._by_name["2"]
        self.h = self._by_name["H"]
        self.is_cell = tuple(el.family == "cell" for el in self.elements)
        self.is_state0_cell = tuple(
            el.family == "cell" and el.state == 0 for el in self.elements
        )

        self._tables: dict[str, bytes] = {}   # filled by _np_table
        ops = self._build_ops()
        self.algebra = FiniteAlgebra(size=self.size, ops=ops)

    @cached_property
    def k_extended(self) -> "MachineAlgebra":
        """The same machine's algebra with K, compiled on first use and
        kept, so every width of a run shares its automata and tables."""
        return MachineAlgebra(self.machine, with_k=True)

    # -- naming ------------------------------------------------------------

    def idx(self, name: str) -> int:
        i = self._by_name.get(name)
        if i is None:
            raise KeyError(f"no element named {name!r}")
        return i

    def cell(self, letter: str, state: int, r: int, s: int = -1,
             barred: bool = False) -> int:
        return self.idx(Element("cell", letter, state, r, s, barred).name())

    # -- relations ---------------------------------------------------------

    def prec(self, x: int, z: int) -> bool:
        """Head order: 2 < 2, 2 < H, 1 < 1, nothing else."""
        return (x == self.two and z in (self.two, self.h)) or \
               (x == self.one and z == self.one)

    # -- operations ---------------------------------------------------------

    def _build_ops(self) -> tuple[Operation, ...]:
        bar = self.bar_index
        one, two, h = self.one, self.two, self.h
        prec = self.prec
        zero = 0

        def meet(x, y):
            return x if x == y else zero

        def mj(x, y, z):
            # (x ^ y) v (x ^ z); both meets are x or 0, so the join exists
            m = x if x == y else zero
            return m if m else (x if x == z else zero)

        c_letter = self._by_name["C"]
        d_letter = self._by_name["D"]
        bc_letter = self._by_name["bC"]
        bd_letter = self._by_name["bD"]
        mul_nonzero = {
            (two, d_letter): d_letter, (h, c_letter): d_letter,
            (one, c_letter): c_letter, (two, bd_letter): bd_letter,
            (h, bc_letter): bd_letter, (one, bc_letter): bc_letter,
        }

        def mul(x, y):
            return mul_nonzero.get((x, y), zero)

        def j_sel(x, y, z):
            if x == y:
                return x
            if bar[x] == y and bar[x] >= 0:
                return x if x == z else zero
            return zero

        def jp_sel(x, y, z):
            if x == y:
                return x if x == z else zero
            if bar[x] == y and bar[x] >= 0:
                return x
            return zero

        is0cell = self.is_state0_cell

        def s0(u, x, y, z):
            return mj(x, y, z) if is0cell[u] else zero

        def s1(u, x, y, z):
            return mj(x, y, z) if u == one or u == two else zero

        def s2(u, v, x, y, z):
            return mj(x, y, z) if bar[u] == v and bar[u] >= 0 else zero

        def t_pair(w, x, y, z):
            p = mul(w, x)
            if w == y and x == z:
                return p
            if p != zero and p == mul(y, z):
                return bar[p]
            return zero

        i_one = self.cell("C", 1, 0, 0)
        i_h = self.cell("M", 1, 0)
        i_two = self.cell("D", 1, 0, 0)

        def seed(x):
            if x == one:
                return i_one
            if x == h:
                return i_h
            if x == two:
                return i_two
            return zero

        elements = self.elements
        is_cell = self.is_cell

        def make_move(kind: str, i: int, r: int, s_ins: int, j: int, t: int):
            # kind "L" or "R"; one operation per instruction and t in {0,1}
            m_ir = self.cell("M", i, r)
            m_jt = self.cell("M", j, t)
            c_out = (self.cell("C", j, t, 0), self.cell("C", j, t, 1))
            d_out = (self.cell("D", j, t, 0), self.cell("D", j, t, 1))
            # only the (H,1) and (2,H) cases differ: (argument, value) each
            if kind == "L":
                h1_in, h1_out = self.cell("C", i, r, t), m_jt
                h2_in, h2_out = m_ir, d_out[s_ins]
            else:
                h1_in, h1_out = m_ir, c_out[s_ins]
                h2_in, h2_out = self.cell("D", i, r, t), m_jt

            def pos_case(x, y, u):
                el = elements[u]
                if x == one and y == one:
                    if (el.family == "cell" and el.symbol == "C"
                            and not el.barred and el.state == i and el.r == r):
                        return c_out[el.s]
                elif x == h and y == one:
                    if u == h1_in:
                        return h1_out
                elif x == two and y == h:
                    if u == h2_in:
                        return h2_out
                elif x == two and y == two:
                    if (el.family == "cell" and el.symbol == "D"
                            and not el.barred and el.state == i and el.r == r):
                        return d_out[el.s]
                return zero

            def move(x, y, u):
                v = pos_case(x, y, u)
                if v:
                    return v
                bu = bar[u]
                if bu >= 0 and is_cell[u]:
                    w = pos_case(x, y, bu)
                    if w:
                        return bar[w]
                return zero

            return move

        def make_u1(f):
            def u1(x, y, z, u):
                if not prec(x, z):
                    return zero
                fv = f(x, y, u)
                if fv == zero:
                    return zero
                return fv if y == z else bar[fv]
            return u1

        def make_u0(f):
            def u0(x, y, z, u):
                if not prec(x, z):
                    return zero
                fv = f(y, z, u)
                if fv == zero:
                    return zero
                return fv if x == y else bar[fv]
            return u0

        def collapse(x, y, z):
            if bar[y] == x and bar[y] >= 0:
                return y
            if x == y and bar[z] == y and bar[z] >= 0:
                return z
            m = y if y == z else zero
            return x if x == m else zero

        ops: list[Operation] = [
            Operation("zero", 0, lambda: zero),
            Operation("meet", 2, meet),
            Operation("mul", 2, mul),
            Operation("J", 3, j_sel),
            Operation("J'", 3, jp_sel),
            Operation("S0", 4, s0),
            Operation("S1", 4, s1),
            Operation("S2", 5, s2),
            Operation("T", 4, t_pair),
            Operation("I", 1, seed),
        ]

        move_ops = [Operation(f"{kind}[{ins.state},{ins.read},{t}]", 3,
                              make_move(kind, ins.state, ins.read, ins.write,
                                        ins.next_state, t))
                    for kind in ("L", "R")
                    for ins in self.machine.sorted_instructions()
                    if ins.direction == kind
                    for t in (0, 1)]
        ops.extend(move_ops)
        for mv in move_ops:
            ops.append(Operation(f"U1_{mv.symbol}", 4, make_u1(mv.func)))
            ops.append(Operation(f"U0_{mv.symbol}", 4, make_u0(mv.func)))
        if self.with_k:
            ops.append(Operation("K", 3, collapse))

        return tuple(ops)


def compile_machine(machine: TuringMachine, with_k: bool = False) -> MachineAlgebra:
    return MachineAlgebra(machine, with_k=with_k)


# ---------------------------------------------------------------------------
# the witness subpower B_n (its lemmas are in `witness`)
#
# The closure, the translation system and the walk are imported where they
# are first built, so that compiling a machine loads none of their modules.

class BnContext:
    """A witness subpower (B_n, or a subalgebra of it such as omission's
    C_k) with the named tuples of its width n, and its translation system
    and its pair walk from (a, 0), each built once.  Everything but the
    algebra, the subpower and the budget derives from them: n is the
    subpower's width, b, d and c are `witness_tuples` at n, a = b_1, and
    the generators of B_n are b_1..b_n then d_2..d_n."""

    def __init__(self, algebra: MachineAlgebra, subpower: Subpower,
                 budget: Budget):
        self.n = subpower.width
        self.algebra = algebra
        self.subpower = subpower
        self.b, self.d, self.c = witness_tuples(algebra, self.n)
        self.a = self.b[1]
        self.zero_tuple = (0,) * self.n
        self.budget = budget
        self._system: TranslationSystem | None = None
        self._walk: PairDepthGraph | None = None

    def id_of(self, raw: tuple[int, ...]) -> int:
        return self.subpower.index[raw]

    @property
    def a_id(self) -> int:
        return self.id_of(self.a)

    @property
    def zero_id(self) -> int:
        return self.id_of(self.zero_tuple)

    def system(self) -> TranslationSystem:
        if self._system is None:
            from .depth import translation_system
            self._system = translation_system(self.subpower, budget=self.budget)
        return self._system

    def walk(self) -> PairDepthGraph:
        """The pair walk from (a, 0), shared by atomic, chain, f-char and depth."""
        if self._walk is None:
            from .depth import pair_depth_graph
            self._walk = pair_depth_graph(self.system(), self.a_id, self.zero_id,
                                          budget=self.budget)
        return self._walk

    def render(self, raw: tuple[int, ...]) -> list[str]:
        names = self.algebra.names
        return [names[v] for v in raw]

    def render_id(self, element_id: int) -> list[str]:
        return self.render(self.subpower.elements[element_id])

    def step_json(self, step: TranslationStep) -> dict:
        return {"op": step.op, "position": step.position,
                "constants": [self.render_id(c) for c in step.constants]}


def witness_tuples(ma: MachineAlgebra, n: int):
    """The tuples b_1..b_n, d_2..d_n and c_1..c_n at width n, each a dict
    keyed by its index (their shapes are in `witness`)."""
    dd = ma.idx("D")
    bd = ma.idx("bD")
    b = {i: (dd,) * i + (0,) * (n - i) for i in range(1, n + 1)}
    d = {i: (dd,) * (i - 1) + (bd,) + (0,) * (n - i) for i in range(2, n + 1)}
    c = {i: (0,) + (dd,) * (i - 1) + (0,) * (n - i) for i in range(1, n + 1)}
    return b, d, c


def build_bn(ma: MachineAlgebra, n: int,
             budget: Budget = DEFAULT_BUDGET) -> BnContext:
    """Close the witness generators inside the n-th power.

    The closure sweeps every operation of the algebra; the claim that
    only four of them matter is verified afterwards, not assumed.
    """
    if n < 2:
        raise ValueError("witness width must be at least 2")
    from .subpower import close_subpower
    b, d, _ = witness_tuples(ma, n)
    ctx = BnContext(ma, close_subpower(ma.algebra, n, [*b.values(), *d.values()],
                                       budget), budget)
    # sanity: the derived tuples really are in the closure
    for raw in [*ctx.c.values(), ctx.zero_tuple]:
        if raw not in ctx.subpower.index:
            raise ValueError(f"{ctx.render(raw)} missing from the closure")
    return ctx


# ---------------------------------------------------------------------------
# bulk evaluation

def _np_table(ma: MachineAlgebra, symbol: str) -> np.ndarray:
    """The dense table of an operation of arity 1 to 3, in the narrowest
    unsigned dtype for the universe.  It is filled on first request,
    iterating only argument regions that can be nonzero, and kept row-major
    in ma._tables; the array returned is a read-only view of it."""
    op = ma.algebra.op(symbol)
    if not 1 <= op.arity <= 3:
        raise ValueError(f"{symbol} has arity {op.arity}; dense tables take 1 to 3")
    size, shape = ma.size, (ma.size,) * op.arity
    dtype = np.min_scalar_type(size - 1)
    raw = ma._tables.get(symbol)
    if raw is None:
        if op.arity < 3:
            cells = product(range(size), repeat=op.arity)
        elif symbol in ("J", "J'", "K"):
            # nonzero requires y == x or y == bar(x)
            cells = ((x, y, z) for x in range(size)
                     for y in (x, ma.bar_index[x]) if y >= 0
                     for z in range(size))
        elif symbol.startswith(("L[", "R[")):
            # nonzero requires head markers in the first two arguments
            heads = (ma.one, ma.two, ma.h)
            cells = product(heads, heads, range(size))
        else:
            cells = product(range(size), repeat=3)
        table, func = np.zeros(shape, dtype=dtype), op.func
        for args in cells:
            v = func(*args)
            if v:
                table[args] = v
        raw = ma._tables[symbol] = table.tobytes()
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def vector_evaluator(ma: MachineAlgebra, symbol: str):
    """A numpy evaluator for one operation: takes index arrays of equal
    shape, returns the value array."""
    op = ma.algebra.op(symbol)
    size = ma.size
    barpos = np.asarray([b if b >= 0 else 0 for b in ma.bar_index], dtype=np.int64)
    bar_ok = np.asarray([b >= 0 for b in ma.bar_index])
    bar_arr = np.asarray(ma.bar_index, dtype=np.int64)

    if op.arity <= 3 and op.arity >= 1:
        tab = _np_table(ma, symbol)
        return lambda *args: tab[tuple(np.asarray(a, dtype=np.int64) for a in args)]

    meet_tab = _np_table(ma, "meet")
    mj = np.where(meet_tab[:, :, None] != 0, meet_tab[:, :, None],
                  meet_tab[:, None, :])

    if symbol == "S0":
        mask = np.asarray(ma.is_state0_cell)
        return lambda u, x, y, z: np.where(mask[u], mj[x, y, z], 0)
    if symbol == "S1":
        mask = np.zeros(size, dtype=bool)
        mask[ma.one] = mask[ma.two] = True
        return lambda u, x, y, z: np.where(mask[u], mj[x, y, z], 0)
    if symbol == "S2":
        return lambda u, v, x, y, z: np.where(bar_ok[u] & (bar_arr[u] == v),
                                              mj[x, y, z], 0)
    if symbol == "T":
        mul_tab = _np_table(ma, "mul")

        def t_eval(w, x, y, z):
            p = mul_tab[w, x]
            q = mul_tab[y, z]
            return np.where((w == y) & (x == z), p,
                            np.where((p == q) & (p != 0), barpos[p], 0))
        return t_eval

    if symbol.startswith("U1_") or symbol.startswith("U0_"):
        f_tab = _np_table(ma, symbol[3:])
        prec_tab = np.zeros((size, size), dtype=bool)
        prec_tab[ma.two, ma.two] = prec_tab[ma.two, ma.h] = True
        prec_tab[ma.one, ma.one] = True
        if symbol.startswith("U1_"):
            def u1_eval(x, y, z, u):
                fv = f_tab[x, y, u]
                return np.where(prec_tab[x, z] & (fv != 0),
                                np.where(y == z, fv, barpos[fv]), 0)
            return u1_eval

        def u0_eval(x, y, z, u):
            fv = f_tab[y, z, u]
            return np.where(prec_tab[x, z] & (fv != 0),
                            np.where(x == y, fv, barpos[fv]), 0)
        return u0_eval

    raise ValueError(f"no vector evaluator for {symbol!r}")
