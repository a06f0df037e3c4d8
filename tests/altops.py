"""Alternate case evaluators, deliberately independent of the package.

These work on element NAMES, not indices, and re-state the case rules
from scratch.  Used to cross-check the compiled operations op by op.
"""


def bar_name(name: str) -> str | None:
    """Barred twin of a letter or cell name; None when bar is undefined."""
    if name in ("0", "1", "2", "H"):
        return None
    if name.startswith("b"):
        return name[1:]
    return "b" + name


def alt_meet(x: str, y: str) -> str:
    return x if x == y else "0"


_MUL = {("2", "D"): "D", ("H", "C"): "D", ("1", "C"): "C",
        ("2", "bD"): "bD", ("H", "bC"): "bD", ("1", "bC"): "bC"}


def alt_mul(x: str, y: str) -> str:
    return _MUL.get((x, y), "0")


def alt_j(x: str, y: str, z: str) -> str:
    if x == y:
        return x
    if bar_name(x) is not None and bar_name(x) == y:
        return alt_meet(x, z)
    return "0"


def alt_jprime(x: str, y: str, z: str) -> str:
    if x == y:
        return alt_meet(x, z)
    if bar_name(x) is not None and bar_name(x) == y:
        return x
    return "0"


def alt_k(x: str, y: str, z: str) -> str:
    if bar_name(y) is not None and bar_name(y) == x:
        return y
    if x == y and bar_name(z) is not None and bar_name(z) == y:
        return z
    return x if x == y == z else "0"


def alt_move(kind: str, state: int, read: int, write: int, next_state: int,
             t: int, x: str, y: str, u: str) -> str:
    """The move operation L[state,read,t] (kind "L") or R[state,read,t]
    (kind "R") of the instruction `state read -> write kind next_state`.
    The head pair (x, y) picks one case for the cell u; a barred cell
    moves as its unbarred twin does, and the result is barred again."""
    barred = u.startswith("b") and "[" in u
    if barred:
        u = u[1:]
    i, r, j = state, read, next_state
    out = "0"
    if (x, y) == ("1", "1"):
        # a C cell of (state, read) keeps its s and takes (next_state, t)
        for s in (0, 1):
            if u == f"C[{i},{r}]^{s}":
                out = f"C[{j},{t}]^{s}"
    elif (x, y) == ("2", "2"):
        for s in (0, 1):
            if u == f"D[{i},{r}]^{s}":
                out = f"D[{j},{t}]^{s}"
    elif (x, y) == ("H", "1"):
        if kind == "L" and u == f"C[{i},{r}]^{t}":
            out = f"M[{j}]^{t}"
        if kind == "R" and u == f"M[{i}]^{r}":
            out = f"C[{j},{t}]^{write}"
    elif (x, y) == ("2", "H"):
        if kind == "L" and u == f"M[{i}]^{r}":
            out = f"D[{j},{t}]^{write}"
        if kind == "R" and u == f"D[{i},{r}]^{t}":
            out = f"M[{j}]^{t}"
    return "b" + out if barred and out != "0" else out
