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
