"""Independent oracles for closure, congruence generation, translation
enumeration and projection kernels.

None of these share algorithms with the package: closure enumerates full
argument grids (no prefix-signature dedup), congruence generation uses
bucket refinement over block patterns (no translation BFS), the
translation oracle reads each constant tuple's map off dense operation
tables, and the kernels group elements on their coordinates.
"""

from itertools import product

import numpy as np


def columnwise(fn, cols, size: int) -> np.ndarray:
    """Evaluate fn over per-argument value columns with radix dedup."""
    codes = cols[0].astype(np.int64)
    for c in cols[1:]:
        codes = codes * size + c
    uniq, inverse = np.unique(codes, return_inverse=True)
    k = len(cols)
    vals = np.empty(len(uniq), dtype=np.int64)
    for i, code in enumerate(uniq):
        args = []
        rest = int(code)
        for _ in range(k):
            args.append(rest % size)
            rest //= size
        vals[i] = fn(*reversed(args))
    return vals[inverse]


def naive_closure(base, width: int, generators, grid_limit: int = 3_000_000):
    """Fixed-point closure by full argument-grid sweeps."""
    if base.size ** width >= 2 ** 63:
        raise RuntimeError("oracle row codes would overflow int64")
    known = sorted({tuple(g) for g in generators})
    known_set = set(known)
    while True:
        arr = np.asarray(known, dtype=np.int64)
        m = len(known)
        fresh = set()
        for op in base.ops:
            k = op.arity
            if k == 0:
                t = (op.func(),) * width
                if t not in known_set:
                    fresh.add(t)
                continue
            if m ** k > grid_limit:
                raise RuntimeError("oracle grid too large")
            grids = np.indices((m,) * k).reshape(k, -1)
            out = np.empty((grids.shape[1], width), dtype=np.int64)
            for c in range(width):
                cols = [arr[g, c] for g in grids]
                out[:, c] = columnwise(op.func, cols, base.size)
            # rows as radix codes over the base universe: a 1-d dedupe
            codes = out[:, 0]
            for c in range(1, width):
                codes = codes * base.size + out[:, c]
            for row in out[np.unique(codes, return_index=True)[1]].tolist():
                t = tuple(row)
                if t not in known_set:
                    fresh.add(t)
        if not fresh:
            return known
        known_set |= fresh
        known = sorted(known_set)


def bucket_congruence(size: int, op_values: list[np.ndarray],
                      seed_pairs) -> tuple[int, ...]:
    """Least congruence containing the seed pairs, by bucket refinement,
    in least form: each element's entry is the least member of its block.

    op_values[i] is the dense value array of one operation over element
    indices (shape (size,)*arity).  Argument tuples whose components are
    pairwise related (same block pattern) must map into one block, so
    every iteration groups the full grid by block pattern and merges the
    images inside each group, until nothing changes.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    for x, y in seed_pairs:
        union(x, y)

    flat = []
    grids_per_op = []
    for vals in op_values:
        k = vals.ndim
        grids = np.indices(vals.shape).reshape(k, -1)
        flat.append(vals.reshape(-1))
        grids_per_op.append(grids)

    changed = True
    while changed:
        changed = False
        roots = np.asarray([find(i) for i in range(size)], dtype=np.int64)
        for vals, grids in zip(flat, grids_per_op):
            codes = roots[grids[0]]
            for g in grids[1:]:
                codes = codes * size + roots[g]
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            sorted_vals = vals[order]
            new_group = np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
            # each value against its group's first value; only values in
            # another block at the start of the sweep can cause a merge
            rep = sorted_vals[np.flatnonzero(new_group)[np.cumsum(new_group) - 1]]
            apart = np.flatnonzero(roots[rep] != roots[sorted_vals])
            for i in apart:
                if union(int(rep[i]), int(sorted_vals[i])):
                    changed = True
    # a union keeps the smaller root, so each root is its block's least member
    return tuple(find(i) for i in range(size))


def naive_congruences(size: int, op_values: list[np.ndarray]
                      ) -> list[tuple[int, ...]]:
    """Every congruence of the algebra with these dense operation tables
    (shape (size,)*arity each), in least form (each element's entry the
    least member of its block), sorted: each set partition of the
    universe, enumerated as a restricted growth string, is kept when every
    operation sends each element of a block, in each argument place, to
    the block that the block's least member goes to.  Only up to 7
    elements (877 partitions)."""
    if size > 7:
        raise ValueError(f"{size} elements: too many partitions to list")
    partitions = [()]
    for _ in range(size):
        partitions = [p + (b,) for p in partitions
                      for b in range(max(p, default=-1) + 2)]
    out = []
    for labels in partitions:
        lab = np.asarray(labels, dtype=np.int64)
        least = np.asarray([labels.index(b) for b in labels], dtype=np.int64)
        if all((np.moveaxis(lab[vals], axis, 0)[least] ==
                np.moveaxis(lab[vals], axis, 0)).all()
               for vals in op_values for axis in range(vals.ndim)):
            out.append(tuple(least.tolist()))
    return sorted(out)


def subpower_op_values(sp) -> list[np.ndarray]:
    """Dense per-operation value arrays over subpower element ids,
    computed coordinatewise (no automata).  Each image is looked up among
    the elements by its radix code; one outside the subpower raises
    KeyError."""
    arr = np.asarray(sp.elements, dtype=np.int64)
    m, width = arr.shape

    def code(columns):
        out = np.zeros(len(columns[0]), dtype=np.int64)
        for col in columns:
            out = out * sp.base.size + col
        return out

    codes = code(arr.T)
    order = np.argsort(codes)
    out_tables = []
    for op in sp.base.ops:
        k = op.arity
        if k == 0:
            continue
        grids = np.indices((m,) * k).reshape(k, -1)
        out = code([columnwise(op.func, [arr[g, c] for g in grids], sp.base.size)
                    for c in range(width)])
        ids = order[np.minimum(np.searchsorted(codes, out, sorter=order), m - 1)]
        escaped = np.flatnonzero(codes[ids] != out)
        if len(escaped):
            raise KeyError(f"{op.symbol} at argument tuple {escaped[0]} "
                           "escapes the subpower")
        out_tables.append(ids.reshape((m,) * k))
    return out_tables


def algebra_op_values(alg) -> list[np.ndarray]:
    """Dense value arrays for a plain finite algebra."""
    tables = []
    for op in alg.ops:
        k = op.arity
        if k == 0:
            continue
        vals = np.empty((alg.size,) * k, dtype=np.int64)
        for args in product(range(alg.size), repeat=k):
            vals[args] = op.func(*args)
        tables.append(vals)
    return tables


def naive_translation_maps(alg) -> set[tuple[int, ...]]:
    """Every unary map from fixing all but one argument of an operation."""
    maps = set()
    xs = range(alg.size)
    for op in alg.ops:
        k = op.arity
        if k == 0:
            continue
        for pos in range(k):
            for consts in product(xs, repeat=k - 1):
                def apply(x, _c=consts, _p=pos, _f=op.func):
                    args = list(_c[:_p]) + [x] + list(_c[_p:])
                    return _f(*args)
                maps.add(tuple(apply(x) for x in xs))
    return maps


def subpower_translation_maps(sp, symbols=None) -> set[tuple[int, ...]]:
    """Translation maps of the induced algebra: for every operation and
    argument position, the row of its dense table (`subpower_op_values`)
    along that position at each constant tuple (no automata, no signature
    pruning)."""
    ops = [op for op in sp.base.ops if op.arity]
    maps = set()
    for op, values in zip(ops, subpower_op_values(sp)):
        if symbols is None or op.symbol in symbols:
            for pos in range(op.arity):
                maps.update(map(tuple, np.moveaxis(values, pos, -1)
                                .reshape(-1, sp.size).tolist()))
    return maps


def projection_kernels(sp) -> list[tuple[int, ...]]:
    """The kernels of the projections of the subpower onto each set S of
    coordinates, as sorted distinct least forms: x and y are related iff
    they agree on every coordinate in S."""
    forms = set()
    for mask in range(2 ** sp.width):
        keep = [c for c in range(sp.width) if mask >> c & 1]
        least = {}
        forms.add(tuple(least.setdefault(tuple(t[c] for c in keep), i)
                        for i, t in enumerate(sp.elements)))
    return sorted(forms)
