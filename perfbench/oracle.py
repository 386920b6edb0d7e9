"""Classical extended persistence over GF(p), the benchmark's answer key.

This is the linear sequence of Cohen-Steiner, Edelsbrunner and Harer (2009)

    H_n(K^{<=v_1}) -> ... -> H_n(K) -> H_n(K, K^{>=v_m}) -> ... -> H_n(K, K^{>=v_1})

computed with simplicial chains and read off composite ranks:
mult[b, d] = r(b, d) - r(b-1, d) - r(b, d+1) + r(b-1, d+1).  The rank of a
composite H_n(A, C) -> H_n(A', C') is dim(Z + B') - dim(B'), with Z the
relative cycles of the first pair pushed into the chains of the second and
B' the boundaries of the second.

It imports nothing from the package under test: the elimination below is
plain Python over GF(p), so a fault in the package's linear algebra cannot
hide in the answer key.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple


def _reduce(rows: List[List[int]], ncols: int, p: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form of a list of rows over GF(p)."""
    rows = [[x % p for x in r] for r in rows]
    pivots: List[int] = []
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = pow(rows[top][col], p - 2, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def rank(vectors: Sequence[Sequence[int]], length: int, p: int) -> int:
    """Dimension of the span of the given vectors of the given length."""
    if not vectors or not length:
        return 0
    return len(_reduce([list(v) for v in vectors], length, p)[1])


def kernel(matrix: List[List[int]], ncols: int, p: int) -> List[List[int]]:
    """A basis of the null space of a matrix given by rows."""
    reduced, pivots = _reduce(matrix, ncols, p) if matrix else ([], [])
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        out.append(v)
    return out


def _order(s) -> Tuple:
    return tuple(sorted(s))


def close_complex(maximal: Iterable[Iterable[Hashable]]) -> set:
    out = set()
    for s in maximal:
        vs = sorted(set(s))
        for r in range(1, len(vs) + 1):
            out.update(frozenset(f) for f in combinations(vs, r))
    return out


def _chains(cells: set, n: int) -> List[frozenset]:
    return sorted((s for s in cells if len(s) == n + 1), key=_order)


def _boundary_rows(cells: set, n: int, p: int) -> Tuple[List[List[int]], List[frozenset]]:
    """The relative boundary C_n -> C_{n-1} of a set of cells, one row per
    (n-1)-cell, and the n-cells indexing its columns."""
    cols = _chains(cells, n)
    faces = {s: i for i, s in enumerate(_chains(cells, n - 1))}
    rows = [[0] * len(cols) for _ in faces]
    for j, s in enumerate(cols):
        verts = _order(s)
        for i in range(len(verts)):
            face = frozenset(verts[:i] + verts[i + 1:])
            if face in faces:
                rows[faces[face]][j] = (-1) ** i % p
    return rows, cols


def extended_persistence(maximal, values: Dict[Hashable, Fraction], p: int = 2) -> List[tuple]:
    """Sorted list of (degree, region, (birth, death)) triples, one per unit
    of multiplicity, for the PL function with the given vertex values."""
    complex_all = close_complex(maximal)
    values = {v: Fraction(x) for v, x in values.items()}
    levels = sorted({values[v] for s in complex_all for v in s})
    m = len(levels)
    top = max((len(s) - 1 for s in complex_all), default=-1)
    sub = [{s for s in complex_all if max(values[v] for v in s) <= t} for t in levels]
    sup = [{s for s in complex_all if min(values[v] for v in s) >= t} for t in levels]
    stages = [(sub[i], set()) for i in range(m)]
    stages += [(complex_all, sup[j]) for j in range(m - 1, -1, -1)]
    nstage = len(stages)
    out = []
    for n in range(top + 1):
        cycles, bounds, cells = [], [], []
        for a, c in stages:
            rel = a - c
            d_n, cols = _boundary_rows(rel, n, p)
            d_up, up_cols = _boundary_rows(rel, n + 1, p)
            cycles.append((kernel(d_n, len(cols), p), cols))
            # boundaries as vectors over the n-cells: the columns of d_up
            bounds.append([[row[j] for row in d_up] for j in range(len(up_cols))])
            cells.append(cols)
        base = [rank(b, len(cells[j]), p) for j, b in enumerate(bounds)]

        def r(i: int, j: int) -> int:
            if i < 0 or j >= nstage or i > j:
                return 0
            zs, src_cells = cycles[i]
            index = {s: k for k, s in enumerate(cells[j])}
            pushed = []
            for z in zs:
                v = [0] * len(cells[j])
                for x, s in zip(z, src_cells):
                    if x and s in index:
                        v[index[s]] = x
                pushed.append(v)
            return rank(pushed + bounds[j], len(cells[j]), p) - base[j]

        ranks = {(i, j): r(i, j) for i in range(-1, nstage) for j in range(i, nstage + 1)}

        def rr(i: int, j: int) -> int:
            return ranks.get((i, j), 0)

        for b in range(nstage):
            for d in range(b, nstage):
                mult = rr(b, d) - rr(b - 1, d) - rr(b, d + 1) + rr(b - 1, d + 1)
                if mult <= 0:
                    continue
                if d < m - 1:
                    region, pair = "Ord", (levels[b], levels[d + 1])
                elif b <= m - 1:
                    region, pair = "Ext", (levels[b], levels[2 * m - d - 2])
                else:
                    region, pair = "Rel", (levels[2 * m - b - 1], levels[2 * m - d - 2])
                out.extend([(n, region, pair)] * mult)
    return sorted(out, key=repr)
