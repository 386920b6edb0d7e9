"""Test-only reference implementations.

Straightforward versions of what the package computes another way, kept
to check the package against them: one-level splitting and its check, the
vertex-by-vertex open model, the sorted coboundary of a relative cochain
complex, the refined sample grid of one function, the shifted module, and
the loop-based kernel basis.
"""

from fractions import Fraction
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from riscpl.exact_geometry import Coord, CoordTable, RealOpenSet, ShiftVector
from riscpl.field_linalg import Mat, _rref
from riscpl.plc import LevelGrid, PLComplex, Simplex, _fresh_vid, skey, split_all, vkey
from riscpl.risc_builder import (
    DEFAULT_CAP,
    FunctorEvaluator,
    RiscResult,
    assemble_module,
    build_lines,
    joint_levels,
)
from riscpl.strip_module import GridModule, refine_lines


def split_at_level(k: PLComplex, s, func: int = 0) -> PLComplex:
    """Stellar subdivision of every edge strictly crossing the level s of the
    chosen function; crossing edges are processed in lexicographic order of
    their endpoint ids, and each new vertex gets a deterministic id and
    linearly interpolated values for all functions."""
    s = Fraction(s)
    values = dict(k.values)
    simplices = set(k.simplices)
    while True:
        crossing = [
            e for e in simplices
            if len(e) == 2
            and min(values[v][func] for v in e) < s < max(values[v][func] for v in e)
        ]
        if not crossing:
            break
        edge = min(crossing, key=skey)
        a, b = sorted(edge, key=vkey)
        fa, fb = values[a][func], values[b][func]
        t = (s - fa) / (fb - fa)
        x = _fresh_vid(a, b, s)
        values[x] = tuple(
            va + t * (vb - va) for va, vb in zip(values[a], values[b])
        )
        new_simplices = set()
        for sim in simplices:
            if edge <= sim:
                rest = sim - edge
                new_simplices.add(frozenset({a, x}) | rest)
                new_simplices.add(frozenset({x, b}) | rest)
                new_simplices.add(frozenset({x}) | rest)
            else:
                new_simplices.add(sim)
        simplices = new_simplices
    return PLComplex(values, simplices, k.nfuncs)


def is_split_at(k: PLComplex, levels: Iterable, func: int = 0) -> bool:
    for s in levels:
        s = Fraction(s)
        for e in k.simplices:
            if len(e) == 2 and min(k.value(v, func) for v in e) < s < max(k.value(v, func) for v in e):
                return False
    return True


def open_model(k: PLComplex, u: RealOpenSet, func: int = 0) -> frozenset:
    """Full subcomplex on the vertices whose value u contains, tested one
    vertex at a time."""
    inside = {v for v in k.values if u.contains(k.value(v, func))}
    return frozenset(s for s in k.simplices if s <= inside)


def simplices_of_dim(simplices: Iterable[Simplex], n: int) -> List[Simplex]:
    return sorted((s for s in simplices if len(s) == n + 1), key=skey)


def coboundary_matrix(rel: Set[Simplex], n: int, p: int) -> Tuple[Mat, List[Simplex], List[Simplex]]:
    """delta: C^n -> C^{n+1} of a relative cochain complex, with its rows
    and columns; the transpose of the boundary with the vertex-order signs
    (-1)^i."""
    rows = simplices_of_dim(rel, n + 1)
    cols = simplices_of_dim(rel, n)
    col_index = {s: j for j, s in enumerate(cols)}
    m = Mat.zeros(len(rows), len(cols), p)
    for i, s in enumerate(rows):
        verts = sorted(s, key=vkey)
        for pos, v in enumerate(verts):
            face = frozenset(verts[:pos] + verts[pos + 1 :])
            j = col_index.get(face)
            if j is not None:
                m.data[i, j] = (-1) ** pos % p
    return m, rows, cols


def build_grid(k: PLComplex, func: int = 0) -> Tuple[Coord, ...]:
    """The refined sample coordinates for a complex, shared by both axes
    (empty complex gives an empty grid)."""
    if not k.values:
        return ()
    grid = LevelGrid.from_values(x[func] for x in k.values.values())
    return refine_lines(build_lines(grid.critical))


def shifted_module(r: RiscResult, a: ShiftVector,
                   samples: Optional[Tuple[Coord, ...]] = None,
                   cap: int = DEFAULT_CAP) -> GridModule:
    """Pullback of an evaluated module along the shift action.  The split
    complex is refined further so the shifted evaluation points are
    covered."""
    a = ShiftVector(a.a1, a.a2) if isinstance(a, ShiftVector) else ShiftVector(*a)
    xs = r.module.xs if samples is None else samples
    split = split_all(r.split, joint_levels(xs, (a.a1, a.a2)),
                      funcs=[r.func], cap=cap)
    ev = FunctorEvaluator(split, CoordTable(xs), r.func, r.module.p)
    return assemble_module(ev, transform=ev.table.shift(a))


def kernel_basis(m: Mat) -> Mat:
    """Columns spanning the kernel, one free column at a time."""
    r, pivots = _rref(m.data, m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for idx, c in enumerate(free):
        basis[c, idx] = 1
        for row, pc in enumerate(pivots):
            basis[pc, idx] = (-int(r[row, c])) % m.p
    return Mat(basis, m.p)
