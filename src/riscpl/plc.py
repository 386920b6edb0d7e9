"""Finite simplicial complexes with exact piecewise linear functions.

Splitting is done by stellar edge subdivision at prescribed levels, after
which every preimage of an open set whose endpoints are split levels is
modeled by the full subcomplex on the vertices strictly inside.  Cohomology
of relative cochain complexes, inclusion-induced maps, and Mayer-Vietoris
connecting maps all work over GF(p) via field_linalg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import bisect

from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .exact_geometry import RealOpenSet
from .field_linalg import Mat, independent_split, kernel_basis, solve_in_span

Vid = object  # vertex ids: ints from input files, strings for split vertices
Simplex = FrozenSet


def vkey(v):
    """Deterministic sort key across mixed int/string vertex ids."""
    if isinstance(v, bool):
        raise TypeError("bad vertex id")
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


def skey(s: Simplex):
    return tuple(sorted((vkey(v) for v in s)))


def close_under_faces(simplices: Iterable[Simplex]) -> Set[Simplex]:
    out: Set[Simplex] = set()
    for s in simplices:
        vs = sorted(s, key=vkey)
        for r in range(1, len(vs) + 1):
            for face in combinations(vs, r):
                out.add(frozenset(face))
    return out


@dataclass
class PLComplex:
    """A finite simplicial complex with one or more exact PL functions,
    given by rational values on the vertices."""

    values: Dict[Vid, Tuple[Fraction, ...]]
    simplices: Set[Simplex]
    nfuncs: int = 1

    @staticmethod
    def from_maximal(values: Dict[Vid, Sequence], maximal: Iterable[Iterable[Vid]],
                     nfuncs: Optional[int] = None) -> "PLComplex":
        vals = {}
        for v, x in values.items():
            xs = tuple(Fraction(xi) for xi in (x if isinstance(x, (tuple, list)) else (x,)))
            vals[v] = xs
        if nfuncs is None:
            nfuncs = len(next(iter(vals.values()))) if vals else 1
        simplices = set()
        for s in maximal:
            s = list(s)
            if len(set(s)) != len(s):
                raise ValueError(f"simplex with repeated vertex: {s}")
            if not s:
                raise ValueError("empty simplex")
            simplices.add(frozenset(s))
        k = PLComplex(vals, close_under_faces(simplices), nfuncs)
        validate(k)
        return k

    def value(self, v: Vid, func: int = 0) -> Fraction:
        return self.values[v][func]

    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)


def validate(k: PLComplex) -> None:
    """Closure under faces, no dangling vertex ids, consistent value arity."""
    for v, xs in k.values.items():
        if len(xs) != k.nfuncs:
            raise ValueError(f"vertex {v} has {len(xs)} values, expected {k.nfuncs}")
    for s in k.simplices:
        if not s:
            raise ValueError("empty simplex")
        for v in s:
            if v not in k.values:
                raise ValueError(f"dangling vertex id {v}")
        if len(s) > 1:
            for v in s:
                if s - {v} not in k.simplices:
                    raise ValueError(f"complex not closed under faces at {sorted(map(str, s))}")


# ---------------------------------------------------------------------------
# level grids


@dataclass(frozen=True)
class LevelGrid:
    """Sorted distinct critical values interleaved with regular values
    (midpoints of consecutive critical values plus two outer guards)."""

    critical: Tuple[Fraction, ...]
    regular: Tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Iterable) -> "LevelGrid":
        crit = sorted({Fraction(v) for v in values})
        if not crit:
            return LevelGrid((), ())
        reg = [crit[0] - 1]
        for a, b in zip(crit, crit[1:]):
            reg.append((a + b) / 2)
        reg.append(crit[-1] + 1)
        return LevelGrid(tuple(crit), tuple(reg))

    @property
    def levels(self) -> Tuple[Fraction, ...]:
        out = []
        for i, r in enumerate(self.regular):
            out.append(r)
            if i < len(self.critical):
                out.append(self.critical[i])
        return tuple(out)


# ---------------------------------------------------------------------------
# stellar subdivision


def _fresh_vid(a: Vid, b: Vid, s: Fraction) -> str:
    lo, hi = sorted((a, b), key=vkey)
    return f"{lo}~{hi}@{s}"


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


def split_all(k: PLComplex, levels: Iterable, funcs: Optional[Sequence[int]] = None,
              cap: Optional[int] = None,
              trace: Optional[List[tuple]] = None) -> PLComplex:
    """Split at every level in increasing order (for every listed function),
    so that afterwards each simplex spans at most two adjacent levels.

    Equivalent to repeated split_at_level calls, but crossing edges are
    bucketed by level up front and cofaces found through a vertex-star
    index, so no full rescan per level is needed.  If a trace list is
    given, each created vertex is appended as (id, endpoint_a, endpoint_b,
    level) in creation order."""
    funcs = list(range(k.nfuncs)) if funcs is None else list(funcs)
    if isinstance(levels, LevelGrid):
        levels = levels.levels
    levels = sorted({Fraction(x) for x in levels})
    if not levels or not funcs or not k.simplices:
        return PLComplex(dict(k.values), set(k.simplices), k.nfuncs)

    values = dict(k.values)
    simplices = set(k.simplices)
    star: Dict[Vid, set] = {}
    for sim in simplices:
        for v in sim:
            star.setdefault(v, set()).add(sim)

    buckets: Dict[Tuple[int, int], set] = {}

    def bucket_edge(e: Simplex, pos: Optional[Tuple[int, int]]):
        a, b = e
        for fi, func in enumerate(funcs):
            lo, hi = sorted((values[a][func], values[b][func]))
            if lo == hi:
                continue
            i = bisect.bisect_right(levels, lo)
            while i < len(levels) and levels[i] < hi:
                if pos is None or (i, fi) > pos:
                    buckets.setdefault((i, fi), set()).add(e)
                i += 1

    for e in simplices:
        if len(e) == 2:
            bucket_edge(e, None)

    for li, s in enumerate(levels):
        for fi, func in enumerate(funcs):
            for edge in sorted(buckets.pop((li, fi), ()), key=skey):
                if edge not in simplices:
                    continue
                a, b = sorted(edge, key=vkey)
                fa, fb = values[a][func], values[b][func]
                t = (s - fa) / (fb - fa)
                x = _fresh_vid(a, b, s)
                if trace is not None:
                    trace.append((x, a, b, s))
                values[x] = tuple(
                    va + t * (vb - va) for va, vb in zip(values[a], values[b])
                )
                new_edges = []
                for sim in star[a] & star[b]:
                    for v in sim:
                        star[v].discard(sim)
                    simplices.discard(sim)
                    rest = sim - edge
                    pieces = (frozenset({a, x}) | rest,
                              frozenset({x, b}) | rest,
                              frozenset({x}) | rest)
                    for piece in pieces:
                        if piece in simplices:
                            continue
                        simplices.add(piece)
                        for v in piece:
                            star.setdefault(v, set()).add(piece)
                        if len(piece) == 2:
                            new_edges.append(piece)
                for e2 in new_edges:
                    bucket_edge(e2, (li, fi))
            if cap is not None and len(simplices) > cap:
                raise ValueError(
                    f"split complex exceeds the simplex cap ({len(simplices)} > {cap})"
                )
    return PLComplex(values, simplices, k.nfuncs)


def is_split_at(k: PLComplex, levels: Iterable, func: int = 0) -> bool:
    for s in levels:
        s = Fraction(s)
        for e in k.simplices:
            if len(e) == 2 and min(k.value(v, func) for v in e) < s < max(k.value(v, func) for v in e):
                return False
    return True


# ---------------------------------------------------------------------------
# open models


def open_model(k: PLComplex, u: RealOpenSet, func: int = 0) -> FrozenSet[Simplex]:
    """Full subcomplex spanned by the vertices with value strictly inside u.

    Correct as a homotopy model of the preimage whenever the complex has been
    split at all endpoint levels of u."""
    inside = {v for v in k.values if u.contains(k.value(v, func))}
    return frozenset(s for s in k.simplices if s <= inside)


# ---------------------------------------------------------------------------
# relative cochain cohomology


def _simplices_of_dim(simplices: Iterable[Simplex], n: int) -> List[Simplex]:
    return sorted((s for s in simplices if len(s) == n + 1), key=skey)


def _coboundary_matrix(rel: Set[Simplex], n: int, p: int) -> Tuple[Mat, List[Simplex], List[Simplex]]:
    """delta: C^n -> C^{n+1} of a relative cochain complex; the transpose of
    the boundary with the vertex-order signs (-1)^i."""
    rows = _simplices_of_dim(rel, n + 1)
    cols = _simplices_of_dim(rel, n)
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


@dataclass
class CohomBasis:
    """A basis of H^n(A, B; GF(p)) with cocycle representatives and the data
    needed to express arbitrary relative cocycles in this basis."""

    degree: int
    p: int
    cells: List[Simplex]          # the n-simplices of A minus B, in order
    reps: Mat                     # columns: representative cocycles
    coboundaries: Mat             # columns spanning the image of delta^{n-1}
    delta: Mat                    # delta^n, for cocycle checks

    @property
    def dim(self) -> int:
        return self.reps.cols

    def express(self, cochains: Mat) -> Mat:
        """Coordinates of the given cocycle columns in this basis (modulo
        coboundaries).  Raises if a column is not a cocycle class."""
        if not (self.delta @ cochains).is_zero():
            raise ValueError("not a cocycle")
        if self.dim == 0:
            return Mat.zeros(0, cochains.cols, self.p)
        c = solve_in_span(Mat.hstack([self.reps, self.coboundaries]), cochains)
        if c is None:
            raise ValueError("cocycle not expressible in basis")
        return Mat(c.data[: self.dim], self.p)


def relative_cohomology(a: Set[Simplex], b: Set[Simplex], n: int, p: int = 2) -> CohomBasis:
    """Basis of degree-n cohomology of the pair (A, B), with B a subcomplex
    of A; cochains live on the simplices of A not in B."""
    rel = set(a) - set(b)
    d_n, _, cells = _coboundary_matrix(rel, n, p)
    d_nm1, _, _ = _coboundary_matrix(rel, n - 1, p)
    cocycles = kernel_basis(d_n)
    own, chosen = independent_split(d_nm1, cocycles)
    d_nm1 = Mat(d_nm1.data[:, own], p)
    if chosen:
        reps = Mat.hstack([cocycles.column(j) for j in chosen])
    else:
        reps = Mat.zeros(len(cells), 0, p)
    return CohomBasis(n, p, cells, reps, d_nm1, d_n)


def restrict_cochains(cochains: Mat, src_cells: List[Simplex], dst_cells: List[Simplex], p: int) -> Mat:
    src_index = {s: i for i, s in enumerate(src_cells)}
    out = Mat.zeros(len(dst_cells), cochains.cols, p)
    for i, s in enumerate(dst_cells):
        j = src_index.get(s)
        if j is not None:
            out.data[i] = cochains.data[j]
    return out


def induced_map(src: CohomBasis, dst: CohomBasis) -> Mat:
    """Matrix of the map H^n(A,B) -> H^n(A',B') induced by an inclusion of
    pairs (A',B') into (A,B): restrict representatives, express in the target
    basis."""
    if src.degree != dst.degree or src.p != dst.p:
        raise ValueError("degree/field mismatch")
    return dst.express(restrict_cochains(src.reps, src.cells, dst.cells, src.p))


def _check_triad(aw, a1, a2, au):
    if a1 | a2 != aw or a1 & a2 != au:
        raise ValueError("triad union/intersection conditions violated")


def mv_connecting(pair_w, pair_1, pair_2, pair_u, n: int, p: int = 2,
                  src: Optional[CohomBasis] = None,
                  dst: Optional[CohomBasis] = None) -> Mat:
    """Connecting map H^n(A_u, B_u) -> H^{n+1}(A_w, B_w) of the relative
    Mayer-Vietoris sequence of an excisive triad (componentwise union at w,
    intersection at u).

    The construction is the cochain snake: lift a relative cocycle z on the
    intersection through the surjection (c1, c2) |-> c1|_u - c2|_u, apply
    delta, and glue the two coboundaries to the unique relative cochain on
    the union."""
    aw, bw = pair_w
    a1, b1 = pair_1
    a2, b2 = pair_2
    au, bu = pair_u
    _check_triad(aw, a1, a2, au)
    _check_triad(bw, b1, b2, bu)

    if src is None:
        src = relative_cohomology(au, bu, n, p)
    if dst is None:
        dst = relative_cohomology(aw, bw, n + 1, p)

    rel1 = set(a1) - set(b1)
    rel2 = set(a2) - set(b2)
    d1, rows1, cells1 = _coboundary_matrix(rel1, n, p)
    d2, rows2, cells2 = _coboundary_matrix(rel2, n, p)
    cells1_index = {s: i for i, s in enumerate(cells1)}
    cells2_index = {s: i for i, s in enumerate(cells2)}
    rows1_index = {s: i for i, s in enumerate(rows1)}
    rows2_index = {s: i for i, s in enumerate(rows2)}
    dst_index = {s: i for i, s in enumerate(dst.cells)}

    gamma = Mat.zeros(len(dst.cells), src.dim, p)
    for col in range(src.dim):
        c1 = Mat.zeros(len(cells1), 1, p)
        c2 = Mat.zeros(len(cells2), 1, p)
        for i, s in enumerate(src.cells):
            zval = int(src.reps.data[i, col])
            if zval == 0:
                continue
            if s in cells1_index:
                c1.data[cells1_index[s], 0] = zval
            elif s in cells2_index:
                c2.data[cells2_index[s], 0] = (-zval) % p
            else:
                raise AssertionError("intersection cell missing from both sides")
        dc1 = d1 @ c1
        dc2 = d2 @ c2
        for s, i in dst_index.items():
            if s in rows1_index:
                gamma.data[i, col] = dc1.data[rows1_index[s], 0]
            elif s in rows2_index:
                gamma.data[i, col] = dc2.data[rows2_index[s], 0]
        # consistency on the overlap
        for s in rows1_index:
            if s in rows2_index:
                assert dc1.data[rows1_index[s], 0] == dc2.data[rows2_index[s], 0], \
                    "snake glueing inconsistency"
    return dst.express(gamma)
