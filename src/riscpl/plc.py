"""Finite simplicial complexes with exact piecewise linear functions.

Splitting is done by stellar edge subdivision at prescribed levels, after
which every preimage of an open set whose endpoints are split levels is
modeled by the full subcomplex on the vertices strictly inside.

Each split complex carries one SimplexIndex, built on first use: integer
simplex ids in (dimension, skey) order, per dimension the vertex positions
and face ids of every simplex, and per function every vertex's rank among
the distinct values.  Every subcomplex is a Subcomplex, the sorted ids of
its simplices in that index: an open model is read off a vertex mask of
value ranks, and a relative cochain complex selects rows and columns of
the face arrays.  Cohomology of relative cochain complexes, induced maps,
and Mayer-Vietoris connecting maps all work over GF(p) via field_linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
import bisect

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .exact_geometry import INF, NEG_INF, RealOpenSet
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

    @cached_property
    def index(self) -> "SimplexIndex":
        """The simplex index of this complex, built once on first use."""
        return SimplexIndex(self.simplices, self.values)


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


def check_funcs(k: PLComplex, *funcs: int) -> None:
    """Every function index must name one of the vertex value sets."""
    for func in funcs:
        if not 0 <= func < k.nfuncs:
            raise ValueError(f"function index {func} is outside 0..{k.nfuncs - 1}")


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


def split_all(k: PLComplex, levels: Iterable, funcs: Optional[Sequence[int]] = None,
              cap: Optional[int] = None,
              trace: Optional[List[tuple]] = None) -> PLComplex:
    """Split at every level in increasing order (for every listed function),
    so that afterwards each simplex spans at most two adjacent levels.

    Equivalent to repeated split_at_level calls, but crossing edges are
    bucketed by level up front and cofaces found through a vertex-star
    index, so no full rescan per level is needed.  If a trace list is
    given, each created vertex is appended as (id, endpoint_a, endpoint_b,
    level) in creation order.  Raises ValueError when a created vertex's
    id is already taken: by a user id of the form lo~hi@level, or by the
    split of another edge whose end ids print alike, such as 1 and "1"."""
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
                if x in values:
                    raise ValueError(f"split vertex id {x!r} is already a vertex id")
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


# ---------------------------------------------------------------------------
# the simplex index


def locate(ids: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Position of every cell id within the sorted ids, -1 where absent."""
    if not len(ids):
        return np.full(np.shape(cells), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(ids, cells), len(ids) - 1)
    return np.where(ids[at] == cells, at, -1)


def take_rows(cells: np.ndarray, x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The rows of x, one per sorted cell id, at the given ids: a zero row
    where an id is not among the cells."""
    at = locate(cells, ids)
    out = np.zeros((len(ids), x.shape[1]), dtype=np.int64)
    out[at >= 0] = x[at[at >= 0]]
    return out


class Subcomplex:
    """A subcomplex of one split complex: the sorted ids of its simplices in
    that complex's SimplexIndex.  It hashes and compares by its id bytes and
    offers len, <=, & and | as a set of its simplices would; subcomplexes of
    different indexes are never compared."""

    __slots__ = ("_bytes",)

    def __init__(self, ids: np.ndarray):
        self._bytes = np.asarray(ids, dtype=np.intp).tobytes()

    @property
    def ids(self) -> np.ndarray:
        return np.frombuffer(self._bytes, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._bytes) // np.dtype(np.intp).itemsize

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subcomplex) and self._bytes == other._bytes

    def __le__(self, other: "Subcomplex") -> bool:
        return bool((locate(other.ids, self.ids) >= 0).all())

    def __and__(self, other: "Subcomplex") -> "Subcomplex":
        return Subcomplex(self.ids[locate(other.ids, self.ids) >= 0])

    def __or__(self, other: "Subcomplex") -> "Subcomplex":
        return Subcomplex(np.sort(np.concatenate([self.ids, other.minus(self)]), kind="stable"))

    def minus(self, other: "Subcomplex") -> np.ndarray:
        """The sorted ids of the cells of the relative pair (self, other)."""
        return self.ids[locate(other.ids, self.ids) < 0]


class SimplexIndex:
    """Integer ids for the simplices of one complex, in (dimension, skey)
    order, so that the order restricted to any set of cells is the order in
    which their cochains are listed.

    verts[d] holds, for every d-simplex in id order, the positions of its
    vertices in vkey order, ascending; faces[d] (d >= 1) holds the ids of
    its faces, face i dropping vertex i with sign (-1)^i.  levels[f] lists
    the distinct values of function f in increasing order and ranks[f]
    holds every vertex's rank among them.  cells and id map ids to simplex
    objects and back."""

    def __init__(self, simplices: Iterable[Simplex],
                 values: Dict[Vid, Tuple[Fraction, ...]]):
        order = sorted({v for s in simplices for v in s}, key=vkey)
        pos = {v: i for i, v in enumerate(order)}
        keyed = sorted(((len(s) - 1, tuple(sorted(pos[v] for v in s)), s) for s in simplices),
                       key=lambda t: t[:2])
        self.cells = np.fromiter((s for _, _, s in keyed), dtype=object, count=len(keyed))
        self.id: Dict[Simplex, int] = {s: i for i, (_, _, s) in enumerate(keyed)}
        top = keyed[-1][0] if keyed else -1
        self.start = np.searchsorted([d for d, _, _ in keyed], np.arange(top + 2))
        self.verts: List[np.ndarray] = []
        self.faces: List[Optional[np.ndarray]] = []
        for d in range(top + 1):
            block = keyed[self.start[d]:self.start[d + 1]]
            self.verts.append(np.array([t for _, t, _ in block], dtype=np.intp).reshape(-1, d + 1))
            self.faces.append(None if d == 0 else np.array(
                [[self.id[s - {order[q]}] for q in t] for _, t, s in block],
                dtype=np.intp).reshape(-1, d + 1))
        self.levels: List[List[Fraction]] = []
        self.ranks: List[np.ndarray] = []
        for f in range(len(values[order[0]]) if order else 0):
            col = [values[v][f] for v in order]
            levels = sorted(set(col))
            rank = {x: i for i, x in enumerate(levels)}
            self.levels.append(levels)
            self.ranks.append(np.array([rank[x] for x in col], dtype=np.intp))

    def subcomplex(self, simplices: Iterable[Simplex]) -> Subcomplex:
        """The subcomplex of the given simplex objects of this complex."""
        return Subcomplex(np.unique(np.fromiter(map(self.id.__getitem__, simplices),
                                                dtype=np.intp)))

    def of_dim(self, ids: np.ndarray, n: int) -> np.ndarray:
        """The ids of dimension n among sorted ids."""
        if not 0 <= n < len(self.verts):
            return ids[:0]
        lo, hi = np.searchsorted(ids, self.start[n:n + 2])
        return ids[lo:hi]

    def coboundary(self, rel: np.ndarray, n: int, p: int) -> Mat:
        """delta: C^n -> C^{n+1} of the relative cochain complex on the
        sorted ids rel: the rows are its (n+1)-cells, the columns its
        n-cells, and a column that is face i of a row carries (-1)^i."""
        rows, cols = self.of_dim(rel, n + 1), self.of_dim(rel, n)
        out = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if len(rows) and len(cols):
            at = locate(cols, self.faces[n + 1][rows - self.start[n + 1]])
            hit = at >= 0
            sign = np.where(np.arange(n + 2) % 2, p - 1, 1)
            out[np.nonzero(hit)[0], at[hit]] = np.broadcast_to(sign, at.shape)[hit]
        return Mat(out, p)


# ---------------------------------------------------------------------------
# open models


def open_model(k: PLComplex, u: RealOpenSet, func: int = 0) -> Subcomplex:
    """Full subcomplex spanned by the vertices with value strictly inside u.

    Each interval of u is bisected on the distinct values of the function,
    which turns it into a range of value ranks; a vertex is inside when its
    rank falls in one of the ranges, and a simplex when all its vertices
    are; their ids are read straight off the mask.  Correct as a homotopy
    model of the preimage whenever the complex has been split at all
    endpoint levels of u."""
    ix = k.index
    if not ix.verts:
        return ix.subcomplex(())
    levels = ix.levels[func]
    keep = np.zeros(len(levels), dtype=bool)
    for lo, hi in u.intervals:
        keep[0 if lo is NEG_INF else bisect.bisect_right(levels, lo):
             len(levels) if hi is INF else bisect.bisect_left(levels, hi)] = True
    inside = keep[ix.ranks[func]]
    return Subcomplex(np.flatnonzero(np.concatenate([inside[v].all(axis=1) for v in ix.verts])))


# ---------------------------------------------------------------------------
# relative cochain cohomology


@dataclass
class CohomBasis:
    """A basis of H^n(A, B; GF(p)) with cocycle representatives and the data
    needed to express arbitrary relative cocycles in this basis."""

    degree: int
    p: int
    ids: np.ndarray               # sorted ids of the n-simplices of A minus B
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


def relative_cohomology(a: Subcomplex, b: Subcomplex, n: int, p: int,
                        index: SimplexIndex) -> CohomBasis:
    """Basis of degree-n cohomology of the pair (A, B) of subcomplexes of
    the complex with the given index, B inside A; cochains live on the ids
    of A not in B, and both coboundaries select their rows and columns of
    the index's face arrays, so nothing is sorted per call."""
    rel = a.minus(b)
    d_n = index.coboundary(rel, n, p)
    d_nm1 = index.coboundary(rel, n - 1, p)
    ids = index.of_dim(rel, n)
    cocycles = kernel_basis(d_n)
    own, chosen = independent_split(d_nm1, cocycles)
    d_nm1 = Mat(d_nm1.data[:, own], p)
    reps = Mat.hstack([Mat.zeros(len(ids), 0, p)] + [cocycles.column(j) for j in chosen])
    return CohomBasis(n, p, ids, reps, d_nm1, d_n)


def induced_map(src: CohomBasis, dst: CohomBasis) -> Mat:
    """Matrix of the map H^n(A,B) -> H^n(A',B') induced by an inclusion of
    pairs (A',B') into (A,B): restrict representatives to the target cells,
    express in the target basis."""
    if src.degree != dst.degree or src.p != dst.p:
        raise ValueError("degree/field mismatch")
    return dst.express(Mat(take_rows(src.ids, src.reps.data, dst.ids), src.p))


def _check_triad(aw, a1, a2, au):
    if a1 | a2 != aw or a1 & a2 != au:
        raise ValueError("triad union/intersection conditions violated")


def mv_connecting(pair_w, pair_1, pair_2, pair_u, n: int, p: int,
                  index: SimplexIndex,
                  src: Optional[CohomBasis] = None,
                  dst: Optional[CohomBasis] = None) -> Mat:
    """Connecting map H^n(A_u, B_u) -> H^{n+1}(A_w, B_w) of the relative
    Mayer-Vietoris sequence of an excisive triad (componentwise union at w,
    intersection at u) of subcomplexes of the complex with the given index.

    The construction is the cochain snake: lift a relative cocycle z on the
    intersection through the surjection (c1, c2) |-> c1|_u - c2|_u, apply
    delta, and glue the two coboundaries to the unique relative cochain on
    the union.  All columns go at once, as row selections by id."""
    aw, bw = pair_w
    a1, b1 = pair_1
    a2, b2 = pair_2
    au, bu = pair_u
    _check_triad(aw, a1, a2, au)
    _check_triad(bw, b1, b2, bu)

    if src is None:
        src = relative_cohomology(au, bu, n, p, index)
    if dst is None:
        dst = relative_cohomology(aw, bw, n + 1, p, index)

    rel1, rel2 = a1.minus(b1), a2.minus(b2)
    cells1, cells2 = index.of_dim(rel1, n), index.of_dim(rel2, n)
    rows1, rows2 = index.of_dim(rel1, n + 1), index.of_dim(rel2, n + 1)
    z = src.reps.data.astype(np.int64)
    on1 = (locate(cells1, src.ids) >= 0)[:, None]
    if z[~on1[:, 0] & (locate(cells2, src.ids) < 0)].any():
        raise AssertionError("intersection cell missing from both sides")
    c1 = take_rows(src.ids, z, cells1)
    c2 = take_rows(src.ids, np.where(on1, 0, -z), cells2)
    dc1 = (index.coboundary(rel1, n, p) @ Mat(c1, p)).data
    dc2 = (index.coboundary(rel2, n, p) @ Mat(c2, p)).data
    shared = rows2[locate(rows1, rows2) >= 0]
    assert np.array_equal(take_rows(rows1, dc1, shared), take_rows(rows2, dc2, shared)), \
        "snake glueing inconsistency"
    in1 = (locate(rows1, dst.ids) >= 0)[:, None]
    gamma = np.where(in1, take_rows(rows1, dc1, dst.ids), take_rows(rows2, dc2, dst.ids))
    return dst.express(Mat(gamma, p))
