"""Finite simplicial complexes with exact piecewise linear functions.

Splitting is done by stellar edge subdivision at prescribed levels, after
which every preimage of an open set whose endpoints are split levels is
modeled by the full subcomplex on the vertices strictly inside.

Each split complex carries one SimplexIndex, built on first use: integer
simplex ids in (dimension, skey) order, per dimension the vertex positions
and face ids of every simplex, and per function every vertex's rank among
the distinct values.  Every subcomplex is a Subcomplex, the sorted ids of
its simplices in that index: an open model is read off a vertex mask of
ranges of value ranks, and a relative cochain complex selects rows and
columns of the face arrays.

Cohomology of relative cochain complexes, induced maps, and Mayer-Vietoris
connecting maps work over GF(p) on sparse coboundaries, by the package's
one column reduction, field_linalg.Reduction: columns are added left to
right and reduced against the pivot columns before them, keyed by their
lowest row, with the coordinates tracked.  It keeps the canonical bases of
reduced row echelon form: the cocycle found for a dependent column of
delta^n is 1 there and 0 at every other dependent column, which determines
it, and a cocycle joins the representatives exactly when it is independent
of the coboundaries and of the cocycles before it, which does not depend
on how that is found out.  So every basis, and every structure map in a
module dump, is the one row reduction gives.  delta^0 is never reduced:
H^0(A, B) is read off one union-find labelling of A, kept per A, and in
positive degrees a Kruskal pass over the rows of delta^0 gives its lows,
a spanning forest whose paths express degree-1 cocycles.

The evaluators ask each relative cell set for every degree in turn, so
the first call of a positive degree builds them all in one loop: each
reduction of delta^n clears the next one and, coordinates dropped,
expresses the cocycles of degree n + 1.  The simplex index keeps the
bases, per prime and cell set.
"""

from __future__ import annotations

from dataclasses import dataclass
import bisect

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .field_linalg import Mat, Reduction, vanishing

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


@dataclass
class PLComplex:
    """A finite simplicial complex with one or more exact PL functions,
    given by rational values on the vertices."""

    values: Dict[Vid, Tuple[Fraction, ...]]
    simplices: Set[Simplex]
    nfuncs: int = 1

    @staticmethod
    def from_maximal(values: Dict[Vid, Sequence], maximal: Iterable[Iterable[Vid]],
                     cap: Optional[int] = None) -> "PLComplex":
        """The complex of the maximal simplices and all their faces.  Every
        vertex carries as many values as the first one; each maximal simplex,
        checked in input order before its faces are added, is nonempty with
        distinct, listed vertices.  Raises ValueError at the first fault, or
        at the first face past the cap: the split complex is at least as
        large."""
        vals = {v: tuple(Fraction(xi) for xi in (x if isinstance(x, (tuple, list)) else (x,)))
                for v, x in values.items()}
        nfuncs = len(next(iter(vals.values()))) if vals else 1
        for v, xs in vals.items():
            if len(xs) != nfuncs:
                raise ValueError(f"vertex {v} has {len(xs)} values, expected {nfuncs}")
        simplices: Set[Simplex] = set()
        for s in maximal:
            s = list(s)
            if not s:
                raise ValueError("empty simplex")
            if len(set(s)) != len(s):
                raise ValueError(f"simplex with repeated vertex: {s}")
            for v in s:
                if v not in vals:
                    raise ValueError(f"dangling vertex id {v}")
            vs = sorted(s, key=vkey)
            for r in range(1, len(vs) + 1):
                for face in combinations(vs, r):
                    simplices.add(frozenset(face))
                    if cap is not None and len(simplices) > cap:
                        raise ValueError(
                            f"complex exceeds the simplex cap ({len(simplices)} > {cap}) while"
                            " closing under faces; the split complex is at least as large")
        return PLComplex(vals, simplices, nfuncs)

    def value(self, v: Vid, func: int = 0) -> Fraction:
        return self.values[v][func]

    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    @cached_property
    def index(self) -> "SimplexIndex":
        """The simplex index of this complex, built once on first use."""
        return SimplexIndex(self.simplices, self.values)


def check_funcs(k: PLComplex, *funcs: int) -> None:
    """Every function index must name one of the vertex value sets."""
    for func in funcs:
        if not 0 <= func < k.nfuncs:
            raise ValueError(f"function index {func} is outside 0..{k.nfuncs - 1}")


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

    Equivalent to repeated split_at_level calls, but each edge is bucketed
    once, at its next crossing in (level, function) order, the one it is
    split at, as no other split removes it; cofaces are found through a
    vertex-star index, so no full rescan per level is needed.  Each
    vertex's value is located among the levels once per function by two
    bisections, and an edge is bucketed by comparing those integer
    positions.  A created vertex lies on the level being split and, for
    every other function, is bisected between the positions of the ends of
    its edge.  Every new edge ends at a created vertex, so it crosses no
    level that the loop has passed.  If a trace
    list is given, each created vertex is appended as (id, endpoint_a,
    endpoint_b, level) in creation order.  Raises ValueError when a created
    vertex's id is already taken: by a user id of the form lo~hi@level, or
    by the split of another edge whose end ids print alike, such as 1 and
    "1"."""
    funcs = list(range(k.nfuncs)) if funcs is None else list(funcs)
    levels = sorted({Fraction(x) for x in levels})
    if not levels or not funcs or not k.simplices:
        return PLComplex(dict(k.values), set(k.simplices), k.nfuncs)

    values = dict(k.values)
    simplices = set(k.simplices)
    star: Dict[Vid, set] = {}
    for sim in simplices:
        for v in sim:
            star.setdefault(v, set()).add(sim)

    def level_pos(val: Fraction, pa=(0, 0), pb=(len(levels), len(levels))) -> Tuple[int, int]:
        # the positions of a value that lies between two values at pa and pb
        return (bisect.bisect_left(levels, val, min(pa[0], pb[0]), max(pa[0], pb[0])),
                bisect.bisect_right(levels, val, min(pa[1], pb[1]), max(pa[1], pb[1])))

    # per vertex and listed function, the levels below its value are
    # levels[:lo] and those at or below it levels[:hi]
    pos = {v: [level_pos(xs[func]) for func in funcs] for v, xs in values.items()}
    buckets: Dict[Tuple[int, int], set] = {}

    def bucket_edge(e: Simplex):
        # the levels strictly between the two values run from hi of the
        # lower end up to lo of the higher one, none when the values are
        # equal; the first of them, over the functions in order
        a, b = e
        first = None
        for fi, ((lo_a, hi_a), (lo_b, hi_b)) in enumerate(zip(pos[a], pos[b])):
            i = min(hi_a, hi_b)
            if i < max(lo_a, lo_b) and (first is None or i < first[0]):
                first = (i, fi)
        if first is not None:
            buckets.setdefault(first, set()).add(e)

    for e in simplices:
        if len(e) == 2:
            bucket_edge(e)

    for li, s in enumerate(levels):
        for fi, func in enumerate(funcs):
            for edge in sorted(buckets.pop((li, fi), ()), key=skey):
                a, b = sorted(edge, key=vkey)
                fa, fb = values[a][func], values[b][func]
                t = (s - fa) / (fb - fa)
                x = _fresh_vid(a, b, s)
                if x in values:
                    raise ValueError(f"split vertex id {x!r} is already a vertex id")
                if trace is not None:
                    trace.append((x, a, b, s))
                values[x] = tuple(s if g == func else va + t * (vb - va)
                                  for g, (va, vb) in enumerate(zip(values[a], values[b])))
                # x lies on level li of the function split here
                pos[x] = [(li, li + 1) if gi == fi else level_pos(values[x][g], pa, pb)
                          for gi, (g, pa, pb) in enumerate(zip(funcs, pos[a], pos[b]))]
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
                        simplices.add(piece)
                        for v in piece:
                            star.setdefault(v, set()).add(piece)
                        if len(piece) == 2:
                            new_edges.append(piece)
                for e2 in new_edges:
                    bucket_edge(e2)
            if cap is not None and len(simplices) > cap:
                raise ValueError(
                    f"split complex exceeds the simplex cap ({len(simplices)} > {cap}) at"
                    f" level {li + 1} of {len(levels)}; the full split is at least as large")
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
    objects and back.  cohomology keeps the bases of every positive degree
    per prime and relative cell set, components a labelling per ambient A."""

    def __init__(self, simplices: Iterable[Simplex],
                 values: Dict[Vid, Tuple[Fraction, ...]]):
        # (prime, relative id bytes) -> the bases of degrees 1 up to the top
        self.cohomology: Dict[Tuple[int, bytes], List[CohomBasis]] = {}
        self.components: Dict[Subcomplex, np.ndarray] = {}
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

    def coboundary(self, rel: np.ndarray, n: int, p: int) -> "Coboundary":
        """delta: C^n -> C^{n+1} of the relative cochain complex on the
        sorted ids rel, read off the face arrays: its rows are the
        (n+1)-cells, its columns the n-cells."""
        rows, cols = self.of_dim(rel, n + 1), self.of_dim(rel, n)
        faces = np.full((len(rows), n + 2), -1, dtype=np.intp)
        if len(rows) and len(cols):
            faces = locate(cols, self.faces[n + 1][rows - self.start[n + 1]])
        return Coboundary(faces, len(cols), p)


class Coboundary:
    """A relative coboundary matrix over GF(p), kept sparse: row r lists in
    faces[r] the column of each face of its (n+1)-cell, -1 where that face
    is not a cell, and face i carries the sign (-1)^i."""

    __slots__ = ("faces", "cols", "p")

    def __init__(self, faces: np.ndarray, cols: int, p: int):
        self.faces = faces
        self.cols = cols
        self.p = p

    def __matmul__(self, x: Mat) -> Mat:
        if self.p != x.p or self.cols != x.rows:
            raise ValueError("matrix product shape/field mismatch")
        # a missing face reads the zero row appended at position -1
        padded = np.vstack([x.data.astype(np.int64), np.zeros((1, x.cols), dtype=np.int64)])
        sign = np.where(np.arange(self.faces.shape[1]) % 2, -1, 1)
        return Mat((padded[self.faces] * sign[:, None]).sum(axis=1), self.p)

    def columns(self, skip: Collection[int] = ()) -> Dict[int, Dict[int, int]]:
        """The columns not in skip, keyed by position in order, each a dict
        from row to nonzero entry; no dict is built for a skipped column."""
        rows, pos = np.nonzero(self.faces >= 0)
        cols = self.faces[rows, pos]
        vals = np.where(pos % 2, self.p - 1, 1)
        if skip:
            keep = np.ones(self.cols, dtype=bool)
            keep[list(skip)] = False
            kept = keep[cols]
            rows, cols, vals = rows[kept], cols[kept], vals[kept]
        out: Dict[int, Dict[int, int]] = {j: {} for j in range(self.cols) if j not in skip}
        for r, j, x in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            out[j][r] = x
        return out


# ---------------------------------------------------------------------------
# open models


def open_model(k: PLComplex, ranges: Iterable[Tuple[int, int]],
               func: int = 0) -> Subcomplex:
    """Full subcomplex spanned by the vertices whose value lies in an open
    set, given as ranges [lo, hi) of value ranks: a vertex is inside when
    its rank among the distinct values of the function falls in one of the
    ranges, and a simplex when all its vertices are; their ids are read
    straight off the mask.  An open set of levels determines these ranges
    once the complex has been split at all its endpoint levels, and the
    model is then a homotopy model of its preimage."""
    ix = k.index
    if not ix.verts:
        return ix.subcomplex(())
    keep = np.zeros(len(ix.levels[func]), dtype=bool)
    for lo, hi in ranges:
        keep[lo:hi] = True
    inside = keep[ix.ranks[func]]
    return Subcomplex(np.flatnonzero(np.concatenate([inside[v].all(axis=1) for v in ix.verts])))


# ---------------------------------------------------------------------------
# relative cochain cohomology


@dataclass
class CohomBasis:
    """A basis of H^n(A, B; GF(p)) with cocycle representatives, and what
    expresses relative cocycles in it: a reduction from degree 2 on, a
    matrix below, and the 0 x |ids| matrix in any degree without
    representatives."""

    degree: int
    p: int
    ids: np.ndarray               # sorted ids of the n-simplices of A minus B
    reps: Mat                     # columns: representative cocycles
    coboundary: Callable[[], Coboundary]  # builds delta^n on first read of delta
    coords: Optional[Mat] = None  # cocycle -> coordinates, where span is None
    span: Optional[Reduction] = None  # [delta^{n-1} | reps], coordinates on reps

    @property
    def dim(self) -> int:
        return self.reps.cols

    @cached_property
    def delta(self) -> Coboundary:
        return self.coboundary()

    def express(self, cochains: Mat) -> Mat:
        """Coordinates of the given cocycle columns in this basis (modulo
        coboundaries).  Raises if a column is not a cocycle class."""
        if not (self.delta @ cochains).is_zero():
            raise ValueError("not a cocycle")
        if self.span is None:
            return self.coords @ cochains
        out = self.span.solve(cochains, self.dim)
        if out is None:
            raise ValueError("cocycle not expressible in basis")
        return out


def _forest(delta: Coboundary) -> Tuple[List[List[int]], List[int]]:
    """Kruskal's pass over the rows of delta^0 of (A, B) in decreasing order,
    on the vertices of A minus B and a last, ground vertex for B that
    stands in for a missing face: the rows so read and the rows that join
    two components.  Those are the lows of any column reduction of delta^0,
    as row r is a low exactly when the rows from r on have greater rank
    than those after it (the pairing uniqueness lemma, Cohen-Steiner,
    Edelsbrunner & Morozov 2006)."""
    ground = delta.cols
    parent = list(range(ground + 1))
    ends = (delta.faces % (ground + 1)).tolist()
    joins = []
    for r in range(len(ends) - 1, -1, -1):
        u, v = ends[r]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joins.append(r)
    return ends, joins


def _label(a: Subcomplex, index: SimplexIndex) -> np.ndarray:
    """One union-find pass over the edges of A (Tarjan 1975): at the id of
    each vertex of A, the least vertex id of its component in A."""
    parent, edges = list(range(len(index.verts and index.verts[0]))), index.of_dim(a.ids, 1)
    for u, v in index.faces[1][edges - index.start[1]].tolist() if len(edges) else ():
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[max(u, v)] = min(u, v)
    for u in index.of_dim(a.ids, 0).tolist():  # parent[u] <= u has its root
        parent[u] = parent[parent[u]]
    return np.array(parent, dtype=np.intp)


def _components(a: Subcomplex, b: Subcomplex, p: int, index: SimplexIndex) -> CohomBasis:
    """H^0(A, B): the indicators of the components of A with no vertex of B,
    the kernel vectors of the dependent columns of delta^0, ordered by their
    last columns, at which a cocycle's coordinates are read."""
    if (roots := index.components.get(a)) is None:
        roots = index.components[a] = _label(a, index)
    grounded = np.zeros(len(roots), dtype=bool)
    grounded[index.of_dim(b.ids, 0)] = True  # the vertices of B
    ids = index.of_dim(a.ids, 0)
    ids = ids[~grounded[ids]]
    grounded[roots[grounded]] = True  # and the roots of the components meeting B
    comp, cols, last = roots[ids], np.arange(len(ids)), np.full(len(roots), -1)
    np.maximum.at(last, comp, cols)
    free = np.flatnonzero((last[comp] == cols) & ~grounded[comp])
    return CohomBasis(0, p, ids, Mat(comp[:, None] == comp[free], p),
                      lambda: index.coboundary(a.minus(b), 0, p), Mat(cols == free[:, None], p))


def _degree1_coords(forest, free: List[int], p: int) -> Mat:
    """The matrix taking a degree-1 cocycle c to its coordinates on the
    representatives of the given free columns.  For a potential phi,
    c - delta^0 phi vanishes on the forest and is the sum of its values at
    the free columns times their representatives.  So row i is e_j minus the
    signed forest path between the faces of j = free[i], which share a tree."""
    ends, joins = forest
    tree: Dict[int, List[Tuple[int, int, int]]] = {}
    for r in joins:
        u, v = ends[r]
        tree.setdefault(u, []).append((v, r, -1))
        tree.setdefault(v, []).append((u, r, 1))
    # up[x] = (w, r, s): phi(x) = phi(w) + s c[r] along the forest row r
    up: Dict[int, Optional[Tuple[int, int, int]]] = {}
    out = np.zeros((len(free), len(ends)), dtype=np.int64)
    for i, j in enumerate(free):
        stack = [] if ends[j][0] in up else [ends[j][0]]
        up.setdefault(ends[j][0], None)
        while stack:
            w = stack.pop()
            for x, r, s in tree.get(w, ()):
                if x not in up:
                    up[x] = (w, r, s)
                    stack.append(x)
        row = {j: 1}
        for x, sign in zip(ends[j], (-1, 1)):
            while up[x] is not None:
                x, r, s = up[x]
                row[r] = row.get(r, 0) + sign * s
        out[i, list(row)] = list(row.values())
    return Mat(out, p)


def _positive_degrees(rel: np.ndarray, p: int, index: SimplexIndex) -> List[CohomBasis]:
    """The bases of H^1 up to H^top of the cell set rel, top the dimension
    of the complex.  Reducing delta^m with coordinates, a column that
    reduces to zero gives a cocycle: the reduced row echelon kernel vector
    of that free column, whose low row is that column.  Every low of a
    coboundary is the low of a cocycle, so a cocycle is independent of the
    coboundaries and of the cocycles before it exactly when its column is
    not the low of a pivot of delta^{m-1}: those columns are skipped
    (clearing, Chen & Kerber 2011), and every other free column gives a
    representative.  The forest pass clears delta^1 and gives the degree-1
    coordinate matrix (_degree1_coords); from degree 2 on, the reduction
    of delta^{m-1}, coordinates dropped, with the representatives added as
    pivots, expresses cocycles."""
    forest = _forest(index.coboundary(rel, 0, p))
    cleared, span, out = set(forest[1]), None, []
    for m in range(1, len(index.verts)):
        ids, delta, kernel = index.of_dim(rel, m), index.coboundary(rel, m, p), Reduction(p)
        reps, chosen = vanishing(kernel, delta.columns(cleared).items(), len(ids))
        built = lambda delta=delta: delta
        if not chosen:
            out.append(CohomBasis(m, p, ids, reps, built, Mat.zeros(0, len(ids), p)))
        elif m == 1:
            coords = _degree1_coords(forest, [max(z) for z in chosen], p)
            out.append(CohomBasis(m, p, ids, reps, built, coords))
        else:
            for i, z in enumerate(chosen):
                span.add(z, {i: 1})
            out.append(CohomBasis(m, p, ids, reps, built, span=span))
        for _, z in kernel.pivots.values():
            z.clear()
        span, cleared = kernel, kernel.pivots
    return out


def relative_cohomology(a: Subcomplex, b: Subcomplex, n: int, p: int,
                        index: SimplexIndex) -> CohomBasis:
    """Basis of degree-n cohomology of the pair (A, B) of subcomplexes of
    the complex with the given index, B inside A; cochains live on the ids
    of A not in B.  Degree 0 is read off the components of A (_components).
    The first call of a positive degree builds every positive degree up to
    the dimension of the complex (_positive_degrees), which the index keeps
    per prime and cell set A minus B; a degree outside them has no cells."""
    if n == 0:
        return _components(a, b, p, index)
    rel = a.minus(b)
    if not 0 < n < len(index.verts):
        return CohomBasis(n, p, rel[:0], Mat.zeros(0, 0, p),
                          lambda: index.coboundary(rel, n, p), Mat.zeros(0, 0, p))
    key = (p, rel.tobytes())
    if key not in index.cohomology:
        index.cohomology[key] = _positive_degrees(rel, p, index)
    return index.cohomology[key][n - 1]


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
                  index: SimplexIndex, src: CohomBasis, dst: CohomBasis) -> Mat:
    """Connecting map H^n(A_u, B_u) -> H^{n+1}(A_w, B_w) of the relative
    Mayer-Vietoris sequence of an excisive triad (componentwise union at w,
    intersection at u) of subcomplexes of the complex with the given index,
    in the caller's bases: src of H^n(A_u, B_u), dst of H^{n+1}(A_w, B_w).

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
    if not np.array_equal(take_rows(rows1, dc1, shared), take_rows(rows2, dc2, shared)):
        raise AssertionError("snake glueing inconsistency")
    in1 = (locate(rows1, dst.ids) >= 0)[:, None]
    gamma = np.where(in1, take_rows(rows1, dc1, dst.ids), take_rows(rows2, dc2, dst.ids))
    return dst.express(Mat(gamma, p))
