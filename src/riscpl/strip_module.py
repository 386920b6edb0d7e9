"""Finite presentations of pfd functors on the strip poset.

A GridModule stores a vector-space dimension for every sample of a finite
grid in the strip (grid vertices, edge midpoints and cell midpoints of a
rectangular line arrangement) and a matrix per covering pair of nonzero spaces.
All functors of interest are constant on the open cells of the arrangement,
so this finite data determines them.  On top of this sit the diagram
formula and the checkers for the cohomological, continuity, decomposition
and Yoneda properties.

The x and y axes of a sample grid share one coordinate list, held by the
GridModule's coordinate table (`exact_geometry.CoordTable`): a grid index
is a coordinate id, the sample and interior flags read the table's strip
locations, the sample iteration its one sample list, the translates its
maps of T^n, and the block supports its `block`, row by row.  The
checkers work on grid indices alone: `GridModule.up` and `down` are the
one covering relation and `map_between` the one composite routine between
two samples.  Each checker call reads one array view of the dimensions
and the strip locations (`_view`) and visits only the unit squares and
samples where a nonzero space lets it fail, row by row.  The exactness
checker tests its unit squares and random rectangles as one batch
(`_inexact`): sides of unit squares read off the covering maps, each
longer composite folded once per call and an outer one only through a
nonzero corner, the rectangle maps stacked per exact shape, each stack's
composites one product and each distinct matrix ranked once; it reports
the first inexact rectangle in visit order.  The block checkers walk
each block's support once along its staircases to the block's vertex
(`_block`) and read every composite off that walk; one `check` call
computes the diagram once and hands the decomposition checker's walks to
the Yoneda checker.  Nothing is kept on the module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exact_geometry import Coord, CoordTable, INF, StripPoint
from .field_linalg import (
    Mat,
    independent_split,
    kernel_basis,
    rank,
    ranks,
)

Index = Tuple[int, int]

# The seed of the checkers' random spot checks, so that a verdict is fixed.
CHECK_SEED = 0


def midpoint_coord(a: Coord, b: Coord) -> Coord:
    """A deterministic Coord strictly between two consecutive grid Coords."""
    if not a < b:
        raise ValueError("need a < b")
    if a.k == b.k:
        if b.v is INF:
            return Coord(a.k, a.v + 1)
        return Coord(a.k, (a.v + b.v) / 2)
    if a.v is INF and b.v is INF:
        return Coord(b.k, Fraction(0))
    if a.v is INF:
        return Coord(b.k, b.v - 1)
    raise ValueError(f"coords {a}, {b} are not consecutive grid lines")


def refine_lines(lines: Sequence[Coord]) -> Tuple[Coord, ...]:
    """Interleave sorted line coordinates with midpoints: even indices are
    the lines, odd indices sample the open cells between them."""
    lines = sorted(set(lines))
    out = []
    for i, c in enumerate(lines):
        if i:
            out.append(midpoint_coord(lines[i - 1], c))
        out.append(c)
    return tuple(out)


@dataclass
class DiagramPoint:
    point: StripPoint
    multiplicity: int
    degree: Optional[int] = None
    region: Optional[str] = None
    pair: Optional[tuple] = None
    interval: Optional[object] = None


@dataclass
class Diagram:
    points: List[DiagramPoint] = field(default_factory=list)


class GridModule:
    """Dimensions and structure maps of a pfd functor on a sample grid.

    The grid of the coordinate table is the refined coordinate list of both
    axes (lines at even indices, midpoints at odd indices).  `up` and `down`
    give the covering neighbors of a sample in the strip order; maps is
    keyed by covering pairs (idx, neighbor) with neighbor in up(idx) and
    stores the matrix of the structure map M(neighbor) -> M(idx), i.e. maps
    point down the order as the functor is contravariant.  Samples outside
    the strip are absent and act as zero spaces.  An evaluated module, as a
    dump, stores maps between nonzero spaces only; a missing one is zero."""

    def __init__(self, table: CoordTable, dims: Dict[Index, int],
                 maps: Dict[Tuple[Index, Index], Mat], p: int = 2):
        self.table = table
        self.dims = dict(dims)
        self.maps = dict(maps)
        self.p = p

    # -- sample bookkeeping

    @staticmethod
    def up(idx: Index) -> Tuple[Index, Index]:
        """The upward covering neighbors of a grid index: one step down in x
        and one step up in y."""
        i, j = idx
        return (i - 1, j), (i, j + 1)

    @staticmethod
    def down(idx: Index) -> Tuple[Index, Index]:
        """The downward covering neighbors of a grid index: one step up in x
        and one step down in y."""
        i, j = idx
        return (i + 1, j), (i, j - 1)

    def index_of(self, pt: StripPoint) -> Optional[Index]:
        n = len(self.table.grid)
        i = self.table.ids.get(pt.x, n)
        j = self.table.ids.get(pt.y, n)
        return (i, j) if i < n and j < n else None

    def in_range(self, idx: Index) -> bool:
        n = len(self.table.grid)
        return 0 <= idx[0] < n and 0 <= idx[1] < n

    def samples(self) -> Tuple[Index, ...]:
        """The grid points in the strip, row by row: the table's list."""
        return self.table.samples

    def dim_at(self, idx: Index) -> int:
        return self.dims.get(idx, 0)

    def map_at(self, lo: Index, hi: Index) -> Mat:
        """Matrix M(hi) -> M(lo) for hi a covering upward neighbor of lo
        (or hi == lo); a missing map is a zero matrix."""
        if lo == hi:
            return Mat.eye(self.dim_at(lo), self.p)
        m = self.maps.get((lo, hi))
        if m is None:
            return Mat.zeros(self.dim_at(lo), self.dim_at(hi), self.p)
        return m

    def map_between(self, lo: Index, hi: Index) -> Mat:
        """Matrix M(hi) -> M(lo) for any comparable pair lo preceding hi,
        composed along the staircase through the corner (hi.x, lo.y).  Path
        independence makes any other monotone path agree.  A staircase
        through a zero space composes to zero, so it is not multiplied: the
        dimensions are read at the corner first, then along the path.  The
        fold starts from the first covering map, so a covering pair gets its
        stored matrix back; like map_at's, the result must not be written
        to.  Nothing is kept between calls."""
        (il, jl), (ih, jh) = lo, hi
        if il < ih or jl > jh:
            raise ValueError("samples not comparable in the given direction")
        if lo == hi:
            return self.map_at(lo, hi)
        dim = self.dims.get
        path = dim((ih, jl)) and ([(ih, j) for j in range(jh, jl - 1, -1)]
                                  + [(i, jl) for i in range(ih + 1, il + 1)])
        if not (path and all(map(dim, path))):
            return Mat.zeros(self.dim_at(lo), self.dim_at(hi), self.p)
        acc = self.map_at(path[1], path[0])
        for above, below in zip(path[1:], path[2:]):
            acc = self.map_at(below, above) @ acc
        return acc

    def vertex_indices(self) -> Iterable[Index]:
        """The samples at grid vertices (both indices even), row by row."""
        return (idx for idx in self.samples() if not (idx[0] % 2 or idx[1] % 2))


# ---------------------------------------------------------------------------
# diagram and ranks


def dgm_value(m: GridModule, idx: Index) -> int:
    """The diagram formula at one sample: dimension minus the dimension of
    the sum of the images from the two covering neighbors."""
    d = m.dim_at(idx)
    if d == 0:
        return 0
    imgs = []
    for up in m.up(idx):
        if not m.in_range(up):
            raise ValueError(f"grid too small: sample {idx} lacks neighbor {up}")
        imgs.append(m.map_at(idx, up))
    return d - rank(Mat.hstack(imgs))


def dgm(m: GridModule) -> Diagram:
    """The diagram points in (x, y) order, as the samples come."""
    out = Diagram()
    for idx in m.vertex_indices():
        mu = dgm_value(m, idx)
        if mu > 0:
            out.points.append(DiagramPoint(m.table.point(idx), mu))
    return out


# ---------------------------------------------------------------------------
# checkers


def _view(m: GridModule) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dimension at every grid index and the flags of the samples and
    of the interior ones, as n x n arrays, row-major as the samples come;
    each checker call builds its own, so nothing outlives a check."""
    n = len(m.table.grid)
    dims = np.zeros((n, n), dtype=np.int64)
    keys = np.array(list(m.dims), dtype=np.int64).reshape(-1, 2)
    dims[tuple(keys.T)] = np.fromiter(m.dims.values(), np.int64, len(keys))
    sample, inner = np.zeros((2, n, n), dtype=bool)
    for row in filter(None, map(m.table.row_samples.__getitem__, range(n))):
        run = np.s_[row[0][0], row[0][1]:row[-1][1] + 1]
        sample[run] = inner[run] = True
        for s in row[0], row[-1]:
            inner[s] = m.table.location[s] == "interior"
    return dims, sample, inner


def square_commutes_check(m: GridModule):
    """Every unit square of structure maps must commute; with that, any two
    staircase composites between comparable samples agree.  A square (lo,
    diag = (i - 1, j + 1)) at a sample lo = (i, j) is visited, row by row,
    if both are nonzero spaces: else both composites are empty."""
    dims = _view(m)[0]
    for i, j in np.argwhere((dims[1:, :-1] != 0) & (dims[:-1, 1:] != 0)).tolist():
        lo, diag = (i + 1, j), (i, j + 1)
        via_x, via_y = m.up(lo)
        left = m.map_at(lo, via_x) @ m.map_at(via_x, diag)
        right = m.map_at(lo, via_y) @ m.map_at(via_y, diag)
        if left != right:
            return (lo, diag)
    return None


def decomposition_check(m: GridModule, spot_checks: int = 200,
                        walks: Optional[dict] = None, diagram: Optional[Diagram] = None):
    """Verify the block decomposition by constructing an explicit natural
    isomorphism from the block sum read off the diagram.

    For each diagram vertex a space of sections is cut out of M(v) by the
    requirement that every composite onto a sample just outside the block
    support vanishes; sections are natural by square commutativity.  If
    enough independent sections exist at every vertex and the assembled
    transformation is invertible at every sample, the module is the block
    sum, so every pairwise rank equals the count of blocks containing both
    samples.  The rank interface is additionally spot-checked against that
    count on random comparable pairs of samples, both with nonzero spaces:
    a pair with a zero space has the zero map and no block at both.  Each
    vertex's `_block` walk goes into walks, if given, for `yoneda_check`;
    diagram, if given, is dgm(m)."""
    walks = {} if walks is None else walks
    bad = square_commutes_check(m)
    if bad is not None:
        return ("square", *bad)
    # diagram points are grid vertices
    diagram = dgm(m) if diagram is None else diagram
    blocks = [(m.index_of(d.point), d.multiplicity) for d in diagram.points]
    # process upper blocks first: a block can only feed sections into the
    # vertex spaces of blocks whose vertex its support contains
    order = sorted(blocks, key=lambda b: b[0][0] - b[0][1])

    # the sections at v are the kernel of the walk's nonzero equations: with
    # every square commuting, the rows off the tree vanish and the others
    # are the composites onto the samples just below the support; a section
    # (v, walk, xi) moves to a sample s of the support by walk[s]
    sections: List[Tuple[Index, Dict[Index, Mat], Mat]] = []
    for vi, mult in order:
        walk, equations = walks[vi] = _block(vi, m)
        ker = kernel_basis(Mat(equations.data[equations.data.any(axis=1)], m.p))
        prior = [w[vi] @ xi for v, w, xi in sections if vi in w]
        base = Mat.hstack(prior) if prior else Mat.zeros(m.dim_at(vi), 0, m.p)
        free = independent_split(base, ker)
        if len(free) < mult:
            return ("too few sections", m.table.point(vi), len(free), mult)
        xi = Mat.hstack([ker.column(c) for c in free[:mult]])
        sections.append((vi, walk, xi))

    # a sample with a zero space in no walk is trivially invertible
    nonzero = [tuple(s) for s in np.argwhere(_view(m)[0]).tolist()]
    for s in sorted(set(nonzero).union(*(w for v, w, xi in sections))):
        cols = [w[s] @ xi for v, w, xi in sections if s in w]
        d = m.dim_at(s)
        total = sum(c.cols for c in cols)
        if total != d:
            return ("dimension mismatch", s, total, d)
        if cols and rank(Mat.hstack(cols)) < d:
            return ("not invertible", s)

    rng = random.Random(CHECK_SEED)
    xs, ys = np.array(nonzero, dtype=np.int64).reshape(-1, 2).T
    for _ in range(spot_checks if nonzero else 0):
        pi = rng.choice(nonzero)
        qi = nonzero[rng.choice(np.flatnonzero((xs <= pi[0]) & (ys >= pi[1])))]
        got = rank(m.map_between(pi, qi))
        want = sum(xi.cols for v, w, xi in sections if pi in w and qi in w)
        if got != want:
            return (pi, qi, got, want)
    return None


# why a rectangle is not exact, in the order its terms are tested
REASONS = ("composite nonzero", "not exact at the union term",
           "not exact at the middle term", "not exact at the intersection term")


def _inexact(m: GridModule, dims: np.ndarray, rects: List[Tuple[Index, Index]]):
    """The first rectangle (lo, hi) of rects, if any, whose long sequence
    M(T(u)) -> M(w) -> M(v1) (+) M(v2) -> M(u) -> M(T^{-1}(w)),
    u = lo, w = hi, v1 = (lo.x, hi.y), v2 = (hi.x, lo.y), is not exact at
    one of its three inner terms (the outer ones only where the translates
    lie on the grid, above hi and below lo), as (lo, hi, the first of its
    REASONS).  At each term the two maps compose to zero and the rank of
    the outgoing map is the dimension minus the rank of the incoming one.
    The corners are interior.  A rectangle whose four corners are zero
    spaces is not tested: every matrix in it and in its outer terms has a
    zero side.  The sides of a unit square are its covering maps; any other
    composite is folded (`map_between`) once per call, an outer one only
    if the corner of its staircase is a nonzero space (else it is zero).
    The maps w -> v1 (+) v2 and v1 (+) v2 -> u are stacked per exact shape
    (dim u, dim w, dim v1, dim v2), never padded; one product per stack
    tests its composites, and `ranks` ranks each distinct matrix once."""
    p, n, count = m.p, len(dims), len(rects)
    if not count:
        return None
    (il, jl), (ih, jh) = np.array(rects, dtype=np.int64).reshape(-1, 2, 2).transpose(1, 2, 0)
    shape = np.stack([dims[il, jl], dims[ih, jh], dims[il, jh], dims[ih, jl]], axis=1)
    live = shape.any(axis=1)
    fold = cache(lambda a, b: m.map_between(a, b).data)
    ranked = cache(lambda a, b: rank(Mat._reduced(fold(a, b), p)))

    def sides_of(lo: Index, hi: Index) -> List[np.ndarray]:
        v1, v2 = (lo[0], hi[1]), (hi[0], lo[1])
        pairs = (v1, hi), (v2, hi), (lo, v1), (lo, v2)
        if lo[0] - hi[0] == 1 == hi[1] - lo[1]:
            return [m.maps[ab].data if ab in m.maps else
                    np.zeros((m.dim_at(ab[0]), m.dim_at(ab[1])), np.int64) for ab in pairs]
        return [fold(a, b) for a, b in pairs]

    bad = np.zeros((count, 4), dtype=bool)
    rank_first, rank_second = np.zeros((2, count), dtype=np.int64)
    sides = [sides_of(*rect) if keep else None for rect, keep in zip(rects, live.tolist())]
    keys, group = np.unique(shape, axis=0, return_inverse=True)
    for g in np.flatnonzero(keys.any(axis=1)).tolist():
        members = np.flatnonzero(group.reshape(-1) == g)
        a, b, c, d = (np.array(s, dtype=np.int64) for s in zip(*(sides[r] for r in members)))
        first, second = np.concatenate((a, b), axis=1), np.concatenate((c, -d % p), axis=2)
        bad[members, 0] = (second @ first % p).any(axis=(1, 2))
        rank_first[members], rank_second[members] = ranks(first, p), ranks(second, p)

    # T^1 and T^-1 swap the coordinates: T(i, j) = (x[j], y[i]) with (x[k], y[k]) = T(k, k)
    (tx, ty), (sx, sy) = (np.array([m.table.power(e)((k, k)) for k in range(n)]).T for e in (1, -1))
    tu, tw = np.stack([tx[jl], ty[il]]), np.stack([sx[jh], sy[ih]])
    union = live & (tu < n).all(axis=0) & (ih >= tu[0]) & (jh <= tu[1])
    inter = live & (tw < n).all(axis=0) & (tw[0] >= il) & (tw[1] <= jl)
    outer_rank = np.zeros((2, count), dtype=np.int64)
    for r in np.flatnonzero(union & (dims[np.minimum(tu[0], n - 1), jh] != 0)).tolist():
        pair = rects[r][1], tuple(tu[:, r].tolist())
        bad[r, 1] = (np.vstack(sides[r][:2]) @ fold(*pair) % p).any()
        outer_rank[0, r] = ranked(*pair)
    for r in np.flatnonzero(inter & (dims[il, np.minimum(tw[1], n - 1)] != 0)).tolist():
        pair = tuple(tw[:, r].tolist()), rects[r][0]
        # the sign of the v2 block of v1 (+) v2 -> u does not change whether this vanishes
        bad[r, 3] = (fold(*pair) @ np.hstack(sides[r][2:]) % p).any()
        outer_rank[1, r] = ranked(*pair)
    du, dw, d1, d2 = shape.T
    bad[:, 1] |= union & (rank_first != dw - outer_rank[0])
    bad[:, 2] = rank_first != d1 + d2 - rank_second
    bad[:, 3] |= inter & (rank_second != du - outer_rank[1])
    hit = np.flatnonzero(bad.any(axis=1))
    return (*rects[hit[0]], REASONS[bad[hit[0]].argmax()]) if len(hit) else None


def cohomological_check(m: GridModule, random_rectangles: int = 100):
    """Long-sequence exactness (`_inexact`) on every unit sample square,
    plus on random larger rectangles.  Exactness at the middle term pastes
    from unit squares to larger rectangles, but not at the outer terms:
    near the edge of the grid a larger rectangle can have T(lo) or T^-1(hi)
    on the grid where no unit square there has its translate.  The unit
    squares come row by row, those with four interior corners and a
    nonzero one.  Each draw picks lo among the interior samples whose
    upward neighbors are interior, then ih among the x indices left of lo
    with (ih, jl) interior, then jh among the y indices above lo with
    (il, jh) and (ih, jh) interior, so every drawn rectangle has interior
    corners.  The interior is the band -pi < x + y < pi, so the interior
    samples of a column are one run, from its `top` row, and so are those
    of a row, up to its `end` column; row ih's run holds the part of row
    il's above lo.  Neither choice is empty: il - 1 is always one, and so
    is jl + 1.  No draw depends on a verdict, so the squares and the draws
    are tested as one batch, and the report names the first inexact
    rectangle in that order."""
    dims, _, inner = _view(m)
    nz = dims != 0
    corners = inner[1:, :-1] & inner[:-1, 1:] & inner[1:, 1:] & inner[:-1, :-1]
    some = nz[1:, :-1] | nz[:-1, 1:] | nz[1:, 1:] | nz[:-1, :-1]
    rects = [((i + 1, j), (i, j + 1)) for i, j in np.argwhere(corners & some).tolist()]
    low = inner[1:, :-1] & inner[:-1, :-1] & inner[1:, 1:]
    lows = [(i + 1, j) for i, j in np.argwhere(low).tolist()]
    top = (~inner).cumprod(axis=0).sum(axis=0).tolist()
    end = (len(inner) - (~inner[:, ::-1]).cumprod(axis=1).sum(axis=1)).tolist()
    rng = random.Random(CHECK_SEED)
    for _ in range(random_rectangles if lows else 0):
        il, jl = rng.choice(lows)
        ih = rng.choice(range(top[jl], il))
        rects.append(((il, jl), (ih, rng.choice(range(jl + 1, end[il])))))
    return _inexact(m, dims, rects)


def seq_continuity_check(m: GridModule):
    """Every sample on a cell boundary maps isomorphically into the open
    cell below and to the left of it (the finite stand-in for sequential
    continuity), and in particular all maps inside one cell are
    isomorphisms.  A sample is visited, row by row, if its cell sample w
    is interior and one of the two spaces nonzero."""
    dims, sample, inner = _view(m)
    n = len(dims)
    even = np.arange(n) % 2 == 0
    at_w = np.ix_(np.arange(n) + even + 1, np.arange(n) - even + 1)
    nz = dims != 0
    visit = sample & (even[:, None] | even) & np.pad(inner, 1)[at_w] \
        & (nz | np.pad(nz, 1)[at_w])
    for i, j in np.argwhere(visit).tolist():
        idx, w = (i, j), (i + 1 - i % 2, j - 1 + j % 2)
        mat = m.map_between(w, idx)
        if m.dim_at(w) != m.dim_at(idx) or rank(mat) != m.dim_at(idx):
            return (idx, w, m.dim_at(idx), m.dim_at(w), rank(mat))
    return None


# ---------------------------------------------------------------------------
# natural transformations from a block


def _block(v: Index, m: GridModule) -> Tuple[Dict[Index, Mat], Mat]:
    """The support of the block at v walked along its staircases to v, and
    the equations on eta(v) of a natural transformation eta out of it.

    A nonempty support (`table.block(v)`) holds v, and each other sample
    s = (i, j) of it has its next staircase step there: (i - 1, j) while
    i > v.i, then (i, j + 1), as in `map_between`.  So the support is a
    tree rooted at v, walked from v's row on, each row from the right, and
    naturality along the tree gives eta(s) = walk[s] eta(v) with
    walk[s] = M(s <- step) walk[step] = map_between(s, v).  The equations
    are the rest of naturality: M(s <- (i, j + 1)) walk[(i, j + 1)] -
    walk[s] for each other covering pair in the support (i > v.i), and
    M(down <- s) walk[s] for each sample below s outside it."""
    order = sorted(m.table.block(v), key=lambda s: (s[0], -s[1]))
    d = m.dim_at(v)
    walk = {v: Mat.eye(d, m.p)} if order else {}
    for i, j in order[1:]:
        step = (i - 1, j) if i > v[0] else (i, j + 1)
        walk[i, j] = m.map_at((i, j), step) @ walk[step]
    rows = [np.zeros((0, d), dtype=np.int64)]
    for (i, j), eta in walk.items():
        side = (i, j + 1)
        if i > v[0] and side in walk:
            rows.append((m.map_at((i, j), side) @ walk[side]).data - eta.data)
        for down in m.down((i, j)):
            if down not in walk and m.dim_at(down):
                rows.append((m.map_at(down, (i, j)) @ eta).data)
    return walk, Mat(np.vstack(rows), m.p)


def nat_space_dim(v: Index, m: GridModule, walks: Optional[dict] = None) -> int:
    """Dimension of the space of natural transformations from the block at
    the sample v into m.  Such a transformation is fixed by its value in
    m(v) (`_block`), so the count is dim m(v) less the rank of the walk's
    equations, and 0 for an empty support.  By the Yoneda-style lemma this
    must equal dim m(v).  A walk already in walks is not walked again."""
    walk, equations = walks[v] if walks and v in walks else _block(v, m)
    return m.dim_at(v) - rank(equations) if walk else 0


def yoneda_check(m: GridModule, walks: Optional[dict] = None,
                 diagram: Optional[Diagram] = None):
    """The Yoneda-type count at every diagram vertex v: the natural
    transformations from the block at v into m form a space of dimension
    dim m(v).  walks may hold block walks of `decomposition_check(m)`; the
    other blocks are walked here.  diagram, if given, is dgm(m)."""
    for d in (dgm(m) if diagram is None else diagram).points:
        idx = m.index_of(d.point)
        if nat_space_dim(idx, m, walks) != m.dim_at(idx):
            return ("yoneda mismatch at", idx)
    return None
