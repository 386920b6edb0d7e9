"""Assembling the interlevel-set cohomology module of a PL function.

Every sample of a strip grid is sent by the appropriate power of the
automorphism T into the fundamental band, where its value is the relative
cohomology of the open models of the attached pair of open sets.  Maps
within a tile are restriction-induced; maps across a tile boundary are the
Mayer-Vietoris connecting maps of the rectangle triads.  On top of the
resulting GridModule sit the diagram, its region classification and the
levelset barcode.

One builder, `joint_context`, makes the sample grid, the split complex and
one evaluator per function for every entry point: `evaluate` asks for one
function and no shift, `interleave` for several functions and the shift
amounts of its transformations.  The grid lines lie on the translates
T^-w..T^w, w = max(3, top), top the largest dimension among the complexes
that share the grid (`sample_table`).  An evaluator owns its degree bound,
the dimension of its split complex.

An evaluator works over the integer coordinate table of its sample grid
(`exact_geometry.CoordTable`): points are pairs of coordinate ids, the
per-point cache is keyed by them, and the location, tile index and
translates of a point are table lookups, and so are the value-rank ranges
of its pair of open sets.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_geometry import (
    Coord,
    CoordTable,
    INF,
    Key,
    beta_levelset,
    classify_region,
)
from .field_linalg import Mat
from .plc import (
    CohomBasis,
    PLComplex,
    Subcomplex,
    check_funcs,
    induced_map,
    mv_connecting,
    open_model,
    relative_cohomology,
    split_all,
)
from .strip_module import Diagram, GridModule, dgm, refine_lines

DEFAULT_CAP = 20000

# an open set of levels as ranges [lo, hi) of a function's value ranks
Ranges = Tuple[Tuple[int, int], ...]


@dataclass
class RiscResult:
    module: GridModule
    diagram: Diagram
    split: PLComplex
    func: int = 0


def sample_table(k: PLComplex, funcs: Sequence[int], top: int) -> CoordTable:
    """The sample grid of the functions funcs on k, for complexes of
    dimension at most top.  Its lines are every critical value (at a vertex
    of a simplex) and its negative on the translates T^-w..T^w, w = max(3,
    top), and the half-pi lines, so they cover [-(w + 1/2)pi, (w + 1/2)pi].
    The family is closed under negation and under shifts, hence the sample
    grid is closed under T.  Cochains vanish above top, so only the tiles
    0..top hold nonzero values.  A diagram point of degree n is T^-n(q) with
    q.x > -pi/2 and q.y >= -pi/2 (`classify_region`), so its coordinates
    lie in [-(n + 1/2)pi, (n + 1/2)pi], or one pi further out for an Ord
    class, whose degree is below top as an (n+1)-simplex kills it.  So w =
    top reaches every diagram point and its upward neighbors.  The floor of
    3 only keeps every grid of a complex of dimension at most 3, with its
    dumps and sample indices, as it was when the window was fixed."""
    w = max(3, top)
    critical = {k.value(v, func) for s in k.simplices for v in s for func in funcs}
    lines = {Coord(-w - 1, INF)}
    for n in range(-w, w + 1):
        lines.add(Coord(n, INF))
        lines.update(Coord(n, sign * Fraction(lam)) for lam in critical for sign in (1, -1))
    return CoordTable(refine_lines(lines))


def joint_levels(xs: Sequence[Coord], shifts) -> List[Fraction]:
    """Split levels covering every finite grid value moved by every shift
    amount and its negative, plus midpoints of consecutive values, so that
    all open sets met during shifted evaluation have split endpoints and
    contain a split level whenever their preimage is nonempty."""
    base = {x.v for x in xs if isinstance(x.v, Fraction)}
    amounts = {Fraction(0)} | {sign * Fraction(s) for s in shifts for sign in (1, -1)}
    vals = sorted({v + s for v in base for s in amounts})
    out = list(vals)
    for a, b in zip(vals, vals[1:]):
        out.append((a + b) / 2)
    return sorted(out)


class FunctorEvaluator:
    """Evaluates the pair-cohomology functor of one PL function on a split
    complex, with caching keyed by the open models so that the cell
    constancy of the functor is exploited.  Points are keys of the
    coordinate table of the sample grid.  A set of rho is a union of
    ranges of value ranks, read off two per-coordinate-id maps filled on
    first use: below[c] counts the values t with arctan t < c, upto[c]
    those with arctan t <= c.  One model is built per vertex set, keyed by
    its canonical ranges, and one pair per point key of four such ranks
    (`ranks`), which decide it.  Relative cochains, and with them
    relative cohomology, vanish above the dimension of the split complex,
    so values in degrees above max_degree = dim are zero without being
    computed.

    Induced maps are cached by the pair of basis objects; connecting maps
    are built on each call.  The stability transformation into this
    function's module asks for both kinds of map, with bases of a second
    evaluator on the same split complex as sources."""

    def __init__(self, split: PLComplex, table: CoordTable, func: int = 0,
                 p: int = 2):
        self.split = split
        self.table = table
        self.func = func
        self.p = p
        self.max_degree = split.dim()
        self._models: Dict[Ranges, Subcomplex] = {}
        self._pairs: Dict[Tuple[int, int, int, int], Tuple[Subcomplex, Subcomplex]] = {}
        ix = split.index
        self.levels: List[Fraction] = ix.levels[func] if ix.levels else []
        self.below = table.rank_map(self.levels, bisect.bisect_left)
        self.upto = table.rank_map(self.levels, bisect.bisect_right)
        self._points: Dict[Key, tuple] = {}
        self._bases: Dict[tuple, CohomBasis] = {}
        self._induced: Dict[tuple, Mat] = {}

    def ranks(self, w: Key) -> Tuple[int, int, int, int]:
        """The value ranks that bound the open sets rho attaches to a point:
        upto[T(w).x], below[T(w).y], below[w.y] and upto[w.x]."""
        table = self.table
        if table.location[w] == "outside":
            raise ValueError(f"point {table.point(w)} lies outside the strip")
        tx, ty = table.power(1)(w)
        return self.upto[tx], self.below[ty], self.below[w[1]], self.upto[w[0]]

    def ranges(self, w: Key) -> Tuple[Tuple[int, int], Ranges]:
        """The pair of open sets rho attaches to a point, as value-rank
        ranges: the levels t with T(w).x < arctan t < T(w).y, and those off
        w.y <= arctan t <= w.x."""
        lo, hi, below, upto = self.ranks(w)
        return (lo, hi), ((0, below), (upto, len(self.levels)))

    def model(self, ranges: Ranges) -> Subcomplex:
        """The open model of a union of value-rank ranges, cached by their
        canonical form: the nonempty ranges in order, overlapping and
        touching ones merged."""
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(ranges):
            if lo >= hi:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        key = tuple(merged)
        out = self._models.get(key)
        if out is None:
            out = self._models[key] = open_model(self.split, key, self.func)
        return out

    def pair_at(self, w: Key) -> Tuple[Subcomplex, Subcomplex]:
        """Open models of the pair attached to a point of the fundamental
        band: rho1 = [lo, hi) and its intersection with rho0, which is
        [lo, min(below, hi)) with [max(upto, lo), hi) as 0 <= lo and
        hi <= L.  The four ranks are the key of the pair."""
        key = lo, hi, below, upto = self.ranks(w)
        out = self._pairs.get(key)
        if out is None:
            out = self._pairs[key] = (
                self.model(((lo, hi),)),
                self.model(((lo, min(below, hi)), (max(upto, lo), hi))))
        return out

    def basis(self, a: Subcomplex, b: Subcomplex, n: int) -> CohomBasis:
        key = (n, a, b)
        out = self._bases.get(key)
        if out is None:
            out = relative_cohomology(a, b, n, self.p, self.split.index)
            self._bases[key] = out
        return out

    def inclusion(self, src: CohomBasis, dst: CohomBasis) -> Mat:
        """The map induced by an inclusion of pairs, from a cached basis to
        a cached basis of this evaluator; the two objects name the pairs
        and the degree."""
        key = (id(src), id(dst))
        out = self._induced.get(key)
        if out is None:
            out = induced_map(src, dst)
            self._induced[key] = out
        return out

    def connecting(self, source: "FunctorEvaluator", pw, p1, p2, pu, n: int) -> Mat:
        """Mayer-Vietoris connecting map H^n(pu) -> H^{n+1}(pw) of a triad of
        open-model pairs on this split complex, the degree n basis taken
        from the source evaluator."""
        return mv_connecting(pw, p1, p2, pu, n, self.p, self.split.index,
                             source.basis(*pu, n), self.basis(*pw, n + 1))


def point_data(ev: FunctorEvaluator,
               key: Key) -> Tuple[int, Optional[int], Optional[CohomBasis]]:
    """Dimension, tile index and basis of the evaluated functor at one point
    of the evaluator's coordinate table (dimension 0 with no basis outside
    the supported range)."""
    out = ev._points.get(key)
    if out is not None:
        return out
    table = ev.table
    if table.location[key] != "interior":
        out = (0, None, None)
    else:
        n = table.tile[key]
        if n < 0 or n > ev.max_degree:
            out = (0, n, None)
        else:
            basis = ev.basis(*ev.pair_at(table.power(n)(key)), n)
            out = (basis.dim, n, basis)
    ev._points[key] = out
    return out


def internal_map(ev: FunctorEvaluator, lo: Key, hi: Key) -> Mat:
    """Matrix of the structure map from the value at hi to the value at lo
    for any comparable pair lo below hi.  Same tile: restriction-induced.
    One tile apart with hi below T(lo): connecting map of the rectangle
    triad from u = T^n(hi) to w = T^(n+1)(lo).  Further apart: the map
    factors through a vanishing value, hence zero."""
    table = ev.table
    if not table.precedes(lo, hi):
        raise ValueError("points are not comparable in the given order")
    d_lo, n_lo, b_lo = point_data(ev, lo)
    d_hi, n_hi, b_hi = point_data(ev, hi)
    if d_lo == 0 or d_hi == 0:
        return Mat.zeros(d_lo, d_hi, ev.p)
    if n_lo == n_hi:
        return ev.inclusion(b_hi, b_lo)
    if n_lo == n_hi + 1:
        u = table.power(n_hi)(hi)
        w = table.power(n_lo)(lo)
        if table.precedes(u, w):
            return ev.connecting(ev, ev.pair_at(w), ev.pair_at((u[0], w[1])),
                                 ev.pair_at((w[0], u[1])), ev.pair_at(u), n_hi)
    return Mat.zeros(d_lo, d_hi, ev.p)


def assemble_module(ev: FunctorEvaluator, transform=None) -> GridModule:
    """Evaluate the functor on every sample of the evaluator's grid,
    optionally after a pointwise order-preserving transform of the sample
    keys, and assemble the grid module of values and covering-pair
    structure maps on the evaluator's coordinate table.  A map is built
    only between two nonzero spaces, as a module dump stores it; the
    module's `map_at` reads any other one as the zero matrix.  Two nonzero
    neighbors must lie in the same tile or in consecutive ones."""
    m = GridModule(ev.table, {}, {}, ev.p)
    dims = m.dims
    tiles: Dict[Key, int] = {}
    keys: Dict[Key, Key] = {}
    for idx in m.samples():
        key = idx if transform is None else transform(idx)
        keys[idx] = key
        d, n, _ = point_data(ev, key)
        dims[idx] = d
        if n is not None:
            tiles[idx] = n

    for idx in [s for s, d in dims.items() if d]:
        for up in m.up(idx):
            if not dims.get(up):
                continue
            if tiles[idx] - tiles[up] not in (0, 1):
                raise AssertionError(
                    f"adjacent samples {idx}, {up} differ by "
                    f"{tiles[idx] - tiles[up]} tiles"
                )
            m.maps[(idx, up)] = internal_map(ev, keys[idx], keys[up])
    return m


@dataclass
class JointContext:
    """A complex split finely enough to evaluate several of its functions
    at shifted sample points, with one cached evaluator per function."""

    complex: PLComplex
    split: PLComplex
    evaluators: Dict[int, FunctorEvaluator]
    table: CoordTable

    def evaluator(self, func: int) -> FunctorEvaluator:
        return self.evaluators[func]


def joint_context(k: PLComplex, funcs: Sequence[int] = (0, 1), shifts=(),
                  p: int = 2, cap: int = DEFAULT_CAP, trace=None,
                  table: Optional[CoordTable] = None) -> JointContext:
    """Build the shared sample grid and the jointly split complex for the
    given functions and shift amounts.  A context whose points must be
    compared with another's takes the other's coordinate table and with it
    the other's grid."""
    funcs = sorted(set(funcs))
    check_funcs(k, *funcs)
    if table is None:
        table = sample_table(k, funcs, k.dim())
    split = split_all(k, joint_levels(table.grid, shifts), funcs=funcs,
                      cap=cap, trace=trace)
    evs = {func: FunctorEvaluator(split, table, func, p) for func in funcs}
    return JointContext(k, split, evs, table)


def evaluate(k: PLComplex, func: int = 0, p: int = 2,
             cap: int = DEFAULT_CAP) -> RiscResult:
    """Compute the full interlevel-set cohomology module of a PL function
    together with its classified diagram."""
    check_funcs(k, func)
    if not k.values:
        empty = GridModule(CoordTable(()), {}, {}, p)
        return RiscResult(empty, Diagram(), k, func)
    ctx = joint_context(k, [func], (), p, cap=cap)
    module = assemble_module(ctx.evaluator(func))
    diagram = dgm(module)
    for d in diagram.points:
        n, region, pair = classify_region(d.point)
        d.degree = n
        d.region = region
        d.pair = pair
        d.interval = beta_levelset(d.point)
    return RiscResult(module, diagram, ctx.split, func)


def barcode(r: RiscResult) -> List[tuple]:
    """The levelset barcode: one (degree, typed interval, multiplicity)
    entry per diagram point."""
    out = []
    for d in r.diagram.points:
        deg, interval = d.interval
        out.append((deg, interval, d.multiplicity))
    out.sort(key=lambda t: (t[0], repr(t[1])))
    return out
