"""Assembling the interlevel-set cohomology module of a PL function.

Every sample of a strip grid is sent by the appropriate power of the
automorphism T into the fundamental band, where its value is the relative
cohomology of the open models of the attached pair of open sets.  Maps
within a tile are restriction-induced; maps across a tile boundary are the
Mayer-Vietoris connecting maps of the rectangle triads.  On top of the
resulting GridModule sit the diagram, its region classification, the
levelset barcode and the fiberwise dimension check.

One builder, `joint_context`, makes the sample grid, the split complex and
one evaluator per function for every entry point: `evaluate` asks for one
function and no shift, `interleave` for several functions and the shift
amounts of its transformations.  The grid lines lie on the fixed window of
translates T^-3..T^3.  An evaluator owns its degree bound, one above the
dimension of its split complex.

An evaluator works over the integer coordinate table of its sample grid
(`exact_geometry.CoordTable`): points are pairs of coordinate ids, the
per-point cache is keyed by them, and the location, tile index and
translates of a point are table lookups.  A point is turned back into a
StripPoint only where its pair of open sets is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_geometry import (
    Coord,
    CoordTable,
    INF,
    Key,
    NEG_INF,
    RealOpenSet,
    beta_levelset,
    classify_region,
    rho,
)
from .field_linalg import Mat
from .plc import (
    CohomBasis,
    LevelGrid,
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

TRANSLATES = range(-3, 4)  # the grid lines lie on the translates T^-3..T^3
DEFAULT_CAP = 20000


@dataclass
class RiscResult:
    module: GridModule
    diagram: Diagram
    grid: LevelGrid
    split: PLComplex
    func: int = 0


def build_lines(critical) -> List[Coord]:
    """The grid lines: every critical value and its negative on every
    translate in the window, together with the half-pi lines.  The family is
    closed under negation and under shifts, hence the sample grid is closed
    under T."""
    out = {Coord(TRANSLATES[0] - 1, INF)}
    for k in TRANSLATES:
        out.add(Coord(k, INF))
        for lam in critical:
            out.add(Coord(k, Fraction(lam)))
            out.add(Coord(k, Fraction(-lam)))
    return sorted(out)


def shift_closure(amounts) -> List[Fraction]:
    out = {Fraction(0)}
    for s in amounts:
        s = Fraction(s)
        out.add(s)
        out.add(-s)
    return sorted(out)


def joint_levels(xs: Sequence[Coord], shifts) -> List[Fraction]:
    """Split levels covering every finite grid value moved by every shift
    amount and its negative, plus midpoints of consecutive values, so that
    all open sets met during shifted evaluation have split endpoints and
    contain a split level whenever their preimage is nonempty."""
    base = sorted({x.v for x in xs if isinstance(x.v, Fraction)})
    vals = sorted({v + s for v in base for s in shift_closure(shifts)})
    out = list(vals)
    for a, b in zip(vals, vals[1:]):
        out.append((a + b) / 2)
    return sorted(out)


class FunctorEvaluator:
    """Evaluates the pair-cohomology functor of one PL function on a split
    complex, with caching keyed by the open models so that the cell
    constancy of the functor is exploited.  Points are keys of the
    coordinate table of the sample grid.  Relative cohomology vanishes
    above the dimension of the split complex, so values in degrees above
    max_degree = dim + 1 are zero without being computed."""

    def __init__(self, split: PLComplex, table: CoordTable, func: int = 0,
                 p: int = 2):
        self.split = split
        self.table = table
        self.func = func
        self.p = p
        self.max_degree = split.dim() + 1
        self._models: Dict[RealOpenSet, Subcomplex] = {}
        self._points: Dict[Key, tuple] = {}
        self._bases: Dict[tuple, CohomBasis] = {}
        self._induced: Dict[tuple, Mat] = {}
        self._connecting: Dict[tuple, Mat] = {}

    def model(self, u: RealOpenSet) -> Subcomplex:
        out = self._models.get(u)
        if out is None:
            out = open_model(self.split, u, self.func)
            self._models[u] = out
        return out

    def pair_at(self, w: Key) -> Tuple[Subcomplex, Subcomplex]:
        """Open models of the pair attached to a point of the fundamental
        band."""
        rho1, rho0 = rho(self.table.point(w))
        a = self.model(rho1)
        b = self.model(rho0.intersect(rho1))
        return a, b

    def basis(self, a: Subcomplex, b: Subcomplex, n: int) -> CohomBasis:
        key = (n, a, b)
        out = self._bases.get(key)
        if out is None:
            out = relative_cohomology(a, b, n, self.p, self.split.index)
            self._bases[key] = out
        return out

    def basis_at(self, w: Key, n: int) -> CohomBasis:
        a, b = self.pair_at(w)
        return self.basis(a, b, n)

    def inclusion(self, src: CohomBasis, dst: CohomBasis) -> Mat:
        key = ("inc", src.degree, id(src), id(dst))
        out = self._induced.get(key)
        if out is None:
            out = induced_map(src, dst)
            self._induced[key] = out
        return out

    def connecting(self, u: Key, w: Key, n: int) -> Mat:
        """Mayer-Vietoris connecting map of the rectangle triad spanned by
        u (the intersection corner) and w (the union corner) inside the
        fundamental band."""
        v1 = (u[0], w[1])
        v2 = (w[0], u[1])
        pw = self.pair_at(w)
        p1 = self.pair_at(v1)
        p2 = self.pair_at(v2)
        pu = self.pair_at(u)
        key = ("con", n, pw, p1, p2, pu)
        out = self._connecting.get(key)
        if out is None:
            out = mv_connecting(
                pw, p1, p2, pu, n, self.p, self.split.index,
                src=self.basis(*pu, n), dst=self.basis(*pw, n + 1),
            )
            self._connecting[key] = out
        return out


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
            basis = ev.basis_at(table.power(n)[key], n)
            out = (basis.dim, n, basis)
    ev._points[key] = out
    return out


def internal_map(ev: FunctorEvaluator, lo: Key, hi: Key) -> Mat:
    """Matrix of the structure map from the value at hi to the value at lo
    for any comparable pair lo below hi.  Same tile: restriction-induced.
    One tile apart with hi below T(lo): connecting map.  Further apart: the
    map factors through a vanishing value, hence zero."""
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
        u = table.power(n_hi)[hi]
        w = table.power(n_lo)[lo]
        if table.precedes(u, w):
            return ev.connecting(u, w, n_hi)
    return Mat.zeros(d_lo, d_hi, ev.p)


def assemble_module(ev: FunctorEvaluator, transform=None) -> GridModule:
    """Evaluate the functor on every sample of the evaluator's grid,
    optionally after a pointwise order-preserving transform of the sample
    keys, and assemble the grid module of values and covering-pair
    structure maps."""
    xs = ev.table.grid
    m = GridModule(xs, xs, {}, {}, ev.p)
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

    for idx, d in dims.items():
        i, j = idx
        for up in ((i - 1, j), (i, j + 1)):
            if up not in dims:
                continue
            if d and dims[up] and tiles[idx] - tiles[up] not in (0, 1):
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
        critical = {k.value(v, func) for v in k.values for func in funcs}
        table = CoordTable(refine_lines(build_lines(critical)))
    split = split_all(k, joint_levels(table.grid, shifts), funcs=funcs,
                      cap=cap, trace=trace)
    evs = {func: FunctorEvaluator(split, table, func, p) for func in funcs}
    return JointContext(k, split, evs, table)


def evaluate(k: PLComplex, func: int = 0, p: int = 2,
             cap: int = DEFAULT_CAP) -> RiscResult:
    """Compute the full interlevel-set cohomology module of a PL function
    together with its classified diagram."""
    if not k.values:
        empty = GridModule((), (), {}, {}, p)
        return RiscResult(empty, Diagram(), LevelGrid((), ()), k, func)
    ctx = joint_context(k, [func], (), p, cap=cap)
    module = assemble_module(ctx.evaluator(func))
    diagram = dgm(module)
    for d in diagram.points:
        n, region, pair = classify_region(d.point)
        d.degree = n
        d.region = region
        d.pair = pair
        d.interval = beta_levelset(d.point)
    grid = LevelGrid.from_values(x[func] for x in k.values.values())
    return RiscResult(module, diagram, grid, ctx.split, func)


def barcode(r: RiscResult) -> List[tuple]:
    """The levelset barcode: one (degree, typed interval, multiplicity)
    entry per diagram point."""
    out = []
    for d in r.diagram.points:
        deg, interval = d.interval
        out.append((deg, interval, d.multiplicity))
    out.sort(key=lambda t: (t[0], repr(t[1])))
    return out


def fiber_dimension_check(r: RiscResult, t) -> Optional[tuple]:
    """At a regular level t, the bars containing t must count the fiber
    cohomology dimensions degree by degree."""
    t = Fraction(t)
    if t in r.grid.critical:
        raise ValueError("t must be a regular value")
    lo = max((v for v in r.grid.critical if v < t), default=None)
    hi = min((v for v in r.grid.critical if v > t), default=None)
    u = RealOpenSet.make([(NEG_INF if lo is None else lo, INF if hi is None else hi)])
    fiber, empty = open_model(r.split, u, r.func), r.split.index.subcomplex(())
    top = r.split.dim()
    for n in range(top + 2):
        counted = sum(
            d.multiplicity
            for d in r.diagram.points
            if d.interval[0] == n and d.interval[1] is not None
            and d.interval[1].contains(t)
        )
        want = relative_cohomology(fiber, empty, n, r.module.p, r.split.index).dim
        if counted != want:
            return (t, n, counted, want)
    return None
