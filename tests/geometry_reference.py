"""Test-only references for the exact strip geometry.

Point-wise constructors and the strip order on StripPoints, the
intersection of two open subsets of the line, strip membership case by case
in x.k + y.k and the levelset bar as the difference of the two rho
components (the package decides both in closed form), the
fundamental domain as the diagonal downset minus its T-preimage,
brute-force searches for the closed-form tile index and region degree (each
tries every power of T in a fixed window and insists that exactly one
qualifies), the block support on strip points, the sample-grid bookkeeping
recomputed point by point, and a floating-point oracle of the transcendental
definitions.  Tests compare the exact code against them.
"""

import math
from typing import Optional, Tuple

from riscpl.exact_geometry import (
    HALF_PI,
    INF,
    NEG_HALF_PI,
    NEG_INF,
    Coord,
    RealOpenSet,
    ShiftVector,
    StripPoint,
    TypedInterval,
    in_diag_downset,
    rho,
    strip_location,
    t_power,
    tile_index,
)

WINDOW = 16


def point(xk, xv, yk, yv) -> StripPoint:
    """The strip point (xk*pi + arctan(xv), yk*pi + arctan(yv))."""
    return StripPoint(Coord(xk, xv), Coord(yk, yv))


def precedes(p: StripPoint, q: StripPoint) -> bool:
    """The strip's partial order: p comes before q when its x is at least
    q's and its y is at most q's."""
    return p.x >= q.x and p.y <= q.y


def intersect(u: RealOpenSet, v: RealOpenSet) -> RealOpenSet:
    """The intersection of two open subsets of the line, interval by
    interval."""
    out = []
    for lo1, hi1 in u.intervals:
        for lo2, hi2 in v.intervals:
            lo = lo1 if lo2 <= lo1 else lo2
            hi = hi1 if hi1 <= hi2 else hi2
            if lo < hi:
                out.append((lo, hi))
    return RealOpenSet.make(out)


def _cmp_v_neg(xv, yv) -> int:
    """Compare arctan(xv) with -arctan(yv); returns -1, 0 or 1."""
    if yv is INF:
        # -arctan(yv) = -pi/2 and arctan(xv) > -pi/2 always.
        return 1
    if xv is INF:
        return 1
    if xv < -yv:
        return -1
    if xv == -yv:
        return 0
    return 1


def strip_location_by_cases(p: StripPoint) -> str:
    """strip_location, one case per value of s = x.k + y.k."""
    s = p.x.k + p.y.k
    both_inf = p.x.v is INF and p.y.v is INF
    if s >= 2:
        return "outside"
    if s <= -2:
        # x + y = -2*pi + arctan(x.v) + arctan(y.v); this reaches -pi only in
        # the corner case where both offsets are pi/2.
        if s == -2 and both_inf:
            return "boundary"
        return "outside"
    if s == 0:
        return "boundary" if both_inf else "interior"
    if s == 1:
        c = _cmp_v_neg(p.x.v, p.y.v)
        if c < 0:
            return "interior"
        if c == 0:
            return "boundary"
        return "outside"
    # s == -1
    c = _cmp_v_neg(p.x.v, p.y.v)
    if c > 0:
        return "interior"
    if c == 0:
        return "boundary"
    return "outside"


def beta_levelset_from_rho(u: StripPoint) -> Tuple[int, Optional[TypedInterval]]:
    """beta_levelset as the difference of the two rho components at the
    fundamental-domain representative."""
    n = tile_index(u)
    rho1, rho0 = rho(t_power(u, n))
    if not rho1.intervals:
        return n, None
    (a, b), = rho1.intervals
    # rho0 is a union of at most two rays (or the whole line); the bar is the
    # part of rho1 outside them.
    c = NEG_INF
    d = INF
    for lo, hi in rho0.intervals:
        if lo is NEG_INF and hi is INF:
            return n, None
        if lo is NEG_INF:
            c = hi
        elif hi is INF:
            d = lo
        else:
            raise AssertionError(f"unexpected rho0 shape at {u}: {rho0}")
    if c is NEG_INF or c <= a:
        lo, lo_closed = a, False
    else:
        lo, lo_closed = c, True
    if d is INF or d >= b:
        hi, hi_closed = b, False
    else:
        hi, hi_closed = d, True
    if lo is not NEG_INF and hi is not INF:
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return n, None
    return n, TypedInterval(lo, hi, lo_closed, hi_closed)


def to_float(p: StripPoint) -> Tuple[float, float]:
    return (p.x.to_float(), p.y.to_float())


def in_shifted_diag_downset(p: StripPoint) -> bool:
    """Membership in the T-preimage of the diagonal downset."""
    return p.x >= HALF_PI and p.y <= NEG_HALF_PI and p.y.shift_pi(2) <= p.x


def in_fundamental_domain(p: StripPoint) -> bool:
    """The fundamental domain: the diagonal downset minus its T-preimage."""
    return in_diag_downset(p) and not in_shifted_diag_downset(p)


def _unique_power(p, accept):
    found = [n for n in range(-WINDOW, WINDOW + 1) if accept(t_power(p, n))]
    assert len(found) == 1, f"{len(found)} qualifying powers for {p}"
    return found[0]


def tile_index_search(p) -> int:
    """The n with T^n(p) in the fundamental domain, found by search."""
    assert strip_location(p) == "interior"
    return _unique_power(p, in_fundamental_domain)


def region_degree_search(u) -> int:
    """The n whose T-translate q has q.x > -pi/2 and q.y >= -pi/2, found by
    search."""
    return _unique_power(u, lambda q: q.x > NEG_HALF_PI and q.y >= NEG_HALF_PI)


class PointMemo:
    """A memo of a function of strip points, keyed by object identity:
    hashing a point hashes its Fractions, which costs about as much as the
    functions memoized here.  Each entry keeps its point alive, so no other
    point can take over its id while the entry exists; the memo empties
    itself when full."""

    def __init__(self, fn, size: int = 1 << 16):
        self.fn = fn
        self.size = size
        self.memo = {}

    def __call__(self, p):
        hit = self.memo.get(id(p))
        if hit is None:
            if len(self.memo) >= self.size:
                self.memo.clear()
            hit = self.memo[id(p)] = (p, self.fn(p))
        return hit[1]


_location = PointMemo(strip_location)
_preimage = PointMemo(lambda v: t_power(v, -1))


def block_contains(v: StripPoint, p: StripPoint) -> bool:
    """Support predicate of the indecomposable block at v: p must be below v
    and interior to the upset of T^-1(v); boundary points never qualify.
    The location of p and the preimage of v are memoized per point, since
    tests sweep one block over many points and many blocks over one grid."""
    if _location(p) != "interior":
        return False
    if not precedes(p, v):
        return False
    w = _preimage(v)
    return p.x < w.x and p.y > w.y


class SampleGridReference:
    """The geometry of a sample grid whose axes share one coordinate list,
    recomputed point by point: one strip_location per grid point, the
    translates by single steps of T or its inverse, and a coordinate ->
    index dict."""

    def __init__(self, xs):
        self.xs = tuple(xs)
        self.index = {c: i for i, c in enumerate(self.xs)}
        self.location = {(i, j): strip_location(StripPoint(x, y))
                         for i, x in enumerate(self.xs) for j, y in enumerate(self.xs)}

    def point(self, idx):
        return StripPoint(self.xs[idx[0]], self.xs[idx[1]])

    def index_of(self, p):
        i, j = self.index.get(p.x), self.index.get(p.y)
        return None if i is None or j is None else (i, j)

    def is_sample(self, idx):
        return self.location.get(idx, "outside") != "outside"

    def is_interior(self, idx):
        return self.location.get(idx) == "interior"

    def samples(self):
        """The grid points in the strip, row by row."""
        return [idx for idx in sorted(self.location) if self.is_sample(idx)]

    def vertex_indices(self):
        return [(i, j) for i, j in self.samples() if i % 2 == 0 and j % 2 == 0]

    def t_index(self, idx, power=1):
        """The index of T^power of a sample, by |power| steps of T or of
        its inverse."""
        if not self.is_sample(idx):
            return None
        p = self.point(idx)
        for _ in range(abs(power)):
            p = t_power(p, 1 if power > 0 else -1)
        return self.index_of(p)


# ---------------------------------------------------------------------------
# Floating-point oracle
#
# These evaluate the transcendental definitions of the maps above: the circle
# map phi(s) = (1, s)/sqrt(1+s^2), the piecewise map g_a on the circle, its
# equivariant lift, and the conjugation sigma(t) = pi - t.


def float_g_lift(a: ShiftVector, theta: float) -> float:
    """The lift of the circle self-map associated with a shift, normalized to
    fix pi/2 and commute with full turns."""
    a1 = float(a.a1)
    a2 = float(a.a2)
    m = math.floor((theta + math.pi / 2) / (2 * math.pi))
    th0 = theta - 2 * math.pi * m  # in [-pi/2, 3*pi/2)
    eps = 1e-13
    if abs(th0 + math.pi / 2) < eps:
        r = -math.pi / 2
    elif abs(th0 - math.pi / 2) < eps:
        r = math.pi / 2
    elif th0 < math.pi / 2:
        r = math.atan(math.tan(th0) + a2)
    else:
        r = math.atan(math.tan(th0) - a1) + math.pi
    return r + 2 * math.pi * m


def float_alpha(a: ShiftVector, xy: Tuple[float, float]) -> Tuple[float, float]:
    x, y = xy
    return (math.pi - float_g_lift(a, math.pi - x), float_g_lift(a, y))


def float_t(xy: Tuple[float, float]) -> Tuple[float, float]:
    x, y = xy
    return (-math.pi - y, math.pi - x)


def float_t_inverse(xy: Tuple[float, float]) -> Tuple[float, float]:
    x, y = xy
    return (math.pi - y, -math.pi - x)


def float_rho1_bounds(xy: Tuple[float, float]) -> Tuple[float, float]:
    """Angle-space bounds of the first rho component, clamped to the range of
    arctan."""
    x, y = xy
    return (max(-math.pi - y, -math.pi / 2), min(math.pi - x, math.pi / 2))


def float_in_strip(xy: Tuple[float, float], tol: float = 0.0) -> bool:
    x, y = xy
    return -math.pi - tol <= x + y <= math.pi + tol
