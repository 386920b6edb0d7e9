"""Exact, float-free model of the strip poset and its symmetries.

Points of the strip live between the two slope -1 lines through (-pi, 0) and
(pi, 0).  Every coordinate is stored as an integer multiple of pi plus the
arctangent of an exact rational (or +infinity, encoding an offset of pi/2), so
all comparisons, the glide reflection T, the shift action alpha, and the
region bookkeeping are decided with rational arithmetic only.  The two
infinities are the only floats in the model, and they compare exactly with
every Fraction.

Tiles are read off the coordinates.  In the strip interior the fundamental
domain is -2*pi < y - x <= 0 and T adds 2*pi to y - x, so the tile index of
(x, y) is floor((x - y) / (2*pi)), which the integer parts of the two
coordinates and one comparison of their offsets decide exactly.

A sample grid meets only a small, fixed set of coordinates: T and the shift
action act on each strip coordinate separately.  `CoordTable` interns the
coordinates of one grid to integer ids (the grid lines first, so a grid index
is its id) and fills its maps on first use: the run of a grid row by two
bisections, the location of a point by one exact call, the tile index of a
point (ix, iy), the per-coordinate id maps of T^n and of every shift, and
the rank maps that count the sorted values of a function whose arctangent
lies below a coordinate.  Repeated geometry on the grid, the support of a
block, the band of a shifted sample and the open sets of rho included, is
then a lookup on ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union


INF = math.inf
NEG_INF = -math.inf

# Interval endpoints may be -inf; a Coord's offset never is.
ExtRational = Union[Fraction, float]


@dataclass(frozen=True, order=False)
class Coord:
    """The real number k*pi + arctan(v), with arctan(v) in (-pi/2, pi/2].

    v = +inf encodes an offset of exactly pi/2, and a Coord stores the INF
    object itself for it, so `c.v is INF` tests it.  The representation
    (k, -inf) is forbidden; construction canonicalizes it to (k - 1, INF).
    """

    k: int
    v: ExtRational

    def __post_init__(self):
        if isinstance(self.v, Fraction):
            return
        if self.v == NEG_INF:
            object.__setattr__(self, "k", self.k - 1)
            object.__setattr__(self, "v", INF)
        else:
            object.__setattr__(self, "v", INF if self.v == INF else Fraction(self.v))

    def __lt__(self, other):
        if self.k != other.k:
            return self.k < other.k
        return self.v < other.v

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return other <= self

    def __neg__(self):
        return Coord(-self.k, -self.v)

    def shift_pi(self, m: int) -> "Coord":
        return Coord(self.k + m, self.v)

    def pi_minus(self, m: int) -> "Coord":
        """The coordinate m*pi - self."""
        return (-self).shift_pi(m)

    def to_float(self) -> float:
        """k*pi + arctan(v) as a float, for display.  An offset too large
        for a float is drawn at +-pi/2, where its arctangent rounds to."""
        try:
            a = math.atan(self.v)
        except OverflowError:
            a = math.pi / 2 if self.v > 0 else -math.pi / 2
        return self.k * math.pi + a

    def __repr__(self):
        return f"({self.k},{self.v})"


# pi/2 and -pi/2 in the Coord encoding.
HALF_PI = Coord(0, INF)
NEG_HALF_PI = Coord(-1, INF)


@dataclass(frozen=True)
class StripPoint:
    x: Coord
    y: Coord

    def __repr__(self):
        return f"[{self.x};{self.y}]"


@dataclass(frozen=True)
class ShiftVector:
    """A pair of rationals ordered like the strip: a before b iff
    a1 >= b1 and a2 <= b2."""

    a1: Fraction
    a2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a1", Fraction(self.a1))
        object.__setattr__(self, "a2", Fraction(self.a2))

    def __add__(self, other: "ShiftVector") -> "ShiftVector":
        return ShiftVector(self.a1 + other.a1, self.a2 + other.a2)

    def precedes(self, other: "ShiftVector") -> bool:
        return self.a1 >= other.a1 and self.a2 <= other.a2


# ---------------------------------------------------------------------------
# Membership in the strip


def strip_location(p: StripPoint) -> str:
    """Exact membership test: 'interior', 'boundary', or 'outside'.

    The strip is -pi <= x + y <= pi.  Let s = x.k + y.k, plus 1 when both
    offsets are pi/2: then x + y = s*pi exactly.  Otherwise x + y = s*pi + t
    with t in (-pi, pi) of the sign of x.v + y.v, or positive when one
    offset is pi/2.  So s = 0 is interior and |s| > 1 outside; for |s| = 1
    the point is on the boundary when t = 0, else inside when t and s have
    opposite signs."""
    xv, yv = p.x.v, p.y.v
    both_inf = xv is INF and yv is INF
    s = p.x.k + p.y.k + both_inf
    if s == 0:
        return "interior"
    if s != 1 and s != -1:
        return "outside"
    if both_inf:
        return "boundary"
    t = 1 if xv is INF or yv is INF else xv + yv
    if t == 0:
        return "boundary"
    return "interior" if (t < 0) == (s > 0) else "outside"


def in_strip(p: StripPoint) -> bool:
    return strip_location(p) != "outside"


def _require_in_strip(p: StripPoint):
    if not in_strip(p):
        raise ValueError(f"point {p} lies outside the strip")


# ---------------------------------------------------------------------------
# The glide reflection T and the shift action alpha


def t_power(p: StripPoint, n: int) -> StripPoint:
    """Apply T n times (or its inverse -n times).

    T(x, y) = (-pi - y, pi - x) and T^2 is the translation by (-2*pi, 2*pi),
    so T^n moves x by -n*pi and y by n*pi, after the two coordinates are
    swapped and negated for odd n: T^n(x, y) = (-n*pi - y, n*pi - x).  T^2
    keeps x + y, so only an odd power checks that p lies in the strip."""
    if n % 2 == 0:
        return StripPoint(p.x.shift_pi(-n), p.y.shift_pi(n))
    _require_in_strip(p)
    return StripPoint(p.y.pi_minus(-n), p.x.pi_minus(n))


def _alpha_coord(c: Coord, even_shift: Fraction, odd_shift: Fraction) -> Coord:
    if c.v is INF:
        return c
    if c.k % 2 == 0:
        return Coord(c.k, c.v + even_shift)
    return Coord(c.k, c.v - odd_shift)


def alpha_apply(a: ShiftVector, p: StripPoint) -> StripPoint:
    """The exact coordinate action of the shift by a = (a1, a2)."""
    _require_in_strip(p)
    return StripPoint(
        _alpha_coord(p.x, a.a1, a.a2),
        _alpha_coord(p.y, a.a2, a.a1),
    )


def omega_apply(delta: Fraction, p: StripPoint) -> StripPoint:
    """The one-parameter superlinear family: the shift by (-delta, delta)."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("omega requires a nonnegative parameter")
    return alpha_apply(ShiftVector(-delta, delta), p)


# ---------------------------------------------------------------------------
# Open subsets of the real line


@dataclass(frozen=True)
class RealOpenSet:
    """A finite union of disjoint open intervals, sorted by left endpoint.

    Endpoints are exact rationals or the two infinities."""

    intervals: Tuple[Tuple[ExtRational, ExtRational], ...]

    @staticmethod
    def make(intervals: Iterable[Tuple[ExtRational, ExtRational]]) -> "RealOpenSet":
        """Normalize: drop empty intervals, sort, merge overlapping ones."""
        norm = sorted((lo, hi) for lo, hi in intervals if lo < hi)
        merged = []
        for lo, hi in norm:
            if merged and lo <= merged[-1][1]:
                # Open intervals merge only on genuine overlap; touching ones
                # (lo == previous hi) stay separate.
                if lo < merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                    continue
            merged.append((lo, hi))
        return RealOpenSet(tuple(merged))

    @staticmethod
    def whole_line() -> "RealOpenSet":
        return RealOpenSet(((NEG_INF, INF),))

    @staticmethod
    def empty() -> "RealOpenSet":
        return RealOpenSet(())


@dataclass(frozen=True)
class TypedInterval:
    """An interval with per-endpoint open/closed flags; may be a point or
    empty (empty is represented by `None` at the call sites)."""

    lo: ExtRational
    hi: ExtRational
    lo_closed: bool
    hi_closed: bool


# ---------------------------------------------------------------------------
# The map rho


def rho(p: StripPoint) -> Tuple[RealOpenSet, RealOpenSet]:
    """The pair of open subsets of the line attached to a strip point.

    The first component collects the levels t with -pi - y < arctan t
    < pi - x; the second is the complement of {t : y <= arctan t <= x}."""
    _require_in_strip(p)

    # First component: one open interval, clamped to the range of arctan.
    lowc = p.y.pi_minus(-1)   # the coordinate -pi - y
    upc = p.x.pi_minus(1)     # the coordinate pi - x
    if lowc >= HALF_PI or upc <= NEG_HALF_PI:
        rho1 = RealOpenSet.empty()
    else:
        lo = NEG_INF if lowc <= NEG_HALF_PI else lowc.v
        hi = INF if upc >= HALF_PI else upc.v
        rho1 = RealOpenSet.make([(lo, hi)])

    # Second component: complement of a closed arctan-interval; at most two
    # open rays.
    if p.y > p.x or p.y >= HALF_PI or p.x <= NEG_HALF_PI:
        rho0 = RealOpenSet.whole_line()
    else:
        rays = []
        if p.y > NEG_HALF_PI:
            # here p.y = (0, v) with v finite
            rays.append((NEG_INF, p.y.v))
        if p.x < HALF_PI:
            rays.append((p.x.v, INF))
        rho0 = RealOpenSet.make(rays)
    return rho1, rho0


# ---------------------------------------------------------------------------
# Fundamental domain and tiles


def in_diag_downset(p: StripPoint) -> bool:
    """Membership in the downset of the diagonal embedding's image."""
    return p.y <= p.x and p.y <= HALF_PI and p.x >= NEG_HALF_PI


def tile_index(p: StripPoint) -> int:
    """The unique n such that applying T n times lands in the fundamental
    domain.  Only defined away from the strip boundary.

    Inside the strip the fundamental domain is -2*pi < y - x <= 0, and each
    T adds 2*pi to y - x, so n = floor((x - y) / (2*pi)).  With m = x.k - y.k
    that is m // 2, less one when m is even and arctan(y.v) > arctan(x.v)."""
    if strip_location(p) != "interior":
        raise ValueError(f"tile index undefined for non-interior point {p}")
    return _tile_of(p.x, p.y)


def _tile_of(x: Coord, y: Coord) -> int:
    """floor((x - y) / (2*pi)) for an interior point (x, y)."""
    m = x.k - y.k
    n = m // 2
    if m % 2 == 0 and y.v > x.v:
        n -= 1
    return n


# ---------------------------------------------------------------------------
# Region classification and the levelset bijection

ORD = "Ord"
REL = "Rel"
EXT = "Ext"


def classify_region(u: StripPoint):
    """Classify a diagram point: returns (degree n, region, classical pair).

    The degree is the unique n whose T-translate q has q.x > -pi/2 and
    q.y >= -pi/2: the tile index, or one more when the fundamental-domain
    representative lies below y = -pi/2.  Births/deaths at exactly pi/2
    count as absolute."""
    if strip_location(u) != "interior" or not in_diag_downset(u):
        raise ValueError(f"not a diagram point: {u}")
    n = tile_index(u)
    q = t_power(u, n)
    if not (q.x > NEG_HALF_PI and q.y >= NEG_HALF_PI):
        n, q = n + 1, t_power(q, 1)
    birth_rel = q.x < HALF_PI
    death_abs = q.y < HALF_PI
    if birth_rel and death_abs:
        region = EXT
        pair = (q.y.v, q.x.v)
    elif birth_rel:
        region = REL
        pair = (-q.y.v, q.x.v)
    elif death_abs:
        region = ORD
        pair = (q.y.v, -q.x.v)
    else:
        raise AssertionError(f"forbidden (absolute birth, relative death) at {u}")
    return n, region, pair


def beta_levelset(u: StripPoint) -> Tuple[int, Optional[TypedInterval]]:
    """The levelset bar of a diagram point: its tile index together with the
    part of the first rho component at the fundamental-domain representative
    q that lies in [q.y, q.x] (the second component is the complement of
    that interval).  In the arctan scale the first component is the open
    interval from max(-pi - q.y, -pi/2) to min(pi - q.x, pi/2); an end that
    [q.y, q.x] cuts off is closed.  The ends -pi/2 and pi/2 read NEG_INF
    and INF, any other end its offset."""
    n = tile_index(u)
    q = t_power(u, n)
    lo, hi = max(q.y.pi_minus(-1), NEG_HALF_PI), min(q.x.pi_minus(1), HALF_PI)
    lo_closed, hi_closed = q.y > lo, q.x < hi
    lo, hi = max(lo, q.y), min(hi, q.x)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return n, None
    return n, TypedInterval(NEG_INF if lo == NEG_HALF_PI else lo.v, hi.v, lo_closed, hi_closed)


# ---------------------------------------------------------------------------
# Integer coordinate tables

# A point of a coordinate table: the ids of its two coordinates.
Key = Tuple[int, int]


class _Lazy(dict):
    """A dict that fills a missing entry with one call of fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        out = self[key] = self.fill(key)
        return out


class CoordTable:
    """Integer ids for the coordinates met on one sample grid.

    The strictly increasing list `grid` holds the coordinates of both axes
    of the sample grid.

    The grid coordinates come first, so the grid index of a coordinate is
    its id; a coordinate reached off the grid (by T or a shift) gets the next
    free id when first met.  A point is the pair of its coordinate ids.  The
    maps are filled on first use.  `runs[i]` holds the columns [lo, hi) of
    the grid points of row i in the strip, found by two bisections, and
    `row_samples[i]` those points, storing `location` (strip_location) for
    all but the two ends; any other `location` is one exact call per point.
    `tile` (tile_index) is read off an interior point's coordinates, and
    `_le` is the order behind `precedes`; `block(v)` lists the support of
    the block at v row by row, reading T^-1(v) once and bisecting the grid
    for the rows and columns it can reach.
    The key maps `power(n)` (t_power) and `shift(a)` (alpha_apply) act on
    each coordinate on its own, so each is a pair of per-coordinate id maps,
    filled one coordinate function call per id.  Unlike t_power and
    alpha_apply, they do not check that a key lies in the strip.
    `rank_map(levels, side)` is a per-coordinate id map for a caller that
    holds the sorted levels, one bisection per id.  A point lies in the
    fundamental domain exactly when its tile is 0.  `samples` joins the
    rows in order, so the grid points in the strip are listed once.  The
    fills close over the table's containers, never over the table, so no
    cycle keeps a table alive after its last user drops it."""

    def __init__(self, grid: Sequence[Coord]):
        self.grid = tuple(grid)
        self.coords: List[Coord] = list(self.grid)
        if any(not a < b for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid coordinates must be strictly increasing")
        self.ids: Dict[Coord, int] = {c: i for i, c in enumerate(self.coords)}
        coords = self.coords
        self.point = partial(_point, coords)
        self.location = _Lazy(lambda key: strip_location(_point(coords, key)))
        self.tile = _Lazy(partial(_tile, coords, self.location))
        self._le = _Lazy(lambda ab: coords[ab[0]] <= coords[ab[1]])
        self.runs = _Lazy(partial(_run, self.grid))
        self.row_samples = _Lazy(partial(_row, self.runs, self.location))
        self.intern = partial(_intern, coords, self.ids)
        self._coord_map = partial(_coord_map, {}, coords, self.intern)
        self._powers = _Lazy(partial(_power_map, self._coord_map))

    @cached_property
    def samples(self) -> Tuple[Key, ...]:
        """The grid points in the strip, row by row."""
        return tuple(s for i in range(len(self.grid)) for s in self.row_samples[i])

    def precedes(self, lo: Key, hi: Key) -> bool:
        """The strip's partial order on keys: lo comes before hi when
        lo.x >= hi.x and lo.y <= hi.y."""
        return self._le[(hi[0], lo[0])] and self._le[(lo[1], hi[1])]

    def block(self, v: Key) -> Tuple[Key, ...]:
        """The support of the indecomposable block at a grid index v, row
        by row: the interior samples below v and strictly above T^-1(v) in
        both coordinates, so in the rows from v's to the one before T^-1(v)'s
        and in the columns past T^-1(v)'s up to v's."""
        grid, w = self.grid, self.power(-1)(v)
        lo = bisect_right(grid, self.coords[w[1]])
        return tuple(s for i in range(v[0], bisect_left(grid, self.coords[w[0]]))
                     for s in self.row_samples[i]
                     if lo <= s[1] <= v[1] and self.location[s] == "interior")

    def rank_map(self, levels: Sequence[Fraction], side: Callable) -> Dict[int, int]:
        """The id map that counts the sorted levels t before a coordinate c:
        arctan t < c for side bisect_left, arctan t <= c for bisect_right."""
        coords = self.coords

        def fill(i: int) -> int:
            c = coords[i]
            if c <= NEG_HALF_PI:
                return 0
            if c >= HALF_PI:
                return len(levels)
            return side(levels, c.v)
        return _Lazy(fill)

    def power(self, n: int) -> Callable[[Key], Key]:
        """The key map of T^n, built once per n."""
        return self._powers[n]

    def shift(self, a: ShiftVector) -> Callable[[Key], Key]:
        """The key map of the shift action of a: alpha_apply acts on x by
        the pair (a1, a2) and on y by (a2, a1)."""
        xmap = self._coord_map(_alpha_coord, a.a1, a.a2)
        ymap = self._coord_map(_alpha_coord, a.a2, a.a1)
        return lambda key: (xmap[key[0]], ymap[key[1]])


def _intern(coords: List[Coord], ids: Dict[Coord, int], c: Coord) -> int:
    i = ids.get(c)
    if i is None:
        i = ids[c] = len(coords)
        coords.append(c)
    return i


def _point(coords: List[Coord], key: Key) -> StripPoint:
    return StripPoint(coords[key[0]], coords[key[1]])


def _run(grid: Tuple[Coord, ...], i: int) -> Tuple[int, int]:
    """For x = grid[i] the strip holds the y with -pi - x <= y <= pi - x:
    the columns [lo, hi) of one run of the grid."""
    x = grid[i]
    return bisect_left(grid, x.pi_minus(-1)), bisect_right(grid, x.pi_minus(1))


def _row(runs: Dict[int, Tuple[int, int]], location: Dict[Key, str], i: int) -> Tuple[Key, ...]:
    """The samples of row i: only the two ends of its run can lie on the
    boundary, so the rest are interior and the ends are located when read."""
    row = tuple((i, j) for j in range(*runs[i]))
    location.update(dict.fromkeys(row[1:-1], "interior"))
    return row


def _tile(coords: List[Coord], location: Dict[Key, str], key: Key) -> int:
    """tile_index of an interior key, read off its coordinates."""
    if location[key] != "interior":
        raise ValueError(f"tile index undefined for non-interior point {_point(coords, key)}")
    return _tile_of(coords[key[0]], coords[key[1]])


def _coord_map(maps: Dict[tuple, _Lazy], coords: List[Coord], intern: Callable[[Coord], int],
               f: Callable[..., Coord], *args) -> Dict[int, int]:
    """The id map of the coordinate function c -> f(c, *args), kept in maps."""
    out = maps.get((f, args))
    if out is None:
        out = maps[(f, args)] = _Lazy(lambda i: intern(f(coords[i], *args)))
    return out


def _power_map(coord_map: Callable[..., Dict[int, int]], n: int) -> Callable[[Key], Key]:
    """The key map of T^n from the coordinate maps of t_power, which swaps
    the coordinates for odd n."""
    if n % 2 == 0:
        xmap, ymap = coord_map(Coord.shift_pi, -n), coord_map(Coord.shift_pi, n)
        return lambda key: (xmap[key[0]], ymap[key[1]])
    xmap, ymap = coord_map(Coord.pi_minus, -n), coord_map(Coord.pi_minus, n)
    return lambda key: (xmap[key[1]], ymap[key[0]])
