import math
import random
from fractions import Fraction

import pytest

from geometry_reference import (
    beta_levelset_from_rho,
    block_contains,
    float_alpha,
    float_in_strip,
    float_rho1_bounds,
    float_t,
    float_t_inverse,
    in_fundamental_domain,
    intersect,
    point,
    precedes,
    region_degree_search,
    strip_location_by_cases,
    tile_index_search,
    to_float,
)
from riscpl.exact_geometry import (
    INF,
    NEG_INF,
    Coord,
    CoordTable,
    RealOpenSet,
    ShiftVector,
    StripPoint,
    alpha_apply,
    beta_levelset,
    classify_region,
    in_diag_downset,
    in_strip,
    omega_apply,
    rho,
    strip_location,
    t_power,
    tile_index,
)

F = Fraction


def random_coord(rng, allow_inf=True):
    k = rng.randint(-2, 2)
    if allow_inf and rng.random() < 0.1:
        return Coord(k, INF)
    return Coord(k, F(rng.randint(-40, 40), rng.randint(1, 8)))


def random_strip_point(rng, interior=False, allow_inf=True):
    while True:
        p = StripPoint(random_coord(rng, allow_inf), random_coord(rng, allow_inf))
        loc = strip_location(p)
        if loc == "interior" or (loc == "boundary" and not interior):
            return p


def random_shift(rng):
    return ShiftVector(F(rng.randint(-12, 12), rng.randint(1, 4)),
                       F(rng.randint(-12, 12), rng.randint(1, 4)))


# ---------------------------------------------------------------------------
# frozen examples


def test_infinity_sentinels():
    for t in (F(-7, 2), F(0), F(10**9), 3):
        assert t < INF and INF > t and t <= INF and INF >= t
        assert not (INF < t or t > INF or INF <= t or t >= INF)
        assert NEG_INF < t and t > NEG_INF and NEG_INF <= t and t >= NEG_INF
        assert not (t < NEG_INF or NEG_INF > t or t <= NEG_INF or NEG_INF >= t)
        assert INF != t and t != INF and NEG_INF != t and t != NEG_INF
        assert max(t, INF) is INF and min(t, NEG_INF) is NEG_INF
    assert NEG_INF < INF and INF > NEG_INF and NEG_INF <= INF and INF >= NEG_INF
    assert not (INF < NEG_INF or NEG_INF > INF or INF <= NEG_INF or NEG_INF >= INF)
    for s in (INF, NEG_INF):
        assert s == s and s <= s and s >= s and not (s < s or s > s)
    assert INF != NEG_INF and not INF == NEG_INF
    assert -INF == NEG_INF and -NEG_INF == INF
    assert len({INF, NEG_INF, -NEG_INF}) == 2
    assert (repr(INF), repr(NEG_INF)) == ("inf", "-inf")
    for k in (-2, 0, 3):
        assert Coord(k, NEG_INF) == Coord(k - 1, INF)
        assert Coord(k, NEG_INF).v is INF


def test_coord_stores_the_inf_object():
    for k in (-2, 0, 3):
        for x in (INF, float("inf")):
            assert Coord(k, x).v is INF
        assert Coord(k, NEG_INF) == Coord(k, -math.inf) == Coord(k - 1, INF)
        assert -Coord(k, INF) == Coord(-k - 1, INF)
        assert Coord(k, INF).to_float() == k * math.pi + math.pi / 2


def test_to_float_of_an_offset_too_large_for_a_float():
    assert Coord(1, F(10**400)).to_float() == math.pi + math.pi / 2
    assert Coord(0, F(-(10**400), 3)).to_float() == -math.pi / 2
    assert Coord(0, F(10**400)).to_float() == Coord(0, INF).to_float()


def test_t_apply_origin():
    assert t_power(point(0, 0, 0, 0), 1) == point(-1, 0, 1, 0)


def test_t_squared_is_translation():
    p = point(0, 0, 0, 0)
    assert t_power(t_power(p, 1), 1) == point(-2, 0, 2, 0)


def test_t_inverse_examples():
    assert t_power(point(-1, 0, 1, 0), -1) == point(0, 0, 0, 0)
    # cross-checked against the float oracle: (pi - y, -pi - x)
    p = point(1, -1, -2, 2)
    assert t_power(p, -1) == point(3, -2, -2, 1)
    assert t_power(p, 1) == point(1, -2, 0, 1)


def test_t_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        p = random_strip_point(rng)
        assert t_power(t_power(p, 1), -1) == p
        assert t_power(t_power(p, -1), 1) == p
        # T^n is the n-fold composite of T or of its inverse
        for step in (1, -1):
            q = p
            for n in range(0, 5 * step, step):
                assert t_power(p, n) == q
                q = t_power(q, step)


def test_alpha_at_origin():
    a = ShiftVector(F(3), F(-5, 2))
    assert alpha_apply(a, point(0, 0, 0, 0)) == point(0, F(3), 0, F(-5, 2))


def test_alpha_zero_is_identity():
    rng = random.Random(8)
    a0 = ShiftVector(0, 0)
    for _ in range(50):
        p = random_strip_point(rng)
        assert alpha_apply(a0, p) == p


def test_alpha_hood_fixed_points():
    a = ShiftVector(F(-2), F(0))
    assert alpha_apply(a, point(0, 4, 0, 0)) == point(0, 2, 0, 0)
    assert alpha_apply(a, point(1, -1, -2, 2)) == point(1, -1, -2, 2)


def test_omega_examples():
    rng = random.Random(9)
    for _ in range(50):
        p = random_strip_point(rng)
        assert omega_apply(0, p) == p
        assert precedes(p, omega_apply(F(1, 3), p))
    assert omega_apply(1, point(0, 2, 0, 0)) == point(0, 1, 0, 1)
    with pytest.raises(ValueError):
        omega_apply(-1, point(0, 0, 0, 0))


def test_rho_on_diagonal():
    rho1, rho0 = rho(point(0, F(5, 3), 0, F(5, 3)))
    assert rho1 == RealOpenSet.whole_line()
    assert rho0 == RealOpenSet.make([(NEG_INF, F(5, 3)), (F(5, 3), INF)])


def test_rho_examples():
    rho1, rho0 = rho(point(1, -1, 0, 0))
    assert rho1 == RealOpenSet.make([(NEG_INF, 1)])
    assert rho0 == RealOpenSet.make([(NEG_INF, 0)])

    rho1, rho0 = rho(point(0, 2, 0, 0))
    assert rho1 == RealOpenSet.whole_line()
    assert rho0 == RealOpenSet.make([(NEG_INF, 0), (2, INF)])


def test_tile_index_examples():
    assert tile_index(point(0, 0, 0, 0)) == 0
    assert tile_index(point(-1, 0, 1, 0)) == -1
    assert tile_index(point(1, -1, -2, 2)) == 1


def test_tile_index_shift_invariant():
    rng = random.Random(10)
    for _ in range(40):
        p = random_strip_point(rng, interior=True)
        n = tile_index(p)
        for m in (-2, -1, 1, 2):
            assert tile_index(t_power(p, m)) == n - m


def random_interior_point(rng):
    """Interior points over many tiles: |k| <= 8, both parities of
    x.k - y.k, infinite offsets and equal offsets."""
    while True:
        xk = rng.randint(-8, 8)
        yk = -xk + rng.randint(-1, 1)
        x = random_coord(rng)
        y = x if rng.random() < 0.1 else random_coord(rng)
        p = StripPoint(Coord(xk, x.v), Coord(yk, y.v))
        if strip_location(p) == "interior":
            return p


def test_closed_forms_match_search():
    rng = random.Random(12)
    parities, with_inf, diagram_points = set(), 0, 0
    for _ in range(2400):
        p = random_interior_point(rng)
        parities.add((p.x.k - p.y.k) % 2)
        with_inf += p.x.v is INF or p.y.v is INF
        assert tile_index(p) == tile_index_search(p), p
        if in_diag_downset(p):
            diagram_points += 1
            assert classify_region(p)[0] == region_degree_search(p), p
    assert parities == {0, 1}
    assert with_inf > 200 and diagram_points > 500


def test_block_contains_examples():
    rng = random.Random(11)
    for _ in range(40):
        v = random_strip_point(rng, interior=True)
        assert block_contains(v, v)
        assert not block_contains(v, t_power(v, -1))
    v = point(1, -1, 0, 0)
    assert block_contains(v, point(1, -1, -1, F(1, 2)))


def test_classify_region_examples():
    assert classify_region(point(0, 2, 0, 0)) == (0, "Ext", (F(0), F(2)))
    assert classify_region(point(1, -1, 0, 0)) == (0, "Ord", (F(0), F(1)))
    assert classify_region(point(1, -1, -2, 2)) == (1, "Ord", (F(1), F(2)))


def test_beta_examples():
    n, bar = beta_levelset(point(0, F(7, 2), 0, F(7, 2)))
    assert n == 0
    assert (bar.lo, bar.hi, bar.lo_closed, bar.hi_closed) == (F(7, 2), F(7, 2), True, True)

    n, bar = beta_levelset(point(1, -1, 0, 0))
    assert n == 0
    assert (bar.lo, bar.hi, bar.lo_closed, bar.hi_closed) == (F(0), F(1), True, False)

    n, bar = beta_levelset(point(0, 2, 0, 0))
    assert n == 0
    assert (bar.lo, bar.hi, bar.lo_closed, bar.hi_closed) == (F(0), F(2), True, True)


def test_closed_forms_match_case_by_case_forms():
    # every pair of these coordinates: both offsets pi/2, exactly one, and
    # x.v = -y.v, on every branch of s = x.k + y.k near the strip
    coords = [Coord(k, v) for k in range(-3, 4)
              for v in (INF, 0, F(1, 2), F(-1, 2), 1, -1, 2, -2, 3, -3)]
    interior = 0
    for x in coords:
        for y in coords:
            p = StripPoint(x, y)
            loc = strip_location(p)
            assert loc == strip_location_by_cases(p), p
            if loc == "interior":
                interior += 1
                n, bar = beta_levelset(p)
                assert (n, bar) == beta_levelset_from_rho(p), p
    assert interior > 500


# ---------------------------------------------------------------------------
# invariants


def test_order_is_partial_order():
    rng = random.Random(13)
    pts = [random_strip_point(rng) for _ in range(25)]
    for p in pts:
        assert precedes(p, p)
        for q in pts:
            if precedes(p, q) and precedes(q, p):
                assert p == q
            for r in pts:
                if precedes(p, q) and precedes(q, r):
                    assert precedes(p, r)


def test_t_monotone_automorphism():
    rng = random.Random(14)
    for _ in range(80):
        p = random_strip_point(rng)
        q = random_strip_point(rng)
        if precedes(p, q):
            assert precedes(t_power(p, 1), t_power(q, 1))
        assert precedes(p, t_power(p, 1))


def test_alpha_group_law_and_centrality():
    rng = random.Random(15)
    for _ in range(60):
        p = random_strip_point(rng)
        a = random_shift(rng)
        b = random_shift(rng)
        assert alpha_apply(a + b, p) == alpha_apply(a, alpha_apply(b, p))
        assert alpha_apply(a, t_power(p, 1)) == t_power(alpha_apply(a, p), 1)


def test_alpha_monotone_in_shift():
    rng = random.Random(16)
    for _ in range(60):
        p = random_strip_point(rng)
        a = random_shift(rng)
        b = random_shift(rng)
        if a.precedes(b):
            assert precedes(alpha_apply(a, p), alpha_apply(b, p))


def test_rho_monotone_and_nested():
    rng = random.Random(17)
    for _ in range(80):
        p = random_strip_point(rng)
        rho1, rho0 = rho(p)
        assert intersect(rho0, rho1) == rho0
        if strip_location(p) == "boundary":
            assert rho0 == rho1
        q = random_strip_point(rng)
        if precedes(p, q):
            r1q, r0q = rho(q)
            assert intersect(rho1, r1q) == rho1
            assert intersect(rho0, r0q) == rho0


def rectangle_in_domain(rng):
    """A random axis-aligned rectangle contained in the fundamental domain."""
    for _ in range(500):
        u = random_strip_point(rng, interior=True, allow_inf=False)
        v = random_strip_point(rng, interior=True, allow_inf=False)
        w = StripPoint(min(u.x, v.x), max(u.y, v.y))  # join
        m = StripPoint(max(u.x, v.x), min(u.y, v.y))  # meet
        corners = [m, StripPoint(m.x, w.y), StripPoint(w.x, m.y), w]
        if all(in_strip(c) and in_fundamental_domain(c) for c in corners):
            return corners
    return None


def test_rho_preserves_joins_and_meets():
    rng = random.Random(18)
    done = 0
    while done < 15:
        rect = rectangle_in_domain(rng)
        if rect is None:
            break
        m, v1, v2, w = rect
        for i in range(2):
            rm, r1, r2, rw = rho(m)[i], rho(v1)[i], rho(v2)[i], rho(w)[i]
            assert RealOpenSet.make(r1.intervals + r2.intervals) == rw
            assert intersect(r1, r2) == rm
        done += 1
    assert done >= 10


def test_classify_forbidden_combination_never_occurs():
    rng = random.Random(19)
    checked = 0
    while checked < 100:
        u = random_strip_point(rng, interior=True)
        if not in_diag_downset(u):
            continue
        n, region, pair = classify_region(u)
        assert region in ("Ord", "Rel", "Ext")
        checked += 1


# ---------------------------------------------------------------------------
# float oracle


TOL = 1e-9


def assert_close(exact_pt, float_pt):
    ex, ey = to_float(exact_pt)
    fx, fy = float_pt
    assert abs(ex - fx) < TOL and abs(ey - fy) < TOL


def test_float_oracle_t_alpha():
    rng = random.Random(20)
    for _ in range(800):
        p = random_strip_point(rng)
        assert_close(t_power(p, 1), float_t(to_float(p)))
        assert_close(t_power(p, -1), float_t_inverse(to_float(p)))
        a = random_shift(rng)
        assert_close(alpha_apply(a, p), float_alpha(a, to_float(p)))


def test_float_oracle_ev0():
    # at the origin the shift acts like the componentwise arctan shift
    rng = random.Random(21)
    for _ in range(200):
        a = random_shift(rng)
        fx, fy = float_alpha(a, (0.0, 0.0))
        assert abs(fx - math.atan(a.a1)) < TOL
        assert abs(fy - math.atan(a.a2)) < TOL


def test_float_oracle_rho():
    rng = random.Random(22)
    for _ in range(500):
        p = random_strip_point(rng)
        rho1, _ = rho(p)
        flo, fhi = float_rho1_bounds(to_float(p))
        if flo >= fhi - TOL:
            if flo > fhi + TOL:
                assert not rho1.intervals
            continue
        assert len(rho1.intervals) == 1
        lo, hi = rho1.intervals[0]
        elo = -math.pi / 2 if lo is NEG_INF else math.atan(lo)
        ehi = math.pi / 2 if hi is INF else math.atan(hi)
        assert abs(elo - flo) < TOL and abs(ehi - fhi) < TOL


def test_float_oracle_membership():
    rng = random.Random(23)
    for _ in range(2000):
        p = StripPoint(random_coord(rng), random_coord(rng))
        x, y = to_float(p)
        s = x + y
        if abs(abs(s) - math.pi) < TOL:
            continue
        assert in_strip(p) == float_in_strip((x, y))


# ---------------------------------------------------------------------------
# the integer coordinate table against the exact functions


def interleaving_grid(k):
    """The coordinate table of the joint grid and the two shifts, omega and
    omega^2 at the sup norm, that interleaving_check uses on the pair
    (f, g) = (0, 1): both transformations are built at omega."""
    from riscpl.interleave import joint_context, sup_norm

    delta = sup_norm(k)
    ctx = joint_context(k, [0, 1], [delta, 2 * delta])
    return ctx.table, [ShiftVector(-delta, delta), ShiftVector(-2 * delta, 2 * delta)]


@pytest.mark.parametrize("case", ["hood", 5, 21, 26])
def test_coord_table_matches_exact_functions(case):
    from test_interleave import hood_stability_pair, random_pair

    k = hood_stability_pair() if case == "hood" else random_pair(random.Random(case))
    table, shifts = interleaving_grid(k)
    n = len(table.grid)
    assert table.coords[:n] == list(table.grid)
    assert all(table.ids[c] == i for i, c in enumerate(table.grid))
    maps = [table.shift(a) for a in shifts]
    powers = {e: table.power(e) for e in range(-3, 4)}
    # each key map of T^n is built once
    assert all(table.power(e) is power for e, power in powers.items())
    rng = random.Random(0)
    for ix in range(n):
        for iy in range(n):
            key = (ix, iy)
            p = StripPoint(table.grid[ix], table.grid[iy])
            assert table.point(key) == p
            loc = strip_location(p)
            assert table.location[key] == loc
            if loc == "outside":
                continue
            for e, power in powers.items():
                assert table.point(power(key)) == t_power(p, e)
            assert table.point(powers[1](key)) == t_power(p, 1)
            assert table.point(powers[-1](key)) == t_power(p, -1)
            for a, shift in zip(shifts, maps):
                q = shift(key)
                assert table.point(q) == alpha_apply(a, p)
                assert table.location[q] == strip_location(alpha_apply(a, p))
                if table.location[q] == "interior":
                    assert (table.tile[q] == 0) == in_fundamental_domain(alpha_apply(a, p))
                for e in (-1, 1, 2):
                    assert shift(powers[e](key)) == powers[e](q)
            # the check also shifts the off-grid point omega(p)
            mid = maps[0](key)
            for a, shift in zip(shifts, maps):
                assert table.point(shift(mid)) == alpha_apply(a, table.point(mid))
            if table.location[mid] != "outside":
                for e, power in powers.items():
                    assert table.point(power(mid)) == t_power(table.point(mid), e)
            if table.location[mid] == "interior":
                tile = table.tile[mid]
                assert tile == tile_index(table.point(mid))
                assert table.point(table.power(tile)(mid)) == t_power(table.point(mid), tile)
            if loc == "interior":
                tile = table.tile[key]
                assert tile == tile_index(p)
                assert table.point(table.power(tile)(key)) == t_power(p, tile)
                assert (tile == 0) == in_fundamental_domain(p)
            other = (rng.randrange(n), rng.randrange(n))
            assert table.precedes(key, other) == precedes(p, table.point(other))
            assert table.precedes(other, key) == precedes(table.point(other), p)
    # omega is the shift by (-delta, delta)
    delta = shifts[0].a2
    key = (n // 2, n // 2)
    assert table.point(maps[0](key)) == omega_apply(delta, table.point(key))
    # an off-grid coordinate gets the next free id, once
    c = Coord(0, F(1, 7919))
    assert c not in table.grid
    i = table.intern(c)
    assert i >= n and table.intern(c) == i and table.coords[i] == c
    with pytest.raises(ValueError):
        CoordTable([Coord(0, F(0)), Coord(0, F(0))])
    with pytest.raises(ValueError):
        CoordTable([Coord(0, F(1)), Coord(0, F(0))])


def row_fill_grid(case):
    """The grid of an interleaving table, of an evaluate table, or a seeded
    strictly increasing list that is closed under neither negation nor T,
    as a loaded module dump may hold; it meets one boundary on purpose."""
    from riscpl.risc_builder import evaluate
    from test_interleave import hood_stability_pair, random_pair
    from test_risc_builder import hood

    if case == "evaluate":
        return evaluate(hood()).module.table.grid
    if case == "random":
        rng = random.Random(7)
        c = random_coord(rng)
        coords = {c, c.pi_minus(1)} | {random_coord(rng) for _ in range(30)}
        return sorted(coords)
    k = hood_stability_pair() if case == "hood" else random_pair(random.Random(case))
    return interleaving_grid(k)[0].grid


@pytest.mark.parametrize("case", ["hood", 5, 21, 26, "evaluate", "random"])
def test_coord_table_rows_match_exact_functions(case):
    grid = row_fill_grid(case)
    n = len(grid)
    table = CoordTable(grid)
    samples = table.samples
    assert samples == tuple(s for i in range(n) for s in table.row_samples[i])
    for i in range(n):
        row = tuple((i, j) for j in range(n)
                    if strip_location(StripPoint(grid[i], grid[j])) != "outside")
        assert table.row_samples[i] == row
    # rows filled after lazy reads, as period_samples meets them, agree
    lazy = CoordTable(grid)
    for key in [(i, j) for i in range(0, n, 3) for j in range(0, n, 2)]:
        assert lazy.location[key] == strip_location(lazy.point(key))
    assert lazy.samples == samples
    ends = set()
    for i in range(n):
        for j in range(n):
            key = (i, j)
            loc = strip_location(table.point(key))
            assert table.location[key] == loc
            assert lazy.location[key] == loc
            if loc == "interior":
                assert table.tile[key] == tile_index(table.point(key))
            else:
                with pytest.raises(ValueError, match="tile index undefined"):
                    table.tile[key]
        row = table.row_samples[i]
        ends.update(table.location[s] for s in row[:1] + row[-1:])
    # both branches of the row fill ran: an end on the boundary, and one
    # whose bound is not a grid line
    assert ends == {"boundary", "interior"}
    assert {table.location[(i, j)] for i in range(n) for j in range(n)} == {
        "interior", "boundary", "outside"}
