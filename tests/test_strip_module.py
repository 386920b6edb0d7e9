import functools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from riscpl.exact_geometry import (
    Coord,
    CoordTable,
    INF,
    StripPoint,
    strip_location,
    t_power,
)
from riscpl.field_linalg import Mat, rank
from riscpl.strip_module import (
    GridModule,
    _inexact,
    _view,
    cohomological_check,
    decomposition_check,
    dgm,
    dgm_value,
    midpoint_coord,
    nat_space_dim,
    refine_lines,
    seq_continuity_check,
    square_commutes_check,
)

from geometry_reference import SampleGridReference, block_contains, point, precedes
from reference import (
    _rectangle_exact,
    block_reference,
    cohomological_check_reference,
    colex_filtration,
    decomposition_check_reference,
    exactness_draws,
    from_blocks,
    in_block,
    is_interior,
    is_sample,
    multiset,
    nat_space_dim_reference,
    seq_continuity_check_reference,
    square_commutes_check_reference,
    staircase_fold,
    t_index,
)

F = Fraction


def sym_lines(lams=(0, 1, 2), kmin=-2, kmax=2):
    """A negation-closed line family: every translate carries the levels,
    their negatives and the half-pi line."""
    out = {Coord(kmin - 1, INF)}
    for k in range(kmin, kmax + 1):
        out.add(Coord(k, INF))
        for lam in lams:
            out.add(Coord(k, F(lam)))
            out.add(Coord(k, F(-lam)))
    return sorted(out)


def sym_grid(lams=(0, 1, 2), kmin=-2, kmax=2):
    return refine_lines(sym_lines(lams, kmin, kmax))


HOOD_V1 = point(0, 2, 0, 0)
HOOD_V2 = point(1, -1, 0, 0)


def test_midpoint_and_refine():
    assert midpoint_coord(Coord(0, F(0)), Coord(0, F(1))) == Coord(0, F(1, 2))
    assert midpoint_coord(Coord(0, F(2)), Coord(0, INF)) == Coord(0, F(3))
    assert midpoint_coord(Coord(0, INF), Coord(1, F(0))) == Coord(1, F(-1))
    assert midpoint_coord(Coord(0, INF), Coord(1, INF)) == Coord(1, F(0))
    lines = [Coord(0, F(0)), Coord(0, F(1)), Coord(0, INF), Coord(1, F(0))]
    ref = refine_lines(lines)
    assert len(ref) == 7
    assert all(ref[i] < ref[i + 1] for i in range(4))
    assert ref[0::2] == tuple(sorted(lines))


def test_refinement_symmetric_under_negation():
    xs = refine_lines(sym_lines())
    negated = sorted(-c for c in xs)
    assert list(xs) == negated


def test_from_blocks_empty_and_single():
    xs = sym_grid()
    z = from_blocks([], xs)
    assert all(d == 0 for d in z.dims.values())
    m = from_blocks([(HOOD_V1, 1)], xs)
    for idx in m.samples():
        want = 1 if block_contains(HOOD_V1, m.table.point(idx)) else 0
        assert m.dim_at(idx) == want


def test_dgm_single_block_and_midpoint_vanishing():
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 1)], xs)
    d = dgm(m)
    assert multiset(d) == [(HOOD_V1, 1)]
    for idx in m.samples():
        if idx[0] % 2 == 1 or idx[1] % 2 == 1:
            if 0 < idx[0] and idx[1] < len(xs) - 1:
                assert dgm_value(m, idx) == 0


def random_blocks(rng, m_shell, count):
    """Block points at interior grid vertices away from the window edge,
    with the inverse translate also safely inside."""
    n_x = n_y = len(m_shell.table.grid)
    candidates = []
    for i in range(2, n_x - 2, 2):
        for j in range(2, n_y - 2, 2):
            pt = m_shell.table.point((i, j))
            if strip_location(pt) != "interior":
                continue
            w = m_shell.index_of(t_power(pt, -1))
            if w is None or not (2 <= w[0] < n_x - 2 and 2 <= w[1] < n_y - 2):
                continue
            candidates.append(pt)
    picks = rng.sample(candidates, min(count, len(candidates)))
    return [(pt, rng.randint(1, 2)) for pt in picks]


def test_dgm_roundtrip_random_blocks():
    xs = sym_grid()
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(3)
    for _ in range(10):
        blocks = random_blocks(rng, shell, rng.randint(1, 3))
        m = from_blocks(blocks, xs)
        assert multiset(dgm(m)) == sorted(blocks, key=lambda t: (t[0].x, t[0].y))


def test_rank_between_examples():
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 2)], xs)
    v_idx = m.index_of(HOOD_V1)
    assert rank(m.map_between(v_idx, v_idx)) == 2
    # comparable pair inside the support: full multiplicity
    below = m.index_of(point(0, 2, -1, 0))
    assert below is not None and rank(m.map_between(below, v_idx)) == 2
    # q beyond T(p): rank 0 even though dimensions are positive
    v2 = t_power(HOOD_V1, 1)
    m2 = from_blocks([(HOOD_V1, 2), (v2, 2)], xs)
    p_idx = m2.index_of(point(0, 3, -1, 0))
    q_idx = m2.index_of(v2)
    assert p_idx is not None and q_idx is not None
    assert m2.dim_at(p_idx) == 2 and m2.dim_at(q_idx) == 2
    q_pt, tp = m2.table.point(q_idx), t_power(m2.table.point(p_idx), 1)
    assert not (q_pt.x >= tp.x and q_pt.y <= tp.y)
    assert rank(m2.map_between(p_idx, q_idx)) == 0


def zeroed_at(m, s):
    """A copy of m whose space at the sample s is zero."""
    dims = dict(m.dims)
    dims[s] = 0
    maps = {key: Mat.zeros(dims[key[0]], dims[key[1]], m.p) if s in key else mat
            for key, mat in m.maps.items()}
    return GridModule(m.table, dims, maps, m.p)


def test_map_between_matches_staircase_fold():
    xs = sym_grid(lams=(0,), kmin=-1, kmax=1)
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(37)
    modules = [from_blocks(random_blocks(rng, shell, 3), xs) for _ in range(3)]
    m0 = modules[0]
    full = [s for s in m0.samples() if m0.dim_at(s) and is_interior(m0, s)]
    modules.append(zeroed_at(m0, rng.choice(full)))
    killed = 0
    for m in modules:
        samples = list(m.samples())
        for lo in samples:
            for hi in samples:
                if lo[0] >= hi[0] and lo[1] <= hi[1]:
                    got = m.map_between(lo, hi)
                    assert got == staircase_fold(m, lo, hi), (lo, hi)
                    if m is modules[-1]:
                        killed += got.is_zero() and not m0.map_between(lo, hi).is_zero()
    # the zeroed space cuts some staircase that carried a nonzero map
    assert killed > 0


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_kept_composites_match_staircase_fold(order):
    # one module answers every comparable pair with the staircase fold,
    # whatever pairs earlier calls asked for, in any order and twice over
    xs = sym_grid(lams=(0,), kmin=-1, kmax=1)
    rng = random.Random(43)
    m = from_blocks(random_blocks(rng, GridModule(CoordTable(xs), {}, {}), 3), xs)
    full = [s for s in m.samples() if m.dim_at(s) and is_interior(m, s)]
    m = zeroed_at(m, rng.choice(full))
    samples = list(m.samples())
    pairs = [(lo, hi) for lo in samples for hi in samples if lo[0] >= hi[0] and lo[1] <= hi[1]]
    if order == "descending":
        pairs.reverse()
    elif order == "shuffled":
        rng.shuffle(pairs)
    for _ in range(2):
        for lo, hi in pairs:
            assert m.map_between(lo, hi) == staircase_fold(m, lo, hi), (lo, hi)


def count_products(monkeypatch):
    """A list that grows by one at every Mat product."""
    calls = []
    matmul = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    return calls


def test_kept_and_zero_composites_multiply_nothing(monkeypatch):
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 2)], xs)
    v = m.index_of(HOOD_V1)
    lo = (v[0] + 2, v[1] - 2)
    want = staircase_fold(m, lo, v)
    calls = count_products(monkeypatch)
    # four covering maps fold in three products
    assert m.map_between(lo, v) == want and len(calls) == 3
    # a staircase through a zero space on either leg, between two nonzero
    # spaces
    for s in (v[0], v[1] - 1), (v[0] + 1, lo[1]):
        cut = zeroed_at(m, s)
        calls.clear()
        assert cut.map_between(lo, v) == Mat.zeros(2, 2) and not calls


def test_composites_read_a_module_edited_in_place():
    # nothing outlives a call: a covering map zeroed after a first composite
    # through it gives the composite of a fresh module with the same edit
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 1)], xs)
    v = m.index_of(HOOD_V1)
    lo = (v[0] + 2, v[1] - 2)
    assert m.map_between(lo, v) == Mat.eye(1)
    key = ((lo[0] - 1, lo[1]), (lo[0] - 2, lo[1]))
    fresh = from_blocks([(HOOD_V1, 1)], xs)
    m.maps[key] = fresh.maps[key] = Mat.zeros(1, 1)
    want = fresh.map_between(lo, v)
    assert want == Mat.zeros(1, 1)
    assert m.map_between(lo, v) == want


def test_checks_read_a_module_edited_in_place():
    # a check keeps no composite past its return: zeroing one covering map
    # after a passing check gives the counterexample of a fresh module with
    # the same edit, which a composite through that map kept from the first
    # check would hide (it would report a unit square instead)
    xs = sym_grid()
    blocks = [(HOOD_V1, 1), (HOOD_V2, 1)]
    m = from_blocks(blocks, xs)
    assert cohomological_check(m, random_rectangles=40) is None
    # the map into the lowest sample of the column below the vertex
    v = m.index_of(HOOD_V1)
    low = min(j for j in range(v[1]) if m.dim_at((v[0], j)))
    key = ((v[0], low), (v[0], low + 1))
    fresh = from_blocks(blocks, xs)
    m.maps[key] = fresh.maps[key] = Mat.zeros(1, 1)
    want = cohomological_check(fresh, random_rectangles=40)
    assert want[2] == "not exact at the intersection term"
    assert cohomological_check(m, random_rectangles=40) == want


def test_decomposition_check_blocks_ok_and_mutation():
    xs = sym_grid()
    rng = random.Random(5)
    shell = GridModule(CoordTable(xs), {}, {})
    for _ in range(5):
        m = from_blocks(random_blocks(rng, shell, 2), xs)
        assert decomposition_check(m) is None
    m = from_blocks([(HOOD_V1, 1)], xs)
    v_idx = m.index_of(HOOD_V1)
    key = ((v_idx[0] + 1, v_idx[1]), v_idx)
    assert m.maps[key] == Mat.eye(1)
    m.maps[key] = Mat.zeros(1, 1)
    assert decomposition_check(m) is not None


def zero_maps_at(m, s):
    """Zero structure maps between the sample s and its covering neighbors."""
    for up in m.up(s):
        if is_sample(m, up):
            m.maps[(s, up)] = Mat.zeros(m.dim_at(s), m.dim_at(up), m.p)
    for down in m.down(s):
        if is_sample(m, down):
            m.maps[(down, s)] = Mat.zeros(m.dim_at(down), m.dim_at(s), m.p)


@pytest.mark.parametrize("p", [2, 3])
def test_decomposition_check_first_counterexamples(p):
    xs = sym_grid()
    # a phantom space in an open cell that no block covers
    m = from_blocks([(HOOD_V1, 1), (HOOD_V2, 1)], xs, p)
    s = next(s for s in m.samples() if s[0] % 2 and s[1] % 2
             and is_interior(m, s) and m.dim_at(s) == 0)
    m.dims[s] = 1
    zero_maps_at(m, s)
    assert decomposition_check(m) == ("dimension mismatch", (1, 49), 0, 1)
    # both maps out of the vertex of a double block collapse it to rank one
    m = from_blocks([(HOOD_V1, 2)], xs, p)
    v = m.index_of(HOOD_V1)
    for down in m.down(v):
        m.maps[(down, v)] = Mat([[1, 1], [1, 1]], p)
    assert decomposition_check(m) == ("not invertible", (34, 15))
    # the block reaches one sample past its lower rim below v, so no
    # section vanishes there
    m = from_blocks([(HOOD_V1, 1)], xs, p)
    rim = next((v[0], j) for j in range(v[1], -1, -1) if m.dim_at((v[0], j)) == 0)
    assert is_sample(m, rim)
    m.dims[rim] = 1
    zero_maps_at(m, rim)
    m.maps[(rim, m.up(rim)[1])] = Mat.eye(1, p)
    assert decomposition_check(m) == ("too few sections", HOOD_V1, 0, 1)


def test_cohomological_check_blocks_and_mutation():
    xs = sym_grid()
    rng = random.Random(9)
    shell = GridModule(CoordTable(xs), {}, {})
    for _ in range(4):
        m = from_blocks(random_blocks(rng, shell, 2), xs)
        assert cohomological_check(m, random_rectangles=40) is None
    m = from_blocks([(HOOD_V1, 1)], xs)
    v_idx = m.index_of(HOOD_V1)
    m.maps[((v_idx[0] + 1, v_idx[1]), v_idx)] = Mat.zeros(1, 1)
    assert cohomological_check(m, random_rectangles=40) is not None


def test_checker_draws_land(monkeypatch):
    # nearly every random rectangle reaches the exactness test with four
    # interior corners and is larger than a unit square, and every spot
    # check compares two nonzero spaces
    import riscpl.strip_module as sm

    xs = sym_grid()
    m = from_blocks(random_blocks(random.Random(9), GridModule(CoordTable(xs), {}, {}), 2), xs)
    rects = []
    batch = sm._inexact
    monkeypatch.setattr(sm, "_inexact",
                        lambda m, dims, tested: rects.extend(tested) or batch(m, dims, tested))
    assert cohomological_check(m, random_rectangles=0) is None
    unit = len(rects)
    rects.clear()
    assert cohomological_check(m, random_rectangles=100) is None
    landed = [(lo, hi) for lo, hi in rects[unit:]
              if lo[0] - hi[0] + hi[1] - lo[1] > 2
              and all(is_interior(m, c) for c in (lo, hi, (lo[0], hi[1]), (hi[0], lo[1])))]
    assert len(landed) >= 95

    pairs = []
    between = m.map_between
    monkeypatch.setattr(m, "map_between", lambda lo, hi: pairs.append((lo, hi)) or between(lo, hi))
    assert decomposition_check(m, spot_checks=0) is None
    sections = len(pairs)
    pairs.clear()
    assert decomposition_check(m, spot_checks=200) is None
    spots = pairs[sections:]
    assert len(spots) == 200
    assert all(m.dim_at(lo) and m.dim_at(hi) and lo[0] >= hi[0] and lo[1] <= hi[1]
               for lo, hi in spots)


def test_exactness_folds_each_staircase_once(monkeypatch):
    # the intersection-term composite of a unit square is the union-term
    # composite of its T^-1-translate, and drawn rectangles share sides: one
    # check asks for each composite once, and reads the sides of a unit
    # square off its covering maps
    m = dump_module("rp2", 2)
    pairs = []
    between = m.map_between
    monkeypatch.setattr(m, "map_between", lambda lo, hi: pairs.append((lo, hi)) or between(lo, hi))
    assert cohomological_check(m) is None
    assert pairs and len(set(pairs)) == len(pairs)


def test_cohomological_check_catches_an_outer_term_of_a_larger_rectangle():
    # the block loses its last open column, next to its wall at T^-1(v).x;
    # every unit square stays exact, because near the grid's edge none of
    # them has its translate T^-1(hi) on the grid, but a larger rectangle
    # does, and its intersection term is not exact
    xs = sym_grid()
    m = from_blocks([(point(2, -2, -1, 0), 1)], xs)
    last = max(s[0] for s in m.samples() if m.dim_at(s))
    for s in m.table.row_samples[last]:
        m = zeroed_at(m, s)
    assert cohomological_check(m, random_rectangles=0) is None
    lo, hi, why = cohomological_check(m, random_rectangles=40)
    assert why == "not exact at the intersection term"
    assert (lo[0] - hi[0], hi[1] - lo[1]) != (1, 1)


def test_exactness_batch_matches_the_rectangle_reference_over_gf5(monkeypatch):
    # single-entry breaks of the hood GF(5) dump (an entry plus 1 or 4, or
    # a space with zero maps) whose first inexact rectangle fails each of
    # the four tests, among the check's unit squares and among its draws
    # alone: a draw is reached only when every square is exact, and then
    # its composite is zero and its middle term exact, both pasted from the
    # squares.  The batch reports what the one-rectangle reference reports
    # first, on either list and on the whole check, and the check draws
    # what the reference draws from its lists.  In the break failing first
    # at an intersection term, a later square has a nonzero composite, so a
    # report picked by reason before position differs.
    import riscpl.strip_module as sm

    m = dump_module("hood", 5)
    batches = []
    batch = sm._inexact
    monkeypatch.setattr(sm, "_inexact",
                        lambda m, dims, rects: batches.append(rects) or batch(m, dims, rects))

    def entry_plus(key, add):
        out = GridModule(m.table, m.dims, m.maps, m.p)
        a = m.maps[key].data.copy()
        a[0, 0] += add
        out.maps[key] = Mat(a, m.p)
        return out

    def space_at(s):
        out = GridModule(m.table, m.dims, m.maps, m.p)
        out.dims[s] = 1
        return out

    reasons = ["composite nonzero", "not exact at the union term",
               "not exact at the middle term", "not exact at the intersection term"]
    cases = [
        ("squares", entry_plus(((46, 27), (46, 28)), 1), reasons[0]),
        ("squares", space_at((64, 10)), reasons[1]),
        ("squares", entry_plus(((46, 28), (46, 29)), 4), reasons[2]),
        ("squares", entry_plus(((46, 27), (46, 28)), 4), reasons[3]),
        ("draws", entry_plus(((47, 31), (47, 32)), 1), reasons[0]),
        ("draws", entry_plus(((46, 30), (46, 31)), 4), reasons[1]),
        ("draws", entry_plus(((47, 33), (47, 34)), 4), reasons[2]),
        ("draws", entry_plus(((50, 27), (50, 28)), 4), reasons[3]),
    ]
    later_first = []
    for where, broken, why in cases:
        batches.clear()
        got = cohomological_check(broken)
        assert got == cohomological_check_reference(broken)
        (rects,) = batches
        assert rects[-100:] == exactness_draws(broken)
        tested = rects[:-100] if where == "squares" else rects[-100:]
        folds = {}
        fails = [bad for bad in (_rectangle_exact(broken, lo, hi, folds) for lo, hi in tested)
                 if bad is not None]
        assert batch(broken, _view(broken)[0], tested) == fails[0]
        assert fails[0][2] == why
        if where == "squares":
            assert got == fails[0]
        later_first.append(any(reasons.index(bad[2]) < reasons.index(why) for bad in fails[1:]))
    assert later_first[3]
    # a whole check whose first inexact rectangle is a draw, as in
    # test_cohomological_check_catches_an_outer_term_of_a_larger_rectangle
    edge = from_blocks([(point(2, -2, -1, 0), 1)], sym_grid(), 5)
    last = max(s[0] for s in edge.samples() if edge.dim_at(s))
    for s in edge.table.row_samples[last]:
        edge = zeroed_at(edge, s)
    lo, hi, why = cohomological_check(edge)
    assert batches[-1][-100:] == exactness_draws(edge)
    assert (lo, hi, why) == cohomological_check_reference(edge)
    assert why == reasons[3] and (lo[0] - hi[0], hi[1] - lo[1]) != (1, 1)


def square_with_translates(m):
    """The first unit sample square (lo, hi) with interior corners whose
    translates T(lo) and T^-1(hi) lie on the grid, above hi and below lo;
    returned with the two translates."""
    for lo in m.samples():
        hi = (lo[0] - 1, lo[1] + 1)
        corners = (lo, hi, (lo[0], hi[1]), (hi[0], lo[1]))
        tu, tw = t_index(m, lo), t_index(m, hi, power=-1)
        if (all(is_interior(m, c) for c in corners) and tu is not None and tw is not None
                and hi[0] >= tu[0] and hi[1] <= tu[1]
                and tw[0] >= lo[0] and tw[1] <= lo[1]):
            return lo, hi, tu, tw
    raise AssertionError("no such square on the grid")


def constant_between(m, lo, hi):
    """Dimension 1 and identity maps on the samples from lo up to hi."""
    dims = {(i, j): 1 for i in range(hi[0], lo[0] + 1) for j in range(lo[1], hi[1] + 1)
            if is_sample(m, (i, j))}
    maps = {(s, up): Mat.eye(1) for s in dims for up in m.up(s) if up in dims}
    return dims, maps


def test_rectangle_exact_checks_outer_composites():
    # the ranks add up at the union and the intersection term, but the map
    # into (out of) that term composes to a nonzero map with the next one
    shell = GridModule(CoordTable(sym_grid()), {}, {})
    lo, hi, tu, tw = square_with_translates(shell)
    v1, v2 = (lo[0], hi[1]), (hi[0], lo[1])
    # M(w) = F^2 -> M(v1) (+) M(v2) = F is [1 0]; M(T(u)) -> M(w) hits e1
    dims, maps = constant_between(shell, hi, tu)
    dims[hi], dims[v1] = 2, 1
    for up in shell.up(hi):
        if up in dims:
            maps[(hi, up)] = Mat([[1], [0]])
    maps[(v1, hi)] = Mat([[1, 0]])
    m = GridModule(shell.table, dims, maps)
    assert rank(m.map_between(hi, tu)) == 1
    assert _rectangle_exact(m, lo, hi) == (lo, hi, "not exact at the union term")
    assert _inexact(m, _view(m)[0], [(lo, hi)]) == _rectangle_exact(m, lo, hi)
    # M(v1) (+) M(v2) = F -> M(u) = F^2 hits e1; M(u) -> M(T^-1(w)) is [1 0]
    dims, maps = constant_between(shell, tw, lo)
    dims[lo], dims[v2] = 2, 1
    for down in shell.down(lo):
        if down in dims:
            maps[(down, lo)] = Mat([[1, 0]])
    maps[(lo, v2)] = Mat([[1], [0]])
    m = GridModule(shell.table, dims, maps)
    assert rank(m.map_between(tw, lo)) == 1
    assert _rectangle_exact(m, lo, hi) == (lo, hi, "not exact at the intersection term")
    assert _inexact(m, _view(m)[0], [(lo, hi)]) == _rectangle_exact(m, lo, hi)


def support_module(pred, xs, p=2):
    """Dimension-1 module supported where pred holds, with identity maps on
    the shared support (test helper for malformed supports)."""
    shell = GridModule(CoordTable(xs), {}, {}, p)
    dims = {}
    for idx in shell.samples():
        dims[idx] = 1 if pred(shell.table.point(idx)) else 0
    maps = {}
    for idx in dims:
        i, j = idx
        for up in ((i - 1, j), (i, j + 1)):
            if up in dims:
                one = dims[idx] == 1 and dims[up] == 1
                maps[(idx, up)] = Mat([[1]], p) if one else Mat.zeros(dims[idx], dims[up], p)
    return GridModule(shell.table, dims, maps, p)


def test_seq_continuity_blocks_and_flipped_support():
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 1), (HOOD_V2, 1)], xs)
    assert seq_continuity_check(m) is None

    w = t_power(HOOD_V1, -1)

    def wrong_side(pt):
        # support closed at the x = T^-1(v).x wall instead of open
        if strip_location(pt) != "interior":
            return False
        return precedes(pt, HOOD_V1) and pt.x <= w.x and pt.y > w.y

    bad = support_module(wrong_side, xs)
    assert seq_continuity_check(bad) is not None


def test_four_squares_identity_random_blocks():
    xs = sym_grid()
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(21)
    m = from_blocks(random_blocks(rng, shell, 3), xs)
    n_x = n_y = len(xs)
    for _ in range(200):
        i = rng.randrange(1, n_x - 1)
        j = rng.randrange(1, n_y - 1)
        e = (i, j)
        b = (i, j + 1)
        d = (i - 1, j)
        c = (i + 1, j + 1)
        ii = (i + 1, j - 1)
        lhs = m.dim_at(e) - rank(Mat.hstack([m.map_at(e, d), m.map_at(e, b)]))
        rhs = rank(Mat.hstack([m.map_between(ii, e), m.map_between(ii, c)])) \
            - rank(Mat.hstack([m.map_between(ii, d), m.map_between(ii, c)]))
        assert lhs == rhs


def test_reflect_precomposition_homological():
    """Pulling back along the diagonal reflection turns the contravariant
    module into a covariant one; its Mayer-Vietoris squares must be exact in
    the homological direction."""
    xs = sym_grid()
    # both axes share one coordinate list, so reflection permutes samples
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(23)
    m = from_blocks(random_blocks(rng, shell, 2), xs)
    n = len(xs)

    def refl(idx):
        # reflect swaps the coordinates, hence the indices on this grid
        return (idx[1], idx[0])

    for _ in range(150):
        i = rng.randrange(1, n)
        j = rng.randrange(0, n - 1)
        lo, hi = (i, j), (i - 1, j + 1)
        v1, v2 = (i, j + 1), (i - 1, j)
        # N(lo) -> N(v1) (+) N(v2) -> N(hi) with N(p) := M(reflect p); the
        # covariant structure map N(p -> q) is M's map M(refl p) -> M(refl q)
        first = Mat(
            np.vstack([
                m.map_between(refl(v1), refl(lo)).data,
                m.map_between(refl(v2), refl(lo)).data,
            ]),
            m.p,
        )
        second = Mat(
            np.hstack([
                m.map_between(refl(hi), refl(v1)).data,
                (-m.map_between(refl(hi), refl(v2))).data,
            ]),
            m.p,
        )
        assert (second @ first).is_zero()
        assert rank(first) == second.cols - rank(second)


def test_colex_filtration_zero_and_single_block():
    xs = sym_grid()
    z = from_blocks([], xs)
    u = z.index_of(point(0, 1, 0, 0))
    rows = colex_filtration(z, u)
    assert all(all(d == 0 for d in row) for row in rows)

    m = from_blocks([(HOOD_V1, 1)], xs)
    rows = colex_filtration(m, m.index_of(HOOD_V1))
    flat = [d for row in rows for d in row]
    assert rows[-1][-1] == 1
    jumps = [b - a for a, b in zip(flat, flat[1:]) if b != a]
    assert jumps == [1]


def test_colex_filtration_random_blocks():
    xs = sym_grid()
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(29)
    for _ in range(5):
        blocks = random_blocks(rng, shell, 2)
        m = from_blocks(blocks, xs)
        for v, _mult in blocks:
            idx = m.index_of(v)
            if t_index(m, idx) is None:
                continue
            rows = colex_filtration(m, idx)
            assert rows[-1][-1] == m.dim_at(idx)


def test_nat_space_dim():
    xs = sym_grid()
    m1 = from_blocks([(HOOD_V1, 1)], xs)
    assert nat_space_dim(m1.index_of(HOOD_V1), m1) == 1

    far = point(-2, 1, 2, -1)
    assert strip_location(far) == "interior"
    m_far = from_blocks([(far, 1)], xs)
    if not block_contains(far, HOOD_V1) and not block_contains(HOOD_V1, far):
        assert nat_space_dim(m_far.index_of(HOOD_V1), m_far) \
            == m_far.dim_at(m_far.index_of(HOOD_V1))

    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(31)
    for _ in range(6):
        blocks = random_blocks(rng, shell, 2)
        m = from_blocks(blocks, xs)
        v = rng.choice(blocks)[0]
        assert nat_space_dim(m.index_of(v), m) == m.dim_at(m.index_of(v))


def dump_module(case, p):
    """The module of the hood, of RP^2 with height = vertex id or of S^3
    (the boundary of the 4-simplex) over GF(p), as `dgm --dump-module`
    writes it."""
    from itertools import combinations

    from riscpl.plc import PLComplex

    from reference import evaluated
    from test_golden import RP2
    from test_oracles import HOOD_F, HOOD_SIMPLICES

    values, maximal = {
        "hood": (HOOD_F, HOOD_SIMPLICES),
        "rp2": ({v: v for v in range(1, 7)}, RP2),
        "s3": (dict(zip(range(1, 6), (1, 1, 2, 2, 3))), combinations(range(1, 6), 4)),
    }[case]
    k = PLComplex.from_maximal({v: (F(x),) for v, x in values.items()}, maximal)
    return evaluated(k, p=p).module


def random_mat(rng, rows, cols, p):
    return Mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p) \
        if rows and cols else Mat.zeros(rows, cols, p)


def mutants(m, rng):
    """m and four broken copies: three map entries changed, six boundary
    samples given spaces with random maps, one nonzero map zeroed, and one
    nonzero space made a hole."""
    def copy(edit):
        out = GridModule(m.table, m.dims, m.maps, m.p)
        edit(out)
        return out

    def entries(out):
        for key in rng.sample(sorted(k for k, a in m.maps.items() if a.rows and a.cols), 3):
            a = m.maps[key].data.copy()
            a[rng.randrange(a.shape[0]), rng.randrange(a.shape[1])] += rng.randrange(1, m.p)
            out.maps[key] = Mat(a, m.p)

    def boundary(out):
        n = len(m.table.grid)
        edge = [s for s in m.samples() if not is_interior(m, s) and s[0] and s[1] < n - 1]
        picked = rng.sample(edge, 6)
        for s in picked:
            out.dims[s] = rng.randint(1, 2)
        for s in picked:
            for up in m.up(s):
                if is_sample(m, up):
                    out.maps[s, up] = random_mat(rng, out.dim_at(s), out.dim_at(up), m.p)
            for down in m.down(s):
                if is_sample(m, down):
                    out.maps[down, s] = random_mat(rng, out.dim_at(down), out.dim_at(s), m.p)

    def zeroed(out):
        key = rng.choice(sorted(k for k, a in m.maps.items() if not a.is_zero()))
        out.maps[key] = Mat.zeros(*m.maps[key].data.shape, m.p)

    yield m
    yield from map(copy, (entries, boundary, zeroed))
    yield zeroed_at(m, rng.choice([s for s in m.samples() if m.dim_at(s)]))


@pytest.mark.parametrize("case,p", [("hood", 3), ("hood", 5), ("rp2", 2), ("rp2", 3), ("s3", 2)])
def test_nat_space_dim_matches_reference(case, p, monkeypatch):
    # the walk's count equals the one with the transformation at every
    # sample of the support as unknowns, at every diagram vertex and at
    # random samples, boundary ones among them, of the module and of broken
    # copies, where the count need not be dim m(v)
    rng = random.Random(f"{case}{p}")
    m = dump_module(case, p)
    # a support depends on the table alone, which the broken copies share
    monkeypatch.setattr(m.table, "block", functools.lru_cache(None)(m.table.block))
    drawn = rng.sample([s for s in m.samples() if m.dim_at(s)], 12) \
        + rng.sample([s for s in m.samples() if not is_interior(m, s)], 13)
    cases = wrong = edge = 0
    for m in mutants(m, rng):
        for v in [m.index_of(d.point) for d in dgm(m).points] + drawn:
            got = nat_space_dim(v, m)
            assert got == nat_space_dim_reference(v, m), (v, got)
            cases += 1
            wrong += got != m.dim_at(v)
            edge += not is_interior(m, v)
    assert cases >= 5 * 25 and wrong and edge


def bumped_at(m, s):
    """A copy of m with a 1-dimensional space at the sample s, whose one
    nonzero map is the all-ones map to (i - 1, j)."""
    up = (s[0] - 1, s[1])
    out = GridModule(m.table, m.dims, {k: a for k, a in m.maps.items() if s not in k}, m.p)
    out.dims[s] = 1
    out.maps[s, up] = Mat(np.ones((1, m.dim_at(up))), m.p)
    return out


def ci_breaks(m):
    """Three broken copies of m, made as the command-line tests make them
    from a dump: the middle nonzero space made a hole, the covering map two
    thirds along the stored nonzero-sided ones zeroed, and the first
    interior zero space below a space at (i - 1, j) bumped."""
    nonzero = [s for s in m.samples() if m.dim_at(s)]
    yield zeroed_at(m, nonzero[len(nonzero) // 2])
    zeroed = GridModule(m.table, m.dims, m.maps, m.p)
    keys = sorted(k for k, a in m.maps.items() if a.rows and a.cols)
    key = keys[len(keys) * 2 // 3]
    zeroed.maps[key] = Mat.zeros(*m.maps[key].data.shape, m.p)
    yield zeroed
    yield bumped_at(m, next(s for s in m.samples() if is_interior(m, s)
                            and not m.dim_at(s) and m.dim_at((s[0] - 1, s[1]))))


def union_term_module():
    """A block at a vertex v bumped at the sample right of T^-1(v): the
    unit square at T^-1(v) is the first to fail, at its union term, since
    T maps its lower corner to v."""
    v = point(-1, INF, 0, -2)
    m = from_blocks([(v, 1)], sym_grid())
    w = t_index(m, m.index_of(v), -1)
    return bumped_at(m, (w[0], w[1] + 1))


def quiet_breaks():
    """Two breaks of the block at HOOD_V1 that leave every square
    commuting: a 1-dimensional space with zero maps at the first open-cell
    sample no block covers whose unit square above and to the left has
    interior corners, and a hole at the lowest left corner of the support,
    whose two neighbors below lie outside it."""
    xs = sym_grid()
    m = from_blocks([(HOOD_V1, 1)], xs)
    phantom = from_blocks([(HOOD_V1, 1)], xs)
    s = next(s for s in m.samples() if s[0] % 2 and s[1] % 2 and m.dim_at(s) == 0
             and is_interior(m, s) and is_interior(m, (s[0] - 1, s[1] - 1)))
    phantom.dims[s] = 1
    zero_maps_at(phantom, s)
    corner = max(m.table.block(m.index_of(HOOD_V1)), key=lambda s: (s[0], -s[1]))
    return [phantom, zeroed_at(m, corner)]


def report_kind(report):
    """None for a pass, else the report's reason, or the kind of its first
    entry when it names no reason."""
    if report is None:
        return None
    why = [r for r in report if isinstance(r, str)]
    return why[0] if why else "pairs"


def test_checkers_match_walk_everything_references():
    # the checkers walk the nonzero part of the module; the references, as
    # the checkers were before, every unit square and every sample: the same
    # verdicts and first counterexamples, of the modules, of their broken
    # copies, of a block bumped to fail at a union term and of two breaks
    # that only a zero space in a walk or a lone nonzero corner shows; the
    # decomposition check's other reports are compared on block sums in
    # test_decomposition_check_matches_reference
    checks = {
        "square": (square_commutes_check, square_commutes_check_reference),
        "exactness": (cohomological_check, cohomological_check_reference),
        "continuity": (seq_continuity_check, seq_continuity_check_reference),
        "decomposition": (decomposition_check, decomposition_check_reference),
    }
    modules = [union_term_module(), *quiet_breaks()]
    for case, p in ("hood", 3), ("hood", 5), ("rp2", 2), ("rp2", 3), ("s3", 2):
        m = dump_module(case, p)
        modules += [*mutants(m, random.Random(f"{case}{p}")), *ci_breaks(m)]
    kinds = {name: set() for name in checks}
    for m in modules:
        for name, (check, reference) in checks.items():
            got = check(m)
            assert got == reference(m), name
            kinds[name].add(report_kind(got))
    assert kinds == {
        "square": {None, "pairs"},
        "exactness": {None, "composite nonzero", "not exact at the union term",
                      "not exact at the middle term", "not exact at the intersection term"},
        "continuity": {None, "pairs"},
        "decomposition": {None, "square", "dimension mismatch", "too few sections"},
    }


def test_block_matches_the_in_block_scan():
    # at every sample v of three tables, edge rows with T^-1(v) off the grid
    # among them
    for xs in (sym_grid(lams=(0,), kmin=-1, kmax=1), sym_grid(lams=(0, 1), kmin=-1, kmax=1),
               sym_grid(lams=(F(1, 2), 2), kmin=-1, kmax=1)):
        table = CoordTable(xs)
        for v in table.samples:
            assert table.block(v) == block_reference(table, v), v


def rebased_at(m, s, rng):
    """m with the basis of M(s) changed by a random product of elementary
    matrices: an isomorphic module."""
    d, p = m.dim_at(s), m.p
    g, inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for _ in range(4):
        e, e_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
        a, b = rng.randrange(d), rng.randrange(d)
        if a == b:
            unit = rng.randrange(1, p)
            e[a, a], e_inv[a, a] = unit, pow(unit, p - 2, p)
        else:
            c = rng.randrange(p)
            e[a, b], e_inv[a, b] = c, -c
        g, inv = e @ g % p, inv @ e_inv % p
    maps = dict(m.maps)
    for up in m.up(s):
        if (s, up) in maps:
            maps[s, up] = Mat(g, p) @ maps[s, up]
    for down in m.down(s):
        if (down, s) in maps:
            maps[down, s] = maps[down, s] @ Mat(inv, p)
    return GridModule(m.table, m.dims, maps, p)


@pytest.mark.parametrize("p", [2, 3])
def test_decomposition_check_matches_reference(p):
    # sections from the walk give the verdict and counterexample of sections
    # cut out by composites and moved by map_between, on block sums, on
    # isomorphic copies and on the three broken modules of
    # test_decomposition_check_first_counterexamples placed at random
    xs = sym_grid()
    shell = GridModule(CoordTable(xs), {}, {}, p)
    rng = random.Random(p)
    kinds = set()
    for _ in range(4):
        blocks = random_blocks(rng, shell, 3)
        m = from_blocks(blocks, xs, p)
        v = m.index_of(rng.choice(blocks)[0])
        rebased = m
        for s in rng.sample([s for s in m.samples() if m.dim_at(s)], 8):
            rebased = rebased_at(rebased, s, rng)
        phantom = from_blocks(blocks, xs, p)
        s = rng.choice([s for s in m.samples() if s[0] % 2 and s[1] % 2
                        and is_interior(m, s) and m.dim_at(s) == 0])
        phantom.dims[s] = 1
        zero_maps_at(phantom, s)
        collapsed = from_blocks(blocks + [(m.table.point(v), 2)], xs, p)
        for down in m.down(v):
            collapsed.maps[down, v] = Mat(np.ones((collapsed.dim_at(down), collapsed.dim_at(v))), p)
        rim = from_blocks(blocks, xs, p)
        r = next((v[0], j) for j in range(v[1], -1, -1) if rim.dim_at((v[0], j)) == 0)
        rim.dims[r] = 1
        zero_maps_at(rim, r)
        rim.maps[r, rim.up(r)[1]] = Mat(np.ones((1, rim.dim_at(rim.up(r)[1]))), p)
        for case in m, rebased, phantom, collapsed, rim:
            got = decomposition_check(case)
            assert got == decomposition_check_reference(case)
            kinds.add(got if got is None else got[0])
    assert {None, "dimension mismatch", "not invertible", "too few sections"} <= kinds


# ---------------------------------------------------------------------------
# sample-grid geometry


def geometry_case(case, tmp_path):
    from riscpl.cli import load_module, module_json

    from reference import evaluated
    from test_oracles import HOOD_F, HOOD_SIMPLICES
    from test_risc_builder import complex_of, random_complex

    if case == "random":
        return evaluated(random_complex(random.Random(7))).module
    m = evaluated(complex_of(HOOD_F, HOOD_SIMPLICES), p=3).module
    if case == "dump":
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module_json(m, 3)))
        m, _ = load_module(str(path))
    return m


@pytest.mark.parametrize("case", ["hood", "random", "dump"])
def test_grid_geometry_matches_reference(case, tmp_path):
    m = geometry_case(case, tmp_path)
    xs = m.table.grid
    ref = SampleGridReference(xs)
    n = len(xs)
    assert n > 0
    assert list(m.samples()) == ref.samples()
    assert list(m.vertex_indices()) == ref.vertex_indices()
    for i in range(-1, n + 1):
        for j in range(-1, n + 1):
            idx = (i, j)
            assert is_sample(m, idx) == ref.is_sample(idx), idx
            assert is_interior(m, idx) == ref.is_interior(idx), idx
            for power in (1, -1, 2, -2):
                assert t_index(m, idx, power) == ref.t_index(idx, power), (idx, power)
            if 0 <= i < n and 0 <= j < n:
                assert m.index_of(m.table.point(idx)) == idx
    for idx in ref.samples():
        # translates that leave the grid have no index
        for q in (t_power(ref.point(idx), 1), t_power(ref.point(idx), -1)):
            assert m.index_of(q) == ref.index_of(q)
    # block supports: every diagram vertex and seeded interior samples
    interior = [idx for idx in ref.samples() if ref.is_interior(idx)]
    vertices = [m.index_of(d.point) for d in dgm(m).points]
    vertices += random.Random(0).sample(interior, min(200, len(interior)))
    points = {s: ref.point(s) for s in ref.samples()}
    for v in vertices:
        support = []  # row by row, as the table lists it
        for s, pt in points.items():
            inside = block_contains(points[v], pt)
            assert in_block(m.table, v, s) == inside, (v, s)
            if inside:
                support.append(s)
        assert m.table.block(v) == tuple(support), v
