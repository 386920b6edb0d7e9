import random
from fractions import Fraction

import numpy as np
import pytest

from riscpl.exact_geometry import INF, NEG_INF, RealOpenSet
from riscpl.field_linalg import Mat, rank
from riscpl.plc import (
    CohomBasis,
    LevelGrid,
    PLComplex,
    induced_map,
    mv_connecting,
    open_model,
    relative_cohomology,
    split_all,
    validate,
)

from oracle_betti import betti_numbers, euler_characteristic
import reference
from reference import is_split_at, split_at_level
from test_oracles import HOOD_F, HOOD_SIMPLICES

F = Fraction


def hood():
    return PLComplex.from_maximal({v: (x,) for v, x in HOOD_F.items()}, HOOD_SIMPLICES)


def circle():
    return PLComplex.from_maximal(
        {1: (0,), 2: (1,), 3: (2,), 4: (1,)}, [{1, 2}, {2, 3}, {3, 4}, {4, 1}]
    )


def betti_of(k):
    return betti_numbers([s for s in k.simplices])


def random_complex(rng):
    nverts = rng.randint(4, 7)
    values = {v: (F(rng.randint(-2, 2)),) for v in range(nverts)}
    maximal = []
    for _ in range(rng.randint(3, 6)):
        d = rng.randint(1, 2)
        maximal.append(rng.sample(range(nverts), min(d + 1, nverts)))
    return PLComplex.from_maximal(values, maximal)


# ---------------------------------------------------------------------------
# validation


def test_validate_examples():
    k = PLComplex.from_maximal({1: (0,)}, [{1}])
    validate(k)
    k = PLComplex.from_maximal({1: (0,), 2: (1,)}, [{1, 2}])
    assert frozenset({1}) in k.simplices and frozenset({2}) in k.simplices
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [[1, 1]])
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [{1, 2}])  # dangling id
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [[]])


# ---------------------------------------------------------------------------
# splitting


def test_split_single_edge():
    k = PLComplex.from_maximal({"a": (0,), "b": (2,)}, [{"a", "b"}])
    ks = split_at_level(k, 1)
    assert len(ks.values) == 3
    (x,) = [v for v in ks.values if v not in ("a", "b")]
    assert ks.value(x) == 1
    assert frozenset({"a", x}) in ks.simplices
    assert frozenset({x, "b"}) in ks.simplices
    assert frozenset({"a", "b"}) not in ks.simplices
    assert len(ks.simplices) == 5


def test_split_triangle():
    k = PLComplex.from_maximal({1: (0,), 2: (0,), 3: (2,)}, [{1, 2, 3}])
    ks = split_at_level(k, 1)
    assert euler_characteristic(ks.simplices) == euler_characteristic(k.simplices)
    assert is_split_at(ks, [1])
    # one triangle above the level edge, the quadrilateral below splits in two
    assert len([s for s in ks.simplices if len(s) == 3]) == 3
    # the level edge between the two new vertices is present
    new = [v for v in ks.values if ks.value(v) == 1]
    assert len(new) == 2
    assert frozenset(new) in ks.simplices


def test_split_all_hood_and_idempotence():
    grid = LevelGrid.from_values(HOOD_F.values())
    assert grid.critical == (F(0), F(1), F(2))
    assert grid.regular == (F(-1), F(1, 2), F(3, 2), F(3))
    k = split_all(hood(), grid)
    levels = grid.levels
    for s in k.simplices:
        vals = sorted(k.value(v) for v in s)
        lo = max(l for l in levels if l <= vals[0])
        hi = min(l for l in levels if l >= vals[-1])
        assert levels.index(hi) - levels.index(lo) <= 1
    again = split_all(k, grid)
    assert again.values == k.values
    assert again.simplices == k.simplices


def test_split_vertex_growth_bookkeeping():
    k = PLComplex.from_maximal({"a": (0,), "b": (2,), "c": (2,)}, [{"a", "b"}, {"a", "c"}])
    ks = split_at_level(k, 1)
    assert len(ks.values) - len(k.values) == 2  # one split per crossing edge


def test_split_preserves_betti_random():
    rng = random.Random(7)
    for _ in range(20):
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid)
        assert betti_of(ks) == betti_of(k)
        assert euler_characteristic(ks.simplices) == euler_characteristic(k.simplices)


def test_split_cap():
    k = circle()
    with pytest.raises(ValueError):
        split_all(k, [F(1, 2), F(3, 2)], cap=4)


# ---------------------------------------------------------------------------
# open models


def test_open_model_trivial():
    k = split_all(hood(), LevelGrid.from_values(HOOD_F.values()))
    assert open_model(k, RealOpenSet.whole_line()) == frozenset(k.simplices)
    assert open_model(k, RealOpenSet.empty()) == frozenset()


def test_open_model_hood_sublevel():
    k = split_all(hood(), LevelGrid.from_values(HOOD_F.values()))
    sub = open_model(k, RealOpenSet.make([(NEG_INF, F(1, 2))]))
    assert betti_numbers(sub) == [2]


def test_open_model_boolean_compat():
    rng = random.Random(11)
    for _ in range(15):
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid)
        def rand_open():
            ints = []
            for _ in range(rng.randint(1, 2)):
                lo = rng.choice(list(grid.regular) + [NEG_INF])
                hi = rng.choice(list(grid.regular) + [INF])
                ints.append((lo, hi))
            return RealOpenSet.make(ints)

        u1, u2 = rand_open(), rand_open()
        m1, m2 = open_model(ks, u1), open_model(ks, u2)
        assert open_model(ks, u1.union(u2)) == m1 | m2
        assert open_model(ks, u1.intersect(u2)) == m1 & m2
        if u1.is_subset_of(u2):
            assert m1 <= m2


# ---------------------------------------------------------------------------
# relative cohomology


def test_relative_cohomology_examples():
    pt = PLComplex.from_maximal({1: (0,)}, [{1}])
    h = relative_cohomology(pt.simplices, set(), 0)
    assert h.dim == 1

    path = PLComplex.from_maximal({"a": (0,), "x": (1,), "b": (2,)}, [{"a", "x"}, {"x", "b"}])
    ends = {frozenset({"a"}), frozenset({"b"})}
    assert relative_cohomology(path.simplices, ends, 1).dim == 1
    assert relative_cohomology(path.simplices, ends, 0).dim == 0

    c = circle()
    assert relative_cohomology(c.simplices, set(), 1).dim == 1
    assert relative_cohomology(c.simplices, set(), 0).dim == 1


def test_induced_map_identity_and_cone():
    c = circle()
    h = relative_cohomology(c.simplices, set(), 1)
    assert induced_map(h, h) == Mat.eye(h.dim)

    cone = PLComplex.from_maximal(
        {1: (0,), 2: (1,), 3: (2,), 4: (1,), 5: (2,)},
        [{5, 1, 2}, {5, 2, 3}, {5, 3, 4}, {5, 4, 1}],
    )
    hc = relative_cohomology(cone.simplices, set(), 1)
    assert hc.dim == 0
    m = induced_map(hc, h)
    assert m.rows == 1 and m.cols == 0


def test_induced_map_functorial_random():
    rng = random.Random(13)
    for _ in range(10):
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid)
        cuts = sorted(rng.sample(grid.regular, min(2, len(grid.regular))))
        if len(cuts) < 2:
            continue
        u_small = RealOpenSet.make([(NEG_INF, cuts[0])])
        u_mid = RealOpenSet.make([(NEG_INF, cuts[1])])
        a0 = open_model(ks, u_small)
        a1 = open_model(ks, u_mid)
        a2 = frozenset(ks.simplices)
        for n in (0, 1):
            h0 = relative_cohomology(a0, set(), n)
            h1 = relative_cohomology(a1, set(), n)
            h2 = relative_cohomology(a2, set(), n)
            assert induced_map(h2, h0) == induced_map(h1, h0) @ induced_map(h2, h1)


# ---------------------------------------------------------------------------
# Mayer-Vietoris connecting maps


def vstack(a, b):
    return Mat(np.vstack([a.data, b.data]), a.p)


def les_exact(pair_w, pair_1, pair_2, pair_u, top, p=2):
    """Check exactness of the Mayer-Vietoris long exact sequence of the triad
    at every term up to degree top."""
    terms = []  # (dim, outgoing map) alternating w, sum, u per degree
    maps = []
    prev_delta_rank = 0
    for n in range(top + 2):
        hw = relative_cohomology(*pair_w, n, p)
        h1 = relative_cohomology(*pair_1, n, p)
        h2 = relative_cohomology(*pair_2, n, p)
        hu = relative_cohomology(*pair_u, n, p)
        restrict = vstack(induced_map(hw, h1), induced_map(hw, h2))
        diff = Mat.hstack([induced_map(h1, hu), -induced_map(h2, hu)])
        delta = mv_connecting(pair_w, pair_1, pair_2, pair_u, n, p, src=hu)
        # exactness at H^n(w): image of previous delta = kernel of restrict
        assert prev_delta_rank == hw.dim - rank(restrict)
        # exactness at the sum term
        assert (diff @ restrict).is_zero()
        assert rank(restrict) == h1.dim + h2.dim - rank(diff)
        # exactness at H^n(u)
        assert (delta @ diff).is_zero()
        assert rank(diff) == hu.dim - rank(delta)
        prev_delta_rank = rank(delta)
    assert prev_delta_rank == 0


def test_mv_degenerate_triad():
    c = circle()
    pair = (set(c.simplices), set())
    m = mv_connecting(pair, pair, pair, pair, 0)
    assert m.is_zero()


def test_mv_circle_two_arcs():
    c = circle()
    top = {frozenset(s) for s in
           [{2}, {3}, {4}, {2, 3}, {3, 4}]}
    bot = {frozenset(s) for s in
           [{4}, {1}, {2}, {4, 1}, {1, 2}]}
    union = set(c.simplices)
    inter = top & bot
    delta = mv_connecting((union, set()), (top, set()), (bot, set()), (inter, set()), 0)
    assert rank(delta) == 1
    les_exact((union, set()), (top, set()), (bot, set()), (inter, set()), top=1)


def test_mv_random_sublevel_superlevel_triads():
    rng = random.Random(17)
    done = 0
    while done < 8:
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid)
        if len(grid.regular) < 2:
            continue
        lo, hi = sorted(rng.sample(grid.regular, 2))
        a1 = open_model(ks, RealOpenSet.make([(NEG_INF, hi)]))
        a2 = open_model(ks, RealOpenSet.make([(lo, INF)]))
        union = a1 | a2
        inter = a1 & a2
        les_exact((union, set()), (a1, set()), (a2, set()), (inter, set()),
                  top=max(1, ks.dim()))
        done += 1


# ---------------------------------------------------------------------------
# the simplex index against the vertex-by-vertex and sorted references


def random_split_complexes(rng):
    """Split complexes of dimension 1 and 2 with one function, and of
    dimension 2 with two functions split jointly; ids mix ints and strings."""
    for dim, nfuncs in ((1, 1), (2, 1), (2, 2)):
        for _ in range(4):
            nverts = rng.randint(4, 7)
            ids = [v if rng.random() < 0.5 else f"v{v}" for v in range(nverts)]
            values = {v: tuple(F(rng.randint(-2, 2)) for _ in range(nfuncs)) for v in ids}
            maximal = [rng.sample(ids, dim + 1) for _ in range(rng.randint(2, 5))]
            k = PLComplex.from_maximal(values, maximal)
            grid = LevelGrid.from_values(x[f] for x in values.values() for f in range(nfuncs))
            yield split_all(k, grid), grid


def random_open_sets(rng, grid):
    """Open sets with split or infinite ends, touching intervals and the
    empty set."""
    ends = list(grid.levels)
    out = [RealOpenSet.empty(), RealOpenSet.whole_line()]
    for _ in range(8):
        ints = []
        for _ in range(rng.randint(1, 2)):
            lo = rng.choice(ends + [NEG_INF])
            hi = rng.choice(ends + [INF])
            ints.append((lo, hi))
        out.append(RealOpenSet.make(ints))
    a, b, c = sorted(rng.sample(ends, 3))
    out.append(RealOpenSet.make([(a, b), (b, c)]))
    out.append(RealOpenSet.make([(NEG_INF, b), (b, INF)]))
    return out


def test_open_model_matches_vertex_by_vertex_reference():
    rng = random.Random(23)
    for k, grid in random_split_complexes(rng):
        for func in range(k.nfuncs):
            for u in random_open_sets(rng, grid):
                model = open_model(k, u, func)
                assert model == reference.open_model(k, u, func)
                assert all(s is k.index.cells[k.index.id[s]] for s in model)


def test_coboundaries_match_sorted_reference():
    rng = random.Random(29)
    for k, grid in random_split_complexes(rng):
        ix = k.index
        sets = random_open_sets(rng, grid)
        for _ in range(6):
            u1, u0 = rng.sample(sets, 2)
            func = rng.randrange(k.nfuncs)
            a = open_model(k, u1, func)
            b = open_model(k, u1.intersect(u0), func)
            rel = ix.relative(a, b)
            for n in range(-1, k.dim() + 1):
                for p in (2, 3, 5):
                    m, rows, cols = reference.coboundary_matrix(a - b, n, p)
                    assert ix.coboundary(rel, n, p) == m
                    assert ix.cells[ix.of_dim(rel, n + 1)].tolist() == rows
                    assert ix.cells[ix.of_dim(rel, n)].tolist() == cols
                    h = relative_cohomology(a, b, n, p, ix)
                    assert h.cells == cols and h.delta == m
                    own = relative_cohomology(a, b, n, p)
                    assert (own.cells, own.reps, own.coboundaries) == \
                        (h.cells, h.reps, h.coboundaries)


def test_mv_connecting_index_and_odd_primes():
    rng = random.Random(31)
    for k, grid in random_split_complexes(rng):
        if len(grid.regular) < 2:
            continue
        # a sublevel and a superlevel pair, each relative to a smaller one
        lo, hi = sorted(rng.sample(grid.regular, 2))
        sub = rng.choice([x for x in grid.levels if x <= hi])
        sup = rng.choice([x for x in grid.levels if x >= lo])
        a1 = open_model(k, RealOpenSet.make([(NEG_INF, hi)]))
        a2 = open_model(k, RealOpenSet.make([(lo, INF)]))
        b1 = open_model(k, RealOpenSet.make([(NEG_INF, sub)]))
        b2 = open_model(k, RealOpenSet.make([(sup, INF)]))
        triad = ((a1 | a2, b1 | b2), (a1, b1), (a2, b2), (a1 & a2, b1 & b2))
        for p in (3, 5):
            for n in range(k.dim() + 1):
                assert mv_connecting(*triad, n, p, index=k.index) == \
                    mv_connecting(*triad, n, p)
        les_exact(*triad, top=max(1, k.dim()), p=3)
