import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from riscpl import risc_builder
from riscpl.cli import gen_complex, load_complex, main
from riscpl.exact_geometry import INF, NEG_INF, RealOpenSet
from riscpl.field_linalg import Mat, Reduction, rank
from riscpl.interleave import interleaving_check
from riscpl.plc import (
    Coboundary,
    CohomBasis,
    PLComplex,
    SimplexIndex,
    _forest,
    induced_map,
    mv_connecting,
    open_model,
    relative_cohomology,
    split_all,
)

from geometry_reference import intersect
from oracle_betti import betti_numbers, euler_characteristic
import reference
from reference import LevelGrid, is_split_at, ranks_of, split_at_level
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
    assert PLComplex.from_maximal({1: (0,)}, [{1}]).simplices == {frozenset({1})}
    k = PLComplex.from_maximal({1: (0,), 2: (1,)}, [{1, 2}])
    assert frozenset({1}) in k.simplices and frozenset({2}) in k.simplices
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [[1, 1]])
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [{1, 2}])  # dangling id
    with pytest.raises(ValueError):
        PLComplex.from_maximal({1: (0,)}, [[]])


ID_POOLS = (list(range(8)), [f"v{i}" for i in range(8)], [0, "a", 1, "1", 2, "b", 3, "c"])
GHOSTS = (99, "ghost", "99", "v9")


def random_maximal(rng):
    """A value map and a list of maximal simplices over int, string or mixed
    ids, some simplices listed twice or inside another one."""
    verts = rng.choice(ID_POOLS)[:rng.randint(1, 8)]
    nfuncs = rng.randint(1, 2)
    values = {v: tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(nfuncs))
              for v in verts}
    if nfuncs == 1 and rng.random() < 0.5:
        values = {v: str(xs[0]) for v, xs in values.items()}
    maximal = []
    for _ in range(rng.randint(0, 6)):
        maximal.append(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
        if rng.random() < 0.3:
            maximal.append(maximal[-1][::-1])
        if rng.random() < 0.3 and len(maximal[-1]) > 1:
            maximal.append(rng.sample(maximal[-1], len(maximal[-1]) - 1))
    return values, maximal


def test_one_pass_builder_matches_closure_then_validate():
    rng = random.Random(40)
    cases = [random_maximal(rng) for _ in range(400)]
    for preset in ("hood", "flattened-hood", "circle", "cone", "random"):
        for funcs in (1, 2):
            doc = gen_complex(preset, funcs, funcs)
            cases.append(({e["id"]: e["value"] for e in doc["vertices"]}, doc["simplices"]))
    for values, maximal in cases:
        k = PLComplex.from_maximal(values, maximal)
        ref = reference.from_maximal_reference(values, maximal)
        assert (k.values, k.simplices, k.nfuncs) == (ref.values, ref.simplices, ref.nfuncs)
        assert list(k.values) == list(ref.values)
        capped = PLComplex.from_maximal(values, maximal, cap=len(ref.simplices))
        assert capped.simplices == ref.simplices


def test_one_pass_builder_names_the_first_fault_in_input_order():
    rng = random.Random(41)
    for _ in range(400):
        values, maximal = random_maximal(rng)
        faulty, first = [], None
        if len(values) > 1 and rng.random() < 0.2:
            v = rng.choice(list(values)[1:])
            xs = values[v] if isinstance(values[v], tuple) else (values[v],)
            values[v] = xs + (F(0),)
            first = f"vertex {v} has {len(xs) + 1} values, expected {len(xs)}"
        for s in maximal:
            kind = rng.randrange(5)
            if kind == 0:
                bad, fault = [], "empty simplex"
            elif kind == 1:
                bad = s + [rng.choice(s)] + rng.sample(GHOSTS, rng.randint(0, 2))
                rng.shuffle(bad)
                fault = f"simplex with repeated vertex: {bad}"
            elif kind == 2:
                bad = s + rng.sample(GHOSTS, rng.randint(1, 3))
                rng.shuffle(bad)
                fault = f"dangling vertex id {next(v for v in bad if v not in values)}"
            if kind < 3:
                faulty.append(bad)
                first = first or fault
            faulty.append(s)
        if first is None:
            continue
        with pytest.raises(ValueError) as e:
            PLComplex.from_maximal(values, faulty)
        assert str(e.value) == first
        with pytest.raises(ValueError):
            reference.from_maximal_reference(values, faulty)


def test_cap_bounds_the_face_closure():
    values = {v: (F(v),) for v in range(30)}
    # the 30-vertex simplex has 2^30 - 1 faces; the build stops at the first
    # one past the cap
    with pytest.raises(ValueError, match=re.escape("(101 > 100) while closing under faces")):
        PLComplex.from_maximal(values, [range(30)], cap=100)
    # a face shared by two maximal simplices counts once
    maximal = [range(7), range(1, 8)]
    size = len(reference.from_maximal_reference(values, maximal).simplices)
    assert size == 2 * 127 - 63
    assert len(PLComplex.from_maximal(values, maximal, cap=size).simplices) == size
    with pytest.raises(ValueError, match=re.escape(f"({size} > {size - 1})")):
        PLComplex.from_maximal(values, maximal, cap=size - 1)


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
    k = split_all(hood(), grid.levels)
    levels = grid.levels
    for s in k.simplices:
        vals = sorted(k.value(v) for v in s)
        lo = max(l for l in levels if l <= vals[0])
        hi = min(l for l in levels if l >= vals[-1])
        assert levels.index(hi) - levels.index(lo) <= 1
    again = split_all(k, grid.levels)
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
        ks = split_all(k, grid.levels)
        assert betti_of(ks) == betti_of(k)
        assert euler_characteristic(ks.simplices) == euler_characteristic(k.simplices)


def test_split_cap():
    k = circle()
    with pytest.raises(ValueError):
        split_all(k, [F(1, 2), F(3, 2)], cap=4)


def split_fold(k, levels, funcs):
    """split_at_level at every (level, function) in increasing order, and
    the simplex count after each step."""
    sizes = []
    for s in sorted({F(x) for x in levels}):
        for func in funcs:
            k = split_at_level(k, s, func)
            sizes.append(len(k.simplices))
    return k, sizes


def interleave_levels(k):
    """The levels and functions that interleaving_check splits k at."""

    class Stop(Exception):
        pass

    seen = []

    def stop(k, levels, funcs=None, **kwargs):
        seen.append((list(levels), list(funcs)))
        raise Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risc_builder, "split_all", stop)
        with pytest.raises(Stop):
            interleaving_check(k)
    return seen[0]


def random_multi_complex(rng, nfuncs):
    """Integer values of nfuncs functions and split levels at half
    integers, so that a split often lands on another function's level."""
    nverts = rng.randint(4, 7)
    values = {v: tuple(F(rng.randint(-2, 2)) for _ in range(nfuncs))
              for v in range(nverts)}
    maximal = [rng.sample(range(nverts), rng.randint(2, 3))
               for _ in range(rng.randint(3, 6))]
    levels = rng.sample([F(i, 2) for i in range(-5, 6)], rng.randint(3, 8))
    return PLComplex.from_maximal(values, maximal), levels


def test_split_all_equals_the_one_level_fold():
    from test_interleave import hood_stability_pair

    rng = random.Random(23)
    cases = [(hood_stability_pair(), *interleave_levels(hood_stability_pair()))]
    for nfuncs in (1, 2, 3, 1, 2, 3, 1, 2, 3):
        k, levels = random_multi_complex(rng, nfuncs)
        cases.append((k, levels, list(range(nfuncs))))
    # how often each case of the level positions is met
    seen = {"on a level": 0, "between levels": 0, "equal ends": 0,
            "created on another level": 0}
    for k, levels, funcs in cases:
        trace = []
        ks = split_all(k, levels, funcs, trace=trace)
        kf, sizes = split_fold(k, levels, funcs)
        assert ks.values == kf.values
        assert ks.simplices == kf.simplices
        assert [x for x, *_ in trace] == list(kf.values)[len(k.values):]
        on = {F(x) for x in levels}
        for v in k.values:
            for func in funcs:
                seen["on a level" if k.value(v, func) in on else "between levels"] += 1
        seen["equal ends"] += sum(
            1 for e in ks.simplices if len(e) == 2 for func in funcs
            if len({ks.value(v, func) for v in e}) == 1)
        seen["created on another level"] += sum(
            1 for x, *_ in trace if sum(ks.value(x, func) in on for func in funcs) > 1)
        # the cap is tested after each step, as the fold's counts are
        for step in (len(sizes) // 4, len(sizes) // 2, 3 * len(sizes) // 4):
            cap = sizes[step] - 1
            first = next(size for size in sizes if size > cap)
            with pytest.raises(ValueError, match=re.escape(f"({first} > {cap})")):
                split_all(k, levels, funcs, cap=cap)
    assert all(seen.values()), seen


def test_split_all_sorts_each_split_edge_once(monkeypatch):
    # an edge is bucketed at its next crossing only, the one it is split
    # at, so splitting the hood pair as the interleave check does sorts
    # each of its 270 split edges once (934 sort keys when an edge was
    # bucketed at every level it crossed)
    from riscpl import plc
    from test_interleave import hood_stability_pair

    keys = []
    skey = plc.skey
    monkeypatch.setattr(plc, "skey", lambda e: keys.append(e) or skey(e))
    trace = []
    split_all(hood_stability_pair(), *interleave_levels(hood_stability_pair()), trace=trace)
    assert len(keys) == len(set(keys)) == len(trace) == 270


def test_split_cap_on_a_random_pair(tmp_path):
    # the split of the interleaving of `gen --preset random --funcs 2
    # --seed 6` stops at the step where it first exceeds the default cap
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(gen_complex("random", 6, 2)))
    k, _ = load_complex(str(path))
    levels, funcs = interleave_levels(k)
    with pytest.raises(ValueError, match=re.escape("(20807 > 20000)")):
        split_all(k, levels, funcs, cap=risc_builder.DEFAULT_CAP)


def test_split_cap_message_names_the_level_it_stopped_at(tmp_path, capsys):
    # the split of that pair passes the cap during its 38th level of 69:
    # the 37 levels before stay under it, and the full split is larger
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(gen_complex("random", 6, 2)))
    k, _ = load_complex(str(path))
    levels, funcs = interleave_levels(k)
    levels = sorted(set(levels))
    cap = risc_builder.DEFAULT_CAP
    message = "at level 38 of 69; the full split is at least as large"
    with pytest.raises(ValueError, match=re.escape(f"(20807 > 20000) {message}")):
        split_all(k, levels, funcs, cap=cap)
    assert len(levels) == 69
    assert len(split_all(k, levels[:37], funcs, cap=cap).simplices) <= cap
    assert len(split_all(k, levels, funcs).simplices) > 20807
    assert main(["interleave", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# ---------------------------------------------------------------------------
# open models


def whole(k):
    return k.index.subcomplex(k.simplices)


def nothing(k):
    return k.index.subcomplex(())


def simplices(k, model):
    return set(k.index.cells[model.ids])


def model_of(k, u, func=0):
    """The open model of an open set of levels, through its value-rank
    ranges."""
    return open_model(k, ranks_of(k, u, func), func)


def test_open_model_trivial():
    k = split_all(hood(), LevelGrid.from_values(HOOD_F.values()).levels)
    assert model_of(k, RealOpenSet.whole_line()) == whole(k)
    assert model_of(k, RealOpenSet.empty()) == nothing(k)
    assert len(whole(k)) == len(k.simplices) and len(nothing(k)) == 0


def test_open_model_hood_sublevel():
    k = split_all(hood(), LevelGrid.from_values(HOOD_F.values()).levels)
    sub = model_of(k, RealOpenSet.make([(NEG_INF, F(1, 2))]))
    assert betti_numbers(simplices(k, sub)) == [2]


def test_open_model_boolean_compat():
    rng = random.Random(11)
    for _ in range(15):
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid.levels)
        def rand_open():
            ints = []
            for _ in range(rng.randint(1, 2)):
                lo = rng.choice(list(grid.regular) + [NEG_INF])
                hi = rng.choice(list(grid.regular) + [INF])
                ints.append((lo, hi))
            return RealOpenSet.make(ints)

        u1, u2 = rand_open(), rand_open()
        m1, m2 = model_of(ks, u1), model_of(ks, u2)
        assert model_of(ks, RealOpenSet.make(u1.intervals + u2.intervals)) == m1 | m2
        assert model_of(ks, intersect(u1, u2)) == m1 & m2
        if intersect(u1, u2) == u1:
            assert m1 <= m2


# ---------------------------------------------------------------------------
# relative cohomology


def test_relative_cohomology_examples():
    pt = PLComplex.from_maximal({1: (0,)}, [{1}])
    h = relative_cohomology(whole(pt), nothing(pt), 0, 2, pt.index)
    assert h.dim == 1

    path = PLComplex.from_maximal({"a": (0,), "x": (1,), "b": (2,)}, [{"a", "x"}, {"x", "b"}])
    ends = path.index.subcomplex({frozenset({"a"}), frozenset({"b"})})
    assert relative_cohomology(whole(path), ends, 1, 2, path.index).dim == 1
    assert relative_cohomology(whole(path), ends, 0, 2, path.index).dim == 0

    c = circle()
    assert relative_cohomology(whole(c), nothing(c), 1, 2, c.index).dim == 1
    assert relative_cohomology(whole(c), nothing(c), 0, 2, c.index).dim == 1


def test_induced_map_identity_and_cone():
    c = circle()
    h = relative_cohomology(whole(c), nothing(c), 1, 2, c.index)
    assert induced_map(h, h) == Mat.eye(h.dim)

    cone = PLComplex.from_maximal(
        {1: (0,), 2: (1,), 3: (2,), 4: (1,), 5: (2,)},
        [{5, 1, 2}, {5, 2, 3}, {5, 3, 4}, {5, 4, 1}],
    )
    hc = relative_cohomology(whole(cone), nothing(cone), 1, 2, cone.index)
    assert hc.dim == 0
    m = induced_map(hc, h)
    assert m.rows == 1 and m.cols == 0


def test_induced_map_functorial_random():
    rng = random.Random(13)
    for _ in range(10):
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid.levels)
        cuts = sorted(rng.sample(grid.regular, min(2, len(grid.regular))))
        if len(cuts) < 2:
            continue
        u_small = RealOpenSet.make([(NEG_INF, cuts[0])])
        u_mid = RealOpenSet.make([(NEG_INF, cuts[1])])
        a0 = model_of(ks, u_small)
        a1 = model_of(ks, u_mid)
        a2 = whole(ks)
        for n in (0, 1):
            h0 = relative_cohomology(a0, nothing(ks), n, 2, ks.index)
            h1 = relative_cohomology(a1, nothing(ks), n, 2, ks.index)
            h2 = relative_cohomology(a2, nothing(ks), n, 2, ks.index)
            assert induced_map(h2, h0) == induced_map(h1, h0) @ induced_map(h2, h1)


# ---------------------------------------------------------------------------
# Mayer-Vietoris connecting maps


def vstack(a, b):
    return Mat(np.vstack([a.data, b.data]), a.p)


def les_exact(pair_w, pair_1, pair_2, pair_u, top, ix, p=2):
    """Check exactness of the Mayer-Vietoris long exact sequence of the triad
    of subcomplexes of the complex with index ix at every term up to degree
    top."""
    terms = []  # (dim, outgoing map) alternating w, sum, u per degree
    maps = []
    prev_delta_rank = 0
    for n in range(top + 2):
        hw = relative_cohomology(*pair_w, n, p, ix)
        h1 = relative_cohomology(*pair_1, n, p, ix)
        h2 = relative_cohomology(*pair_2, n, p, ix)
        hu = relative_cohomology(*pair_u, n, p, ix)
        restrict = vstack(induced_map(hw, h1), induced_map(hw, h2))
        diff = Mat.hstack([induced_map(h1, hu), -induced_map(h2, hu)])
        delta = mv_connecting(pair_w, pair_1, pair_2, pair_u, n, p, ix, hu,
                              relative_cohomology(*pair_w, n + 1, p, ix))
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
    pair = (whole(c), nothing(c))
    h0, h1 = (relative_cohomology(*pair, n, 2, c.index) for n in (0, 1))
    m = mv_connecting(pair, pair, pair, pair, 0, 2, c.index, h0, h1)
    assert m.is_zero()


def test_mv_circle_two_arcs():
    c = circle()
    ix, none = c.index, nothing(c)
    top = ix.subcomplex(frozenset(s) for s in
                        [{2}, {3}, {4}, {2, 3}, {3, 4}])
    bot = ix.subcomplex(frozenset(s) for s in
                        [{4}, {1}, {2}, {4, 1}, {1, 2}])
    union = whole(c)
    inter = top & bot
    delta = mv_connecting((union, none), (top, none), (bot, none), (inter, none), 0, 2, ix,
                          relative_cohomology(inter, none, 0, 2, ix),
                          relative_cohomology(union, none, 1, 2, ix))
    assert rank(delta) == 1
    les_exact((union, none), (top, none), (bot, none), (inter, none), top=1, ix=ix)


def test_mv_random_sublevel_superlevel_triads():
    rng = random.Random(17)
    done = 0
    while done < 8:
        k = random_complex(rng)
        grid = LevelGrid.from_values(x[0] for x in k.values.values())
        ks = split_all(k, grid.levels)
        if len(grid.regular) < 2:
            continue
        lo, hi = sorted(rng.sample(grid.regular, 2))
        a1 = model_of(ks, RealOpenSet.make([(NEG_INF, hi)]))
        a2 = model_of(ks, RealOpenSet.make([(lo, INF)]))
        union = a1 | a2
        inter = a1 & a2
        none = nothing(ks)
        les_exact((union, none), (a1, none), (a2, none), (inter, none),
                  top=max(1, ks.dim()), ix=ks.index)
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
            yield split_all(k, grid.levels), grid


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
                model = model_of(k, u, func)
                assert simplices(k, model) == reference.open_model(k, u, func)
                assert model == k.index.subcomplex(reference.open_model(k, u, func))


def test_coboundaries_match_sorted_reference():
    rng = random.Random(29)
    for k, grid in random_split_complexes(rng):
        ix = k.index
        sets = random_open_sets(rng, grid)
        for _ in range(6):
            u1, u0 = rng.sample(sets, 2)
            func = rng.randrange(k.nfuncs)
            a = model_of(k, u1, func)
            b = model_of(k, intersect(u1, u0), func)
            rel = a.minus(b)
            assert set(ix.cells[rel]) == simplices(k, a) - simplices(k, b)
            for n in range(-1, k.dim() + 1):
                for p in (2, 3, 5):
                    m, rows, cols = reference.coboundary_matrix(
                        simplices(k, a) - simplices(k, b), n, p)
                    assert ix.coboundary(rel, n, p) @ Mat.eye(len(cols), p) == m
                    assert ix.cells[ix.of_dim(rel, n + 1)].tolist() == rows
                    assert ix.cells[ix.of_dim(rel, n)].tolist() == cols
                    h = relative_cohomology(a, b, n, p, ix)
                    assert ix.cells[h.ids].tolist() == cols and h.delta @ Mat.eye(len(cols), p) == m


def test_mv_connecting_index_and_odd_primes():
    rng = random.Random(31)
    for k, grid in random_split_complexes(rng):
        if len(grid.regular) < 2:
            continue
        # a sublevel and a superlevel pair, each relative to a smaller one
        lo, hi = sorted(rng.sample(grid.regular, 2))
        sub = rng.choice([x for x in grid.levels if x <= hi])
        sup = rng.choice([x for x in grid.levels if x >= lo])
        a1 = model_of(k, RealOpenSet.make([(NEG_INF, hi)]))
        a2 = model_of(k, RealOpenSet.make([(lo, INF)]))
        b1 = model_of(k, RealOpenSet.make([(NEG_INF, sub)]))
        b2 = model_of(k, RealOpenSet.make([(sup, INF)]))
        triad = ((a1 | a2, b1 | b2), (a1, b1), (a2, b2), (a1 & a2, b1 & b2))
        les_exact(*triad, top=max(1, k.dim()), ix=k.index, p=3)
        les_exact(*triad, top=max(1, k.dim()), ix=k.index, p=5)


# ---------------------------------------------------------------------------
# bases and maps against dense elimination


def kept_coboundaries(h: CohomBasis, d_nm1: Coboundary) -> Mat:
    """The columns of delta^{n-1} that a column reduction keeps as pivots:
    those independent of the columns before them.  In degree 1 their lows
    are the joining rows of the forest pass.  Above it a basis with
    representatives keeps a reduction which, beside them, skips columns
    that reduce to zero, so its pivots must be those of reducing every
    column; a basis without representatives keeps none."""
    red = Reduction(h.p)
    own = [j for j, col in d_nm1.columns().items() if red.add(col, {})]
    if h.span is not None:
        assert red.pivots == {low: piv for low, piv in h.span.pivots.items() if not piv[1]}
    elif h.degree == 1:
        assert sorted(_forest(d_nm1)[1]) == sorted(red.pivots)
    return Mat((d_nm1 @ Mat.eye(d_nm1.cols, h.p)).data[:, own], h.p)


def without_first_rep(h: CohomBasis) -> CohomBasis:
    """The basis with the pivot of its first representative dropped from
    its reduction, so that it no longer spans the cohomology."""
    span = Reduction(h.p)
    span.pivots = {low: piv for low, piv in h.span.pivots.items() if 0 not in piv[1]}
    return replace(h, span=span)


def random_mat(rng, rows, cols, p):
    return Mat(np.array([rng.randrange(p) for _ in range(rows * cols)],
                        dtype=np.int64).reshape(rows, cols), p)


def test_bases_and_maps_match_dense_reference():
    """Representatives, kept coboundaries, coordinates and induced maps
    equal those of dense elimination entry for entry, on random 1-D and 2-D
    relative pairs over GF(2), GF(3) and GF(5); so do the connecting maps
    of sublevel/superlevel triads."""
    rng = random.Random(41)
    for k, grid in random_split_complexes(rng):
        ix = k.index
        sets = random_open_sets(rng, grid)
        for _ in range(8):
            u1, u0, w = rng.sample(sets, 3)
            func = rng.randrange(k.nfuncs)
            big = (model_of(k, u1, func), model_of(k, intersect(u1, u0), func))
            small = (model_of(k, intersect(u1, w), func),
                     model_of(k, intersect(intersect(u1, w), u0), func))
            for n in range(k.dim() + 1):
                for p in (2, 3, 5):
                    hs = [relative_cohomology(*pair, n, p, ix) for pair in (big, small)]
                    rs = [reference.relative_cohomology(*pair, n, p, ix) for pair in (big, small)]
                    for h, r, pair in zip(hs, rs, (big, small)):
                        assert np.array_equal(h.ids, r.ids)
                        assert h.reps == r.reps
                        d_nm1 = ix.coboundary(pair[0].minus(pair[1]), n - 1, p)
                        assert kept_coboundaries(h, d_nm1) == r.coboundaries
                        t = Mat((r.reps @ random_mat(rng, r.dim, 3, p)).data
                                + (r.coboundaries @ random_mat(rng, r.coboundaries.cols, 3, p)).data, p)
                        assert h.express(t) == r.express(t)
                    assert induced_map(*hs) == reference.induced_map(*rs)
        for _ in range(3):
            # a sublevel and a superlevel pair, each relative to a smaller
            # one or to nothing
            lo, hi = sorted(rng.sample(grid.levels, 2))
            a1 = model_of(k, RealOpenSet.make([(NEG_INF, hi)]))
            a2 = model_of(k, RealOpenSet.make([(lo, INF)]))
            b1 = a1 & model_of(k, RealOpenSet.make([(NEG_INF, rng.choice(grid.levels))]))
            b2 = a2 & model_of(k, RealOpenSet.make([(rng.choice(grid.levels), INF)]))
            if rng.random() < 0.5:
                b1 = b2 = nothing(k)
            triad = ((a1 | a2, b1 | b2), (a1, b1), (a2, b2), (a1 & a2, b1 & b2))
            for n in range(k.dim() + 1):
                for p in (2, 3, 5):
                    got = mv_connecting(*triad, n, p, ix,
                                        relative_cohomology(*triad[3], n, p, ix),
                                        relative_cohomology(*triad[0], n + 1, p, ix))
                    want = reference.mv_connecting(
                        *triad, n, p, ix, reference.relative_cohomology(*triad[3], n, p, ix),
                        reference.relative_cohomology(*triad[0], n + 1, p, ix))
                    assert got == want


def test_reduction_ladder_matches_a_fresh_index_per_call(monkeypatch):
    """On one shared index, calls in ascending, descending and shuffled
    degree order, with repeats and the primes mixed, give the reduction,
    representatives, kept coboundaries and coordinates that a fresh index
    gives for each call alone.  Once a degree from 1 to the dimension of
    the complex has been asked for a prime and cell set, no later call of a
    positive degree for them reduces a column; degree 0 stores nothing."""
    add, adds = Reduction.add, []

    def counted(self, col, coords):
        adds.append(len(col))
        return add(self, col, coords)

    monkeypatch.setattr(Reduction, "add", counted)
    rng = random.Random(43)
    for k, grid in random_split_complexes(rng):
        sets = random_open_sets(rng, grid)
        pairs = []
        for _ in range(4):
            u1, u0 = rng.sample(sets, 2)
            func = rng.randrange(k.nfuncs)
            pairs.append((model_of(k, u1, func), model_of(k, intersect(u1, u0), func)))
        top = k.dim() + 1
        asked = [(i, p, n) for i in range(len(pairs)) for p in (2, 3, 5)
                 for n in range(top + 1)]
        fresh = {(i, p, n): relative_cohomology(*pairs[i], n, p,
                                                SimplexIndex(k.simplices, k.values))
                 for i, p, n in asked}
        shuffled = asked * 2
        rng.shuffle(shuffled)
        for calls in (asked, asked[::-1], shuffled):
            ix, built = SimplexIndex(k.simplices, k.values), set()
            for i, p, n in calls:
                rel = pairs[i][0].minus(pairs[i][1])
                adds.clear()
                h, r = relative_cohomology(*pairs[i], n, p, ix), fresh[i, p, n]
                if n > 0 and (p, rel.tobytes()) in built:
                    assert adds == []
                if 0 < n < top:
                    built.add((p, rel.tobytes()))
                assert np.array_equal(h.ids, r.ids) and h.reps == r.reps
                assert (h.span is None) == (r.span is None)
                if h.span is not None:
                    assert n >= 2 and h.span.pivots == r.span.pivots
                else:
                    assert h.coords == r.coords
                d_nm1 = ix.coboundary(rel, n - 1, p)
                kept = kept_coboundaries(h, d_nm1)
                assert kept == kept_coboundaries(r, d_nm1)
                t = Mat((r.reps @ random_mat(rng, r.dim, 3, p)).data
                        + (kept @ random_mat(rng, kept.cols, 3, p)).data, p)
                assert h.express(t) == r.express(t)
        ix = SimplexIndex(k.simplices, k.values)
        for i, p, n in asked:
            if n == 0:
                relative_cohomology(*pairs[i], n, p, ix)
        assert ix.cohomology == {}


def degree0_pairs(rng):
    """Fixed pairs with their H^0 dimensions, then random relative pairs of
    split complexes, each as (complex, A, B, dimension or None)."""
    # components {1, 4, 6}, {2, 5}, {7, 8, 9} and the isolated vertex 3:
    # their first columns and their last ones come in different orders
    k = PLComplex.from_maximal({v: (0,) for v in range(1, 10)},
                               [{1, 4}, {4, 6}, {2, 5}, {3}, {7, 8, 9}])
    yield k, whole(k), nothing(k), 4
    # the path 1-2-3 meets B = {3} through the edge {2, 3}; {4, 5} does not
    k = PLComplex.from_maximal({v: (0,) for v in range(1, 6)}, [{1, 2}, {2, 3}, {4, 5}])
    yield k, whole(k), k.index.subcomplex({frozenset({3})}), 1
    # B holds both ends of the edge {1, 2} but not the edge
    k = PLComplex.from_maximal({v: (0,) for v in range(1, 5)}, [{1, 2}, {2, 3}, {4}])
    yield k, whole(k), k.index.subcomplex({frozenset({1}), frozenset({2})}), 1
    # no relative cells at all
    yield k, whole(k), whole(k), 0
    yield k, nothing(k), nothing(k), 0
    # vertices and no edges: each vertex is a component; A empty, B empty
    # and B = A
    k = PLComplex.from_maximal({v: (0,) for v in range(1, 5)}, [{v} for v in range(1, 5)])
    yield k, whole(k), nothing(k), 4
    yield k, whole(k), k.index.subcomplex({frozenset({2}), frozenset({4})}), 2
    yield k, whole(k), whole(k), 0
    yield k, nothing(k), nothing(k), 0
    for k, grid in random_split_complexes(rng):
        sets = random_open_sets(rng, grid)
        for _ in range(6):
            u1, u0 = rng.sample(sets, 2)
            func = rng.randrange(k.nfuncs)
            yield k, model_of(k, u1, func), model_of(k, intersect(u1, u0), func), None


def test_degree0_components_match_the_reduction_and_dense_elimination():
    """H^0 read off the connected components has the ids, representatives
    and coordinates of the column reduction of delta^0, whose pivots are
    the last columns of the free components, and the representatives and
    coordinates of dense elimination, over GF(2), GF(3), GF(5) and GF(7)."""
    rng = random.Random(47)
    for k, a, b, dim in degree0_pairs(rng):
        for p in (2, 3, 5, 7):
            h = relative_cohomology(a, b, 0, p, k.index)
            o = reference.degree0_by_reduction(a, b, p, k.index)
            r = reference.relative_cohomology(a, b, 0, p, k.index)
            assert dim is None or h.dim == dim
            assert np.array_equal(h.ids, o.ids) and np.array_equal(h.ids, r.ids)
            assert h.reps == o.reps == r.reps
            last = [int(np.flatnonzero(h.reps.data[:, i])[-1]) for i in range(h.dim)]
            assert list(o.span.pivots) == last
            t = r.reps @ random_mat(rng, r.dim, 3, p)
            assert h.express(t) == o.express(t) == r.express(t)
        assert k.index.cohomology == {}


def test_forest_rows_are_the_lows_of_delta0_and_give_degree1_coordinates(monkeypatch):
    """The rows that join two components in the forest pass are the pivot
    lows of a column reduction of delta^0.  A degree-1 basis, which never
    asks for the columns of delta^0, gives the coordinates of dense
    elimination on representatives plus coboundaries.  On the pairs of
    the degree-0 test, over GF(2), GF(3), GF(5) and GF(7)."""
    columns, asked = Coboundary.columns, []

    def counted(self, skip=()):
        asked.append(self.faces.shape[1] - 2)
        return columns(self, skip)

    monkeypatch.setattr(Coboundary, "columns", counted)
    rng = random.Random(53)
    classes = 0
    for k, a, b, _ in degree0_pairs(rng):
        rel = a.minus(b)
        for p in (2, 3, 5, 7):
            d0 = k.index.coboundary(rel, 0, p)
            red = Reduction(p)
            for col in columns(d0).values():
                red.add(col, {})
            assert sorted(_forest(d0)[1]) == sorted(red.pivots)
            asked.clear()
            h = relative_cohomology(a, b, 1, p, k.index)
            assert 0 not in asked
            r = reference.relative_cohomology(a, b, 1, p, k.index)
            assert h.reps == r.reps and h.span is None
            t = Mat((r.reps @ random_mat(rng, r.dim, 3, p)).data
                    + (r.coboundaries @ random_mat(rng, r.coboundaries.cols, 3, p)).data, p)
            assert h.express(t) == r.express(t)
            classes += h.dim
    assert classes > 0


def three_dimensional_complexes():
    """The boundary of the 4-simplex, S^3, with three distinct heights (five
    would exceed the default cap), and the solid tetrahedron."""
    yield PLComplex.from_maximal(dict(zip(range(1, 6), (1, 1, 2, 2, 3))),
                                 combinations(range(1, 6), 4))
    yield PLComplex.from_maximal(dict(zip(range(1, 5), (1, 3, 2, 4))), [range(1, 5)])


def test_degree3_bases_match_dense_reference():
    """Representatives and coordinates on representatives plus coboundaries
    equal those of dense elimination in degrees 0 to 3, on random relative
    pairs of split 3-dimensional complexes over GF(2) and GF(3)."""
    rng = random.Random(59)
    classes, coboundaries = [0] * 4, 0
    for k in three_dimensional_complexes():
        grid = LevelGrid.from_values(x for (x,) in k.values.values())
        ks = split_all(k, grid.levels)
        sets = random_open_sets(rng, grid)
        for _ in range(6):
            u1, u0 = rng.sample(sets, 2)
            pair = (model_of(ks, u1), model_of(ks, intersect(u1, u0)))
            for n in range(4):
                for p in (2, 3):
                    h = relative_cohomology(*pair, n, p, ks.index)
                    r = reference.relative_cohomology(*pair, n, p, ks.index)
                    assert np.array_equal(h.ids, r.ids) and h.reps == r.reps
                    t = Mat((r.reps @ random_mat(rng, r.dim, 3, p)).data
                            + (r.coboundaries @ random_mat(rng, r.coboundaries.cols, 3, p)).data, p)
                    assert h.express(t) == r.express(t)
                    classes[n] += h.dim
                    coboundaries += r.coboundaries.cols if n == 3 else 0
    # these pairs have classes in degrees 0 and 3 only
    assert classes[0] and classes[3] and coboundaries


def test_s3_diagram_has_one_point_in_degrees_0_and_3():
    s3 = next(three_dimensional_complexes())
    for p in (2, 3):
        points = risc_builder.evaluate(s3, p=p).diagram.points
        assert sorted((d.degree, d.region, d.pair, d.multiplicity) for d in points) == [
            (0, "Ext", (F(1), F(3)), 1), (3, "Ext", (F(3), F(1)), 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_express_rejects_a_cochain_that_is_not_a_cocycle(p):
    # a degree-0 basis builds delta^0 on the first cocycle check
    c = circle()
    h = relative_cohomology(whole(c), nothing(c), 0, p, c.index)
    assert "delta" not in vars(h)
    assert h.express(Mat([[1], [1], [1], [1]], p)) == Mat([[1]], p)
    assert "delta" in vars(h)
    with pytest.raises(ValueError, match="not a cocycle"):
        h.express(Mat([[1], [0], [0], [0]], p))


@pytest.mark.parametrize("p", [2, 3])
def test_express_rejects_a_cocycle_outside_the_basis(p):
    # the boundary of a tetrahedron: H^2 has dimension one, and above
    # degree 1 a basis expresses cocycles by its reduction
    k = PLComplex.from_maximal({v: (0,) for v in range(1, 5)}, combinations(range(1, 5), 3))
    h = relative_cohomology(whole(k), nothing(k), 2, p, k.index)
    assert h.dim == 1
    with pytest.raises(ValueError, match="cocycle not expressible in basis"):
        without_first_rep(h).express(h.reps.column(0))


def test_subcomplex_operations_match_frozensets():
    rng = random.Random(37)
    for k, grid in random_split_complexes(rng):
        ix = k.index
        models = [whole(k), nothing(k)]
        for func in range(k.nfuncs):
            models += [model_of(k, u, func) for u in random_open_sets(rng, grid)]
        sets = [frozenset(ix.cells[m.ids]) for m in models]
        for m, s in zip(models, sets):
            assert len(m) == len(s)
            assert list(m.ids) == sorted(m.ids)
        for (a, sa), (b, sb) in rng.sample(list(combinations(zip(models, sets), 2)), 60):
            assert frozenset(ix.cells[(a | b).ids]) == sa | sb
            assert frozenset(ix.cells[(a & b).ids]) == sa & sb
            assert (a <= b) == (sa <= sb) and (b <= a) == (sb <= sa)
            assert (a == b) == (sa == sb) and (a != b) == (sa != sb)
            if sa == sb:
                assert hash(a) == hash(b)
            assert set(ix.cells[a.minus(b)]) == sa - sb
        # one model reached from two different open sets
        levels = ix.levels[0]
        wide = RealOpenSet.make([(levels[0] - 1, levels[-1] + 1)])
        gap = RealOpenSet.make([(levels[-1], levels[-1] + 1)])
        for u, v in ((RealOpenSet.whole_line(), wide), (RealOpenSet.empty(), gap)):
            a, b = model_of(k, u), model_of(k, v)
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
