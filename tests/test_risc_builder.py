import functools
import json
import random
import re
from fractions import Fraction

import pytest

from riscpl import cli, risc_builder
from riscpl.exact_geometry import Coord, INF, StripPoint, in_diag_downset
from riscpl.plc import PLComplex
from riscpl.risc_builder import (
    assemble_module,
    barcode,
    evaluate,
    joint_context,
    joint_levels,
)
from riscpl.strip_module import (
    cohomological_check,
    decomposition_check,
    dgm,
    seq_continuity_check,
)

from oracle_ext_persistence import extended_persistence
from reference import (
    build_grid,
    evaluated,
    fiber_dimension_check,
    from_blocks,
    level_grid,
    multiset,
)
from test_oracles import (
    CIRCLE_HEIGHTS,
    CIRCLE_SIMPLICES,
    HIGH_DIMENSIONAL,
    HOOD_F,
    HOOD_GPRIME,
    HOOD_SIMPLICES,
)

F = Fraction


def complex_of(values, maximal):
    return PLComplex.from_maximal({v: (x,) for v, x in values.items()}, maximal)


def point_complex():
    return complex_of({1: 0}, [{1}])


def circle():
    return complex_of(CIRCLE_HEIGHTS, CIRCLE_SIMPLICES)


def hood():
    return complex_of(HOOD_F, HOOD_SIMPLICES)


def flattened_hood():
    return complex_of(HOOD_GPRIME, HOOD_SIMPLICES)


def keyed(diagram):
    """Diagram as a multiset keyed by raw coordinates."""
    out = {}
    for pt, mult in multiset(diagram):
        key = ((pt.x.k, pt.x.v), (pt.y.k, pt.y.v))
        out[key] = out.get(key, 0) + mult
    return out


def bar_key(entry):
    deg, interval, mult = entry
    return (deg, interval.lo, interval.hi, interval.lo_closed, interval.hi_closed, mult)


# ---------------------------------------------------------------------------
# worked examples


def test_point_diagram_and_module():
    r = evaluated(point_complex())
    assert keyed(r.diagram) == {((0, F(0)), (0, F(0))): 1}
    block = from_blocks(
        [(StripPoint(Coord(0, F(0)), Coord(0, F(0))), 1)], r.module.table.grid
    )
    for idx in r.module.samples():
        assert r.module.dim_at(idx) == block.dim_at(idx)


def test_hood_diagram():
    r = evaluated(hood())
    assert keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-1)), (0, F(0))): 1,
    }


def test_flattened_hood_diagram():
    r = evaluated(flattened_hood())
    assert keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-1)), (-2, F(2))): 1,
    }


def test_circle_diagram_with_labels():
    r = evaluated(circle())
    assert keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-2)), (-1, F(0))): 1,
    }
    labels = sorted((d.degree, d.region, d.pair) for d in r.diagram.points)
    assert labels == [(0, "Ext", (F(0), F(2))), (1, "Ext", (F(2), F(0)))]


def test_examples_match_extended_persistence_oracle():
    for maximal, values in [
        (CIRCLE_SIMPLICES, CIRCLE_HEIGHTS),
        (HOOD_SIMPLICES, HOOD_F),
        (HOOD_SIMPLICES, HOOD_GPRIME),
        ([{1}], {1: 0}),
        ([{1, 2}], {1: 0, 2: 3}),
    ]:
        r = evaluated(complex_of(values, maximal))
        got = []
        for d in r.diagram.points:
            got.extend([(d.degree, d.region, d.pair)] * d.multiplicity)
        assert sorted(got, key=repr) == extended_persistence(maximal, values)


def levelset_bars(pairs):
    """The levelset bars of extended persistence pairs (Carlsson, de Silva &
    Morozov 2009), as (degree, lo, hi, lo_closed, hi_closed): Ord (b, d) is
    [b, d) in degree n, Rel (b, d) is (d, b] in degree n - 1, and Ext (b, d)
    is [b, d] in degree n when b <= d, else (d, b) in degree n - 1."""
    out = []
    for n, region, (b, d) in pairs:
        if region == "Ord":
            out.append((n, b, d, True, False))
        elif region == "Rel":
            out.append((n - 1, d, b, False, True))
        else:
            out.append((n, b, d, True, True) if b <= d else (n - 1, d, b, False, False))
    return sorted(out)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(HIGH_DIMENSIONAL))
def test_classes_of_degree_four_and_five_match_extended_persistence(name, p):
    # the grid reaches the tile of the top class, and the checkers of
    # `check --suite all` pass on the module
    maximal, values = HIGH_DIMENSIONAL[name]
    r = evaluated(complex_of(values, maximal), p=p)
    want = extended_persistence(maximal, values, p)
    assert max(n for n, _, _ in want) >= 4
    got = [(d.degree, d.region, d.pair) for d in r.diagram.points for _ in range(d.multiplicity)]
    assert sorted(got, key=repr) == want
    assert sorted(bar_key(b)[:5] for b in barcode(r) for _ in range(b[2])) == levelset_bars(want)
    walks, diagram = {}, functools.cache(lambda: dgm(r.module))
    assert all(check(r.module, walks, diagram) is None for check in cli.SUITES.values())


# ---------------------------------------------------------------------------
# barcodes


def test_barcodes():
    bars = barcode(evaluated(point_complex()))
    assert [bar_key(b) for b in bars] == [(0, F(0), F(0), True, True, 1)]

    bars = barcode(evaluated(hood()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(1), True, False, 1),
        (0, F(0), F(2), True, True, 1),
    ]

    bars = barcode(evaluated(circle()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(2), False, False, 1),
        (0, F(0), F(2), True, True, 1),
    ]

    bars = barcode(evaluated(flattened_hood()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(2), True, True, 1),
        (1, F(1), F(2), True, False, 1),
    ]


def test_empty_complex():
    r = evaluate(PLComplex({}, set(), 1))
    assert r.diagram.points == []
    assert barcode(r) == []
    assert r.module.table.grid == ()


def test_one_open_model_per_vertex_set():
    # the model cache is keyed by canonical value-rank ranges: unordered,
    # touching, overlapping and empty ranges name the same vertex set
    ev = joint_context(hood(), [0]).evaluator(0)
    top = len(ev.levels)
    whole = ev.model(((0, top),))
    assert whole == ev.split.index.subcomplex(ev.split.simplices)
    assert ev.model(((2, top), (0, 2))) is whole
    assert ev.model(((0, 3), (1, top), (4, 4))) is whole
    assert ev.model(((3, 1), (top, top))) is ev.model(())
    assert len(ev.model(())) == 0
    assert ev.model(((1, 2), (0, 1))) is ev.model(((0, 2),))
    assert ev.model(((0, 1), (2, 3))) != ev.model(((0, 3),))


# ---------------------------------------------------------------------------
# structural properties of the evaluated modules


def test_grid_negation_closed():
    xs = build_grid(hood())

    def neg(c):
        if c.v is INF:
            return Coord(-c.k - 1, INF)
        return Coord(-c.k, -c.v)

    lines = [c for c in xs[::2]]
    assert {neg(c) for c in lines} == set(lines)


def test_split_levels_cover_grid_values():
    xs = build_grid(circle())
    lv = joint_levels(xs, ())
    vals = sorted({x.v for x in xs if x.v is not INF})
    assert set(vals) <= set(lv)
    # consecutive grid values are separated by a split level
    for a, b in zip(vals, vals[1:]):
        assert any(a < t < b for t in lv)


def test_module_checks_pass():
    for k in (hood(), flattened_hood(), circle()):
        r = evaluated(k)
        assert seq_continuity_check(r.module) is None
        assert cohomological_check(r.module, random_rectangles=20) is None
        assert decomposition_check(r.module) is None


def test_support_in_diagonal_downset():
    r = evaluated(circle())
    for idx in r.module.samples():
        if r.module.dim_at(idx) > 0:
            assert in_diag_downset(r.module.table.point(idx))


def test_diagram_vertices_on_critical_lines():
    for k in (hood(), flattened_hood(), circle()):
        r = evaluated(k)
        critical = level_grid(k).critical
        crits = {F(c) for c in critical} | {-F(c) for c in critical}
        for d in r.diagram.points:
            assert d.point.x.v in crits
            assert d.point.y.v in crits


# ---------------------------------------------------------------------------
# fibers


def test_fiber_dimensions():
    k = hood()
    r = evaluated(k)
    for t in level_grid(k).regular:
        assert fiber_dimension_check(k, r, t) is None
    with pytest.raises(ValueError):
        fiber_dimension_check(k, r, 1)

    k = circle()
    r = evaluated(k)
    for t in level_grid(k).regular:
        assert fiber_dimension_check(k, r, t) is None


# ---------------------------------------------------------------------------
# random complexes


def random_complex(rng):
    nverts = rng.randint(4, 8)
    pool = rng.sample(range(-3, 4), 4)
    values = {v: F(rng.choice(pool)) for v in range(nverts)}
    maximal = []
    for _ in range(rng.randint(3, 6)):
        d = rng.randint(1, 2)
        maximal.append(rng.sample(range(nverts), min(d + 1, nverts)))
    return PLComplex.from_maximal({v: (x,) for v, x in values.items()}, maximal)


def test_random_complexes_checks_and_oracle():
    rng = random.Random(23)
    for _ in range(4):
        k = random_complex(rng)
        r = evaluate(k)
        assert seq_continuity_check(r.module) is None
        assert decomposition_check(r.module, spot_checks=60) is None
        got = []
        for d in r.diagram.points:
            got.extend([(d.degree, d.region, d.pair)] * d.multiplicity)
        maximal = [set(s) for s in k.simplices]
        values = {v: k.value(v) for v in k.values}
        assert sorted(got, key=repr) == extended_persistence(maximal, values)
        for t in level_grid(k).regular:
            assert fiber_dimension_check(k, r, t) is None


@pytest.mark.parametrize("case,p", [("hood", 2), ("hood", 3), ("hood", 5),
                                    ("rp2", 2), ("rp2", 3), ("s3", 2)])
def test_evaluated_maps_are_those_of_the_dump(case, p, tmp_path):
    # a map is built only between two nonzero spaces, so the evaluated
    # module holds, key for key, the maps its own dump stores
    from riscpl.cli import load_module, module_json

    from test_strip_module import dump_module

    m = dump_module(case, p)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_json(m, p)))
    loaded, _ = load_module(str(path))
    assert sorted(m.maps) == sorted(loaded.maps)
    for key, mat in m.maps.items():
        assert mat == loaded.maps[key], key
    assert all(m.dim_at(lo) and m.dim_at(hi) for lo, hi in m.maps)


def test_tiles_two_apart_fail_assembly(monkeypatch):
    # two nonzero covering neighbors forced two tiles apart stop the
    # assembly; the same gap with a zero space at one end builds no map and
    # passes
    ev = joint_context(hood(), [0]).evaluator(0)
    samples = ev.table.samples
    lo = next(s for s in samples if ev.table.location[s] == "interior"
              and ev.table.location[s[0] - 1, s[1]] == "interior")
    up = (lo[0] - 1, lo[1])
    for d_up, raises in (1, True), (0, False):
        data = dict.fromkeys(samples, (0, 0, None))
        data[lo], data[up] = (1, 2, None), (d_up, 0, None)
        monkeypatch.setattr(risc_builder, "point_data", lambda ev, key: data[key])
        if raises:
            message = f"adjacent samples {lo}, {up} differ by 2 tiles"
            with pytest.raises(AssertionError, match=re.escape(message)):
                assemble_module(ev)
        else:
            assert assemble_module(ev).maps == {}
