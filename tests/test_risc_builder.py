import random
from fractions import Fraction

import pytest

from riscpl.exact_geometry import Coord, INF, StripPoint, in_diag_downset
from riscpl.plc import PLComplex
from riscpl.risc_builder import (
    barcode,
    evaluate,
    fiber_dimension_check,
    joint_levels,
)
from riscpl.strip_module import (
    cohomological_check,
    decomposition_check,
    from_blocks,
    seq_continuity_check,
)

from oracle_ext_persistence import extended_persistence
from reference import build_grid
from test_oracles import (
    CIRCLE_HEIGHTS,
    CIRCLE_SIMPLICES,
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
    for pt, mult in diagram.multiset():
        key = ((pt.x.k, pt.x.v), (pt.y.k, pt.y.v))
        out[key] = out.get(key, 0) + mult
    return out


def bar_key(entry):
    deg, interval, mult = entry
    return (deg, interval.lo, interval.hi, interval.lo_closed, interval.hi_closed, mult)


# ---------------------------------------------------------------------------
# worked examples


def test_point_diagram_and_module():
    r = evaluate(point_complex())
    assert keyed(r.diagram) == {((0, F(0)), (0, F(0))): 1}
    block = from_blocks(
        [(StripPoint(Coord(0, F(0)), Coord(0, F(0))), 1)], r.module.xs, r.module.ys
    )
    for idx in r.module.samples():
        assert r.module.dim_at(idx) == block.dim_at(idx)


def test_hood_diagram():
    r = evaluate(hood())
    assert keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-1)), (0, F(0))): 1,
    }


def test_flattened_hood_diagram():
    r = evaluate(flattened_hood())
    assert keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-1)), (-2, F(2))): 1,
    }


def test_circle_diagram_with_labels():
    r = evaluate(circle())
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
        r = evaluate(complex_of(values, maximal))
        got = []
        for d in r.diagram.points:
            got.extend([(d.degree, d.region, d.pair)] * d.multiplicity)
        assert sorted(got, key=repr) == extended_persistence(maximal, values)


# ---------------------------------------------------------------------------
# barcodes


def test_barcodes():
    bars = barcode(evaluate(point_complex()))
    assert [bar_key(b) for b in bars] == [(0, F(0), F(0), True, True, 1)]

    bars = barcode(evaluate(hood()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(1), True, False, 1),
        (0, F(0), F(2), True, True, 1),
    ]

    bars = barcode(evaluate(circle()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(2), False, False, 1),
        (0, F(0), F(2), True, True, 1),
    ]

    bars = barcode(evaluate(flattened_hood()))
    assert [bar_key(b) for b in bars] == [
        (0, F(0), F(2), True, True, 1),
        (1, F(1), F(2), True, False, 1),
    ]


def test_empty_complex():
    r = evaluate(PLComplex({}, set(), 1))
    assert r.diagram.points == []
    assert barcode(r) == []
    assert r.module.xs == ()


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
        r = evaluate(k)
        assert seq_continuity_check(r.module) is None
        assert cohomological_check(r.module, random_rectangles=20) is None
        assert decomposition_check(r.module) is None


def test_support_in_diagonal_downset():
    r = evaluate(circle())
    for idx in r.module.samples():
        if r.module.dim_at(idx) > 0:
            assert in_diag_downset(r.module.point(idx))


def test_diagram_vertices_on_critical_lines():
    for k in (hood(), flattened_hood(), circle()):
        r = evaluate(k)
        crits = {F(c) for c in r.grid.critical} | {-F(c) for c in r.grid.critical}
        for d in r.diagram.points:
            assert d.point.x.v in crits
            assert d.point.y.v in crits


# ---------------------------------------------------------------------------
# fibers


def test_fiber_dimensions():
    r = evaluate(hood())
    for t in r.grid.regular:
        assert fiber_dimension_check(r, t) is None
    with pytest.raises(ValueError):
        fiber_dimension_check(r, 1)

    r = evaluate(circle())
    for t in r.grid.regular:
        assert fiber_dimension_check(r, t) is None


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
        for t in r.grid.regular:
            assert fiber_dimension_check(r, t) is None
