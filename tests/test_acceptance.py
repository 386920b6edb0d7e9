"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible with -s or in failure reports) and enforcing its
time budget.  Tolerances are pinned here: all algebraic identities are
exact over the field, the float-oracle comparison uses 1e-9."""

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

from riscpl.cli import main as cli_main
from riscpl.exact_geometry import (
    CoordTable,
    INF,
    RealOpenSet,
    ShiftVector,
    StripPoint,
    alpha_apply,
    in_strip,
    omega_apply,
    rho,
    t_power,
)
from riscpl.field_linalg import Mat, rank
from riscpl.interleave import (
    build_transformation,
    composition_check,
    induced_morphism,
    interleaving_check,
    joint_context,
    naturality_check,
    precomposition_check,
)
from riscpl.plc import PLComplex, open_model, split_all
from riscpl.risc_builder import (
    FunctorEvaluator,
    assemble_module,
    evaluate,
    joint_levels,
)
from riscpl.strip_module import (
    GridModule,
    cohomological_check,
    decomposition_check,
    dgm_value,
    nat_space_dim,
    refine_lines,
    seq_continuity_check,
)

from geometry_reference import (
    float_alpha,
    float_in_strip,
    float_rho1_bounds,
    float_t,
    float_t_inverse,
    to_float,
)
from oracle_betti import betti_numbers, euler_characteristic
from oracle_ext_persistence import extended_persistence
from reference import (fiber_dimension_check, from_blocks, is_sample, level_grid, multiset,
                       ranks_of)
from test_exact_geometry import random_coord, random_shift, random_strip_point
from test_golden import RP2
from test_interleave import hood_pair, hood_stability_pair, random_pair, random_triple
from test_oracles import (
    CIRCLE_HEIGHTS,
    CIRCLE_SIMPLICES,
    HOOD_F,
    HOOD_GPRIME,
    HOOD_SIMPLICES,
)
from test_risc_builder import random_complex
from test_strip_module import random_blocks, sym_grid

F = Fraction

FLOAT_TOL = 1e-9


def report(number, name, ok, t0):
    line = f"ACCEPTANCE {number:02d} {name}: " \
           f"{'PASS' if ok else 'FAIL'} ({time.monotonic() - t0:.1f}s)"
    print(line)
    assert ok, line


def complex_of(values, maximal):
    return PLComplex.from_maximal(values, maximal)


def keyed(diagram):
    out = {}
    for pt, mult in multiset(diagram):
        out[((pt.x.k, pt.x.v), (pt.y.k, pt.y.v))] = mult
    return out


# shared random-complex evaluations for criteria 3, 4 and 5
_RUNS = []


def random_runs():
    if not _RUNS:
        rng = random.Random(101)
        for _ in range(25):
            k = random_complex(rng)
            _RUNS.append(evaluate(k))
    return _RUNS


def test_criterion_01_hood_diagrams(tmp_path, capsys):
    t0 = time.monotonic()
    expected = {
        "hood": {(0, "2", 0, "0"): 1, (1, "-1", 0, "0"): 1},
        "flattened-hood": {(0, "2", 0, "0"): 1, (1, "-1", -2, "2"): 1},
    }
    ok = True
    for preset, want in expected.items():
        t_run = time.monotonic()
        src = tmp_path / f"{preset}.json"
        assert cli_main(["gen", "--preset", preset, "--out", str(src)]) == 0
        out = tmp_path / f"{preset}-dgm.json"
        assert cli_main(["dgm", str(src), "--out", str(out)]) == 0
        got = {}
        for pt in json.loads(out.read_text())["points"]:
            key = (pt["x"]["k"], pt["x"]["v"], pt["y"]["k"], pt["y"]["v"])
            got[key] = got.get(key, 0) + pt["multiplicity"]
        ok = ok and got == want and time.monotonic() - t_run < 10
    with capsys.disabled():
        report(1, "hood and flattened-hood diagrams via cmd_dgm", ok, t0)


def test_criterion_02_circle_against_oracle(capsys):
    t0 = time.monotonic()
    r = evaluate(complex_of(CIRCLE_HEIGHTS, CIRCLE_SIMPLICES))
    ok = keyed(r.diagram) == {
        ((0, F(2)), (0, F(0))): 1,
        ((1, F(-2)), (-1, F(0))): 1,
    }
    labels = sorted((d.degree, d.region, d.pair) for d in r.diagram.points)
    ok = ok and labels == [(0, "Ext", (F(0), F(2))), (1, "Ext", (F(2), F(0)))]
    got = []
    for d in r.diagram.points:
        got.extend([(d.degree, d.region, d.pair)] * d.multiplicity)
    ok = ok and sorted(got, key=repr) == extended_persistence(
        CIRCLE_SIMPLICES, CIRCLE_HEIGHTS)
    ok = ok and time.monotonic() - t0 < 10
    with capsys.disabled():
        report(2, "circle diagram with labels vs extended persistence", ok, t0)


def test_criterion_03_decomposition_on_random_complexes(capsys):
    t0 = time.monotonic()
    ok = True
    for r in random_runs():
        ok = ok and decomposition_check(r.module) is None
    ok = ok and time.monotonic() - t0 < 300
    with capsys.disabled():
        report(3, "block decomposition and ranks on 25 random complexes", ok, t0)


def test_criterion_04_cohomological_suite(capsys):
    t0 = time.monotonic()
    ok = True
    for r in random_runs():
        ok = ok and cohomological_check(r.module, random_rectangles=30) is None
    with capsys.disabled():
        report(4, "middle and long-sequence exactness on the same runs", ok, t0)


def test_criterion_05_continuity_and_cell_constancy(capsys):
    t0 = time.monotonic()
    ok = True
    examples = [
        evaluate(complex_of(HOOD_F, HOOD_SIMPLICES)),
        evaluate(complex_of(HOOD_GPRIME, HOOD_SIMPLICES)),
        evaluate(complex_of(CIRCLE_HEIGHTS, CIRCLE_SIMPLICES)),
    ]
    for r in examples + random_runs():
        ok = ok and seq_continuity_check(r.module) is None
        # diagram values vanish at all samples off the grid vertices
        for idx in r.module.samples():
            if idx[0] % 2 or idx[1] % 2:
                ok = ok and dgm_value(r.module, idx) == 0
    # cell constancy: on a doubly refined grid of the circle all extra
    # samples inside one open cell carry the same dimension and invertible
    # structure maps towards the cell's samples
    r = examples[2]
    xs2 = refine_lines(r.module.table.grid)
    split2 = split_all(r.split, joint_levels(xs2, ()))
    m2 = assemble_module(FunctorEvaluator(split2, CoordTable(xs2), 0, 2))

    def within_cell(a, b):
        # consecutive refined indices sampling the same original open cell:
        # the cell at old odd index i covers new indices 2i-1, 2i, 2i+1
        lo_i = min(a, b)
        return lo_i % 4 in (1, 2)

    constancy_pairs = 0
    # every covering pair of samples: a map between a zero and a nonzero
    # space is not stored, and such a pair inside one cell is a failure
    covering = [(lo, hi) for lo in m2.samples() for hi in m2.up(lo) if is_sample(m2, hi)]
    for lo, hi in covering:
        mat = m2.map_at(lo, hi)
        if lo[0] != hi[0] and not within_cell(lo[0], hi[0]):
            continue
        if lo[1] != hi[1] and not within_cell(lo[1], hi[1]):
            continue
        constancy_pairs += 1
        ok = ok and m2.dim_at(lo) == m2.dim_at(hi)
        ok = ok and rank(mat) == m2.dim_at(lo)
    ok = ok and constancy_pairs > 0
    with capsys.disabled():
        report(5, "sequential continuity, cell constancy, grid support", ok, t0)


def test_criterion_06_stability(capsys):
    t0 = time.monotonic()
    ok = True
    rng = random.Random(301)
    for _ in range(10):
        ok = ok and interleaving_check(random_pair(rng))["ok"]
    rep = interleaving_check(hood_stability_pair())
    ok = ok and rep["ok"] and rep["delta"] == 1 and rep["witness"] is not None
    # the hood witness sample: both modules one-dimensional, map nonzero
    ctx = joint_context(hood_pair(), [0, 1], shifts=[2])
    md = build_transformation(ctx)
    ok = ok and naturality_check(md) is None
    ok = ok and any(
        md.target.dim_at(idx) == 1 and md.source.dim_at(idx) == 1
        and not md.per_sample[idx].is_zero()
        for idx in md.target.samples()
    )
    ok = ok and time.monotonic() - t0 < 300
    with capsys.disabled():
        report(6, "ten random interleavings and the hood witness", ok, t0)


def test_criterion_07_composition_and_precomposition(capsys):
    t0 = time.monotonic()
    ok = True
    rng = random.Random(401)
    for _ in range(5):
        ok = ok and composition_check(random_triple(rng)) is None
    done = 0
    while done < 5:
        k = random_pair(rng)
        keep = set(rng.sample(sorted(k.values), rng.randint(3, len(k.values))))
        subs = [s for s in k.simplices if set(s) <= keep]
        verts = sorted({v for s in subs for v in s})
        if not verts:
            continue
        sub = complex_of({v: k.values[v] for v in verts},
                         [set(s) for s in subs])
        ok = ok and precomposition_check(k, sub, {v: v for v in verts}) is None
        done += 1
    with capsys.disabled():
        report(7, "five composition triples and five subcomplex inclusions", ok, t0)


def test_criterion_08_yoneda(capsys):
    t0 = time.monotonic()
    xs = sym_grid()
    shell = GridModule(CoordTable(xs), {}, {})
    rng = random.Random(501)
    ok = True
    pairs = 0
    while pairs < 100:
        blocks = random_blocks(rng, shell, rng.randint(1, 3))
        m = from_blocks(blocks, xs)
        queries = [pt for pt, _ in blocks]
        queries += [pt for pt, _ in random_blocks(rng, shell, 2)]
        for v in queries:
            idx = m.index_of(v)
            ok = ok and nat_space_dim(idx, m) == m.dim_at(idx)
            pairs += 1
    with capsys.disabled():
        report(8, f"nat_space_dim equals block-sum dimension on {pairs} pairs",
               ok, t0)


def test_criterion_09_float_oracle_and_group_laws(capsys):
    t0 = time.monotonic()
    rng = random.Random(601)
    ok = True

    def close(exact_pt, float_pt):
        ex, ey = to_float(exact_pt)
        return abs(ex - float_pt[0]) < FLOAT_TOL and abs(ey - float_pt[1]) < FLOAT_TOL

    for _ in range(2000):  # 3 maps per point
        p = random_strip_point(rng)
        ok = ok and close(t_power(p, 1), float_t(to_float(p)))
        ok = ok and close(t_power(p, -1), float_t_inverse(to_float(p)))
        a = random_shift(rng)
        ok = ok and close(alpha_apply(a, p), float_alpha(a, to_float(p)))
    for _ in range(1000):
        p = random_strip_point(rng)
        delta = F(rng.randint(0, 12), rng.randint(1, 4))
        ok = ok and close(omega_apply(delta, p),
                          float_alpha(ShiftVector(-delta, delta), to_float(p)))
    for _ in range(1500):
        p = random_strip_point(rng)
        rho1, _ = rho(p)
        flo, fhi = float_rho1_bounds(to_float(p))
        if flo >= fhi - FLOAT_TOL:
            if flo > fhi + FLOAT_TOL:
                ok = ok and not rho1.intervals
            continue
        if len(rho1.intervals) != 1:
            ok = False
            continue
        lo, hi = rho1.intervals[0]
        elo = -math.pi / 2 if not isinstance(lo, Fraction) else math.atan(lo)
        ehi = math.pi / 2 if hi is INF else math.atan(hi)
        ok = ok and abs(elo - flo) < FLOAT_TOL and abs(ehi - fhi) < FLOAT_TOL
    for _ in range(1500):
        p = StripPoint(random_coord(rng), random_coord(rng))
        x, y = to_float(p)
        if abs(abs(x + y) - math.pi) < FLOAT_TOL:
            continue
        ok = ok and in_strip(p) == float_in_strip((x, y))
    # exact group law and centrality
    for _ in range(300):
        p = random_strip_point(rng)
        a, b = random_shift(rng), random_shift(rng)
        ok = ok and alpha_apply(a + b, p) == alpha_apply(a, alpha_apply(b, p))
        ok = ok and t_power(alpha_apply(a, p), 1) == alpha_apply(a, t_power(p, 1))
    ok = ok and time.monotonic() - t0 < 30
    with capsys.disabled():
        report(9, "float oracle at 1e-9 plus exact group law and centrality",
               ok, t0)


def test_criterion_10_splitting_soundness(capsys):
    t0 = time.monotonic()
    rng = random.Random(701)
    ok = True
    for _ in range(20):
        k = random_complex(rng)
        levels = sorted({k.value(v) + F(d, 2) for v in k.values for d in (-1, 0, 1)})
        ks = split_all(k, levels)
        before = [set(s) for s in k.simplices]
        after = [set(s) for s in ks.simplices]
        ok = ok and euler_characteristic(before) == euler_characteristic(after)
        ok = ok and betti_numbers(before) == betti_numbers(after)
        # interlevel models are full subcomplexes of the split complex
        for t in list(level_grid(k).regular)[:3]:
            u = RealOpenSet.make([(t - F(1, 2), t + F(1, 2))])
            model = open_model(ks, ranks_of(ks, u))
            verts = {v for s in ks.index.cells[model.ids] for v in s}
            full = ks.index.subcomplex(s for s in ks.simplices if s <= verts)
            ok = ok and model == full
    with capsys.disabled():
        report(10, "splitting preserves topology; models are full subcomplexes",
               ok, t0)


def test_criterion_11_fiber_dimensions(capsys):
    t0 = time.monotonic()
    ok = True
    for values, maximal in ((HOOD_F, HOOD_SIMPLICES),
                            (CIRCLE_HEIGHTS, CIRCLE_SIMPLICES)):
        k = complex_of(values, maximal)
        r = evaluate(k)
        for t in level_grid(k).regular:
            ok = ok and fiber_dimension_check(k, r, t) is None
    with capsys.disabled():
        report(11, "bars through every regular level count fiber cohomology",
               ok, t0)


def test_criterion_12_homotopy_invariance_instance(capsys):
    t0 = time.monotonic()
    edge = complex_of({1: 0, 2: 0}, [{1, 2}])
    point = complex_of({1: 0}, [{1}])
    md_i = induced_morphism(edge, point, {1: 1})
    md_r = induced_morphism(point, edge, {1: 1, 2: 1})
    ok = naturality_check(md_i) is None and naturality_check(md_r) is None
    for idx in md_r.target.samples():
        comp = md_r.per_sample[idx] @ md_i.per_sample[idx]
        ok = ok and comp == Mat.eye(md_r.target.dim_at(idx), 2)
    for idx in md_i.target.samples():
        comp = md_i.per_sample[idx] @ md_r.per_sample[idx]
        ok = ok and comp == Mat.eye(md_i.target.dim_at(idx), 2)
    with capsys.disabled():
        report(12, "edge-collapse round trip is the identity transformation",
               ok, t0)


def test_criterion_13_projective_plane_over_gf3(tmp_path, capsys):
    # RP2 has torsion: over GF(3) its H^1 and H^2 vanish, so a wrong
    # orientation sign changes the diagram
    t0 = time.monotonic()
    heights = {v: v for v in range(1, 7)}
    src, module, out = (tmp_path / name for name in ("rp2.json", "rp2-3.json", "dgm.json"))
    src.write_text(json.dumps({
        "field": 3,
        "vertices": [{"id": v, "value": str(x)} for v, x in heights.items()],
        "simplices": RP2,
    }))
    ok = cli_main(["dgm", str(src), "--dump-module", str(module), "--out", str(out)]) == 0
    got = Counter()
    for pt in json.loads(out.read_text())["points"] if ok else ():
        got[(pt["degree"], pt["region"], tuple(pt["pair"]))] += pt["multiplicity"]
    want = Counter((n, region, (str(lo), str(hi)))
                   for n, region, (lo, hi) in extended_persistence(RP2, heights, 3))
    ok = ok and got == want and time.monotonic() - t0 < 10
    with capsys.disabled():
        report(13, "RP2 with height = vertex id over GF(3) vs extended persistence",
               ok, t0)
