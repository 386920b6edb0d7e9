import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from riscpl import interleave
from riscpl.cli import gen_complex
from riscpl.exact_geometry import (
    Coord,
    ShiftVector,
    StripPoint,
    alpha_apply,
    classify_region,
)
from riscpl.field_linalg import Mat
from riscpl.interleave import (
    CochainPullback,
    Transformation,
    build_transformation,
    composition_check,
    context_module,
    distance_pair,
    induced_morphism,
    interleaving_check,
    joint_context,
    naturality_check,
    precomposition_check,
    sup_norm,
)
from riscpl.plc import PLComplex, Subcomplex
from riscpl.risc_builder import FunctorEvaluator, evaluate, internal_map, point_data
from riscpl.strip_module import dgm

from geometry_reference import block_contains
from oracle_ext_persistence import bottleneck, extended_persistence
from reference import (
    composition_check_reference,
    evaluated,
    from_blocks,
    interleaving_check_reference,
    interp_pair_reference,
    multiset,
    pair_at_reference,
    precomposition_check_reference,
    shifted_module,
)
from test_oracles import HIGH_DIMENSIONAL, HOOD_F, HOOD_GPRIME, HOOD_SIMPLICES

F = Fraction


def complex_of(values, maximal):
    return PLComplex.from_maximal(values, maximal)


def hood_pair():
    """The cone over the four-cycle carrying both the peaked function and
    its flattened variant."""
    return complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v]) for v in HOOD_F}, HOOD_SIMPLICES
    )


def hood_stability_pair():
    """The peaked function against the flattened one raised by the half-gap,
    which is at sup distance 1."""
    return complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v] + 1) for v in HOOD_F}, HOOD_SIMPLICES
    )


def random_pair(rng):
    """A small complex with a base function and a pointwise perturbation of
    it by at most one."""
    nverts = rng.randint(4, 7)
    pool = rng.sample(range(-2, 3), 3)
    values = {}
    for v in range(nverts):
        fv = rng.choice(pool)
        values[v] = (F(fv), F(fv + rng.choice([-1, 0, 1])))
    maximal = [
        rng.sample(range(nverts), rng.randint(2, 3))
        for _ in range(rng.randint(3, 5))
    ]
    return complex_of(values, maximal)


def random_triple(rng):
    nverts = rng.randint(4, 6)
    pool = rng.sample(range(-2, 3), 3)
    values = {}
    for v in range(nverts):
        fv = rng.choice(pool)
        values[v] = (
            F(fv),
            F(fv + rng.choice([-1, 0, 1])),
            F(fv + rng.choice([-1, 0, 1])),
        )
    maximal = [
        rng.sample(range(nverts), rng.randint(2, 3))
        for _ in range(rng.randint(3, 4))
    ]
    return complex_of(values, maximal)


# ---------------------------------------------------------------------------
# the two-valued distance


def test_distance_of_function_with_itself():
    k = complex_of({v: (HOOD_F[v], HOOD_F[v]) for v in HOOD_F},
                   HOOD_SIMPLICES)
    assert distance_pair(k) == ShiftVector(0, 0)
    assert sup_norm(k) == 0


def test_hood_distance():
    k = hood_pair()
    assert distance_pair(k) == ShiftVector(F(-2), F(0))
    assert sup_norm(k) == 2


def test_distance_triangle_inequality():
    rng = random.Random(5)
    for _ in range(20):
        k = random_triple(rng)
        a = distance_pair(k, 0, 1)
        b = distance_pair(k, 1, 2)
        c = distance_pair(k, 0, 2)
        assert c.precedes(a + b)


# ---------------------------------------------------------------------------
# shifted modules


def test_zero_shift_is_identity():
    r = evaluated(complex_of({v: (HOOD_F[v],) for v in HOOD_F}, HOOD_SIMPLICES))
    m = shifted_module(r, ShiftVector(0, 0))
    assert m.table.grid == r.module.table.grid
    for idx in m.samples():
        assert m.dim_at(idx) == r.module.dim_at(idx)
    for key in r.module.maps:
        assert m.map_at(*key) == r.module.map_at(*key)


def test_shifted_flattened_hood_is_block_sum():
    # Shifting the flattened function's module left by 2 moves one block
    # vertex from value 4 down to value 2 and fixes the other block.
    r = evaluated(complex_of({v: (HOOD_GPRIME[v],) for v in HOOD_GPRIME},
                             HOOD_SIMPLICES))
    m = shifted_module(r, ShiftVector(F(-2), F(0)))
    blocks = from_blocks(
        [
            (StripPoint(Coord(0, F(4)), Coord(0, F(0))), 1),
            (StripPoint(Coord(1, F(-1)), Coord(-2, F(2))), 1),
        ],
        m.table.grid,
    )
    for idx in m.samples():
        assert m.dim_at(idx) == blocks.dim_at(idx)


def test_hood_superlinear_shift_factors_through_flattened():
    # The raised flattened function shifted by (-1, 1) agrees with the
    # flattened function shifted by (-2, 0), maps included.
    k = complex_of({v: (HOOD_GPRIME[v] + 1, HOOD_GPRIME[v]) for v in HOOD_GPRIME},
                   HOOD_SIMPLICES)
    ctx = joint_context(k, [0, 1], shifts=[1, 2])
    m_raised = context_module(ctx, 0, ShiftVector(F(-1), F(1)))
    m_flat = context_module(ctx, 1, ShiftVector(F(-2), F(0)))
    for idx in m_raised.samples():
        assert m_raised.dim_at(idx) == m_flat.dim_at(idx)
    for key in m_raised.maps:
        assert m_raised.map_at(*key) == m_flat.map_at(*key)


# ---------------------------------------------------------------------------
# the stability transformation


def test_transformation_for_equal_functions_is_identity():
    k = complex_of({v: (HOOD_F[v], HOOD_F[v]) for v in HOOD_F},
                   HOOD_SIMPLICES)
    ctx = joint_context(k, [0, 1])
    md = build_transformation(ctx)
    assert md.shift == ShiftVector(0, 0)
    assert naturality_check(md) is None
    for idx in md.target.samples():
        d = md.target.dim_at(idx)
        assert md.source.dim_at(idx) == d
        assert md.per_sample[idx] == Mat.eye(d, 2)


def checked_interp_pairs(monkeypatch) -> list:
    """Make every interpolating pair the stability transformation builds
    compare itself with the one from the exact rho; returns the list of
    corners compared so far."""
    corners = []
    interp = Transformation._interp_pair

    def checked(self, c):
        out = interp(self, c)
        assert out == interp_pair_reference(self, c), c
        corners.append(c)
        return out

    monkeypatch.setattr(Transformation, "_interp_pair", checked)
    return corners


def test_hood_transformation_nonzero_on_named_blocks(monkeypatch):
    # Some sample lies in the supports of the one-dimensional blocks of both
    # modules, and the transformation does not vanish there.
    corners = checked_interp_pairs(monkeypatch)
    ctx = joint_context(hood_pair(), [0, 1], shifts=[2])
    md = build_transformation(ctx)
    assert corners
    assert md.shift == ShiftVector(F(-2), F(0))
    assert naturality_check(md) is None
    tgt_block = StripPoint(Coord(1, F(-1)), Coord(0, F(0)))
    src_block = StripPoint(Coord(1, F(-1)), Coord(-2, F(2)))
    witnesses = [
        idx
        for idx in md.target.samples()
        if md.target.dim_at(idx) == 1
        and md.source.dim_at(idx) == 1
        and not md.per_sample[idx].is_zero()
        and block_contains(tgt_block, md.target.table.point(idx))
        and block_contains(src_block, alpha_apply(md.shift, md.target.table.point(idx)))
    ]
    assert witnesses


def test_transformation_natural_on_random_pairs(monkeypatch):
    corners = checked_interp_pairs(monkeypatch)
    rng = random.Random(11)
    for _ in range(3):
        k = random_pair(rng)
        a = distance_pair(k)
        ctx = joint_context(k, [0, 1], shifts=[a.a1, a.a2])
        assert naturality_check(build_transformation(ctx)) is None
    assert corners


def seed_one_pair():
    """The pair of `gen --preset random --funcs 2 --seed 1`, at distance
    pair (-1, 4)."""
    doc = gen_complex("random", 1, 2)
    values = {e["id"]: tuple(map(F, e["value"])) for e in doc["vertices"]}
    return complex_of(values, doc["simplices"])


@pytest.mark.parametrize("pair, s, p", [
    (hood_stability_pair, ShiftVector(F(-3, 2), F(3, 2)), 2),
    (seed_one_pair, ShiftVector(-4, 4), 3),
    (lambda: random_pair(random.Random(3)), ShiftVector(-1, 1), 5),  # a = (0, 1)
], ids=["hood", "seed-1", "random"])
def test_transformation_whiskers_through_the_internal_map(pair, s, p):
    # For a shift s above the distance pair a, the transformation at s is
    # the one at a after the internal map of g from the a-shift of a sample
    # to its s-shift, at every sample with a nonzero target, among them
    # samples where one of the two transformations takes the connecting
    # branch.  The checks and their references build each transformation
    # at the shift its identity states; this is what ties that
    # construction to the one at the distance pair corrected by an
    # internal map.
    k = pair()
    a = distance_pair(k)
    assert a != s and a.precedes(s)
    ctx = joint_context(k, [0, 1], [a.a1, a.a2, s.a1, s.a2], p)
    ev_f, ev_g = ctx.evaluator(0), ctx.evaluator(1)
    t_a, t_s = Transformation(ev_f, ev_g, a), Transformation(ev_f, ev_g, s)
    connecting = 0
    for x in ctx.table.samples:
        d, n, _ = point_data(ev_f, x)
        if not d:
            continue
        whiskered = t_a.at(x) @ internal_map(ev_g, t_a.shift(x), t_s.shift(x))
        assert t_s.at(x) == whiskered, x
        sources = [point_data(ev_g, t.shift(x))[:2] for t in (t_a, t_s)]
        connecting += any(d_src and n_src == n - 1 for d_src, n_src in sources)
    assert connecting


def test_transformation_rejects_evaluators_over_different_split_complexes():
    # Two contexts on one coordinate table, as a pullback builds them; the
    # connecting branch reads the bases of both evaluators on one simplex
    # index, so the two must share their split complex.
    k = hood_pair()
    subs = [s for s in HOOD_SIMPLICES if 5 not in s]
    verts = sorted({v for s in subs for v in s})
    sub = complex_of({v: (HOOD_F[v], HOOD_GPRIME[v]) for v in verts},
                     subs)
    ctx = joint_context(k, [0, 1], shifts=[2])
    ctx_sub = joint_context(sub, [0, 1], shifts=[2], table=ctx.table)
    a = distance_pair(k)
    with pytest.raises(ValueError, match="different split complexes"):
        Transformation(ctx_sub.evaluator(0), ctx.evaluator(1), a)
    with pytest.raises(ValueError, match="different split complexes"):
        Transformation(ctx.evaluator(0), ctx_sub.evaluator(1), a)


# ---------------------------------------------------------------------------
# open-model pairs from value ranks


@pytest.mark.parametrize("p", [2, 3])
def test_rank_pairs_match_rho_reference(monkeypatch, p):
    # Every pair the interleaving check builds, at the band keys point_data
    # visits and at the shifted keys of the transformations, for both
    # functions, equals the pair made from the exact rho of the point by
    # intersecting its sets and taking vertex-by-vertex open models.
    pairs = {}
    pair_at = FunctorEvaluator.pair_at

    def recording(self, w):
        out = pairs[(self, w)] = pair_at(self, w)
        return out

    monkeypatch.setattr(FunctorEvaluator, "pair_at", recording)
    for k in interleave_pairs():
        pairs.clear()
        assert interleaving_check(k, p=p)["ok"]
        assert {ev.func for ev, _ in pairs} == {0, 1}
        for (ev, w), pair in pairs.items():
            assert pair == pair_at_reference(ev, w), (ev.func, w)


def test_rank_keyed_pairs_equal_the_pairs_of_the_ranges():
    # At every grid point of the hood pair's context and of the contexts
    # interleaving_check builds for interleave_pairs(), for both functions,
    # the pair kept under four value ranks is the pair built from the
    # ranges: rho1 and, range by range, its intersection with rho0.  Points
    # with an empty rho1 are among them; outside the strip both raise.
    def from_ranges(ev, w):
        (lo, hi), rho0 = ev.ranges(w)
        return ev.model(((lo, hi),)), ev.model(tuple((max(a, lo), min(b, hi)) for a, b in rho0))

    seen = Counter()
    contexts = [joint_context(hood_pair(), [0, 1], shifts=[2])]
    contexts += [interleave_context(k) for k in interleave_pairs()]
    for ctx in contexts:
        n = len(ctx.table.grid)
        for w, ev in itertools.product(itertools.product(range(n), repeat=2),
                                       ctx.evaluators.values()):
            if ctx.table.location[w] == "outside":
                seen["outside"] += 1
                for pair in (ev.pair_at, lambda w: from_ranges(ev, w)):
                    with pytest.raises(ValueError, match="outside the strip"):
                        pair(w)
                continue
            pair = ev.pair_at(w)
            assert pair == from_ranges(ev, w), (ev.func, w)
            seen["empty rho1" if not len(pair[0]) else "nonempty rho1"] += 1
    assert len(seen) == 3, seen


def test_pairs_outside_the_strip_raise():
    k = hood_stability_pair()
    ctx = joint_context(k, [0, 1], shifts=[1])
    table = ctx.table
    outside = next(key for key in ((i, j) for i in range(len(table.grid))
                                   for j in range(len(table.grid)))
                   if table.location[key] == "outside")
    for ev in ctx.evaluators.values():
        with pytest.raises(ValueError, match="outside the strip"):
            ev.pair_at(outside)
        with pytest.raises(ValueError, match="outside the strip"):
            pair_at_reference(ev, outside)
    trans = Transformation(ctx.evaluator(0), ctx.evaluator(1), distance_pair(k))
    with pytest.raises(ValueError, match="outside the strip"):
        trans._interp_pair(outside)


# ---------------------------------------------------------------------------
# interleaving


def test_interleaving_equal_functions_at_zero():
    k = complex_of({v: (HOOD_F[v], HOOD_F[v]) for v in HOOD_F},
                   HOOD_SIMPLICES)
    report = interleaving_check(k, delta=0)
    assert report["ok"] and report["delta"] == 0


def test_interleaving_rejects_too_small_delta():
    with pytest.raises(ValueError):
        interleaving_check(hood_stability_pair(), delta=F(1, 2))


def built_points(check, *args, **kwargs) -> tuple:
    """The result of check(*args, **kwargs) and the points, in order, where
    a transformation or a pullback first built a matrix with rows and
    columns, each with the creation number of its transformation or
    pullback.  Only at these points do the gluing checks and express run.
    Points, not keys: a coordinate off the grid gets its id when first
    met, so the ids depend on the order of the lookups."""
    made = itertools.count()
    points = {}
    with pytest.MonkeyPatch.context() as mp:
        for cls, name in ((Transformation, "_compute"), (CochainPullback, "at")):
            init, build = cls.__init__, getattr(cls, name)

            def numbered(self, *a, _init=init):
                _init(self, *a)
                self.made = next(made)

            def recording(self, key, _build=build):
                out = _build(self, key)
                if out.rows and out.cols:
                    table = (self.ev_f if isinstance(self, Transformation) else self.ev_x).table
                    points.setdefault((self.made, table.point(key)), None)
                return out

            mp.setattr(cls, "__init__", numbered)
            mp.setattr(cls, name, recording)
        result = check(*args, **kwargs)
    return result, list(points)


def matches_reference(k) -> dict:
    """The report of interleaving_check on k, asserted equal to that of the
    reference, which builds both transformations and tests every identity
    at every sample where the check builds a transformation only where its
    target is nonzero and skips the identities between empty matrices.
    Both build the nonempty transformation matrices, where the gluing
    checks run, at the same points in the same order."""
    return matches(interleaving_check, interleaving_check_reference, k)


def matches(check, reference, *args):
    """The result of check(*args), asserted equal to the reference's, with
    the same nonempty points in the same order, and some such point."""
    result, points = built_points(check, *args)
    assert points and (result, points) == built_points(reference, *args)
    return result


def interleave_pairs():
    """The hood stability pair and the random pairs of
    test_interleaving_random_pairs."""
    rng = random.Random(17)
    return [hood_stability_pair()] + [random_pair(rng) for _ in range(3)]


# the witnesses of interleave_pairs(), the same over every prime tested
PAIR_WITNESSES = [(63, 37), (63, 39), (46, 31), (63, 37)]


def test_hood_interleaving():
    report = matches_reference(hood_stability_pair())
    assert report["ok"] and report["delta"] == 1
    assert report["witness"] == PAIR_WITNESSES[0]


def test_an_interleaving_reduces_no_column_in_plc(monkeypatch):
    """Every value an interleaving check reads is H^0, which plc reads off
    connected components: with Reduction.add counted by the modules on its
    call stack, plc never reaches it, and the report and witness stay those
    of an uncounted run."""
    from riscpl import plc

    want = interleaving_check(hood_stability_pair())
    add = plc.Reduction.add
    callers = Counter()

    def counted(self, col, coords):
        frame, modules = sys._getframe(1), set()
        while frame is not None:
            modules.add(frame.f_globals.get("__name__"))
            frame = frame.f_back
        callers.update(modules)
        return add(self, col, coords)

    monkeypatch.setattr(plc.Reduction, "add", counted)
    k = hood_stability_pair()
    assert interleaving_check(k) == want == {"delta": 1, "ok": True, "witness": PAIR_WITNESSES[0]}
    assert callers["riscpl.plc"] == 0
    # the count sees plc: a degree-1 basis still reduces delta^1
    whole, nothing = k.index.subcomplex(k.simplices), k.index.subcomplex(())
    plc.relative_cohomology(whole, nothing, 1, 2, k.index)
    assert callers["riscpl.plc"] > 0


def test_interleaving_random_pairs():
    rng = random.Random(17)
    for witness in PAIR_WITNESSES[1:]:
        report = matches_reference(random_pair(rng))
        assert report["ok"] and report["witness"] == witness


@pytest.mark.parametrize("pair, delta, witness", [
    (hood_stability_pair, F(3, 2), (64, 37)),
    (seed_one_pair, F(9, 2), (56, 33)),
], ids=["hood", "seed-1"])
def test_interleaving_at_an_explicit_delta_above_the_sup_norm(pair, delta, witness):
    # Omega at delta is not the distance pair (-1, 1) or (-1, 4) of these
    # pairs, so the transformations are built at a shift that no distance
    # pair names.
    k = pair()
    assert distance_pair(k) != ShiftVector(-delta, delta)
    report = matches(interleaving_check, interleaving_check_reference, k, 0, 1, delta)
    assert report == {"delta": delta, "ok": True, "witness": witness}


def test_triangle_identities_hold_at_every_sample(monkeypatch):
    # interleaving_check covers one x-translate period, where every sample
    # with a nonzero value lies in tile 0, so it checks degree 0 only.  Over
    # every sample of the grid the identities hold too, some of them in
    # tile 1 with nonzero ends.
    import reference

    internal_map = reference.internal_map
    ends = Counter()

    def recording(ev, lo, hi):
        out = internal_map(ev, lo, hi)
        if out.rows and out.cols and hi == ev.table.shift(ShiftVector(-2, 2))(lo):
            ends[ev.table.tile[lo]] += 1
        return out

    monkeypatch.setattr(reference, "internal_map", recording)
    monkeypatch.setattr(reference, "period_samples", lambda table: table.samples)
    for k, witness in list(zip(interleave_pairs(), PAIR_WITNESSES))[:2]:
        ends.clear()
        report = interleaving_check_reference(k)
        assert report == {"delta": 1, "ok": True, "witness": witness}
        assert ends[1] > 0


def test_no_value_above_the_diagonal_reaches_a_checker():
    # The checks walk the samples (i, j) with j <= i.  Above the diagonal
    # y > x, and a shift by (a1, a2) with a1 <= a2 keeps y > x, where the
    # value is zero on both evaluators: the omega shifts, the distance pair
    # and random shifts, on the tables of the interleave pairs and of more
    # random pairs.
    rng = random.Random(61)
    for k in interleave_pairs() + [random_pair(rng) for _ in range(3)]:
        ctx = interleave_context(k)
        table, delta = ctx.table, sup_norm(k)
        shifts = [ShiftVector(-delta, delta), ShiftVector(-2 * delta, 2 * delta), distance_pair(k)]
        shifts += [ShiftVector(*sorted(F(rng.randint(-6, 6), 2) for _ in range(2)))
                   for _ in range(4)]
        above = [s for s in table.samples if s[1] > s[0]]
        assert above
        for a in shifts:
            assert a.a1 <= a.a2
            shift = table.shift(a)
            for key in map(shift, above):
                assert table.coords[key[1]] > table.coords[key[0]]
                assert point_data(ctx.evaluator(0), key)[0] == 0
                assert point_data(ctx.evaluator(1), key)[0] == 0


def test_an_interleaving_labels_each_ambient_model_once(monkeypatch):
    """Degree 0 reads H^0 off one union-find labelling of the ambient model,
    which the simplex index keeps: one check of the hood stability pair
    labels each distinct ambient model of its degree-0 bases once."""
    from riscpl import plc

    components, label = plc._components, plc._label
    ambient, labelled = [], Counter()

    def recorded(a, b, p, index):
        ambient.append((index, a))
        return components(a, b, p, index)

    def counted(a, index):
        labelled[(index, a)] += 1
        return label(a, index)

    monkeypatch.setattr(plc, "_components", recorded)
    monkeypatch.setattr(plc, "_label", counted)
    report = interleaving_check(hood_stability_pair())
    assert report == {"delta": 1, "ok": True, "witness": PAIR_WITNESSES[0]}
    assert len(ambient) > len(set(ambient))
    assert set(labelled) == set(ambient) and set(labelled.values()) == {1}


@pytest.mark.parametrize("pair, func, sample",
                         [(0, 0, (63, 37)), (0, 1, (64, 35)), (1, 0, (60, 37))],
                         ids=["hood-f", "hood-g", "random-f"])
def test_interleaving_counterexample_matches_reference(monkeypatch, pair, func, sample):
    # One entry of the transformation out of function func's module is off
    # by one at a sample where its triangle identity is nonempty; both
    # checks name the same first failure.  On the random pair the module
    # of func vanishes at the omega-shift of the sample.
    at = Transformation.at

    def mutated(self, key):
        out = at(self, key)
        if key != sample or self.ev_f.func != func:
            return out
        data = out.data.copy()
        data[0, 0] += 1
        return Mat(data, out.p)

    monkeypatch.setattr(Transformation, "at", mutated)
    k = interleave_pairs()[pair]
    report = interleaving_check(k)
    assert not report["ok"]
    assert report["counterexample"]["sample"] == sample
    assert report["counterexample"]["function"] == func
    assert report == interleaving_check_reference(k)


def test_gluing_check_fires_where_the_reference_fires():
    # At the hood pair's witness both ends of the forward transformation
    # are nonzero and the shift stays in the band, so the transformation
    # compares the open-model pairs there.  Emptying the shifted g pair it
    # compares takes the f pair out of it; both checks must raise.  No
    # interleave pair reaches the connecting branch.
    sample = PAIR_WITNESSES[0]
    compute = Transformation._compute.__code__
    pair_at = FunctorEvaluator.pair_at
    empty = Subcomplex(np.array([], dtype=np.intp))

    def broken(self, w):
        caller = sys._getframe(1)
        trans = caller.f_locals.get("self")
        if (caller.f_code is compute and caller.f_locals["key"] == sample
                and trans.ev_f.func == 0 and self is trans.ev_g):
            return empty, empty
        return pair_at(self, w)

    raised = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FunctorEvaluator, "pair_at", broken)
        for check in (interleaving_check, interleaving_check_reference):
            with pytest.raises(ValueError, match="pair inclusion fails") as err:
                check(hood_stability_pair())
            raised.append(str(err.value))
    assert raised[0] == raised[1]


def interleave_context(k):
    """The joint context that interleaving_check evaluates k on."""

    class Stop(Exception):
        pass

    built = []

    def stop(*args, **kwargs):
        built.append(joint_context(*args, **kwargs))
        raise Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interleave, "joint_context", stop)
        with pytest.raises(Stop):
            interleaving_check(k)
    return built[0]


def test_interleave_modules_are_extended_persistence():
    # The interleaving works on modules of a finer joint split, over a grid
    # with the shifted values; their diagrams, classified, are still the
    # classical extended persistence diagrams of each function.  They are
    # stable (Cohen-Steiner, Edelsbrunner & Harer 2009): their bottleneck
    # distance is at most the sup norm of g - f, and a point of g's moved
    # further than that from every point and from the diagonal, or a
    # dropped Ext point, which has no partner left, breaks the bound.
    for k in interleave_pairs():
        ctx = interleave_context(k)
        diagrams = []
        for func in (0, 1):
            got = []
            for d in dgm(context_module(ctx, func)).points:
                got.extend([classify_region(d.point)] * d.multiplicity)
            values = {v: k.value(v, func) for v in k.values}
            assert sorted(got, key=repr) == extended_persistence(k.simplices, values)
            diagrams.append(got)
        f_dgm, g_dgm = diagrams
        delta = sup_norm(k)
        assert bottleneck(f_dgm, g_dgm) <= delta
        ends = [x for _, _, pair in f_dgm + g_dgm for x in pair]
        far = 2 * delta + max(ends) - min(ends) + 1
        for i, (n, region, (birth, death)) in enumerate(g_dgm):
            moved = (birth - far, death) if birth <= death else (birth + far, death)
            mutant = g_dgm[:i] + [(n, region, moved)] + g_dgm[i + 1:]
            assert bottleneck(f_dgm, mutant) > delta
        ext = next(i for i, pt in enumerate(g_dgm) if pt[1] == "Ext")
        assert bottleneck(f_dgm, g_dgm[:ext] + g_dgm[ext + 1:]) > delta


@pytest.mark.parametrize("p", [3, 5])
def test_interleaving_over_odd_primes(p):
    # connecting-map signs are invisible over GF(2)
    for k, witness in zip(interleave_pairs(), PAIR_WITNESSES):
        report = interleaving_check(k, p=p)
        assert report["ok"] and report["delta"] == 1
        assert report["witness"] == witness


# ---------------------------------------------------------------------------
# compatibility with composition


def test_composition_equal_functions():
    k = complex_of({v: (HOOD_F[v],) * 3 for v in HOOD_F},
                   HOOD_SIMPLICES)
    assert composition_check(k) is None


def test_composition_hood_triple():
    k = complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v], HOOD_GPRIME[v] + 1) for v in HOOD_F},
        HOOD_SIMPLICES,
    )
    assert matches(composition_check, composition_check_reference, k) is None


def test_composition_random_triples():
    rng = random.Random(29)
    for _ in range(2):
        k = random_triple(rng)
        assert matches(composition_check, composition_check_reference, k) is None


# ---------------------------------------------------------------------------
# morphisms induced by simplicial maps


def test_induced_identity_map():
    hood = complex_of({v: (HOOD_F[v],) for v in HOOD_F}, HOOD_SIMPLICES)
    md = induced_morphism(hood, hood, {v: v for v in HOOD_F})
    assert naturality_check(md) is None
    for idx in md.target.samples():
        d = md.target.dim_at(idx)
        assert md.source.dim_at(idx) == d
        assert md.per_sample[idx] == Mat.eye(d, 2)


def test_pullback_collapsing_a_domain_of_higher_dimension():
    # S^4 onto the edge 10-11: the shared grid must reach tile 4, where the
    # domain's degree-4 class lies, although the codomain is an edge
    maximal, values = HIGH_DIMENSIONAL["S4"]
    sphere = complex_of({v: (x,) for v, x in values.items()}, maximal)
    edge = complex_of({10: (0,), 11: (1,)}, [{10, 11}])
    md = induced_morphism(edge, sphere, {v: 10 + x for v, x in values.items()})
    want = evaluate(sphere).diagram
    assert max(d.degree for d in want.points) == 4
    assert multiset(dgm(md.target)) == multiset(want)
    assert naturality_check(md) is None


def test_induced_rejects_bad_maps():
    edge = complex_of({1: (0,), 2: (1,)}, [{1, 2}])
    point = complex_of({1: (0,)}, [{1}])
    with pytest.raises(ValueError):
        induced_morphism(edge, point, {})  # misses a vertex
    with pytest.raises(ValueError):
        induced_morphism(point, edge, {1: 1, 2: 1})  # value not preserved


@pytest.mark.parametrize("bad", [-1, 2, 7])
def test_entry_points_reject_bad_function_index(bad):
    # an edge with two functions: -1 would otherwise name the second one
    k = complex_of({1: (0, 0), 2: (1, 2)}, [{1, 2}])
    ident = {1: 1, 2: 2}
    # the empty complex carries one function, before its early return too
    empty = complex_of({}, [])
    assert evaluate(empty, func=0).diagram.points == []
    calls = [
        lambda: evaluate(k, func=bad),
        lambda: evaluate(empty, func=bad),
        lambda: joint_context(k, [0, bad]),
        lambda: interleaving_check(k, f=bad),
        lambda: interleaving_check(k, g=bad),
        lambda: composition_check(k, (0, 1, bad)),
        lambda: induced_morphism(k, k, ident, func=bad),
        lambda: precomposition_check(k, k, ident, f=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="function index"):
            call()


def test_edge_collapse_round_trip():
    # Collapsing a constant edge to a point and including it back induces
    # the identity on both modules.
    edge = complex_of({1: (0,), 2: (0,)}, [{1, 2}])
    point = complex_of({1: (0,)}, [{1}])
    md_i = induced_morphism(edge, point, {1: 1})
    md_r = induced_morphism(point, edge, {1: 1, 2: 1})
    assert naturality_check(md_i) is None
    assert naturality_check(md_r) is None
    for idx in md_i.target.samples():
        comp = md_i.per_sample[idx] @ md_r.per_sample[idx]
        assert comp == Mat.eye(md_i.target.dim_at(idx), 2)
    for idx in md_r.target.samples():
        comp = md_r.per_sample[idx] @ md_i.per_sample[idx]
        assert comp == Mat.eye(md_r.target.dim_at(idx), 2)


def test_triangle_retract_round_trip():
    # The full triangle retracts onto one of its edges by a value-preserving
    # fold; both composites of the induced morphisms are the identity.
    tri = complex_of({1: (0,), 2: (1,), 3: (0,)}, [{1, 2, 3}])
    edge = complex_of({1: (0,), 2: (1,)}, [{1, 2}])
    md_i = induced_morphism(tri, edge, {1: 1, 2: 2})
    md_r = induced_morphism(edge, tri, {1: 1, 2: 2, 3: 1})
    assert naturality_check(md_i) is None
    assert naturality_check(md_r) is None
    for idx in md_i.target.samples():
        comp = md_i.per_sample[idx] @ md_r.per_sample[idx]
        assert comp == Mat.eye(md_i.target.dim_at(idx), 2)
    for idx in md_r.target.samples():
        comp = md_r.per_sample[idx] @ md_i.per_sample[idx]
        assert comp == Mat.eye(md_r.target.dim_at(idx), 2)


def test_cone_apex_retract():
    # The cone over the four-cycle retracts onto one of its triangles,
    # fixing the apex.  The round trip on the triangle is the identity; on
    # the cone the composite is the identity at every sample where the two
    # modules have equal dimension (they differ on the support of the extra
    # relative class of the cone, where no retraction over the reals can
    # exist).
    cone = complex_of({v: (HOOD_F[v],) for v in HOOD_F}, HOOD_SIMPLICES)
    tri = complex_of({1: (0,), 2: (1,), 5: (2,)}, [{1, 2, 5}])
    md_i = induced_morphism(cone, tri, {1: 1, 2: 2, 5: 5})
    md_r = induced_morphism(tri, cone, {1: 1, 2: 2, 3: 1, 4: 5, 5: 5})
    assert naturality_check(md_i) is None
    assert naturality_check(md_r) is None
    for idx in md_i.target.samples():
        comp = md_i.per_sample[idx] @ md_r.per_sample[idx]
        assert comp == Mat.eye(md_i.target.dim_at(idx), 2)
    agreeing = disagreeing = 0
    for idx in md_r.target.samples():
        if md_r.target.dim_at(idx) != md_r.source.dim_at(idx):
            disagreeing += 1
            continue
        agreeing += 1
        comp = md_r.per_sample[idx] @ md_i.per_sample[idx]
        assert comp == Mat.eye(md_r.target.dim_at(idx), 2)
    assert agreeing > 0 and disagreeing > 0


def test_induced_morphisms_compose_contravariantly():
    point = complex_of({1: (0,)}, [{1}])
    edge = complex_of({1: (0,), 2: (0,)}, [{1, 2}])
    tri = complex_of({1: (0,), 2: (0,), 3: (0,)}, [{1, 2, 3}])
    inc_pe = {1: 1}
    inc_et = {1: 1, 2: 2}
    md_outer = induced_morphism(tri, point, {1: inc_et[inc_pe[1]]})
    md_et = induced_morphism(tri, edge, inc_et)
    md_pe = induced_morphism(edge, point, inc_pe)
    for idx in md_outer.target.samples():
        comp = md_pe.per_sample[idx] @ md_et.per_sample[idx]
        assert comp == md_outer.per_sample[idx]


# ---------------------------------------------------------------------------
# compatibility with precomposition


def precomposition_matches_reference(ky, kx, phi):
    return matches(precomposition_check, precomposition_check_reference, ky, kx, phi)


def test_precomposition_identity_map():
    k = hood_pair()
    assert precomposition_matches_reference(k, k, {v: v for v in HOOD_F}) is None


def test_precomposition_hood_subcomplex():
    k = hood_pair()
    subs = [s for s in HOOD_SIMPLICES if 5 not in s]
    verts = sorted({v for s in subs for v in s})
    sub = complex_of({v: (HOOD_F[v], HOOD_GPRIME[v]) for v in verts},
                     subs)
    assert precomposition_matches_reference(k, sub, {v: v for v in verts}) is None


def test_precomposition_random_subcomplex_inclusions():
    rng = random.Random(41)
    done = 0
    while done < 2:
        k = random_pair(rng)
        keep = set(rng.sample(sorted(k.values), rng.randint(3, len(k.values))))
        subs = [s for s in k.simplices if set(s) <= keep]
        verts = sorted({v for s in subs for v in s})
        if not verts:
            continue
        sub = complex_of({v: k.values[v] for v in verts},
                         [set(s) for s in subs])
        assert precomposition_matches_reference(k, sub, {v: v for v in verts}) is None
        done += 1


def test_the_walk_keeps_the_diagonal():
    # A shift by (a, a) maps the diagonal to itself.  A point with value 0
    # has a nonzero value on the diagonal, so at delta 0, with the three
    # functions equal and under the identity map, all three checks build
    # nonempty matrices there, as the full-period references do.
    k = complex_of({1: (0, 0, 0)}, [{1}])
    report = matches(interleaving_check, interleaving_check_reference, k, 0, 1, 0)
    assert report == {"delta": 0, "ok": True, "witness": (14, 11)}
    assert matches(composition_check, composition_check_reference, k) is None
    assert precomposition_matches_reference(k, k, {1: 1}) is None
