import random
from fractions import Fraction

import pytest

from riscpl.exact_geometry import (
    Coord,
    ShiftVector,
    StripPoint,
    alpha_apply,
    block_contains,
)
from riscpl.field_linalg import Mat
from riscpl.interleave import (
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
from riscpl.plc import PLComplex
from riscpl.risc_builder import evaluate
from riscpl.strip_module import from_blocks

from reference import shifted_module
from test_oracles import HOOD_F, HOOD_GPRIME, HOOD_SIMPLICES

F = Fraction


def complex_of(values, maximal, nfuncs=None):
    return PLComplex.from_maximal(values, maximal, nfuncs)


def hood_pair():
    """The cone over the four-cycle carrying both the peaked function and
    its flattened variant."""
    return complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v]) for v in HOOD_F}, HOOD_SIMPLICES, nfuncs=2
    )


def hood_stability_pair():
    """The peaked function against the flattened one raised by the half-gap,
    which is at sup distance 1."""
    return complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v] + 1) for v in HOOD_F}, HOOD_SIMPLICES, nfuncs=2
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
    return complex_of(values, maximal, nfuncs=2)


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
    return complex_of(values, maximal, nfuncs=3)


# ---------------------------------------------------------------------------
# the two-valued distance


def test_distance_of_function_with_itself():
    k = complex_of({v: (HOOD_F[v], HOOD_F[v]) for v in HOOD_F},
                   HOOD_SIMPLICES, nfuncs=2)
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
    r = evaluate(complex_of({v: (HOOD_F[v],) for v in HOOD_F}, HOOD_SIMPLICES))
    m = shifted_module(r, ShiftVector(0, 0))
    assert m.xs == r.module.xs
    for idx in m.samples():
        assert m.dim_at(idx) == r.module.dim_at(idx)
    for key in r.module.maps:
        assert m.map_at(*key) == r.module.map_at(*key)


def test_shifted_flattened_hood_is_block_sum():
    # Shifting the flattened function's module left by 2 moves one block
    # vertex from value 4 down to value 2 and fixes the other block.
    r = evaluate(complex_of({v: (HOOD_GPRIME[v],) for v in HOOD_GPRIME},
                            HOOD_SIMPLICES))
    m = shifted_module(r, ShiftVector(F(-2), F(0)))
    blocks = from_blocks(
        [
            (StripPoint(Coord(0, F(4)), Coord(0, F(0))), 1),
            (StripPoint(Coord(1, F(-1)), Coord(-2, F(2))), 1),
        ],
        m.xs,
        m.ys,
    )
    for idx in m.samples():
        assert m.dim_at(idx) == blocks.dim_at(idx)


def test_hood_superlinear_shift_factors_through_flattened():
    # The raised flattened function shifted by (-1, 1) agrees with the
    # flattened function shifted by (-2, 0), maps included.
    k = complex_of({v: (HOOD_GPRIME[v] + 1, HOOD_GPRIME[v]) for v in HOOD_GPRIME},
                   HOOD_SIMPLICES, nfuncs=2)
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
                   HOOD_SIMPLICES, nfuncs=2)
    ctx = joint_context(k, [0, 1])
    md = build_transformation(ctx)
    assert md.shift == ShiftVector(0, 0)
    assert naturality_check(md) is None
    for idx in md.target.samples():
        d = md.target.dim_at(idx)
        assert md.source.dim_at(idx) == d
        assert md.per_sample[idx] == Mat.eye(d, 2)


def test_hood_transformation_nonzero_on_named_blocks():
    # Some sample lies in the supports of the one-dimensional blocks of both
    # modules, and the transformation does not vanish there.
    ctx = joint_context(hood_pair(), [0, 1], shifts=[2])
    md = build_transformation(ctx)
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
        and block_contains(tgt_block, md.target.point(idx))
        and block_contains(src_block, alpha_apply(md.shift, md.target.point(idx)))
    ]
    assert witnesses


def test_transformation_natural_on_random_pairs():
    rng = random.Random(11)
    for _ in range(3):
        k = random_pair(rng)
        a = distance_pair(k)
        ctx = joint_context(k, [0, 1], shifts=[a.a1, a.a2])
        assert naturality_check(build_transformation(ctx)) is None


# ---------------------------------------------------------------------------
# interleaving


def test_interleaving_equal_functions_at_zero():
    k = complex_of({v: (HOOD_F[v], HOOD_F[v]) for v in HOOD_F},
                   HOOD_SIMPLICES, nfuncs=2)
    report = interleaving_check(k, delta=0)
    assert report["ok"] and report["delta"] == 0


def test_interleaving_rejects_too_small_delta():
    with pytest.raises(ValueError):
        interleaving_check(hood_stability_pair(), delta=F(1, 2))


def test_hood_interleaving():
    report = interleaving_check(hood_stability_pair())
    assert report["ok"] and report["delta"] == 1
    assert report["witness"] is not None


def test_interleaving_random_pairs():
    rng = random.Random(17)
    for _ in range(3):
        k = random_pair(rng)
        assert interleaving_check(k)["ok"]


# ---------------------------------------------------------------------------
# compatibility with composition


def test_composition_equal_functions():
    k = complex_of({v: (HOOD_F[v],) * 3 for v in HOOD_F},
                   HOOD_SIMPLICES, nfuncs=3)
    assert composition_check(k) is None


def test_composition_hood_triple():
    k = complex_of(
        {v: (HOOD_F[v], HOOD_GPRIME[v], HOOD_GPRIME[v] + 1) for v in HOOD_F},
        HOOD_SIMPLICES,
        nfuncs=3,
    )
    assert composition_check(k) is None


def test_composition_random_triples():
    rng = random.Random(29)
    for _ in range(2):
        assert composition_check(random_triple(rng)) is None


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


def test_induced_rejects_bad_maps():
    edge = complex_of({1: (0,), 2: (1,)}, [{1, 2}])
    point = complex_of({1: (0,)}, [{1}])
    with pytest.raises(ValueError):
        induced_morphism(edge, point, {})  # misses a vertex
    with pytest.raises(ValueError):
        induced_morphism(point, edge, {1: 1, 2: 1})  # value not preserved


@pytest.mark.parametrize("bad", [-1, 2])
def test_entry_points_reject_bad_function_index(bad):
    # an edge with two functions: -1 would otherwise name the second one
    k = complex_of({1: (0, 0), 2: (1, 2)}, [{1, 2}], nfuncs=2)
    ident = {1: 1, 2: 2}
    calls = [
        lambda: evaluate(k, func=bad),
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


def test_precomposition_identity_map():
    k = hood_pair()
    assert precomposition_check(k, k, {v: v for v in HOOD_F}) is None


def test_precomposition_hood_subcomplex():
    k = hood_pair()
    subs = [s for s in HOOD_SIMPLICES if 5 not in s]
    verts = sorted({v for s in subs for v in s})
    sub = complex_of({v: (HOOD_F[v], HOOD_GPRIME[v]) for v in verts},
                     subs, nfuncs=2)
    assert precomposition_check(k, sub, {v: v for v in verts}) is None


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
                         [set(s) for s in subs], nfuncs=2)
        assert precomposition_check(k, sub, {v: v for v in verts}) is None
        done += 1
