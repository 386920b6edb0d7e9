"""Shift distances, shifted modules and morphisms between them.

The two-valued distance of a pair of PL functions on one complex determines
a shift under which the second function's module maps naturally to the
first's, as does every shift above it.  The per-sample matrices of this
transformation come in two kinds, decided by the tile indices of the point
and of its shift, the rule `risc_builder.internal_map` follows (the shift
commutes with the glide reflection): in the same band the map is induced by
an inclusion of open model pairs, and one band back it is the
Mayer-Vietoris connecting differential of an interpolating pair of open
sets on the rectangle between the point and its glide-reflection preimage.
Both kinds come from the target function's evaluator, which caches the
induced maps.  On top of this sit the interleaving, composition and
precomposition checkers, each building its transformations at the shift its
identity states, and the contravariant morphisms induced by simplicial maps
over the reals.

All of this runs on contexts built by `risc_builder.joint_context`, the
one builder of grids, split complexes and evaluators.  The evaluators of a
context share the integer coordinate table of its sample grid
(`exact_geometry.CoordTable`), and the domain of a pullback is evaluated on
the codomain's table.  A sample, its glide-reflection translates and its
shifts by alpha and omega are pairs of coordinate ids, and every
per-sample cache is keyed by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .exact_geometry import (
    CoordTable,
    Key,
    ShiftVector,
)
from .field_linalg import Mat
from .plc import (
    PLComplex,
    Subcomplex,
    _fresh_vid,
    check_funcs,
    take_rows,
    vkey,
)
from .risc_builder import (
    DEFAULT_CAP,
    FunctorEvaluator,
    JointContext,
    assemble_module,
    internal_map,
    joint_context,
    point_data,
    sample_table,
)
from .strip_module import GridModule

# The library entry points: the interleaving check the CLI runs, the
# stability transformation with its naturality check, the composition
# check, and the morphism a simplicial map induces with its check against
# the stability transformations.
__all__ = [
    "build_transformation",
    "composition_check",
    "induced_morphism",
    "interleaving_check",
    "naturality_check",
    "precomposition_check",
]

Index = Tuple[int, int]


# ---------------------------------------------------------------------------
# the two-valued distance


def distance_pair(k: PLComplex, f: int = 0, g: int = 1) -> ShiftVector:
    """The pair (inf(g - f), sup(g - f)) on the complex; a PL difference
    attains both extremes at vertices of its simplices."""
    check_funcs(k, f, g)
    diffs = [k.value(v, g) - k.value(v, f) for v in {v for s in k.simplices for v in s}]
    if not diffs:
        return ShiftVector(0, 0)
    return ShiftVector(min(diffs), max(diffs))


def sup_norm(k: PLComplex, f: int = 0, g: int = 1) -> Fraction:
    """The sup norm of g - f."""
    a = distance_pair(k, f, g)
    return max(abs(a.a1), abs(a.a2))


def context_module(ctx: JointContext, func: int,
                   a: Optional[ShiftVector] = None) -> GridModule:
    """The module of one function over the shared grid, optionally pulled
    back along a shift."""
    transform = None if a is None else ctx.table.shift(a)
    return assemble_module(ctx.evaluator(func), transform=transform)


# ---------------------------------------------------------------------------
# the stability transformation, one sample at a time


class Transformation:
    """Per-sample matrices of the natural transformation from the shifted
    module of g to the module of f, for one fixed shift dominating g - f.

    The two evaluators share their coordinate table and split complex.  At
    a sample whose shift lies in the same tile, the matrix is induced by
    the inclusion of the f open-model pair into the shifted g open-model
    pair, between the two bases `point_data` returns.  Where the shift lies
    one tile back, the matrix is the connecting differential of the
    interpolating pair on the rectangle spanned by the band representative
    and its glide-reflection preimage.  The f evaluator builds both kinds
    of map (`inclusion`, `connecting`) and caches the induced ones; this
    object caches the matrix of each sample and whether the f pair lies in
    the g pair, per pair of pairs."""

    def __init__(self, ev_f: FunctorEvaluator, ev_g: FunctorEvaluator,
                 a: ShiftVector):
        if ev_f.p != ev_g.p:
            raise ValueError("field mismatch")
        if ev_f.table is not ev_g.table:
            raise ValueError("evaluators over different coordinate tables")
        if ev_f.split is not ev_g.split:
            raise ValueError("evaluators over different split complexes")
        self.ev_f = ev_f
        self.ev_g = ev_g
        self.a = a
        self.p = ev_f.p
        self.table = ev_f.table
        self.shift = self.table.shift(a)
        self._by_point: Dict[Key, Mat] = {}
        self._included: Dict[tuple, bool] = {}

    def at(self, key: Key) -> Mat:
        out = self._by_point.get(key)
        if out is None:
            out = self._compute(key)
            self._by_point[key] = out
        return out

    def _interp_pair(self, c: Key) -> Tuple[Subcomplex, Subcomplex]:
        """The interpolating pair at a rectangle corner: ambient from the
        shifted g preimage of the first attached set, subspace cut out by
        the f preimage of the second."""
        rho1g, _ = self.ev_g.ranges(self.shift(c))
        _, rho0f = self.ev_f.ranges(c)
        amb = self.ev_g.model((rho1g,))
        return amb, amb & self.ev_f.model(rho0f)

    def _compute(self, key: Key) -> Mat:
        d, n, basis = point_data(self.ev_f, key)
        d_src, n_src, basis_src = point_data(self.ev_g, self.shift(key))
        if d == 0 or d_src == 0:
            return Mat.zeros(d, d_src, self.p)
        u = self.table.power(n)(key)
        if n_src == n:
            pair_f = self.ev_f.pair_at(u)
            pair_g = self.ev_g.pair_at(self.shift(u))
            pairs = pair_f + pair_g
            ok = self._included.get(pairs)
            if ok is None:
                ok = self._included[pairs] = pair_f[0] <= pair_g[0] and pair_f[1] <= pair_g[1]
            if not ok:
                raise ValueError(
                    "open-model pair inclusion fails; the shift does not "
                    "dominate the difference of the functions"
                )
            return self.ev_f.inclusion(basis_src, basis)
        if n_src != n - 1:
            raise ValueError(
                "shifted sample lies more than one band away; "
                "the joint grid is insufficient for this shift"
            )
        m = self.table.power(-1)(u)
        xi_w = self._interp_pair(u)
        xi_1 = self._interp_pair((m[0], u[1]))
        xi_2 = self._interp_pair((u[0], m[1]))
        xi_m = self._interp_pair(m)
        if xi_w != self.ev_f.pair_at(u):
            raise ValueError(
                "interpolating pair differs from the f pair at the band "
                "representative; construction regions do not glue here"
            )
        if xi_m != self.ev_g.pair_at(self.shift(m)):
            raise ValueError(
                "interpolating pair differs from the shifted g pair at the "
                "reflected corner; construction regions do not glue here"
            )
        return self.ev_f.connecting(self.ev_g, xi_w, xi_1, xi_2, xi_m, n - 1)


@dataclass
class MorphismData:
    """A morphism of grid modules over a shared sample set: the source is
    the (possibly shifted) module being mapped, the target receives it, and
    per_sample holds one matrix per sample."""

    source: GridModule
    target: GridModule
    per_sample: Dict[Index, Mat]
    shift: ShiftVector


def naturality_check(md: MorphismData) -> Optional[tuple]:
    """All squares of per-sample matrices against the internal maps of
    source and target must commute; returns a counterexample pair of sample
    indices or None."""
    src, dst = md.source, md.target
    for idx in dst.samples():
        for up in dst.up(idx):
            if up not in md.per_sample:
                continue
            lhs = dst.map_at(idx, up) @ md.per_sample[up]
            rhs = md.per_sample[idx] @ src.map_at(idx, up)
            if lhs != rhs:
                return (idx, up)
    return None


def build_transformation(ctx: JointContext, f: int = 0, g: int = 1,
                         a: Optional[ShiftVector] = None) -> MorphismData:
    """The natural transformation from the a-shifted module of g to the
    module of f over the shared grid; a defaults to the distance pair."""
    if a is None:
        a = distance_pair(ctx.complex, f, g)
    ev_f, ev_g = ctx.evaluator(f), ctx.evaluator(g)
    target = context_module(ctx, f)
    source = context_module(ctx, g, a)
    trans = Transformation(ev_f, ev_g, a)
    per_sample = {idx: trans.at(idx) for idx in target.samples()}
    return MorphismData(source, target, per_sample, a)


# ---------------------------------------------------------------------------
# interleaving


def period_samples(table: CoordTable):
    """Samples (i, j) of one x-translate period of the table's grid, the
    rows with x translate -1 or 0, on or below the diagonal: j <= i.  Each
    of them with a nonzero value lies in tile 0: in tile 1 or above
    y <= x - 2pi, and with x <= pi/2 then x + y <= -pi.  So identities
    checked here are checked in degree 0 only.  The square of the glide
    reflection moves tile n to tile n - 2, degree n to degree n - 2, and is
    no symmetry of the module.  Above the diagonal y > x, so the tile is
    negative and the value zero, and a shift by (a1, a2) with a1 <= a2 keeps
    y > x: it moves x by a1 and y by a2 in even charts, by -a2 and -a1 in
    odd ones, and keeps the chart, so the checks find nothing there."""
    return [s for i, x in enumerate(table.grid) if x.k in (-1, 0)
            for s in table.row_samples[i] if s[1] <= i]


def _dim(ev: FunctorEvaluator, key: Key) -> int:
    return point_data(ev, key)[0]


def _report(delta, ok, counterexample=None, witness=None) -> dict:
    out = {"delta": delta, "ok": ok}
    if counterexample is not None:
        out["counterexample"] = counterexample
    if witness is not None:
        out["witness"] = witness
    return out


def interleaving_check(k: PLComplex, f: int = 0, g: int = 1, delta=None,
                       p: int = 2, cap: int = DEFAULT_CAP) -> dict:
    """Build the two interleaving transformations at omega = (-delta, delta)
    for the given parameter (default: the sup norm of g - f), each from the
    omega-shifted module of one function to the module of the other, and
    verify both triangle identities against the internal superlinear-shift
    maps at every sample of one period on or below the diagonal
    (`period_samples`), so in degree 0 only: the identity of t's target at x
    says that t at x after the other transformation at omega(x) is the
    internal map from x to omega^2(x).  An identity whose two sides are
    empty matrices holds and is skipped.  A transformation is built wherever
    its target is nonzero, the only samples where its gluing checks run."""
    delta = sup_norm(k, f, g) if delta is None else Fraction(delta)
    omega = ShiftVector(-delta, delta)
    if not distance_pair(k, f, g).precedes(omega):
        raise ValueError("delta is smaller than the sup norm of g - f")
    ctx = joint_context(k, [f, g], [delta, 2 * delta], p, cap)
    ev_f, ev_g = ctx.evaluator(f), ctx.evaluator(g)
    fwd, bwd = Transformation(ev_f, ev_g, omega), Transformation(ev_g, ev_f, omega)
    omega2 = ctx.table.shift(ShiftVector(-2 * delta, 2 * delta))
    witness = None
    for idx in period_samples(ctx.table):
        mid = fwd.shift(idx)
        far = omega2(idx)
        f_idx, g_idx, f_mid, g_mid = (_dim(ev, key) for key in (idx, mid) for ev in (ev_f, ev_g))
        for t, u, d, d_mid in ((fwd, bwd, f_idx, g_mid), (bwd, fwd, g_idx, f_mid)):
            if d:
                t.at(idx)
            if d_mid:
                u.at(mid)
            if d and _dim(t.ev_f, far):
                lhs = t.at(idx) @ u.at(mid)
                rhs = internal_map(t.ev_f, idx, far)
                if lhs != rhs:
                    return _report(delta, False, {
                        "sample": idx, "function": t.ev_f.func, "lhs": lhs, "rhs": rhs})
        if witness is None and f_idx == g_mid == 1 and not fwd.at(idx).is_zero():
            witness = idx
    return _report(delta, True, witness=witness)


# ---------------------------------------------------------------------------
# compatibility with composition


def composition_check(k: PLComplex, funcs: Sequence[int] = (0, 1, 2),
                      p: int = 2, cap: int = DEFAULT_CAP) -> Optional[tuple]:
    """The transformation of the outer pair at the summed shift a + b must
    equal the inner one at a after the inner one at b at every sample of one
    period on or below the diagonal (`period_samples`), so in degree 0
    (trivially so where both sides are empty matrices); the triangle
    inequality makes a + b dominate the outer distance.  Each transformation
    is built wherever its target is nonzero, so its gluing checks run at
    every sample where they can."""
    f1, f2, f3 = funcs
    a = distance_pair(k, f1, f2)
    b = distance_pair(k, f2, f3)
    ab = a + b
    if not distance_pair(k, f1, f3).precedes(ab):
        raise AssertionError("distance triangle inequality violated")
    ctx = joint_context(k, funcs, [a.a1, a.a2, b.a1, b.a2, ab.a1, ab.a2], p, cap)
    ev1, ev2, ev3 = (ctx.evaluator(func) for func in funcs)
    t12 = Transformation(ev1, ev2, a)
    t23 = Transformation(ev2, ev3, b)
    t13 = Transformation(ev1, ev3, ab)
    for idx in period_samples(ctx.table):
        mid = t12.shift(idx)
        for t, key in ((t12, idx), (t23, mid), (t13, idx)):
            if _dim(t.ev_f, key):
                t.at(key)  # its gluing checks run where they can
        if not (_dim(ev1, idx) and _dim(ev3, t13.shift(idx))):
            continue  # both sides are empty matrices
        lhs = t12.at(idx) @ t23.at(mid)
        if lhs != t13.at(idx):
            return (idx, lhs, t13.at(idx))
    return None


# ---------------------------------------------------------------------------
# morphisms induced by simplicial maps over the reals


def extend_to_split(phi: Dict, trace: Sequence[tuple]) -> Dict:
    """Extend a vertex map along the domain's splitting trace: the vertex
    created on an edge maps to the vertex created at the same level on the
    image edge, whose id is deterministic.  A value-preserving simplicial
    map always maps a crossing edge to a crossing edge when both complexes
    are split at the same levels, so the image vertex exists."""
    out = dict(phi)
    for x, a, b, s in trace:
        pa, pb = out[a], out[b]
        if pa == pb:
            raise ValueError(f"image edge of split vertex {x!r} is degenerate")
        out[x] = _fresh_vid(pa, pb, s)
    return out


def _validate_simplicial(phi: Dict, kx: PLComplex, ky: PLComplex,
                         funcs: Sequence[int]):
    for v in kx.values:
        if v not in phi:
            raise ValueError(f"vertex map misses vertex {v!r}")
        if phi[v] not in ky.values:
            raise ValueError(f"vertex map hits unknown vertex {phi[v]!r}")
        for func in funcs:
            if kx.value(v, func) != ky.value(phi[v], func):
                raise ValueError(f"vertex map does not preserve values at {v!r}")
    for s in kx.simplices:
        if frozenset(phi[v] for v in s) not in ky.simplices:
            raise ValueError(f"vertex map is not simplicial at {sorted(map(str, s))}")


class CochainPullback:
    """Per-sample matrices of the contravariant morphism induced by a
    simplicial value-preserving map: pull cocycle representatives back
    along the map and express them in the domain's basis.  Two arrays over
    the domain's ids, built once, carry the map: the codomain id of each
    simplex's image (-1 if degenerate) and the sign of the permutation
    sorting the image's vertices, (-1) to the number of inversions."""

    def __init__(self, ev_y: FunctorEvaluator, ev_x: FunctorEvaluator,
                 phi: Dict):
        if ev_y.table is not ev_x.table:
            raise ValueError("evaluators over different coordinate tables")
        self.ev_y = ev_y
        self.ev_x = ev_x
        cells, target = ev_x.split.index.cells, ev_y.split.index.id
        self.image = np.full(len(cells), -1, dtype=np.intp)
        self.sign = np.ones(len(cells), dtype=np.int64)
        for i, s in enumerate(cells):
            keys = [vkey(phi[v]) for v in sorted(s, key=vkey)]
            if len(set(keys)) == len(s):
                self.image[i] = target[frozenset(phi[v] for v in s)]
                self.sign[i] = (-1) ** sum(x > y for j, x in enumerate(keys) for y in keys[j + 1:])
        self._by_model: Dict[tuple, Mat] = {}

    def at(self, key: Key) -> Mat:
        d_dst, _, dst = point_data(self.ev_x, key)
        d_src, _, src = point_data(self.ev_y, key)
        if d_dst == 0 or d_src == 0:
            return Mat.zeros(d_dst, d_src, self.ev_x.p)
        # the evaluators cache one basis per pair of subcomplexes
        model_key = (id(src), id(dst))
        out = self._by_model.get(model_key)
        if out is None:
            pulled = take_rows(src.ids, src.reps.data, self.image[dst.ids])
            out = dst.express(Mat(self.sign[dst.ids, None] * pulled, dst.p))
            self._by_model[model_key] = out
        return out


def _pullback_contexts(ky: PLComplex, kx: PLComplex, phi: Dict,
                       funcs: Sequence[int], shifts, p: int, cap: int):
    """The codomain's and the domain's contexts on one coordinate table, of
    the codomain's values and the larger dimension (a simplicial map may
    collapse its domain), and the vertex map extended along the domain's
    splitting, checked to be simplicial and value-preserving before and
    after the splitting."""
    check_funcs(kx, *funcs)
    check_funcs(ky, *funcs)
    _validate_simplicial(phi, kx, ky, funcs)
    table = sample_table(ky, funcs, max(kx.dim(), ky.dim()))
    ctx_y = joint_context(ky, funcs, shifts, p, cap, table=table)
    trace_x: list = []
    ctx_x = joint_context(kx, funcs, shifts, p, cap, trace=trace_x, table=table)
    phi_split = extend_to_split(phi, trace_x)
    _validate_simplicial(phi_split, ctx_x.split, ctx_y.split, funcs)
    return ctx_y, ctx_x, phi_split


def induced_morphism(ky: PLComplex, kx: PLComplex, phi: Dict, func: int = 0,
                     p: int = 2, cap: int = DEFAULT_CAP) -> MorphismData:
    """The morphism from the module of a function on the codomain to the
    module of its pullback on the domain, induced by a simplicial
    value-preserving vertex map."""
    ctx_y, ctx_x, phi_split = _pullback_contexts(ky, kx, phi, [func], (), p, cap)
    ev_y, ev_x = ctx_y.evaluator(func), ctx_x.evaluator(func)
    source = assemble_module(ev_y)
    target = assemble_module(ev_x)
    pull = CochainPullback(ev_y, ev_x, phi_split)
    per_sample = {idx: pull.at(idx) for idx in target.samples()}
    return MorphismData(source, target, per_sample, ShiftVector(0, 0))


def precomposition_check(ky: PLComplex, kx: PLComplex, phi: Dict,
                         f: int = 0, g: int = 1, p: int = 2,
                         cap: int = DEFAULT_CAP) -> Optional[tuple]:
    """Pulling the two functions back along a simplicial map commutes with
    the stability transformations: the square of the induced morphisms and
    the domain and codomain transformations, both at the codomain distance
    a, which must dominate the domain's, commutes at every sample of one
    period on or below the diagonal (`period_samples`), so in degree 0
    (trivially so where both sides are empty matrices).  Each transformation
    and pullback is built wherever its target is nonzero, so its gluing
    checks or express run where they can."""
    a = distance_pair(ky, f, g)
    ctx_y, ctx_x, phi_split = _pullback_contexts(
        ky, kx, phi, [f, g], [a.a1, a.a2], p, cap)
    if not distance_pair(kx, f, g).precedes(a):
        raise AssertionError("pulled-back distance is not dominated")
    ey_f, ey_g = ctx_y.evaluator(f), ctx_y.evaluator(g)
    ex_f, ex_g = ctx_x.evaluator(f), ctx_x.evaluator(g)
    t_y = Transformation(ey_f, ey_g, a)
    t_x = Transformation(ex_f, ex_g, a)
    pull_f = CochainPullback(ey_f, ex_f, phi_split)
    pull_g = CochainPullback(ey_g, ex_g, phi_split)
    for idx in period_samples(ctx_y.table):
        mid = t_y.shift(idx)
        # (map, its target evaluator, key)
        for t, ev, key in ((t_x, ex_f, idx), (pull_g, ex_g, mid),
                           (pull_f, ex_f, idx), (t_y, ey_f, idx)):
            if _dim(ev, key):
                t.at(key)  # its gluing checks or express run where they can
        if not (_dim(ex_f, idx) and _dim(ey_g, mid)):
            continue  # both sides are empty matrices
        lhs = t_x.at(idx) @ pull_g.at(mid)
        rhs = pull_f.at(idx) @ t_y.at(idx)
        if lhs != rhs:
            return (idx, lhs, rhs)
    return None
