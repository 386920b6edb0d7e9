"""Shift distances, shifted modules and morphisms between them.

The two-valued distance of a pair of PL functions on one complex determines
a shift under which the second function's module maps naturally to the
first's.  The per-sample matrices of this transformation come in two kinds,
decided by exact geometry: where the shifted point stays in the fundamental
band the map is induced by an inclusion of open model pairs, and where it
crosses into the next band the map is the Mayer-Vietoris connecting
differential of an interpolating pair of open sets on the rectangle between
the point and its glide-reflection preimage.  On top of this sit the
interleaving and composition checkers, and the contravariant morphisms
induced by simplicial maps over the reals.

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
    rho,
)
from .field_linalg import Mat
from .plc import (
    PLComplex,
    Subcomplex,
    _fresh_vid,
    check_funcs,
    induced_map,
    mv_connecting,
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
)
from .strip_module import GridModule

Index = Tuple[int, int]


# ---------------------------------------------------------------------------
# the two-valued distance


def distance_pair(k: PLComplex, f: int = 0, g: int = 1) -> ShiftVector:
    """The pair (inf(g - f), sup(g - f)); a PL difference attains both
    extremes at vertices."""
    check_funcs(k, f, g)
    diffs = [k.value(v, g) - k.value(v, f) for v in k.values]
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

    At a sample whose shifted image stays in the fundamental band the
    matrix is induced by the inclusion of the f open-model pair into the
    shifted g open-model pair.  Where the shifted image crosses into the
    previous band, the matrix is the connecting differential of the
    interpolating pair on the rectangle spanned by the band representative
    and its glide-reflection preimage."""

    def __init__(self, ev_f: FunctorEvaluator, ev_g: FunctorEvaluator,
                 a: ShiftVector):
        if ev_f.p != ev_g.p:
            raise ValueError("field mismatch")
        if ev_f.table is not ev_g.table:
            raise ValueError("evaluators over different coordinate tables")
        self.ev_f = ev_f
        self.ev_g = ev_g
        self.a = a
        self.p = ev_f.p
        self.table = ev_f.table
        self.shift = self.table.shift(a)
        self._by_point: Dict[Key, Mat] = {}
        self._by_model: Dict[tuple, Mat] = {}

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
        rho1g, _ = rho(self.table.point(self.shift(c)))
        _, rho0f = rho(self.table.point(c))
        amb = self.ev_g.model(rho1g)
        return amb, amb & self.ev_f.model(rho0f)

    def _compute(self, key: Key) -> Mat:
        table = self.table
        d_dst, n, _ = point_data(self.ev_f, key)
        d_src, _, _ = point_data(self.ev_g, self.shift(key))
        if d_dst == 0 or d_src == 0:
            return Mat.zeros(d_dst, d_src, self.p)
        u = table.power(n)[key]
        au = self.shift(u)
        if table.fundamental[au]:
            pair_f = self.ev_f.pair_at(u)
            pair_g = self.ev_g.pair_at(au)
            model_key = ("inc", n, pair_f, pair_g)
            out = self._by_model.get(model_key)
            if out is None:
                if not (pair_f[0] <= pair_g[0] and pair_f[1] <= pair_g[1]):
                    raise ValueError(
                        "open-model pair inclusion fails; the shift does not "
                        "dominate the difference of the functions"
                    )
                out = induced_map(self.ev_g.basis(*pair_g, n),
                                  self.ev_f.basis(*pair_f, n))
                self._by_model[model_key] = out
            return out
        t_inv = table.power(-1)
        m = t_inv[u]
        if not table.fundamental[t_inv[au]]:
            raise ValueError(
                "shifted sample lies more than one band away; "
                "the joint grid is insufficient for this shift"
            )
        v1 = (m[0], u[1])
        v2 = (u[0], m[1])
        xi_w = self._interp_pair(u)
        xi_1 = self._interp_pair(v1)
        xi_2 = self._interp_pair(v2)
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
        model_key = ("con", n, xi_w, xi_1, xi_2, xi_m)
        out = self._by_model.get(model_key)
        if out is None:
            out = mv_connecting(
                xi_w, xi_1, xi_2, xi_m, n - 1, self.p, self.ev_f.split.index,
                src=self.ev_g.basis(*xi_m, n - 1),
                dst=self.ev_f.basis(*xi_w, n),
            )
            self._by_model[model_key] = out
        return out


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
        i, j = idx
        for up in ((i - 1, j), (i, j + 1)):
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
    """Samples in one x-translate period of the table's grid.  The evaluated
    functors are strictly periodic under the square of the glide
    reflection, which shifts the x translate index by two, so the samples
    with x translate -1 or 0 meet every periodicity orbit and per-sample
    identities checked there hold at every sample."""
    n = len(table.grid)
    for i, x in enumerate(table.grid):
        if x.k in (-1, 0):
            for j in range(n):
                if table.location[(i, j)] != "outside":
                    yield (i, j)


def _report(delta, ok, counterexample=None, witness=None) -> dict:
    out = {"delta": delta, "ok": ok}
    if counterexample is not None:
        out["counterexample"] = counterexample
    if witness is not None:
        out["witness"] = witness
    return out


def interleaving_check(k: PLComplex, f: int = 0, g: int = 1, delta=None,
                       p: int = 2, cap: int = DEFAULT_CAP) -> dict:
    """Build the two interleaving transformations for the given parameter
    (default: the sup norm of g - f) and verify both triangle identities
    against the internal superlinear-shift maps at every sample."""
    a = distance_pair(k, f, g)
    delta = sup_norm(k, f, g) if delta is None else Fraction(delta)
    if not a.precedes(ShiftVector(-delta, delta)):
        raise ValueError("delta is smaller than the sup norm of g - f")
    a_rev = ShiftVector(-a.a2, -a.a1)
    shifts = [a.a1, a.a2, delta, 2 * delta,
              a.a1 - delta, a.a2 + delta, a.a1 + delta, a.a2 - delta]
    ctx = joint_context(k, [f, g], shifts, p, cap)
    ev_f, ev_g = ctx.evaluator(f), ctx.evaluator(g)
    fwd = Transformation(ev_f, ev_g, a)
    bwd = Transformation(ev_g, ev_f, a_rev)
    shift_a = ctx.table.shift(a)
    shift_rev = ctx.table.shift(a_rev)
    omega = ctx.table.shift(ShiftVector(-delta, delta))
    omega2 = ctx.table.shift(ShiftVector(-2 * delta, 2 * delta))

    def phi(key):
        return fwd.at(key) @ internal_map(ev_g, shift_a(key), omega(key))

    def psi(key):
        return bwd.at(key) @ internal_map(ev_f, shift_rev(key), omega(key))

    witness = None
    for idx in period_samples(ctx.table):
        mid = omega(idx)
        far = omega2(idx)
        phi_pt = phi(idx)
        lhs = phi_pt @ psi(mid)
        rhs = internal_map(ev_f, idx, far)
        if lhs != rhs:
            return _report(delta, False, {
                "sample": idx, "function": f, "lhs": lhs, "rhs": rhs})
        lhs = psi(idx) @ phi(mid)
        rhs = internal_map(ev_g, idx, far)
        if lhs != rhs:
            return _report(delta, False, {
                "sample": idx, "function": g, "lhs": lhs, "rhs": rhs})
        if (witness is None and phi_pt.rows == 1 and phi_pt.cols == 1
                and not phi_pt.is_zero()):
            witness = idx
    return _report(delta, True, witness=witness)


# ---------------------------------------------------------------------------
# compatibility with composition


def composition_check(k: PLComplex, funcs: Sequence[int] = (0, 1, 2),
                      p: int = 2, cap: int = DEFAULT_CAP) -> Optional[tuple]:
    """The transformation of the outer pair, corrected by the internal map
    from the summed shift to the outer distance, must equal the composite
    of the two inner transformations at every sample."""
    f1, f2, f3 = funcs
    a = distance_pair(k, f1, f2)
    b = distance_pair(k, f2, f3)
    c = distance_pair(k, f1, f3)
    ab = a + b
    if not c.precedes(ab):
        raise AssertionError("distance triangle inequality violated")
    shifts = [a.a1, a.a2, b.a1, b.a2, c.a1, c.a2, ab.a1, ab.a2]
    ctx = joint_context(k, [f1, f2, f3], shifts, p, cap)
    t12 = Transformation(ctx.evaluator(f1), ctx.evaluator(f2), a)
    t23 = Transformation(ctx.evaluator(f2), ctx.evaluator(f3), b)
    t13 = Transformation(ctx.evaluator(f1), ctx.evaluator(f3), c)
    shift_a, shift_c, shift_ab = (ctx.table.shift(s) for s in (a, c, ab))
    for idx in period_samples(ctx.table):
        lhs = t12.at(idx) @ t23.at(shift_a(idx))
        rhs = t13.at(idx) @ internal_map(
            ctx.evaluator(f3), shift_c(idx), shift_ab(idx))
        if lhs != rhs:
            return (idx, lhs, rhs)
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
    """The codomain's context, the domain's context on the codomain's
    coordinate table, and the vertex map extended along the domain's
    splitting, checked to be simplicial and value-preserving before and
    after the splitting."""
    check_funcs(kx, *funcs)
    check_funcs(ky, *funcs)
    _validate_simplicial(phi, kx, ky, funcs)
    ctx_y = joint_context(ky, funcs, shifts, p, cap)
    trace_x: list = []
    ctx_x = joint_context(kx, funcs, shifts, p, cap, trace=trace_x,
                          table=ctx_y.table)
    phi_split = extend_to_split(phi, trace_x)
    _validate_simplicial(phi_split, ctx_x.split, ctx_y.split, funcs)
    return ctx_y, ctx_x, phi_split


def induced_morphism(ky: PLComplex, kx: PLComplex, phi: Dict, func: int = 0,
                     p: int = 2, shifts=(),
                     cap: int = DEFAULT_CAP) -> MorphismData:
    """The morphism from the module of a function on the codomain to the
    module of its pullback on the domain, induced by a simplicial
    value-preserving vertex map."""
    ctx_y, ctx_x, phi_split = _pullback_contexts(ky, kx, phi, [func], shifts,
                                                 p, cap)
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
    the stability transformations: the square of the induced morphisms, the
    domain transformation corrected by the internal map from the smaller
    domain distance, and the codomain transformation must commute at every
    sample."""
    a = distance_pair(ky, f, g)
    b = distance_pair(kx, f, g)
    ctx_y, ctx_x, phi_split = _pullback_contexts(
        ky, kx, phi, [f, g], [a.a1, a.a2, b.a1, b.a2], p, cap)
    if not b.precedes(a):
        raise AssertionError("pulled-back distance is not dominated")
    t_y = Transformation(ctx_y.evaluator(f), ctx_y.evaluator(g), a)
    t_x = Transformation(ctx_x.evaluator(f), ctx_x.evaluator(g), b)
    pull_f = CochainPullback(ctx_y.evaluator(f), ctx_x.evaluator(f), phi_split)
    pull_g = CochainPullback(ctx_y.evaluator(g), ctx_x.evaluator(g), phi_split)
    shift_a, shift_b = ctx_y.table.shift(a), ctx_y.table.shift(b)
    for idx in period_samples(ctx_y.table):
        lhs = t_x.at(idx) @ internal_map(
            ctx_x.evaluator(g), shift_b(idx), shift_a(idx)) @ pull_g.at(shift_a(idx))
        rhs = pull_f.at(idx) @ t_y.at(idx)
        if lhs != rhs:
            return (idx, lhs, rhs)
    return None
