"""Brute-force classical extended persistence over GF(p).

Independent oracle used by the tests only.  It computes the linear sequence

    H_n(K^{<=v_1}) -> ... -> H_n(K^{<=v_m}) = H_n(K)
    -> H_n(K, K^{>=v_m}) -> ... -> H_n(K, K^{>=v_1})

with simplicial homology (chains and boundary matrices, the classical cone
picture of the relative groups) and reads the diagram off composite ranks:
mult[b, d] = r(b,d) - r(b-1,d) - r(b,d+1) + r(b-1,d+1).

The main package computes everything through cochains and open models, so the
two routes share no code beyond the GF(p) matrix type: the elimination here is
the dense one of reference.py.
"""

import math
from fractions import Fraction
from itertools import combinations

from riscpl.field_linalg import Mat

from reference import kernel_basis, rank, solve_in_span


def _vkey(v):
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


def close_complex(maximal):
    """All faces of the given simplices (nonempty ones)."""
    out = set()
    for s in maximal:
        s = frozenset(s)
        for r in range(1, len(s) + 1):
            for face in combinations(sorted(s, key=_vkey), r):
                out.add(frozenset(face))
    return out


def _simplices_of_dim(pair_simplices, n):
    return sorted((s for s in pair_simplices if len(s) == n + 1),
                  key=lambda s: tuple(sorted(_vkey(v) for v in s)))


def _boundary_matrix(pair_simplices, n, p):
    """Boundary from n-chains to (n-1)-chains of the relative complex."""
    rows = _simplices_of_dim(pair_simplices, n - 1)
    cols = _simplices_of_dim(pair_simplices, n)
    row_index = {s: i for i, s in enumerate(rows)}
    m = Mat.zeros(len(rows), len(cols), p)
    for j, s in enumerate(cols):
        verts = tuple(sorted(s, key=_vkey))
        for i, v in enumerate(verts):
            face = frozenset(verts[:i] + verts[i + 1 :])
            if face in row_index:
                m.data[row_index[face], j] = (-1) ** i % p
    return m, rows, cols


class PairHomology:
    """Homology of a relative simplicial chain complex with chosen cycle
    representatives."""

    def __init__(self, complex_a, complex_c, n, p=2):
        self.simplices = set(complex_a) - set(complex_c)
        self.n = n
        self.p = p
        d_n, _, self.basis_simplices = _boundary_matrix(self.simplices, n, p)
        d_np1, _, _ = _boundary_matrix(self.simplices, n + 1, p)
        cycles = kernel_basis(d_n)
        self.boundaries = d_np1
        # choose cycle columns independent modulo boundaries
        chosen = []
        span = [self.boundaries]
        dim_span = rank(self.boundaries) if self.boundaries.cols else 0
        for j in range(cycles.cols):
            cand = cycles.column(j)
            test = Mat.hstack(span + [cand])
            if rank(test) > dim_span:
                chosen.append(cand)
                span.append(cand)
                dim_span += 1
        if chosen:
            self.reps = Mat.hstack(chosen)
        else:
            self.reps = Mat.zeros(len(self.basis_simplices), 0, p)
        self.dim = self.reps.cols

    def express(self, chains: Mat) -> Mat:
        """Coordinates of the given cycle columns in the homology basis."""
        if self.dim == 0:
            return Mat.zeros(0, chains.cols, self.p)
        aug = Mat.hstack([self.reps, self.boundaries])
        c = solve_in_span(aug, chains)
        assert c is not None, "chain is not a cycle of the pair"
        return Mat(c.data[: self.dim], self.p)


def induced_matrix(src: PairHomology, dst: PairHomology) -> Mat:
    """Map on homology induced by growing the pair (same total degree)."""
    rows = len(dst.basis_simplices)
    dst_index = {s: i for i, s in enumerate(dst.basis_simplices)}
    carried = Mat.zeros(rows, src.dim, src.p)
    for j in range(src.dim):
        for i, s in enumerate(src.basis_simplices):
            if s in dst_index:
                carried.data[dst_index[s], j] = src.reps.data[i, j]
    return dst.express(carried)


def extended_persistence(maximal, values, p=2, max_degree=None):
    """Multiset of (degree, region, (birth, death)) triples.

    `values` maps vertex id -> rational.  Essential classes do not occur (the
    relative stages kill everything); zero-length features never appear in the
    sequence and are implicitly dropped.
    """
    complex_all = close_complex(maximal)
    values = {v: Fraction(x) for v, x in values.items()}
    levels = sorted(set(values.values()))
    if not levels:
        return []
    m = len(levels)
    if max_degree is None:
        max_degree = max(len(s) for s in complex_all) - 1

    sub = [
        {s for s in complex_all if max(values[v] for v in s) <= t}
        for t in levels
    ]
    sup = [
        {s for s in complex_all if min(values[v] for v in s) >= t}
        for t in levels
    ]

    out = []
    for n in range(max_degree + 1):
        stages = [(sub[i], set()) for i in range(m)]
        stages += [(complex_all, sup[j]) for j in range(m - 1, -1, -1)]
        spaces = [PairHomology(a, c, n, p) for a, c in stages]
        nstage = len(spaces)
        steps = [induced_matrix(spaces[i], spaces[i + 1]) for i in range(nstage - 1)]

        # r[i][j] = rank of the composite from stage i to stage j (1-based
        # style handled with the conventions below)
        comp = {}
        for i in range(nstage):
            acc = Mat.eye(spaces[i].dim, p)
            comp[(i, i)] = acc
            for j in range(i + 1, nstage):
                acc = steps[j - 1] @ acc
                comp[(i, j)] = acc

        def r(i, j):
            if i < 0 or j >= nstage:
                return 0
            if i > j:
                return 0
            return rank(comp[(i, j)])

        for b in range(nstage):
            for d in range(b, nstage):
                mult = r(b, d) - r(b - 1, d) - r(b, d + 1) + r(b - 1, d + 1)
                if mult <= 0:
                    continue
                if d < m - 1:
                    region = "Ord"
                    pair = (levels[b], levels[d + 1])
                elif b <= m - 1:
                    region = "Ext"
                    pair = (levels[b], levels[2 * m - d - 2])
                else:
                    region = "Rel"
                    pair = (levels[2 * m - b - 1], levels[2 * m - d - 2])
                for _ in range(mult):
                    out.append((n, region, pair))
    return sorted(out, key=repr)


def bottleneck(d1, d2):
    """The exact bottleneck distance of two diagrams of (degree, region,
    (birth, death)) triples, in the form of the stability theorem of
    extended persistence (Cohen-Steiner, Edelsbrunner & Harer 2009):
    d(d1, d2) <= ||f - g|| for the diagrams of f and g.

    Extended persistence in degree n is ordinary persistence over the line
    of sublevel sets followed, past X itself, by the pairs (X, X^{>=s}) for
    s descending; changing the function by delta moves every index by delta
    along that line without crossing from one half to the other.  So a
    class stays in its degree and region: Ord and Rel classes are matched
    within their region or to the diagonal, at half their persistence
    |death - birth|; an Ext class spans both halves and is only matched to
    an Ext class, so unequal Ext counts are infinitely far apart.  A match
    costs the sup norm of the difference of the two pairs."""
    groups = {}
    for side, dgm in enumerate((d1, d2)):
        for n, region, pair in dgm:
            groups.setdefault((n, region), ([], []))[side].append(pair)
    return max((_group_bottleneck(a, b, region != "Ext")
                for (_, region), (a, b) in groups.items()), default=Fraction(0))


def _group_bottleneck(a, b, diagonal):
    """The bottleneck distance of two lists of pairs: the least candidate
    cost at which the points of a, with one diagonal slot per point of b,
    match the points of b, with one diagonal slot per point of a, where a
    slot takes its own point at the diagonal charge, or any slot of the
    other side at no cost."""
    def charge(pt):
        return abs(pt[1] - pt[0]) / 2 if diagonal else math.inf

    na, nb = len(a), len(b)
    cost = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in b]
            + [charge(p) if j == i else math.inf for j in range(na)]
            for i, p in enumerate(a)]
    cost += [[charge(q) if j == i else math.inf for j, q in enumerate(b)] + [0] * na
             for i in range(nb)]
    candidates = sorted({c for row in cost for c in row if c != math.inf} | {0})
    lo, hi = 0, len(candidates)
    while lo < hi:  # the first candidate with a perfect matching
        mid = (lo + hi) // 2
        if _perfect_matching(cost, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo] if lo < len(candidates) else math.inf


def _perfect_matching(cost, t):
    """Whether the rows match the columns along entries of cost at most t,
    grown one row at a time by augmenting paths."""
    owner = [None] * len(cost)

    def augment(r, seen):
        for c, x in enumerate(cost[r]):
            if x <= t and c not in seen:
                seen.add(c)
                if owner[c] is None or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in range(len(cost)))
