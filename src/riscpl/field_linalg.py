"""Exact linear algebra over a prime field GF(p).

A Mat holds its entries in a numpy int64 array (residues in [0, p)) for
every prime; the default field is GF(2), and any prime below 2^16 is
accepted.

All elimination is one sparse column reduction, the same for every prime
and every caller: Reduction reduces dict columns left to right against
earlier pivots, tracking coordinates.  vanishing keeps the combinations
of the added columns that reduce to zero: plc finds the cocycles of
delta^n for n >= 1 with it and expresses cocycles of degree 2 and up by
the reduction, and rank, kernel_basis, independent_split and
solve_in_span run it on the columns of a Mat for the diagram formula and
the checkers; rank reads rank 1 off a nonzero matrix with a side of 1,
and ranks calls it once per distinct matrix of a stack.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

MAX_PRIME = 1 << 16


@lru_cache(maxsize=None)
def check_prime(p: int):
    if not (2 <= p < MAX_PRIME):
        raise ValueError(f"field characteristic {p} out of range")
    if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")


class Mat:
    """An exact matrix over GF(p)."""

    __slots__ = ("data", "p")

    def __init__(self, data, p: int = 2):
        check_prime(p)
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        self.data = np.mod(arr, p).astype(np.int64)
        self.p = p

    @classmethod
    def _reduced(cls, data: np.ndarray, p: int) -> "Mat":
        """Wrap a two-dimensional int64 array that already holds residues
        mod the checked prime p, skipping the validation."""
        out = object.__new__(cls)
        out.data = data
        out.p = p
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, p: int = 2) -> "Mat":
        check_prime(p)
        return Mat._reduced(np.zeros((rows, cols), dtype=np.int64), p)

    @staticmethod
    def eye(n: int, p: int = 2) -> "Mat":
        check_prime(p)
        return Mat._reduced(np.eye(n, dtype=np.int64), p)

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("hstack of nothing")
        p = mats[0].p
        rows = mats[0].rows
        for m in mats:
            if m.p != p or m.rows != rows:
                raise ValueError("incompatible matrices in hstack")
        return Mat._reduced(np.hstack([m.data for m in mats]), p)

    # -- basic structure ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"Mat(GF{self.p}, {self.data.tolist()})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("matrix product shape/field mismatch")
        return Mat._reduced(np.mod(self.data @ other.data, self.p), self.p)

    def __neg__(self) -> "Mat":
        return Mat(-self.data, self.p)

    def column(self, j: int) -> "Mat":
        return Mat._reduced(self.data[:, j : j + 1].copy(), self.p)

    def is_zero(self) -> bool:
        return not self.data.any()


# ---------------------------------------------------------------------------
# elimination


class Reduction:
    """Sparse columns over GF(p) reduced left to right, as in persistence
    (Edelsbrunner, Letscher & Zomorodian 2002; Zomorodian & Carlsson 2005).

    A column is a dict from row to nonzero entry.  Each added column is
    reduced against the pivots before it, each keyed by its lowest row and
    scaled to 1 there, so the reduced columns that stay nonzero are exactly
    the added columns independent of those before them, whatever the row
    order.  A second dict, the column's coordinates, undergoes the same
    operations."""

    __slots__ = ("p", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.pivots: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}

    def reduce(self, col: Dict[int, int], coords: Dict[int, int]) -> Optional[int]:
        """Reduce col in place against the pivots, adding the same
        multiples of their coordinates to coords; the low row left without
        a pivot, or None when col reduces to zero."""
        p, pivots = self.p, self.pivots
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                return low
            f = p - col[low]
            for d, vals in zip((col, coords), pivot):
                for r, x in vals.items():
                    y = (d.get(r, 0) + f * x) % p
                    if y:
                        d[r] = y
                    else:
                        del d[r]
        return None

    def add(self, col: Dict[int, int], coords: Dict[int, int]) -> bool:
        """Append a column and reduce it.  Keep it as a pivot and return
        True unless it reduces to zero; then coords holds the combination
        of the added columns that vanishes."""
        low = self.reduce(col, coords)
        if low is None:
            return False
        if col[low] != 1:
            scale = pow(col[low], self.p - 2, self.p)
            for d in (col, coords):
                for r in d:
                    d[r] = d[r] * scale % self.p
        self.pivots[low] = (col, coords)
        return True

    def solve(self, cols: Mat, n: int) -> Optional[Mat]:
        """The columns of cols as combinations of the pivots, read on the n
        coordinates; None when some column is outside their span."""
        out = np.zeros((n, cols.cols), dtype=np.int64)
        for j, col in enumerate(_columns(cols)):
            coords: Dict[int, int] = {}
            if self.reduce(col, coords) is not None:
                return None
            for i, x in coords.items():
                out[i, j] = -x
        return Mat(out, self.p)


def _columns(m: Mat) -> List[Dict[int, int]]:
    """The columns of m as dicts from row to nonzero entry."""
    out: List[Dict[int, int]] = [{} for _ in range(m.cols)]
    t = m.data.T
    cols, rows = np.nonzero(t)
    for j, r, x in zip(cols.tolist(), rows.tolist(), t[cols, rows].tolist()):
        out[j][r] = x
    return out


def rank(m: Mat) -> int:
    if not m.data.any():
        return 0
    if 1 in m.data.shape:
        return 1
    red = Reduction(m.p)
    return sum(red.add(col, {}) for col in _columns(m))


def ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """The rank of each matrix of a stack of residues mod p, one `rank` per
    distinct matrix."""
    keys = [mat.tobytes() for mat in stack]
    known = {key: rank(Mat._reduced(mat, p)) for key, mat in dict(zip(keys, stack)).items()}
    return np.array([known[key] for key in keys], dtype=np.int64)


def vanishing(red: Reduction, cols: Iterable[Tuple[int, Dict[int, int]]],
              size: int) -> Tuple[Mat, List[Dict[int, int]]]:
    """Add the columns (position, column) to red, each with coordinate 1 at
    its own position, and keep the combination of every column that reduces
    to zero: 1 at that column and elsewhere supported on the pivots, so the
    reduced row echelon kernel vector of that free column.  Returns them as
    the columns of a size-row Mat, and as the dicts themselves."""
    kernel = []
    for j, col in cols:
        z = {j: 1}
        if not red.add(col, z):
            kernel.append(z)
    basis = np.zeros((size, len(kernel)), dtype=np.int64)
    for i, z in enumerate(kernel):
        basis[list(z), i] = list(z.values())
    return Mat(basis, red.p), kernel


def kernel_basis(m: Mat) -> Mat:
    """Columns spanning the kernel: the reduced row echelon kernel vectors
    of the free columns."""
    return vanishing(Reduction(m.p), enumerate(_columns(m)), m.cols)[0]


def independent_split(base: Mat, cand: Mat) -> List[int]:
    """The candidate columns that enlarge the column space of base,
    greedily left to right."""
    if base.p != cand.p or base.rows != cand.rows:
        raise ValueError("shape/field mismatch")
    red = Reduction(base.p)
    for col in _columns(base):
        red.add(col, {})
    return [j for j, col in enumerate(_columns(cand)) if red.add(col, {})]


def solve_in_span(b: Mat, target: Mat) -> Optional[Mat]:
    """Coefficients c with b @ c = target, or None if some target column is
    not in the column space of b.  target may have several columns; c is
    the solution supported on the pivots of b, as reduced row echelon form
    gives it."""
    if b.p != target.p or b.rows != target.rows:
        raise ValueError("shape/field mismatch")
    red = Reduction(b.p)
    for j, col in enumerate(_columns(b)):
        red.add(col, {j: 1})
    return red.solve(target, b.cols)
