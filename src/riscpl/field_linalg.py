"""Exact dense linear algebra over a prime field GF(p).

numpy holds the entries (int64 residues in [0, p)); all elimination is done
with vectorized modular row operations, so results are exact.  The default
field is GF(2); any prime below 2^16 is accepted.

Dense elimination now serves only strip_module, on the small structure
matrices of the diagram formula and the checkers: relative cohomology in
plc reduces sparse coboundary columns instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

MAX_PRIME = 1 << 16


@lru_cache(maxsize=None)
def check_prime(p: int):
    if not (2 <= p < MAX_PRIME):
        raise ValueError(f"field characteristic {p} out of range")
    if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")


def _dtype(p: int):
    # Mod-2 arithmetic survives uint8 wraparound (parity is preserved), so
    # the common GF(2) case stores entries in one byte.
    return np.uint8 if p == 2 else np.int64


class Mat:
    """An exact matrix over GF(p)."""

    __slots__ = ("data", "p")

    def __init__(self, data, p: int = 2):
        check_prime(p)
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        self.data = np.mod(arr, p).astype(_dtype(p))
        self.p = p

    @classmethod
    def _reduced(cls, data: np.ndarray, p: int) -> "Mat":
        """Wrap a two-dimensional array that already holds residues mod the
        checked prime p in the dtype of p, skipping the validation."""
        out = object.__new__(cls)
        out.data = data
        out.p = p
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, p: int = 2) -> "Mat":
        check_prime(p)
        return Mat._reduced(np.zeros((rows, cols), dtype=_dtype(p)), p)

    @staticmethod
    def eye(n: int, p: int = 2) -> "Mat":
        check_prime(p)
        return Mat._reduced(np.eye(n, dtype=_dtype(p)), p)

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

    def __hash__(self):
        return hash((self.p, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Mat(GF{self.p}, {self.data.tolist()})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("matrix product shape/field mismatch")
        return Mat._reduced(np.mod(self.data @ other.data, self.p), self.p)

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(self.data + other.data, self.p)

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.data - other.data, self.p)

    def __neg__(self) -> "Mat":
        return Mat(-self.data, self.p)

    def column(self, j: int) -> "Mat":
        return Mat._reduced(self.data[:, j : j + 1].copy(), self.p)

    def is_zero(self) -> bool:
        return not self.data.any()


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a), p - 2, p)


def _rref_gf2(a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Bit-packed reduced row echelon form over GF(2): rows are byte arrays
    and row operations are vectorized XORs."""
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.mod(a, 2).astype(np.uint8), []
    r = np.packbits(np.mod(a, 2).astype(np.uint8), axis=1)
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        byte, bit = divmod(col, 8)
        shift = 7 - bit
        nz = np.nonzero((r[row:, byte] >> shift) & 1)[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        mask = ((r[:, byte] >> shift) & 1).astype(bool)
        mask[row] = False
        if mask.any():
            r[mask] ^= r[row]
        pivots.append(col)
        row += 1
    return np.unpackbits(r, axis=1)[:, :cols], pivots


def _rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form; returns the reduced array and pivot columns."""
    if p == 2:
        return _rref_gf2(a)
    r = np.mod(a.astype(np.int64), p).copy()
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = np.mod(r[row] * _inv_mod(r[row, col], p), p)
        mask = np.nonzero(r[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            r[mask] = np.mod(r[mask] - np.outer(r[mask, col], r[row]), p)
        pivots.append(col)
        row += 1
    return r, pivots


def rank(m: Mat) -> int:
    _, pivots = _rref(m.data, m.p)
    return len(pivots)


def column_space_sum_dim(mats: Sequence[Mat]) -> int:
    """Dimension of the sum of the column spaces (all matrices must share the
    row count and field)."""
    mats = list(mats)
    if not mats:
        return 0
    return rank(Mat.hstack(mats))


def kernel_basis(m: Mat) -> Mat:
    """Columns spanning the kernel."""
    r, pivots = _rref(m.data, m.p)
    free = np.ones(m.cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = -r[:len(pivots)][:, free].astype(np.int64)
    return Mat(basis, m.p)


def independent_split(base: Mat, cand: Mat) -> Tuple[List[int], List[int]]:
    """From a single elimination of [base | cand]: the pivot columns of
    base, and the candidate columns that enlarge the column space of base,
    greedily left to right."""
    if base.p != cand.p or base.rows != cand.rows:
        raise ValueError("shape/field mismatch")
    _, pivots = _rref(np.hstack([base.data, cand.data]), base.p)
    own = [c for c in pivots if c < base.cols]
    extra = [c - base.cols for c in pivots if c >= base.cols]
    return own, extra


def solve_in_span(b: Mat, target: Mat) -> Optional[Mat]:
    """Coefficients c with b @ c = target, or None if some target column is
    not in the column space of b.  target may have several columns."""
    if b.p != target.p or b.rows != target.rows:
        raise ValueError("shape/field mismatch")
    aug = np.hstack([b.data, target.data])
    r, pivots = _rref(aug, b.p)
    if any(c >= b.cols for c in pivots):
        return None
    coeffs = np.zeros((b.cols, target.cols), dtype=np.int64)
    for row, pc in enumerate(pivots):
        coeffs[pc] = r[row, b.cols :]
    return Mat(coeffs, b.p)
