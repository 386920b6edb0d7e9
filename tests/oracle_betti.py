"""Brute-force GF(p) Betti numbers from boundary-matrix ranks (tests only)."""

from reference import rank

from oracle_ext_persistence import _boundary_matrix, close_complex


def betti_numbers(simplices, p=2):
    """Betti numbers of the (face-closed) complex over GF(p)."""
    complex_all = close_complex(simplices)
    if not complex_all:
        return []
    top = max(len(s) for s in complex_all) - 1
    out = []
    for n in range(top + 1):
        d_n, _, cols_n = _boundary_matrix(complex_all, n, p)
        d_np1, _, _ = _boundary_matrix(complex_all, n + 1, p)
        cycles = len(cols_n) - rank(d_n)
        out.append(cycles - rank(d_np1))
    return out


def euler_characteristic(simplices):
    complex_all = close_complex(simplices)
    return sum((-1) ** (len(s) - 1) for s in complex_all)
