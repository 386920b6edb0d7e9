import random

import numpy as np
import pytest

from riscpl.field_linalg import (
    Mat,
    Reduction,
    _columns,
    independent_split,
    kernel_basis,
    rank,
    ranks,
    solve_in_span,
)

import reference


def test_rank_examples():
    assert rank(Mat.zeros(3, 4)) == 0
    assert rank(Mat.eye(5)) == 5
    assert rank(Mat([[1, 1], [1, 1]], 2)) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_thin_ranks_match_a_reduction(p):
    # a matrix with a side of 0 or 1 is ranked without elimination; the
    # rank is still the pivot count of a column reduction
    rng = random.Random(p)
    for rows, cols in [(0, 0), (0, 4), (4, 0), (1, 1), (1, 4), (4, 1)]:
        zero = np.zeros((rows, cols), dtype=np.int64)
        mats = [Mat(zero, p)]
        if rows and cols:
            one = zero.copy()
            one[rng.randrange(rows), rng.randrange(cols)] = rng.randrange(1, p)
            dense = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            dense[0, -1] = rng.randrange(1, p)
            mats += [Mat(one, p), Mat(dense, p)]
        for m in mats:
            red = Reduction(p)
            assert rank(m) == sum(red.add(col, {}) for col in _columns(m)), m


def test_column_space_sum_examples():
    # the dimension of a sum of column spaces, as dgm_value reads it
    i3 = Mat.eye(3)
    assert rank(Mat.hstack([i3, i3])) == 3
    e1 = Mat([[1], [0]], 2)
    e2 = Mat([[0], [1]], 2)
    assert rank(Mat.hstack([e1, e2])) == 2
    assert rank(Mat.hstack([Mat([[1], [1]], 2), Mat([[1], [0]], 2)])) == 2


def test_solve_in_span_examples():
    t = Mat([[1], [0], [1]], 2)
    assert solve_in_span(Mat.eye(3), t) == t
    assert solve_in_span(Mat.zeros(3, 2), t) is None
    c = solve_in_span(Mat([[1], [1]], 2), Mat([[1], [1]], 2))
    assert c == Mat([[1]], 2)


def test_rank_nullity_and_permutations():
    rng = random.Random(1)
    for p in (2, 3, 7):
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = Mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p)
            r = rank(m)
            assert r + kernel_basis(m).cols == cols
            perm_r = list(range(rows))
            perm_c = list(range(cols))
            rng.shuffle(perm_r)
            rng.shuffle(perm_c)
            shuffled = Mat(m.data[perm_r][:, perm_c], p)
            assert rank(shuffled) == r
            # kernel columns really are in the kernel
            if kernel_basis(m).cols:
                assert (m @ kernel_basis(m)).is_zero()


def test_solve_roundtrip_random():
    rng = random.Random(2)
    for p in (2, 5):
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            b = Mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p)
            x = Mat([[rng.randrange(p)] for _ in range(cols)], p)
            c = solve_in_span(b, b @ x)
            assert c is not None
            assert b @ c == b @ x


def test_bad_field():
    with pytest.raises(ValueError):
        Mat([[1]], 4)
    with pytest.raises(ValueError):
        Mat([[1]], 1 << 17)


def random_mat(rng, rows, cols, p):
    """Dense or sparse at random, so that some rows and columns are zero."""
    dense = rng.random() < 0.5
    entries = [rng.randrange(p) if dense or rng.random() < 0.3 else 0
               for _ in range(rows * cols)]
    return Mat(np.array(entries, dtype=np.int64).reshape(rows, cols), p)


def test_helpers_match_dense_reference():
    # Exact matrix equality with dense elimination, not only the same span
    # or rank, including 0-row and 0-column shapes, all-zero matrices and
    # shapes wider than 8 columns; ranks of a stack, empty or holding
    # repeated and all-zero matrices, are those of rank one at a time.
    rng = random.Random(3)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (2, 9), (5, 12), (9, 17)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    outside = 0
    for p in (2, 3, 5, 7):
        for rows, cols in shapes:
            m = random_mat(rng, rows, cols, p)
            z = Mat.zeros(rows, cols, p)
            for a in (m, z):
                assert rank(a) == reference.rank(a)
                assert kernel_basis(a) == reference.kernel_basis(a)
            stack = [m, z, random_mat(rng, rows, cols, p), m, z, random_mat(rng, rows, cols, p)]
            for size in range(len(stack) + 1):
                got = ranks(np.array([a.data for a in stack[:size]]).reshape(size, rows, cols), p)
                assert got.tolist() == [rank(a) for a in stack[:size]]
            assert kernel_basis(z) == Mat.eye(cols, p)
            cut = rng.randint(0, cols)
            base, cand = Mat(m.data[:, :cut], p), Mat(m.data[:, cut:], p)
            assert independent_split(base, cand) == reference.independent_split(base, cand)[1]
            assert independent_split(z, m) == reference.independent_split(z, m)[1]
            inside = m @ random_mat(rng, cols, rng.randint(0, 3), p)
            target = random_mat(rng, rows, rng.randint(1, 3), p)
            for b, t in ((m, inside), (m, target), (z, target)):
                got = solve_in_span(b, t)
                assert got == reference.solve_in_span(b, t)
                outside += got is None
            assert solve_in_span(m, inside) is not None
    assert outside > 50


def assert_same_as_validated(m: Mat):
    """A Mat built without validation equals the validating constructor's
    result on the same entries, with the same dtype."""
    ref = Mat(m.data.astype(np.int64), m.p)
    assert m == ref
    assert m.data.dtype == ref.data.dtype == np.int64
    assert m.data.ndim == 2


def test_unvalidated_results_match_validating_constructor():
    rng = random.Random(7)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(20)]
    for p in (2, 3, 5):
        for rows, cols in shapes:
            a = Mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                    if rows else np.zeros((0, cols), dtype=np.int64), p)
            inner = rng.randint(0, 6)
            b = Mat(np.array([rng.randrange(p) for _ in range(cols * inner)],
                             dtype=np.int64).reshape(cols, inner), p)
            c = Mat(np.array([rng.randrange(p) for _ in range(rows * inner)],
                             dtype=np.int64).reshape(rows, inner), p)
            prod = a @ b
            assert_same_as_validated(prod)
            assert prod == Mat(a.data.astype(np.int64) @ b.data.astype(np.int64), p)
            assert_same_as_validated(Mat.zeros(rows, cols, p))
            assert Mat.zeros(rows, cols, p) == Mat(np.zeros((rows, cols), dtype=np.int64), p)
            assert_same_as_validated(Mat.eye(rows, p))
            assert Mat.eye(rows, p) == Mat(np.eye(rows, dtype=np.int64), p)
            stacked = Mat.hstack([a, c])
            assert_same_as_validated(stacked)
            assert stacked == Mat(np.hstack([a.data.astype(np.int64),
                                             c.data.astype(np.int64)]), p)
            for j in range(cols):
                col = a.column(j)
                assert_same_as_validated(col)
                assert col == Mat(a.data[:, j:j + 1].astype(np.int64), p)
                # a column is a copy: writing into it leaves a alone
                before = a.data.copy()
                col.data[:] = 1
                assert np.array_equal(a.data, before)


def test_fresh_zero_matrices_are_not_shared():
    z1, z2 = Mat.zeros(2, 2, 3), Mat.zeros(2, 2, 3)
    z1.data[0, 0] = 1
    assert z2.is_zero()
    with pytest.raises(ValueError):
        Mat.zeros(1, 1, 4)
    with pytest.raises(ValueError):
        Mat.eye(1, 1)
