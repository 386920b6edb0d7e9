import random

import numpy as np
import pytest

from riscpl.field_linalg import (
    Mat,
    column_space_sum_dim,
    kernel_basis,
    rank,
    solve_in_span,
)

import reference


def test_rank_examples():
    assert rank(Mat.zeros(3, 4)) == 0
    assert rank(Mat.eye(5)) == 5
    assert rank(Mat([[1, 1], [1, 1]], 2)) == 1


def test_column_space_sum_examples():
    i3 = Mat.eye(3)
    assert column_space_sum_dim([i3, i3]) == 3
    e1 = Mat([[1], [0]], 2)
    e2 = Mat([[0], [1]], 2)
    assert column_space_sum_dim([e1, e2]) == 2
    assert column_space_sum_dim([Mat([[1], [1]], 2), Mat([[1], [0]], 2)]) == 2
    assert column_space_sum_dim([]) == 0


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


def test_kernel_basis_matches_loop_reference():
    # Exact matrix equality, not only the same span, including 0-row and
    # 0-column shapes and the all-zero matrix.
    rng = random.Random(3)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    for p in (2, 3, 5):
        for rows, cols in shapes:
            dense = rng.random() < 0.5
            entries = [rng.randrange(p) if dense or rng.random() < 0.3 else 0
                       for _ in range(rows * cols)]
            m = Mat(np.array(entries, dtype=np.int64).reshape(rows, cols), p)
            assert kernel_basis(m) == reference.kernel_basis(m)
            z = Mat.zeros(rows, cols, p)
            assert kernel_basis(z) == reference.kernel_basis(z) == Mat.eye(cols, p)
