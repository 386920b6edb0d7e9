"""Sanity checks freezing the oracle outputs on the worked examples."""

from fractions import Fraction

from oracle_betti import betti_numbers, euler_characteristic
from oracle_ext_persistence import extended_persistence

F = Fraction

HOOD_SIMPLICES = [
    {1, 2}, {2, 3}, {3, 4}, {4, 1},
    {5, 1, 2}, {5, 2, 3}, {5, 3, 4}, {5, 4, 1},
]
HOOD_F = {1: 0, 2: 1, 3: 0, 4: 2, 5: 2}
HOOD_GPRIME = {1: 0, 2: 1, 3: 0, 4: 0, 5: 2}

CIRCLE_SIMPLICES = [{1, 2}, {2, 3}, {3, 4}, {4, 1}]
CIRCLE_HEIGHTS = {1: 0, 2: 1, 3: 2, 4: 1}


def sphere(n):
    """The boundary of the (n+1)-simplex on the vertices 1..n+2, an n-sphere."""
    verts = set(range(1, n + 3))
    return [verts - {v} for v in sorted(verts)]


# Inputs whose top classes lie in degrees 4 and 5, with at most three
# heights: S^4 and S^5 at height 1 on their last vertex and 0 elsewhere (an
# Ext class in the top degree), the cone over that S^4 with its apex at 2
# (an Ord class (1, 2) in degree 4), and the cone over S^3 with its apex
# lowest (a Rel class (1, 0) in degree 4).
HIGH_DIMENSIONAL = {
    "S4": (sphere(4), {v: int(v == 6) for v in range(1, 7)}),
    "S5": (sphere(5), {v: int(v == 7) for v in range(1, 8)}),
    "cone-S4": ([s | {7} for s in sphere(4)], {v: int(v == 6) for v in range(1, 7)} | {7: 2}),
    "cone-S3": ([s | {6} for s in sphere(3)], {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 0}),
}


def test_betti_basics():
    assert betti_numbers(CIRCLE_SIMPLICES) == [1, 1]
    assert betti_numbers(HOOD_SIMPLICES) == [1, 0, 0]
    assert betti_numbers([{1}]) == [1]
    assert euler_characteristic(CIRCLE_SIMPLICES) == 0
    assert euler_characteristic(HOOD_SIMPLICES) == 1


def test_extended_persistence_circle():
    dgm = extended_persistence(CIRCLE_SIMPLICES, CIRCLE_HEIGHTS)
    assert dgm == sorted(
        [(0, "Ext", (F(0), F(2))), (1, "Ext", (F(2), F(0)))], key=repr
    )


def test_extended_persistence_hood():
    dgm = extended_persistence(HOOD_SIMPLICES, HOOD_F)
    assert dgm == sorted(
        [(0, "Ext", (F(0), F(2))), (0, "Ord", (F(0), F(1)))], key=repr
    )


def test_extended_persistence_flattened_hood():
    dgm = extended_persistence(HOOD_SIMPLICES, HOOD_GPRIME)
    assert dgm == sorted(
        [(0, "Ext", (F(0), F(2))), (1, "Ord", (F(1), F(2)))], key=repr
    )


def test_extended_persistence_point_and_edge():
    assert extended_persistence([{1}], {1: 0}) == [(0, "Ext", (F(0), F(0)))]
    dgm = extended_persistence([{1, 2}], {1: 0, 2: 3})
    assert dgm == [(0, "Ext", (F(0), F(3)))]
