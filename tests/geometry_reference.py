"""Brute-force references for the closed-form tile index and region degree.

Each tries every power of T in a fixed window and insists that exactly one
qualifies.  Tests compare the closed forms against them.
"""

from riscpl.exact_geometry import (
    NEG_HALF_PI,
    in_fundamental_domain,
    strip_location,
    t_power,
)

WINDOW = 16


def _unique_power(p, accept):
    found = [n for n in range(-WINDOW, WINDOW + 1) if accept(t_power(p, n))]
    assert len(found) == 1, f"{len(found)} qualifying powers for {p}"
    return found[0]


def tile_index_search(p) -> int:
    """The n with T^n(p) in the fundamental domain, found by search."""
    assert strip_location(p) == "interior"
    return _unique_power(p, in_fundamental_domain)


def region_degree_search(u) -> int:
    """The n whose T-translate q has q.x > -pi/2 and q.y >= -pi/2, found by
    search."""
    return _unique_power(u, lambda q: q.x > NEG_HALF_PI and q.y >= NEG_HALF_PI)
