"""Hand-checkable cases for the benchmark's own width computations.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from oracle import (
    Indexed,
    as_fraction,
    check_ghd,
    exact_width,
    hw_plausible,
    ordering_width,
    widths_equal,
)

FANO = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7],
        [3, 5, 6]]


def clique(n):
    return [list(e) for e in combinations(range(n), 2)]


def cycle(n):
    return [[i, (i + 1) % n] for i in range(n)]


def grid(k):
    return (
        [[(i, j), (i, j + 1)] for i in range(k) for j in range(k - 1)]
        + [[(i, j), (i + 1, j)] for i in range(k - 1) for j in range(k)]
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_clique_treewidth(n):
    assert exact_width(Indexed(clique(n)), "tw") == n - 1


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_cycle_treewidth(n):
    assert exact_width(Indexed(cycle(n)), "tw") == 2


@pytest.mark.parametrize("k", [2, 3])
def test_grid_treewidth(k):
    assert exact_width(Indexed(grid(k)), "tw") == k


def test_path_and_star_treewidth():
    path = [[i, i + 1] for i in range(6)]
    star = [[0, i] for i in range(1, 7)]
    assert exact_width(Indexed(path), "tw") == 1
    assert exact_width(Indexed(star), "tw") == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_clique_hypergraph_ghw_is_half_rounded_up(n):
    assert exact_width(Indexed(clique(n)), "ghw") == (n + 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_clique_hypergraph_fhw_is_half(n):
    width = exact_width(Indexed(clique(n)), "fhw")
    assert as_fraction(width) == Fraction(n, 2)


def test_fano_plane():
    ix = Indexed(FANO)
    assert exact_width(ix, "ghw") == 3
    assert as_fraction(exact_width(ix, "fhw")) == Fraction(7, 3)
    assert widths_equal("fhw", Fraction(7, 3), exact_width(ix, "fhw"))
    assert not widths_equal("fhw", Fraction(5, 2), exact_width(ix, "fhw"))


def test_acyclic_hypergraph_has_width_one():
    edges = [[1, 2, 3], [3, 4], [4, 5, 6], [3, 7]]
    ix = Indexed(edges)
    assert exact_width(ix, "ghw") == 1
    assert exact_width(ix, "fhw") == pytest.approx(1.0)


def test_upper_bound_prunes_but_never_changes_the_width():
    ix = Indexed(FANO)
    assert exact_width(ix, "ghw", upper=3) == 3
    assert exact_width(ix, "ghw", upper=5) == 3
    with pytest.raises(ValueError):
        exact_width(ix, "ghw", upper=2)


def test_ordering_width_of_a_cycle():
    ix = Indexed(cycle(6))
    assert ordering_width(ix, [0, 1, 2, 3, 4, 5], "tw") == 2
    # Eliminating every other vertex first creates a 3-cycle of fill,
    # still width 2; eliminating a vertex of degree 2 always costs 2.
    assert ordering_width(ix, [0, 2, 4, 1, 3, 5], "tw") == 2
    with pytest.raises(ValueError):
        ordering_width(ix, [0, 1, 2], "tw")


def test_ordering_width_of_a_star_depends_on_the_order():
    ix = Indexed([[0, i] for i in range(1, 6)])
    assert ordering_width(ix, [1, 2, 3, 4, 5, 0], "tw") == 1
    assert ordering_width(ix, [0, 1, 2, 3, 4, 5], "tw") == 5


def test_check_ghd_accepts_a_valid_and_rejects_broken_decompositions():
    ix = Indexed([[1, 2, 3], [3, 4], [4, 5, 1]])
    bags = {"a": [1, 3, 4], "b": [1, 2, 3], "c": [1, 4, 5]}
    tree = [("a", "b"), ("a", "c")]
    covers = {"a": [[1, 2, 3], [3, 4]], "b": [[1, 2, 3]], "c": [[4, 5, 1]]}
    assert check_ghd(ix, bags, tree, covers) == []
    # Vertex 1 in two bags that are not adjacent: connectedness fails.
    broken = dict(bags, a=[3, 4])
    assert check_ghd(ix, broken, tree, dict(covers, a=[[3, 4]]))
    # A cover that misses a bag vertex.
    assert check_ghd(ix, bags, tree, dict(covers, a=[[1, 2, 3]]))
    # A cover set that is not a hyperedge.
    assert check_ghd(ix, bags, tree, dict(covers, a=[[1, 3, 4]]))


def test_hw_property():
    assert hw_plausible(3, 3)
    assert hw_plausible(10, 3)
    assert not hw_plausible(2, 3)
    assert not hw_plausible(11, 3)
