"""Golden-width regression suite.

Pins the known exact widths of the registry instances the rest of the
test suite (and the paper record in EXPERIMENTS.md) relies on.  Any
solver change that moves one of these numbers is a correctness bug, not
a tuning difference: the values are either published (queen5_5,
myciel3/4 treewidths) or analytically forced (adder circuits have
ghw 2, a 2d grid has ghw 2, K_n has ghw ceil(n/2) since every bag must
cover a near-half clique with binary edges).
"""

from fractions import Fraction

import pytest

from repro.decomposition import elimination_bags, ghw_ordering_width
from repro.instances import get_instance
from repro.search import (
    astar_fhw,
    astar_ghw,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)
from repro.setcover import exact_set_cover
from repro.setcover.fractional import fractional_set_cover
from repro.widths import as_width

GOLDEN_TREEWIDTHS = {
    "myciel3": 5,
    "myciel4": 10,
    "queen5_5": 18,
}

GOLDEN_GHWS = {
    "adder_5": 2,
    "adder_10": 2,
    "adder_15": 2,
    "clique_3": 2,   # ceil(3/2)
    "clique_5": 3,   # ceil(5/2)
    "clique_6": 3,   # ceil(6/2)
    "clique_8": 4,   # ceil(8/2)
    "clique_10": 5,  # ceil(10/2)
    "grid2d_4": 2,
    "bridge_5": 2,
    "fano": 3,       # two lines cover at most 5 of the 7 points
}

# Hand-verified fractional hypertree widths.  fhw(K_n over binary
# edges) = n/2: weight 1/(n-1) on every edge covers each vertex with
# total (n-1)/(n-1) = 1 at cost C(n,2)/(n-1) = n/2, and the LP dual
# y_v = 1/2 everywhere proves the matching bound.  The Fano plane's
# uniform-1/3 cover over its 7 lines costs 7/3, with dual y_v = 1/3.
GOLDEN_FHWS = {
    "clique_3": Fraction(3, 2),
    "clique_5": Fraction(5, 2),
    "clique_6": 3,
    "fano": Fraction(7, 3),
}


@pytest.mark.parametrize(
    "name,width", sorted(GOLDEN_TREEWIDTHS.items())
)
def test_golden_treewidth(name, width):
    result = branch_and_bound_treewidth(get_instance(name).build())
    assert result.exact, f"{name}: search did not close the gap"
    assert result.width == width


@pytest.mark.parametrize("name,width", sorted(GOLDEN_GHWS.items()))
def test_golden_ghw(name, width):
    result = branch_and_bound_ghw(get_instance(name).build())
    assert result.exact, f"{name}: search did not close the gap"
    assert result.width == width


def _reference_ghw_width(hypergraph, ordering):
    return ghw_ordering_width(
        hypergraph, ordering, cover_function=exact_set_cover
    )


@pytest.mark.parametrize("name,width", sorted(GOLDEN_GHWS.items()))
def test_golden_ghw_engine_differential(name, width):
    """The bitmask cover engine must not move any golden width: the
    witness ordering of the engine-backed search has exactly the golden
    width under the frozenset reference covers as well."""
    hypergraph = get_instance(name).build()
    result = branch_and_bound_ghw(hypergraph)
    assert result.exact, f"{name}: search did not close"
    assert result.width == width
    assert _reference_ghw_width(hypergraph, result.ordering) == width


@pytest.mark.parametrize("name", ["adder_10", "clique_8", "grid2d_4"])
def test_golden_ghw_astar_engine_differential(name):
    """Same differential through the A* front end."""
    hypergraph = get_instance(name).build()
    result = astar_ghw(hypergraph)
    assert result.exact
    assert result.width == GOLDEN_GHWS[name]
    assert _reference_ghw_width(hypergraph, result.ordering) == result.width


@pytest.mark.parametrize("name", ["adder_5", "grid2d_4"])
def test_golden_ghw_portfolio_unchanged(name):
    """The portfolio's ghw backends must still land exactly on the
    golden widths."""
    from repro.portfolio import run_portfolio

    result = run_portfolio(
        get_instance(name).build(),
        jobs=2,
        deterministic=True,
        max_nodes=50_000,
    )
    assert result.metric == "ghw"
    assert result.exact
    assert result.width == GOLDEN_GHWS[name]


@pytest.mark.parametrize("n,expected", [(6, 3), (8, 4), (10, 5)])
def test_clique_ghw_formula(n, expected):
    # ghw(K_n) = ceil(n/2): cross-check the registry values against the
    # closed form rather than trusting two copies of the same table.
    assert expected == -(-n // 2)
    assert GOLDEN_GHWS[f"clique_{n}"] == expected


@pytest.mark.parametrize("name,width", sorted(GOLDEN_FHWS.items()))
def test_golden_fhw(name, width):
    result = astar_fhw(get_instance(name).build())
    assert result.exact, f"{name}: search did not close the gap"
    assert result.width == width
    assert not isinstance(result.width, float)


@pytest.mark.parametrize("name,width", sorted(GOLDEN_FHWS.items()))
def test_golden_fhw_engine_differential(name, width):
    """The engine's fractional layer against the frozenset LP reference:
    with every bag re-solved by ``fractional_set_cover``, the A*-fhw
    witness ordering has exactly the golden width."""
    hypergraph = get_instance(name).build()
    result = astar_fhw(hypergraph)
    assert result.exact
    bags = elimination_bags(hypergraph, result.ordering)
    reference = max(
        as_width(fractional_set_cover(bag, hypergraph)[0])
        for bag in bags.values()
    )
    assert result.width == reference == width


@pytest.mark.parametrize("name", ["clique_3", "clique_5", "fano"])
def test_fhw_strictly_below_ghw(name):
    """The fractional relaxation must actually buy something on the
    known separators — fhw < ghw strictly, not just ≤."""
    assert GOLDEN_FHWS[name] < GOLDEN_GHWS[name]
    result = astar_fhw(get_instance(name).build())
    assert result.exact
    assert result.width < GOLDEN_GHWS[name]


@pytest.mark.parametrize("name,width", sorted(GOLDEN_FHWS.items()))
def test_golden_fhw_matches_lp_enumeration(name, width):
    """Every bag of the witness FHD re-solves (by exhaustive vertex
    enumeration of the LP polytope, no simplex involved) to at most the
    golden width — and some bag meets it exactly."""
    from repro.decomposition import fhd_from_ordering
    from repro.setcover import enumerate_fractional_cover

    hypergraph = get_instance(name).build()
    result = astar_fhw(hypergraph)
    assert result.exact
    fhd = fhd_from_ordering(hypergraph, result.ordering)
    values = [
        enumerate_fractional_cover(fhd.bag(node), hypergraph)
        for node in fhd.nodes
    ]
    assert max(values) == width
