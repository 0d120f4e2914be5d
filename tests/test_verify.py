"""Tests for the certificate checkers (``repro.verify.certificate``).

The checkers are the single source of truth for decomposition validity.
The property tests here pin that: random valid decompositions certify
clean, and targeted mutations produce exactly the expected
machine-readable kind.  The fractional checker never re-solves the
cover LP, so a property test pins the argument that makes that sound:
whatever passes at claim c has ρ*(bag) ≤ c for every bag.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.bounds import min_fill_ordering
from repro.decomposition import (
    FractionalHypertreeDecomposition,
    GeneralizedHypertreeDecomposition,
    TreeDecomposition,
    bucket_elimination,
    ghd_from_ordering,
)
from repro.decomposition.htd import HypertreeDecomposition, htd_from_ordering
from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.generators import random_gnm_graph, random_hypergraph
from repro.setcover.exact import exact_set_cover
from repro.setcover.fractional import fractional_set_cover
from repro.verify import (
    ALL_KINDS,
    BAG_NOT_COVERED,
    DESCENDANT_CONDITION,
    EDGE_UNCOVERED,
    FRACTIONAL_WEIGHT_INVALID,
    NOT_A_TREE,
    UNKNOWN_LAMBDA_EDGE,
    VERTEX_DISCONNECTED,
    VERTEX_UNCOVERED,
    WIDTH_OVERCLAIM,
    Certificate,
    certify,
    check_decomposition,
    check_fhd,
    check_ghd,
    check_htd,
    check_td,
)


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    m = rng.randint(1, n * (n - 1) // 2)
    return random_gnm_graph(n, m, seed=rng.randrange(2**31))


def _random_hyper(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    e = rng.randint(1, n + 2)
    h = random_hypergraph(n, e, seed=rng.randrange(2**31),
                          min_arity=1, max_arity=min(3, n))
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    return h


class TestCheckTD:
    def test_random_valid_decompositions_certify_clean(self):
        for seed in range(25):
            graph = _random_graph(seed)
            td = bucket_elimination(graph, min_fill_ordering(graph))
            assert check_td(td, graph) == []

    def test_random_mutations_give_their_kinds(self):
        # Mutate valid decompositions three ways; each mutation must
        # produce its own kind, and every kind must be registered.
        for seed in range(25):
            rng = random.Random(1000 + seed)
            graph = _random_graph(seed)
            td = bucket_elimination(graph, min_fill_ordering(graph))
            mutation = rng.choice(("tree-edge", "bag-vertex", "smuggle"))
            expected = set()
            if mutation == "tree-edge" and td.num_nodes > 1:
                a, b = sorted(td.tree_edges(), key=repr)[0]
                td._tree[a].discard(b)
                td._tree[b].discard(a)
                expected = {NOT_A_TREE}
            elif mutation == "bag-vertex":
                victim = sorted(td.covered_vertices(), key=repr)[0]
                for node in td.nodes:
                    td.set_bag(node, td.bag(node) - {victim})
                expected = {VERTEX_UNCOVERED}
            else:
                vertex = sorted(graph.vertex_list(), key=repr)[0]
                for node in td.nodes:
                    holders = set(td.nodes_containing(vertex))
                    if (node not in holders
                            and not (td.tree_neighbors(node) & holders)):
                        td.set_bag(node, td.bag(node) | {vertex})
                        expected = {VERTEX_DISCONNECTED}
                        break
            problems = check_td(td, graph)
            kinds = {p.kind for p in problems}
            assert expected <= kinds, (seed, mutation)
            assert bool(problems) == bool(expected), (seed, mutation)
            assert kinds <= ALL_KINDS

    def test_dropped_tree_edge_detected(self):
        graph = Graph.from_edges([(1, 2), (2, 3), (3, 4)])
        td = bucket_elimination(graph, [1, 2, 3, 4])
        a, b = td.tree_edges()[0]
        td._tree[a].discard(b)
        td._tree[b].discard(a)
        kinds = {p.kind for p in check_td(td, graph)}
        assert NOT_A_TREE in kinds

    def test_uncovered_vertex_and_edge_detected(self):
        graph = Graph.from_edges([(1, 2), (2, 3)])
        td = bucket_elimination(graph, [1, 2, 3])
        for node in td.nodes:
            td.set_bag(node, td.bag(node) - {1})
        problems = check_td(td, graph)
        kinds = {p.kind for p in problems}
        assert kinds == {VERTEX_UNCOVERED, EDGE_UNCOVERED}
        witness = [p for p in problems if p.kind == VERTEX_UNCOVERED][0]
        assert witness.vertices == (1,)

    def test_connectedness_violation_detected(self):
        td = TreeDecomposition()
        td.add_node("a", bag={1, 2})
        td.add_node("b", bag={2, 3})
        td.add_node("c", bag={3, 1})  # 1 reappears, 'b' between lacks it
        td.add_tree_edge("a", "b")
        td.add_tree_edge("b", "c")
        graph = Graph.from_edges([(1, 2), (2, 3)])
        problems = check_td(td, graph)
        assert [p.kind for p in problems] == [VERTEX_DISCONNECTED]
        assert problems[0].vertices == (1,)

    def test_width_overclaim(self):
        graph = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        td = bucket_elimination(graph, [1, 2, 3])
        assert check_td(td, graph, claimed_width=td.width) == []
        problems = check_td(td, graph, claimed_width=td.width - 1)
        assert [p.kind for p in problems] == [WIDTH_OVERCLAIM]
        cert = certify(td, graph, claimed_width=td.width - 1)
        assert isinstance(cert, Certificate)
        assert cert.valid and not cert.ok  # structure fine, claim dishonest


class TestCheckGHD:
    def test_random_valid_ghds_certify_clean(self):
        for seed in range(15):
            h = _random_hyper(seed)
            ghd = ghd_from_ordering(h, min_fill_ordering(h),
                                    cover_function=exact_set_cover)
            assert check_ghd(ghd, h) == []

    def test_dropped_lambda_edges_leave_the_bag_uncovered(self):
        # The covers are minimum, so dropping any λ-edge must uncover
        # some vertex of that node's bag — and break nothing else.
        for seed in range(15):
            h = _random_hyper(seed)
            ghd = ghd_from_ordering(h, min_fill_ordering(h),
                                    cover_function=exact_set_cover)
            mutated = None
            for node in ghd.nodes:
                lam = ghd.cover(node)
                if lam and ghd.bag(node):
                    ghd.set_cover(node, lam - {sorted(lam, key=repr)[0]})
                    mutated = node
                    break
            problems = check_ghd(ghd, h)
            if mutated is None:
                assert problems == []
            else:
                assert [p.kind for p in problems] == [BAG_NOT_COVERED]
                assert problems[0].nodes == (mutated,)

    def test_bag_cover_violation_detected(self):
        h = Hypergraph()
        h.add_edge(["a", "b"], name="e1")
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node("p", bag={"a", "b"}, cover=())  # empty λ covers nothing
        problems = check_ghd(ghd, h)
        assert [p.kind for p in problems] == [BAG_NOT_COVERED]
        assert problems[0].vertices == ("a", "b")

    def test_unknown_lambda_edge_detected(self):
        h = Hypergraph()
        h.add_edge(["a", "b"], name="e1")
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node("p", bag={"a", "b"}, cover={"nope"})
        kinds = [p.kind for p in check_ghd(ghd, h)]
        assert kinds == [UNKNOWN_LAMBDA_EDGE]

    def test_requires_a_hypergraph(self):
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node("p", bag={1, 2}, cover=())
        with pytest.raises(TypeError, match="Hypergraph"):
            check_ghd(ghd, Graph.from_edges([(1, 2)]))


class TestCheckHTD:
    def _fixture(self):
        h = Hypergraph()
        h.add_edge(["a", "b"], name="e1")
        h.add_edge(["b", "c"], name="e2")
        htd = HypertreeDecomposition(root="p")
        htd.add_node("p", bag={"b", "c"}, cover={"e2"})
        htd.add_node("q", bag={"a", "b"}, cover={"e1"})
        htd.add_tree_edge("p", "q")
        return h, htd

    def test_valid_fixture_certifies_clean(self):
        h, htd = self._fixture()
        assert check_htd(htd, h) == []

    def test_descendant_condition_violation_rejected(self):
        # Grow the root's λ by e1: vars(λ(p)) gains 'a', which occurs in
        # the subtree below p but not in p's bag — the exact condition 4
        # of Gottlob–Leone–Scarcello.  Everything else stays intact, so
        # the GHD checker must still be happy.
        h, htd = self._fixture()
        htd.set_cover("p", {"e1", "e2"})
        assert check_ghd(htd, h) == []
        problems = check_htd(htd, h)
        assert [p.kind for p in problems] == [DESCENDANT_CONDITION]
        assert problems[0].nodes == ("p",)
        assert problems[0].vertices == ("a",)

    def test_random_constructed_htds_certify_clean(self):
        for seed in range(10):
            h = _random_hyper(seed)
            htd = htd_from_ordering(h, min_fill_ordering(h))
            assert check_htd(htd, h) == []

    def test_dispatch_picks_strictest_checker(self):
        h, htd = self._fixture()
        htd.set_cover("p", {"e1", "e2"})
        # As an HTD the descendant leak is caught; the same object
        # checked as a plain GHD would pass (see above).
        kinds = [p.kind for p in check_decomposition(htd, h)]
        assert kinds == [DESCENDANT_CONDITION]


class TestCheckFHD:
    def _triangle(self, **weights):
        h = Hypergraph()
        h.add_edge(["a", "b"], name="e1")
        h.add_edge(["b", "c"], name="e2")
        h.add_edge(["c", "a"], name="e3")
        gamma = {"e1": Fraction(1, 2), "e2": Fraction(1, 2),
                 "e3": Fraction(1, 2)}
        gamma.update(weights)
        fhd = FractionalHypertreeDecomposition()
        fhd.add_node("p", bag={"a", "b", "c"}, weights=gamma)
        return h, fhd

    def test_valid_triangle_certifies_at_three_halves(self):
        h, fhd = self._triangle()
        assert check_fhd(fhd, h, claimed_width=Fraction(3, 2)) == []

    @pytest.mark.parametrize("weight", [0.5, True])
    def test_inexact_weight_is_invalid(self, weight):
        h, fhd = self._triangle()
        # The constructor rejects floats and bools; plant one directly.
        fhd._weights["p"]["e1"] = weight
        problems = check_fhd(fhd, h, claimed_width=Fraction(3, 2))
        assert [p.kind for p in problems] == [FRACTIONAL_WEIGHT_INVALID]
        assert problems[0].edges == ("e1",)

    def test_negative_weight_is_invalid(self):
        h, fhd = self._triangle(e1=Fraction(-1, 2))
        problems = check_fhd(fhd, h)
        assert [p.kind for p in problems] == [FRACTIONAL_WEIGHT_INVALID]
        assert problems[0].edges == ("e1",)

    def test_unknown_edge_name_detected(self):
        h, fhd = self._triangle(nope=Fraction(1))
        problems = check_fhd(fhd, h)
        assert [p.kind for p in problems] == [UNKNOWN_LAMBDA_EDGE]
        assert problems[0].edges == ("nope",)

    def test_shaved_weight_leaves_the_bag_uncovered(self):
        # Σγ drops to 1, below ρ* = 3/2, yet no LP is needed to catch
        # it: the vertices of the shaved edge fall below coverage 1.
        h, fhd = self._triangle(e1=Fraction(0))
        problems = check_fhd(fhd, h, claimed_width=1)
        assert [p.kind for p in problems] == [BAG_NOT_COVERED]
        assert problems[0].vertices == ("a", "b")

    def test_gamma_width_overclaim(self):
        h, fhd = self._triangle()
        problems = check_fhd(fhd, h, claimed_width=Fraction(4, 3))
        assert [p.kind for p in problems] == [WIDTH_OVERCLAIM]
        cert = certify(fhd, h, claimed_width=Fraction(4, 3))
        assert cert.measured_width == Fraction(3, 2)
        assert cert.valid and not cert.ok

    def test_requires_a_hypergraph(self):
        fhd = FractionalHypertreeDecomposition()
        fhd.add_node("p", bag={1, 2}, weights={})
        with pytest.raises(TypeError, match="Hypergraph"):
            check_fhd(fhd, Graph.from_edges([(1, 2)]))


_WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
            Fraction(1))


@st.composite
def fhds_with_claims(draw):
    """A random FHD over a random hypergraph, with a claim near its
    γ-width.  Half of the nodes get their weights topped up to a
    feasible cover, so both passing and failing cases are common."""
    h = _random_hyper(draw(st.integers(min_value=0, max_value=10**6)))
    td = bucket_elimination(h, draw(st.permutations(h.vertex_list())))
    fhd = FractionalHypertreeDecomposition()
    for node in td.nodes:
        bag = td.bag(node)
        names = sorted(
            (name for name, edge in h.edges.items() if edge & bag), key=repr
        )
        gamma = {name: draw(st.sampled_from(_WEIGHTS)) for name in names}
        if draw(st.booleans()):
            for vertex in sorted(bag, key=repr):
                covered = sum(
                    (w for n, w in gamma.items() if vertex in h.edges[n]),
                    Fraction(0),
                )
                if covered < 1:
                    name = next(n for n in names if vertex in h.edges[n])
                    gamma[name] += 1 - covered
        fhd.add_node(node, bag=bag, weights=gamma)
    for a, b in td.tree_edges():
        fhd.add_tree_edge(a, b)
    slack = draw(st.sampled_from((Fraction(-1, 2), Fraction(0),
                                  Fraction(1, 3))))
    return h, fhd, fhd.fhw_width + slack


@settings(max_examples=80, deadline=None)
@given(fhds_with_claims())
def test_passing_fhd_bounds_rho_star_of_every_bag(case):
    # Feasible γ_p is a fractional cover of χ(p), so ρ*(χ(p)) ≤ Σγ_p ≤
    # the claim: the checker needs no LP of its own.
    h, fhd, claim = case
    passed = not check_fhd(fhd, h, claimed_width=claim)
    note(f"passed={passed} claim={claim}")
    if passed:
        for node in fhd.nodes:
            rho_star, _weights = fractional_set_cover(fhd.bag(node), h)
            assert rho_star <= claim, node
