"""Pinned search trees for the five exact elimination-ordering searches.

Each row fixes ``(upper, lower, ordering, nodes_expanded)`` of one run of
A*-tw, BB-tw, A*-ghw, BB-ghw or A*-fhw on a fixed instance, under an
optional node budget.  The values were recorded before the searches
lost their frozenset graph kernel and cover engine, so any change to
the branching order, the PR 2 sibling filter, the reductions or the
cover answers shows up here as a different tree, not only as a
different width.  Named instances are built from their edge lists the
way ``perfbench`` builds them.
"""

from fractions import Fraction

import pytest

from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import random_gnm_graph, random_hypergraph
from repro.instances import get_instance
from repro.search import (
    BoundHooks,
    SearchBudget,
    astar_fhw,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)

SEARCHES = {
    "astar_tw": astar_treewidth,
    "bb_tw": branch_and_bound_treewidth,
    "astar_ghw": astar_ghw,
    "bb_ghw": branch_and_bound_ghw,
    "astar_fhw": astar_fhw,
}


def _edge_list(structure):
    if isinstance(structure, Hypergraph):
        return [sorted(e, key=repr) for e in structure.edges.values()]
    return [[u, v] for u, v in structure.edges()]


def _instance(name):
    if name == "gnm14":
        return Hypergraph.from_edges(_edge_list(random_gnm_graph(14, 30, 0)))
    if name == "gnm16":
        return random_gnm_graph(16, 40, 2)
    if name == "rh12":
        return random_hypergraph(12, 11, 2, 2, 3)
    if name == "myciel4":
        return get_instance("myciel4").build()
    return Hypergraph.from_edges(_edge_list(get_instance(name).build()))


# (search, instance, max_nodes, options, upper, lower, ordering, nodes)
PINNED = [
    ("astar_tw", "myciel3", None, {}, 5, 5, [1, 4, 10, 6, 5, 7, 8, 0, 2, 3, 9],
     2),
    ("bb_tw", "myciel3", None, {}, 5, 5, [1, 4, 10, 6, 5, 7, 8, 0, 2, 3, 9], 2),
    ("astar_ghw", "myciel3", None, {}, 3, 3,
     [10, 4, 7, 8, 0, 9, 1, 2, 6, 3, 5], 7),
    ("bb_ghw", "myciel3", None, {}, 3, 3, [10, 4, 7, 8, 0, 9, 1, 2, 6, 3, 5],
     7),
    ("astar_fhw", "myciel3", None, {}, 3, 3,
     [10, 4, 7, 8, 0, 9, 1, 2, 6, 3, 5], 7),
    ("astar_tw", "grid3", None, {}, 3, 3,
     [(0, 0), (0, 2), (0, 1), (2, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
     0),
    ("bb_tw", "grid3", None, {}, 3, 3,
     [(0, 0), (0, 2), (0, 1), (2, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
     0),
    ("astar_ghw", "grid3", None, {}, 2, 2,
     [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 1), (0, 2), (1, 1), (1, 2)],
     6),
    ("bb_ghw", "grid3", None, {}, 2, 2,
     [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 1), (0, 2), (1, 1), (1, 2)],
     6),
    ("astar_fhw", "grid3", None, {}, 2, 2,
     [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 1), (0, 2), (1, 1), (1, 2)],
     6),
    ("astar_tw", "grid4", None, {}, 4, 4,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     0),
    ("bb_tw", "grid4", None, {}, 4, 4,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     0),
    ("astar_ghw", "grid4", None, {}, 3, 3,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (2, 2), (3, 3),
      (1, 3), (2, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
     12),
    ("bb_ghw", "grid4", None, {}, 3, 3,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 0),
      (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)],
     11),
    ("astar_fhw", "grid4", None, {}, 3, 3,
     [(0, 0), (0, 1), (0, 3), (1, 3), (3, 0), (3, 1), (3, 2), (3, 3), (2, 2),
      (2, 3), (1, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)],
     76),
    ("astar_tw", "gnm14", None, {}, 5, 5,
     [2, 3, 8, 4, 7, 6, 11, 1, 0, 10, 12, 9, 5, 13], 10),
    ("bb_tw", "gnm14", None, {}, 5, 5,
     [2, 3, 8, 4, 7, 6, 11, 1, 0, 10, 12, 9, 5, 13], 11),
    ("astar_ghw", "gnm14", None, {}, 4, 4,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9], 82),
    ("bb_ghw", "gnm14", None, {}, 4, 4,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9], 82),
    ("astar_fhw", "gnm14", None, {}, Fraction(7, 2), Fraction(7, 2),
     [11, 6, 2, 3, 9, 0, 13, 8, 10, 4, 12, 1, 5, 7], 97),
    ("astar_ghw", "rh12", None, {}, 3, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9], 60),
    ("bb_ghw", "rh12", None, {}, 3, 3, [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     60),
    ("astar_fhw", "rh12", None, {}, Fraction(5, 2), Fraction(5, 2),
     [1, 7, 5, 0, 2, 3, 4, 6, 8, 9, 10, 11], 61),
    ("astar_tw", "myciel4", None, {}, 10, 10,
     [4, 10, 14, 18, 22, 1, 12, 16, 20, 8, 9, 13, 0, 2, 3, 5, 6, 7, 11, 15, 17,
      19, 21],
     1313),
    ("bb_tw", "myciel4", None, {}, 10, 10,
     [0, 1, 4, 10, 14, 3, 18, 12, 22, 8, 13, 9, 2, 5, 6, 7, 11, 15, 16, 17, 19,
      20, 21],
     1324),
    ("astar_tw", "gnm16", None, {}, 7, 7,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9], 47),
    ("bb_tw", "gnm16", None, {}, 7, 7,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9], 47),
    ("astar_tw", "myciel4", None, {"memoize": True}, 10, 10,
     [4, 10, 14, 18, 22, 1, 12, 16, 20, 8, 9, 13, 0, 2, 3, 5, 6, 7, 11, 15, 17,
      19, 21],
     205),
    ("astar_tw", "myciel4", 200, {}, 11, 9,
     [10, 22, 18, 14, 4, 1, 12, 16, 20, 8, 0, 11, 15, 19, 5, 6, 13, 17, 2, 21,
      3, 7, 9],
     200),
    ("bb_tw", "myciel4", 200, {}, 10, 8,
     [0, 1, 4, 10, 14, 3, 18, 12, 22, 8, 13, 9, 2, 5, 6, 7, 11, 15, 16, 17, 19,
      20, 21],
     200),
    ("astar_ghw", "grid5", 300, {}, 4, 3,
     [(0, 0), (0, 4), (4, 0), (4, 4), (0, 1), (0, 3), (1, 0), (1, 4), (3, 0),
      (3, 4), (4, 1), (4, 3), (1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (0, 2),
      (1, 2), (2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2)],
     300),
    ("bb_ghw", "grid5", 300, {}, 4, 3,
     [(0, 0), (0, 4), (4, 0), (4, 4), (0, 1), (0, 3), (1, 0), (1, 4), (3, 0),
      (3, 4), (4, 1), (4, 3), (1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (0, 2),
      (1, 2), (2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2)],
     300),
    ("astar_fhw", "grid5", 100, {}, 4, 3,
     [(0, 0), (0, 4), (4, 0), (4, 4), (0, 1), (0, 3), (1, 0), (1, 4), (3, 0),
      (3, 4), (4, 1), (4, 3), (1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (0, 2),
      (1, 2), (2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2)],
     100),
]


@pytest.mark.parametrize(
    "search,name,max_nodes,options,upper,lower,ordering,nodes",
    PINNED,
    ids=[
        f"{row[0]}-{row[1]}" + (f"-n{row[2]}" if row[2] else "")
        + "".join(f"-{key}" for key in row[3])
        for row in PINNED
    ],
)
def test_search_tree_pinned(
    search, name, max_nodes, options, upper, lower, ordering, nodes
):
    budget = SearchBudget(max_nodes=max_nodes) if max_nodes else None
    result = SEARCHES[search](_instance(name), budget=budget, **options)
    assert result.upper_bound == upper
    assert result.lower_bound == lower
    assert result.ordering == ordering
    assert result.stats.nodes_expanded == nodes


# The same searches wired to an external incumbent channel polled at
# every node: the external ``(ub, lb)`` is the optimum on both sides, on
# one side only, or one off it.  Each row fixes the result, the
# adoption and publication counters and the published ``(kind, value)``
# stream.
# (search, instance, ext_ub, ext_lb, upper, lower, exact, nodes,
#  bounds_adopted, bounds_published, ordering, stream)
HOOKED = [
    ("astar_tw", "myciel4", 10, 10, 11, 10, False, 1, 1, 2,
     [10, 22, 18, 14, 4, 1, 12, 16, 20, 8, 0, 11, 15, 19, 5, 6, 13, 17, 2, 21,
      3, 7, 9],
     [("lb", 8), ("ub", 11)]),
    ("astar_tw", "myciel4", 10, None, 11, 10, False, 1312, 0, 4,
     [10, 22, 18, 14, 4, 1, 12, 16, 20, 8, 0, 11, 15, 19, 5, 6, 13, 17, 2, 21,
      3, 7, 9],
     [("lb", 8), ("ub", 11), ("lb", 9), ("lb", 10)]),
    ("astar_tw", "myciel4", None, 10, 10, 10, True, 1313, 1, 4,
     [4, 10, 14, 18, 22, 1, 12, 16, 20, 8, 9, 13, 0, 2, 3, 5, 6, 7, 11, 15, 17,
      19, 21],
     [("lb", 8), ("ub", 11), ("ub", 10), ("lb", 10)]),
    ("astar_tw", "myciel4", 11, None, 10, 10, True, 1313, 0, 6,
     [4, 10, 14, 18, 22, 1, 12, 16, 20, 8, 9, 13, 0, 2, 3, 5, 6, 7, 11, 15, 17,
      19, 21],
     [("lb", 8), ("ub", 11), ("lb", 9), ("lb", 10), ("ub", 10), ("lb", 10)]),
    ("astar_tw", "myciel4", None, 9, 10, 10, True, 1313, 1, 5,
     [4, 10, 14, 18, 22, 1, 12, 16, 20, 8, 9, 13, 0, 2, 3, 5, 6, 7, 11, 15, 17,
      19, 21],
     [("lb", 8), ("ub", 11), ("lb", 10), ("ub", 10), ("lb", 10)]),
    ("astar_tw", "gnm16", 7, 7, 7, 7, True, 0, 1, 2,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7)]),
    ("astar_tw", "gnm16", 7, None, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("astar_tw", "gnm16", None, 7, 7, 7, True, 0, 1, 2,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7)]),
    ("astar_tw", "gnm16", 8, None, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("astar_tw", "gnm16", None, 6, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("bb_tw", "myciel4", 10, 10, 11, 10, False, 1, 1, 2,
     [10, 22, 18, 14, 4, 1, 12, 16, 20, 8, 0, 11, 15, 19, 5, 6, 13, 17, 2, 21,
      3, 7, 9],
     [("lb", 8), ("ub", 11)]),
    ("bb_tw", "myciel4", 10, None, 11, 10, False, 1312, 0, 3,
     [10, 22, 18, 14, 4, 1, 12, 16, 20, 8, 0, 11, 15, 19, 5, 6, 13, 17, 2, 21,
      3, 7, 9],
     [("lb", 8), ("ub", 11), ("lb", 10)]),
    ("bb_tw", "myciel4", None, 10, 10, 10, True, 14, 1, 3,
     [0, 1, 4, 10, 14, 3, 18, 12, 22, 8, 13, 9, 2, 5, 6, 7, 11, 15, 16, 17, 19,
      20, 21],
     [("lb", 8), ("ub", 11), ("ub", 10)]),
    ("bb_tw", "myciel4", 11, None, 10, 10, True, 1324, 0, 4,
     [0, 1, 4, 10, 14, 3, 18, 12, 22, 8, 13, 9, 2, 5, 6, 7, 11, 15, 16, 17, 19,
      20, 21],
     [("lb", 8), ("ub", 11), ("ub", 10), ("lb", 10)]),
    ("bb_tw", "myciel4", None, 9, 10, 10, True, 1324, 0, 4,
     [0, 1, 4, 10, 14, 3, 18, 12, 22, 8, 13, 9, 2, 5, 6, 7, 11, 15, 16, 17, 19,
      20, 21],
     [("lb", 8), ("ub", 11), ("ub", 10), ("lb", 10)]),
    ("bb_tw", "gnm16", 7, 7, 7, 7, True, 1, 1, 2,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7)]),
    ("bb_tw", "gnm16", 7, None, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("bb_tw", "gnm16", None, 7, 7, 7, True, 1, 1, 2,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7)]),
    ("bb_tw", "gnm16", 8, None, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("bb_tw", "gnm16", None, 6, 7, 7, True, 47, 0, 3,
     [4, 12, 10, 3, 13, 2, 14, 1, 11, 15, 5, 0, 6, 7, 8, 9],
     [("lb", 6), ("ub", 7), ("lb", 7)]),
    ("astar_ghw", "grid4", 3, 3, 4, 3, False, 0, 0, 3,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", 3), ("ub", 4), ("lb", 3)]),
    ("astar_ghw", "grid4", 3, None, 4, 3, False, 0, 0, 3,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", 3), ("ub", 4), ("lb", 3)]),
    ("astar_ghw", "grid4", None, 3, 3, 3, True, 12, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (2, 2), (3, 3),
      (1, 3), (2, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "grid4", 4, None, 3, 3, True, 12, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (2, 2), (3, 3),
      (1, 3), (2, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "grid4", None, 2, 3, 3, True, 12, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (2, 2), (3, 3),
      (1, 3), (2, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "rh12", 3, 3, 3, 3, True, 0, 1, 2,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3)]),
    ("astar_ghw", "rh12", 3, None, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "rh12", None, 3, 3, 3, True, 0, 1, 2,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3)]),
    ("astar_ghw", "rh12", 4, None, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "rh12", None, 2, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("astar_ghw", "gnm14", 4, 4, 4, 4, True, 0, 1, 2,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4)]),
    ("astar_ghw", "gnm14", 4, None, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("astar_ghw", "gnm14", None, 4, 4, 4, True, 0, 1, 2,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4)]),
    ("astar_ghw", "gnm14", 5, None, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("astar_ghw", "gnm14", None, 3, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("bb_ghw", "grid4", 3, 3, 4, 3, False, 1, 1, 2,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", 3), ("ub", 4)]),
    ("bb_ghw", "grid4", 3, None, 4, 3, False, 1, 0, 3,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", 3), ("ub", 4), ("lb", 3)]),
    ("bb_ghw", "grid4", None, 3, 3, 3, True, 11, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 0),
      (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "grid4", 4, None, 3, 3, True, 11, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 0),
      (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "grid4", None, 2, 3, 3, True, 11, 0, 4,
     [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 0),
      (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)],
     [("lb", 3), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "rh12", 3, 3, 3, 3, True, 1, 1, 2,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3)]),
    ("bb_ghw", "rh12", 3, None, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "rh12", None, 3, 3, 3, True, 1, 1, 2,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3)]),
    ("bb_ghw", "rh12", 4, None, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "rh12", None, 2, 3, 3, True, 60, 0, 3,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", 2), ("ub", 3), ("lb", 3)]),
    ("bb_ghw", "gnm14", 4, 4, 4, 4, True, 1, 1, 2,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4)]),
    ("bb_ghw", "gnm14", 4, None, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("bb_ghw", "gnm14", None, 4, 4, 4, True, 1, 1, 2,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4)]),
    ("bb_ghw", "gnm14", 5, None, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("bb_ghw", "gnm14", None, 3, 4, 4, True, 82, 0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", 4)]),
    ("astar_fhw", "grid4", 3, 3, 4, 3, False, 1, 1, 2,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", Fraction(5, 2)), ("ub", 4)]),
    ("astar_fhw", "grid4", 3, None, 4, 3, False, 72, 0, 3,
     [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (1, 0), (1, 3), (3, 1), (0, 2),
      (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 2)],
     [("lb", Fraction(5, 2)), ("ub", 4), ("lb", 3)]),
    ("astar_fhw", "grid4", None, 3, 3, 3, True, 76, 1, 4,
     [(0, 0), (0, 1), (0, 3), (1, 3), (3, 0), (3, 1), (3, 2), (3, 3), (2, 2),
      (2, 3), (1, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)],
     [("lb", Fraction(5, 2)), ("ub", 4), ("ub", 3), ("lb", 3)]),
    ("astar_fhw", "grid4", 4, None, 3, 3, True, 76, 0, 5,
     [(0, 0), (0, 1), (0, 3), (1, 3), (3, 0), (3, 1), (3, 2), (3, 3), (2, 2),
      (2, 3), (1, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)],
     [("lb", Fraction(5, 2)), ("ub", 4), ("lb", 3), ("ub", 3), ("lb", 3)]),
    ("astar_fhw", "grid4", None, 2, 3, 3, True, 76, 0, 5,
     [(0, 0), (0, 1), (0, 3), (1, 3), (3, 0), (3, 1), (3, 2), (3, 3), (2, 2),
      (2, 3), (1, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)],
     [("lb", Fraction(5, 2)), ("ub", 4), ("lb", 3), ("ub", 3), ("lb", 3)]),
    ("astar_fhw", "rh12", Fraction(5, 2), Fraction(5, 2), 3, Fraction(5, 2),
     False, 1, 1, 2,
     [1, 7, 5, 2, 4, 6, 8, 0, 10, 11, 3, 9],
     [("lb", Fraction(4, 3)), ("ub", 3)]),
    ("astar_fhw", "rh12", Fraction(5, 2), None, Fraction(8, 3), Fraction(5, 2),
     False, 60, 0, 5,
     [1, 7, 5, 0, 3, 6, 2, 4, 8, 9, 10, 11],
     [("lb", Fraction(4, 3)), ("ub", 3), ("lb", 2), ("ub", Fraction(8, 3)),
      ("lb", Fraction(5, 2))]),
    ("astar_fhw", "rh12", None, Fraction(5, 2), Fraction(5, 2), Fraction(5, 2),
     True, 61, 1, 5,
     [1, 7, 5, 0, 2, 3, 4, 6, 8, 9, 10, 11],
     [("lb", Fraction(4, 3)), ("ub", 3), ("ub", Fraction(8, 3)),
      ("ub", Fraction(5, 2)), ("lb", Fraction(5, 2))]),
    ("astar_fhw", "rh12", Fraction(7, 2), None, Fraction(5, 2), Fraction(5, 2),
     True, 61, 0, 7,
     [1, 7, 5, 0, 2, 3, 4, 6, 8, 9, 10, 11],
     [("lb", Fraction(4, 3)), ("ub", 3), ("lb", 2), ("ub", Fraction(8, 3)),
      ("lb", Fraction(5, 2)), ("ub", Fraction(5, 2)),
      ("lb", Fraction(5, 2))]),
    ("astar_fhw", "rh12", None, Fraction(3, 2), Fraction(5, 2), Fraction(5, 2),
     True, 61, 1, 7,
     [1, 7, 5, 0, 2, 3, 4, 6, 8, 9, 10, 11],
     [("lb", Fraction(4, 3)), ("ub", 3), ("lb", 2), ("ub", Fraction(8, 3)),
      ("lb", Fraction(5, 2)), ("ub", Fraction(5, 2)),
      ("lb", Fraction(5, 2))]),
    ("astar_fhw", "gnm14", Fraction(7, 2), Fraction(7, 2), 4, Fraction(7, 2),
     False, 1, 1, 2,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4)]),
    ("astar_fhw", "gnm14", Fraction(7, 2), None, 4, Fraction(7, 2), False, 82,
     0, 3,
     [2, 3, 6, 11, 7, 1, 0, 10, 12, 13, 4, 5, 8, 9],
     [("lb", 3), ("ub", 4), ("lb", Fraction(7, 2))]),
    ("astar_fhw", "gnm14", None, Fraction(7, 2), Fraction(7, 2), Fraction(7,
     2), True, 97, 1, 4,
     [11, 6, 2, 3, 9, 0, 13, 8, 10, 4, 12, 1, 5, 7],
     [("lb", 3), ("ub", 4), ("ub", Fraction(7, 2)),
      ("lb", Fraction(7, 2))]),
    ("astar_fhw", "gnm14", Fraction(9, 2), None, Fraction(7, 2), Fraction(7,
     2), True, 97, 0, 5,
     [11, 6, 2, 3, 9, 0, 13, 8, 10, 4, 12, 1, 5, 7],
     [("lb", 3), ("ub", 4), ("lb", Fraction(7, 2)), ("ub", Fraction(7, 2)),
      ("lb", Fraction(7, 2))]),
    ("astar_fhw", "gnm14", None, Fraction(5, 2), Fraction(7, 2), Fraction(7,
     2), True, 97, 0, 5,
     [11, 6, 2, 3, 9, 0, 13, 8, 10, 4, 12, 1, 5, 7],
     [("lb", 3), ("ub", 4), ("lb", Fraction(7, 2)), ("ub", Fraction(7, 2)),
      ("lb", Fraction(7, 2))]),
]


@pytest.mark.parametrize(
    "search,name,ext_ub,ext_lb,upper,lower,exact,nodes,adopted,published,"
    "ordering,stream",
    HOOKED,
    ids=[f"{row[0]}-{row[1]}-ub{row[2]}-lb{row[3]}" for row in HOOKED],
)
def test_search_under_hooks_pinned(
    search, name, ext_ub, ext_lb, upper, lower, exact, nodes, adopted,
    published, ordering, stream,
):
    seen = []
    hooks = BoundHooks(
        poll_upper=lambda: ext_ub,
        poll_lower=lambda: ext_lb,
        publish_upper=lambda value: seen.append(("ub", value)),
        publish_lower=lambda value: seen.append(("lb", value)),
        poll_interval=1,
    )
    budget = SearchBudget(hooks=hooks)
    result = SEARCHES[search](_instance(name), budget=budget)
    assert result.upper_bound == upper
    assert result.lower_bound == lower
    assert result.exact == exact
    assert result.ordering == ordering
    assert result.stats.nodes_expanded == nodes
    assert result.stats.bounds_adopted == adopted
    assert result.stats.bounds_published == published
    assert seen == stream
