"""Width computations made apart from the program under test.

Nothing here imports ``repro``: these are the benchmark's own answers,
used to check what the service and the solvers report.

A structure is a list of hyperedges (each a list of hashable vertices)
plus an optional list of extra vertices; a graph is the same thing with
2-element edges.  Every width here is computed over elimination
orderings of the primal graph:

    width_cost(H) = min over orderings σ of max over bags B of cost(B)

where the bags of σ are ``{v} ∪ Q(S, v)``, ``S`` the vertices eliminated
before ``v`` and ``Q(S, v)`` the vertices outside ``S ∪ {v}`` reachable
from ``v`` through ``S``.  With ``cost(B) = |B| - 1`` this is treewidth;
with the integral edge cover number ρ(B) it is ghw, and with the
fractional one ρ*(B) it is fhw (every tree decomposition refines to an
ordering whose bags are subsets of its bags, and both cover numbers are
monotone).  The subset dynamic programme below evaluates the minimum
exactly in O*(2^n), so it is only for small inputs (``MAX_DP_VERTICES``).

hw has no ordering characterisation; it is checked by the property
``ghw <= hw <= 3 * ghw + 1`` (Adler, Gottlob and Grohe 2007).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

MAX_DP_VERTICES = 16
FHW_TOLERANCE = 1e-6

# Published widths of named instances, with where they come from.
# Nothing here is a copy of the program's own output.
PUBLISHED = {
    # Treewidth of the DIMACS colouring graphs (Gogate and Dechter 2004;
    # Bodlaender and Koster 2010, Table 2): myciel3 = 5, myciel4 = 10,
    # queen5_5 = 18.  The k x k grid has treewidth k.
    ("myciel3", "tw"): 5,
    ("myciel4", "tw"): 10,
    ("queen5_5", "tw"): 18,
    ("grid3", "tw"): 3,
    ("grid4", "tw"): 4,
    ("grid5", "tw"): 5,
    # The Fano plane: its primal graph is K7, one bag holds all seven
    # points; three concurrent lines cover them (ghw = 3) and the uniform
    # 1/3 weighting of all seven lines is an optimal fractional cover
    # (fhw = 7/3, Grohe and Marx 2014).
    ("fano", "ghw"): 3,
    ("fano", "fhw"): Fraction(7, 3),
    # The n-clique as a hypergraph of 2-edges: one bag holds all n
    # vertices, ρ = ceil(n/2) and ρ* = n/2.
    ("clique_5", "ghw"): 3,
    ("clique_5", "fhw"): Fraction(5, 2),
    ("clique_6", "ghw"): 3,
    ("clique_6", "fhw"): 3,
}


class Indexed:
    """A structure with its vertices numbered ``0..n-1`` as bits."""

    def __init__(self, edges):
        self.vertices: list = []
        self.index: dict = {}
        for v in (v for e in edges for v in e):
            if v not in self.index:
                self.index[v] = len(self.vertices)
                self.vertices.append(v)
        self.n = len(self.vertices)
        masks = set()
        for e in edges:
            mask = 0
            for v in e:
                mask |= 1 << self.index[v]
            masks.add(mask)
        self.edge_masks = sorted(masks)
        self.adj = [0] * self.n
        for mask in self.edge_masks:
            m = mask
            while m:
                low = m & -m
                self.adj[low.bit_length() - 1] |= mask & ~low
                m ^= low

    def mask_of(self, vertices) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.index[v]
        return mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _q(adj, eliminated: int, v: int) -> int:
    """Vertices outside ``eliminated ∪ {v}`` reachable from ``v``
    through ``eliminated``."""
    reached = 1 << v
    frontier = reached
    boundary = 0
    while frontier:
        nbrs = 0
        for u in _bits(frontier):
            nbrs |= adj[u]
        boundary |= nbrs & ~eliminated
        frontier = nbrs & eliminated & ~reached
        reached |= frontier
    return boundary & ~(1 << v)


def ordering_bags(ix: Indexed, ordering) -> list[int]:
    """The bags (as bit masks) of the elimination ``ordering``."""
    if sorted(ix.index[v] for v in ordering) != list(range(ix.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    bags = []
    eliminated = 0
    for v in ordering:
        i = ix.index[v]
        bags.append((1 << i) | _q(ix.adj, eliminated, i))
        eliminated |= 1 << i
    return bags


# ----------------------------------------------------------------------
# Bag costs
# ----------------------------------------------------------------------


def tw_cost(ix: Indexed, bag: int) -> int:
    return bag.bit_count() - 1


def _restricted_edges(ix: Indexed, bag: int) -> list[int]:
    """Maximal nonempty traces of the hyperedges on ``bag``."""
    traces = sorted({e & bag for e in ix.edge_masks} - {0},
                    key=lambda m: -m.bit_count())
    kept: list[int] = []
    for t in traces:
        if not any(t & k == t for k in kept):
            kept.append(t)
    return kept


def cover_number(ix: Indexed, bag: int) -> int:
    """ρ(bag): the fewest hyperedges covering ``bag``, by brute force."""
    if bag == 0:
        return 0
    traces = _restricted_edges(ix, bag)
    for k in range(1, len(traces) + 1):
        for combo in combinations(traces, k):
            union = 0
            for t in combo:
                union |= t
            if union == bag:
                return k
    raise ValueError("bag holds a vertex that no hyperedge covers")


def fractional_cover_number(ix: Indexed, bag: int) -> float:
    """ρ*(bag): the minimum total weight on hyperedges giving every
    vertex of ``bag`` weight at least 1 — a float LP solved by scipy."""
    if bag == 0:
        return 0.0
    from scipy.optimize import linprog  # deferred: numpy is heavy

    traces = _restricted_edges(ix, bag)
    rows = list(_bits(bag))
    a_ub = [[-1.0 if t >> r & 1 else 0.0 for t in traces] for r in rows]
    result = linprog(
        c=[1.0] * len(traces), A_ub=a_ub, b_ub=[-1.0] * len(rows),
        bounds=(0, None), method="highs",
    )
    if result.status != 0:
        raise ValueError(f"cover LP failed: {result.message}")
    return float(result.fun)


class _Memo:
    def __init__(self, ix: Indexed, cost):
        self.ix = ix
        self.cost = cost
        self.values: dict[int, float] = {}

    def __call__(self, bag: int):
        value = self.values.get(bag)
        if value is None:
            value = self.values[bag] = self.cost(self.ix, bag)
        return value


COSTS = {
    "tw": tw_cost,
    "ghw": cover_number,
    "fhw": fractional_cover_number,
}


# ----------------------------------------------------------------------
# Widths
# ----------------------------------------------------------------------


def ordering_width(ix: Indexed, ordering, metric: str):
    """The width of ``ordering`` under the metric's bag cost."""
    cost = _Memo(ix, COSTS[metric])
    return max((cost(b) for b in ordering_bags(ix, ordering)), default=0)


def _lower_bound(ix: Indexed, metric: str, bag: int) -> float:
    """A cheap lower bound on the bag cost (pruning only): for the cover
    numbers, |bag| over the widest hyperedge trace, or the size of a
    greedy set of bag vertices no two of which share a hyperedge."""
    if metric == "tw":
        return bag.bit_count() - 1
    widest = max((e & bag).bit_count() for e in ix.edge_masks)
    independent = 0
    free = bag
    while free:
        v = (free & -free).bit_length() - 1
        independent += 1
        free &= ~((1 << v) | ix.adj[v])
    return max(bag.bit_count() / widest, independent)


def exact_width(ix: Indexed, metric: str, upper=None):
    """The exact width by the subset dynamic programme.

    ``upper`` (optional) is a known upper bound; bags whose cheap lower
    bound already exceeds it are skipped without evaluating their cost,
    which is what keeps the fractional LPs few.  The result never
    depends on ``upper`` as long as it is a true upper bound.
    """
    if ix.n > MAX_DP_VERTICES:
        raise ValueError(
            f"{ix.n} vertices is too many for the subset programme"
        )
    if metric == "ghw" or metric == "fhw":
        covered = 0
        for e in ix.edge_masks:
            covered |= e
        if covered != (1 << ix.n) - 1:
            raise ValueError("isolated vertices have no cover")
    cost = _Memo(ix, COSTS[metric])
    inf = float("inf")
    ceiling = inf if upper is None else float(upper) + FHW_TOLERANCE
    full = (1 << ix.n) - 1
    best = [inf] * (1 << ix.n)
    best[0] = 0
    for s in range(1, full + 1):
        value = inf
        for v in _bits(s):
            rest = s & ~(1 << v)
            prior = best[rest]
            if prior >= value:
                continue
            bag = (1 << v) | _q(ix.adj, rest, v)
            if _lower_bound(ix, metric, bag) > min(value, ceiling):
                continue
            c = cost(bag)
            candidate = prior if prior >= c else c
            if candidate < value:
                value = candidate
        best[s] = value
    width = best[full]
    if width == inf:
        raise ValueError("upper bound below the true width")
    return width


def as_fraction(value: float) -> Fraction:
    return Fraction(value).limit_denominator(64)


def widths_equal(metric: str, reported, expected) -> bool:
    """Compare a reported width (int or ``Fraction``) with a computed one;
    fhw within ``FHW_TOLERANCE``."""
    if metric == "fhw":
        return abs(float(reported) - float(expected)) <= FHW_TOLERANCE
    return reported == expected


def hw_plausible(hw: int, ghw: int) -> bool:
    """The property hw must satisfy given the exact ghw."""
    return ghw <= hw <= 3 * ghw + 1


# ----------------------------------------------------------------------
# Decompositions
# ----------------------------------------------------------------------


def check_ghd(ix: Indexed, bags, tree_edges, covers) -> list[str]:
    """Problems with a generalized hypertree decomposition given as
    ``bags[node]`` (vertex lists), ``tree_edges`` and ``covers[node]``
    (lists of hyperedges, each a vertex list).  Empty means valid."""
    problems = []
    nodes = list(bags)
    bag_masks = {n: ix.mask_of(bags[n]) for n in nodes}
    # A tree: connected with |nodes| - 1 edges.
    if len(tree_edges) != max(len(nodes) - 1, 0):
        problems.append("not a tree: wrong number of edges")
    nbrs = {n: set() for n in nodes}
    for a, b in tree_edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen = set(nodes[:1])
    stack = list(seen)
    while stack:
        for m in nbrs[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    if len(seen) != len(nodes):
        problems.append("not a tree: disconnected")
    for e in ix.edge_masks:
        if not any(e & b == e for b in bag_masks.values()):
            problems.append("a hyperedge lies in no bag")
            break
    for v in range(ix.n):
        holding = {n for n in nodes if bag_masks[n] >> v & 1}
        if not holding:
            problems.append(f"vertex {ix.vertices[v]!r} lies in no bag")
            continue
        start = next(iter(holding))
        reach = {start}
        stack = [start]
        while stack:
            for m in nbrs[stack.pop()]:
                if m in holding and m not in reach:
                    reach.add(m)
                    stack.append(m)
        if reach != holding:
            problems.append(f"bags of {ix.vertices[v]!r} not connected")
    edge_set = set(ix.edge_masks)
    for n in nodes:
        union = 0
        for e in covers[n]:
            mask = ix.mask_of(e)
            if mask not in edge_set:
                problems.append("a cover uses a set that is no hyperedge")
            union |= mask
        if bag_masks[n] & ~union:
            problems.append("a bag is not covered by its cover")
    return problems
