"""Instance generators for graphs and hypergraphs.

Two kinds of generators live here:

* **Exact constructions** for families whose definitions are fully
  specified: grids, queen graphs, Mycielski graphs, cliques, cycles,
  checkerboard grid hypergraphs, ``adder_n`` / ``bridge_n`` circuit
  hypergraphs, clique hypergraphs.  Benchmarks on these families reproduce
  the thesis instances exactly.

* **Seeded synthetic stand-ins** for benchmark files that are not
  redistributable / not available offline (DIMACS ``anna``/``homer``/...,
  ISCAS circuit hypergraphs).  These match the published vertex and edge
  counts and approximate the structural family (random, geometric,
  partitioned, interval, circuit-like); see DESIGN.md for the substitution
  rationale.

All random generators take an explicit ``seed`` and are deterministic.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .graph import Graph
from .hypergraph import Hypergraph

# ----------------------------------------------------------------------
# Exact graph families
# ----------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path on vertices ``0..n-1``."""
    _require_positive(n)
    return Graph(vertices=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on vertices ``0..n-1`` (requires ``n >= 3``)."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph


def complete_graph(n: int) -> Graph:
    """Complete graph K_n on vertices ``0..n-1``."""
    _require_positive(n)
    return Graph.complete(range(n))


def star_graph(n: int) -> Graph:
    """Star with center ``0`` and leaves ``1..n``."""
    _require_positive(n)
    return Graph(vertices=range(n + 1), edges=[(0, i) for i in range(1, n + 1)])


def grid_graph(rows: int, cols: int | None = None) -> Graph:
    """The rows×cols grid graph; vertices are ``(r, c)`` tuples.

    The treewidth of the n×n grid is n (thesis Table 5.2 uses these).
    """
    if cols is None:
        cols = rows
    _require_positive(rows)
    _require_positive(cols)
    graph = Graph(vertices=((r, c) for r in range(rows) for c in range(cols)))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    return graph


def queen_graph(n: int) -> Graph:
    """The n×n queen graph (DIMACS ``queenN_N``): squares of an n×n board,
    adjacent iff a queen can move between them."""
    _require_positive(n)
    graph = Graph(vertices=((r, c) for r in range(n) for c in range(n)))
    cells = [(r, c) for r in range(n) for c in range(n)]
    for i, (r1, c1) in enumerate(cells):
        for r2, c2 in cells[i + 1:]:
            if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                graph.add_edge((r1, c1), (r2, c2))
    return graph


def mycielski(graph: Graph) -> Graph:
    """The Mycielski transform M(G): triangle-free chromatic-number boost.

    For G with vertices ``v`` it creates shadow vertices ``('m', v)`` and an
    apex ``'z'``; |V| -> 2|V|+1 and |E| -> 3|E|+|V|.
    """
    result = Graph()
    for v in graph.vertex_list():
        result.add_vertex(v)
        result.add_vertex(("m", v))
        result.add_edge(("m", v), "z")
    for u, v in graph.edges():
        result.add_edge(u, v)
        result.add_edge(("m", u), v)
        result.add_edge(u, ("m", v))
    return result


def myciel_graph(k: int) -> Graph:
    """DIMACS ``mycielK``: (k-1)-fold Mycielski transform of K2.

    myciel3 is the Grötzsch graph (11 vertices, 20 edges), myciel4 has
    (23, 71), myciel5 (47, 236), myciel6 (95, 755), myciel7 (191, 2360) —
    matching the DIMACS colouring files exactly.
    """
    if k < 2:
        raise ValueError("myciel graphs are defined for k >= 2")
    graph = complete_graph(2)
    for _ in range(k - 1):
        graph = _relabel_to_ints(mycielski(graph))
    return graph


def _relabel_to_ints(graph: Graph) -> Graph:
    """Map vertices to 0..n-1 (keeps nested Mycielski labels small)."""
    mapping = {v: i for i, v in enumerate(graph.vertex_list())}
    relabeled = Graph(vertices=range(len(mapping)))
    for u, v in graph.edges():
        relabeled.add_edge(mapping[u], mapping[v])
    return relabeled


# ----------------------------------------------------------------------
# Seeded random graph families (stand-ins and test fodder)
# ----------------------------------------------------------------------


def random_gnm_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly ``n`` vertices and ``m`` edges."""
    _require_positive(n)
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"{m} edges exceed the maximum {max_edges} for n={n}")
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph


def random_gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) random graph."""
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def random_geometric_graph(n: int, m: int, seed: int) -> Graph:
    """Geometric graph with exactly ``m`` edges: ``n`` random points in the
    unit square, connected in order of increasing Euclidean distance.

    Stand-in family for the DIMACS ``miles*`` instances, which are distance
    graphs over US city coordinates.
    """
    _require_positive(n)
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    pairs = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda uv: _dist2(points[uv[0]], points[uv[1]]),
    )
    if m > len(pairs):
        raise ValueError(f"{m} edges exceed the maximum {len(pairs)} for n={n}")
    return Graph(vertices=range(n), edges=pairs[:m])


def random_partitioned_graph(n: int, m: int, parts: int, seed: int) -> Graph:
    """Random graph with no edges inside any of ``parts`` equal-size vertex
    classes (Leighton-style; stand-in for DIMACS ``le450_*``)."""
    _require_positive(n)
    _require_positive(parts)
    rng = random.Random(seed)
    part_of = [i % parts for i in range(n)]
    graph = Graph(vertices=range(n))
    attempts = 0
    added = 0
    limit = 100 * m + 1000
    while added < m and attempts < limit:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and part_of[u] != part_of[v] and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    if added < m:
        raise ValueError(f"could not place {m} cross-part edges (placed {added})")
    return graph


def random_interval_graph(n: int, m: int, seed: int) -> Graph:
    """Interval graph with ``n`` intervals tuned to have exactly ``m``
    edges (dropping the excess longest-overlap edges if needed).

    Stand-in family for the register-allocation DIMACS instances
    (``fpsol2.*``, ``inithx.*``, ``mulsol.*``, ``zeroin.*``), whose
    interference graphs are near-interval and algorithmically easy — the
    key property those table rows exercise.
    """
    _require_positive(n)
    rng = random.Random(seed)
    # Binary-search a common interval length so the edge count brackets m.
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        starts = _interval_starts(n, seed)
        count = _count_interval_edges(starts, mid)
        if count < m:
            lo = mid
        else:
            hi = mid
    starts = _interval_starts(n, seed)
    edges = _interval_edges(starts, hi)
    rng.shuffle(edges)
    if len(edges) < m:
        # Top up with random chords (rare; keeps |E| exact).
        graph = Graph(vertices=range(n), edges=edges)
        while graph.num_edges < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
        return graph
    return Graph(vertices=range(n), edges=edges[:m])


def _interval_starts(n: int, seed: int) -> list[float]:
    rng = random.Random(seed * 7919 + 13)
    return sorted(rng.random() for _ in range(n))


def _interval_edges(starts: Sequence[float], length: float) -> list[tuple]:
    edges = []
    for i, si in enumerate(starts):
        end = si + length
        j = i + 1
        while j < len(starts) and starts[j] <= end:
            edges.append((i, j))
            j += 1
    return edges


def _count_interval_edges(starts: Sequence[float], length: float) -> int:
    return len(_interval_edges(starts, length))


# ----------------------------------------------------------------------
# Exact hypergraph families
# ----------------------------------------------------------------------


def clique_hypergraph(n: int) -> Hypergraph:
    """``clique_N`` from the CSP hypergraph library: vertices ``0..n-1``
    and one binary hyperedge per vertex pair (clique_20 has 20 vertices and
    190 hyperedges, matching Table 7.1)."""
    _require_positive(n)
    hypergraph = Hypergraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            hypergraph.add_edge((u, v), name=f"c{u}_{v}")
    return hypergraph


def fano_plane_hypergraph() -> Hypergraph:
    """The Fano plane as a hypergraph: 7 points, 7 lines of 3 points,
    every pair of points on exactly one line (so the primal graph is
    K₇).  The canonical fhw-vs-ghw separator: its uniform-1/3 fractional
    cover gives fhw = 7/3 while ghw = 3 (two lines cover at most 5 of
    the 7 points)."""
    lines = [
        (1, 2, 3), (1, 4, 5), (1, 6, 7),
        (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
    ]
    hypergraph = Hypergraph(vertices=range(1, 8))
    for line in lines:
        hypergraph.add_edge(line, name="l" + "".join(map(str, line)))
    return hypergraph


def grid2d_hypergraph(n: int) -> Hypergraph:
    """``grid2d_N``: checkerboard hypergraph of the n×n grid.

    Black cells are vertices; each white cell becomes a hyperedge over its
    (up to four) black neighbours.  For even n this yields n²/2 vertices
    and n²/2 hyperedges — grid2d_20 has 200/200, matching Table 7.1.
    """
    _require_positive(n)
    hypergraph = Hypergraph()
    for r in range(n):
        for c in range(n):
            if (r + c) % 2 == 0:
                hypergraph.add_vertex((r, c))
    for r in range(n):
        for c in range(n):
            if (r + c) % 2 == 1:
                members = [
                    (rr, cc)
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                    if 0 <= rr < n and 0 <= cc < n
                ]
                hypergraph.add_edge(members, name=f"w{r}_{c}")
    return hypergraph


def grid3d_hypergraph(n: int) -> Hypergraph:
    """``grid3d_N``: 3-dimensional checkerboard hypergraph of the n×n×n
    grid (grid3d_8 has 256/256, matching Table 7.1)."""
    _require_positive(n)
    hypergraph = Hypergraph()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x + y + z) % 2 == 0:
                    hypergraph.add_vertex((x, y, z))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x + y + z) % 2 == 1:
                    members = [
                        cell
                        for cell in (
                            (x - 1, y, z), (x + 1, y, z),
                            (x, y - 1, z), (x, y + 1, z),
                            (x, y, z - 1), (x, y, z + 1),
                        )
                        if all(0 <= coord < n for coord in cell)
                    ]
                    hypergraph.add_edge(members, name=f"w{x}_{y}_{z}")
    return hypergraph


def adder_hypergraph(n: int) -> Hypergraph:
    """``adder_N``: constraint hypergraph of an n-bit ripple-carry adder.

    Per bit i the full adder uses variables ``a_i, b_i, s_i, t_i, c_i``
    (inputs, sum, internal xor, carry-out) plus the global carry-in
    ``c_0`` — 5n+1 vertices.  Gates contribute seven constraints per bit
    plus one unary constraint on ``c_0`` — 7n+1 hyperedges.  adder_75 has
    376/526 and adder_99 has 496/694, matching Table 7.1 exactly.
    """
    _require_positive(n)
    hypergraph = Hypergraph(vertices=["c_0"])
    hypergraph.add_edge(["c_0"], name="init")
    for i in range(1, n + 1):
        a, b, s, t = f"a_{i}", f"b_{i}", f"s_{i}", f"t_{i}"
        cin, cout = f"c_{i - 1}", f"c_{i}"
        for v in (a, b, s, t, cout):
            hypergraph.add_vertex(v)
        # Full-adder gate structure (xor, sum-xor, three and/or carry gates,
        # two propagation checks) — 7 constraints.
        hypergraph.add_edge([a, b, t], name=f"xor1_{i}")
        hypergraph.add_edge([t, cin, s], name=f"xor2_{i}")
        hypergraph.add_edge([a, b, cout], name=f"and1_{i}")
        hypergraph.add_edge([t, cin, cout], name=f"and2_{i}")
        hypergraph.add_edge([a, b, cin, cout], name=f"or_{i}")
        hypergraph.add_edge([a, b, cin, s], name=f"chk1_{i}")
        hypergraph.add_edge([s, t, cout], name=f"chk2_{i}")
    return hypergraph


def bridge_hypergraph(n: int) -> Hypergraph:
    """``bridge_N``: chain of n bridge blocks.

    Each block adds 9 vertices wired to the previous block's two terminal
    vertices through 9 constraints; two seed vertices and two seed
    constraints start the chain.  bridge_50 has 9·50+2 = 452 vertices and
    452 hyperedges, matching Table 7.1 exactly.
    """
    _require_positive(n)
    hypergraph = Hypergraph(vertices=["L0", "R0"])
    hypergraph.add_edge(["L0"], name="srcL")
    hypergraph.add_edge(["R0"], name="srcR")
    left, right = "L0", "R0"
    for i in range(1, n + 1):
        block = [f"v{i}_{j}" for j in range(9)]
        for v in block:
            hypergraph.add_vertex(v)
        # Wheatstone-bridge-like block: two rails, a crossing bridge edge,
        # and local ties — 9 constraints per block.
        hypergraph.add_edge([left, block[0], block[1]], name=f"b{i}_in")
        hypergraph.add_edge([right, block[2], block[3]], name=f"b{i}_in2")
        hypergraph.add_edge([block[0], block[2], block[4]], name=f"b{i}_x1")
        hypergraph.add_edge([block[1], block[3], block[4]], name=f"b{i}_x2")
        hypergraph.add_edge([block[4], block[5]], name=f"b{i}_mid")
        hypergraph.add_edge([block[5], block[6], block[7]], name=f"b{i}_out")
        hypergraph.add_edge([block[6], block[8]], name=f"b{i}_railL")
        hypergraph.add_edge([block[7], block[8]], name=f"b{i}_railR")
        hypergraph.add_edge([block[6], block[7]], name=f"b{i}_tie")
        left, right = block[6], block[7]
    return hypergraph


def sat_hypergraph(clauses: Sequence[Sequence[int]]) -> Hypergraph:
    """Constraint hypergraph of a CNF formula: vertices are variable
    indices, one hyperedge per clause (over the absolute literal values)."""
    hypergraph = Hypergraph()
    for i, clause in enumerate(clauses):
        if not clause:
            raise ValueError("empty clauses are not allowed")
        hypergraph.add_edge({abs(lit) for lit in clause}, name=f"cl{i}")
    return hypergraph


# ----------------------------------------------------------------------
# Seeded hypergraph stand-ins
# ----------------------------------------------------------------------


def random_circuit_hypergraph(
    num_vertices: int, num_edges: int, seed: int, max_arity: int = 4
) -> Hypergraph:
    """Circuit-like hypergraph stand-in for the ISCAS instances.

    Signals ``0..num_vertices-1`` are created in topological order; each
    hyperedge (gate) covers one "output" signal and 1..max_arity-1 earlier
    "input" signals drawn from a locality window, mimicking the shallow
    fan-in structure of gate-level netlists.
    """
    _require_positive(num_vertices)
    _require_positive(num_edges)
    if max_arity < 2:
        raise ValueError("gates need arity >= 2")
    rng = random.Random(seed)
    hypergraph = Hypergraph(vertices=range(num_vertices))
    window = max(8, num_vertices // 8)
    for g in range(num_edges):
        out = rng.randrange(1, num_vertices)
        lo = max(0, out - window)
        arity = rng.randint(2, max_arity)
        pool = list(range(lo, out))
        rng.shuffle(pool)
        members = {out, *pool[: arity - 1]}
        if len(members) < 2:
            members.add((out + 1) % num_vertices)
        hypergraph.add_edge(members, name=f"g{g}")
    # Make sure every vertex occurs in some hyperedge (connect strays).
    for v in range(num_vertices):
        if not hypergraph.edges_containing(v):
            partner = (v + 1) % num_vertices
            hypergraph.add_edge({v, partner}, name=f"stray{v}")
    return hypergraph


def random_hypergraph(
    num_vertices: int, num_edges: int, seed: int, min_arity: int = 2,
    max_arity: int = 4,
) -> Hypergraph:
    """Uniform random hypergraph with arities in [min_arity, max_arity]."""
    _require_positive(num_vertices)
    if min_arity < 1 or max_arity < min_arity:
        raise ValueError("need 1 <= min_arity <= max_arity")
    if max_arity > num_vertices:
        raise ValueError("max_arity exceeds the number of vertices")
    rng = random.Random(seed)
    hypergraph = Hypergraph(vertices=range(num_vertices))
    for i in range(num_edges):
        arity = rng.randint(min_arity, max_arity)
        members = rng.sample(range(num_vertices), arity)
        hypergraph.add_edge(members, name=f"e{i}")
    return hypergraph


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _dist2(p: tuple[float, float], q: tuple[float, float]) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")

