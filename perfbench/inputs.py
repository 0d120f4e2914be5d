"""Seeded inputs: random graphs and hypergraphs, relabelings, named
instances as plain edge lists, and an isomorphism invariant that keeps
the inputs of one run pairwise non-isomorphic."""

from __future__ import annotations

import random
from collections import Counter


def named(name: str) -> list[list]:
    """The hyperedges (graph edges) of a registered instance."""
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.instances import get_instance

    structure = get_instance(name).build()
    if isinstance(structure, Hypergraph):
        return [sorted(e, key=repr) for e in structure.edges.values()]
    return [[u, v] for u, v in structure.edges()]


def random_graph(rng: random.Random, n: int, m: int) -> list[list]:
    """A connected graph on ``0..n-1`` with ``m`` edges: a random tree
    plus random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)])))
             for i in range(1, n)}
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return [list(e) for e in sorted(edges)]


def random_hypergraph(rng: random.Random, n: int, m: int) -> list[list]:
    """A connected hypergraph on ``0..n-1`` with ``m`` distinct edges of
    2 to 4 vertices, every vertex covered."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple] = set()
    covered = [order[0]]
    i = 1
    while i < n:
        size = rng.randint(2, 4)
        fresh = order[i:i + size - 1]
        i += len(fresh)
        edge = tuple(sorted([rng.choice(covered)] + fresh))
        edges.add(edge)
        covered.extend(fresh)
    while len(edges) < m:
        size = rng.randint(2, min(4, n))
        edges.add(tuple(sorted(rng.sample(range(n), size))))
    return [list(e) for e in sorted(edges)]


def relabel(edges: list[list], rng: random.Random) -> list[list]:
    """A fresh random relabeling: new string vertex names, shuffled
    edge order and member order."""
    vertices = sorted({v for e in edges for v in e}, key=repr)
    tag = rng.getrandbits(40)
    names = [f"v{tag:010x}.{i}" for i in range(len(vertices))]
    rng.shuffle(names)
    mapping = dict(zip(vertices, names))
    out = []
    for e in edges:
        members = [mapping[v] for v in e]
        rng.shuffle(members)
        out.append(members)
    rng.shuffle(out)
    return out


def invariant(edges: list[list]) -> tuple:
    """An isomorphism invariant: colour refinement on the incidence
    graph.  Structures with different invariants are not isomorphic."""
    incident: dict = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    vcolor = {v: len(es) for v, es in incident.items()}
    ecolor = [len(e) for e in edges]
    for _ in range(3):
        ecolor = [hash((ecolor[i], tuple(sorted(vcolor[v] for v in e))))
                  for i, e in enumerate(edges)]
        vcolor = {v: hash((vcolor[v], tuple(sorted(ecolor[i] for i in es))))
                  for v, es in incident.items()}
    return (
        len(incident),
        tuple(sorted(Counter(vcolor.values()).items())),
        tuple(sorted(Counter(ecolor).items())),
    )
