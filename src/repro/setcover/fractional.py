"""Exact rational fractional edge covers — the fhw cover layer.

The fractional cover number of a bag ``B`` is the optimum of the LP

    min  sum_e x_e
    s.t. sum_{e : v in e} x_e >= 1   for every v in B
         x_e >= 0

over the hyperedges restricted to ``B``.  Its maximum over the bags of a
decomposition is the fractional hypertree width (Grohe–Marx), the
measure both arXiv:1611.01090 and arXiv:2002.05239 center on.

No external LP solver is available offline, so this module solves the
LP exactly over :class:`fractions.Fraction`:

* :func:`fractional_cover_masks` — a single-phase primal simplex with
  Bland's rule applied to the *dual* LP (fractional matching:
  ``max 1^T y, A^T y <= 1, y >= 0``).  The dual's slack basis is
  feasible from the start, so no phase-1 is needed; Bland's rule makes
  termination unconditional; strong duality makes the optima equal; and
  the primal cover weights are read off the slack columns' reduced
  costs.
* :func:`fractional_set_cover` — the frozenset-path API mirroring
  :func:`~repro.setcover.exact.exact_set_cover`, returning the optimal
  weight and a per-edge-name weight map (the certificate payload).
* :func:`enumerate_fractional_cover` — an independent brute-force
  oracle: the optimum of a bounded feasible LP is attained at a vertex
  of the polyhedron, i.e. at a *basic* solution, so enumerating square
  subsystems (support S of edges, |S| tight vertex constraints) and
  solving each by Gaussian elimination over Fractions finds it.  Used
  by the Hypothesis differential suite to check the simplex, never on
  hot paths.

Everything here is ``Fraction`` (or int) end to end — a float anywhere
in fhw arithmetic is a bug, see :mod:`repro.widths`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from itertools import combinations

from ..hypergraph.hypergraph import Hypergraph
from .greedy import SetCoverError

ZERO = Fraction(0)
ONE = Fraction(1)


def _bits(mask: int) -> list[int]:
    """Bit positions set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def fractional_cover_masks(
    bag_mask: int, candidates: list[int]
) -> tuple[Fraction, list[Fraction]]:
    """Optimal fractional cover of ``bag_mask`` by candidate edge masks.

    ``candidates`` are edge-vertex masks already restricted to the bag
    (callers pass ``edge_mask & bag_mask``); every bag bit must appear
    in at least one candidate (checked).  Returns the optimal weight and
    one optimal weight per candidate (most of them zero).

    The simplex runs on the dual fractional-matching LP: one variable
    ``y_v`` per bag vertex, one constraint ``sum_{v in e} y_v <= 1`` per
    candidate edge.  The all-slack basis is feasible (rhs is all ones),
    entering/leaving choices follow Bland's rule (least index), so the
    walk cannot cycle and terminates at the exact rational optimum.  The
    dual is bounded because every ``y_v`` occurs in some constraint with
    coefficient 1; by strong duality the optimum equals the primal
    cover optimum, and the primal solution is recovered from the reduced
    costs of the slack columns.
    """
    vertices = _bits(bag_mask)
    if not vertices:
        return ZERO, [ZERO] * len(candidates)
    covered = 0
    for mask in candidates:
        covered |= mask & bag_mask
    if covered != bag_mask:
        raise SetCoverError(
            "bag bits "
            f"{_bits(bag_mask & ~covered)} occur in no candidate edge"
        )

    n = len(vertices)  # structural (dual) variables y_v
    m = len(candidates)  # constraints, one slack each
    column_of = {bit: j for j, bit in enumerate(vertices)}

    # Tableau rows: m constraints over n + m columns plus rhs; the
    # objective row carries reduced costs (maximisation: optimal when
    # none is positive).  All entries are Fractions.
    rows: list[list[Fraction]] = []
    for mask in candidates:
        row = [ZERO] * (n + m + 1)
        for bit in _bits(mask & bag_mask):
            row[column_of[bit]] = ONE
        rows.append(row)
    for i in range(m):
        rows[i][n + i] = ONE  # slack
        rows[i][n + m] = ONE  # rhs
    objective = [ONE] * n + [ZERO] * m + [ZERO]
    basis = [n + i for i in range(m)]  # all-slack start

    total = n + m
    while True:
        entering = -1
        for j in range(total):  # Bland: least index with positive cost
            if objective[j] > ZERO:
                entering = j
                break
        if entering < 0:
            break
        # Ratio test; Bland's tie-break: smallest basis variable index.
        pivot_row = -1
        best_ratio = None
        for i in range(m):
            coefficient = rows[i][entering]
            if coefficient > ZERO:
                ratio = rows[i][total] / coefficient
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row < 0:  # pragma: no cover - dual LP is always bounded
            raise SetCoverError("unbounded fractional matching LP")
        pivot = rows[pivot_row][entering]
        row = rows[pivot_row]
        if pivot != ONE:
            for j in range(total + 1):
                row[j] /= pivot
        for i in range(m):
            if i != pivot_row and rows[i][entering] != ZERO:
                factor = rows[i][entering]
                target = rows[i]
                for j in range(total + 1):
                    target[j] -= factor * row[j]
        factor = objective[entering]
        if factor != ZERO:
            for j in range(total + 1):
                objective[j] -= factor * row[j]
        basis[pivot_row] = entering

    # Optimal dual objective == -objective[rhs]; the primal cover is the
    # negated reduced cost of each slack column (>= 0 at optimality).
    value = -objective[total]
    weights = [-objective[n + i] for i in range(m)]
    return value, weights


def _candidate_names(
    bag: frozenset, hypergraph: Hypergraph
) -> list[Hashable]:
    """Edges meeting the bag, deduplicated, in deterministic repr order."""
    names: list[Hashable] = []
    seen: set = set()
    missing = []
    for vertex in bag:
        incident = hypergraph.edges_containing(vertex)
        if not incident:
            missing.append(vertex)
            continue
        for name in incident:
            if name not in seen:
                seen.add(name)
                names.append(name)
    if missing:
        raise SetCoverError(
            f"vertices {sorted(map(repr, missing))} occur in no hyperedge"
        )
    names.sort(key=repr)
    return names


def fractional_set_cover(
    bag: Iterable, hypergraph: Hypergraph
) -> tuple[Fraction, dict[Hashable, Fraction]]:
    """Optimal fractional cover of ``bag``: ``(weight, {name: weight})``.

    The frozenset-path twin of ``BitCoverEngine.fractional_size`` — used
    by :func:`~repro.decomposition.fhd_from_ordering` and A*-fhw, and as
    a test oracle.  The weight map carries only the support (strictly
    positive weights) and is a feasible optimal cover: re-checking
    ``sum_{e : v in e} w_e >= 1``
    per bag vertex is exactly what :func:`repro.verify.check_fhd` does.
    Raises :class:`SetCoverError` when some bag vertex occurs in no
    hyperedge.
    """
    target = frozenset(bag)
    if not target:
        return ZERO, {}
    names = _candidate_names(target, hypergraph)
    bit_of = {vertex: i for i, vertex in enumerate(sorted(target, key=repr))}
    bag_mask = (1 << len(bit_of)) - 1
    masks = []
    for name in names:
        mask = 0
        for vertex in hypergraph.edge(name):
            bit = bit_of.get(vertex)
            if bit is not None:
                mask |= 1 << bit
        masks.append(mask)
    value, weights = fractional_cover_masks(bag_mask, masks)
    support = {
        name: weight
        for name, weight in zip(names, weights)
        if weight > ZERO
    }
    return value, support


def _solve_square(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square Fraction system by Gaussian elimination.

    Returns None for singular systems (the candidate basis is then not a
    basis at all and the enumeration skips it).
    """
    size = len(matrix)
    augmented = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if augmented[r][col] != ZERO),
            None,
        )
        if pivot_row is None:
            return None
        if pivot_row != col:
            augmented[col], augmented[pivot_row] = (
                augmented[pivot_row], augmented[col],
            )
        pivot = augmented[col][col]
        row = augmented[col]
        for j in range(col, size + 1):
            row[j] /= pivot
        for r in range(size):
            if r != col and augmented[r][col] != ZERO:
                factor = augmented[r][col]
                for j in range(col, size + 1):
                    augmented[r][j] -= factor * row[j]
    return [augmented[i][size] for i in range(size)]


def enumerate_fractional_cover(
    bag: Iterable, hypergraph: Hypergraph
) -> Fraction:
    """Brute-force LP optimum by basic-solution enumeration.

    The cover polyhedron ``{x >= 0 : Ax >= 1}`` contains no line, so the
    LP optimum is attained at a vertex — a point where some support
    ``S`` of edges carries all the weight and ``|S|`` of the constraints
    (vertex covers exactly 1) are tight.  Enumerate every (support,
    tight-set) pair, solve the square system, keep feasible solutions,
    return the minimum objective.  Exponential and proud of it: this is
    the *independent* oracle the Hypothesis suite checks the simplex
    against, only ever run on <= 6-edge bags.
    """
    target = frozenset(bag)
    if not target:
        return ZERO
    names = _candidate_names(target, hypergraph)
    restricted = [frozenset(hypergraph.edge(name)) & target for name in names]
    vertices = sorted(target, key=repr)

    best: Fraction | None = None
    indices = range(len(restricted))
    for size in range(1, len(restricted) + 1):
        for support in combinations(indices, size):
            support_edges = [restricted[i] for i in support]
            union = frozenset().union(*support_edges)
            if union != target:
                continue
            for tight in combinations(vertices, size):
                matrix = [
                    [ONE if v in support_edges[j] else ZERO
                     for j in range(size)]
                    for v in tight
                ]
                solution = _solve_square(
                    matrix, [ONE] * size
                )
                if solution is None:
                    continue
                if any(weight < ZERO for weight in solution):
                    continue
                feasible = True
                for v in vertices:
                    covered = sum(
                        solution[j]
                        for j in range(size)
                        if v in support_edges[j]
                    )
                    if covered < ONE:
                        feasible = False
                        break
                if not feasible:
                    continue
                objective = sum(solution, ZERO)
                if best is None or objective < best:
                    best = objective
    if best is None:  # pragma: no cover - candidates always cover the bag
        raise SetCoverError("no feasible basic solution found")
    return best
