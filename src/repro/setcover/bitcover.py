"""Bitmask cover engine: the set-cover analogue of the BitGraph kernel.

The ghw searches (Ch. 8/9) and GA-ghw (Ch. 7) bottom out in set covers of
elimination bags.  :mod:`.exact` and :mod:`.greedy` answer one bag at a
time over frozensets; a *search* asks about thousands of bags that are
heavily related — siblings share most of their vertices, every future bag
is a subset of the current remaining set, and identical bags recur across
orderings.  This module exploits that structure:

* **Mask interning.**  Vertices get the bit positions of the hypergraph's
  :meth:`~repro.hypergraph.hypergraph.Hypergraph.incidence_index`, which
  coincide with :meth:`BitGraph.from_hypergraph
  <repro.hypergraph.bitgraph.BitGraph.from_hypergraph>`'s interning (both
  number vertices in insertion order), so a search running its primal
  graph on the bitset kernel feeds ``neighbors_mask(v) | bit(v)`` straight
  into the engine — no frozensets on the hot path at all.

* **Mask-native covers.**  Greedy (Fig. 7.2) and exact branch-and-bound
  (the thesis' IP-solver replacement) reimplemented over integer masks:
  gains and bounds are popcounts, candidate sets are edge-space masks.
  Greedy reproduces :func:`~repro.setcover.greedy.greedy_set_cover`'s
  deterministic result exactly (max gain, ties by name ``repr``); exact
  covers have the same minimum cardinality as
  :func:`~repro.setcover.exact.exact_set_cover` (property-tested).

* **Dominance caching** (:class:`CoverCache`).  Covers are monotone under
  inclusion: a cover of a bag covers all of its subsets.  So a cached
  *superset* bag upper-bounds any subset query, a cached exact *subset*
  lower-bounds any superset query, and an exact result seeds the
  greedy/upper cache (exact <= greedy).  When the bounds meet — or a
  caller only needs to know whether the answer is <= some threshold —
  the query is answered without running a cover at all.

Counters (hits / misses / dominance answers / seedings) live in a
:class:`~repro.telemetry.metrics.Metrics` registry so runs can export
them alongside the PR 3 search telemetry.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Hashable, Iterable
from fractions import Fraction

from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import Metrics
from ..widths import Width, as_width
from .fractional import fractional_cover_masks
from .greedy import SetCoverError

# Dominance scans walk size-sorted cache entries and stop at the first
# superset (ascending scan) / subset (descending scan); this cap bounds
# the walk on pathological caches so a miss never costs more than a
# modest constant over just computing the cover.
DOMINANCE_SCAN_CAP = 768


class CoverCache:
    """Dominance-exploiting store of bag-cover sizes, keyed on masks.

    Four layers, all mapping ``bag mask -> size``:

    * ``exact`` — minimum cover cardinalities (the search's ``g`` costs);
    * ``greedy`` — the deterministic greedy algorithm's exact output
      (GA fitness must be bit-identical to Fig. 7.2, so these values are
      never substituted);
    * ``cover`` — the best *known valid* cover size per mask: greedy
      results, exact results (exact <= greedy seeds this layer), and
      dominance-derived values.  Sound wherever "size of some cover"
      suffices (completion bounds), which is every caller except the GA;
    * ``fractional`` — exact fractional cover optima (``int`` or
      ``Fraction``, never float) from the rational LP layer.

    Dominance rules (covers are monotone under inclusion):

    * a cached cover of ``S`` answers ``Q ⊆ S`` with an upper bound,
    * a cached exact value of ``S ⊆ Q`` answers ``Q`` with a lower bound,
    * when the two meet, the exact value of ``Q`` is known without
      running any cover.

    The fractional layer dominates by superset/subset exactly the same
    way (a fractional cover of ``S`` restricts to one of any ``Q ⊆ S``),
    and bounds *across* layers: any integral cover is a fractional cover
    (fractional <= exact <= any ``cover`` entry), and conversely
    ``ceil(fractional)`` is a sound floor for the exact layer.

    Subproblem memos keyed by edge sets (det-k/opt-k-decomp's cross-rung
    records, the balanced recursion's memo) live in those searches, not
    here.
    """

    __slots__ = (
        "exact", "greedy", "cover", "fractional",
        "_cover_by_size", "_exact_by_size", "_fractional_by_size",
        "c_exact_hit", "c_exact_dominance", "c_exact_computed",
        "c_upper_hit", "c_upper_dominance", "c_upper_computed",
        "c_greedy_hit", "c_greedy_computed", "c_seeded",
        "c_frac_hit", "c_frac_dominance", "c_frac_computed",
        "c_inv_calls", "c_inv_exact", "c_inv_greedy", "c_inv_cover",
        "c_inv_frac",
    )

    def __init__(self, metrics: Metrics | None = None):
        self.exact: dict[int, int] = {}
        self.greedy: dict[int, int] = {}
        self.cover: dict[int, int] = {}
        # Fourth layer: exact fractional cover optima (int | Fraction).
        self.fractional: dict[int, Width] = {}
        # (size, mask) sorted ascending by size — dominance scan orders.
        self._cover_by_size: list[tuple[int, int]] = []
        self._exact_by_size: list[tuple[int, int]] = []
        self._fractional_by_size: list[tuple[Width, int]] = []
        registry = metrics if metrics is not None else Metrics()
        self.c_exact_hit = registry.counter("cover.exact.hit")
        self.c_exact_dominance = registry.counter("cover.exact.dominance")
        self.c_exact_computed = registry.counter("cover.exact.computed")
        self.c_upper_hit = registry.counter("cover.upper.hit")
        self.c_upper_dominance = registry.counter("cover.upper.dominance")
        self.c_upper_computed = registry.counter("cover.upper.computed")
        self.c_greedy_hit = registry.counter("cover.greedy.hit")
        self.c_greedy_computed = registry.counter("cover.greedy.computed")
        self.c_seeded = registry.counter("cover.upper.seeded_from_exact")
        self.c_frac_hit = registry.counter("cover.fractional.hit")
        self.c_frac_dominance = registry.counter("cover.fractional.dominance")
        self.c_frac_computed = registry.counter("cover.fractional.computed")
        self.c_inv_calls = registry.counter("cache.invalidate.calls")
        self.c_inv_exact = registry.counter("cache.invalidate.exact")
        self.c_inv_greedy = registry.counter("cache.invalidate.greedy")
        self.c_inv_cover = registry.counter("cache.invalidate.cover")
        self.c_inv_frac = registry.counter("cache.invalidate.fractional")

    # -- stores ---------------------------------------------------------

    def store_exact(self, mask: int, size: int) -> None:
        """Record a minimum cover size; seeds the upper layer too."""
        if mask not in self.exact:
            self.exact[mask] = size
            _insort(self._exact_by_size, (size, mask))
        if self.cover.get(mask, size + 1) > size:
            if mask in self.cover:
                self.c_seeded.inc()
            self.cover[mask] = size
            # Improvements are re-inserted so dominance scans see them;
            # the stale larger entry stays behind — it recorded a valid
            # cover size, so it is still a sound (just weaker) bound.
            _insort(self._cover_by_size, (size, mask))

    def store_cover(self, mask: int, size: int) -> None:
        """Record the size of some valid (not necessarily minimum) cover."""
        known = self.cover.get(mask)
        if known is None or size < known:
            self.cover[mask] = size
            _insort(self._cover_by_size, (size, mask))

    def store_fractional(self, mask: int, value: Width) -> None:
        """Record an exact fractional cover optimum (int | Fraction)."""
        if mask not in self.fractional:
            self.fractional[mask] = value
            _insort(self._fractional_by_size, (value, mask))

    # -- targeted invalidation (the incremental re-solve API) -----------

    def invalidate_intersecting(self, touched_mask: int) -> int:
        """Drop every cached bag that intersects ``touched_mask`` (the
        member vertices of an edited hyperedge); returns the number of
        entries dropped.

        Disjoint entries are provably unaffected by the edit and stay:

        * *greedy/exact* — every candidate (and every useful cover edge)
          of a bag intersects the bag, so a bag disjoint from the edited
          edge never saw it and never will;
        * *cover* — a recorded size-``s`` cover of bag ``Q`` restricts
          to the sub-cover of edges intersecting ``Q`` (zero-gain edges
          are redundant), all of which survive an edit disjoint from
          ``Q``, so the recorded size stays a valid upper bound.
        """
        self.c_inv_calls.inc()
        dropped = 0
        for layer, counter in (
            (self.exact, self.c_inv_exact),
            (self.greedy, self.c_inv_greedy),
            (self.cover, self.c_inv_cover),
            (self.fractional, self.c_inv_frac),
        ):
            stale = [mask for mask in layer if mask & touched_mask]
            for mask in stale:
                del layer[mask]
            counter.inc(len(stale))
            dropped += len(stale)
        self._exact_by_size = [
            entry for entry in self._exact_by_size
            if not entry[1] & touched_mask
        ]
        self._cover_by_size = [
            entry for entry in self._cover_by_size
            if not entry[1] & touched_mask
        ]
        self._fractional_by_size = [
            entry for entry in self._fractional_by_size
            if not entry[1] & touched_mask
        ]
        return dropped

    # -- dominance scans ------------------------------------------------

    def superset_bound(self, mask: int, limit: int | None = None) -> int | None:
        """The smallest cached cover of a superset of ``mask`` — an upper
        bound on every cover question about ``mask``.  Entries are scanned
        in ascending size, so the first superset hit is the best one;
        ``limit`` stops the scan early once sizes can no longer be of
        interest to the caller."""
        scanned = 0
        for size, cached in self._cover_by_size:
            if limit is not None and size > limit:
                return None
            scanned += 1
            if scanned > DOMINANCE_SCAN_CAP:
                return None
            if mask & ~cached == 0:
                return size
        return None

    def subset_bound(self, mask: int, floor: int = 0) -> int:
        """The largest cached *exact* value of a subset of ``mask`` — a
        lower bound on ``mask``'s minimum cover.  Descending size scan;
        the first subset hit is the best one.  ``floor`` is the caller's
        own lower bound (the scan stops once it cannot be beaten)."""
        scanned = 0
        for size, cached in reversed(self._exact_by_size):
            if size <= floor:
                return floor
            scanned += 1
            if scanned > DOMINANCE_SCAN_CAP:
                return floor
            if cached & ~mask == 0:
                return size
        return floor

    def fractional_superset_bound(
        self, mask: int, limit: Width | None = None
    ) -> Width | None:
        """The smallest cached fractional optimum of a superset of
        ``mask`` — a restriction of that superset's cover covers
        ``mask``, so it upper-bounds the query.  Ascending scan, same
        contract as :meth:`superset_bound`."""
        scanned = 0
        for size, cached in self._fractional_by_size:
            if limit is not None and size > limit:
                return None
            scanned += 1
            if scanned > DOMINANCE_SCAN_CAP:
                return None
            if mask & ~cached == 0:
                return size
        return None

    def fractional_subset_bound(self, mask: int, floor: Width) -> Width:
        """The largest cached fractional optimum of a subset of ``mask``
        — fractional covers are monotone under inclusion, so it
        lower-bounds the query.  Descending scan, same contract as
        :meth:`subset_bound`."""
        scanned = 0
        for size, cached in reversed(self._fractional_by_size):
            if size <= floor:
                return floor
            scanned += 1
            if scanned > DOMINANCE_SCAN_CAP:
                return floor
            if cached & ~mask == 0:
                return size
        return floor


def _insort(entries: list[tuple[int, int]], item: tuple[int, int]) -> None:
    import bisect

    bisect.insort(entries, item)


class BitCoverEngine:
    """Mask-native set covers over one hypergraph, with a shared
    :class:`CoverCache`.

    The engine is built once per search / GA run (it snapshots the
    hypergraph's incidence index, so the hypergraph must not mutate while
    the engine is live — except through :meth:`apply_edit`, which replays
    an ``EditTicket`` into the snapshot and invalidates only the touched
    cache entries) and answers every bag-cover question the run asks.
    Pass a shared :class:`~repro.telemetry.metrics.Metrics` registry to
    export the cache counters.
    """

    def __init__(self, hypergraph: Hypergraph, metrics: Metrics | None = None):
        index = hypergraph.incidence_index()
        self.hypergraph = hypergraph
        self.vertex_bit: dict = index.vertex_bit
        self.vertex_labels: list = index.vertex_labels
        self.edge_names: list = list(index.edge_labels)
        self.edge_masks: list[int] = [
            index.edge_vertex_masks[name] for name in self.edge_names
        ]
        # Deterministic tie-break rank: position in repr-sorted name order
        # (the tie-break of greedy_set_cover / exact_set_cover, hoisted
        # out of the hot loops into one precomputed int per edge).
        by_repr = sorted(
            range(len(self.edge_names)),
            key=lambda i: repr(self.edge_names[i]),
        )
        self.edge_order: list[int] = [0] * len(self.edge_names)
        for rank, i in enumerate(by_repr):
            self.edge_order[i] = rank
        # vertex bit -> edge-space mask of incident edges.
        self.vertex_edges: list[int] = [0] * len(self.vertex_labels)
        for i, mask in enumerate(self.edge_masks):
            bit = 1 << i
            m = mask
            while m:
                low = m & -m
                m ^= low
                self.vertex_edges[low.bit_length() - 1] |= bit
        self.max_edge_size = max(
            (m.bit_count() for m in self.edge_masks), default=1
        )
        self.cache = CoverCache(metrics)
        # ``(optimum, weights)`` of every cover LP solved so far, so a
        # certificate built after a search re-solves none of them.
        self._fractional_solved: dict[int, tuple[Width, dict]] = {}

    # ------------------------------------------------------------------
    # Incremental edits (the EditTicket consumer)
    # ------------------------------------------------------------------

    def apply_edit(self, ticket) -> int:
        """Apply one hyperedge edit in place; returns the number of
        cache entries invalidated.

        ``ticket`` is the :class:`~repro.hypergraph.hypergraph.EditTicket`
        returned by ``Hypergraph.add_edge``/``remove_edge`` — the
        hypergraph referenced by this engine must already contain the
        edit.  The engine's tables are updated to match a fresh build of
        the edited hypergraph exactly (vertex bits follow the
        hypergraph's insertion order, edge ranks are recomputed), and
        only the cover-cache entries intersecting the edited edge's
        members are dropped (see
        :meth:`CoverCache.invalidate_intersecting`); everything else —
        interning, memoized covers of untouched bags — survives.
        """
        # Intern vertices the edit introduced, in hypergraph insertion
        # order so the numbering matches a from-scratch engine.
        for v in self.hypergraph.vertex_list()[len(self.vertex_labels):]:
            self.vertex_bit[v] = len(self.vertex_labels)
            self.vertex_labels.append(v)
            self.vertex_edges.append(0)
        touched = 0
        for v in ticket.members:
            bit = self.vertex_bit.get(v)
            if bit is not None:
                touched |= 1 << bit
        if ticket.kind == "add":
            self.edge_names.append(ticket.name)
            self.edge_masks.append(touched)
        elif ticket.kind == "remove":
            position = self.edge_names.index(ticket.name)
            del self.edge_names[position]
            del self.edge_masks[position]
        else:
            raise ValueError(f"unknown edit kind {ticket.kind!r}")
        # Edge-space tables are small (O(m) ints): rebuild rather than
        # patch.  Relative repr ranks of surviving edges are preserved,
        # so memoized greedy picks for untouched bags stay valid.
        by_repr = sorted(
            range(len(self.edge_names)),
            key=lambda i: repr(self.edge_names[i]),
        )
        self.edge_order = [0] * len(self.edge_names)
        for rank, i in enumerate(by_repr):
            self.edge_order[i] = rank
        self.vertex_edges = [0] * len(self.vertex_labels)
        for i, mask in enumerate(self.edge_masks):
            bit = 1 << i
            m = mask
            while m:
                low = m & -m
                m ^= low
                self.vertex_edges[low.bit_length() - 1] |= bit
        self.max_edge_size = max(
            (m.bit_count() for m in self.edge_masks), default=1
        )
        # Weights name edges: drop them all rather than reason about
        # which survive the edit.
        self._fractional_solved.clear()
        return self.cache.invalidate_intersecting(touched)

    # ------------------------------------------------------------------
    # Interning helpers
    # ------------------------------------------------------------------

    def mask_of(self, vertices: Iterable) -> int:
        """OR of the interned bits of ``vertices``."""
        mask = 0
        vertex_bit = self.vertex_bit
        try:
            for v in vertices:
                mask |= 1 << vertex_bit[v]
        except KeyError:
            missing = [v for v in vertices if v not in vertex_bit]
            raise SetCoverError(
                f"vertices {sorted(map(repr, missing))} occur in no hyperedge"
            ) from None
        return mask

    def mask_to_vertices(self, mask: int) -> list:
        """Vertex labels of the bits set in ``mask`` (ascending bits)."""
        labels = self.vertex_labels
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(labels[low.bit_length() - 1])
        return out

    def _candidate_edges(self, bag_mask: int) -> int:
        """Edge-space mask of the edges incident to ``bag_mask``; raises
        :class:`SetCoverError` when some bag vertex is uncoverable."""
        vertex_edges = self.vertex_edges
        candidates = 0
        m = bag_mask
        while m:
            low = m & -m
            m ^= low
            incident = vertex_edges[low.bit_length() - 1]
            if not incident:
                raise SetCoverError(
                    f"vertices [{self.vertex_labels[low.bit_length() - 1]!r}]"
                    " occur in no hyperedge"
                )
            candidates |= incident
        return candidates

    # ------------------------------------------------------------------
    # Greedy cover (bit-identical to greedy.greedy_set_cover, rng=None)
    # ------------------------------------------------------------------

    def greedy_cover(self, bag_mask: int) -> list[Hashable]:
        """The deterministic greedy cover of ``bag_mask`` (edge names).

        Each round picks the edge covering the most uncovered vertices,
        ties broken by name ``repr`` — the same choice sequence as
        :func:`~repro.setcover.greedy.greedy_set_cover` with ``rng=None``,
        so sizes (and names) agree exactly.

        Implemented as a lazy-evaluation greedy: candidates sit in a heap
        under ``(-gain, rank)`` keys that may be stale.  Coverage gains
        only shrink as vertices get covered, so a popped entry whose key
        is still current is exactly the full scan's argmax (every other
        entry's current key is at least its stored key, which is at least
        the popped key) — same picks, without re-scoring every candidate
        every round.
        """
        if not bag_mask:
            return []
        candidate_mask = self._candidate_edges(bag_mask)
        edge_masks = self.edge_masks
        edge_order = self.edge_order
        heap: list[tuple[int, int, int]] = []
        m = candidate_mask
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            gain = (edge_masks[e] & bag_mask).bit_count()
            if gain:
                heap.append((-gain, edge_order[e], e))
        heapq.heapify(heap)
        uncovered = bag_mask
        chosen: list[Hashable] = []
        while uncovered:
            while heap:
                neg_gain, rank, e = heap[0]
                gain = (edge_masks[e] & uncovered).bit_count()
                if gain == -neg_gain:
                    break
                if gain:
                    heapq.heapreplace(heap, (-gain, rank, e))
                else:
                    heapq.heappop(heap)
            if not heap:
                remaining = self.mask_to_vertices(uncovered)
                raise SetCoverError(
                    f"vertices {sorted(map(repr, remaining))} occur in no "
                    "hyperedge"
                )
            _, _, e = heapq.heappop(heap)
            chosen.append(self.edge_names[e])
            uncovered &= ~edge_masks[e]
        return chosen

    def greedy_size(self, bag_mask: int) -> int:
        """Memoized size of the deterministic greedy cover.

        This is the GA fitness path: values are exactly
        ``len(greedy_set_cover(bag, hypergraph))``, never substituted by
        smaller known covers, so GA runs stay bit-identical to the
        frozenset implementation.
        """
        cache = self.cache
        size = cache.greedy.get(bag_mask)
        if size is not None:
            cache.c_greedy_hit.inc()
            return size
        size = len(self.greedy_cover(bag_mask))
        cache.c_greedy_computed.inc()
        cache.greedy[bag_mask] = size
        cache.store_cover(bag_mask, size)
        return size

    # ------------------------------------------------------------------
    # Exact cover (same minima as exact.exact_set_cover)
    # ------------------------------------------------------------------

    def exact_cover(self, bag_mask: int) -> list[Hashable]:
        """A minimum-cardinality cover of ``bag_mask`` (edge names)."""
        forced, names = self._exact_cover_uncached(bag_mask, upper=None)
        return forced + names

    def exact_size(self, bag_mask: int) -> int:
        """Memoized minimum cover cardinality, answered through the
        dominance cache when possible."""
        cache = self.cache
        size = cache.exact.get(bag_mask)
        if size is not None:
            cache.c_exact_hit.inc()
            return size
        if not bag_mask:
            return 0
        # Dominance: cached exact subsets raise the floor, cached covers
        # of supersets drop the ceiling; equality answers the query.
        floor = -(-bag_mask.bit_count() // self.max_edge_size)
        fractional = cache.fractional.get(bag_mask)
        if fractional is not None:
            # Cross-layer: the integral optimum is at least the
            # fractional one, rounded up.
            floor = max(floor, math.ceil(fractional))
        ceiling = cache.superset_bound(bag_mask)
        if ceiling is not None:
            floor = cache.subset_bound(bag_mask, floor)
            if floor >= ceiling:
                cache.c_exact_dominance.inc()
                cache.store_exact(bag_mask, ceiling)
                return ceiling
        forced, names = self._exact_cover_uncached(
            bag_mask, upper=ceiling, lower_cutoff=floor
        )
        size = len(forced) + len(names)
        if ceiling is not None and size > ceiling:
            # The search was seeded with the ceiling as a *strict* upper
            # bound, so a minimum equal to the ceiling is pruned and the
            # greedy fallback can come back larger.  Exhaustion then
            # proves min >= ceiling, and the cached superset cover
            # witnesses min <= ceiling, so the ceiling is the exact size.
            size = ceiling
        cache.c_exact_computed.inc()
        cache.store_exact(bag_mask, size)
        return size

    def _exact_cover_uncached(
        self,
        bag_mask: int,
        upper: int | None,
        lower_cutoff: int = 0,
    ) -> tuple[list[Hashable], list[Hashable]]:
        """Forced + branched minimum cover of ``bag_mask``.

        ``upper`` is an externally known valid cover size (dominance
        ceiling) used to seed the branch and bound; ``lower_cutoff`` lets
        the search stop as soon as it matches a proven lower bound.
        """
        if not bag_mask:
            return [], []
        candidate_mask = self._candidate_edges(bag_mask)
        edge_masks = self.edge_masks
        candidates: list[tuple[int, int]] = []  # (edge bit, restricted mask)
        m = candidate_mask
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            restricted = edge_masks[e] & bag_mask
            if restricted:
                candidates.append((e, restricted))
        forced_edges, candidates, uncovered = self._reduce(
            bag_mask, candidates
        )
        forced = [self.edge_names[e] for e in forced_edges]
        if not uncovered:
            return forced, []
        greedy_names = self.greedy_cover(uncovered)
        upper_seed = len(greedy_names)
        if upper is not None:
            upper_seed = min(upper_seed, upper - len(forced))
        search = _MaskCoverSearch(
            uncovered,
            candidates,
            self.edge_order,
            initial_upper=len(greedy_names),
            upper_hint=upper_seed,
            lower_cutoff=max(0, lower_cutoff - len(forced)),
        )
        solution = search.solve()
        if solution is None:
            return forced, greedy_names
        return forced, [self.edge_names[e] for e in solution]

    def _reduce(
        self, bag_mask: int, candidates: list[tuple[int, int]]
    ) -> tuple[list[int], list[tuple[int, int]], int]:
        """Forced-edge and dominance reductions to fixpoint (the mask
        port of :func:`repro.setcover.exact._reduce`)."""
        forced: list[int] = []
        uncovered = bag_mask
        current = list(candidates)
        edge_order = self.edge_order
        changed = True
        while changed and uncovered:
            changed = False
            # Forced edges: a vertex with a unique covering candidate.
            seen_once = 0
            seen_twice = 0
            for _, members in current:
                seen_twice |= seen_once & members
                seen_once |= members
            unique = uncovered & seen_once & ~seen_twice
            if unique:
                target = unique & -unique
                for e, members in current:
                    if members & target:
                        forced.append(e)
                        uncovered &= ~members
                        changed = True
                        break
                if changed:
                    current = [
                        (e, members & uncovered)
                        for e, members in current
                        if e not in forced and members & uncovered
                    ]
                    continue
            # Dominance: drop candidates strictly contained in another.
            ordered = sorted(
                current,
                key=lambda item: (-item[1].bit_count(), edge_order[item[0]]),
            )
            survivors: list[tuple[int, int]] = []
            dominated = set()
            for i, (e, members) in enumerate(ordered):
                if e in dominated:
                    continue
                for e2, members2 in ordered[i + 1:]:
                    if (
                        e2 not in dominated
                        and members2 != members
                        and members2 & ~members == 0
                    ):
                        dominated.add(e2)
                survivors.append((e, members))
            if dominated:
                current = [
                    item for item in current if item[0] not in dominated
                ]
                changed = True
        return forced, current, uncovered

    # ------------------------------------------------------------------
    # Upper-bound covers (completion bounds; any valid cover size)
    # ------------------------------------------------------------------

    def upper_size(self, bag_mask: int, good_enough: int | None = None) -> int:
        """The size of *some* valid cover of ``bag_mask`` — at most the
        greedy size, often better (exact results seed this layer).

        ``good_enough`` declares that the caller only needs to know
        whether a cover of at most that size exists: a dominance answer
        ``<= good_enough`` is returned without running a cover, even if
        greedy might have done better (the searches pass their current
        partial width ``g``; any value ``<= g`` closes the subtree
        identically).
        """
        if not bag_mask:
            return 0
        cache = self.cache
        size = cache.cover.get(bag_mask)
        if size is not None:
            cache.c_upper_hit.inc()
            return size
        ceiling = cache.superset_bound(bag_mask, limit=good_enough)
        if ceiling is not None and (
            good_enough is not None and ceiling <= good_enough
        ):
            cache.c_upper_dominance.inc()
            cache.store_cover(bag_mask, ceiling)
            return ceiling
        size = self.greedy_size(bag_mask)
        cache.c_upper_computed.inc()
        if ceiling is not None and ceiling < size:
            size = ceiling
            cache.store_cover(bag_mask, size)
        return size

    # ------------------------------------------------------------------
    # Fractional covers (the fhw LP layer)
    # ------------------------------------------------------------------

    def fractional_size(self, bag_mask: int) -> Width:
        """Memoized exact fractional cover optimum of ``bag_mask``.

        ``int`` or ``Fraction``, never float.  Answered through the
        dominance cache when possible: fractional entries dominate by
        superset/subset exactly like integral ones, and the integral
        ``cover`` layer supplies cross-layer ceilings (every integral
        cover is a fractional cover).  Only when floor and ceiling stay
        apart does the rational simplex run.
        """
        cache = self.cache
        value = cache.fractional.get(bag_mask)
        if value is not None:
            cache.c_frac_hit.inc()
            return value
        if not bag_mask:
            return 0
        # Floor: b vertices, every edge covers at most ``rank`` of them,
        # so any fractional cover weighs at least b/rank.  Cached
        # fractional subsets can only raise it.
        floor: Width = as_width(
            Fraction(bag_mask.bit_count(), self.max_edge_size)
        )
        ceiling = cache.fractional_superset_bound(bag_mask)
        integral = cache.superset_bound(bag_mask)
        if integral is not None and (ceiling is None or integral < ceiling):
            ceiling = integral
        if ceiling is not None:
            floor = cache.fractional_subset_bound(bag_mask, floor)
            if floor >= ceiling:
                cache.c_frac_dominance.inc()
                value = as_width(ceiling)
                cache.store_fractional(bag_mask, value)
                return value
        solved = self._fractional_uncached(bag_mask)
        self._fractional_solved[bag_mask] = solved
        value = solved[0]
        cache.c_frac_computed.inc()
        cache.store_fractional(bag_mask, value)
        return value

    def fractional_cover(
        self, bag_mask: int
    ) -> tuple[Width, dict[Hashable, Fraction]]:
        """The optimum and an optimal weight map ``{edge name: weight}``
        (support only) — the certificate payload for
        :func:`repro.verify.check_fhd`.  Reuses the weights of an LP this
        engine already solved for ``bag_mask``."""
        if not bag_mask:
            return 0, {}
        solved = self._fractional_solved.get(bag_mask)
        if solved is None:
            solved = self._fractional_uncached(bag_mask)
            self._fractional_solved[bag_mask] = solved
            self.cache.store_fractional(bag_mask, solved[0])
        value, weights = solved
        return value, dict(weights)

    def _fractional_uncached(
        self, bag_mask: int
    ) -> tuple[Width, dict[Hashable, Fraction]]:
        """Run the reductions plus the rational simplex on ``bag_mask``.

        The integral reductions of :meth:`_reduce` stay sound here: a
        vertex with a unique covering edge forces weight >= 1 on it (and
        exactly 1 at some optimum — extra weight helps no constraint
        outside the already-satisfied edge), and a candidate whose
        restriction is contained in another's can hand its weight to the
        superset edge.
        """
        candidate_mask = self._candidate_edges(bag_mask)
        edge_masks = self.edge_masks
        candidates: list[tuple[int, int]] = []
        m = candidate_mask
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            restricted = edge_masks[e] & bag_mask
            if restricted:
                candidates.append((e, restricted))
        forced_edges, candidates, uncovered = self._reduce(
            bag_mask, candidates
        )
        weights: dict[Hashable, Fraction] = {
            self.edge_names[e]: Fraction(1) for e in forced_edges
        }
        value: Width = len(forced_edges)
        if uncovered:
            lp_value, lp_weights = fractional_cover_masks(
                uncovered, [members for _, members in candidates]
            )
            value = as_width(value + lp_value)
            for (e, _), weight in zip(candidates, lp_weights):
                if weight > 0:
                    name = self.edge_names[e]
                    weights[name] = weights.get(name, Fraction(0)) + weight
        return value, weights

    # ------------------------------------------------------------------
    # Ranks (satellite: remaining_rank as popcounts over edge masks)
    # ------------------------------------------------------------------

    def restricted_rank(self, remaining_mask: int) -> int:
        """Largest hyperedge restriction to ``remaining_mask`` (at least
        1, matching the legacy ``GhwSearchContext.remaining_rank``)."""
        best = 1
        for mask in self.edge_masks:
            cut = (mask & remaining_mask).bit_count()
            if cut > best:
                best = cut
        return best


class _MaskCoverSearch:
    """Depth-first branch and bound over mask covers (the bit port of
    :class:`repro.setcover.exact._CoverSearch`)."""

    __slots__ = (
        "_initial", "_upper", "_best", "_max_size", "_cutoff",
        "_bit_options", "_bit_counts",
    )

    def __init__(
        self,
        uncovered: int,
        candidates: list[tuple[int, int]],
        edge_order: list[int],
        initial_upper: int,
        upper_hint: int,
        lower_cutoff: int = 0,
    ):
        self._initial = uncovered
        # The greedy warm start is an achievable fallback; an external
        # dominance ceiling may prune harder but is not a witness here.
        self._upper = min(initial_upper, upper_hint) \
            if upper_hint < initial_upper else initial_upper
        self._best: list[int] | None = None
        self._max_size = max(
            (m.bit_count() for _, m in candidates), default=1
        )
        self._cutoff = lower_cutoff
        # The candidate pool is static throughout the search, so the
        # per-vertex structure is hoisted out of the branching loop:
        # options per pivot bit (pre-sorted by size then name rank — a
        # static approximation of the by-gain order) and static cover
        # counts per bit (the branching rule's tie-break statistic).
        self._bit_options: dict[int, list[tuple[int, int]]] = {}
        self._bit_counts: dict[int, int] = {}
        ordered = sorted(
            candidates,
            key=lambda item: (-item[1].bit_count(), edge_order[item[0]]),
        )
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            options = [item for item in ordered if item[1] >> b & 1]
            self._bit_options[b] = options
            self._bit_counts[b] = len(options)

    def solve(self) -> list[int] | None:
        self._branch(self._initial, [])
        return self._best

    def _branch(self, uncovered: int, chosen: list[int]) -> None:
        if not uncovered:
            if self._best is None or len(chosen) < self._upper:
                self._best = list(chosen)
                self._upper = len(chosen)
            return
        if self._best is not None and len(self._best) <= self._cutoff:
            return  # proven optimal by the caller's lower bound
        lower = len(chosen) + math.ceil(
            uncovered.bit_count() / self._max_size
        )
        if lower >= self._upper:
            return
        # Branch on the uncovered vertex with the fewest covering
        # candidates (the most constrained choice point).
        bit_counts = self._bit_counts
        pivot = -1
        best_count = None
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            count = bit_counts[b]
            if best_count is None or count < best_count:
                best_count = count
                pivot = b
        options = self._bit_options[pivot]
        if len(options) > 1:
            options = sorted(
                options,
                key=lambda item: -(item[1] & uncovered).bit_count(),
            )
        for e, members in options:
            chosen.append(e)
            self._branch(uncovered & ~members, chosen)
            chosen.pop()
            if self._best is not None and len(self._best) <= self._cutoff:
                return
