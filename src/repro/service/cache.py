"""The bounded LRU decomposition cache behind the service.

Entries live in *canonical coordinates* (see
:mod:`repro.service.canonical`): the certificate ordering is stored as
canonical vertex indices, so one entry serves every isomorphic
resubmission — the hit path maps the ordering through the submitted
instance's own :class:`~repro.service.canonical.CanonicalForm`.

Soundness rests on two gates:

* **Verify-on-insert.**  Nothing enters the cache without its witness
  re-checked by :mod:`repro.verify`: the ordering is rebuilt into a
  decomposition of the *submitted* structure (bucket elimination for tw,
  exact-cover GHD for ghw, rational-LP FHD for fhw; hw ships its
  decomposition as a payload) and :func:`repro.verify.certify` must
  pass with the claimed width — a doctored certificate (wrong ordering,
  overclaimed width) is rejected, counted, and never served to anyone.
* **Collision check.**  A lookup whose key matches but whose canonical
  edge list differs (hash collision, or a budget-fallback key) is
  treated as a miss, so a cached answer can never leak to a
  non-isomorphic instance.

Lower bounds ride along unverified — they are solver proofs, not
witnessed objects, the same trust the portfolio aggregator extends —
but are clamped to the verified upper bound.

The cache is designed for a single asyncio event loop: plain dict
operations, no locking.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..decomposition import (
    HypertreeDecomposition,
    bucket_elimination,
    fhd_from_ordering,
    ghd_from_ordering,
)
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..setcover import exact_set_cover
from ..verify.certificate import certify
from ..widths import Width, as_width
from .canonical import CanonicalForm

METRICS = ("tw", "ghw", "fhw", "hw")


@dataclass
class CacheEntry:
    """One verified decomposition answer, in canonical coordinates."""

    metric: str
    key: str
    num_vertices: int
    canonical_edges: tuple[tuple[int, ...], ...]
    upper: Width
    lower: Width
    exact: bool
    # Canonical certificate ordering; None for hw, whose witness is a
    # decomposition payload verified at insert and not re-served.
    ordering: tuple[int, ...] | None
    backend: str
    solve_seconds: float
    inserted_at: float = field(default_factory=time.monotonic)
    hits: int = 0


class CertificateRejected(ValueError):
    """The witness failed the verify-on-insert gate."""


def build_decomposition(
    metric: str, structure, ordering, witness: dict | None = None
):
    """The witness decomposition a certificate claims, per metric: the
    one ``ordering`` builds for tw/ghw/fhw, the shipped decomposition
    payload ``witness`` for hw.  ghw, fhw and hw need a
    :class:`Hypergraph`."""
    if metric == "tw":
        return bucket_elimination(structure, ordering)
    if metric == "ghw":
        # Exact covers: the greedy λ-labels could measure wider than the
        # solver's claim and spuriously flag an honest certificate.
        return ghd_from_ordering(
            structure, ordering, cover_function=exact_set_cover
        )
    if metric == "fhw":
        return fhd_from_ordering(structure, ordering)
    if metric == "hw":
        return HypertreeDecomposition.from_payload(witness)
    raise ValueError(f"unknown metric {metric!r}")


def verify_witness(
    metric: str,
    structure: Graph | Hypergraph,
    ordering,
    claimed_upper: Width,
    witness: dict | None = None,
) -> list[str]:
    """Check a claimed witness against ``structure``; returns violation
    messages (empty = verified).

    Orderings witness tw/ghw/fhw; hw is witnessed by a decomposition
    *payload* (``witness``, :meth:`HypertreeDecomposition.to_payload`
    shaped) in the submitted structure's native labels.  Every metric's
    decomposition then goes through one :func:`repro.verify.certify`
    call — for hw that is :func:`~repro.verify.check_htd`, descendant
    condition included.

    Any exception while rebuilding the decomposition (ordering is not a
    permutation, unknown vertices, malformed payload, ...) is itself a
    rejection — a malformed certificate must never crash the gate it is
    probing.
    """
    if metric == "hw" and witness is None:
        return ["hw certificate requires a decomposition payload"]
    try:
        if metric != "tw" and not isinstance(structure, Hypergraph):
            structure = Hypergraph.from_graph(structure)
        decomposition = build_decomposition(
            metric, structure, ordering, witness
        )
        certificate = certify(
            decomposition, structure, claimed_width=as_width(claimed_upper)
        )
    except Exception as exc:  # noqa: BLE001 — the gate's whole point
        return [f"certificate rebuild failed: {type(exc).__name__}: {exc}"]
    return [str(v) for v in certificate.violations]


class DecompositionCache:
    """Bounded LRU of :class:`CacheEntry`, keyed by ``(metric, key)``."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self.collisions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple[str, str]]:
        """Cache keys, least-recently-used first (for tests/stats)."""
        return list(self._entries)

    def lookup(self, metric: str, form: CanonicalForm) -> CacheEntry | None:
        """The entry serving ``form``, refreshed in LRU order, or None."""
        entry = self._entries.get((metric, form.key))
        if entry is None:
            self.misses += 1
            return None
        if (
            entry.num_vertices != form.num_vertices
            or entry.canonical_edges != form.edges
        ):
            # Same digest, different structure: never cross-serve.
            self.collisions += 1
            self.misses += 1
            return None
        self._entries.move_to_end((metric, form.key))
        entry.hits += 1
        self.hits += 1
        return entry

    def insert(
        self,
        metric: str,
        form: CanonicalForm,
        structure: Graph | Hypergraph,
        upper: Width,
        lower: Width,
        ordering,
        backend: str,
        solve_seconds: float = 0.0,
        witness: dict | None = None,
    ) -> CacheEntry:
        """Verify the witness and admit it (evicting the LRU entry).

        tw/ghw/fhw verify their ``ordering``; hw verifies the
        decomposition payload ``witness`` instead and stores
        ``ordering=None`` (hw cache hits serve the verified width, not
        the witness).  Raises :class:`CertificateRejected` — and counts
        it — when the witness does not certify; the cache state is then
        unchanged.
        """
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        problems = verify_witness(
            metric, structure, ordering, upper, witness=witness
        )
        if problems:
            self.rejected += 1
            raise CertificateRejected(
                f"certificate rejected for {metric}/{form.key[:12]}: "
                + "; ".join(problems[:3])
            )
        upper = as_width(upper)
        lower = min(as_width(lower), upper)
        entry = CacheEntry(
            metric=metric,
            key=form.key,
            num_vertices=form.num_vertices,
            canonical_edges=form.edges,
            upper=upper,
            lower=lower,
            exact=lower >= upper,
            ordering=(
                None
                if metric == "hw"
                else tuple(form.map_ordering_in(ordering))
            ),
            backend=backend,
            solve_seconds=solve_seconds,
        )
        self._entries[(metric, form.key)] = entry
        self._entries.move_to_end((metric, form.key))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "collisions": self.collisions,
        }
