"""The bounded LRU decomposition cache behind the service.

Entries live in *canonical coordinates* (see
:mod:`repro.service.canonical`): the served ordering is stored as
canonical vertex indices, so one entry serves every isomorphic
resubmission — the hit path maps the ordering through the submitted
instance's own :class:`~repro.service.canonical.CanonicalForm`.

Soundness rests on two gates:

* **Verify-on-insert.**  Every answer arrives with the decomposition
  its solver built — a tree decomposition for tw, a GHD with its
  λ-labels for ghw, an FHD with its exact γ-weights for fhw, a
  hypertree decomposition for hw — and nothing enters the cache unless
  :func:`repro.verify.certify` accepts it for the *submitted* structure
  at the claimed width.  The gate checks the covers it is given and
  computes none: no set cover, no LP.  When an ordering is served
  with the answer (tw, ghw, fhw), its elimination bags must equal the
  witness's bag at every vertex, which ties the ordering to the
  certified covers.  A doctored certificate (wrong ordering, shaved
  cover, overclaimed width) is rejected, counted, and never served to
  anyone; an answer with no witness is never cached.
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

from collections import OrderedDict
from dataclasses import dataclass

from ..decomposition import (
    FractionalHypertreeDecomposition,
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
    TreeDecomposition,
    elimination_bags,
)
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..verify.certificate import certify
from ..widths import Width, as_width
from .canonical import CanonicalForm

# The decomposition class that witnesses each metric.  Exact types:
# every class is a TreeDecomposition, and certify measures the width its
# duck type offers, so a GHD must not pass for a tw answer.
WITNESS_TYPES = {
    "tw": TreeDecomposition,
    "ghw": GeneralizedHypertreeDecomposition,
    "fhw": FractionalHypertreeDecomposition,
    "hw": HypertreeDecomposition,
}


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
    # The served ordering, in canonical indices; None when the witness
    # came from no ordering (hw, balanced-ghw).
    ordering: tuple[int, ...] | None
    backend: str


class CertificateRejected(ValueError):
    """The witness failed the verify-on-insert gate."""


def verify_witness(
    metric: str,
    structure: Graph | Hypergraph,
    witness: TreeDecomposition | None,
    claimed_upper: Width,
    ordering=None,
) -> list[str]:
    """Check a witness decomposition, and the ``ordering`` served with
    it, against ``structure``; returns violation messages (empty =
    verified).

    Any exception while checking (an ordering that is not a
    permutation, a witness over unknown vertices, ...) is itself a
    rejection — a malformed certificate must never crash the gate it is
    probing.
    """
    expected = WITNESS_TYPES[metric]
    if type(witness) is not expected:
        return [
            f"a {metric} answer needs a {expected.__name__} witness, "
            f"not {type(witness).__name__}"
        ]
    try:
        if metric != "tw" and not isinstance(structure, Hypergraph):
            structure = Hypergraph.from_graph(structure)
        certificate = certify(
            witness, structure, claimed_width=as_width(claimed_upper)
        )
        problems = [str(v) for v in certificate.violations]
        if ordering is not None and (
            elimination_bags(structure, ordering) != witness.bags
        ):
            problems.append(
                "the served ordering's elimination bags are not the "
                "witness's bags"
            )
    except Exception as exc:  # noqa: BLE001 — the gate's whole point
        return [f"certificate check failed: {type(exc).__name__}: {exc}"]
    return problems


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
        witness: TreeDecomposition | None = None,
    ) -> CacheEntry:
        """Certify the witness and admit it (evicting the LRU entry).

        ``witness`` is the decomposition behind ``upper`` and
        ``ordering`` the elimination ordering served with it (None when
        there is none, as for hw).  Raises :class:`CertificateRejected`
        — and counts it — when either fails :func:`verify_witness`; the
        cache state is then unchanged.
        """
        if metric not in WITNESS_TYPES:
            raise ValueError(f"unknown metric {metric!r}")
        problems = verify_witness(
            metric, structure, witness, upper, ordering=ordering
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
                if ordering is None
                else tuple(form.map_ordering_in(ordering))
            ),
            backend=backend,
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
