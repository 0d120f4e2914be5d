"""Decomposition-as-a-service: the long-running server in front of the
portfolio runner.

The pieces, bottom-up:

* :mod:`~repro.service.canonical` — isomorphism-invariant canonical
  forms and SHA-256 keys, so relabeled resubmissions share one cache
  entry.
* :mod:`~repro.service.cache` — the bounded LRU of verified answers
  (each solver-built decomposition checked by :mod:`repro.verify`
  before insertion).
* :mod:`~repro.service.protocol` — the JSONL wire format.
* :mod:`~repro.service.server` — the asyncio server: request
  coalescing, admission control, per-request deadlines and graceful
  bracket degradation over the portfolio's shared-bounds channel.
* :mod:`~repro.service.client` — a thin asyncio client.

Run one with ``python -m repro serve``.
"""

from .cache import CacheEntry, CertificateRejected, DecompositionCache
from .canonical import CanonicalForm, canonical_form, canonical_key
from .client import ServiceClient, solve_sync
from .protocol import ProtocolError
from .server import (
    DecompositionService,
    ServiceConfig,
    SolveOutcome,
    portfolio_solver,
    replay_responses,
    run_service,
)

__all__ = [
    "CacheEntry",
    "CanonicalForm",
    "CertificateRejected",
    "DecompositionCache",
    "DecompositionService",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "SolveOutcome",
    "canonical_form",
    "canonical_key",
    "portfolio_solver",
    "replay_responses",
    "run_service",
    "solve_sync",
]
