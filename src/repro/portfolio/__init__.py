"""Parallel anytime portfolio solver with shared incumbent bounds.

Races the repo's exact width searches (A*/BB for tw, ghw and fhw,
opt-k-decomp for hw) in worker processes; workers exchange incumbent
bounds through a shared channel so each tightens its pruning from the
others' progress.  See :func:`run_portfolio`.
"""

from .backends import (
    BACKENDS,
    DEFAULT_BACKENDS,
    BackendConfig,
    BackendReport,
    BackendSpec,
    resolve_backends,
)
from .incremental import (
    IncrementalResult,
    IncrementalSolveError,
    IncrementalSolver,
)
from .runner import PortfolioError, PortfolioResult, run_portfolio
from .shared import BoundEvent, EventRecorder, SharedBounds, make_worker_hooks

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKENDS",
    "BackendConfig",
    "BackendReport",
    "BackendSpec",
    "BoundEvent",
    "EventRecorder",
    "IncrementalResult",
    "IncrementalSolveError",
    "IncrementalSolver",
    "PortfolioError",
    "PortfolioResult",
    "SharedBounds",
    "make_worker_hooks",
    "resolve_backends",
    "run_portfolio",
]
