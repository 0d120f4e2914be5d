"""Log-depth decomposition via balanced separators.

`balanced` splits instances on balanced separators (arXiv:2104.13793)
instead of racing whole-instance solvers: components become independent
subproblems of an in-process recursion, and the stitched result is
certified by ``repro.verify.check_ghd`` before being reported.  See
DESIGN.md "Parallel decomposition".
"""

from .balanced import (
    BALANCE_LADDER,
    BalancedBudgetExceeded,
    BalancedCertificationError,
    BalancedConfig,
    BalancedCore,
    BalancedError,
    BalancedResult,
    balanced_ghw,
    decide_balanced_ghw,
)

__all__ = [
    "BALANCE_LADDER",
    "BalancedBudgetExceeded",
    "BalancedCertificationError",
    "BalancedConfig",
    "BalancedCore",
    "BalancedError",
    "BalancedResult",
    "balanced_ghw",
    "decide_balanced_ghw",
]
