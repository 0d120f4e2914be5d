"""Decomposition certificates and the differential fuzz harness.

``certificate`` is the single source of truth for decomposition
validity; ``fuzz``
turns the checkers plus the solver zoo into a push-button bug finder
with delta-debugged minimal counterexamples.
"""

from .certificate import (
    ALL_KINDS,
    BAG_NOT_COVERED,
    DESCENDANT_CONDITION,
    EDGE_UNCOVERED,
    FRACTIONAL_WEIGHT_INVALID,
    NOT_A_TREE,
    UNKNOWN_LAMBDA_EDGE,
    VERTEX_DISCONNECTED,
    VERTEX_UNCOVERED,
    WIDTH_OVERCLAIM,
    Certificate,
    Violation,
    certify,
    check_decomposition,
    check_fhd,
    check_ghd,
    check_htd,
    check_td,
)
from .fuzz import (
    FAULTS,
    FuzzConfig,
    FuzzFailure,
    FuzzReport,
    load_replay,
    run_fuzz,
    run_replay,
    write_replay,
)

__all__ = [
    "ALL_KINDS",
    "BAG_NOT_COVERED",
    "DESCENDANT_CONDITION",
    "EDGE_UNCOVERED",
    "FRACTIONAL_WEIGHT_INVALID",
    "FAULTS",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "NOT_A_TREE",
    "UNKNOWN_LAMBDA_EDGE",
    "VERTEX_DISCONNECTED",
    "VERTEX_UNCOVERED",
    "WIDTH_OVERCLAIM",
    "Certificate",
    "Violation",
    "certify",
    "check_decomposition",
    "check_fhd",
    "check_ghd",
    "check_htd",
    "check_td",
    "load_replay",
    "run_fuzz",
    "run_replay",
    "write_replay",
]
