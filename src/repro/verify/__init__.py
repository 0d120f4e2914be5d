"""Decomposition certificates and the differential fuzz harness.

``certificate`` is the single source of truth for decomposition
validity, and the package re-exports it alone: it imports nothing but
the hypergraph types, so every solver module can import the checkers at
module level.  ``repro.verify.fuzz`` turns the checkers plus the solver
zoo into a push-button bug finder with delta-debugged minimal
counterexamples; import it directly.
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

__all__ = [
    "ALL_KINDS",
    "BAG_NOT_COVERED",
    "DESCENDANT_CONDITION",
    "EDGE_UNCOVERED",
    "FRACTIONAL_WEIGHT_INVALID",
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
]
