"""Tree and generalized hypertree decompositions, elimination orderings,
bucket/vertex elimination, and the Chapter 3 leaf-normal-form machinery."""

from .elimination import (
    OrderingError,
    OrderingEvaluator,
    bucket_elimination,
    check_ordering,
    elimination_bags,
    ghd_from_ordering,
    ghw_ordering_width,
    ordering_width,
    vertex_elimination,
)
from .fhd import FractionalHypertreeDecomposition, fhd_from_ordering
from .ghd import GeneralizedHypertreeDecomposition
from .htd import (
    HypertreeDecomposition,
    htd_from_ordering,
    hypertree_width_upper_bound,
)
from .minimize import is_reduced, remove_subsumed_bags
from .nice import NiceNode, NiceTreeDecomposition
from .render import render_tree_decomposition, summarize_decomposition
from .leaf_normal_form import (
    dca_ordering,
    is_leaf_normal_form,
    ordering_from_decomposition,
    transform_leaf_normal_form,
)
from .tree_decomposition import DecompositionError, TreeDecomposition

__all__ = [
    "DecompositionError",
    "FractionalHypertreeDecomposition",
    "GeneralizedHypertreeDecomposition",
    "HypertreeDecomposition",
    "NiceNode",
    "NiceTreeDecomposition",
    "OrderingError",
    "OrderingEvaluator",
    "TreeDecomposition",
    "bucket_elimination",
    "check_ordering",
    "dca_ordering",
    "elimination_bags",
    "fhd_from_ordering",
    "ghd_from_ordering",
    "htd_from_ordering",
    "hypertree_width_upper_bound",
    "ghw_ordering_width",
    "is_leaf_normal_form",
    "is_reduced",
    "remove_subsumed_bags",
    "ordering_from_decomposition",
    "ordering_width",
    "render_tree_decomposition",
    "summarize_decomposition",
    "transform_leaf_normal_form",
    "vertex_elimination",
]
