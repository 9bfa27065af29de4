"""Coarsening phase: matchings and the multilevel coarsener."""

from .coarsener import Hierarchy, Level, coarsen
from .matching import (
    MATCHERS,
    balanced_edge_matching,
    heavy_edge_matching,
    is_matching,
    matching_to_cmap,
    random_matching,
    two_hop_matching,
)

__all__ = [
    "coarsen",
    "Hierarchy",
    "Level",
    "random_matching",
    "heavy_edge_matching",
    "balanced_edge_matching",
    "matching_to_cmap",
    "two_hop_matching",
    "is_matching",
    "MATCHERS",
]
