"""Multilevel diagnostics: coarsening profiles of a
:class:`~repro.coarsen.Hierarchy`, matching efficiency, partition
anatomy.  Per-level profiles of a traced run live in :mod:`repro.obs`."""

from .diagnostics import (
    coarsening_profile,
    matching_efficiency,
    partition_anatomy,
    profile_text,
)

__all__ = [
    "coarsening_profile",
    "matching_efficiency",
    "partition_anatomy",
    "profile_text",
]
