"""Configuration objects for the partitioning drivers."""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace

from ..errors import OptionsError, PartitionError

__all__ = ["PartitionOptions", "check_option_kwargs"]


@dataclass(frozen=True)
class PartitionOptions:
    """Tuning knobs of the multilevel partitioners.

    The defaults mirror the paper's experimental setup: heavy-edge matching
    with balanced-edge tie-break, 5% imbalance tolerance, best-of-4 initial
    bisections.

    Attributes
    ----------
    ubvec:
        Per-constraint load-imbalance tolerance; a scalar applies to every
        constraint.  The paper uses 1.05.
    seed:
        RNG seed (int / Generator / None).
    matching:
        Matching scheme for coarsening: ``"hem"`` (default, balanced-edge
        tie-break), ``"bem"``, ``"rm"``, or ``"fhem"`` (vectorised
        handshaking HEM -- fastest, no balanced-edge tie-break).
    coarsen_to:
        Coarsest-graph size for 2-way multilevel bisection (default 100).
        A (sub)graph of at most ``2 * coarsen_to`` vertices is bisected
        directly, without coarsening.
    kway_coarsen_factor:
        The k-way driver coarsens to ``max(kway_coarsen_factor * nparts,
        coarsen_to)`` vertices.
    max_coarsen_levels, min_shrink:
        Coarsening loop bounds (see :func:`repro.coarsen.coarsen`).
    init_ntries:
        Candidate rounds in the initial bisection.
    init_methods:
        Candidate-generation methods for the initial bisection (a subset of
        :data:`repro.initpart.INITIAL_METHODS`; unknown names raise
        :class:`~repro.errors.OptionsError` with a suggestion).
    init_diverse_rounds:
        How many of the ``init_ntries`` rounds run *every* method; later
        rounds re-try only the seed-sensitive graph-growing methods.
    init_patience:
        Plateau patience of the initial bisection: stop refining candidates
        once the best (feasible, cut, balance) key has gone this many
        refined candidates without improving.  0 disables the early stop.
    strict_ntries:
        Run the exact legacy multi-start (every round runs every method,
        no plateau stop, no duplicate skipping).
    refine_passes:
        FM passes per uncoarsening level (2-way).
    kway_refine_passes:
        Greedy passes per uncoarsening level (k-way).
    collect_stats:
        Record a multilevel trace (per-level sizes, cut and imbalance after
        each refinement step, phase timings) in ``PartitionResult.stats``
        as a :class:`repro.trace.TraceReport`.  Equivalent to passing a
        private in-memory :class:`repro.trace.Tracer` via
        ``part_graph(..., tracer=...)``; off by default so the hot path
        runs on the no-op tracer.
    effort:
        Quality/time trade-off preset: ``"fast"`` (cheaper initial
        partitioning -- fewer candidate rounds and refinement passes),
        ``"standard"`` (default; bit-identical to the historical single
        V-cycle pipeline) or ``"high"`` (run the standard pipeline, then
        iterated V-cycles via :func:`repro.partition.vcycle.vcycle_improve`
        -- cut is never worse than standard).  See docs/api.md
        "Effort levels".
    vcycle_max:
        Maximum number of iterated V-cycles under ``effort="high"``.
    vcycle_patience:
        Stop iterating after this many consecutive non-improving V-cycles.
    """

    ubvec: object = 1.05
    seed: object = None
    matching: str = "hem"
    coarsen_to: int = 100
    kway_coarsen_factor: int = 30
    max_coarsen_levels: int = 60
    min_shrink: float = 0.95
    init_ntries: int = 5
    init_methods: tuple = ("greedy", "prefix", "region", "gggp")
    init_diverse_rounds: int = 1
    init_patience: int = 6
    strict_ntries: bool = False
    refine_passes: int = 8
    kway_refine_passes: int = 8
    collect_stats: bool = False
    effort: str = "standard"
    vcycle_max: int = 8
    vcycle_patience: int = 2

    def __post_init__(self):
        if self.matching not in ("hem", "bem", "rm", "fhem"):
            raise PartitionError(f"unknown matching scheme {self.matching!r}")
        if self.effort not in ("fast", "standard", "high"):
            raise OptionsError(
                f"unknown effort level {self.effort!r}; "
                "pick from 'fast', 'standard', 'high'")
        if self.vcycle_max < 1 or self.vcycle_patience < 1:
            raise PartitionError("vcycle_max/vcycle_patience must be >= 1")
        if self.coarsen_to < 2:
            raise PartitionError("coarsen_to must be >= 2")
        if self.init_ntries < 1 or self.refine_passes < 0 or self.kway_refine_passes < 0:
            raise PartitionError("iteration counts must be positive")
        if self.init_patience < 0 or self.init_diverse_rounds < 0:
            raise PartitionError("init_patience/init_diverse_rounds must be >= 0")
        if not isinstance(self.init_methods, tuple):
            object.__setattr__(self, "init_methods", tuple(self.init_methods))
        if not self.init_methods:
            raise PartitionError("init_methods must name at least one method")
        # Deferred import: repro.initpart imports repro.refine which has no
        # cycle back here, but keeping the import local avoids ordering
        # surprises during package initialisation.
        from ..initpart.bisect import INITIAL_METHODS

        unknown = [m for m in self.init_methods if m not in INITIAL_METHODS]
        if unknown:
            parts = []
            for name in unknown:
                close = difflib.get_close_matches(name, INITIAL_METHODS, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                parts.append(f"{name!r}{hint}")
            raise OptionsError(
                f"unknown init_methods value{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(parts)}; valid methods: {', '.join(INITIAL_METHODS)}"
            )

    def with_(self, **kwargs) -> "PartitionOptions":
        """Functional update (``dataclasses.replace`` wrapper).

        Unknown option names raise :class:`~repro.errors.OptionsError`
        with a did-you-mean suggestion (see :func:`check_option_kwargs`).
        """
        check_option_kwargs(kwargs)
        return replace(self, **kwargs)


#: Valid :class:`PartitionOptions` field names, in declaration order.
OPTION_FIELDS = tuple(f.name for f in fields(PartitionOptions))


def check_option_kwargs(kwargs) -> None:
    """Reject unknown option names with a typed, suggestion-bearing error.

    ``part_graph(g, 8, ubvek=1.02)`` must fail loudly: constructing
    ``PartitionOptions(**kwargs)`` directly raises an untyped ``TypeError``
    deep in dataclass machinery, and anything that *swallowed* the typo
    would silently partition (and cache) under the default tolerance.
    """
    unknown = [name for name in kwargs if name not in OPTION_FIELDS]
    if not unknown:
        return
    parts = []
    for name in unknown:
        close = difflib.get_close_matches(name, OPTION_FIELDS, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        parts.append(f"{name!r}{hint}")
    raise OptionsError(
        f"unknown partition option{'s' if len(unknown) > 1 else ''} "
        f"{', '.join(parts)}; valid options: {', '.join(OPTION_FIELDS)}"
    )
