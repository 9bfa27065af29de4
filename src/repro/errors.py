"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
taxonomy has three branches (see ``docs/robustness.md`` for the full
contract and which layer raises what):

* **input errors** -- :class:`GraphError`, :class:`WeightError`,
  :class:`PartitionError`, :class:`BalanceError`: the request itself is
  malformed; raised by the validation front-door before any work runs.
* **communication errors** -- :class:`CommError` and subclasses: the
  simulated network misbehaved.  :class:`TransientCommError` kinds are
  retryable (the parallel driver retries them with backoff);
  :class:`PermanentCommError` kinds are not.
* **fault-handling errors** -- :class:`FaultError` and subclasses: the
  recovery machinery itself gave up (retry budget, phase timeout, bad
  fault spec), plus :class:`DegradedResult`, raised in strict mode when
  the driver would otherwise fall back to the serial path.
* **serving errors** -- :class:`ServeError` and subclasses: the
  :mod:`repro.serve` front-end failed a request (deadline exceeded,
  service shut down) even though the request itself was well-formed.
* **observability errors** -- :class:`ObsError`: the :mod:`repro.obs`
  tooling could not use an artifact (missing/malformed drift baseline,
  invalid Prometheus exposition).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """The graph structure is malformed or violates a required invariant."""


class GraphFormatError(GraphError):
    """A graph file could not be parsed."""


class WeightError(ReproError):
    """Vertex or edge weights are malformed (wrong shape, negative, NaN,
    ragged, ...)."""


class PartitionError(ReproError):
    """A partitioning request is invalid or a partition vector is malformed."""


class BalanceError(PartitionError):
    """A balance constraint cannot be represented or satisfied."""


class OptionsError(PartitionError):
    """A :class:`~repro.partition.PartitionOptions` keyword does not exist,
    or a named choice (``matching``, ``effort``, ``init_methods``) is not
    one of its values.

    Raised by ``part_graph(..., **kwargs)`` / ``PartitionOptions.with_``
    when an option name is unknown, with a did-you-mean suggestion for the
    nearest valid field.  A silently-ignored typo (``ubvek=1.02``) would
    otherwise run with the default tolerance -- and, through the serving
    layer, cache the result under key semantics the caller never asked for."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration budget."""


# --------------------------------------------------------------------- #
# Simulated-communication failures (repro.parallel + repro.faults)
# --------------------------------------------------------------------- #


class CommError(ReproError):
    """A simulated communication operation failed.

    Subclasses split into :class:`TransientCommError` (retryable: the
    parallel driver retries the failed phase with backoff) and
    :class:`PermanentCommError` (not retryable: the driver degrades to
    the serial path, or raises :class:`DegradedResult` in strict mode).
    """


class TransientCommError(CommError):
    """A retryable communication failure (lost messages, a rank that is
    temporarily unresponsive).  Retrying the collective may succeed."""


class MessageDropError(TransientCommError):
    """One or more messages of a collective were lost in transit; the
    collective aborted at the superstep barrier and can be retried."""


class RankUnavailableError(TransientCommError):
    """A rank is transiently down (simulated crash-and-reboot); it will
    come back after a bounded number of failed collectives."""


class PermanentCommError(CommError):
    """A communication failure that no amount of retrying can fix."""


class RankCrashedError(PermanentCommError):
    """A rank crashed permanently; every later collective involving it
    fails.  Carries the crashed rank ids in :attr:`ranks`."""

    def __init__(self, message: str, ranks=()):
        super().__init__(message)
        self.ranks = tuple(ranks)


# --------------------------------------------------------------------- #
# Fault-handling layer (repro.faults)
# --------------------------------------------------------------------- #


class FaultError(ReproError):
    """The fault-handling machinery itself failed (bad spec, exhausted
    retry budget, phase timeout)."""


class FaultSpecError(FaultError):
    """A fault specification string/dict could not be parsed or holds
    out-of-range rates."""


class RetryExhaustedError(FaultError):
    """Transient failures persisted past the retry budget of the
    :class:`repro.faults.RecoveryPolicy`.  The original communication
    error is chained as ``__cause__``."""


class PhaseTimeoutError(FaultError):
    """A pipeline phase exceeded its simulated-time budget
    (``RecoveryPolicy.phase_timeout``)."""


# --------------------------------------------------------------------- #
# Serving layer (repro.serve)
# --------------------------------------------------------------------- #


class ServeError(ReproError):
    """The partition service failed to deliver a result for a well-formed
    request (the request-validation errors above cover malformed ones)."""


class ServeTimeoutError(ServeError):
    """A served request missed its deadline: either the caller's wait
    timed out, or the request's deadline had already passed when a worker
    picked it up (the compute is skipped, not interrupted)."""


class ServiceClosedError(ServeError):
    """The :class:`repro.serve.PartitionService` was closed; no new
    requests are accepted."""


class ServeOverloadError(ServeError):
    """The service shed this request at admission: the pending-compute
    queue was at its bound (``ServiceConfig.max_pending``) and the
    request's class did not qualify for the remaining headroom.  Shedding
    happens *before* any compute is queued -- retry later, lower the
    offered load, or raise the bound.  Carries the request class in
    :attr:`klass` and the queue depth observed at rejection in
    :attr:`queue_depth`."""

    def __init__(self, message: str, *, klass: str = "interactive",
                 queue_depth: int = 0):
        super().__init__(message)
        self.klass = klass
        self.queue_depth = queue_depth


class ImproverRejectedError(ServeError):
    """The background improver could not upgrade a cached entry.

    Raised by :meth:`repro.serve.improver.Improver.improve_digest` when the
    entry is gone from the cache, its graph was not retained
    (``ServiceConfig.retain_graphs``), it is already at the target effort
    level, or its request is uncacheable.  Carries the request digest in
    :attr:`digest` and the machine-readable cause in :attr:`reason`
    (``"missing"`` / ``"no_graph"`` / ``"already_high"`` /
    ``"uncacheable"``).  The sweep API (``Improver.run_once``) records
    rejections as counters instead of raising."""

    def __init__(self, message: str, *, digest: str = "", reason: str = ""):
        super().__init__(message)
        self.digest = digest
        self.reason = reason


class ServeBatchError(ServeError):
    """One or more requests of a :meth:`PartitionService.batch` failed.

    The batch is gathered to completion before this is raised, so the
    successful results are not abandoned: :attr:`results` holds the
    per-request outcome in submission order (a
    :class:`~repro.partition.PartitionResult` or ``None`` for a failed
    slot) and :attr:`errors` maps each failed index to the exception that
    killed it."""

    def __init__(self, message: str, *, results=(), errors=None):
        super().__init__(message)
        self.results = list(results)
        self.errors = dict(errors or {})


class ObsError(ReproError):
    """An observability artifact is unusable: a drift baseline is missing
    or malformed, or a Prometheus exposition fails validation
    (:func:`repro.obs.expose.parse_exposition`).  Partitioning itself never
    raises this -- only the :mod:`repro.obs` tooling around it."""


class DegradedResult(ReproError):
    """Raised *instead of* degrading to the serial fallback when strict
    mode (``strict=True`` / ``RecoveryPolicy(allow_degraded=False)``)
    forbids it.  ``reason`` holds the human-readable cause; the original
    failure is chained as ``__cause__``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
