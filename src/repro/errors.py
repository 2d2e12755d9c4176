"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(ReproError):
    """A reaction-based model is structurally invalid."""


class KineticsError(ModelError):
    """A kinetic law is malformed or incompatible with its reaction."""


class ParseError(ReproError):
    """A textual model description could not be parsed."""


class SolverError(ReproError):
    """Numerical integration failed or was configured inconsistently."""


class ConvergenceError(SolverError):
    """An iterative method (Newton, power iteration) did not converge."""


class AnalysisError(ReproError):
    """A parameter-space analysis was configured inconsistently."""


class FormatError(ReproError):
    """A model file (BioSimWare folder, SBML document) is malformed."""


class LintError(ReproError):
    """Static analysis failed or found findings above the configured
    severity threshold (see :mod:`repro.lint`)."""


class LintGateError(LintError):
    """A lint gate refused to launch: findings at or above the gate's
    severity threshold.

    Distinct from :class:`LintError` (which also covers analyzer
    malfunctions such as unreadable sources) so that callers — and the
    CLI exit-code contract — can tell "the gate correctly rejected this
    subject" from "the linter itself crashed". Carries the offending
    :class:`~repro.lint.report.LintReport` as ``report``.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ResilienceError(ReproError):
    """A resilience component (retry policy, fault plan, campaign
    checkpoint, shard-executor configuration) is misconfigured, or a
    journal is inconsistent with the campaign it claims to belong to —
    a mismatched fingerprint (including differing solver numerics) or a
    corrupt chunk archive (see :mod:`repro.resilience`)."""


class GuardError(ReproError):
    """A numerical-integrity guard is misconfigured, or the memory
    governor determined that a launch cannot fit the device at any
    split (see :mod:`repro.guards`)."""


class TelemetryError(ReproError):
    """The telemetry layer was misused or fed a malformed artifact.

    Raised when a span nests under an incompatible category, a span
    handle is ended twice, a metric name is reused across instrument
    kinds, or a trace file contains records that do not parse as spans
    (see :mod:`repro.telemetry`).
    """


class ServiceError(ReproError):
    """The multi-tenant campaign service was misused or misconfigured
    (see :mod:`repro.service`): an invalid quota or scheduler setting,
    a request against a stopped service, or an operation on an unknown
    job id."""


class AdmissionError(ServiceError):
    """The service refused to admit a job at submission time.

    Base class for all typed rejections; carries the ``tenant`` the
    decision applied to. Callers that do not care which limit fired
    can catch this single class.
    """

    def __init__(self, message: str, tenant: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant


class QuotaExceeded(AdmissionError):
    """The submitting tenant is at its ``max_queued`` job quota."""


class QueueFull(AdmissionError):
    """The global queue is at capacity and no queued job has strictly
    lower priority than the new one, so nothing could be shed to make
    room."""


class WorkingSetExceeded(AdmissionError):
    """The job's estimated working set (from
    :func:`repro.gpu.perfmodel.memory_footprint_doubles`) exceeds the
    tenant's ``working_set_doubles`` budget."""


class CampaignInterrupted(ResilienceError):
    """A chunked campaign stopped before all launches completed.

    Raised on an injected crash (:class:`repro.resilience.FaultPlan`)
    or a ``KeyboardInterrupt`` during campaign execution — by the
    serial loop and the supervised shard executor alike. Launches that
    finished before the interruption are already journaled, so re-running
    the same campaign with the same checkpoint path resumes instead of
    recomputing them.
    """

    def __init__(self, message: str, checkpoint_path=None,
                 completed_chunks: int = 0) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.completed_chunks = completed_chunks
