"""Chunked campaign execution with checkpoint/resume and deadlines.

:func:`run_campaign` is the resilient counterpart of one big
:func:`repro.core.simulate.simulate` call: the parameter batch is split
into fixed-size chunks, every completed chunk is journaled through
:class:`~repro.io.checkpoint.CampaignCheckpoint`, and a re-run of the
same campaign (same model, batch shape, grid and chunking) skips the
journaled chunks — so a crash or ``KeyboardInterrupt`` costs at most
one chunk of work. A wall-clock ``deadline_seconds`` degrades
gracefully: execution stops between chunks and the partial result is
returned with ``incomplete=True`` instead of raising.

PSA-1D/2D and Sobol SA accept a :class:`CampaignConfig` directly
(``campaign=`` keyword); parameter estimation journals its multi-start
optima through the same checkpoint payloads
(:func:`repro.core.pe.estimate_multi_start`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CampaignInterrupted, ResilienceError
from ..gpu.batch_result import (METHOD_DOPRI5, RUNNING, BatchSolveResult,
                                allocate_result)
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import as_tracer
from .faults import FaultPlan
from .policy import RetryPolicy
from .quarantine import QuarantineLog
from .worker import WorkerSpec


@dataclass(frozen=True)
class CampaignConfig:
    """Execution controls of one resilient campaign.

    Attributes
    ----------
    chunk_size:
        Simulations per journaled chunk — the resume granularity (and
        the most work a crash can lose).
    checkpoint_path:
        JSON journal location; ``None`` disables journaling (chunked
        execution and deadlines still apply).
    deadline_seconds:
        Wall-clock budget for the whole campaign; once exceeded no
        further chunk is started and the partial result is returned
        with ``incomplete=True``. With workers, the remaining budget
        also bounds every in-flight chunk (it is terminated, not
        merely not-started).
    workers:
        Worker processes for the supervised shard executor
        (:mod:`repro.resilience.executor`); ``0`` keeps the in-process
        serial loop. The merged result is byte-identical either way.
    heartbeat_interval:
        Seconds between worker liveness heartbeats.
    heartbeat_timeout:
        Heartbeat silence after which the supervisor declares a worker
        hung, terminates it and reassigns its chunk.
    chunk_timeout:
        Wall-clock cap per chunk attempt under the executor; ``None``
        leaves attempts bounded only by the campaign deadline.
    max_chunk_attempts:
        Attempt budget per chunk (or split piece) before the poison
        ladder kicks in: wider-than-one pieces split in half, width-one
        pieces quarantine their rows as ``WorkerFailure`` records.
    max_worker_restarts:
        Pool-wide restart budget; once spent, a collapsed pool degrades
        to in-process execution (``CampaignResult.degraded``).
    restart_backoff / restart_backoff_cap:
        Capped exponential backoff (seconds) between worker restarts.
    slow_chunk_seconds:
        Chunks taking longer than this are counted in
        ``campaign.executor.slow_chunks``; ``None`` disables the count.
    """

    chunk_size: int = 256
    checkpoint_path: str | Path | None = None
    deadline_seconds: float | None = None
    workers: int = 0
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 2.0
    chunk_timeout: float | None = None
    max_chunk_attempts: int = 3
    max_worker_restarts: int = 8
    restart_backoff: float = 0.05
    restart_backoff_cap: float = 1.0
    slow_chunk_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ResilienceError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.deadline_seconds is not None \
                and not (self.deadline_seconds > 0.0):
            raise ResilienceError(
                f"deadline_seconds must be > 0, got "
                f"{self.deadline_seconds}")
        if self.workers < 0:
            raise ResilienceError(
                f"workers must be >= 0, got {self.workers}")
        if not (self.heartbeat_interval > 0.0):
            raise ResilienceError(
                f"heartbeat_interval must be > 0, got "
                f"{self.heartbeat_interval}")
        if not (self.heartbeat_timeout > self.heartbeat_interval):
            raise ResilienceError(
                "heartbeat_timeout must exceed heartbeat_interval, got "
                f"{self.heartbeat_timeout} <= {self.heartbeat_interval}")
        if self.chunk_timeout is not None \
                and not (self.chunk_timeout > 0.0):
            raise ResilienceError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}")
        if self.max_chunk_attempts < 1:
            raise ResilienceError(
                f"max_chunk_attempts must be >= 1, got "
                f"{self.max_chunk_attempts}")
        if self.max_worker_restarts < 0:
            raise ResilienceError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}")
        if self.restart_backoff < 0.0 or self.restart_backoff_cap < 0.0:
            raise ResilienceError("restart backoff values must be >= 0")
        if self.slow_chunk_seconds is not None \
                and not (self.slow_chunk_seconds > 0.0):
            raise ResilienceError(
                f"slow_chunk_seconds must be > 0, got "
                f"{self.slow_chunk_seconds}")


@dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`.

    ``result`` always covers the *full* batch: rows of chunks that
    never ran (deadline hit) keep NaN trajectories and the
    ``running`` status, exposed as :attr:`pending_mask`.
    """

    result: BatchSolveResult
    incomplete: bool
    deadline_hit: bool
    completed_chunks: int
    total_chunks: int
    resumed_chunks: int
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    checkpoint_path: Path | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: True when the worker pool collapsed and the remaining chunks ran
    #: on the supervisor's in-process fallback.
    degraded: bool = False
    #: True when a ``cancel_event`` stopped the campaign at a chunk
    #: boundary; everything journaled so far resumes exact-once.
    cancelled: bool = False

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantine)

    @property
    def pending_mask(self) -> np.ndarray:
        """Rows whose chunk never executed (shape (B,))."""
        return self.result.status_codes == RUNNING

    def summary(self) -> str:
        state = "incomplete" if self.incomplete else "complete"
        return (f"campaign {state}: {self.completed_chunks}/"
                f"{self.total_chunks} chunks "
                f"({self.resumed_chunks} resumed), "
                f"{self.n_quarantined} quarantined row(s)"
                + (", deadline hit" if self.deadline_hit else "")
                + (", cancelled" if self.cancelled else "")
                + (", degraded to serial" if self.degraded else ""))


def _numerics_digest(options, retry_policy) -> str:
    """Digest of everything that shapes the journaled *numbers*.

    Solver options (tolerances, step caps, controller constants) and
    the retry-policy ladder both change the trajectories a chunk
    produces; resuming a journal written under different numerics would
    silently splice mismatched results, so their digest is part of the
    campaign fingerprint. ``None`` (engine-default) policies hash as a
    sentinel distinct from any explicit ladder.
    """
    payload = {
        "options": None if options is None else asdict(options),
        "retry": None if retry_policy is None else asdict(retry_policy),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def campaign_fingerprint(model, batch_size: int, chunk_size: int,
                         t_span: tuple[float, float],
                         t_eval: np.ndarray, engine: str,
                         options=None, retry_policy=None) -> dict:
    """Identity of a campaign, compared when re-opening a journal."""
    grid = hashlib.sha256(
        np.ascontiguousarray(t_eval, dtype=np.float64).tobytes()
    ).hexdigest()[:16]
    return {"kind": "campaign", "model": model.name,
            "n_species": int(model.n_species),
            "n_reactions": int(model.n_reactions),
            "batch_size": int(batch_size), "chunk_size": int(chunk_size),
            "t_span": [float(t_span[0]), float(t_span[1])],
            "t_eval_sha": grid, "engine": engine,
            "numerics_sha": _numerics_digest(options, retry_policy)}


def run_campaign(model, t_span: tuple[float, float],
                 t_eval: np.ndarray | None = None,
                 parameters=None, engine: str = "batched",
                 options=None, config: CampaignConfig | None = None,
                 retry_policy: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 telemetry=None, chunk_gate=None, cancel_event=None,
                 trace_parent=None,
                 **engine_kwargs) -> CampaignResult:
    """Run a batch as a resilient, journaled, chunked campaign.

    ``retry_policy`` and ``fault_plan`` are forwarded to the batched
    engine (they are ignored by the sequential/stochastic engines,
    whose per-row statuses still feed the quarantine-free masking
    downstream). Raises
    :class:`~repro.errors.CampaignInterrupted` on an injected crash or
    ``KeyboardInterrupt``; completed chunks are journaled first, so the
    identical call resumes.

    ``chunk_gate`` and ``cancel_event`` are the campaign service's
    hooks (:mod:`repro.service`). The gate arbitrates chunk starts
    across concurrent campaigns: every chunk acquires a permit for its
    row width before executing and releases it after, so a scheduler
    can enforce fair-share and in-flight caps without knowing chunk
    internals (``acquire(width, cancel_event) -> bool`` /
    ``try_acquire(width) -> bool`` / ``release(width)``). The
    ``cancel_event`` (a ``threading.Event``) requests *cooperative*
    cancellation: checked at every chunk boundary, so a cancelled
    campaign stops after at most one more chunk with its journal
    intact (``CampaignResult.cancelled``) and resumes exact-once later.
    ``trace_parent`` nests the campaign's root span under a service
    ``job`` span.

    ``telemetry`` enables tracing: a trace-file path (JSONL, appended),
    a :class:`~repro.telemetry.Tracer`, or ``None``. Span sinks flush
    right after each chunk is journaled and the ``campaign`` root span
    is written only when the campaign completes, so a crashed-and-
    resumed campaign (each run passing the *same trace path*) appends
    into one coherent tree with stable structural ids — no duplicate
    roots, no orphaned chunks. Per-chunk engine metrics are journaled
    as checkpoint payloads and rehydrated on resume, so
    :attr:`CampaignResult.metrics` always aggregates the whole batch.
    """
    from ..core.simulate import _normalize
    from ..solvers.base import DEFAULT_OPTIONS

    options = DEFAULT_OPTIONS if options is None else options
    config = CampaignConfig() if config is None else config
    batch = _normalize(model, parameters)
    if t_eval is None:
        t_eval = np.array([float(t_span[0]), float(t_span[1])])
    t_eval = np.asarray(t_eval, dtype=np.float64)

    total_chunks = -(-batch.size // config.chunk_size)
    checkpoint = None
    if config.checkpoint_path is not None:
        from ..io.checkpoint import CampaignCheckpoint
        checkpoint = CampaignCheckpoint.open(
            config.checkpoint_path,
            campaign_fingerprint(model, batch.size, config.chunk_size,
                                 t_span, t_eval, engine, options,
                                 retry_policy))

    spec = WorkerSpec(model=model, t_span=t_span, t_eval=t_eval,
                      engine=engine, options=options,
                      retry_policy=retry_policy, fault_plan=fault_plan,
                      heartbeat_interval=config.heartbeat_interval,
                      engine_kwargs=dict(engine_kwargs))
    tracer = as_tracer(telemetry)
    campaign_span = tracer.start("campaign", "campaign",
                                 parent=trace_parent, model=model.name,
                                 batch=int(batch.size),
                                 chunks=int(total_chunks))
    journal = ChunkJournal(spec, batch, config, checkpoint, tracer,
                           campaign_span, chunk_gate, cancel_event)

    # Pass 1 resumes everything the journal already holds (cheap, no
    # integration); pass 2 executes the rest on the supervised worker
    # pool when configured, on the in-process serial loop otherwise.
    remaining = journal.resume()
    outcome = None
    if config.workers > 0 and remaining:
        from .executor import run_sharded
        outcome = run_sharded(journal, remaining)
    else:
        journal.run_serial(remaining)
    quarantine, metrics = journal.fold()
    degraded = outcome is not None and outcome.degraded
    if outcome is not None:
        metrics.merge(outcome.metrics)

    # Unstarted rows stay NaN/'running': nothing was integrated, so they
    # must not masquerade as failures of the dynamics.
    merged = journal.merged
    completed = journal.completed
    merged.elapsed_seconds = clock.monotonic() - journal.started
    if completed == total_chunks and journal.executed:
        # The campaign root is written only once, by the run that
        # finishes the final chunk — a crashed run never flushes its
        # root, so the resume's root adopts the earlier chunk spans.
        # A fully-resumed run executed nothing and emits nothing:
        # re-running a completed campaign leaves the trace unchanged
        # instead of appending a duplicate root.
        tracer.end(campaign_span, degraded=degraded,
                   deadline_hit=journal.deadline_hit,
                   cancelled=journal.cancelled,
                   quarantined=len(quarantine))
        tracer.flush()
    return CampaignResult(merged, completed < total_chunks,
                          journal.deadline_hit, completed, total_chunks,
                          journal.resumed, quarantine,
                          None if checkpoint is None else checkpoint.path,
                          metrics, degraded, journal.cancelled)


# ----------------------------------------------------------------------


class ChunkJournal:
    """The chunk lifecycle of one campaign, shared by every path.

    The resume pass absorbs journaled chunks (:meth:`absorb`); the
    serial loop (:meth:`run_serial`) and the shard supervisor
    (:mod:`repro.resilience.executor`) commit executed ones
    (:meth:`commit`); :meth:`fold` gathers their quarantine and metrics
    in chunk-index order. Serial, sharded, degraded and resumed runs
    therefore journal, merge and report through one code path, and
    consult one stop check (:meth:`should_stop`) between chunks.
    """

    def __init__(self, spec: WorkerSpec, batch, config: CampaignConfig,
                 checkpoint, tracer, span, chunk_gate=None,
                 cancel_event=None) -> None:
        self.spec = spec
        self.batch = batch
        self.config = config
        self.checkpoint = checkpoint
        self.tracer = tracer
        self.span = span
        self.chunk_gate = chunk_gate
        self.cancel_event = cancel_event
        self.total = -(-batch.size // config.chunk_size)
        self.merged = allocate_result(spec.t_eval, batch.size,
                                      spec.model.n_species, METHOD_DOPRI5)
        self.resumed = self.executed = 0
        self.deadline_hit = self.cancelled = False
        #: chunk index -> (campaign-space quarantine, metrics or None)
        self._folds: dict[int, tuple] = {}
        self.started = clock.monotonic()

    @property
    def completed(self) -> int:
        return self.resumed + self.executed

    def bounds(self, index: int) -> tuple[int, int]:
        start = index * self.config.chunk_size
        return start, min(start + self.config.chunk_size, self.batch.size)

    def span_name(self, index: int, start: int, stop: int) -> str:
        """``chunk-<i>``, or ``chunk-<i>[a:b]`` for a split piece."""
        chunk_start, chunk_stop = self.bounds(index)
        if (start, stop) == (chunk_start, chunk_stop):
            return f"chunk-{index}"
        return f"chunk-{index}[{start - chunk_start}:{stop - chunk_start}]"

    def interrupted(self, message: str) -> CampaignInterrupted:
        return CampaignInterrupted(
            message, completed_chunks=self.completed,
            checkpoint_path=(None if self.checkpoint is None
                             else self.checkpoint.path))

    # -- the chunk lifecycle ---------------------------------------------

    def resume(self) -> list[tuple[int, int, int]]:
        """Absorb every journaled chunk; return the ``(index, start,
        stop)`` work-list of the chunks still to execute."""
        remaining = []
        for index in range(self.total):
            start, stop = self.bounds(index)
            if self.checkpoint is not None \
                    and self.checkpoint.has_chunk(index):
                self.absorb(index, start, stop)
            else:
                remaining.append((index, start, stop))
        return remaining

    def absorb(self, index: int, start: int, stop: int) -> None:
        """Merge one journaled chunk and its metrics payload."""
        chunk_result, quarantine_dicts = self.checkpoint.load_chunk(index)
        _check_chunk_shape(chunk_result, stop - start, self.spec.t_eval,
                           index)
        payload = self.checkpoint.get_payload(f"metrics-{index}")
        self._folds[index] = (
            QuarantineLog.from_dicts(quarantine_dicts),
            None if payload is None else MetricsRegistry.from_dict(payload))
        self.merged.merge_rows(chunk_result, np.arange(start, stop))
        self.resumed += 1

    def commit(self, index: int, start: int, stop: int,
               chunk_result: BatchSolveResult, quarantine: QuarantineLog,
               metrics: MetricsRegistry | None) -> None:
        """Journal and merge one executed chunk (quarantine rows local
        to the chunk; ``metrics`` is ``None`` for engines without)."""
        shifted = QuarantineLog()
        shifted.merge(quarantine, row_offset=start)
        if self.checkpoint is not None:
            self.checkpoint.save_chunk(index, chunk_result,
                                       shifted.to_dicts())
            if metrics is not None:
                self.checkpoint.set_payload(f"metrics-{index}",
                                            metrics.to_dict())
        # Flush spans only after the chunk is journaled: the trace file
        # and the journal lose exactly the same chunk on a crash.
        self.tracer.flush()
        self.merged.merge_rows(chunk_result, np.arange(start, stop))
        self._folds[index] = (shifted, metrics)
        self.executed += 1

    def fold(self) -> tuple[QuarantineLog, MetricsRegistry]:
        """Campaign quarantine and metrics, folded in chunk-index order."""
        quarantine, metrics = QuarantineLog(), MetricsRegistry()
        for index in sorted(self._folds):
            chunk_quarantine, chunk_metrics = self._folds[index]
            quarantine.merge(chunk_quarantine)
            if chunk_metrics is not None:
                metrics.merge(chunk_metrics)
        if self.resumed:
            metrics.count("campaign.chunks.resumed", self.resumed)
        if self.executed:
            metrics.count("campaign.chunks.executed", self.executed)
        return quarantine, metrics

    # -- execution -------------------------------------------------------

    def should_stop(self, now: float,
                    min_chunk_seconds: float | None = None) -> bool:
        """Whether to start no further chunk (flags the reason).

        Stops on a cooperative cancel, on the wall-clock or injected
        (``FaultPlan.deadline_after_chunks``) deadline, and — given the
        fastest chunk so far — when the budget left could not fit even
        that chunk. Raises :class:`~repro.errors.CampaignInterrupted` on
        an injected crash.
        """
        deadline = self.config.deadline_seconds
        plan = self.spec.fault_plan
        if self.cancel_event is not None and self.cancel_event.is_set():
            self.cancelled = True
        elif deadline is not None and (
                now - self.started > deadline
                or (min_chunk_seconds is not None
                    and deadline - (now - self.started)
                    < min_chunk_seconds)):
            self.deadline_hit = True
        elif plan is not None and plan.deadline_after_chunks is not None \
                and self.executed >= plan.deadline_after_chunks:
            self.deadline_hit = True
        elif plan is not None and plan.crash_after_launches is not None \
                and self.executed >= plan.crash_after_launches:
            raise self.interrupted(
                f"injected crash after {self.executed} executed chunk(s)")
        return self.cancelled or self.deadline_hit

    def run_serial(self, tasks, on_piece=None, degraded: bool = False):
        """Execute ``(index, start, stop)`` tasks in-process, in order.

        Every task passes :meth:`should_stop` (with the predictive
        budget check) and the chunk gate first, and the wall clock is
        checked again after it. A finished task goes to ``on_piece``
        (default :meth:`commit`); the shard supervisor's degraded
        fallback passes its piece assembler instead, and its pieces run
        engine-untraced, like the worker attempts they replace.
        """
        on_piece = self.commit if on_piece is None else on_piece
        extra = {"degraded": True} if degraded else {}
        engine_tracer = None if degraded else self.tracer
        min_chunk_seconds: float | None = None
        for index, start, stop in tasks:
            width = stop - start
            now = clock.monotonic()
            if self.should_stop(now, min_chunk_seconds):
                return
            if self.chunk_gate is not None:
                if not self.chunk_gate.acquire(width, self.cancel_event):
                    self.cancelled = True
                    return
                # The gate may have blocked for a while; restart the
                # chunk timer so the wait is not billed as compute.
                now = clock.monotonic()
            span = self.tracer.start(self.span_name(index, start, stop),
                                     "chunk", parent=self.span, rows=width,
                                     **extra)
            try:
                piece = _run_chunk(self.spec, self.batch, index, start,
                                   stop, engine_tracer, span)
            except KeyboardInterrupt:
                raise self.interrupted(
                    f"campaign interrupted during chunk {index}; "
                    f"{self.completed} chunk(s) already journaled") \
                    from None
            finally:
                if self.chunk_gate is not None:
                    self.chunk_gate.release(width)
            self.tracer.end(span, **({"outcome": "done"} if degraded
                                     else {}))
            on_piece(index, start, stop, *piece)
            after = clock.monotonic()
            if min_chunk_seconds is None or after - now < min_chunk_seconds:
                min_chunk_seconds = after - now
            # Post-chunk wall-clock check: a chunk that overshot the
            # deadline mid-flight must mark the result, not wait for
            # the next pre-chunk check that may never come.
            if self.config.deadline_seconds is not None and \
                    after - self.started > self.config.deadline_seconds \
                    and self.completed < self.total:
                self.deadline_hit = True
                return


def _run_chunk(spec: WorkerSpec, batch, index: int, start: int, stop: int,
               tracer=None, span=None):
    """Integrate rows ``[start, stop)`` of chunk ``index``.

    The one chunk function of the serial loop, its degraded-pool use and
    the worker processes. Returns ``(BatchSolveResult, QuarantineLog,
    MetricsRegistry | None)`` with quarantine rows local to the piece.
    """
    from ..core.simulate import simulate

    kwargs = dict(spec.engine_kwargs)
    if spec.engine == "batched":
        kwargs["retry_policy"] = spec.retry_policy
        kwargs["fault_plan"] = (
            None if spec.fault_plan is None
            else spec.fault_plan.for_chunk(index, start, stop))
        if tracer is not None:
            kwargs["tracer"] = tracer
            kwargs["trace_parent"] = span
    result = simulate(spec.model, spec.t_span, spec.t_eval,
                      batch.subset(np.arange(start, stop)), spec.engine,
                      spec.options, **kwargs)
    report = result.engine_report
    if report is None:
        return result.raw, QuarantineLog(), None
    return result.raw, report.quarantine, report.metrics


def _check_chunk_shape(chunk_result: BatchSolveResult, n_rows: int,
                       t_eval: np.ndarray, index: int) -> None:
    if chunk_result.batch_size != n_rows or \
            chunk_result.t.shape != t_eval.shape or \
            not np.allclose(chunk_result.t, t_eval):
        raise ResilienceError(
            f"journaled chunk {index} does not match the campaign "
            f"(rows {chunk_result.batch_size} vs {n_rows} or differing "
            f"time grid); delete the journal to recompute")
