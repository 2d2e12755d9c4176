"""Supervised multiprocess shard executor for campaign chunks.

:func:`run_sharded` fans the non-journaled chunks of one campaign out
to a pool of ``CampaignConfig.workers`` worker processes
(:mod:`repro.resilience.worker`) and merges what comes back through
the exact ``merge_rows``/checkpoint path the serial loop uses, so the
merged :class:`~repro.gpu.batch_result.BatchSolveResult` is
byte-identical to an in-process run. The supervision ladder, per
failed attempt of a chunk:

1. **detect** — a dead worker by exit code, a hung one by heartbeat
   gap (``heartbeat_timeout``), a livelocked one by the per-chunk
   timeout (``chunk_timeout`` and the remaining campaign deadline);
2. **restart** — the slot respawns under capped exponential backoff,
   drawing on the pool-wide ``max_worker_restarts`` budget;
3. **reassign** — the in-flight chunk returns to the front of the
   queue while its per-chunk attempt budget (``max_chunk_attempts``)
   lasts;
4. **split** — a chunk that exhausts its attempts is halved (the
   memory-governor pattern): a poison *row* keeps killing workers, but
   each split narrows the blast radius bit-identically;
5. **quarantine** — at minimum width the surviving rows are recorded
   as :class:`~repro.resilience.quarantine.WorkerFailure` entries and
   marked ``failed`` instead of sinking the campaign.

If the pool collapses outright — no live worker and no restart budget
— the leftover pieces run on the campaign's own serial loop
(:meth:`~repro.resilience.campaign.ChunkJournal.run_serial`, calling
the same chunk function the workers run) and the campaign finishes
with ``CampaignResult.degraded=True``.

Journal writes are serialized here: workers stream results over a
queue and only the supervisor commits them, through the campaign's
:class:`~repro.resilience.campaign.ChunkJournal` — the exact commit
path of the serial loop — so out-of-order chunk completion is safe and
a supervisor crash loses at most the chunks not yet journaled.

Result queues are **per worker generation**, not shared: a process
that dies (or is terminated) while its queue feeder holds the write
lock poisons that queue forever, and with a shared queue one such
death would silence every surviving worker's heartbeats — turning a
single injected kill into a cascade of spurious hang detections. A
per-generation queue makes the blast radius of a poisoned lock exactly
the worker that died; its replacement gets a fresh queue.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..gpu.batch_result import BROKEN, METHOD_DOPRI5, allocate_result
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from .quarantine import QuarantineLog, WorkerFailure
from .worker import (MSG_DONE, MSG_FAILED, MSG_HEARTBEAT, MSG_READY,
                     worker_main)


class _Task(NamedTuple):
    """One executable unit: a chunk, or a split piece of one.

    ``start``/``stop`` are *global* campaign row indices. The tuple
    ordering (chunk first, then row range) is the deterministic
    execution order of the degraded serial fallback.
    """

    chunk_index: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        return self.stop - self.start

    def message(self, attempt: int) -> tuple:
        return (self.chunk_index, self.start, self.stop, attempt)


class _ChunkState:
    """Accumulates the pieces of one chunk until every row is covered."""

    __slots__ = ("start", "stop", "buffer", "covered", "quarantine",
                 "metrics")

    def __init__(self, start: int, stop: int, t_eval: np.ndarray,
                 n_species: int) -> None:
        self.start = start
        self.stop = stop
        self.buffer = allocate_result(t_eval, stop - start, n_species,
                                      METHOD_DOPRI5)
        self.covered = 0
        self.quarantine = QuarantineLog()
        self.metrics = None

    @property
    def complete(self) -> bool:
        return self.covered >= self.stop - self.start


class _Slot:
    """One worker lane: the process currently occupying it, its task,
    and its liveness bookkeeping. A restarted lane keeps its identity
    (and its telemetry span) while the process and generation change."""

    __slots__ = ("index", "generation", "process", "queue", "results",
                 "task", "attempt", "assigned_at", "deadline_at",
                 "last_heartbeat", "restart_at", "restarts", "chunks_done",
                 "lane_span")

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.process = None
        self.queue = None
        self.results = None
        self.task = None
        self.attempt = 0
        self.assigned_at = 0.0
        self.deadline_at = None
        self.last_heartbeat = 0.0
        self.restart_at = None
        self.restarts = 0
        self.chunks_done = 0
        self.lane_span = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.exitcode is None

    @property
    def idle(self) -> bool:
        return self.alive and self.task is None


@dataclass
class ExecutorOutcome:
    """What the sharded run adds to the campaign's journal fold."""

    degraded: bool = False
    #: supervisor-side counters (restarts, reassignments, splits, ...).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


def _fork_context():
    """Fork when the platform offers it (cheap spawn, no re-import);
    the default start method otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardSupervisor:
    """Drives one campaign's chunk fan-out over a worker pool."""

    def __init__(self, journal, tasks) -> None:
        self.journal = journal
        self.config = config = journal.config
        self.outcome = ExecutorOutcome()
        self.outcome.metrics.gauge("campaign.executor.workers",
                                   config.workers)
        self.pending: deque[_Task] = deque(_Task(*task) for task in tasks)
        self.attempts: dict[_Task, int] = {}
        self.chunk_states: dict[int, _ChunkState] = {}
        self.slots = [_Slot(i) for i in range(config.workers)]
        self.restarts_used = 0
        self._context = _fork_context()
        self._tick = max(0.005, min(0.05, config.heartbeat_interval / 2.0))
        self._block_index = 0
        self._lanes_ended = False
        #: task -> open chunk span; each in-flight task also holds a
        #: chunk-gate grant of its width.
        self._in_flight: dict[_Task, object] = {}

    # -- lifecycle -------------------------------------------------------

    def run(self) -> ExecutorOutcome:
        journal = self.journal
        for slot in self.slots:
            slot.lane_span = journal.tracer.start(
                f"worker-{slot.index}", "worker", parent=journal.span)
            self._spawn(slot)
        try:
            try:
                self._supervise()
                if self._work_remaining() and not journal.deadline_hit \
                        and not journal.cancelled:
                    self._degrade()
            except KeyboardInterrupt:
                raise journal.interrupted(
                    "sharded campaign interrupted; "
                    f"{journal.completed} chunk(s) already journaled") \
                    from None
        finally:
            self._shutdown()
        return self.outcome

    def _supervise(self) -> None:
        while self._work_remaining():
            if self.journal.should_stop(clock.monotonic()):
                return
            self._drain_messages()
            self._check_workers()
            self._restart_due_slots()
            self._assign_tasks()
            if self._pool_collapsed():
                return

    def _work_remaining(self) -> bool:
        return bool(self.pending) \
            or any(slot.task is not None for slot in self.slots)

    def _pool_collapsed(self) -> bool:
        if any(slot.alive for slot in self.slots):
            return False
        return self.restarts_used >= self.config.max_worker_restarts

    # -- worker pool -----------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        slot.generation += 1
        slot.queue = self._context.Queue()
        slot.results = self._context.Queue()
        slot.task = None
        slot.restart_at = None
        token = (slot.index, slot.generation)
        process = self._context.Process(
            target=worker_main,
            args=(token, self.journal.spec, self.journal.batch, slot.queue,
                  slot.results),
            daemon=True)
        try:
            process.start()
        except OSError:
            slot.process = None
            self._schedule_restart(slot)
            return
        slot.process = process
        slot.last_heartbeat = clock.monotonic()

    def _schedule_restart(self, slot: _Slot) -> None:
        backoff = min(self.config.restart_backoff_cap,
                      self.config.restart_backoff
                      * (2.0 ** min(self.restarts_used, 16)))
        slot.restart_at = clock.monotonic() + backoff

    def _restart_due_slots(self) -> None:
        now = clock.monotonic()
        for slot in self.slots:
            if slot.alive or slot.restart_at is None:
                continue
            if now < slot.restart_at:
                continue
            if self.restarts_used >= self.config.max_worker_restarts:
                slot.restart_at = None
                continue
            self.restarts_used += 1
            slot.restarts += 1
            self.outcome.metrics.count("campaign.executor.restarts")
            self._retire_queue(slot)
            self._spawn(slot)

    @staticmethod
    def _retire_queue(slot: _Slot) -> None:
        for queue in (slot.queue, slot.results):
            if queue is None:
                continue
            try:
                queue.close()
                queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        slot.queue = None
        slot.results = None

    def _check_workers(self) -> None:
        now = clock.monotonic()
        for slot in self.slots:
            if slot.process is None:
                continue
            if slot.process.exitcode is not None:
                # Died: mid-chunk death fails the attempt; either way
                # the lane queues for a restart.
                self.outcome.metrics.count(
                    "campaign.executor.worker_deaths")
                if slot.task is not None:
                    self._attempt_failed(slot, "worker-killed")
                slot.process = None
                self._schedule_restart(slot)
            elif slot.task is not None:
                if now - slot.last_heartbeat \
                        > self.config.heartbeat_timeout:
                    self.outcome.metrics.count("campaign.executor.hangs")
                    self._terminate(slot)
                    self._attempt_failed(slot, "worker-hung")
                    self._schedule_restart(slot)
                elif slot.deadline_at is not None \
                        and now > slot.deadline_at:
                    self.outcome.metrics.count(
                        "campaign.executor.chunk_timeouts")
                    self._terminate(slot)
                    self._attempt_failed(slot, "chunk-timeout")
                    self._schedule_restart(slot)

    def _terminate(self, slot: _Slot) -> None:
        process = slot.process
        slot.process = None
        if process is None:
            return
        process.terminate()
        process.join(timeout=1.0)
        if process.exitcode is None:
            process.kill()
            process.join(timeout=1.0)

    # -- task flow -------------------------------------------------------

    def _assign_tasks(self) -> None:
        if not self.pending:
            return
        now = clock.monotonic()
        journal = self.journal
        remaining = None
        if self.config.deadline_seconds is not None:
            remaining = self.config.deadline_seconds \
                - (now - journal.started)
        for slot in self.slots:
            if not self.pending:
                return
            if not slot.idle:
                continue
            task = self.pending[0]
            if journal.chunk_gate is not None \
                    and not journal.chunk_gate.try_acquire(task.width):
                # Non-blocking on purpose: a blocked acquire here would
                # starve heartbeat processing; the next supervise tick
                # retries once the scheduler frees a grant.
                return
            self.pending.popleft()
            attempt = self.attempts.get(task, 0) + 1
            self.attempts[task] = attempt
            slot.task = task
            slot.attempt = attempt
            slot.assigned_at = slot.last_heartbeat = now
            bounds = [b for b in (self.config.chunk_timeout, remaining)
                      if b is not None]
            slot.deadline_at = now + min(bounds) if bounds else None
            slot.queue.put(task.message(attempt))
            self._in_flight[task] = journal.tracer.start(
                journal.span_name(*task), "chunk",
                parent=slot.lane_span, rows=task.width, attempt=attempt)

    def _task_ended(self, task: _Task, outcome: str) -> None:
        """Return the task's gate grant and close its span."""
        span = self._in_flight.pop(task)
        if self.journal.chunk_gate is not None:
            self.journal.chunk_gate.release(task.width)
        self.journal.tracer.end(span, outcome=outcome)

    def _attempt_failed(self, slot: _Slot, reason: str) -> None:
        task, attempt = slot.task, slot.attempt
        slot.task = None
        slot.deadline_at = None
        self._task_ended(task, reason)
        if attempt >= self.config.max_chunk_attempts:
            if task.width > 1:
                self._split(task)
            else:
                self._quarantine(task, reason, attempt)
        else:
            self.outcome.metrics.count("campaign.executor.reassignments")
            self.pending.appendleft(task)

    def _split(self, task: _Task) -> None:
        # The memory-governor halving pattern: a poison row keeps
        # killing workers, but every split narrows the blast radius
        # until quarantine isolates it at minimum width.
        self.outcome.metrics.count("campaign.executor.splits")
        middle = task.start + task.width // 2
        self.pending.appendleft(_Task(task.chunk_index, middle, task.stop))
        self.pending.appendleft(_Task(task.chunk_index, task.start, middle))

    def _quarantine(self, task: _Task, reason: str, attempts: int) -> None:
        state = self._chunk_state(task.chunk_index)
        local = np.arange(task.start - state.start, task.stop - state.start)
        batch = self.journal.batch
        for offset, row in enumerate(range(task.start, task.stop)):
            state.quarantine.add(WorkerFailure(
                row=int(local[offset]),
                rate_constants=batch.rate_constants[row].copy(),
                initial_state=batch.initial_states[row].copy(),
                reason=reason, worker_attempts=attempts))
        state.buffer.status_codes[local] = BROKEN
        state.covered += task.width
        self.outcome.metrics.count("campaign.executor.quarantined_rows",
                                   task.width)
        if state.complete:
            self._finalize_chunk(task.chunk_index)

    # -- messages --------------------------------------------------------

    def _drain_messages(self) -> None:
        received = False
        for slot in self.slots:
            results = slot.results
            if results is None:
                continue
            while True:
                try:
                    message = results.get_nowait()
                except queue_module.Empty:
                    break
                except (OSError, ValueError, EOFError):
                    break  # queue torn down mid-drain by a restart
                received = True
                self._handle_message(*message)
        if received:
            return
        # Nothing pending anywhere: instead of sleeping a fixed tick
        # (which turns into dead hand-off latency for every finished
        # chunk), block briefly on one live queue so its messages wake
        # the supervisor the moment they arrive. The blocked-on slot
        # rotates so no worker's messages wait more than one tick
        # behind another's.
        live = [slot for slot in self.slots if slot.results is not None]
        if not live:
            time.sleep(self._tick)
            return
        self._block_index = (self._block_index + 1) % len(live)
        slot = live[self._block_index]
        try:
            message = slot.results.get(timeout=self._tick)
        except queue_module.Empty:
            return
        except (OSError, ValueError, EOFError):
            return
        self._handle_message(*message)

    def _handle_message(self, kind, token, task_message, payload) -> None:
        slot_index, generation = token
        slot = self.slots[slot_index]
        if generation != slot.generation:
            return  # a terminated predecessor's leftover message
        now = clock.monotonic()
        if kind == MSG_READY:
            slot.last_heartbeat = now
            return
        current = None if slot.task is None \
            else slot.task.message(slot.attempt)
        if task_message != current:
            return  # stale: the task was already reassigned
        if kind == MSG_HEARTBEAT:
            slot.last_heartbeat = now
        elif kind == MSG_DONE:
            task = slot.task
            slot.task = None
            slot.deadline_at = None
            slot.chunks_done += 1
            self._note_slowness(slot, now)
            self._task_ended(task, "done")
            # Deserialize the worker's piece at the queue boundary.
            result, quarantine_dicts, metrics_dict = payload
            self._absorb_piece(
                *task, result, QuarantineLog.from_dicts(quarantine_dicts),
                None if metrics_dict is None
                else MetricsRegistry.from_dict(metrics_dict))
        elif kind == MSG_FAILED:
            self.outcome.metrics.count("campaign.executor.worker_errors")
            self._attempt_failed(slot, f"worker-error: {payload}")

    def _note_slowness(self, slot: _Slot, now: float) -> None:
        threshold = self.config.slow_chunk_seconds
        if threshold is not None and now - slot.assigned_at > threshold:
            self.outcome.metrics.count("campaign.executor.slow_chunks")

    # -- chunk assembly --------------------------------------------------

    def _chunk_state(self, index: int) -> _ChunkState:
        state = self.chunk_states.get(index)
        if state is None:
            journal = self.journal
            state = self.chunk_states[index] = _ChunkState(
                *journal.bounds(index), journal.spec.t_eval,
                journal.spec.model.n_species)
        return state

    def _absorb_piece(self, index: int, start: int, stop: int, result,
                      quarantine: QuarantineLog,
                      metrics: MetricsRegistry | None) -> None:
        state = self._chunk_state(index)
        state.buffer.merge_rows(result, np.arange(start - state.start,
                                                  stop - state.start))
        state.covered += stop - start
        state.quarantine.merge(quarantine, row_offset=start - state.start)
        if metrics is not None:
            if state.metrics is None:
                state.metrics = MetricsRegistry()
            state.metrics.merge(metrics)
        if state.complete:
            self._finalize_chunk(index)

    def _finalize_chunk(self, index: int) -> None:
        state = self.chunk_states.pop(index)
        self.journal.commit(index, state.start, state.stop, state.buffer,
                            state.quarantine, state.metrics)

    # -- degraded serial fallback ----------------------------------------

    def _degrade(self) -> None:
        """The pool is gone: finish the leftover pieces in-process.

        Hands them, in deterministic ``(chunk, row-range)`` order, to
        the campaign's serial loop
        (:meth:`~repro.resilience.campaign.ChunkJournal.run_serial`):
        the same chunk function the workers run, under the serial
        loop's stop checks — cancel, wall-clock, injected and predictive
        deadlines, the post-chunk deadline check and injected crashes.
        Finished pieces assemble into their chunks like worker results.
        """
        self.outcome.degraded = True
        self.outcome.metrics.count("campaign.executor.degradations")
        self.journal.run_serial(sorted(self.pending), self._absorb_piece,
                                degraded=True)

    # -- teardown --------------------------------------------------------

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.alive:
                try:
                    slot.queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = clock.monotonic() + 2.0
        for slot in self.slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - clock.monotonic()))
            if process.exitcode is None:
                process.terminate()
                process.join(timeout=1.0)
            slot.process = None
        for slot in self.slots:
            self._retire_queue(slot)
        if not self._lanes_ended:
            self._lanes_ended = True
            for slot in self.slots:
                if slot.lane_span is not None:
                    self.journal.tracer.end(slot.lane_span,
                                            restarts=slot.restarts,
                                            chunks=slot.chunks_done)
        for task in list(self._in_flight):
            # Abandoned in-flight tasks (deadline/crash teardown) close
            # their spans and return their grants to the scheduler, or
            # other campaigns starve on our teardown.
            self._task_ended(task, "abandoned")


def run_sharded(journal, tasks) -> ExecutorOutcome:
    """Execute the ``(index, start, stop)`` tasks of a campaign's
    :class:`~repro.resilience.campaign.ChunkJournal` on a supervised
    worker pool; see the module docstring for the ladder."""
    return ShardSupervisor(journal, tasks).run()
