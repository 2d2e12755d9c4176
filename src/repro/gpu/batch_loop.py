"""Per-simulation step-loop bookkeeping shared by the batched integrators.

Every batched integrator runs one adaptive integration per simulation
across a shared batch axis. :class:`StepLoop` owns what each row keeps
regardless of the method — its time, step size, save cursor and status
— together with the result they fill in. The integrators keep only
their stage math, Newton iterations and step-size control:

    loop = StepLoop(self, problem, t_span, t_eval, initial_states, order)
    loop.start()
    while (active := loop.active()).size:
        t_act, h_act, hit = loop.clip(active)
        active, t_act, h_act, hit = loop.drop_broken(active, t_act,
                                                     h_act, hit)
        ...                                     # method-specific step
        loop.record_saves(saved_rows, states)
    return loop.finish()

Save times are shared across the batch and hit exactly by per-row step
clipping, which is how the coarse-grained GPU simulators of this paper
family record dynamics without dense output.
"""

from __future__ import annotations

import numpy as np

from ..solvers.base import SolverOptions, validate_time_grid
from ..telemetry.tracer import NULL_TRACER
from .batch_result import (BROKEN, EXHAUSTED, OK, RUNNING, BatchSolveResult,
                           allocate_result)
from .batched_ode import BatchedODEProblem

_EDGE = 1e-12  # relative tolerance when matching save times


def scaled_error_norms(error: np.ndarray, reference: np.ndarray,
                       candidate: np.ndarray,
                       options: SolverOptions) -> np.ndarray:
    """Per-row RMS of ``error`` scaled by the mixed tolerance."""
    scale = options.atol + options.rtol * np.maximum(np.abs(reference),
                                                     np.abs(candidate))
    return np.sqrt(np.mean((error / scale) ** 2, axis=1))


def _initial_steps(problem: BatchedODEProblem, t0: float, states: np.ndarray,
                   derivatives: np.ndarray, order: int,
                   options: SolverOptions, span: float) -> np.ndarray:
    """Vectorized Hairer starting-step heuristic (one extra kernel)."""
    rows = np.arange(states.shape[0])
    scale = options.atol + np.abs(states) * options.rtol
    d0 = np.sqrt(np.mean((states / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((derivatives / scale) ** 2, axis=1))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / (d1 + 1e-300))
    probe = states + h0[:, None] * derivatives
    f1 = problem.fun(np.full(states.shape[0], t0) + h0, probe, rows)
    d2 = np.sqrt(np.mean(((f1 - derivatives) / scale) ** 2, axis=1)) / h0
    dmax = np.maximum(d1, d2)
    h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(dmax, 1e-300)) ** (1.0 / (order + 1)))
    # Pairwise minimum in fixed order: bit-identical to the former
    # minimum.reduce over the same three operands.
    cap = np.full_like(h0, min(options.max_step, span))
    return np.minimum(np.minimum(100.0 * h0, h1), cap)


class StepLoop:
    """Per-row time, step, save cursor and status of one batched solve.

    The constructor is the ``compile`` phase: it validates the save
    grid, allocates the result, records the t0 save, evaluates the
    first RHS and picks each row's starting step (``order`` feeds the
    Hairer heuristic). :meth:`start` closes that phase and opens
    ``step-loop``; :meth:`finish` closes it and returns the result
    under the ``dense-output`` span.

    ``states``, ``derivatives``, ``times`` and ``steps`` are full-batch
    arrays the integrator updates in place; ``result.status_codes`` is
    the status every guard and helper writes to.
    """

    def __init__(self, solver, problem: BatchedODEProblem,
                 t_span: tuple[float, float], t_eval: np.ndarray | None,
                 initial_states: np.ndarray | None, order: int) -> None:
        options = solver.options
        self.t_eval = t_eval = validate_time_grid(t_span, t_eval)
        t0, self.t1 = float(t_span[0]), float(t_span[1])
        batch = problem.batch_size
        self.problem = problem
        self.solver_name = solver.name
        self.max_steps = options.max_steps
        self.tracer = problem.tracer or NULL_TRACER
        self._span = self.tracer.start("compile", "phase",
                                       parent=problem.trace_span,
                                       solver=solver.name, rows=batch)

        self.states = states = (
            problem.initial_states() if initial_states is None
            else np.array(initial_states, dtype=np.float64))
        self.result = allocate_result(t_eval, batch, problem.n_species,
                                      solver.method_code)
        self.status = self.result.status_codes

        self.times = np.full(batch, t0)
        self.save_index = np.zeros(batch, dtype=np.int64)
        if t_eval[0] == t0:
            self.result.y[:, 0, :] = states
            self.save_index[:] = 1

        self.all_rows = np.arange(batch)
        self.derivatives = problem.fun(self.times, states, self.all_rows)
        if options.first_step is not None:
            self.steps = np.full(batch, options.first_step)
        else:
            self.steps = _initial_steps(problem, t0, states,
                                        self.derivatives, order, options,
                                        self.t1 - t0)
        self.max_step = min(options.max_step, self.t1 - t0)

    def start(self) -> None:
        """Finish rows whose whole grid is recorded; open the step loop."""
        self.status[self.save_index >= self.t_eval.size] = OK
        self.tracer.end(self._span)
        self._span = self.tracer.start("step-loop", "phase",
                                       parent=self.problem.trace_span,
                                       solver=self.solver_name)

    def active(self) -> np.ndarray:
        """Running rows after marking those out of step budget EXHAUSTED.

        Empty when the loop is done.
        """
        status = self.status
        active = np.flatnonzero(status == RUNNING)
        if active.size == 0:
            return active
        exhausted = active[self.result.n_steps[active] >= self.max_steps]
        if exhausted.size:
            status[exhausted] = EXHAUSTED
            active = np.flatnonzero(status == RUNNING)
        return active

    def next_save(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next save time (the last one once all are saved)."""
        t_eval = self.t_eval
        return t_eval[np.minimum(self.save_index[rows], t_eval.size - 1)]

    def clip(self, active: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times, steps clipped to the horizon and the next save, hits.

        A step that would land within a relative ``1e-12`` of the next
        save time (or past it) is shortened to end there exactly; ``hit``
        marks those rows.
        """
        t_act = self.times[active]
        h_act = np.minimum(self.steps[active], self.t1 - t_act)
        next_save = self.next_save(active)
        hit = t_act + h_act >= next_save - _EDGE * np.maximum(
            1.0, np.abs(next_save))
        h_act = np.where(hit, next_save - t_act, h_act)
        return t_act, h_act, hit

    def behind(self, active: np.ndarray, t_act: np.ndarray) -> np.ndarray:
        """Rows that stepped past their next save time by rounding drift."""
        return active[self.next_save(active) < t_act - _EDGE * np.maximum(
            1.0, np.abs(t_act))]

    def drop_broken(self, active: np.ndarray, t_act: np.ndarray,
                    h_act: np.ndarray, *per_row: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
        """Break rows whose step underflowed or went non-finite.

        Such a step (a NaN RHS poisoned the step heuristic or
        controller, or rejections shrank it below the time's
        resolution) can never recover. Returns ``active``, ``t_act``,
        ``h_act`` and ``per_row`` filtered to the surviving rows — the
        inputs themselves when no row broke.
        """
        alive = (h_act > np.abs(t_act) * 1e-15) & (h_act >= 1e-300) & \
            np.isfinite(h_act)
        if alive.all():
            return (active, t_act, h_act, *per_row)
        broken = ~alive
        dead = active[broken]
        self.status[dead] = BROKEN
        problem = self.problem
        if problem.guard is not None:
            problem.guard.on_step_break(dead, problem.row_ids[dead],
                                        t_act[broken], h_act[broken],
                                        self.status)
        return tuple(values[alive]
                     for values in (active, t_act, h_act, *per_row))

    def record_saves(self, rows: np.ndarray, source: np.ndarray) -> None:
        """Save ``source[rows]`` at each row's next save time.

        Rows a guard stopped during the step are skipped; rows whose
        grid is complete become OK.
        """
        if rows.size == 0:
            return
        status = self.status
        rows = rows[status[rows] == RUNNING]
        save_index = self.save_index
        self.result.y[rows, save_index[rows], :] = source[rows]
        save_index[rows] += 1
        status[rows[save_index[rows] >= self.t_eval.size]] = OK

    def finish(self) -> BatchSolveResult:
        """Close the step loop and hand the result off."""
        tracer = self.tracer
        tracer.end(self._span)
        # Save points are recorded in-loop by per-row step clipping, so
        # the dense-output phase of this substrate is only the result
        # hand-off; the span keeps the phase catalog uniform.
        with tracer.span("dense-output", "phase",
                         parent=self.problem.trace_span,
                         solver=self.solver_name):
            return self.result
