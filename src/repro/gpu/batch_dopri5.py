"""Batched Dormand-Prince 5(4) integrator.

The coarse-grained axis of the substrate: every active simulation in
the batch advances through the same sequence of vectorized stage
kernels, but each keeps its own time, step size, PI controller memory
and accept/reject decision — the NumPy realization of one CUDA thread
(block) per simulation with per-thread adaptive stepping.

Save times are shared across the batch and hit exactly by per-sim step
clipping, which is how the coarse-grained GPU simulators of this paper
family record dynamics without dense output.
"""

from __future__ import annotations

import numpy as np

from ..solvers.base import DEFAULT_OPTIONS, SolverOptions, validate_time_grid
from ..solvers.tableaus import DOPRI5
from ..telemetry.tracer import NULL_TRACER
from .batch_result import (BROKEN, EXHAUSTED, METHOD_DOPRI5, OK, RUNNING,
                           STIFF, BatchSolveResult, allocate_result)
from .batched_ode import BatchedODEProblem

_EDGE = 1e-12  # relative tolerance when matching save times
#: Hairer's DOPRI5 stability-boundary constant for the stiffness test.
_STIFFNESS_BOUNDARY = 3.25
#: Consecutive violations before a simulation is declared stiff.
_STIFFNESS_PATIENCE = 15


def _combine_stages(weights: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """Weighted stage sum with per-row rounding independent of how many
    rows are in flight.

    ``np.tensordot`` lowers to a BLAS product whose row results can
    change with the array width; this element-wise accumulation keeps
    split launches bit-identical to unsplit ones.
    """
    combined = weights[0] * stages[0]
    for j in range(1, len(weights)):
        combined += weights[j] * stages[j]
    return combined


def _scaled_error_norms(error: np.ndarray, reference: np.ndarray,
                        candidate: np.ndarray,
                        options: SolverOptions) -> np.ndarray:
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


class BatchDopri5:
    """Adaptive batched DOPRI5 with per-simulation step control.

    With ``abort_on_stiffness`` enabled (the router's configuration),
    simulations whose Hairer stiffness test fires persistently are
    stopped early with status ``STIFF`` so that the router can
    re-execute them with Radau IIA instead of letting them burn the
    whole step budget near the explicit stability boundary.
    """

    name = "batch-dopri5"
    method_code = METHOD_DOPRI5

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS,
                 use_pi_controller: bool = True,
                 abort_on_stiffness: bool = False) -> None:
        self.options = options
        self.use_pi_controller = use_pi_controller
        self.abort_on_stiffness = abort_on_stiffness

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: np.ndarray | None = None,
              initial_states: np.ndarray | None = None) -> BatchSolveResult:
        options = self.options
        tableau = DOPRI5
        t_eval = validate_time_grid(t_span, t_eval)
        t0, t1 = float(t_span[0]), float(t_span[1])
        batch = problem.batch_size
        n = problem.n_species
        tracer = problem.tracer or NULL_TRACER
        compile_span = tracer.start("compile", "phase",
                                    parent=problem.trace_span,
                                    solver=self.name, rows=batch)

        states = (problem.initial_states() if initial_states is None
                  else np.array(initial_states, dtype=np.float64))
        result = allocate_result(t_eval, batch, n, self.method_code)
        result.counters = problem.counters

        times = np.full(batch, t0)
        save_index = np.zeros(batch, dtype=np.int64)
        if t_eval[0] == t0:
            result.y[:, 0, :] = states
            save_index[:] = 1

        all_rows = np.arange(batch)
        derivatives = problem.fun(times, states, all_rows)
        if options.first_step is not None:
            steps = np.full(batch, options.first_step)
        else:
            steps = _initial_steps(problem, t0, states, derivatives,
                                   tableau.order, options, t1 - t0)
        previous_errors = np.full(batch, -1.0)  # <0: no PI memory yet
        error_exponent = -1.0 / (tableau.error_order + 1)
        max_step = min(options.max_step, t1 - t0)
        status = result.status_codes
        stiffness_strikes = np.zeros(batch, dtype=np.int64)
        nonstiff_streak = np.zeros(batch, dtype=np.int64)

        # Simulations whose whole grid is already recorded.
        status[save_index >= t_eval.size] = OK
        tracer.end(compile_span)
        loop_span = tracer.start("step-loop", "phase",
                                 parent=problem.trace_span,
                                 solver=self.name)

        while True:
            active = np.flatnonzero(status == RUNNING)
            if active.size == 0:
                break
            exhausted = active[result.n_steps[active] >= options.max_steps]
            if exhausted.size:
                status[exhausted] = EXHAUSTED
                active = np.flatnonzero(status == RUNNING)
                if active.size == 0:
                    break

            t_act = times[active]
            h_act = np.minimum(steps[active], t1 - t_act)
            next_save = t_eval[np.minimum(save_index[active],
                                          t_eval.size - 1)]
            hit = t_act + h_act >= next_save - _EDGE * np.maximum(
                1.0, np.abs(next_save))
            h_act = np.where(hit, next_save - t_act, h_act)

            # Non-finite steps (a NaN RHS poisoned the step heuristic or
            # controller) can never recover — break those rows at once.
            broken_step = ~np.isfinite(h_act) | \
                (h_act <= np.abs(t_act) * 1e-15)
            dead = active[broken_step]
            if dead.size:
                status[dead] = BROKEN
                if problem.guard is not None:
                    problem.guard.on_step_break(
                        dead, problem.row_ids[dead], t_act[broken_step],
                        h_act[broken_step], status)
                keep = ~broken_step
                active, t_act, h_act, hit = (active[keep], t_act[keep],
                                             h_act[keep], hit[keep])
                if active.size == 0:
                    continue

            result.n_steps[active] += 1
            y_act = states[active]
            stage_k = np.empty((tableau.n_stages, active.size, n))
            stage_k[0] = derivatives[active]
            penultimate_states = None
            # Diverging rows overflow transiently before they are caught
            # by the finiteness check; keep those FP warnings quiet.
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(1, tableau.n_stages):
                    increment = _combine_stages(tableau.a[i, :i],
                                                stage_k[:i])
                    stage_states = y_act + h_act[:, None] * increment
                    if i == tableau.n_stages - 2:
                        penultimate_states = stage_states
                    stage_times = t_act + tableau.c[i] * h_act
                    stage_k[i] = problem.fun(stage_times, stage_states,
                                             active)

                y_new = y_act + h_act[:, None] * _combine_stages(
                    tableau.b, stage_k)
                local_error = h_act[:, None] * _combine_stages(
                    tableau.e, stage_k)
                err = _scaled_error_norms(local_error, y_act, y_new,
                                          options)
            finite = np.all(np.isfinite(y_new), axis=1)
            err = np.where(finite, err, np.inf)

            accepted = err <= 1.0
            acc_rows = active[accepted]
            rej_rows = active[~accepted]
            result.n_accepted[acc_rows] += 1
            result.n_rejected[rej_rows] += 1

            if acc_rows.size:
                t_new = t_act[accepted] + h_act[accepted]
                accepted_states = y_new[accepted]
                states[acc_rows] = accepted_states
                derivatives[acc_rows] = stage_k[-1, accepted]  # FSAL
                times[acc_rows] = t_new

                if problem.guard is not None:
                    problem.guard.after_accept(
                        states, acc_rows, problem.row_ids[acc_rows],
                        t_new, status, gathered=accepted_states)

                if self.abort_on_stiffness:
                    self._stiffness_test(
                        acc_rows, accepted, h_act, y_new,
                        penultimate_states, stage_k, status,
                        stiffness_strikes, nonstiff_streak)

                hits = np.flatnonzero(accepted & hit)
                if hits.size:
                    # Save from `states` (possibly guard-clamped), and
                    # only for rows the guard left running.
                    hit_rows = active[hits]
                    hit_rows = hit_rows[status[hit_rows] == RUNNING]
                    result.y[hit_rows, save_index[hit_rows], :] = \
                        states[hit_rows]
                    save_index[hit_rows] += 1
                    status[hit_rows[save_index[hit_rows] >= t_eval.size]] = OK

                err_acc = np.maximum(err[accepted], 1e-10)
                factor = options.safety * err_acc ** error_exponent
                if self.use_pi_controller:
                    memory = previous_errors[acc_rows]
                    has_memory = memory > 0.0
                    pi_scale = np.where(
                        has_memory,
                        (np.maximum(memory, 1e-10) / err_acc) ** 0.04, 1.0)
                    factor *= pi_scale
                factor = np.clip(factor, options.min_step_factor,
                                 options.max_step_factor)
                previous_errors[acc_rows] = err_acc
                steps[acc_rows] = np.minimum(h_act[accepted] * factor,
                                             max_step)

            if rej_rows.size:
                err_rej = err[~accepted]
                shrink = np.where(
                    np.isfinite(err_rej),
                    np.maximum(options.min_step_factor,
                               options.safety * err_rej ** error_exponent),
                    options.min_step_factor)
                steps[rej_rows] = h_act[~accepted] * shrink

        tracer.end(loop_span)
        # Save points are recorded in-loop by per-sim step clipping, so
        # the dense-output phase of this substrate is only the result
        # hand-off; the span keeps the phase catalog uniform.
        with tracer.span("dense-output", "phase",
                         parent=problem.trace_span, solver=self.name):
            return result

    @staticmethod
    def _stiffness_test(acc_rows, accepted, h_act, y_new, penultimate_states,
                        stage_k, status, strikes, nonstiff_streak) -> None:
        """Vectorized Hairer stiffness test on the accepted subset.

        The last two DOPRI5 stages both sit at t + h; the ratio of their
        derivative difference to their state difference estimates
        h * rho(J). Persistent violations of the explicit stability
        boundary flag the simulation as stiff and deactivate it (unless
        it already finished).
        """
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            numerator = np.sum(
                (stage_k[-1, accepted] - stage_k[-2, accepted]) ** 2,
                axis=1)
            denominator = np.sum(
                (y_new[accepted] - penultimate_states[accepted]) ** 2,
                axis=1)
            valid = (denominator > 0.0) & np.isfinite(denominator)
            h_lambda = h_act[accepted] * np.sqrt(numerator / denominator)
        violated = valid & (h_lambda > _STIFFNESS_BOUNDARY)
        strikes[acc_rows[violated]] += 1
        nonstiff_streak[acc_rows[violated]] = 0
        calm = acc_rows[~violated]
        nonstiff_streak[calm] += 1
        reset = calm[nonstiff_streak[calm] >= 6]
        strikes[reset] = 0
        flagged = acc_rows[strikes[acc_rows] >= _STIFFNESS_PATIENCE]
        still_running = flagged[status[flagged] == RUNNING]
        status[still_running] = STIFF
