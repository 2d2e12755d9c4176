"""Batched Dormand-Prince 5(4) integrator.

The coarse-grained axis of the substrate: every active simulation in
the batch advances through the same sequence of vectorized stage
kernels, but each keeps its own time, step size, PI controller memory
and accept/reject decision — the NumPy realization of one CUDA thread
(block) per simulation with per-thread adaptive stepping.

The per-row time, step, save cursor and status live in
:class:`~repro.gpu.batch_loop.StepLoop`, shared with the implicit
integrators.
"""

from __future__ import annotations

import numpy as np

from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.tableaus import DOPRI5
from .batch_loop import StepLoop, scaled_error_norms
from .batch_result import METHOD_DOPRI5, RUNNING, STIFF, BatchSolveResult
from .batched_ode import BatchedODEProblem

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
                 abort_on_stiffness: bool = False) -> None:
        self.options = options
        self.abort_on_stiffness = abort_on_stiffness

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: np.ndarray | None = None,
              initial_states: np.ndarray | None = None) -> BatchSolveResult:
        options = self.options
        tableau = DOPRI5
        loop = StepLoop(self, problem, t_span, t_eval, initial_states,
                        tableau.order)
        result, status = loop.result, loop.status
        states, derivatives = loop.states, loop.derivatives
        times, steps = loop.times, loop.steps
        batch = problem.batch_size
        n = problem.n_species
        previous_errors = np.full(batch, -1.0)  # <0: no PI memory yet
        error_exponent = -1.0 / (tableau.error_order + 1)
        stiffness_strikes = np.zeros(batch, dtype=np.int64)
        nonstiff_streak = np.zeros(batch, dtype=np.int64)
        loop.start()

        while (active := loop.active()).size:
            t_act, h_act, hit = loop.clip(active)
            active, t_act, h_act, hit = loop.drop_broken(active, t_act,
                                                         h_act, hit)
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
                err = scaled_error_norms(local_error, y_act, y_new,
                                         options)
            finite = np.all(np.isfinite(y_new), axis=1)
            err = np.where(finite, err, np.inf)

            accepted = err <= 1.0
            acc_rows = active[accepted]
            rej_rows = active[~accepted]
            result.n_accepted[acc_rows] += 1

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

                # Save from `states`, possibly guard-clamped.
                loop.record_saves(acc_rows[hit[accepted]], states)

                err_acc = np.maximum(err[accepted], 1e-10)
                memory = previous_errors[acc_rows]
                pi_scale = np.where(
                    memory > 0.0,
                    (np.maximum(memory, 1e-10) / err_acc) ** 0.04, 1.0)
                factor = np.clip(
                    options.safety * err_acc ** error_exponent * pi_scale,
                    options.min_step_factor, options.max_step_factor)
                previous_errors[acc_rows] = err_acc
                steps[acc_rows] = np.minimum(h_act[accepted] * factor,
                                             loop.max_step)

            if rej_rows.size:
                result.n_rejected[rej_rows] += 1
                err_rej = err[~accepted]
                shrink = np.where(
                    np.isfinite(err_rej),
                    np.maximum(options.min_step_factor,
                               options.safety * err_rej ** error_exponent),
                    options.min_step_factor)
                steps[rej_rows] = h_act[~accepted] * shrink

        return loop.finish()

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
