"""Batched variable-order BDF integrator (the cupSODA-analog engine).

The original coarse-grained GPU simulator (cupSODA) runs one
LSODA-style multistep integration per device thread. This module is
its NumPy analog built on our from-scratch scalar
:class:`~repro.solvers.bdf.BDF`: every simulation carries its own
backward-difference table, step size, *order* and Newton state, and the
per-step math executes as batched kernels over groups of simulations
that share the same current order (orders 1-5, so at most five groups
per sweep).

Step-size rescalings of the difference table are per-simulation (the
R(factor) matrices are tiny and factor-specific), which mirrors the
original's per-thread sequential bookkeeping.
"""

from __future__ import annotations

import numpy as np

from ..backend import xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.bdf import (ALPHA, ERROR_CONST, GAMMA, MAX_ORDER,
                           NEWTON_MAXITER, change_difference_array)
from .batch_loop import StepLoop, scaled_error_norms
from .batch_result import METHOD_BDF, BatchSolveResult
from .batched_ode import BatchedODEProblem


class BatchBDF:
    """Adaptive-order batched BDF for coarse-grained stiff batches."""

    name = "batch-bdf"
    method_code = METHOD_BDF

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: np.ndarray | None = None,
              initial_states: np.ndarray | None = None) -> BatchSolveResult:
        options = self.options
        newton_tol = max(10 * np.finfo(float).eps / options.rtol,
                         min(0.03, options.rtol ** 0.5))
        loop = StepLoop(self, problem, t_span, t_eval, initial_states, 1)
        times, steps = loop.times, loop.steps
        batch = problem.batch_size
        n = problem.n_species
        identity = np.eye(n)

        differences = np.zeros((batch, MAX_ORDER + 3, n))
        differences[:, 0, :] = loop.states
        differences[:, 1, :] = loop.derivatives * steps[:, None]
        # The current states live in the table's zeroth slice.
        states = differences[:, 0, :]
        orders = np.ones(batch, dtype=np.int64)
        steps_at_order = np.zeros(batch, dtype=np.int64)

        jacobians = problem.jacobian(times, loop.states, loop.all_rows)
        jac_current = np.ones(batch, dtype=bool)
        inverses = np.zeros((batch, n, n))
        c_factored = np.full(batch, -1.0)
        loop.start()

        while (active := loop.active()).size:
            # Catch-up guard: a row that drifted past its next save
            # point by floating-point accident records the current
            # state there (the drift is below the solver tolerance).
            t_act = times[active]
            behind = loop.behind(active, t_act)
            if behind.size:
                loop.record_saves(behind, states)
                active = loop.active()
                if active.size == 0:
                    continue
                t_act = times[active]

            # Clip to the horizon and the next save point (per-sim D
            # rescale for real step changes).
            target = np.minimum(loop.t1, loop.next_save(active)) - t_act
            needs_clip = steps[active] > target * (1.0 + 1e-12)
            # Each row clips by a different factor and the difference-
            # table rescale is order-local, so this stays per-row.
            # lint: skip=KRN001 -- per-row D rescale, scalar by design
            for local in np.flatnonzero(needs_clip):
                row = active[local]
                factor = target[local] / steps[row]
                if factor <= 0.0:
                    continue
                # lint: skip=KRN002 -- mixed per-row orders, scalar by design
                change_difference_array(differences[row], int(orders[row]),
                                        factor)
                steps[row] = target[local]
                steps_at_order[row] = 0
            active, t_act, _ = loop.drop_broken(active, t_act, steps[active])
            if active.size == 0:
                continue
            loop.result.n_steps[active] += 1

            # Group on a snapshot: a row that raises its order inside
            # this sweep must not be stepped again by the higher-order
            # group of the same sweep.
            orders_snapshot = orders.copy()
            for order in range(1, MAX_ORDER + 1):
                group = active[orders_snapshot[active] == order]
                if group.size:
                    self._step_group(problem, loop, group, order,
                                     differences, orders, steps_at_order,
                                     jacobians, jac_current, inverses,
                                     c_factored, identity, newton_tol)

        return loop.finish()

    # ------------------------------------------------------------------

    def _step_group(self, problem, loop, rows, order, differences, orders,
                    steps_at_order, jacobians, jac_current, inverses,
                    c_factored, identity, newton_tol) -> None:
        options = self.options
        times, steps, result = loop.times, loop.steps, loop.result
        h = steps[rows]
        t_new = times[rows] + h
        d_group = differences[rows]
        y_predict = d_group[:, :order + 1, :].sum(axis=1)
        psi = np.einsum("bon,o->bn", d_group[:, 1:order + 1, :],
                        GAMMA[1:order + 1]) / ALPHA[order]
        c = h / ALPHA[order]

        refactor = c_factored[rows] != c
        if np.any(refactor):
            ref_rows = rows[refactor]
            matrices = identity[None] - c[refactor, None, None] \
                * jacobians[ref_rows]
            inverses[ref_rows] = xp.batched_inv(matrices)
            c_factored[ref_rows] = c[refactor]
            problem.counters.factorizations += ref_rows.size

        converged, n_iter, y_new, correction = self._newton(
            problem, rows, t_new, y_predict, c, psi, inverses, newton_tol)

        failed = ~converged
        if np.any(failed):
            failed_rows = rows[failed]
            stale = failed_rows[~jac_current[failed_rows]]
            if stale.size:
                jacobians[stale] = problem.jacobian(times[stale],
                                                    differences[stale, 0, :],
                                                    stale)
                jac_current[stale] = True
                c_factored[stale] = -1.0
            fresh = np.setdiff1d(failed_rows, stale, assume_unique=True)
            # lint: skip=KRN001 -- Newton-failure fallback on a small subset
            for row in fresh:
                change_difference_array(differences[row], order, 0.5)
                steps[row] *= 0.5
                steps_at_order[row] = 0
                c_factored[row] = -1.0
            result.n_rejected[failed_rows] += 1
        if not np.any(converged):
            return

        conv_rows = rows[converged]
        y_new = y_new[converged]
        correction = correction[converged]
        h_conv = h[converged]
        n_iter = n_iter[converged]
        y_old = differences[conv_rows, 0, :]
        error = ERROR_CONST[order] * correction
        err = scaled_error_norms(error, y_old, y_new, options)
        finite = np.all(np.isfinite(y_new), axis=1)
        err = np.where(finite, err, np.inf)
        safety = 0.9 * (2 * NEWTON_MAXITER + 1) / \
            (2 * NEWTON_MAXITER + n_iter)

        rejected = err >= 1.0
        if np.any(rejected):
            rej_rows = conv_rows[rejected]
            result.n_rejected[rej_rows] += 1
            # lint: skip=KRN001 -- rejected rows shrink by per-row factors
            for local, row in zip(np.flatnonzero(rejected), rej_rows):
                factor = options.min_step_factor
                if np.isfinite(err[local]) and err[local] > 0:
                    factor = max(options.min_step_factor,
                                 safety[local]
                                 * err[local] ** (-1.0 / (order + 1)))
                change_difference_array(differences[row], order, factor)
                steps[row] *= factor
                steps_at_order[row] = 0
                c_factored[row] = -1.0

        accepted = ~rejected
        if not np.any(accepted):
            return
        acc_rows = conv_rows[accepted]
        result.n_accepted[acc_rows] += 1
        times[acc_rows] += h_conv[accepted]
        jac_current[acc_rows] = False
        steps_at_order[acc_rows] += 1

        # Difference-table update (vectorized over the accepted group).
        corr = correction[accepted]
        differences[acc_rows, order + 2, :] = \
            corr - differences[acc_rows, order + 1, :]
        differences[acc_rows, order + 1, :] = corr
        for i in reversed(range(order + 1)):
            differences[acc_rows, i, :] += differences[acc_rows, i + 1, :]

        t_acc = times[acc_rows]
        states = differences[:, 0, :]
        if problem.guard is not None:
            # Pass the basic-slice view of the current states so clamps
            # write through to the difference table.
            problem.guard.after_accept(states, acc_rows,
                                       problem.row_ids[acc_rows], t_acc,
                                       loop.status)
        loop.record_saves(acc_rows[np.abs(t_acc - loop.next_save(acc_rows))
                                   <= 1e-9 * np.maximum(1.0, np.abs(t_acc))],
                          states)

        # Order/step adaptation for rows that completed order+1 steps.
        adapt = acc_rows[steps_at_order[acc_rows] >= order + 1]
        # lint: skip=KRN002 -- scalar map feeding the per-row order change
        err_by_row = {int(row): float(err[local])
                      for local, row in zip(np.flatnonzero(accepted),
                                            acc_rows)}
        # Order adaptation is per-row by construction: rows sit at
        # different BDF orders, so their difference tables have
        # different shapes and cannot be updated as one kernel.
        # lint: skip=KRN001 -- mixed per-row orders, scalar by design
        for row in adapt:
            self._adapt_order(row, order, differences, steps, orders,
                              steps_at_order, c_factored,
                              err_by_row[int(row)], options, loop.max_step)

    def _newton(self, problem, rows, t_new, y_predict, c, psi, inverses,
                tol):
        options = self.options
        b = rows.size
        y = y_predict.copy()
        correction = np.zeros_like(y)
        scale = options.atol + options.rtol * np.abs(y_predict)
        converged = np.zeros(b, dtype=bool)
        failed = np.zeros(b, dtype=bool)
        n_iterations = np.zeros(b, dtype=np.int64)
        previous = np.full(b, -1.0)
        for _ in range(NEWTON_MAXITER):
            work = np.flatnonzero(~converged & ~failed)
            if work.size == 0:
                break
            n_iterations[work] += 1
            problem.counters.newton_iterations += work.size
            f = problem.fun(t_new[work], y[work], rows[work])
            bad = ~np.all(np.isfinite(f), axis=1)
            if np.any(bad):
                failed[work[bad]] = True
                work = work[~bad]
                if work.size == 0:
                    continue
                f = f[~bad]
            residual = c[work, None] * f - psi[work] - correction[work]
            delta = xp.batched_matvec(inverses[rows[work]], residual)
            norms = np.sqrt(np.mean((delta / scale[work]) ** 2, axis=1))
            have_prev = previous[work] > 0
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                rate = np.where(have_prev,
                                norms / np.maximum(previous[work], 1e-300),
                                np.nan)
                hopeless = have_prev & ((rate >= 1.0)
                                        | (rate / (1 - rate) * norms > tol))
            failed[work[hopeless]] = True
            keep = ~hopeless
            work = work[keep]
            if work.size == 0:
                continue
            delta = delta[keep]
            norms = norms[keep]
            y[work] += delta
            correction[work] += delta
            with np.errstate(divide="ignore", invalid="ignore"):
                done = (norms == 0.0) | (
                    (previous[work] > 0)
                    & ((norms / np.maximum(previous[work], 1e-300))
                       / (1 - np.minimum(norms / np.maximum(previous[work],
                                                            1e-300),
                                         0.999)) * norms < tol))
            converged[work[done]] = True
            previous[work] = norms
        return converged, n_iterations, y, correction

    def _adapt_order(self, row, order, differences, steps, orders,
                     steps_at_order, c_factored, current_err, options,
                     max_step) -> None:
        scale = options.atol + options.rtol * \
            np.abs(differences[row, 0, :])

        def norm_of(vector):
            return float(np.sqrt(np.mean((vector / scale) ** 2)))

        candidates = [order]
        norms = [max(current_err, 1e-10)]
        if order > 1:
            candidates.insert(0, order - 1)
            norms.insert(0, max(norm_of(ERROR_CONST[order - 1]
                                        * differences[row, order, :]),
                                1e-10))
        if order < MAX_ORDER:
            candidates.append(order + 1)
            norms.append(max(norm_of(ERROR_CONST[order + 1]
                                     * differences[row, order + 2, :]),
                             1e-10))
        factors = [norms[i] ** (-1.0 / (candidates[i] + 1))
                   for i in range(len(candidates))]
        best = int(np.argmax(factors))
        new_order = candidates[best]
        factor = float(np.clip(0.9 * factors[best],
                               options.min_step_factor,
                               options.max_step_factor))
        orders[row] = new_order
        new_h = min(steps[row] * factor, max_step)
        factor = new_h / steps[row]
        if factor > 0:
            change_difference_array(differences[row], int(new_order),
                                    factor)
            steps[row] = new_h
        steps_at_order[row] = 0
        c_factored[row] = -1.0
