"""Per-simulation stiffness routing (the phase-P2 analog).

Before integrating, every simulation's Jacobian at its initial state is
probed by batched power iteration; simulations whose spectral radius
exceeds the configured threshold are routed to the batched Radau IIA
solver, the rest to batched DOPRI5. Simulations that DOPRI5 fails to
finish (step-budget exhaustion or breakdown — the usual symptom of
undetected stiffness) are *re-executed* with Radau IIA, mirroring the
paper family's fallback re-run of failed explicit simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..lint.model_rules import STIFFNESS_SAFE_DECADES, stiffness_risk_score
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.stiffness import power_iteration_matvec
from .batch_dopri5 import BatchDopri5
from .batch_radau5 import BatchRadau5
from .batch_result import (METHOD_DOPRI5, OK, BatchSolveResult,
                           allocate_result)
from .batched_ode import BatchedODEProblem


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of the stiffness classification of a batch.

    Attributes
    ----------
    stiff_mask:
        Boolean per-simulation stiff/non-stiff classification.
    spectral_radii:
        Dominant-eigenvalue magnitude estimates, shape (B,). All zero
        when the probe was skipped.
    threshold:
        The cutoff the mask was computed against.
    probe_skipped:
        True when the static stiffness-risk prefilter (see
        :func:`repro.lint.model_rules.stiffness_risk_score`) classified
        the whole batch as safely non-stiff, so the power-iteration
        probe never ran.
    stiff_method:
        Implicit solver the stiff rows (and failed-row re-executions)
        were sent to — ``"radau5"`` by default, ``"bdf"`` when a
        calibrated cost model said BDF is cheaper for this bucket.
    """

    stiff_mask: np.ndarray
    spectral_radii: np.ndarray
    threshold: float
    probe_skipped: bool = False
    stiff_method: str = "radau5"

    @property
    def n_stiff(self) -> int:
        return int(np.sum(self.stiff_mask))

    def to_dict(self) -> dict:
        return {"stiff_mask": [bool(v) for v in self.stiff_mask],
                "spectral_radii": [float(v) for v in self.spectral_radii],
                "threshold": float(self.threshold),
                "probe_skipped": bool(self.probe_skipped),
                "stiff_method": str(self.stiff_method)}

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingDecision":
        return cls(np.asarray(data["stiff_mask"], dtype=bool),
                   np.asarray(data["spectral_radii"], dtype=np.float64),
                   float(data["threshold"]),
                   bool(data.get("probe_skipped", False)),
                   str(data.get("stiff_method", "radau5")))


def classify_batch(problem: BatchedODEProblem, t0: float,
                   threshold: float,
                   initial_states: np.ndarray | None = None,
                   static_risk: float | None = None) -> RoutingDecision:
    """Stiffness classification of every simulation in a batch.

    Uses a matrix-free power iteration on the Jacobian action
    (finite-difference directional derivatives of the batched RHS), so
    the probe costs a handful of RHS kernel launches instead of a full
    (B, N, N) Jacobian assembly.

    ``static_risk`` is the linter's static stiffness-risk score for the
    batch (decades spanned by the rate constants). When it is below
    :data:`~repro.lint.model_rules.STIFFNESS_SAFE_DECADES` the whole
    batch is classified non-stiff without running the probe; this is
    safe because DOPRI5 detects stiffness at run time and the router
    re-executes any failed simulation with Radau IIA.
    """
    if static_risk is not None and static_risk < STIFFNESS_SAFE_DECADES:
        batch = problem.batch_size
        return RoutingDecision(np.zeros(batch, dtype=bool),
                               np.zeros(batch), threshold,
                               probe_skipped=True)
    states = (problem.initial_states() if initial_states is None
              else np.asarray(initial_states, dtype=np.float64))
    rows = np.arange(problem.batch_size)
    times = np.full(rows.size, t0)
    base = problem.fun(times, states, rows)
    scale = 1e-7 * (np.linalg.norm(states, axis=1, keepdims=True) + 1.0)

    def jacobian_action(directions: np.ndarray) -> np.ndarray:
        probes = states + scale * directions
        return (problem.fun(times, probes, rows) - base) / scale

    estimate = power_iteration_matvec(jacobian_action, states)
    return RoutingDecision(estimate.spectral_radius > threshold,
                           estimate.spectral_radius, threshold)


class StiffnessRouter:
    """Route each simulation to DOPRI5 or Radau IIA and merge results."""

    name = "router"

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS,
                 retry_failed_with_radau: bool = True,
                 use_static_prefilter: bool = True,
                 cost_model=None) -> None:
        self.options = options
        self.retry_failed_with_radau = retry_failed_with_radau
        self.use_static_prefilter = use_static_prefilter
        # Optional fitted CalibrationReport (or anything exposing
        # ``preferred_stiff_method(rows, n_species)``): lets measured
        # per-row cost pick the implicit rung instead of the Radau
        # default. No model / no evidence -> behavior is unchanged.
        self.cost_model = cost_model

    def _implicit_solver(self, batch_size: int, n_species: int):
        """Implicit solver class + name for this batch shape."""
        if self.cost_model is not None:
            preferred = self.cost_model.preferred_stiff_method(
                batch_size, n_species)
            if preferred == "bdf":
                from .batch_bdf import BatchBDF
                return BatchBDF, "bdf"
        return BatchRadau5, "radau5"

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: np.ndarray | None = None,
              initial_states: np.ndarray | None = None
              ) -> tuple[BatchSolveResult, RoutingDecision]:
        """Integrate a batch with per-simulation method selection."""
        static_risk = None
        if self.use_static_prefilter and self.retry_failed_with_radau:
            static_risk = stiffness_risk_score(
                problem.parameters.rate_constants)
        decision = classify_batch(problem, float(t_span[0]),
                                  self.options.stiffness_threshold,
                                  initial_states, static_risk)
        states = (problem.initial_states() if initial_states is None
                  else np.asarray(initial_states, dtype=np.float64))

        batch = problem.batch_size
        if t_eval is None:
            t_eval = np.array([float(t_span[0]), float(t_span[1])])
        t_eval = np.asarray(t_eval, dtype=np.float64)
        merged = allocate_result(t_eval, batch, problem.n_species,
                                 METHOD_DOPRI5)
        merged.counters = problem.counters

        nonstiff_rows = np.flatnonzero(~decision.stiff_mask)
        stiff_rows = np.flatnonzero(decision.stiff_mask)
        implicit_cls, stiff_method = self._implicit_solver(
            batch, problem.n_species)
        decision = replace(decision, stiff_method=stiff_method)

        if nonstiff_rows.size:
            explicit = BatchDopri5(
                self.options,
                abort_on_stiffness=self.retry_failed_with_radau).solve(
                    problem.subset(nonstiff_rows), t_span, t_eval,
                    states[nonstiff_rows])
            self._splice(merged, explicit, nonstiff_rows)
            if self.retry_failed_with_radau:
                failed_rows = nonstiff_rows[explicit.status_codes != OK]
                if failed_rows.size:
                    retried = implicit_cls(self.options).solve(
                        problem.subset(failed_rows), t_span, t_eval,
                        states[failed_rows])
                    self._splice(merged, retried, failed_rows)
        if stiff_rows.size:
            implicit = implicit_cls(self.options).solve(
                problem.subset(stiff_rows), t_span, t_eval,
                states[stiff_rows])
            self._splice(merged, implicit, stiff_rows)
        return merged, decision

    @staticmethod
    def _splice(merged: BatchSolveResult, part: BatchSolveResult,
                rows: np.ndarray) -> None:
        merged.y[rows] = part.y
        merged.status_codes[rows] = part.status_codes
        merged.method_codes[rows] = part.method_codes
        merged.n_steps[rows] += part.n_steps
        merged.n_accepted[rows] += part.n_accepted
        merged.n_rejected[rows] += part.n_rejected
