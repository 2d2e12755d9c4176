"""Batched right-hand-side bindings for the GPU-style engines.

A :class:`BatchedODEProblem` binds a compiled
:class:`~repro.model.odesystem.ODESystem` to a batch of
parameterizations and an evaluation policy, exposing the masked-subset
evaluation interface the batched integrators consume:

    fun(times, states, rows)      -> derivatives for the selected sims
    jacobian(times, states, rows) -> batched Jacobians for the selection

``rows`` indexes into the batch (the active-simulation subset of the
current integration step), so per-simulation kinetic constants are
looked up device-side without host round trips — the analog of keeping
the parameter matrix resident in GPU global memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SolverError
from ..model import ODESystem, ParameterizationBatch
from ..model.odesystem import POLICIES

if TYPE_CHECKING:  # layering: resilience.faults is a leaf data module
    from ..guards.state import KernelGuard
    from ..resilience.faults import FaultPlan
    from ..telemetry.tracer import SpanHandle, Tracer


@dataclass
class KernelCounters:
    """Workload counters of the batched substrate.

    ``kernel_launches`` counts vectorized evaluation calls (the analog
    of CUDA kernel launches); ``simulation_evaluations`` counts the
    per-simulation work they performed (launches x active batch width).
    """

    rhs_kernel_launches: int = 0
    rhs_simulation_evaluations: int = 0
    jacobian_kernel_launches: int = 0
    jacobian_simulation_evaluations: int = 0
    factorizations: int = 0
    newton_iterations: int = 0

    def merge(self, other: "KernelCounters") -> None:
        self.rhs_kernel_launches += other.rhs_kernel_launches
        self.rhs_simulation_evaluations += other.rhs_simulation_evaluations
        self.jacobian_kernel_launches += other.jacobian_kernel_launches
        self.jacobian_simulation_evaluations += \
            other.jacobian_simulation_evaluations
        self.factorizations += other.factorizations
        self.newton_iterations += other.newton_iterations


@dataclass
class BatchedODEProblem:
    """An ODE system bound to a parameter batch and an eval policy.

    ``row_ids`` gives every row a stable *global* identity (its index
    in the full campaign batch) that survives router/retry subsetting;
    ``fault_plan`` is the deterministic fault-injection hook of the
    resilience layer — rows listed in its ``nan_rows`` get NaN
    derivatives on every RHS evaluation, and rows in ``drift_rows`` get
    a constant bias added (violating conservation), keyed by global
    identity so the fault follows the row through subsets and launch
    chunks. ``guard`` is the in-kernel state-validity guard
    (:class:`repro.guards.KernelGuard`), likewise keyed by global ids
    and travelling through every subset.

    ``tracer``/``trace_span`` carry the telemetry context into the
    integrators: solvers emit their kernel-phase spans
    (compile / step-loop / dense-output) as children of ``trace_span``
    through ``tracer`` (see :mod:`repro.telemetry`). Both default to
    off and, like the counters, travel through every subset.
    """

    system: ODESystem
    parameters: ParameterizationBatch
    policy: str = "hybrid"
    counters: KernelCounters = field(default_factory=KernelCounters)
    fault_plan: "FaultPlan | None" = None
    row_ids: np.ndarray | None = None
    guard: "KernelGuard | None" = None
    tracer: "Tracer | None" = None
    trace_span: "SpanHandle | None" = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise SolverError(f"unknown policy {self.policy!r}; "
                              f"expected one of {POLICIES}")
        if self.row_ids is None:
            self.row_ids = np.arange(self.parameters.size, dtype=np.int64)
        else:
            self.row_ids = np.asarray(self.row_ids, dtype=np.int64)
            if self.row_ids.shape != (self.parameters.size,):
                raise SolverError(
                    f"row_ids shape {self.row_ids.shape} does not match "
                    f"batch size {self.parameters.size}")
        if self.parameters.n_reactions != self.system.n_reactions:
            raise SolverError(
                f"parameter batch has {self.parameters.n_reactions} rate "
                f"constants, system has {self.system.n_reactions} reactions")
        if self.parameters.n_species != self.system.n_species:
            raise SolverError(
                f"parameter batch has {self.parameters.n_species} species "
                f"columns, system has {self.system.n_species} species")

    @property
    def batch_size(self) -> int:
        return self.parameters.size

    @property
    def n_species(self) -> int:
        return self.system.n_species

    def initial_states(self) -> np.ndarray:
        return self.parameters.initial_states.copy()

    def fun(self, times: np.ndarray, states: np.ndarray,
            rows: np.ndarray) -> np.ndarray:
        """Batched dX/dt for the simulations selected by ``rows``.

        ``times`` is accepted for interface uniformity; RBM dynamics are
        autonomous so it is unused.
        """
        del times
        constants = self.parameters.rate_constants[rows]
        self.counters.rhs_kernel_launches += 1
        self.counters.rhs_simulation_evaluations += rows.shape[0]
        derivatives = self.system.rhs(states, constants, self.policy)
        if self.fault_plan is not None:
            if self.fault_plan.injects_nan:
                faulted = self.fault_plan.nan_mask(self.row_ids[rows])
                if faulted.any():
                    derivatives[faulted] = np.nan
            if self.fault_plan.injects_drift:
                drifting = self.fault_plan.drift_mask(self.row_ids[rows])
                if drifting.any():
                    derivatives[drifting] += self.fault_plan.drift_rate
        return derivatives

    def jacobian(self, times: np.ndarray, states: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
        """Batched Jacobians for the selected simulations."""
        del times
        constants = self.parameters.rate_constants[rows]
        self.counters.jacobian_kernel_launches += 1
        self.counters.jacobian_simulation_evaluations += rows.shape[0]
        return self.system.jacobian(states, constants)

    def subset(self, rows: np.ndarray) -> "BatchedODEProblem":
        """Problem restricted to a subset of simulations.

        The kernel counters are *shared* with the parent problem so
        router-split sub-batches keep accumulating into one workload
        account; global row identities, the fault plan and the kernel
        guard travel with the subset.
        """
        return BatchedODEProblem(self.system, self.parameters.subset(rows),
                                 self.policy, self.counters,
                                 self.fault_plan, self.row_ids[rows],
                                 self.guard, self.tracer, self.trace_span)
