"""Result schema shared by the batched GPU-style integrators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batched_ode import KernelCounters

#: Per-simulation integer status codes.
RUNNING = 0
OK = 1
EXHAUSTED = 2
BROKEN = 3
STIFF = 4
GUARD = 5

STATUS_NAMES = {RUNNING: "running", OK: "success",
                EXHAUSTED: "max_steps", BROKEN: "failed",
                STIFF: "stiff_detected", GUARD: "guard_violation"}

#: Per-simulation method codes.
METHOD_DOPRI5 = 0
METHOD_RADAU5 = 1
METHOD_LSODA = 2
METHOD_VODE = 3
METHOD_AUTOSWITCH = 4
METHOD_SSA = 5
METHOD_TAU_LEAPING = 6
METHOD_BDF = 7
METHOD_NAMES = {METHOD_DOPRI5: "dopri5", METHOD_RADAU5: "radau5",
                METHOD_LSODA: "lsoda", METHOD_VODE: "vode",
                METHOD_AUTOSWITCH: "autoswitch", METHOD_SSA: "ssa",
                METHOD_TAU_LEAPING: "tau-leaping", METHOD_BDF: "bdf"}


@dataclass
class BatchSolveResult:
    """Trajectories and statistics of a batched integration.

    Attributes
    ----------
    t:
        Shared save-time grid, shape (T,).
    y:
        Trajectories, shape (B, T, N). Rows of failed simulations are
        valid up to their recorded save count and NaN afterwards.
    status_codes:
        Shape (B,), values in {OK, EXHAUSTED, BROKEN, STIFF, GUARD}
        (STIFF only appears transiently: the router re-executes
        stiff-flagged rows with Radau IIA before returning; GUARD marks
        rows a numerical-integrity guard deactivated).
    method_codes:
        Shape (B,), which integrator produced each row.
    n_steps, n_accepted, n_rejected:
        Per-simulation step counters, each shape (B,).
    counters:
        Substrate-level kernel/work counters.
    elapsed_seconds:
        Wall-clock of the integration (filled by the engine).
    """

    t: np.ndarray
    y: np.ndarray
    status_codes: np.ndarray
    method_codes: np.ndarray
    n_steps: np.ndarray
    n_accepted: np.ndarray
    n_rejected: np.ndarray
    counters: KernelCounters = field(default_factory=KernelCounters)
    elapsed_seconds: float = 0.0

    @property
    def batch_size(self) -> int:
        return self.y.shape[0]

    @property
    def n_species(self) -> int:
        return self.y.shape[2]

    @property
    def success_mask(self) -> np.ndarray:
        return self.status_codes == OK

    @property
    def failed_mask(self) -> np.ndarray:
        """Rows that did not finish (any status other than OK)."""
        return self.status_codes != OK

    @property
    def all_success(self) -> bool:
        return bool(np.all(self.status_codes == OK))

    def statuses(self) -> list[str]:
        return [STATUS_NAMES[int(code)] for code in self.status_codes]

    def methods(self) -> list[str]:
        return [METHOD_NAMES[int(code)] for code in self.method_codes]

    def trajectory(self, index: int) -> np.ndarray:
        """One simulation's trajectory, shape (T, N)."""
        return self.y[index]

    def final_states(self) -> np.ndarray:
        """States at the last save time, shape (B, N)."""
        return self.y[:, -1, :]

    def merge_rows(self, other: "BatchSolveResult",
                   rows: np.ndarray) -> None:
        """Overwrite the given rows with another result's rows.

        Used by the router and the retry ladder to splice per-method
        sub-batches back into the full batch. ``other`` must hold
        exactly ``rows.size`` simulations on the same time grid.

        Counters are only merged when the two results do *not* already
        share one substrate account: the engine threads a single
        :class:`~repro.gpu.batched_ode.KernelCounters` through every
        launch chunk and router subset, and merging an account into
        itself would double-count all substrate work.
        """
        self.y[rows] = other.y
        self.status_codes[rows] = other.status_codes
        self.method_codes[rows] = other.method_codes
        self.n_steps[rows] = other.n_steps
        self.n_accepted[rows] = other.n_accepted
        self.n_rejected[rows] = other.n_rejected
        if other.counters is not self.counters:
            self.counters.merge(other.counters)

    def take_rows(self, rows: np.ndarray) -> "BatchSolveResult":
        """Copy of a row subset (fresh, empty counter account)."""
        return BatchSolveResult(
            t=self.t.copy(),
            y=self.y[rows].copy(),
            status_codes=self.status_codes[rows].copy(),
            method_codes=self.method_codes[rows].copy(),
            n_steps=self.n_steps[rows].copy(),
            n_accepted=self.n_accepted[rows].copy(),
            n_rejected=self.n_rejected[rows].copy(),
            elapsed_seconds=self.elapsed_seconds,
        )


def allocate_result(t_eval: np.ndarray, batch_size: int, n_species: int,
                    method_code: int) -> BatchSolveResult:
    """Fresh result with NaN trajectories and 'running' statuses."""
    return BatchSolveResult(
        t=t_eval.copy(),
        y=np.full((batch_size, t_eval.size, n_species), np.nan),
        status_codes=np.full(batch_size, RUNNING, dtype=np.int64),
        method_codes=np.full(batch_size, method_code, dtype=np.int64),
        n_steps=np.zeros(batch_size, dtype=np.int64),
        n_accepted=np.zeros(batch_size, dtype=np.int64),
        n_rejected=np.zeros(batch_size, dtype=np.int64),
    )
