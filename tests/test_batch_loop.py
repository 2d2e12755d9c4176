"""Tests for the step-loop bookkeeping every batched integrator shares."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpu import BatchBDF, BatchDopri5, BatchRadau5, BatchedODEProblem
from repro.gpu.batch_loop import StepLoop
from repro.gpu.batch_result import (BROKEN, EXHAUSTED, GUARD, METHOD_DOPRI5,
                                    OK)
from repro.model import ODESystem, perturbed_batch
from repro.models import decay_chain, lotka_volterra
from repro.resilience import FaultPlan
from repro.solvers import SolverOptions

SOLVERS = pytest.mark.parametrize(
    "solver_cls", [BatchDopri5, BatchRadau5, BatchBDF],
    ids=["dopri5", "radau5", "bdf"])


def make_problem(model, batch_size, fault_plan=None):
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(0), 0.25)
    return BatchedODEProblem(ODESystem.from_model(model), batch,
                             fault_plan=fault_plan)


@SOLVERS
class TestStepLoopBookkeeping:
    def test_max_steps_marks_exhausted(self, solver_cls):
        problem = make_problem(lotka_volterra(), 3)
        result = solver_cls(SolverOptions(max_steps=3)).solve(
            problem, (0, 50), np.array([0.0, 50.0]))
        assert np.all(result.status_codes == EXHAUSTED)
        assert np.all(result.n_steps == 3)

    def test_grid_without_t0(self, solver_cls):
        problem = make_problem(decay_chain(2), 3)
        result = solver_cls().solve(problem, (0, 2), np.array([1.0, 2.0]))
        assert result.all_success
        assert result.y.shape[1] == 2
        assert not np.any(np.isnan(result.y))

    def test_nan_row_breaks_alone(self, solver_cls):
        model = lotka_volterra()
        grid = np.linspace(0.0, 5.0, 6)
        clean = solver_cls().solve(make_problem(model, 4), (0, 5), grid)
        faulted = solver_cls().solve(
            make_problem(model, 4, FaultPlan(nan_rows=(1,))), (0, 5), grid)
        assert faulted.status_codes[1] == BROKEN
        others = np.array([0, 2, 3])
        assert clean.all_success
        for name in ("y", "status_codes", "n_steps", "n_accepted",
                     "n_rejected"):
            assert np.array_equal(getattr(faulted, name)[others],
                                  getattr(clean, name)[others]), name


class TestSaveRecording:
    def test_catch_up_saves_running_rows_and_finishes_full_grids(self):
        problem = make_problem(decay_chain(2), 3)
        solver = SimpleNamespace(name="probe", method_code=METHOD_DOPRI5,
                                 options=SolverOptions())
        loop = StepLoop(solver, problem, (0, 1), np.array([0.0, 0.5, 1.0]),
                        None, 5)
        loop.start()
        loop.status[2] = GUARD
        loop.times[:] = 0.75
        loop.states[:] = 7.0
        active = loop.active()
        behind = loop.behind(active, loop.times[active])
        assert behind.tolist() == [0, 1]
        loop.record_saves(behind, loop.states)
        assert np.all(loop.result.y[:2, 1] == 7.0)
        assert np.all(np.isnan(loop.result.y[:, 2]))
        loop.record_saves(np.arange(3), loop.states)
        assert np.all(loop.result.y[:2, 1:] == 7.0)
        # The guard stopped row 2: nothing after its t0 save is recorded.
        assert np.all(np.isnan(loop.result.y[2, 1:]))
        assert loop.status.tolist() == [OK, OK, GUARD]
        assert loop.active().size == 0
