"""Tests for the batched RHS binding and kernel counters."""

import numpy as np
import pytest

from repro.backend import xp
from repro.errors import SolverError
from repro.gpu import (BatchBDF, BatchDopri5, BatchRadau5,
                       BatchedODEProblem)
from repro.model import ODESystem, perturbed_batch
from repro.models import decay_chain, robertson
from repro.solvers import SolverOptions


@pytest.fixture
def problem(toy_model):
    system = ODESystem.from_model(toy_model)
    batch = perturbed_batch(toy_model.nominal_parameterization(), 6,
                            np.random.default_rng(0))
    return BatchedODEProblem(system, batch)


class TestBinding:
    def test_shapes(self, problem):
        assert problem.batch_size == 6
        assert problem.n_species == 4
        assert problem.initial_states().shape == (6, 4)

    def test_row_selection_uses_right_constants(self, problem):
        states = problem.initial_states()
        rows = np.array([0, 3, 5])
        selected = problem.fun(np.zeros(3), states[rows], rows)
        full = problem.fun(np.zeros(6), states, np.arange(6))
        assert np.allclose(selected, full[rows])

    def test_jacobian_row_selection(self, problem):
        states = problem.initial_states()
        rows = np.array([1, 4])
        selected = problem.jacobian(np.zeros(2), states[rows], rows)
        full = problem.jacobian(np.zeros(6), states, np.arange(6))
        assert np.allclose(selected, full[rows])

    def test_policy_validation(self, toy_model):
        system = ODESystem.from_model(toy_model)
        batch = toy_model.batch(2)
        with pytest.raises(SolverError):
            BatchedODEProblem(system, batch, policy="ludicrous")

    def test_shape_mismatch_rejected(self, toy_model, chain_model):
        system = ODESystem.from_model(toy_model)
        wrong_batch = chain_model.batch(2)
        with pytest.raises(SolverError):
            BatchedODEProblem(system, wrong_batch)

    def test_subset_shares_counters(self, problem):
        subset = problem.subset(np.array([0, 1]))
        assert subset.counters is problem.counters
        subset.fun(np.zeros(2), subset.initial_states(), np.arange(2))
        assert problem.counters.rhs_kernel_launches == 1


class TestCounters:
    def test_rhs_counting(self, problem):
        states = problem.initial_states()
        problem.fun(np.zeros(6), states, np.arange(6))
        problem.fun(np.zeros(2), states[:2], np.arange(2))
        counters = problem.counters
        assert counters.rhs_kernel_launches == 2
        assert counters.rhs_simulation_evaluations == 8

    def test_jacobian_counting(self, problem):
        states = problem.initial_states()
        problem.jacobian(np.zeros(6), states, np.arange(6))
        assert problem.counters.jacobian_kernel_launches == 1
        assert problem.counters.jacobian_simulation_evaluations == 6


class TestBatchedLinearAlgebra:
    def test_batched_ops_preserve_the_batch_axis(self):
        rng = np.random.default_rng(7)
        matrices = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
        vectors = rng.standard_normal((4, 3))
        products = xp.batched_matvec(matrices, vectors)
        assert products.shape == (4, 3)
        expected = np.stack([m @ v for m, v in zip(matrices, vectors)])
        assert np.allclose(products, expected)
        inverses = xp.batched_inv(matrices)
        assert inverses.shape == (4, 3, 3)
        assert np.allclose(inverses @ matrices,
                           np.broadcast_to(np.eye(3), (4, 3, 3)),
                           atol=1e-10)
        # A row's bits do not depend on how many rows share the call.
        for row in range(4):
            alone = slice(row, row + 1)
            assert xp.batched_matvec(matrices[alone], vectors[alone]) \
                .tobytes() == products[alone].tobytes()
            assert xp.batched_inv(matrices[alone]).tobytes() \
                == inverses[alone].tobytes()


def _fingerprint(solver_cls, model, span, grid, options):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), 6,
                            np.random.default_rng(3), 0.2)
    result = solver_cls(SolverOptions(**options)).solve(
        BatchedODEProblem(system, batch), span, grid)
    return (result.y.tobytes(), result.t.tobytes(),
            result.status_codes.tobytes(), result.n_steps.tobytes())


LINALG_CASES = [
    (BatchDopri5, decay_chain(3), (0, 5), np.linspace(0, 5, 9),
     {"rtol": 1e-7, "atol": 1e-10}, False),
    (BatchRadau5, robertson(), (0, 1.0), np.array([0.0, 0.5, 1.0]),
     {"rtol": 1e-6, "atol": 1e-9}, True),
    (BatchBDF, robertson(), (0, 1.0), np.array([0.0, 0.5, 1.0]),
     {"rtol": 1e-6, "atol": 1e-9}, True),
]


class TestLinalgRouting:
    @pytest.mark.parametrize(
        "solver_cls,model,span,grid,options,stiff", LINALG_CASES,
        ids=["dopri5", "radau5", "bdf"])
    def test_integrator_linalg_routes_through_xp(
            self, monkeypatch, solver_cls, model, span, grid, options,
            stiff):
        """Wrapping the ``xp`` ops (as a profiler does) sees every
        Newton solve of the stiff integrators and changes no bit."""
        plain = _fingerprint(solver_cls, model, span, grid, options)
        calls = []
        for name in ("batched_inv", "batched_matvec"):
            original = getattr(xp, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(xp, name, counted)
        wrapped = _fingerprint(solver_cls, model, span, grid, options)
        assert wrapped == plain
        assert set(calls) == ({"batched_inv", "batched_matvec"}
                              if stiff else set())

    def test_repeated_runs_are_deterministic(self):
        case = LINALG_CASES[0][:5]
        assert _fingerprint(*case) == _fingerprint(*case)
