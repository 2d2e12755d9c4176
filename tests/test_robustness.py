"""Failure injection, fuzzing and rendering robustness tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import format_table
from repro.core import (ParameterRange, SweepTarget, amplitude_metric,
                        run_psa_2d, simulate)
from repro.errors import AnalysisError
from repro.gpu import BatchDopri5, BatchedODEProblem
from repro.gpu.batch_result import BROKEN
from repro.model import (ODESystem, ParameterizationBatch,
                         ReactionBasedModel, parse_expression)
from repro.model.ratelaws import Constant, Variable
from repro.models import brusselator, lotka_volterra
from repro.solvers import SolverOptions


class TestBlowupHandling:
    """Diverging dynamics must fail cleanly, not poison the batch."""

    def make_explosive_batch(self):
        # Y1 -> 2 Y1 grows exponentially; extreme constants diverge
        # within the horizon while mild ones stay integrable.
        model = ReactionBasedModel("explosive")
        model.add_species("A", 1.0)
        model.add("A -> 2 A @ 1.0")
        system = ODESystem.from_model(model)
        constants = np.array([[1.0], [60.0]])
        states = np.array([[1.0], [1.0]])
        return BatchedODEProblem(
            system, ParameterizationBatch(constants, states))

    def test_partial_batch_failure_is_isolated(self):
        problem = self.make_explosive_batch()
        result = BatchDopri5(SolverOptions(max_steps=3000)).solve(
            problem, (0, 12), np.linspace(0, 12, 4))
        statuses = result.statuses()
        assert statuses[0] == "success"
        assert statuses[1] in ("failed", "max_steps")
        # The sane simulation's trajectory is intact.
        assert np.allclose(result.y[0, :, 0],
                           np.exp(np.linspace(0, 12, 4)), rtol=1e-4)

    def test_facade_reports_mixed_statuses(self):
        model = ReactionBasedModel("explosive")
        model.add_species("A", 1.0)
        model.add("A -> 2 A @ 1.0")
        batch = ParameterizationBatch(np.array([[1.0], [60.0]]),
                                      np.array([[1.0], [1.0]]))
        result = simulate(model, (0, 12), np.linspace(0, 12, 4), batch,
                          options=SolverOptions(max_steps=3000))
        assert not result.all_success
        assert "success" in result.statuses()


class TestExpressionFuzz:
    @settings(deadline=None)
    @given(st.recursive(
        st.one_of(
            st.floats(0.1, 10.0).map(Constant),
            st.sampled_from(["S", "A", "k"]).map(Variable),
        ),
        lambda children: st.builds(
            lambda a, b, op: op(a, b),
            children, children,
            st.sampled_from([
                __import__("repro.model.ratelaws",
                           fromlist=["Add"]).Add,
                __import__("repro.model.ratelaws",
                           fromlist=["Mul"]).Mul,
                __import__("repro.model.ratelaws",
                           fromlist=["Sub"]).Sub,
            ])),
        max_leaves=8,
    ))
    def test_print_parse_round_trip(self, expression):
        """str(expr) re-parses to an expression with equal values."""
        rendered = str(expression)
        reparsed = parse_expression(rendered)
        values = {"S": np.asarray(1.7), "A": np.asarray(0.4),
                  "k": np.asarray(2.2)}
        assert float(reparsed.evaluate(values)) == pytest.approx(
            float(expression.evaluate(values)), rel=1e-12)

    @settings(deadline=None)
    @given(st.text(max_size=12))
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary junk either parses or raises ParseError."""
        from repro.errors import ParseError
        try:
            parse_expression(text)
        except ParseError:
            pass


class TestRenderMap:
    def test_ascii_map_structure(self):
        model = brusselator()
        tx = SweepTarget.rate_constant(model, 0, ParameterRange(0.6, 1.4))
        ty = SweepTarget.rate_constant(model, 2, ParameterRange(0.6, 4.0))
        psa = run_psa_2d(model, tx, ty, 4, 5, (0, 40),
                         np.linspace(0, 40, 201),
                         metric=amplitude_metric(model, "X"),
                         options=SolverOptions(max_steps=200_000))
        rendered = psa.render_map()
        lines = rendered.splitlines()
        assert len(lines) == 1 + 5            # header + ny rows
        assert all(len(line.split("|")[1]) == 4 for line in lines[1:])

    def test_render_requires_metric(self):
        model = lotka_volterra()
        tx = SweepTarget.rate_constant(model, 0, ParameterRange(0.5, 1.5))
        ty = SweepTarget.rate_constant(model, 1, ParameterRange(0.05, 0.2))
        psa = run_psa_2d(model, tx, ty, 2, 2, (0, 5),
                         np.array([0.0, 5.0]))
        with pytest.raises(AnalysisError):
            psa.render_map()


class TestBenchHelpers:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [("alpha", 1.0), ("b", 123456.0)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[:1] + lines[2:])) == 1
