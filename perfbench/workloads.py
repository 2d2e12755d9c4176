"""The benchmark's workloads: inputs made from the seed, timed
operations through the package's public API, and output checks.

Every workload runs in this one process and uses no worker processes.
An *operation* is one analysis call (``psa2d-dense``, ``sobol-stiff``)
or one service job (``service-stream``).
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from repro import (CampaignConfig, ParameterRange, SequentialSimulator,
                   SweepTarget, endpoint_metric, perturbed_batch,
                   run_campaign, simulate)
from repro.core import psa as psa_module
from repro.core import sa as sa_module
from repro.core.psa import build_sweep_batch
from repro.core.sampling import saltelli_sample
from repro.gpu.batch_result import OK
from repro.models import brusselator, lotka_volterra, robertson
from repro.service import CampaignService, JobRequest, ServiceConfig
from repro.solvers.base import DEFAULT_OPTIONS
from repro.synth.generator import generate_symmetric

from tracing import Recorder, layer_metrics

#: Rows per analysis call compared with SciPy and re-run at width 1.
SAMPLED_ROWS = 8
#: A sampled row passes when, at every save point and species,
#: |y - y_ref| <= BAND_FACTOR * (rtol * |y_ref| + atol), with rtol and
#: atol the package's default solver tolerances. The factor allows for
#: global error growing past the per-step tolerance.
BAND_FACTOR = 10.0
#: Tolerances of the SciPy reference solves.
REFERENCE_RTOL = 1e-10
REFERENCE_ATOL = 1e-16
#: Points per axis of the psa2d-dense grid; the LSODA context loop
#: runs its diagonal.
GRID = 32


def mass_action_rhs(model, constants):
    """dx/dt of a mass-action model, written independently of the
    package's compiled kernels, for the SciPy reference solves."""
    if not model.is_mass_action():
        raise ValueError(f"model {model.name!r} is not mass-action")
    index = model.species.index_of
    orders = [[(index(name), count) for name, count in r.reactants.items()]
              for r in model.reactions]
    net = np.zeros((model.n_reactions, model.n_species))
    for j, reaction in enumerate(model.reactions):
        for name, count in reaction.reactants.items():
            net[j, index(name)] -= count
        for name, count in reaction.products.items():
            net[j, index(name)] += count

    def rhs(t, y):
        del t
        flux = np.array([np.prod([y[i] ** a for i, a in order])
                         for order in orders])
        return (constants * flux) @ net

    return rhs


def reference_mismatch(model, t_span, t_eval, batch, rows, values):
    """Rows (of ``rows``) whose trajectory in ``values`` leaves the band
    around a tight SciPy LSODA solve; also the worst error/band ratio."""
    rtol, atol = DEFAULT_OPTIONS.rtol, DEFAULT_OPTIONS.atol
    bad, worst = [], 0.0
    for row in rows:
        solution = solve_ivp(
            mass_action_rhs(model, batch.rate_constants[row]), t_span,
            batch.initial_states[row], method="LSODA", t_eval=t_eval,
            rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
        reference = solution.y.T
        band = BAND_FACTOR * (rtol * np.abs(reference) + atol)
        ratio = float(np.max(np.abs(values[row] - reference) / band)) \
            if solution.success else np.inf
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            bad.append(int(row))
    return bad, worst


def width_one_mismatch(model, t_span, t_eval, batch, rows, result):
    """Rows whose re-run at launch width 1 is not byte-identical to
    their row of the batched ``result``."""
    bad = []
    for row in rows:
        alone = simulate(model, t_span, t_eval,
                         batch.subset(np.array([row]))).raw
        if alone.y[0].tobytes() != result.y[row].tobytes() or \
                alone.status_codes[0] != result.status_codes[row] or \
                alone.method_codes[0] != result.method_codes[row]:
            bad.append(int(row))
    return bad


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def psa2d_inputs(seed: int):
    """Model, sweep targets, save grid and row-major 32x32 batch of
    ``psa2d-dense``."""
    model = generate_symmetric(32, seed)
    rng = np.random.default_rng(seed)
    first, second = rng.choice(model.n_reactions, 2, replace=False)
    nominal = model.nominal_parameterization().rate_constants
    targets = [SweepTarget.rate_constant(
        model, int(j), ParameterRange(nominal[j] / 3.0, nominal[j] * 3.0,
                                      log=True)) for j in (first, second)]
    mesh = np.meshgrid(*(t.range.grid(GRID) for t in targets),
                       indexing="ij")
    batch = build_sweep_batch(model, targets,
                              np.stack([m.ravel() for m in mesh], axis=1))
    return model, targets, np.linspace(0.0, 2.0, 101), batch


def lsoda_context(seed: int) -> dict:
    """Single-threaded LSODA loop over the diagonal of the psa2d-dense
    grid, a fixed 32-row subset: context for the batched speed-up, not
    gated."""
    model, _, t_eval, batch = psa2d_inputs(seed)
    rows = batch.subset(np.arange(GRID) * (GRID + 1))
    started = time.perf_counter()
    result = SequentialSimulator(model, DEFAULT_OPTIONS, "lsoda").simulate(
        (0.0, 2.0), t_eval, rows)
    seconds = time.perf_counter() - started
    ok = sum(status == "success" for status in result.statuses())
    return {"lsoda_rows": GRID, "lsoda_ok_rows": int(ok),
            "lsoda_seconds": seconds, "lsoda_sims_per_s": ok / seconds}


class Outcome:
    """What a timed run measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []   # seconds per operation
        self.window_seconds = 0.0          # wall time of the operations
        self.sims_ok = 0                   # rows finished OK and checked
        self.operations_ok = 0             # operations with no failure
        self.attempted = 0                 # rows or jobs attempted
        self.failed = 0                    # rows or jobs failed or wrong
        self.problems: list[str] = []      # failed whole-run checks
        self.layers: dict[str, float] = {}
        self.waterfall: dict[str, float] = {}
        self.overhead_frac = 0.0


class AnalysisWorkload:
    """Repeated analysis calls on one prepared batch."""

    name = ""
    t_span = (0.0, 1.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.build()
        self.first = self.call()

    def close(self) -> None:
        pass

    def references(self) -> dict:
        """Check sampled rows of the warm-up result against SciPy and
        at launch width 1; their failures count in every call."""
        raw = self.first_raw
        rng = np.random.default_rng(self.seed)
        rows = np.sort(rng.choice(raw.batch_size, SAMPLED_ROWS,
                                  replace=False))
        off_band, worst = reference_mismatch(
            self.model, self.t_span, self.t_eval, self.batch, rows, raw.y)
        width_dependent = width_one_mismatch(
            self.model, self.t_span, self.t_eval, self.batch, rows, raw)
        self.bad_rows = np.zeros(raw.batch_size, dtype=bool)
        self.bad_rows[off_band + width_dependent] = True
        return {"sampled_rows": rows.tolist(),
                "reference_worst_band_ratio": worst,
                "reference_failed_rows": off_band,
                "width1_failed_rows": width_dependent}

    @property
    def first_raw(self):
        return self.first.simulation.raw

    def failed_rows(self, output) -> np.ndarray:
        raw = output.simulation.raw
        failed = (raw.status_codes != OK) | self.bad_rows
        failed |= (raw.y != self.first_raw.y).any(axis=(1, 2))
        if not self.same_analysis(output):
            failed[:] = True
        return failed

    def run(self, seconds: float, traced: bool) -> Outcome:
        """Call the analysis until ``seconds`` of calls have run.

        Traced runs alternate untraced and traced calls (in ABBA order)
        and measure per-layer metrics on the traced ones only.
        """
        outcome = Outcome()
        recorder = Recorder()
        plain: list[float] = []
        pattern = (False, True, True, False) if traced else (False,)
        total = 0.0
        while total < seconds:
            for with_trace in pattern:
                with recorder.installed(with_trace):
                    started = time.perf_counter()
                    output = self.call()
                    elapsed = time.perf_counter() - started
                total += elapsed
                if with_trace or not traced:
                    outcome.latencies.append(elapsed)
                else:
                    plain.append(elapsed)
                failed = self.failed_rows(output)
                outcome.attempted += failed.size
                outcome.failed += int(failed.sum())
                outcome.sims_ok += int((~failed).sum())
                outcome.operations_ok += int(not failed.any())
                del output
        outcome.window_seconds = sum(outcome.latencies)
        if traced:
            outcome.layers, outcome.waterfall = layer_metrics(
                recorder.spans, len(outcome.latencies),
                outcome.window_seconds, 0.0)
            outcome.overhead_frac = statistics.median(outcome.latencies) \
                / statistics.median(plain) - 1.0
            self.recorder = recorder
        return outcome


class Psa2dDense(AnalysisWorkload):
    """``run_psa_2d`` over a GRID x GRID sweep of two rate constants."""

    name = "psa2d-dense"
    t_span = (0.0, 2.0)
    tail_percentile = 80.0

    def build(self) -> None:
        self.model, self.targets, self.t_eval, self.batch = \
            psa2d_inputs(self.seed)
        self.metric = endpoint_metric(self.model, "S0")

    def call(self):
        # Looked up at call time, so a traced run sees its wrapper.
        return psa_module.run_psa_2d(self.model, *self.targets, GRID, GRID,
                                     self.t_span, self.t_eval,
                                     metric=self.metric)

    def same_analysis(self, output) -> bool:
        return output.metric_map.tobytes() == self.first.metric_map.tobytes()


class SobolStiff(AnalysisWorkload):
    """``run_sobol_sa`` on Robertson's three rate constants."""

    name = "sobol-stiff"
    t_span = (0.0, 1.0e4)
    tail_percentile = 60.0

    def build(self) -> None:
        self.model = robertson()
        nominal = self.model.nominal_parameterization().rate_constants
        self.targets = [SweepTarget.rate_constant(
            self.model, j, ParameterRange(k / 2.0, k * 2.0, log=True))
            for j, k in enumerate(nominal)]
        self.t_eval = np.geomspace(1.0e-2, 1.0e4, 5)
        self.batch = build_sweep_batch(
            self.model, self.targets,
            saltelli_sample([t.range for t in self.targets], 64, self.seed))

    def call(self):
        return sa_module.run_sobol_sa(
            self.model, targets=self.targets, output_species="A",
            base_samples=64, t_span=self.t_span, t_eval=self.t_eval,
            seed=self.seed)

    def same_analysis(self, output) -> bool:
        fields = ("first_order", "total_order", "first_order_ci",
                  "total_order_ci")
        return all(np.isfinite(getattr(output, f)).all()
                   and getattr(output, f).tobytes()
                   == getattr(self.first, f).tobytes() for f in fields) \
            and output.n_failed_simulations == 0


TENANTS = ("alpha", "bravo", "charlie", "delta")
CLIENTS = 16
POOL = 16
ROWS_PER_JOB = 4


class ServiceStream:
    """Closed loop of 16 clients over an in-process ``CampaignService``."""

    name = "service-stream"
    tail_percentile = 98.0
    t_span = (0.0, 2.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.loop = None
        self.service = None
        self.journal_dir = None
        self.journals = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.models = {"lotka_volterra": lotka_volterra(),
                       "brusselator": brusselator()}
        self.pools = {
            name: [perturbed_batch(model.nominal_parameterization(),
                                   ROWS_PER_JOB, rng) for _ in range(POOL)]
            for name, model in self.models.items()}
        self.orders = [rng.permutation(POOL) for _ in range(CLIENTS)]
        self.t_eval = np.linspace(0.0, 2.0, 5)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journal_dir = Path(tempfile.mkdtemp(prefix="journals-",
                                                 dir=self.workdir))
        self.loop = asyncio.new_event_loop()
        self.service = CampaignService(ServiceConfig())
        self.loop.run_until_complete(self.service.start())
        warm = self.loop.run_until_complete(
            self._job("alpha", "lotka_volterra", 0))
        if warm[0].state != "completed":
            raise RuntimeError(f"warm-up job ended {warm[0].state!r}")

    def close(self) -> None:
        if self.loop is not None:
            if self.service is not None:
                self.loop.run_until_complete(self.service.stop())
            self.loop.run_until_complete(
                self.loop.shutdown_default_executor())
            self.loop.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def references(self) -> dict:
        """Each pool entry run alone through serial ``run_campaign``."""
        self.expected = {}
        for name, model in self.models.items():
            for index, parameters in enumerate(self.pools[name]):
                alone = run_campaign(model, self.t_span, self.t_eval,
                                     parameters,
                                     config=CampaignConfig(chunk_size=2))
                self.expected[name, index] = (
                    alone.result.y.tobytes(),
                    alone.result.status_codes.tobytes())
        return {"reference_campaigns": len(self.expected)}

    async def _job(self, tenant: str, model_name: str, index: int):
        checkpoint = None
        if tenant == "delta":
            self.journals += 1
            checkpoint = self.journal_dir / f"job-{self.journals}.json"
        request = JobRequest(
            model=self.models[model_name], t_span=self.t_span,
            t_eval=self.t_eval, parameters=self.pools[model_name][index],
            chunk_size=2, tenant=tenant, checkpoint_path=checkpoint)
        started = time.perf_counter()
        job = self.service.submit(request)
        record = await self.service.wait(job.job_id)
        return record, time.perf_counter() - started

    def _passes(self, record, model_name: str, index: int) -> bool:
        if record.state != "completed" or record.result.incomplete:
            return False
        raw = record.result.result
        y_bytes, status_bytes = self.expected[model_name, index]
        return raw.y.tobytes() == y_bytes \
            and raw.status_codes.tobytes() == status_bytes \
            and bool((raw.status_codes == OK).all())

    async def _window(self, seconds: float, outcome: Outcome,
                      waits: list[float]) -> float:
        deadline = time.perf_counter() + seconds

        async def client(number: int) -> None:
            tenant = TENANTS[number % len(TENANTS)]
            model_name = "brusselator" if tenant == "bravo" \
                else "lotka_volterra"
            order = self.orders[number]
            count = 0
            while time.perf_counter() < deadline:
                index = int(order[count % POOL])
                count += 1
                record, latency = await self._job(tenant, model_name, index)
                outcome.attempted += 1
                outcome.latencies.append(latency)
                waits.append(record.wait_seconds or 0.0)
                if self._passes(record, model_name, index):
                    outcome.sims_ok += ROWS_PER_JOB
                    outcome.operations_ok += 1
                else:
                    outcome.failed += 1

        started = time.perf_counter()
        await asyncio.gather(*(client(n) for n in range(CLIENTS)))
        return time.perf_counter() - started

    def run(self, seconds: float, traced: bool) -> Outcome:
        """Run the closed loop for ``seconds``.

        Traced runs split the time into untraced, traced, untraced and
        traced windows and measure per-layer metrics on the traced ones.
        """
        outcome = Outcome()
        if not traced:
            outcome.window_seconds = self.loop.run_until_complete(
                self._window(seconds, outcome, []))
        else:
            recorder = Recorder()
            traced_waits: list[float] = []
            plain_jobs = plain_seconds = 0.0
            for with_trace in (False, True, False, True):
                part = Outcome()
                waits: list[float] = []
                with recorder.installed(with_trace):
                    elapsed = self.loop.run_until_complete(
                        self._window(seconds / 4.0, part, waits))
                outcome.attempted += part.attempted
                outcome.failed += part.failed
                outcome.sims_ok += part.sims_ok
                outcome.operations_ok += part.operations_ok
                if with_trace:
                    outcome.latencies += part.latencies
                    outcome.window_seconds += elapsed
                    traced_waits += waits
                else:
                    plain_jobs += len(part.latencies)
                    plain_seconds += elapsed
            outcome.layers, outcome.waterfall = layer_metrics(
                recorder.spans, len(outcome.latencies),
                sum(outcome.latencies), sum(traced_waits))
            outcome.overhead_frac = (plain_jobs / plain_seconds) \
                / (len(outcome.latencies) / outcome.window_seconds) - 1.0
            self.recorder = recorder
        counters = self.service.metrics.counters
        closed = sum(counters.get(f"service.jobs.{state}", 0) for state in
                     ("completed", "shed", "cancelled", "quarantined"))
        if counters.get("service.jobs.admitted", 0) != closed:
            outcome.problems.append(
                f"admitted {counters.get('service.jobs.admitted', 0)} != "
                f"completed + shed + cancelled + quarantined {closed}")
        return outcome


WORKLOADS = {cls.name: cls for cls in (Psa2dDense, SobolStiff,
                                       ServiceStream)}
