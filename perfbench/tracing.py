"""Span recording around the package's public functions, for traced runs.

The benchmark never edits the package: :class:`Recorder` patches the
public functions and methods named in :data:`LAYER_TARGETS` with timing
wrappers while a traced block runs and restores the originals after it.
Spans live in memory (one tuple each) and are written out once, at the
end of the run.

Parent tracking is per thread, so the campaign threads of the service
nest their chunk, engine and kernel spans correctly. A span's self
time is its duration minus the durations of the spans it directly
encloses on the same thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Waterfall rows, outermost first; "unattributed" closes the sum.
LAYERS = ("service", "resilience.campaign", "io.checkpoint",
          "model.odesystem", "core", "gpu.engine", "gpu.router",
          "gpu.batch_dopri5", "gpu.batch_radau5", "gpu.batched_ode",
          "backend")


def _engine_extra(args, kwargs, result, before):
    report = args[0].last_report
    return {"launches": report.n_launches, "rows": int(result.y.shape[0])}


def _router_extra(args, kwargs, result, before):
    from repro.gpu.batch_result import METHOD_DOPRI5, METHOD_RADAU5, OK
    merged, decision = result
    in_dopri5 = ~decision.stiff_mask
    finished = in_dopri5 & (merged.method_codes == METHOD_DOPRI5) \
        & (merged.status_codes == OK)
    return {"stiff": int(decision.n_stiff),
            "radau_rows": int((merged.method_codes == METHOD_RADAU5).sum()),
            "dopri5_started": int(in_dopri5.sum()),
            "dopri5_finished": int(finished.sum())}


def _dopri5_extra(args, kwargs, result, before):
    return {"rows": int(args[1].batch_size),
            "accepted": int(result.n_accepted.sum()),
            "rejected": int(result.n_rejected.sum())}


def _counters(args, kwargs):
    counters = args[1].counters
    return counters.newton_iterations, counters.factorizations


def _radau5_extra(args, kwargs, result, before):
    newton, factorizations = _counters(args, kwargs)
    return {"accepted": int(result.n_accepted.sum()),
            "newton": newton - before[0],
            "factorizations": factorizations - before[1]}


def _rhs_extra(args, kwargs, result, before):
    return {"rows": int(args[3].shape[0])}


def _campaign_extra(args, kwargs, result, before):
    return {"chunks": result.completed_chunks - result.resumed_chunks}


# (module, owner attribute or None for a module function, attribute,
#  span name, layer, extra(args, kwargs, result, before) or None,
#  before(args, kwargs) or None)
LAYER_TARGETS = (
    ("repro.service.core", "CampaignService", "submit",
     "service.submit", "service", None, None),
    ("repro.service.scheduler", "ChunkScheduler", "acquire",
     "service.gate", "service", None, None),
    ("repro.resilience.campaign", None, "run_campaign",
     "campaign", "resilience.campaign", _campaign_extra, None),
    # The service calls the name it imported, so patch it there too.
    ("repro.service.core", None, "run_campaign",
     "campaign", "resilience.campaign", _campaign_extra, None),
    ("repro.io.checkpoint", "CampaignCheckpoint", "save_chunk",
     "journal.save", "io.checkpoint", None, None),
    ("repro.io.checkpoint", "CampaignCheckpoint", "set_payload",
     "journal.payload", "io.checkpoint", None, None),
    ("repro.io.checkpoint", "CampaignCheckpoint", "open",
     "journal.open", "io.checkpoint", None, None),
    ("repro.model.odesystem", "ODESystem", "from_model",
     "model.compile", "model.odesystem", None, None),
    ("repro.core.psa", None, "run_psa_2d", "core", "core", None, None),
    ("repro.core.sa", None, "run_sobol_sa", "core", "core", None, None),
    ("repro.gpu.engine", "BatchSimulator", "simulate",
     "engine", "gpu.engine", _engine_extra, None),
    ("repro.gpu.router", "StiffnessRouter", "solve",
     "router", "gpu.router", _router_extra, None),
    ("repro.gpu.router", None, "classify_batch",
     "router.probe", "gpu.router", None, None),
    ("repro.gpu.batch_dopri5", "BatchDopri5", "solve",
     "dopri5", "gpu.batch_dopri5", _dopri5_extra, None),
    ("repro.gpu.batch_radau5", "BatchRadau5", "solve",
     "radau5", "gpu.batch_radau5", _radau5_extra, _counters),
    ("repro.gpu.batched_ode", "BatchedODEProblem", "fun",
     "kernel.rhs", "gpu.batched_ode", _rhs_extra, None),
    ("repro.gpu.batched_ode", "BatchedODEProblem", "jacobian",
     "kernel.jacobian", "gpu.batched_ode", None, None),
    # Backend ops are instance attributes of the process-wide ``xp``.
    ("repro.backend", "xp", "batched_inv", "linalg", "backend", None, None),
    ("repro.backend", "xp", "batched_matvec", "linalg", "backend", None,
     None),
)


class Recorder:
    """Collects spans from the wrappers it installs.

    Each span is ``(name, layer, thread, start, end, self_seconds,
    extra)``; ``extra`` holds counts read from the call's arguments and
    result (a dict, or ``None``).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, name, layer, extra, before):
        stack_of = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            token = None if before is None else before(args, kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            info = None if extra is None \
                else extra(args, kwargs, result, token)
            spans.append((name, layer, threading.get_ident(), start, end,
                          end - start - children[0], info))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores them."""
        for module_name, owner_name, attribute, name, layer, extra, \
                before in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name,
                                                 layer, extra, before))
            else:
                patched = self._wrap(original, name, layer, extra, before)
            setattr(owner, attribute, patched)
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, enabled: bool = True):
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, layer, thread, start, end, self_s, info in self.spans:
                handle.write(json.dumps(
                    {"name": name, "layer": layer, "thread": thread,
                     "start": start, "end": end, "self_s": self_s,
                     "extra": info}) + "\n")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_s_per_call"):
        return "s/call"
    if name.endswith("_s"):
        return "s/op"
    return {"engine.launch_rows_mean": "rows",
            "dopri5.steps_per_row": "steps/row"}.get(name, "count/op")


def _sum(spans, field=None):
    """Total self time, or total of an ``extra`` field, over ``spans``."""
    if field is None:
        return sum(span[5] for span in spans)
    return sum(span[6][field] for span in spans)


def _ratio(numerator: float, denominator: float, empty: float) -> float:
    return numerator / denominator if denominator else empty


def layer_metrics(spans: list[tuple], operations: int,
                  operation_seconds: float, queue_wait_seconds: float
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-operation layer metrics and the self-time waterfall.

    ``operation_seconds`` is the summed wall time of the traced
    operations (analysis calls, or service jobs from ``submit`` to a
    terminal state) and ``queue_wait_seconds`` their summed queue wait,
    which no span covers. Returns ``(metrics, waterfall)``; the
    waterfall maps each layer, plus ``unattributed``, to self seconds
    per operation and sums to the mean operation wall time.
    """
    per_op = 1.0 / operations
    waterfall = {layer: 0.0 for layer in LAYERS}
    named = defaultdict(list)
    for span in spans:
        waterfall[span[1]] += span[5]
        named[span[0]].append(span)
    waterfall["service"] += queue_wait_seconds
    attributed = sum(waterfall.values())
    waterfall["unattributed"] = operation_seconds - attributed
    waterfall = {layer: seconds * per_op
                 for layer, seconds in waterfall.items()}

    launches = _sum(named["engine"], "launches")
    dopri5_rows = _sum(named["dopri5"], "rows")
    accepted = _sum(named["dopri5"], "accepted")
    rejected = _sum(named["dopri5"], "rejected")
    rhs_calls = len(named["kernel.rhs"])
    rhs_s = _sum(named["kernel.rhs"])
    totals = {
        "service.queue_wait_s": queue_wait_seconds,
        "service.gate_wait_s": _sum(named["service.gate"]),
        "service.submit_s": _sum(named["service.submit"]),
        "campaign.self_s": _sum(named["campaign"]),
        "campaign.chunks": _sum(named["campaign"], "chunks"),
        "journal.save_s": sum(_sum(named[name]) for name in
                              ("journal.save", "journal.payload",
                               "journal.open")),
        "journal.saves": len(named["journal.save"]),
        "model.compile_s": _sum(named["model.compile"]),
        "model.compiles": len(named["model.compile"]),
        "core.self_s": _sum(named["core"]),
        "engine.self_s": _sum(named["engine"]),
        "engine.launches": launches,
        "router.probe_s": _sum(named["router.probe"]),
        "router.rerouted_rows": (_sum(named["router"], "radau_rows")
                                 - _sum(named["router"], "stiff")),
        "dopri5.self_s": _sum(named["dopri5"]),
        "dopri5.steps_accepted": accepted,
        "dopri5.steps_rejected": rejected,
        "radau5.self_s": _sum(named["radau5"]),
        "radau5.steps_accepted": _sum(named["radau5"], "accepted"),
        "radau5.newton_iterations": _sum(named["radau5"], "newton"),
        "radau5.factorizations": _sum(named["radau5"], "factorizations"),
        "kernel.rhs_s": rhs_s,
        "kernel.rhs_calls": rhs_calls,
        "kernel.rhs_rows": _sum(named["kernel.rhs"], "rows"),
        "kernel.jacobian_s": _sum(named["kernel.jacobian"]),
        "kernel.jacobian_calls": len(named["kernel.jacobian"]),
        "linalg.self_s": _sum(named["linalg"]),
        "linalg.calls": len(named["linalg"]),
    }
    metrics = {name: value * per_op for name, value in totals.items()}
    metrics.update({
        "engine.launch_rows_mean": _ratio(_sum(named["engine"], "rows"),
                                          launches, 0.0),
        # With no row started in DOPRI5 nothing there was wasted.
        "router.useful_ratio": _ratio(
            _sum(named["router"], "dopri5_finished"),
            _sum(named["router"], "dopri5_started"), 1.0),
        "dopri5.accept_ratio": _ratio(accepted, accepted + rejected, 1.0),
        "dopri5.steps_per_row": _ratio(accepted + rejected, dopri5_rows,
                                       0.0),
        "kernel.rhs_s_per_call": _ratio(rhs_s, rhs_calls, 0.0),
        "trace.unattributed_frac": _ratio(
            waterfall["unattributed"], sum(waterfall.values()), 0.0),
    })
    return metrics, waterfall
