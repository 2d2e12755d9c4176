"""Command-line interface: the "black-box simulator" entry point.

The original tool is driven from the command line on BioSimWare-style
model folders; this module reproduces that UX::

    python -m repro info      MODEL
    python -m repro simulate  MODEL --t-end 10 --points 51 --out dyn.csv
    python -m repro lint      MODEL --format json --fail-on warning
    python -m repro lint      --self
    python -m repro convert   SRC DST
    python -m repro generate  DST --species 32 --reactions 32 --seed 0

``MODEL`` is a model folder or an SBML-subset ``.xml`` document. When a
folder ships ``cs_vector`` / ``MX_0`` (a sweep batch), ``simulate``
runs the whole batch in one launch; otherwise it runs the nominal
parameterization.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import simulate as run_simulation
from .errors import LintGateError, ReproError
from .io import (read_batch, read_model, read_sbml, read_t_vector,
                 sbml_to_biosimware, write_model, write_sbml)
from .model import ReactionBasedModel, perturbed_batch
from .solvers import SolverOptions
from .synth import SyntheticModelSpec, generate_model


def _load_model(path: Path) -> ReactionBasedModel:
    if path.is_dir():
        return read_model(path)
    if path.suffix.lower() in (".xml", ".sbml"):
        return read_sbml(path)
    raise ReproError(f"{path} is neither a model folder nor an SBML file")


def _command_info(args) -> int:
    model = _load_model(Path(args.model))
    print(model.summary())
    laws = model.conservation_law_basis()
    print(f"\nconservation laws : {laws.shape[0]}")
    print(f"max reaction order: {model.max_order()}")
    return 0


def _command_simulate(args) -> int:
    path = Path(args.model)
    model = _load_model(path)
    parameters = None
    if path.is_dir():
        try:
            parameters = read_batch(path)
        except ReproError:
            parameters = None
    if parameters is None and args.perturb > 0:
        parameters = perturbed_batch(model.nominal_parameterization(),
                                     args.perturb,
                                     np.random.default_rng(args.seed))

    if args.t_grid and path.is_dir():
        t_eval = read_t_vector(path)
        t_span = (float(t_eval[0]) if t_eval[0] <= 0 else 0.0,
                  float(t_eval[-1]))
    else:
        t_eval = np.linspace(0.0, args.t_end, args.points)
        t_span = (0.0, args.t_end)

    options = SolverOptions(rtol=args.rtol, atol=args.atol,
                            max_steps=args.max_steps)
    result = run_simulation(model, t_span, t_eval, parameters,
                            engine=args.engine, options=options)
    statuses = result.statuses()
    print(f"simulated {result.batch_size} parameterization(s) on engine "
          f"{args.engine!r} in {result.elapsed_seconds:.3f} s")
    print(f"statuses: { {s: statuses.count(s) for s in set(statuses)} }")

    if args.out:
        _write_csv(Path(args.out), result)
        print(f"wrote dynamics to {args.out}")
    return 0 if result.all_success else 1


def _write_csv(path: Path, result) -> None:
    header = ["simulation", "time", *result.species_names]
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        for index in range(result.batch_size):
            for row, t in enumerate(result.t):
                values = result.y[index, row, :]
                rendered = ",".join(f"{v:.10g}" for v in values)
                handle.write(f"{index},{t:.10g},{rendered}\n")


def _command_analyze(args) -> int:
    from .core import analyze_model
    model = _load_model(Path(args.model))
    report = analyze_model(model, probe_horizon=args.horizon,
                           options=SolverOptions(max_steps=args.max_steps))
    print(report.render())
    return 0


def _command_lint(args) -> int:
    from .lint import (iter_rules, lint_conc, lint_deep, lint_file,
                       lint_gate, lint_kernels, lint_model, lint_shapes,
                       render_rule_table, write_baseline)
    import json as json_module

    if args.list_rules:
        if args.format == "json":
            print(json_module.dumps(
                [rule.to_dict() for rule in iter_rules()], indent=2))
        else:
            print(render_rule_table())
        return 0

    if args.deep or args.shapes or args.conc:
        if args.conc:
            analyzer = lint_conc
        elif args.shapes:
            analyzer = lint_shapes
        else:
            analyzer = lint_deep
        paths, root = _deep_subject(args)
        if args.write_baseline:
            # Analyze without subtracting, then persist what's left
            # after waivers as the new accepted set.
            report = analyzer(
                paths, root=root,
                baseline_path=Path("/nonexistent-baseline"))
            target = args.baseline or _default_baseline_path(
                shapes=args.shapes, conc=args.conc)
            count = write_baseline(report, target)
            print(f"wrote {count} baseline entr"
                  f"{'y' if count == 1 else 'ies'} to {target}")
            return 0
        report = analyzer(paths, root=root,
                          baseline_path=args.baseline)
    elif args.self:
        report = lint_kernels()
    elif args.model is None:
        raise ReproError("lint needs a MODEL argument, --self, --deep, "
                         "--shapes, --conc or --list-rules")
    else:
        path = Path(args.model)
        if path.suffix == ".py":
            report = lint_file(path)
        elif args.gate:
            report = lint_gate(_load_model(path), fail_on=args.fail_on)
        else:
            report = lint_model(_load_model(path))

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 1 if report.exceeds(args.fail_on) else 0


def _deep_subject(args) -> tuple[list[Path] | None, Path | None]:
    """(files, report root) of a deep/shapes analysis; (None, None)
    means the installed package."""
    if args.model is None:
        return None, None
    path = Path(args.model)
    if path.is_dir():
        files = sorted(path.rglob("*.py"))
        if not files:
            raise ReproError(f"no .py files under {path}")
        return files, _package_root(path)
    if path.suffix == ".py":
        return [path], path.parent
    raise ReproError(
        f"--deep/--shapes/--conc analyze Python sources, not {path}")


def _package_root(path: Path) -> Path:
    """Report root of a directory subject: when the directory is a
    package (sub)tree, climb to the outermost package so findings keep
    their in-package relative paths (``gpu/...``) and module globs
    still match when only a subpackage is analyzed."""
    root = path.resolve()
    while (root / "__init__.py").exists() \
            and (root.parent / "__init__.py").exists():
        root = root.parent
    return root


def _default_baseline_path(shapes: bool = False,
                           conc: bool = False) -> Path:
    from .lint import (DEFAULT_BASELINE, DEFAULT_CONC_BASELINE,
                       DEFAULT_SHAPES_BASELINE)
    if conc:
        return DEFAULT_CONC_BASELINE
    return DEFAULT_SHAPES_BASELINE if shapes else DEFAULT_BASELINE


def _command_convert(args) -> int:
    source = Path(args.source)
    destination = Path(args.destination)
    if source.is_dir():
        write_sbml(read_model(source), destination)
        print(f"converted folder {source} -> SBML {destination}")
    elif destination.suffix.lower() in (".xml", ".sbml"):
        write_sbml(_load_model(source), destination)
        print(f"converted {source} -> SBML {destination}")
    else:
        sbml_to_biosimware(source, destination)
        print(f"converted SBML {source} -> folder {destination}")
    return 0


def _command_generate(args) -> int:
    spec = SyntheticModelSpec(args.species, args.reactions, args.seed)
    model = generate_model(spec)
    batch = None
    if args.batch > 0:
        batch = perturbed_batch(model.nominal_parameterization(),
                                args.batch, np.random.default_rng(args.seed))
    destination = Path(args.destination)
    write_model(model, destination, batch=batch)
    print(f"generated {model.name} (N={model.n_species}, "
          f"M={model.n_reactions}) into {destination}"
          + (f" with a {args.batch}-row sweep batch" if batch else ""))
    return 0


def _command_trace_record(args) -> int:
    from .resilience import CampaignConfig, run_campaign
    from .telemetry import render_summary, read_trace_jsonl

    path = Path(args.model)
    model = _load_model(path)
    parameters = None
    if path.is_dir():
        try:
            parameters = read_batch(path)
        except ReproError:
            parameters = None
    if parameters is None:
        parameters = perturbed_batch(model.nominal_parameterization(),
                                     args.batch,
                                     np.random.default_rng(args.seed))

    out = Path(args.out)
    if args.checkpoint is None and out.exists():
        # A fresh (non-resumable) recording starts a fresh trace; only
        # checkpointed campaigns append across runs.
        out.unlink()
    config = CampaignConfig(chunk_size=args.chunk_size,
                            checkpoint_path=args.checkpoint,
                            workers=args.workers)
    t_eval = np.linspace(0.0, args.t_end, args.points)
    campaign = run_campaign(model, (0.0, args.t_end), t_eval, parameters,
                            engine=args.engine, config=config,
                            telemetry=out)
    print(campaign.summary())
    print(f"wrote trace to {out}")
    print()
    print(render_summary(read_trace_jsonl(out)))
    if campaign.metrics:
        print()
        print(campaign.metrics.render())
    return 0 if not campaign.incomplete else 1


def _command_trace_summarize(args) -> int:
    from .telemetry import read_trace_jsonl, render_summary, validate_trace

    spans = read_trace_jsonl(Path(args.trace))
    problems = validate_trace(spans)
    print(render_summary(spans))
    if problems:
        print()
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    return 0


def _command_trace_export(args) -> int:
    from .telemetry import read_trace_jsonl, write_chrome_trace

    spans = read_trace_jsonl(Path(args.trace))
    out = Path(args.out)
    write_chrome_trace(spans, out)
    print(f"wrote {len(spans)} span(s) as Chrome trace events to {out} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _command_serve(args) -> int:
    from .service import ServiceConfig, TenantQuota, TenantSLO, serve

    default_slo = None
    if args.slo_target is not None or args.slo_latency is not None:
        default_slo = TenantSLO(
            latency_objective_seconds=args.slo_latency,
            target=args.slo_target if args.slo_target is not None
            else 0.99,
            window_seconds=args.slo_window)
    config = ServiceConfig(
        max_running_jobs=args.max_running,
        max_inflight_chunks=args.max_inflight,
        queue_capacity=args.queue_capacity,
        default_quota=TenantQuota(max_queued=args.tenant_queue,
                                  max_inflight_chunks=args.tenant_inflight),
        max_job_attempts=args.job_attempts,
        attempt_timeout=args.attempt_timeout,
        default_slo=default_slo,
        calibration_path=args.calibration)
    def announce(bound):
        # Printed from the *bound* address, not the requested one:
        # --port 0 picks an ephemeral port the operator must learn.
        host, port = bound
        print(f"serving campaigns on {host}:{port} "
              f"({args.max_running} running / {args.max_inflight} chunks "
              f"in flight; queue {args.queue_capacity}; "
              f"metrics at http://{host}:{port}/metrics)", flush=True)

    serve(args.host, args.port, config=config, telemetry=args.telemetry,
          ready=announce)
    return 0


def _scrape_frame(samples, previous, elapsed) -> str:
    """One ``repro top`` frame out of parsed exposition samples."""

    def first(name, default=None, **labels):
        for sample_labels, value in samples.get(name, ()):
            if all(sample_labels.get(k) == v for k, v in labels.items()):
                return value
        return default

    def by_label(name, label, **labels):
        out: dict[str, float] = {}
        for sample_labels, value in samples.get(name, ()):
            if label in sample_labels and all(
                    sample_labels.get(k) == v for k, v in labels.items()):
                out[sample_labels[label]] = value
        return out

    def fmt_s(value):
        return "-" if value is None else f"{value * 1e3:.2f}ms"

    lines = [
        f"queue={first('repro_service_queue_depth', 0):.0f} "
        f"running={first('repro_service_jobs_running', 0):.0f} "
        f"spans={first('repro_live_spans_seen_total', 0):.0f} "
        f"sub-drops="
        f"{first('repro_live_subscriber_dropped_total', 0):.0f}"]
    rates = by_label("repro_live_span_rate", "category")
    if rates:
        lines.append("span rates: " + "  ".join(
            f"{category}={rate:.2f}/s"
            for category, rate in sorted(rates.items()) if rate > 0))
    if previous is not None and elapsed and elapsed > 0:
        deltas = []
        for name in ("repro_kernel_rhs_launches_total",
                     "repro_service_jobs_admitted_total",
                     "repro_service_jobs_shed_total",
                     "repro_service_worker_restarts_total"):
            now_value = first(name)
            if now_value is None:
                continue
            for prev_labels, prev_value in previous.get(name, ()):
                if not prev_labels:
                    short = name.removeprefix("repro_") \
                        .removesuffix("_total")
                    deltas.append(
                        f"{short}={(now_value - prev_value) / elapsed:.1f}/s")
                    break
        if deltas:
            lines.append("rates since last scrape: " + "  ".join(deltas))
    tenants = sorted(
        set(by_label("repro_live_job_outcomes_total", "tenant"))
        | set(by_label("repro_service_tenant_admitted_total", "tenant"))
        | set(by_label("repro_service_slo_burn_rate", "tenant")))
    if tenants:
        lines.append("")
        lines.append(f"{'tenant':<12} {'admitted':>8} {'done':>6} "
                     f"{'shed':>6} {'quar':>6} {'lat p50':>10} "
                     f"{'lat p95':>10} {'wait p50':>10} {'burn':>8}")
        for tenant in tenants:
            burn = first("repro_service_slo_burn_rate", tenant=tenant)
            lines.append(
                f"{tenant:<12} "
                f"{first('repro_service_tenant_admitted_total', 0, tenant=tenant):>8.0f} "
                f"{first('repro_live_job_outcomes_total', 0, tenant=tenant, state='completed'):>6.0f} "
                f"{first('repro_live_job_outcomes_total', 0, tenant=tenant, state='shed'):>6.0f} "
                f"{first('repro_live_job_outcomes_total', 0, tenant=tenant, state='quarantined'):>6.0f} "
                f"{fmt_s(first('repro_live_job_latency_seconds', tenant=tenant, quantile='0.50')):>10} "
                f"{fmt_s(first('repro_live_job_latency_seconds', tenant=tenant, quantile='0.95')):>10} "
                f"{fmt_s(first('repro_live_job_wait_seconds', tenant=tenant, quantile='0.50')):>10} "
                + ("-".rjust(8) if burn is None else f"{burn:>8.2f}"))
        breaches = by_label("repro_service_slo_breaches_total", "tenant")
        for tenant, count in sorted(breaches.items()):
            if count:
                lines.append(f"  !! SLO breach: {tenant} "
                             f"({count:.0f} breach(es))")
    phases = by_label("repro_live_phase_duration_seconds", "phase",
                      quantile="0.50")
    if phases:
        lines.append("")
        lines.append("phases (p50): " + "  ".join(
            f"{phase}={fmt_s(value)}"
            for phase, value in sorted(phases.items())))
    return "\n".join(lines)


def _command_top(args) -> int:
    from .service import scrape_metrics
    from .telemetry import clock, parse_prometheus_text

    previous = None
    previous_t = None
    iteration = 0
    while True:
        text = scrape_metrics(args.host, args.port)
        samples = parse_prometheus_text(text)
        now = clock.monotonic()
        elapsed = None if previous_t is None else now - previous_t
        frame = _scrape_frame(samples, previous, elapsed)
        if not args.once:
            # Clear + home: a terminal dashboard, not a scrolling log.
            print("\x1b[2J\x1b[H", end="")
        print(f"repro top — {args.host}:{args.port} "
              f"(scrape #{iteration + 1}, every {args.interval:.1f}s)")
        print()
        print(frame)
        iteration += 1
        if args.once:
            return 0
        previous, previous_t = samples, now
        clock.sleep(args.interval)


def _command_calibrate(args) -> int:
    from .telemetry import calibrate_workload

    model = _load_model(Path(args.model))
    widths = tuple(int(w) for w in args.widths.split(","))
    t_eval = np.linspace(0.0, args.t_end, args.points)
    table = calibrate_workload(model, t_span=(0.0, args.t_end),
                               t_eval=t_eval, widths=widths,
                               repeats=args.repeats, method=args.method,
                               seed=args.seed)
    report = table.fit()
    print(report.render())
    if args.out:
        report.save(args.out)
        print(f"\nwrote calibration report to {args.out} "
              f"(pass to 'repro serve --calibration' or "
              f"BatchSimulator(cost_model=...))")
    return 0


def _command_submit(args) -> int:
    from .service import Client

    with Client(args.host, args.port) as client:
        options = {"tenant": args.tenant, "priority": args.priority,
                   "chunk_size": args.chunk_size, "workers": args.workers,
                   "engine": args.engine}
        if args.points:
            t_eval = np.linspace(0.0, args.t_end, args.points)
            options["t_eval"] = [float(t) for t in t_eval]
        if args.deadline is not None:
            options["deadline_seconds"] = args.deadline
        if args.checkpoint is not None:
            options["checkpoint_path"] = args.checkpoint
        job_id = client.submit(args.model, t_span=(0.0, args.t_end),
                               **options)
        print(f"job {job_id} submitted (tenant {args.tenant!r}, "
              f"priority {args.priority})")
        if args.no_wait:
            return 0
        job = client.wait(job_id, timeout=args.timeout)
        print(f"job {job_id} {job['state']}"
              + (f" ({job['reason']})" if job.get("reason") else ""))
        if job.get("result"):
            print(job["result"])
        return 0 if job["state"] == "completed" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Accelerated parameter-space analysis of "
                    "reaction-based models")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a model")
    info.add_argument("model")
    info.set_defaults(handler=_command_info)

    sim = commands.add_parser("simulate", help="simulate a model (batch)")
    sim.add_argument("model")
    sim.add_argument("--t-end", type=float, default=10.0)
    sim.add_argument("--points", type=int, default=51)
    sim.add_argument("--t-grid", action="store_true",
                     help="use the folder's t_vector as the save grid")
    sim.add_argument("--engine", default="batched",
                     choices=("batched", "lsoda", "vode", "dopri5",
                              "radau5", "autoswitch", "bdf"))
    sim.add_argument("--perturb", type=int, default=0, metavar="B",
                     help="simulate B log-uniformly perturbed "
                          "parameterizations instead of the nominal one")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rtol", type=float, default=1e-6)
    sim.add_argument("--atol", type=float, default=1e-12)
    sim.add_argument("--max-steps", type=int, default=10_000)
    sim.add_argument("--out", help="CSV output path")
    sim.set_defaults(handler=_command_simulate)

    analyze = commands.add_parser(
        "analyze", help="structural + dynamical diagnostics of a model")
    analyze.add_argument("model")
    analyze.add_argument("--horizon", type=float, default=50.0)
    analyze.add_argument("--max-steps", type=int, default=100_000)
    analyze.set_defaults(handler=_command_analyze)

    lint = commands.add_parser(
        "lint", help="static analysis of a model or a batch kernel")
    lint.add_argument("model", nargs="?",
                      help="model folder, SBML file, or a .py kernel file")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--fail-on", choices=("info", "warning", "error"),
                      default="error", metavar="SEVERITY",
                      help="exit 1 when any finding is at or above this "
                           "severity (default: error)")
    lint.add_argument("--self", action="store_true",
                      help="lint the package's own shipped batch kernels")
    lint.add_argument("--deep", action="store_true",
                      help="run the dataflow determinism/contract "
                           "analyzer (DET0xx/CON0xx) over the package "
                           "source (or MODEL when it is a .py file or "
                           "a directory)")
    lint.add_argument("--shapes", action="store_true",
                      help="run the symbolic shape/dtype analyzer "
                           "(SHP0xx) over the package source (or MODEL "
                           "when it is a .py file or a directory)")
    lint.add_argument("--conc", action="store_true",
                      help="run the concurrency-safety analyzer "
                           "(CNC0xx: async/thread/process boundary "
                           "rules) over the package source (or MODEL "
                           "when it is a .py file or a directory)")
    lint.add_argument("--baseline", metavar="PATH",
                      help="baseline JSON to subtract from --deep/"
                           "--shapes/--conc findings (default: the "
                           "committed package baseline of that "
                           "analyzer)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="with --deep/--shapes/--conc: persist the "
                           "current findings as the new baseline "
                           "instead of reporting them")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule (id, family, "
                           "severity, summary) and exit")
    lint.add_argument("--gate", action="store_true",
                      help="run the model through lint_gate: exit 3 "
                           "(LintGateError) when it fails at/above "
                           "--fail-on")
    lint.set_defaults(handler=_command_lint)

    convert = commands.add_parser("convert",
                                  help="convert between SBML and folder")
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.set_defaults(handler=_command_convert)

    generate = commands.add_parser("generate",
                                   help="generate a synthetic RBM folder")
    generate.add_argument("destination")
    generate.add_argument("--species", type=int, default=32)
    generate.add_argument("--reactions", type=int, default=32)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--batch", type=int, default=0)
    generate.set_defaults(handler=_command_generate)

    trace = commands.add_parser(
        "trace", help="record, summarize or export campaign traces")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)

    record = trace_commands.add_parser(
        "record", help="run a traced campaign, writing a JSONL trace")
    record.add_argument("model")
    record.add_argument("--out", required=True,
                        help="JSONL trace output path")
    record.add_argument("--batch", type=int, default=64,
                        help="perturbed rows when the folder has no "
                             "sweep batch")
    record.add_argument("--chunk-size", type=int, default=32)
    record.add_argument("--workers", type=int, default=0,
                        help="worker processes for the supervised shard "
                             "executor (0 = in-process serial loop)")
    record.add_argument("--t-end", type=float, default=10.0)
    record.add_argument("--points", type=int, default=51)
    record.add_argument("--engine", default="batched",
                        choices=("batched", "lsoda", "vode", "dopri5",
                                 "radau5", "autoswitch", "bdf"))
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--checkpoint", default=None,
                        help="campaign journal path; enables resume and "
                             "appends into the existing trace")
    record.set_defaults(handler=_command_trace_record)

    summarize = trace_commands.add_parser(
        "summarize", help="validate and summarize a JSONL trace")
    summarize.add_argument("trace")
    summarize.set_defaults(handler=_command_trace_summarize)

    export = trace_commands.add_parser(
        "export", help="convert a JSONL trace to Chrome trace_event JSON")
    export.add_argument("trace")
    export.add_argument("--out", required=True,
                        help="Chrome-trace JSON output path")
    export.set_defaults(handler=_command_trace_export)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant campaign service (TCP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753)
    serve.add_argument("--max-running", type=int, default=4,
                       help="campaigns executing concurrently")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="service-wide concurrent chunk grants")
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--tenant-queue", type=int, default=16,
                       help="default per-tenant queued-job quota")
    serve.add_argument("--tenant-inflight", type=int, default=4,
                       help="default per-tenant chunk-grant cap")
    serve.add_argument("--job-attempts", type=int, default=2)
    serve.add_argument("--attempt-timeout", type=float, default=None,
                       help="wall-clock bound per job attempt (seconds)")
    serve.add_argument("--telemetry", default=None,
                       help="JSONL trace path for the service span tree")
    serve.add_argument("--calibration", default=None,
                       help="calibration report JSON ('repro calibrate' "
                            "output) for calibrated admission and routing")
    serve.add_argument("--slo-target", type=float, default=None,
                       help="default per-tenant success objective "
                            "(e.g. 0.99)")
    serve.add_argument("--slo-latency", type=float, default=None,
                       help="per-job latency objective in seconds; "
                            "slower completions count as SLO misses")
    serve.add_argument("--slo-window", type=float, default=3600.0,
                       help="SLO burn-rate sliding window (seconds)")
    serve.set_defaults(handler=_command_serve)

    top = commands.add_parser(
        "top", help="live terminal view of a running service's /metrics")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8753)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between scrapes")
    top.add_argument("--once", action="store_true",
                     help="print a single frame and exit (no screen "
                          "clearing; for scripts and CI)")
    top.set_defaults(handler=_command_top)

    calibrate = commands.add_parser(
        "calibrate",
        help="fit a perfmodel calibration report from probe launches")
    calibrate.add_argument("model", help="model folder or SBML path")
    calibrate.add_argument("--out", default=None,
                           help="write the fitted CalibrationReport "
                                "JSON here")
    calibrate.add_argument("--widths", default="8,32",
                           help="comma-separated probe batch widths")
    calibrate.add_argument("--repeats", type=int, default=2,
                           help="probe launches per width")
    calibrate.add_argument("--method", default="auto",
                           choices=("auto", "dopri5", "radau5", "bdf"))
    calibrate.add_argument("--t-end", type=float, default=2.0)
    calibrate.add_argument("--points", type=int, default=41)
    calibrate.add_argument("--seed", type=int, default=0,
                           help="perturbation seed for probe batches")
    calibrate.set_defaults(handler=_command_calibrate)

    submit = commands.add_parser(
        "submit", help="submit a campaign to a running service")
    submit.add_argument("model", help="model folder or SBML path, as "
                                      "seen by the *server*")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8753)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--chunk-size", type=int, default=64)
    submit.add_argument("--workers", type=int, default=0)
    submit.add_argument("--engine", default="batched")
    submit.add_argument("--t-end", type=float, default=10.0)
    submit.add_argument("--points", type=int, default=51)
    submit.add_argument("--deadline", type=float, default=None,
                        help="per-job deadline in seconds from submission")
    submit.add_argument("--checkpoint", default=None,
                        help="server-side campaign journal path")
    submit.add_argument("--no-wait", action="store_true",
                        help="submit and return without waiting")
    submit.add_argument("--timeout", type=float, default=None,
                        help="wait timeout in seconds")
    submit.set_defaults(handler=_command_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LintGateError as error:
        # Distinct from crashes (exit 2) so CI can tell a gate
        # rejection from a broken analyzer.
        print(f"lint gate: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
