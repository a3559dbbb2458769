"""Command-line interface.

Installed as the ``hexamesh`` console script (also reachable with
``python -m repro``).  The sub-commands mirror the workflows of the paper:

* ``info``      — evaluate one design point and print its summary,
* ``compare``   — compare an arrangement against the grid baseline,
* ``figure``    — regenerate the data of Figure 6 or Figure 7 as CSV
  (``--jobs N`` fans cycle-accurate points across worker processes),
* ``simulate``  — run the cycle-accurate simulator on one design
  (optionally exporting per-cycle metrics and a flit-lifecycle trace),
* ``trace``     — record the flit-lifecycle trace of one design point and
  write it as Chrome trace-event JSON (Perfetto-loadable) and/or JSONL;
  ``--check`` replays the point on every engine and verifies the
  canonical event streams are bit-identical,
* ``sweep``     — parallel cycle-accurate sweep over the full design grid
  (kinds × chiplet counts × injection rates × traffic patterns) with
  ``--jobs`` workers and an optional ``--cache-dir`` result store,
* ``workload``  — map application task graphs (DNN pipelines, fork-join,
  stencil, all-reduce, client-server) onto arrangements and run the
  trace-driven cycle-accurate simulator, reporting application metrics,
* ``faults``    — fault-injection resilience sweep: simulate degraded
  topologies (failed links / routers, sampled deterministically or given
  explicitly) and report per-arrangement degradation curves,
* ``store``     — inspect and maintain the persistent result store that
  backs ``--cache-dir`` (``stats``, ``ls``, ``gc``, ``migrate``,
  ``verify`` — re-simulate sampled entries and compare bit-for-bit),
* ``serve``     — host the exploration service: accept async sweep /
  workload / resilience / figure-7 jobs over a local Unix socket,
  stream per-job progress, dedupe identical in-flight candidates across
  jobs and serve warm results straight from the shared store,
* ``jobs``      — client for a running service
  (``submit|status|watch|result|cancel|resume|list|ping|shutdown``),
* ``bench``     — run the engine benchmark scenarios and emit a
  machine-readable ``BENCH_<rev>.json`` report (optionally gated against
  the committed baseline, which is how CI tracks perf regressions),
* ``export``    — write BookSim2 input files and/or an SVG top view,
* ``feasibility`` — check link-length / package feasibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.arrangements.factory import make_arrangement
from repro.core.design import ChipletDesign
from repro.core.parallel import ParallelSweepRunner, SweepCandidate
from repro.core.report import compare_designs
from repro.evaluation.proxies import run_figure6
from repro.evaluation.tables import format_table
from repro.io.booksim_export import write_booksim_inputs
from repro.linkmodel.package import check_package_feasibility
from repro.noc.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.noc.faults import FaultSet
from repro.noc.simulator import BatchPoint, NocSimulator
from repro.noc.traffic import available_traffic_patterns
from repro.resilience.sweep import (
    EXPLICIT_FAULT_TYPE,
    FAULT_TYPES,
    normalize_injection_rates,
    summarize_records,
)
from repro.service.jobs import run_job
from repro.service.specs import (
    ARRANGEMENT_KINDS,
    FIGURE7_MODES,
    REGULARITIES,
    JobSpec,
    job_spec,
    phase_config,
)
from repro.service.tables import RESILIENCE_HEADER, render_csv, resilience_rows
from repro.telemetry import (
    FlitTracer,
    MetricsCollector,
    SweepProgressTracker,
    TelemetrySession,
    build_manifest,
    format_progress,
    format_summary,
    progress_from_dict,
)
from repro.viz.svg import placement_svg, save_svg
from repro.workloads import available_mappers, available_workloads


def _parse_list(text: str | None, *, kind: type, all_values: tuple = ()) -> list | None:
    """Parse a comma-separated CLI list, expanding the ``"all"`` shorthand.

    An unset flag (``None``) stays ``None``, leaving the spec default.
    """
    if text is None:
        return None
    stripped = text.strip()
    if stripped.lower() == "all":
        if not all_values:
            raise ValueError('"all" is not supported for this option; list the values explicitly')
        return list(all_values)
    return [kind(part.strip()) for part in stripped.split(",") if part.strip()]


def _emit_csv(csv_text: str, output: str | None) -> None:
    """Write CSV text to ``output``, or print it to stdout."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"wrote {output}")
    else:
        print(csv_text, end="")


def _emit_table(output: str | None, header: list[str], rows: list[list]) -> None:
    """Write rows as CSV to ``output``, or print them as a table.

    The CSV bytes come from :func:`repro.service.tables.render_csv`, as a
    job payload's ``csv`` does, so the ``--output`` file of a spec-backed
    command and the equivalent service job's CSV are byte-identical.
    """
    if output:
        _emit_csv(render_csv(header, rows), output)
    else:
        print(format_table(header, rows))


def _spec(job_type: str, **fields) -> JobSpec:
    """Validate the job spec a command runs.

    Unset flags (``None``) are left out, so the spec's own defaults apply.
    """
    raw = {name: value for name, value in fields.items() if value is not None}
    return job_spec({"type": job_type, **raw})


def _run_flags(args: argparse.Namespace) -> dict:
    """The simulation-run flags ``sweep``/``workload``/``faults`` share."""
    return {"cycles": args.cycles, "seed": args.seed, "jobs": args.jobs, "engine": args.engine}


def _warn_ignored(spec: JobSpec, args: argparse.Namespace, flags, reason: str) -> None:
    """Warn about the ``flags`` set away from their default that this run ignores.

    A flag's spec field is its name without dashes (``--sim-points`` is
    ``sim_points``); ``--cache-dir`` is no spec field and counts when given.
    """
    default = job_spec({"type": spec.job_type})

    def changed(flag: str) -> bool:
        if flag == "--cache-dir":
            return args.cache_dir is not None
        field = flag[2:].replace("-", "_")
        return spec.param(field) != default.param(field)

    ignored = [flag for flag in flags if changed(flag)]
    if ignored:
        print(f"warning: {', '.join(ignored)} {reason}", file=sys.stderr)


def _run_spec(spec: JobSpec, args: argparse.Namespace) -> dict:
    """Run a spec through the service's job executor, progress to stderr."""
    report_progress, finish_progress = _progress_reporter(spec.param("jobs"), args.progress)
    payload = run_job(spec, cache_dir=args.cache_dir, progress=report_progress)
    finish_progress()
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexamesh",
        description="HexaMesh (DAC 2023) reproduction: chiplet arrangement analysis",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="evaluate one design point")
    info.add_argument("kind", choices=ARRANGEMENT_KINDS)
    info.add_argument("chiplets", type=int)

    compare = subparsers.add_parser("compare", help="compare a design against a baseline")
    compare.add_argument("kind", choices=ARRANGEMENT_KINDS)
    compare.add_argument("chiplets", type=int)
    compare.add_argument("--baseline", choices=ARRANGEMENT_KINDS, default="grid")

    figure = subparsers.add_parser("figure", help="regenerate Figure 6 or Figure 7 data")
    figure.add_argument("number", choices=("6", "7"))
    figure.add_argument("--max-chiplets", type=int)
    figure.add_argument("--output", default=None, help="CSV output path (default: stdout)")
    figure.add_argument("--mode", choices=FIGURE7_MODES, help="Figure 7 evaluation engine")
    figure.add_argument(
        "--sim-points",
        default=None,
        help="comma list of chiplet counts to simulate (hybrid mode)",
    )
    figure.add_argument("--jobs", type=int, help="worker processes for cycle-accurate points")
    figure.add_argument(
        "--cache-dir", default=None, help="persistent result store for cycle-accurate results"
    )
    figure.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        help="cycle-loop engine for cycle-accurate points (all engines are bit-identical)",
    )

    simulate = subparsers.add_parser("simulate", help="run the cycle-accurate simulator")
    simulate.add_argument("kind", choices=ARRANGEMENT_KINDS)
    simulate.add_argument("chiplets", type=int)
    simulate.add_argument("--injection-rate", type=float, default=0.05)
    simulate.add_argument("--traffic", default="uniform")
    simulate.add_argument(
        "--cycles",
        type=int,
        default=1000,
        help="measurement cycles (warm-up and drain scale with it)",
    )
    simulate.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=DEFAULT_ENGINE,
        help="cycle-loop engine (all engines are bit-identical)",
    )
    simulate.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write per-cycle metric series (buffer occupancy, "
        "link flits, VC stalls, in-flight, backlog) as JSON",
    )
    simulate.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the flit-lifecycle trace as Chrome trace-event JSON (Perfetto-loadable)",
    )
    simulate.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write the flit-lifecycle trace as JSONL (one canonical event per line)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="record a flit-lifecycle trace (Perfetto/JSONL export, "
        "optional cross-engine equality check)",
    )
    trace.add_argument("kind", choices=ARRANGEMENT_KINDS)
    trace.add_argument("chiplets", type=int)
    trace.add_argument("--injection-rate", type=float, default=0.05)
    trace.add_argument("--traffic", default="uniform")
    trace.add_argument(
        "--cycles",
        type=int,
        default=200,
        help="measurement cycles (warm-up and drain scale with it)",
    )
    trace.add_argument("--seed", type=int, default=1, help="RNG seed")
    trace.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=DEFAULT_ENGINE,
        help="engine that records the exported trace",
    )
    trace.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="Chrome trace-event JSON output path (default: trace-<kind><chiplets>.json)",
    )
    trace.add_argument("--jsonl", default=None, metavar="PATH", help="also write the trace as JSONL")
    trace.add_argument(
        "--check",
        action="store_true",
        help="replay the point on every engine and fail unless "
        "the canonical event streams and metric series "
        "are bit-identical",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="parallel cycle-accurate sweep over (kind x chiplets x rate x traffic)",
    )
    sweep.add_argument("--kinds", help='comma list of arrangement kinds, or "all"')
    sweep.add_argument("--chiplets", help="comma list of chiplet counts")
    sweep.add_argument("--rates", help="comma list of injection rates (flits/cycle/endpoint)")
    sweep.add_argument("--traffic", help='comma list of traffic patterns, or "all"')
    sweep.add_argument(
        "--regularity",
        choices=REGULARITIES,
        default=None,
        help="force one regularity class for every arrangement "
        "(default: best available per chiplet count)",
    )
    sweep.add_argument("--jobs", type=int, help="worker processes")
    sweep.add_argument(
        "--cache-dir", default=None, help="persistent result store directory"
    )
    sweep.add_argument(
        "--cycles", type=int, help="measurement cycles (warm-up and drain scale with it)"
    )
    sweep.add_argument("--seed", type=int, help="base RNG seed")
    sweep.add_argument(
        "--engine", choices=ENGINE_NAMES, help="cycle-loop engine (all engines are bit-identical)"
    )
    sweep.add_argument("--output", default=None, help="CSV output path (default: table)")
    sweep.add_argument(
        "--progress",
        choices=("plain", "detail", "quiet"),
        default="plain",
        help="progress rendering: plain per-candidate lines, "
        "detail adds rate/ETA/cache-ratio per line, "
        "quiet suppresses everything but the end summary",
    )

    workload = subparsers.add_parser(
        "workload",
        help="map application task graphs onto arrangements and simulate them",
    )
    workload.add_argument("--kind", help='comma list of workload kinds, or "all"')
    workload.add_argument("--chiplets", help="comma list of chiplet counts")
    workload.add_argument("--arrangement", help='comma list of arrangement kinds, or "all"')
    workload.add_argument("--mapper", help='comma list of mappers, or "all"')
    workload.add_argument(
        "--regularity",
        choices=REGULARITIES,
        default=None,
        help="force one regularity class for every arrangement "
        "(default: best available per chiplet count)",
    )
    workload.add_argument(
        "--tasks", type=int, help="tasks per workload (default: the chiplet count)"
    )
    workload.add_argument(
        "--injection-rate", type=float, help="offered load of the heaviest source endpoint"
    )
    workload.add_argument(
        "--cycles", type=int, help="measurement cycles (warm-up and drain scale with it)"
    )
    workload.add_argument("--seed", type=int, help="base RNG seed")
    workload.add_argument(
        "--engine", choices=ENGINE_NAMES, help="cycle-loop engine (all engines are bit-identical)"
    )
    workload.add_argument("--jobs", type=int, help="worker processes")
    workload.add_argument(
        "--cache-dir", default=None, help="persistent result store directory"
    )
    workload.add_argument("--output", default=None, help="CSV output path (default: table)")
    workload.add_argument(
        "--progress",
        choices=("plain", "detail", "quiet"),
        default="plain",
        help="progress rendering (see sweep --progress)",
    )

    faults = subparsers.add_parser(
        "faults",
        help="fault-injection resilience sweep: per-arrangement degradation "
        "vs. number of failed links/routers",
    )
    faults.add_argument("--kinds", help='comma list of arrangement kinds, or "all"')
    faults.add_argument("--chiplets", type=int, help="chiplet count shared by every arrangement")
    faults.add_argument(
        "--regularity",
        choices=REGULARITIES,
        default=None,
        help="force one regularity class for every arrangement "
        "(default: best available per chiplet count)",
    )
    faults.add_argument(
        "--failures", help="comma list of failure counts (include 0 for the baseline)"
    )
    faults.add_argument(
        "--fault-type", choices=FAULT_TYPES, help="what fails: links, routers, or an even mix"
    )
    faults.add_argument(
        "--samples", type=int, help="independent fault draws per (kind, failure count)"
    )
    faults.add_argument(
        "--fail-links",
        default=None,
        metavar="LINKS",
        help='explicit failed links, e.g. "0-1,4-5" (skips sampling; combined with --fail-routers)',
    )
    faults.add_argument(
        "--fail-routers",
        default=None,
        metavar="ROUTERS",
        help='explicit failed router ids, e.g. "3,8"',
    )
    faults.add_argument("--injection-rate", type=float)
    faults.add_argument(
        "--injection-rates",
        default=None,
        metavar="RATES",
        help="comma list of injection rates; sweeping several turns each "
        "degradation curve into a degradation surface (rows gain a rate "
        "column) and overrides --injection-rate",
    )
    faults.add_argument("--traffic")
    faults.add_argument(
        "--cycles", type=int, help="measurement cycles (warm-up and drain scale with it)"
    )
    faults.add_argument("--seed", type=int, help="base RNG seed (also seeds the fault sampling)")
    faults.add_argument("--jobs", type=int, help="worker processes")
    faults.add_argument(
        "--cache-dir", default=None, help="persistent result store directory"
    )
    faults.add_argument(
        "--engine", choices=ENGINE_NAMES, help="cycle-loop engine (all engines are bit-identical)"
    )
    faults.add_argument("--output", default=None, help="CSV output path (default: table)")
    faults.add_argument(
        "--progress",
        choices=("plain", "detail", "quiet"),
        default="plain",
        help="progress rendering (see sweep --progress)",
    )

    store = subparsers.add_parser(
        "store",
        help="inspect and maintain a persistent result store (the --cache-dir of sweeps)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stats = store_sub.add_parser(
        "stats", help="entry count, bytes, shards, quarantine and hygiene counters"
    )
    store_stats.add_argument("root", help="store directory")
    store_stats.add_argument("--json", action="store_true", help="machine-readable output")

    store_ls = store_sub.add_parser("ls", help="list entry keys (optionally with identities)")
    store_ls.add_argument("root", help="store directory")
    store_ls.add_argument(
        "--long",
        action="store_true",
        help="read each entry and append its candidate identity",
    )
    store_ls.add_argument(
        "--limit", type=int, default=None, help="print at most this many entries"
    )

    store_gc = store_sub.add_parser(
        "gc", help="remove orphaned temp files, quarantined entries and empty shards"
    )
    store_gc.add_argument("root", help="store directory")
    store_gc.add_argument(
        "--keep-quarantine",
        action="store_true",
        help="leave quarantined (corrupt) entries in place for inspection",
    )

    store_migrate = store_sub.add_parser(
        "migrate", help="migrate an old-layout store in place (idempotent)"
    )
    store_migrate.add_argument("root", help="store directory")

    store_verify = store_sub.add_parser(
        "verify",
        help="structurally check every entry, then re-simulate a sample "
        "and compare bit-for-bit",
    )
    store_verify.add_argument("root", help="store directory")
    store_verify.add_argument(
        "--sample",
        type=int,
        default=1,
        help="number of entries to re-simulate (deterministically sampled)",
    )
    store_verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    store_verify.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help=f"engine to replay with (default: {DEFAULT_ENGINE}; the engine a "
        "manifest records is provenance only, all engines are bit-identical)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the engine benchmark scenarios and emit a BENCH_<rev>.json report",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced phase lengths and the quick scenario subset (CI mode)",
    )
    bench.add_argument(
        "--scenarios",
        default=None,
        help="comma list of scenario names (default: all for the mode)",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="runs per (scenario, engine); the fastest wall-clock is kept",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="report path (default: BENCH_<rev>.json in the working directory)",
    )
    bench.add_argument(
        "--rev", default=None, help="revision label for the report (default: git short hash)"
    )
    bench.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE",
        help="fail (exit 1) if any scenario regresses against this baseline JSON",
    )
    bench.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="also distil the report into a committed-baseline JSON "
        "(speedups + headline floors only)",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="print the scenario names for the chosen mode and exit",
    )

    serve = subparsers.add_parser(
        "serve",
        help="host the exploration service: accept sweep/workload/resilience/"
        "figure-7 jobs over a local socket, backed by a shared result store",
    )
    serve.add_argument(
        "--socket",
        default="hexamesh.sock",
        help="Unix socket path to listen on (default: ./hexamesh.sock)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result store shared by every job (warm resubmissions "
        "return without simulating)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs (each job additionally fans simulations across "
        "its spec's worker processes)",
    )

    jobs_cmd = subparsers.add_parser(
        "jobs", help="talk to a running `hexamesh serve` (submit/watch/fetch jobs)"
    )
    jobs_sub = jobs_cmd.add_subparsers(dest="jobs_command", required=True)

    def _jobs_common(sub, *, job_id: bool = True):
        if job_id:
            sub.add_argument("id", help="job id (as printed by submit / list)")
        sub.add_argument(
            "--socket",
            default="hexamesh.sock",
            help="Unix socket of the server (default: ./hexamesh.sock)",
        )

    jobs_submit = jobs_sub.add_parser("submit", help="submit a job spec (JSON)")
    jobs_submit.add_argument(
        "--spec",
        default=None,
        help='inline JSON job spec, e.g. \'{"type": "sweep", "chiplets": [61]}\'',
    )
    jobs_submit.add_argument(
        "--spec-file", default=None, metavar="PATH", help="read the JSON spec from a file"
    )
    jobs_submit.add_argument(
        "--watch",
        action="store_true",
        help="stream progress to stderr and block for the result",
    )
    jobs_submit.add_argument(
        "--output", default=None, help="write the result CSV here (implies --watch)"
    )
    _jobs_common(jobs_submit, job_id=False)

    jobs_status = jobs_sub.add_parser("status", help="print one job's status as JSON")
    _jobs_common(jobs_status)

    jobs_watch = jobs_sub.add_parser(
        "watch", help="stream a job's progress, then fetch its result"
    )
    jobs_watch.add_argument("--output", default=None, help="write the result CSV here")
    _jobs_common(jobs_watch)

    jobs_result = jobs_sub.add_parser("result", help="block for a job's result")
    jobs_result.add_argument("--output", default=None, help="write the result CSV here")
    jobs_result.add_argument(
        "--timeout", type=float, default=None, help="give up after this many seconds"
    )
    _jobs_common(jobs_result)

    jobs_cancel = jobs_sub.add_parser("cancel", help="request job cancellation")
    _jobs_common(jobs_cancel)

    jobs_resume = jobs_sub.add_parser(
        "resume",
        help="resubmit a cancelled/failed job (completed candidates return "
        "from the store)",
    )
    jobs_resume.add_argument(
        "--watch",
        action="store_true",
        help="stream progress to stderr and block for the result",
    )
    jobs_resume.add_argument(
        "--output", default=None, help="write the result CSV here (implies --watch)"
    )
    _jobs_common(jobs_resume)

    jobs_list = jobs_sub.add_parser("list", help="list every job on the server")
    _jobs_common(jobs_list, job_id=False)

    jobs_ping = jobs_sub.add_parser("ping", help="check the server is alive")
    _jobs_common(jobs_ping, job_id=False)

    jobs_shutdown = jobs_sub.add_parser(
        "shutdown", help="stop the server (running jobs are cancelled)"
    )
    _jobs_common(jobs_shutdown, job_id=False)

    export = subparsers.add_parser("export", help="write BookSim2 inputs and/or an SVG view")
    export.add_argument("kind", choices=ARRANGEMENT_KINDS)
    export.add_argument("chiplets", type=int)
    export.add_argument("--booksim-topology", default=None)
    export.add_argument("--booksim-config", default=None)
    export.add_argument("--svg", default=None)

    feasibility = subparsers.add_parser(
        "feasibility", help="check D2D link-length and package feasibility"
    )
    feasibility.add_argument("kind", choices=ARRANGEMENT_KINDS)
    feasibility.add_argument("chiplets", type=int)
    feasibility.add_argument("--silicon-interposer", action="store_true")

    return parser


def _command_info(args: argparse.Namespace) -> int:
    design = ChipletDesign.create(args.kind, args.chiplets)
    rows = []
    for key, value in design.summary().items():
        rows.append([key, value])
    print(format_table(["metric", "value"], rows))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    candidate = ChipletDesign.create(args.kind, args.chiplets)
    baseline = ChipletDesign.create(args.baseline, args.chiplets)
    print(compare_designs(candidate, baseline).render())
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    spec = _spec(
        "figure7",
        max_chiplets=args.max_chiplets,
        mode=args.mode,
        sim_points=_parse_list(args.sim_points, kind=int),
        jobs=args.jobs,
        engine=args.engine,
    )
    if args.number == "6":
        _warn_ignored(
            spec,
            args,
            ("--mode", "--sim-points", "--jobs", "--cache-dir", "--engine"),
            "only apply to figure 7; figure 6 is always analytical",
        )
        figure6 = run_figure6(range(1, spec.param("max_chiplets") + 1))
        csv_text = figure6.diameter_experiment().to_csv() + figure6.bisection_experiment().to_csv()
    else:
        if spec.param("mode") == "analytical":
            # Mirror the figure-6 path: analytical mode never simulates, so
            # flags that only steer the cycle-accurate points are ignored.
            _warn_ignored(
                spec,
                args,
                ("--sim-points", "--jobs", "--cache-dir", "--engine"),
                "only apply to figure 7 hybrid/simulation modes; "
                "--mode analytical never simulates",
            )
        csv_text = run_job(spec, cache_dir=args.cache_dir)["csv"]
    _emit_csv(csv_text, args.output)
    return 0


def _progress_reporter(jobs: int, mode: str):
    """Build a ``(callback, finish)`` pair rendering sweep progress to stderr.

    The callback feeds every ``progress(done, total, record)`` completion
    through a :class:`SweepProgressTracker`; ``finish()`` prints the
    end-of-sweep summary (cache-hit ratio, candidates/s, per-candidate
    simulation wall time, worker utilisation).
    """
    tracker = SweepProgressTracker(jobs=jobs)
    last_snapshot = []

    def callback(done: int, total: int, record) -> None:
        snapshot = tracker.update(done, total, record)
        last_snapshot[:] = [snapshot]
        if mode == "quiet":
            return
        if mode == "detail":
            print(format_progress(snapshot, record.candidate.label), file=sys.stderr)
        else:
            origin = "cache" if record.from_cache else "sim"
            print(f"[{done}/{total}] {record.candidate.label} ({origin})", file=sys.stderr)

    def finish() -> None:
        if last_snapshot:
            print(format_summary(last_snapshot[0]), file=sys.stderr)

    return callback, finish


def _write_metrics_json(path: str, metrics: MetricsCollector, *, context: dict) -> None:
    """Write a metrics export: the series plus summary and provenance."""
    document = metrics.as_dict()
    document["summary"] = metrics.summary()
    document["provenance"] = build_manifest(extra=context)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _command_simulate(args: argparse.Namespace) -> int:
    design = ChipletDesign.create(args.kind, args.chiplets)
    config = phase_config(args.cycles)
    wants_trace = args.trace_out or args.trace_jsonl
    telemetry = None
    if args.metrics_out or wants_trace:
        telemetry = TelemetrySession(
            metrics=MetricsCollector() if args.metrics_out else None,
            tracer=FlitTracer() if wants_trace else None,
        )
    result = design.simulate(
        injection_rate=args.injection_rate,
        traffic=args.traffic,
        config=config,
        engine=args.engine,
        telemetry=telemetry,
    )
    context = {
        "design": design.label,
        "engine": args.engine,
        "injection_rate": args.injection_rate,
        "traffic": args.traffic,
    }
    if args.metrics_out:
        _write_metrics_json(args.metrics_out, telemetry.metrics, context=context)
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        telemetry.tracer.write_chrome_trace(args.trace_out, metadata=context)
        print(f"wrote {args.trace_out}")
    if args.trace_jsonl:
        telemetry.tracer.write_jsonl(args.trace_jsonl)
        print(f"wrote {args.trace_jsonl}")
    rows = [
        ["design", design.label],
        ["offered load [flit/cyc/EP]", result.injection_rate],
        ["avg packet latency [cyc]", result.packet_latency.mean],
        ["p99 packet latency [cyc]", result.packet_latency.p99],
        ["accepted [flit/cyc/EP]", result.accepted_flit_rate],
        ["throughput [Tb/s]", result.accepted_flit_rate * design.full_global_bandwidth_tbps],
        ["measured packets delivered", result.measured_packets_ejected],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    design = ChipletDesign.create(args.kind, args.chiplets)
    config = phase_config(args.cycles, seed=args.seed)

    def observed_run(engine: str):
        session = TelemetrySession(metrics=MetricsCollector(), tracer=FlitTracer())
        result = design.simulate(
            injection_rate=args.injection_rate,
            traffic=args.traffic,
            config=config,
            engine=engine,
            telemetry=session,
        )
        return session, result

    session, result = observed_run(args.engine)
    events = session.tracer.canonical_events()
    context = {
        "design": design.label,
        "engine": args.engine,
        "injection_rate": args.injection_rate,
        "traffic": args.traffic,
        "seed": args.seed,
    }
    output = args.output or f"trace-{args.kind}{args.chiplets}.json"
    session.tracer.write_chrome_trace(output, metadata=context)
    print(
        f"wrote {output} ({len(events)} events, "
        f"{result.measured_packets_ejected} measured packets)"
    )
    if args.jsonl:
        session.tracer.write_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}")
    if not args.check:
        return 0

    # Replay the point on every other engine (the batched path included)
    # and require bit-identical canonical traces, metric series and
    # results — the sharpest cross-engine equivalence artifact we have.
    reference_series = session.metrics.series()
    status = 0
    for engine in ENGINE_NAMES:
        if engine == args.engine:
            continue
        other_session, other_result = observed_run(engine)
        mismatches = []
        if other_session.tracer.canonical_events() != events:
            mismatches.append("trace events")
        if other_session.metrics.series() != reference_series:
            mismatches.append("metric series")
        if other_result != result:
            mismatches.append("simulation result")
        if mismatches:
            print(f"MISMATCH vs {engine}: {', '.join(mismatches)} differ", file=sys.stderr)
            status = 1
        else:
            print(f"{engine}: trace, metrics and result bit-identical")
    batched_session = TelemetrySession(metrics=MetricsCollector(), tracer=FlitTracer())
    (batched_result,) = NocSimulator.run_batch(
        design.arrangement.graph,
        [BatchPoint(args.injection_rate)],
        config=design.simulation_config(config),
        traffic=args.traffic,
        telemetry=lambda index, point: batched_session,
    )
    mismatches = []
    if batched_session.tracer.canonical_events() != events:
        mismatches.append("trace events")
    if batched_session.metrics.series() != reference_series:
        mismatches.append("metric series")
    if batched_result != result:
        mismatches.append("simulation result")
    if mismatches:
        print(f"MISMATCH vs batched: {', '.join(mismatches)} differ", file=sys.stderr)
        status = 1
    else:
        print("batched: trace, metrics and result bit-identical")
    if status:
        print("trace equivalence check FAILED", file=sys.stderr)
        return 1
    print(f"trace equivalence check passed across {len(ENGINE_NAMES) + 1} engines")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _spec(
        "sweep",
        kinds=_parse_list(args.kinds, kind=str, all_values=ARRANGEMENT_KINDS),
        chiplets=_parse_list(args.chiplets, kind=int),
        rates=_parse_list(args.rates, kind=float),
        traffic=_parse_list(args.traffic, kind=str, all_values=available_traffic_patterns()),
        regularity=args.regularity,
        **_run_flags(args),
    )
    payload = _run_spec(spec, args)
    _emit_table(args.output, payload["header"], payload["rows"])
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    spec = _spec(
        "workload",
        workloads=_parse_list(args.kind, kind=str, all_values=available_workloads()),
        arrangements=_parse_list(args.arrangement, kind=str, all_values=ARRANGEMENT_KINDS),
        chiplets=_parse_list(args.chiplets, kind=int),
        mappers=_parse_list(args.mapper, kind=str, all_values=available_mappers()),
        tasks=args.tasks,
        injection_rate=args.injection_rate,
        regularity=args.regularity,
        **_run_flags(args),
    )
    payload = _run_spec(spec, args)
    _emit_table(args.output, payload["header"], payload["rows"])
    return 0


def _explicit_fault_rows(spec: JobSpec, args: argparse.Namespace) -> list[list]:
    """Resilience rows of the exact ``--fail-links/--fail-routers`` scenario.

    Runs every kind healthy and with the given faults, at every rate of
    the (validated) resilience spec; the sampling fields are ignored.
    """
    _warn_ignored(
        spec,
        args,
        ("--failures", "--samples", "--fault-type"),
        "only apply to sampled sweeps; --fail-links/--fail-routers run exactly the given scenario",
    )
    fault_set = FaultSet.parse(args.fail_links or "", args.fail_routers or "")
    if fault_set.is_empty:
        # An explicit-but-empty spec (e.g. --fail-links "" from an unset
        # shell variable) would silently degrade into a healthy-only
        # sweep; fail fast instead.
        raise ValueError(
            "--fail-links/--fail-routers were given but name no faults; "
            'pass at least one link (e.g. "0-1") or router id, '
            "or drop the flags to run a sampled sweep"
        )
    kinds, chiplets = spec.param("kinds"), spec.param("chiplets")
    regularity = spec.param("regularity")
    # Fail fast with the precise FaultedTopologyError message (absent
    # component / isolated router / disconnected survivors) before any
    # worker starts — honouring the same --regularity override the
    # candidates below will simulate.
    for kind in kinds:
        fault_set.apply(make_arrangement(kind, chiplets, regularity).graph)
    rates = normalize_injection_rates(spec.param("injection_rate"), spec.param("injection_rates"))
    # Rate-innermost ordering keeps every rate of one fault set adjacent
    # in the report; the runner groups them by structure, so they share
    # one degraded-topology build.
    candidates = [
        SweepCandidate(
            kind=kind,
            num_chiplets=chiplets,
            injection_rate=rate,
            traffic=spec.param("traffic"),
            regularity=regularity,
            failed_links=() if healthy else fault_set.failed_links,
            failed_routers=() if healthy else fault_set.failed_routers,
        )
        for kind in kinds
        for healthy in (True, False)
        for rate in rates
    ]
    runner = ParallelSweepRunner(
        spec.config(),
        jobs=spec.param("jobs"),
        cache_dir=args.cache_dir,
        engine=spec.param("engine"),
    )
    report_progress, finish_progress = _progress_reporter(spec.param("jobs"), args.progress)
    records = runner.run(candidates, progress=report_progress)
    finish_progress()
    return resilience_rows(summarize_records(records, fault_type=EXPLICIT_FAULT_TYPE))


def _command_faults(args: argparse.Namespace) -> int:
    # The explicit --fail-links/--fail-routers scenario has no spec field;
    # it runs its own candidates but validates through the same spec.
    spec = _spec(
        "resilience",
        kinds=_parse_list(args.kinds, kind=str, all_values=ARRANGEMENT_KINDS),
        chiplets=args.chiplets,
        failures=_parse_list(args.failures, kind=int),
        fault_type=args.fault_type,
        samples=args.samples,
        injection_rate=args.injection_rate,
        injection_rates=_parse_list(args.injection_rates, kind=float),
        traffic=args.traffic,
        regularity=args.regularity,
        **_run_flags(args),
    )
    if args.fail_links is None and args.fail_routers is None:
        rows = _run_spec(spec, args)["rows"]
    else:
        rows = _explicit_fault_rows(spec, args)
    if args.output:
        _emit_table(args.output, RESILIENCE_HEADER, rows)
    else:

        def ratio(value: float) -> str:
            return f"{value:.3f}x" if value == value else "-"

        display = [row[:-2] + [ratio(row[-2]), ratio(row[-1])] for row in rows]
        print(format_table(RESILIENCE_HEADER, display))
    return 0


def _candidate_summary(candidate: dict) -> str:
    """One-line identity of a stored candidate for ``store ls --long``."""
    parts = [
        f"{candidate.get('kind', '?')}-{candidate.get('num_chiplets', '?')}",
        f"rate={candidate.get('injection_rate', '?')}",
        str(candidate.get("traffic", "?")),
    ]
    if candidate.get("workload"):
        parts.append(f"workload={candidate['workload']}/{candidate.get('mapper') or 'default'}")
    if candidate.get("failed_links") or candidate.get("failed_routers"):
        faults = len(candidate.get("failed_links") or ()) + len(
            candidate.get("failed_routers") or ()
        )
        parts.append(f"faults={faults}")
    return " ".join(parts)


def _command_store(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis-only commands should not pay for the
    # store package (which pulls in the sweep stack through verify).
    from repro.store import ResultStore, StoreSchemaError, verify_store

    if not os.path.isdir(args.root):
        print(f"error: no store directory at {args.root!r}", file=sys.stderr)
        return 2
    try:
        store = ResultStore(args.root)
    except StoreSchemaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.store_command == "stats":
        stats = store.stats()
        if args.json:
            document = {
                "schema": stats.schema,
                "generation": stats.generation,
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "shards": stats.shards,
                "quarantined": stats.quarantined,
                "orphan_tmp": stats.orphan_tmp,
                "migrated_on_open": store.migrated,
            }
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            rows = [
                ["schema", stats.schema],
                ["generation", stats.generation],
                ["entries", stats.entries],
                ["total bytes", stats.total_bytes],
                ["shards", stats.shards],
                ["quarantined", stats.quarantined],
                ["orphan tmp files", stats.orphan_tmp],
            ]
            if store.migrated:
                rows.append(["migrated on open", store.migrated])
            print(format_table(["metric", "value"], rows))
        return 0

    if args.store_command == "ls":
        keys = store.keys()
        shown = keys if args.limit is None else keys[: args.limit]
        for key in shown:
            if args.long:
                entry = store.get(key)
                identity = _candidate_summary(entry.candidate) if entry else "<corrupt>"
                print(f"{key}  {identity}")
            else:
                print(key)
        if len(shown) < len(keys):
            print(f"... and {len(keys) - len(shown)} more", file=sys.stderr)
        return 0

    if args.store_command == "gc":
        outcome = store.gc(purge_quarantine=not args.keep_quarantine)
        print(
            f"removed {outcome.removed_tmp} orphaned tmp files, "
            f"{outcome.removed_quarantined} quarantined entries, "
            f"{outcome.pruned_shards} empty shards "
            f"({outcome.freed_bytes} bytes freed)"
        )
        return 0

    if args.store_command == "migrate":
        # Migration happens when the store opens; report what it did.
        if store.migrated:
            print(f"migrated {store.migrated} legacy entries to schema {store.stats().schema}")
        else:
            print(f"store already at schema {store.stats().schema}; nothing to migrate")
        return 0

    # verify
    outcomes = verify_store(store, sample=args.sample, seed=args.seed, engine=args.engine)
    status = 0
    recomputed = 0
    for outcome in outcomes:
        if outcome.status == "ok":
            recomputed += 1
            print(f"ok        {outcome.key}  {outcome.detail}")
        elif outcome.status == "skipped":
            print(f"skipped   {outcome.key}  {outcome.detail}")
        else:
            print(f"MISMATCH  {outcome.key}  {outcome.detail}", file=sys.stderr)
            status = 1
    total = len(store.keys())
    if status:
        print("store verification FAILED", file=sys.stderr)
        return 1
    print(f"verified {total} entries structurally, {recomputed} recomputed bit-for-bit")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench harness pulls in the whole sweep /
    # workload stack, which the other subcommands should not pay for.
    from repro import bench

    if args.list_scenarios:
        for name in bench.available_scenarios(quick=args.quick):
            print(name)
        return 0
    scenario_names = None
    if args.scenarios:
        scenario_names = _parse_list(
            args.scenarios,
            kind=str,
            all_values=bench.available_scenarios(quick=args.quick),
        )
    revision = args.rev if args.rev is not None else bench.git_revision()
    report = bench.run_bench(
        scenario_names,
        quick=args.quick,
        repeat=args.repeat,
        revision=revision,
        progress=lambda message: print(message, file=sys.stderr),
    )
    output = args.output if args.output else bench.default_output_path(revision)
    bench.write_report(report, output)
    print(f"wrote {output}")
    print(bench.format_report_table(report))
    print(bench.format_machine(report))
    if args.write_baseline:
        baseline = bench.make_baseline(
            report,
            min_speedups=bench.HEADLINE_FLOORS,
            min_batched_speedups=bench.BATCHED_FLOORS,
        )
        bench.write_report(baseline, args.write_baseline)
        print(f"wrote {args.write_baseline}")
    if args.check_against:
        try:
            baseline = bench.load_report(args.check_against)
        except bench.BaselineError as exc:
            # An unreadable or malformed baseline must fail the gate loudly
            # (exit 1 with the reason), never exit 0 or dump a traceback.
            print(f"PERF GATE ERROR: {exc}", file=sys.stderr)
            return 1
        for warning in bench.check_report_warnings(report, baseline):
            print(f"warning: {warning}", file=sys.stderr)
        problems = bench.check_report(report, baseline)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            print(f"PERF REGRESSION {bench.format_machine(report)}", file=sys.stderr)
            return 1
        print(f"perf gate passed against {args.check_against}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: only the service commands should pay for the
    # service package on top of the sweep stack.
    from repro.service import JobManager, ServiceServer

    manager = JobManager(cache_dir=args.cache_dir, workers=args.workers)
    server = ServiceServer(manager, args.socket)
    store_note = f" (store: {args.cache_dir})" if args.cache_dir else " (uncached)"
    print(
        f"hexamesh service listening on {args.socket}{store_note}; "
        "stop with `hexamesh jobs shutdown` or Ctrl-C",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        server.shutdown()
    return 0


def _stream_job_responses(client, request: dict, output: str | None) -> int:
    """Drive one streaming request: progress to stderr, result to ``output``.

    Progress lines re-enter :func:`format_progress` /
    :func:`format_summary` through
    :func:`~repro.telemetry.progress.progress_from_dict`, so a watched
    job renders exactly like a local ``--progress detail`` sweep —
    including the end-of-job cache summary line CI greps for.
    """
    final = None
    announced = False
    last_snapshot = None
    for response in client.request(request):
        if "progress" in response:
            last_snapshot = progress_from_dict(response["progress"])
            print(format_progress(last_snapshot), file=sys.stderr)
            continue
        if not announced and response.get("ok") and "job" in response:
            job = response["job"]
            if job["state"] in ("queued", "running"):
                print(f"job {job['id']} {job['state']}", file=sys.stderr)
                announced = True
                final = response
                continue
        final = response
    if last_snapshot is not None:
        print(format_summary(last_snapshot), file=sys.stderr)
    if final is None:
        print("error: server closed the stream without responding", file=sys.stderr)
        return 1
    job = final.get("job")
    if job is not None:
        print(f"job {job['id']}: {job['state']}", file=sys.stderr)
    if not final.get("ok"):
        print(f"error: {final.get('error', 'job did not complete')}", file=sys.stderr)
        return 1
    if "result" in final:
        _emit_csv(final["result"].get("csv", ""), output)
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.socket)
    command = args.jobs_command
    try:
        if command == "submit":
            if (args.spec is None) == (args.spec_file is None):
                print(
                    "error: pass exactly one of --spec or --spec-file",
                    file=sys.stderr,
                )
                return 2
            if args.spec_file:
                with open(args.spec_file, "r", encoding="utf-8") as handle:
                    spec = json.load(handle)
            else:
                spec = json.loads(args.spec)
            watch = args.watch or args.output is not None
            request = {"op": "submit", "spec": spec, "watch": watch}
            if watch:
                return _stream_job_responses(client, request, args.output)
            response = client.call(request)
            job = response["job"]
            print(f"submitted {job['id']} ({job['state']})")
            return 0
        if command == "resume":
            watch = args.watch or args.output is not None
            request = {"op": "resume", "id": args.id, "watch": watch}
            if watch:
                return _stream_job_responses(client, request, args.output)
            response = client.call(request)
            job = response["job"]
            print(f"resumed {args.id} as {job['id']} ({job['state']})")
            return 0
        if command == "watch":
            return _stream_job_responses(
                client, {"op": "watch", "id": args.id}, args.output
            )
        if command == "status":
            response = client.call({"op": "status", "id": args.id})
            print(json.dumps(response["job"], indent=2, sort_keys=True))
            return 0
        if command == "result":
            request = {"op": "result", "id": args.id}
            if args.timeout is not None:
                request["timeout"] = args.timeout
            return _stream_job_responses(client, request, args.output)
        if command == "cancel":
            response = client.call({"op": "cancel", "id": args.id})
            job = response["job"]
            print(f"job {job['id']}: {job['state']}")
            return 0
        if command == "list":
            response = client.call({"op": "jobs"})
            rows = []
            for job in response["jobs"]:
                progress = job.get("progress") or {}
                done = progress.get("done", 0)
                total = progress.get("total", "?")
                rows.append([job["id"], job["type"], job["state"], f"{done}/{total}"])
            print(format_table(["id", "type", "state", "progress"], rows))
            return 0
        if command == "ping":
            response = client.call({"op": "ping"})
            store = response.get("cache_dir") or "uncached"
            print(f"ok: {response.get('protocol')} on {args.socket} ({store})")
            return 0
        if command == "shutdown":
            client.call({"op": "shutdown"})
            print("server shutting down")
            return 0
        raise ValueError(f"unknown jobs command {command!r}")  # pragma: no cover
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ConnectionRefusedError):
        print(
            f"error: no hexamesh service listening on {args.socket} "
            "(start one with `hexamesh serve`)",
            file=sys.stderr,
        )
        return 1


def _command_export(args: argparse.Namespace) -> int:
    arrangement = make_arrangement(args.kind, args.chiplets)
    wrote_something = False
    if args.booksim_topology and args.booksim_config:
        write_booksim_inputs(arrangement, args.booksim_topology, args.booksim_config)
        print(f"wrote {args.booksim_topology} and {args.booksim_config}")
        wrote_something = True
    elif args.booksim_topology or args.booksim_config:
        print(
            "error: --booksim-topology and --booksim-config must be given together",
            file=sys.stderr,
        )
        return 2
    if args.svg:
        if arrangement.placement is None:
            print(
                "error: the honeycomb has no rectangular placement to render",
                file=sys.stderr,
            )
            return 2
        save_svg(placement_svg(arrangement.placement), args.svg)
        print(f"wrote {args.svg}")
        wrote_something = True
    if not wrote_something:
        print(
            "nothing to export: pass --svg and/or --booksim-topology/--booksim-config",
            file=sys.stderr,
        )
        return 2
    return 0


def _command_feasibility(args: argparse.Namespace) -> int:
    arrangement = make_arrangement(args.kind, args.chiplets)
    report = check_package_feasibility(arrangement, silicon_interposer=args.silicon_interposer)
    rows = [
        ["chiplet width [mm]", report.shape.width_mm],
        ["chiplet height [mm]", report.shape.height_mm],
        ["estimated link length [mm]", report.link_length_mm],
        ["link length limit [mm]", report.max_link_length_mm],
        ["package width [mm]", report.package_width_mm],
        ["package height [mm]", report.package_height_mm],
        ["feasible", report.link_length_ok],
    ]
    print(format_table(["metric", "value"], rows))
    for violation in report.violations():
        print(f"VIOLATION: {violation}")
    return 0 if report.link_length_ok else 1


_COMMANDS = {
    "info": _command_info,
    "compare": _command_compare,
    "figure": _command_figure,
    "simulate": _command_simulate,
    "trace": _command_trace,
    "sweep": _command_sweep,
    "workload": _command_workload,
    "faults": _command_faults,
    "store": _command_store,
    "serve": _command_serve,
    "jobs": _command_jobs,
    "bench": _command_bench,
    "export": _command_export,
    "feasibility": _command_feasibility,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``hexamesh`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
