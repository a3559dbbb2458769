"""Observability for the simulator: metrics, tracing, provenance, progress.

The telemetry subsystem is a cross-cutting layer over the three execution
paths (legacy dense loop, vectorized engine, batched array kernel):

* :class:`MetricsCollector` — per-cycle time series (buffer occupancy,
  link utilisation, VC-allocation stalls, in-flight flits, injection
  backlog), bit-identical across engines under a fixed seed;
* :class:`FlitTracer` — flit-lifecycle event streams (inject, VC grant,
  SA grant, link traverse, eject) exportable as JSONL and Chrome
  trace-event JSON (Perfetto-loadable), whose canonical order is a
  cross-engine equality artifact;
* :mod:`~repro.telemetry.provenance` — run manifests (config hash, seed,
  engine, git revision, library versions, wall time) written next to
  sweep cache entries and embedded in bench reports;
* :class:`SweepProgressTracker` — structured progress telemetry
  (candidates/s, ETA, cache-hit ratio, worker utilisation) on the sweep
  runners' callback seam;
* :class:`StageProfiler` — kernel-stage wall-time accounting surfaced in
  bench extras.

Everything is opt-in through a :class:`TelemetrySession`; passing
``telemetry=None`` (the default everywhere) keeps the simulation hot
paths strictly observation-free.
"""

from repro.telemetry.metrics import (
    METRICS_SCHEMA,
    SERIES_NAMES,
    MetricsCollector,
    sample_object_cycle,
)
from repro.telemetry.profile import KERNEL_STAGES, StageProfiler
from repro.telemetry.progress import (
    SweepProgress,
    SweepProgressTracker,
    format_duration,
    format_progress,
    format_summary,
    progress_from_dict,
)
from repro.telemetry.provenance import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_digest,
    git_revision,
    write_manifest,
)
from repro.telemetry.session import (
    TelemetrySession,
    install_probes,
    uninstall_probes,
)
from repro.telemetry.trace import (
    EVENT_FIELDS,
    TRACE_KINDS,
    TRACE_SCHEMA,
    FlitTracer,
    read_jsonl,
)

__all__ = [
    "EVENT_FIELDS",
    "KERNEL_STAGES",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "SERIES_NAMES",
    "TRACE_KINDS",
    "TRACE_SCHEMA",
    "FlitTracer",
    "MetricsCollector",
    "StageProfiler",
    "SweepProgress",
    "SweepProgressTracker",
    "TelemetrySession",
    "build_manifest",
    "config_digest",
    "format_duration",
    "format_progress",
    "format_summary",
    "git_revision",
    "install_probes",
    "progress_from_dict",
    "read_jsonl",
    "sample_object_cycle",
    "uninstall_probes",
    "write_manifest",
]
