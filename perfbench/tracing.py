"""Span tracing of the program's public layer functions, from outside.

:func:`install` replaces each function listed in :data:`LAYER_FUNCTIONS`
with a wrapper that records one span per call: name, start, end, parent
span and operation id.  A module-level function is replaced in every
loaded ``repro`` module that holds it, so callers that imported it by
name (``from repro.arrangements.factory import make_arrangement``) see
the wrapper too; a method is replaced on its class.  Nothing under
``src/`` changes.

Spans stay in memory and are written once, when the run ends
(:meth:`Tracer.write`).  A span's self time is its duration minus the
time its direct child spans cover; children always nest inside their
parent because parents are tracked per thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

#: Every traced function: metric prefix -> (module, attribute path).
#: The metric prefix is ``<layer>.<function>``; ``.init`` marks a
#: constructor.  ``BatchedSweepRunner`` inherits ``run`` from
#: ``ParallelSweepRunner``, so one wrapper serves both and names the span
#: after the runner's class.
LAYER_FUNCTIONS: dict[str, tuple[str, str]] = {
    "partition.estimate_bisection_bandwidth": (
        "repro.partition.estimator", "estimate_bisection_bandwidth"),
    "partition.spectral_bisection": ("repro.partition.spectral", "spectral_bisection"),
    "partition.kernighan_lin_refine": (
        "repro.partition.kernighan_lin", "kernighan_lin_refine"),
    "partition.fiduccia_mattheyses_refine": (
        "repro.partition.fiduccia_mattheyses", "fiduccia_mattheyses_refine"),
    "arrangements.make_arrangement": ("repro.arrangements.factory", "make_arrangement"),
    "graphs.bfs_distances": ("repro.graphs.metrics", "bfs_distances"),
    "linkmodel.D2DLinkModel.estimate_for_arrangement": (
        "repro.linkmodel.bandwidth", "D2DLinkModel.estimate_for_arrangement"),
    "perfmodel.zero_load_latency_cycles": (
        "repro.perfmodel.latency", "zero_load_latency_cycles"),
    "perfmodel.bisection_limited_saturation_fraction": (
        "repro.perfmodel.throughput", "bisection_limited_saturation_fraction"),
    "evaluation.run_figure7": ("repro.evaluation.performance", "run_figure7"),
    "noc.NocSimulator.run_batch": ("repro.noc.simulator", "NocSimulator.run_batch"),
    "noc.NocSimulator.run": ("repro.noc.simulator", "NocSimulator.run"),
    "noc.RoutingTables.init": ("repro.noc.routing", "RoutingTables.__init__"),
    "noc.Network.init": ("repro.noc.network", "Network.__init__"),
    "noc.collect_results": ("repro.noc.simulator", "collect_results"),
    "noc.FaultSet.apply": ("repro.noc.faults", "FaultSet.apply"),
    "core.ParallelSweepRunner.run": ("repro.core.parallel", "ParallelSweepRunner.run"),
    "core.SweepCandidate.build_graph": (
        "repro.core.parallel", "SweepCandidate.build_graph"),
    "store.ResultStore.open": ("repro.store.store", "ResultStore.__init__"),
    "store.ResultStore.load": ("repro.store.store", "ResultStore.load"),
    "store.ResultStore.store": ("repro.store.store", "ResultStore.store"),
    "store.result_key": ("repro.store.store", "result_key"),
    "service.job_spec": ("repro.service.specs", "job_spec"),
    "service.JobManager.submit": ("repro.service.jobs", "JobManager.submit"),
    "service.ServiceClient.request": ("repro.service.server", "ServiceClient.request"),
    "workloads.map_workload": ("repro.workloads.mapping", "map_workload"),
    "resilience.sample_survivable_faults": (
        "repro.resilience.sampler", "sample_survivable_faults"),
    "resilience.run_resilience_sweep": ("repro.resilience.sweep", "run_resilience_sweep"),
}

#: Span names reported per layer: the wrapped functions plus the batched
#: runner, whose spans come from the inherited ``run`` wrapper.
SPAN_NAMES: tuple[str, ...] = tuple(
    sorted(set(LAYER_FUNCTIONS) | {"core.BatchedSweepRunner.run"})
)

#: Spans whose time counts as "inside the runner" for ``service.overhead_s``.
RUNNER_SPANS = frozenset(
    {"core.ParallelSweepRunner.run", "core.BatchedSweepRunner.run",
     "resilience.run_resilience_sweep"}
)

#: Modules imported before patching, so functions they import by name
#: (eagerly or lazily) are found and replaced.
_PRELOAD = (
    "repro.evaluation.performance", "repro.core.parallel", "repro.service",
    "repro.resilience.sweep", "repro.partition.estimator", "repro.workloads",
    "repro.store",
)


class Tracer:
    """In-memory span recorder.  Recording is on only while :attr:`active`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.store_hits = 0
        self.store_misses = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float] | None:
        if not self.active:
            return None
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token, name: str) -> None:
        if token is None:
            return
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, self.op))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "s", "self_s"}}`` over every recorded span."""
        child_time: dict[int, float] = {}
        for span_id, parent, _name, start, end, _op in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span_id, _parent, name, start, end, _op in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return totals

    def runner_seconds(self) -> dict[int, float]:
        """Per operation id: time in top-most runner spans (see :data:`RUNNER_SPANS`)."""
        by_id = {span[0]: span for span in self.spans}
        seconds: dict[int, float] = {}
        for span_id, parent, name, start, end, op in self.spans:
            if name not in RUNNER_SPANS or op is None:
                continue
            ancestor = by_id.get(parent)
            nested = False
            while ancestor is not None:
                if ancestor[2] in RUNNER_SPANS:
                    nested = True
                    break
                ancestor = by_id.get(ancestor[1])
            if not nested:
                seconds[op] = seconds.get(op, 0.0) + (end - start)
        return seconds

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end, op in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "op": op, "run": self.run_id,
                }) + "\n")


def _wrap(function, name: str, tracer: Tracer, *, by_class: bool = False):
    if inspect.isgeneratorfunction(function):
        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                yield from function(*args, **kwargs)
            finally:
                tracer.end(token, name)
        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        try:
            return function(*args, **kwargs)
        finally:
            span = f"core.{type(args[0]).__name__}.run" if by_class else name
            tracer.end(token, span)
    return wrapper


def _wrap_load(function, tracer: Tracer):
    """``ResultStore.load`` wrapper that also counts hits and misses."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        try:
            entry = function(*args, **kwargs)
        finally:
            tracer.end(token, "store.ResultStore.load")
        if token is not None:
            if entry is None:
                tracer.store_misses += 1
            else:
                tracer.store_hits += 1
        return entry
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYER_FUNCTIONS` (once per process)."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    for name, (module_name, path) in LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(_wrap(raw.__func__, name, tracer)))
            elif name == "store.ResultStore.load":
                setattr(owner, attribute, _wrap_load(raw, tracer))
            else:
                by_class = name == "core.ParallelSweepRunner.run"
                setattr(owner, attribute, _wrap(raw, name, tracer, by_class=by_class))
            continue
        original = getattr(module, path)
        wrapper = _wrap(original, name, tracer)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapper)
