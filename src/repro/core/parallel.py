"""Parallel design-space sweeps over multiprocessing workers.

This module is the fan-out layer of the exploration subsystem: it takes a
grid of simulation candidates — ``(kind, chiplet count, injection rate,
traffic pattern)`` tuples — and evaluates them across worker processes,
with candidates of shared structure grouped into work items that build
their topology once, deterministic per-candidate seeding, an on-disk
result cache and a progress callback.

Invariants the rest of the code base relies on:

* **Determinism.**  A candidate's seed is derived solely from the base
  seed and the candidate's identity (via SHA-256, never Python's
  process-randomised ``hash``), so ``jobs=1`` and ``jobs=N`` runs return
  identical records in identical order, across processes and machines.
* **Cache transparency.**  Cached results live in the persistent
  content-addressed result store (:mod:`repro.store`), keyed by a hash of
  the full candidate + simulation configuration, so a cache hit returns
  exactly what the simulation would have produced; the cycle-loop engines
  (vectorized, legacy) are bit-identical by construction (see
  :mod:`repro.noc.engine` and :mod:`repro.noc.array_kernel`), so cached
  results are shared between them — and between processes, runs and
  machines sharing one store directory.
* **Order preservation.**  Workers may finish out of order (unordered
  chunked dispatch keeps them busy), but results are always returned in
  candidate order.

:class:`ParallelSweepRunner` is the one path a stored or parallel
simulated result takes: sweep, workload and resilience jobs,
:func:`run_figure7 <repro.evaluation.performance.run_figure7>`'s
cycle-accurate points and the
:meth:`DesignSpaceExplorer.spot_check
<repro.core.explorer.DesignSpaceExplorer.spot_check>` curves all run
through it.  :func:`parallel_map` is the underlying generic helper: the
runner dispatches its work items through it, and the explorer fans its
analytical evaluations out through it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.arrangements.factory import make_arrangement
from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig, config_identity_dict
from repro.noc.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.noc.faults import FaultedTopologyError, FaultSet
from repro.noc.simulator import BatchPoint, NocSimulator, SimulationResult
from repro.noc.stats import LatencyStatistics, ThroughputStatistics
from repro.store import ResultStore, result_key
from repro.utils.mathutils import mix_seed
from repro.utils.validation import check_fraction, check_in_choices, check_positive_int
from repro.workloads import (
    effective_num_tasks,
    make_workload,
    map_workload,
    trace_traffic_for,
)

#: Progress callbacks receive ``(completed, total, latest)`` where
#: ``latest`` is the item that just finished (a :class:`SweepRecord` for
#: :class:`ParallelSweepRunner`, the mapped value for :func:`parallel_map`).
ProgressCallback = Callable[[int, int, Any], None]


# ---------------------------------------------------------------------------
# Generic ordered parallel map with chunked dispatch
# ---------------------------------------------------------------------------


def _apply_chunk(payload: tuple[Callable[[Any], Any], list[tuple[int, Any]]]):
    """Worker entry point: apply ``function`` to an indexed chunk of items."""
    function, chunk = payload
    return [(index, function(item)) for index, item in chunk]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits the loaded modules) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def default_chunk_size(num_items: int, jobs: int) -> int:
    """Chunk size balancing dispatch overhead against load-balancing slack.

    Aim for roughly four chunks per worker so that slow candidates (large
    networks, saturated loads) can be compensated by idle workers picking
    up remaining chunks.
    """
    return max(1, num_items // max(1, jobs * 4))


def is_inline(jobs: int, num_items: int) -> bool:
    """Whether :func:`parallel_map` will run inline (no worker pool).

    Single-job runs and single-item grids never cross a process boundary.
    Callers that need to know whether values will be shipped between
    processes (e.g. the explorer deciding whether to return heavyweight
    designs) must use this exact predicate so they cannot drift from the
    dispatch decision below.
    """
    return jobs <= 1 or num_items <= 1


def parallel_map(
    function: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[Any]:
    """Apply ``function`` to every item, optionally across worker processes.

    Results are returned in input order regardless of completion order.
    ``jobs`` must be >= 1; with ``jobs=1`` (or fewer than two items)
    everything runs inline in the calling process, which keeps single-job
    runs trivially identical to the parallel path and friendly to
    debuggers and profilers.
    """
    work = list(items)
    total = len(work)
    check_positive_int("jobs", jobs)
    if is_inline(jobs, total):
        results: list[Any] = []
        for index, item in enumerate(work):
            value = function(item)
            results.append(value)
            if progress is not None:
                progress(index + 1, total, value)
        return results

    size = chunk_size if chunk_size is not None else default_chunk_size(total, jobs)
    check_positive_int("chunk_size", size)
    indexed = list(enumerate(work))
    chunks = [indexed[start:start + size] for start in range(0, total, size)]

    ordered: list[Any] = [None] * total
    completed = 0
    context = _pool_context()
    with context.Pool(processes=jobs) as pool:
        payloads = [(function, chunk) for chunk in chunks]
        for chunk_results in pool.imap_unordered(_apply_chunk, payloads):
            for index, value in chunk_results:
                ordered[index] = value
                completed += 1
                if progress is not None:
                    progress(completed, total, value)
    return ordered


# ---------------------------------------------------------------------------
# Sweep candidates and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCandidate:
    """One point of the exploration grid.

    Attributes
    ----------
    kind:
        Arrangement family name (``"grid"``, ``"brickwall"``,
        ``"honeycomb"``, ``"hexamesh"``) — or ``"custom"`` when
        ``graph_edges`` carries an explicit topology.
    num_chiplets:
        Chiplet count (the number of graph nodes for custom topologies).
    injection_rate:
        Offered load in flits per cycle per endpoint.
    traffic:
        Traffic pattern name (resolved per worker via
        :func:`repro.noc.traffic.make_traffic_pattern`).
    regularity:
        Optional regularity class override for the arrangement generator.
    graph_edges:
        Explicit edge list for custom topologies; when set, workers build
        the :class:`ChipGraph` directly instead of generating the
        arrangement.
    workload:
        Optional application-workload kind (``"dnn-pipeline"``, ...); when
        set, the candidate runs trace-driven — ``traffic`` is ignored and
        workers build a :class:`~repro.workloads.trace.TraceTraffic` from
        the mapped workload instead.
    workload_params:
        Sorted ``(name, value)`` pairs forwarded to the workload generator
        (``(("num_tasks", 37),)``); part of the candidate identity.
    mapper:
        Task-to-chiplet mapper name (defaults to ``"partition"`` when a
        workload is set).
    failed_links / failed_routers:
        Optional fault injection (see :class:`repro.noc.faults.FaultSet`):
        the candidate simulates the *degraded* topology — failed routers
        and links removed, survivors relabeled — so routing tables and
        every engine rebuild automatically.  Normalised at construction;
        they join :meth:`key_dict` only when non-empty, so the cache keys
        and derived seeds of healthy candidates are unchanged.
    """

    kind: str
    num_chiplets: int
    injection_rate: float
    traffic: str = "uniform"
    regularity: str | None = None
    graph_edges: tuple[tuple[int, int], ...] | None = None
    workload: str | None = None
    workload_params: tuple[tuple[str, Any], ...] | None = None
    mapper: str | None = None
    failed_links: tuple[tuple[int, int], ...] = ()
    failed_routers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_positive_int("num_chiplets", self.num_chiplets)
        check_fraction("injection_rate", self.injection_rate)
        if self.workload is None and (
            self.workload_params is not None or self.mapper is not None
        ):
            raise ValueError(
                "workload_params / mapper are only meaningful together with "
                "a workload kind"
            )
        # Normalising through FaultSet canonicalises the tuples (sorted,
        # deduplicated, pairs ordered) and rejects malformed fault specs,
        # so equal fault sets always produce equal candidates, seeds and
        # cache keys.
        faults = FaultSet(
            failed_links=self.failed_links, failed_routers=self.failed_routers
        )
        object.__setattr__(self, "failed_links", faults.failed_links)
        object.__setattr__(self, "failed_routers", faults.failed_routers)

    @property
    def fault_set(self) -> FaultSet:
        """The candidate's fault set (empty for healthy candidates)."""
        return FaultSet(
            failed_links=self.failed_links, failed_routers=self.failed_routers
        )

    @property
    def label(self) -> str:
        """Human-readable candidate label for progress reporting."""
        faults = self.fault_set
        suffix = "" if faults.is_empty else f" !{faults.label}"
        if self.workload is not None:
            return (
                f"{self.kind}-{self.num_chiplets} "
                f"@{self.injection_rate:g} [{self.workload}/{self.effective_mapper}]"
                f"{suffix}"
            )
        return (
            f"{self.kind}-{self.num_chiplets} "
            f"@{self.injection_rate:g} [{self.traffic}]{suffix}"
        )

    @property
    def effective_mapper(self) -> str:
        """The mapper a workload candidate runs with (default: partition)."""
        return self.mapper if self.mapper is not None else "partition"

    def key_dict(self) -> dict[str, Any]:
        """Canonical JSON-able identity used for seeding and cache keys.

        Workload fields join the identity only when a workload is set, so
        the keys (and hence the derived seeds and cache entries) of plain
        synthetic-traffic candidates are unchanged from earlier versions.
        """
        key = {
            "kind": self.kind,
            "num_chiplets": self.num_chiplets,
            "injection_rate": repr(self.injection_rate),
            "traffic": self.traffic,
            "regularity": self.regularity,
            "graph_edges": [list(edge) for edge in self.graph_edges]
            if self.graph_edges is not None
            else None,
        }
        if self.workload is not None:
            key["workload"] = self.workload
            key["workload_params"] = (
                [[name, value] for name, value in self.workload_params]
                if self.workload_params is not None
                else None
            )
            key["mapper"] = self.effective_mapper
        if self.failed_links or self.failed_routers:
            # Fault fields join the identity only when present, keeping
            # the keys (and hence seeds / cache entries) of healthy
            # candidates unchanged from earlier versions.
            key.update(self.fault_set.key_dict())
        return key

    @classmethod
    def from_key_dict(cls, data: dict[str, Any]) -> SweepCandidate:
        """Rebuild the candidate a :meth:`key_dict` describes.

        Accepts the JSON round trip of a ``key_dict`` (lists for tuples),
        which is what a store entry carries; the rebuilt candidate's own
        ``key_dict()`` (and hence its derived seed and cache key) equals
        the input exactly.
        """
        kwargs: dict[str, Any] = {
            "kind": data["kind"],
            "num_chiplets": data["num_chiplets"],
            # key_dict stores repr(rate); float(repr(x)) round-trips exactly.
            "injection_rate": float(data["injection_rate"]),
            "traffic": data.get("traffic", "uniform"),
            "regularity": data.get("regularity"),
        }
        edges = data.get("graph_edges")
        if edges is not None:
            kwargs["graph_edges"] = tuple(tuple(edge) for edge in edges)
        if data.get("workload") is not None:
            kwargs["workload"] = data["workload"]
            params = data.get("workload_params")
            if params is not None:
                kwargs["workload_params"] = tuple((name, value) for name, value in params)
            kwargs["mapper"] = data.get("mapper")
        kwargs["failed_links"] = tuple(tuple(link) for link in data.get("failed_links", ()))
        kwargs["failed_routers"] = tuple(data.get("failed_routers", ()))
        return cls(**kwargs)

    def batch_key(self) -> str:
        """Canonical identity of everything the candidate *shares* in a batch.

        Two candidates with equal batch keys differ at most in their
        injection rate, so one batched run can evaluate both over a single
        topology / routing-table / trace build
        (:meth:`repro.noc.simulator.NocSimulator.run_batch`).  Seeds stay
        per-(candidate, point): :func:`derive_candidate_seed` hashes the
        *full* identity including the rate, so batching can never change a
        point's RNG stream or outcome.
        """
        key = self.key_dict()
        del key["injection_rate"]
        return json.dumps(key, sort_keys=True)

    def build_graph(self) -> ChipGraph:
        """Materialise the candidate's topology graph (degraded if faulted).

        Raises :class:`repro.noc.faults.FaultedTopologyError` (annotated
        with the candidate label) when the fault set would disconnect the
        topology or isolate an endpoint's router — callers fail fast
        instead of simulating an unusable network.
        """
        if self.graph_edges is not None:
            base = ChipGraph(nodes=range(self.num_chiplets), edges=self.graph_edges)
        else:
            base = make_arrangement(self.kind, self.num_chiplets, self.regularity).graph
        faults = self.fault_set
        if faults.is_empty:
            return base
        try:
            return faults.apply(base).graph
        except FaultedTopologyError as error:
            raise FaultedTopologyError(f"candidate {self.label!r}: {error}") from error


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated candidate: the candidate, its seed and its result.

    ``wall_time_s`` is the simulation wall time of a freshly computed
    record (``None`` for cache hits) and, like ``from_cache``, is
    excluded from equality — records stay interchangeable between
    runners, job counts and cache states.
    """

    candidate: SweepCandidate
    seed: int
    result: SimulationResult
    from_cache: bool = field(default=False, compare=False)
    wall_time_s: float | None = field(default=None, compare=False)


def _store_key(candidate: SweepCandidate, config_identity: dict[str, Any]) -> str:
    """The result-store key of ``candidate`` under one config identity dict."""
    return result_key(candidate.key_dict(), config_identity)


def derive_candidate_seed(base_seed: int, candidate: SweepCandidate) -> int:
    """Deterministic per-candidate seed.

    Mixing a SHA-256 digest of the candidate identity into the base seed
    decorrelates the RNG streams of neighbouring grid points while staying
    reproducible across processes and machines (``PYTHONHASHSEED`` does
    not affect it).
    """
    key = json.dumps(candidate.key_dict(), sort_keys=True).encode("utf-8")
    # Seed 0 is fine for random.Random but mix_seed keeps seeds strictly
    # positive so the per-endpoint derivation in Network never collapses
    # to 0.
    return mix_seed(base_seed, key)


# ---------------------------------------------------------------------------
# Result (de)serialisation for the on-disk cache
# ---------------------------------------------------------------------------


def simulation_result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Convert a :class:`SimulationResult` into a JSON-serialisable dict."""
    return {
        "injection_rate": result.injection_rate,
        "packet_latency": asdict(result.packet_latency),
        "network_latency": asdict(result.network_latency),
        "throughput": asdict(result.throughput),
        "average_hops": result.average_hops,
        "cycles_simulated": result.cycles_simulated,
        "num_routers": result.num_routers,
        "num_endpoints": result.num_endpoints,
        "measured_packets_created": result.measured_packets_created,
        "measured_packets_ejected": result.measured_packets_ejected,
    }


def simulation_result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from its dictionary form."""
    return SimulationResult(
        injection_rate=data["injection_rate"],
        packet_latency=LatencyStatistics(**data["packet_latency"]),
        network_latency=LatencyStatistics(**data["network_latency"]),
        throughput=ThroughputStatistics(**data["throughput"]),
        average_hops=data["average_hops"],
        cycles_simulated=data["cycles_simulated"],
        num_routers=data["num_routers"],
        num_endpoints=data["num_endpoints"],
        measured_packets_created=data["measured_packets_created"],
        measured_packets_ejected=data["measured_packets_ejected"],
    )


# ---------------------------------------------------------------------------
# Worker entry point
# ---------------------------------------------------------------------------


def resolve_workload_candidate(candidate: SweepCandidate, config: SimulationConfig):
    """Materialise the trace-driven setup of a workload candidate.

    Returns ``(graph, workload, mapping, traffic)``; deterministic for a
    given candidate identity, so workers and the coordinating process
    always agree on the trace.  Raises :class:`ValueError` for candidates
    without a workload.
    """
    if candidate.workload is None:
        raise ValueError(f"candidate {candidate.label!r} has no workload")
    graph = candidate.build_graph()
    params = dict(candidate.workload_params or ())
    workload = make_workload(candidate.workload, **params)
    mapping = map_workload(candidate.effective_mapper, workload, graph)
    traffic = trace_traffic_for(
        workload, mapping, endpoints_per_chiplet=config.endpoints_per_chiplet
    )
    return graph, workload, mapping, traffic


#: One simulated point of a work item: ``(candidate_index, result,
#: wall_time_s, engine_that_ran)``.
_PointOutput = tuple[int, SimulationResult, float, str]


def _evaluate_work_item(
    item: tuple[list[tuple[int, SweepCandidate, int]], SimulationConfig, str],
    on_result: Callable[[_PointOutput], None] | None = None,
) -> list[_PointOutput]:
    """Simulate one work item of same-structure candidates (any size, >= 1).

    ``item`` carries ``(entries, base_config, engine)`` where every entry
    is ``(candidate_index, candidate, seed)`` and all candidates share a
    :meth:`SweepCandidate.batch_key`.  The item builds the (degraded)
    topology, the routing tables and — for workload candidates — the
    trace exactly once and evaluates every injection-rate point through
    :meth:`NocSimulator.run_batch`, which is bit-identical to per-point
    evaluation under the per-(candidate, point) seeds.  A one-point item
    costs the same as a per-point :meth:`NocSimulator.run`.

    Each returned tuple carries the point's wall time (the first point of
    an item honestly includes the shared build it triggered) and the
    engine that *actually* ran — every request resolves to ``legacy``
    under a staged router pipeline, and manifests must record the truth.
    ``on_result``, when given, receives each tuple as soon as its point
    finishes, before the next point starts.
    """
    entries, config, engine = item
    effective_engine = NocSimulator.resolve_engine(engine, config)
    start = perf_counter()
    first = entries[0][1]
    if first.workload is not None:
        graph, _, _, traffic = resolve_workload_candidate(first, config)
    else:
        graph = first.build_graph()
        traffic = first.traffic
    points = [
        BatchPoint(candidate.injection_rate, seed=seed)
        for _, candidate, seed in entries
    ]
    outputs: list[_PointOutput] = []

    def _mark(index: int, _network, result: SimulationResult) -> None:
        nonlocal start
        now = perf_counter()
        output = (entries[index][0], result, now - start, effective_engine)
        start = now
        outputs.append(output)
        if on_result is not None:
            on_result(output)

    NocSimulator.run_batch(
        graph, points, config=config, traffic=traffic, engine=engine,
        on_point=_mark,
    )
    return outputs


# ---------------------------------------------------------------------------
# Cross-job in-flight deduplication
# ---------------------------------------------------------------------------


class _InFlightEntry:
    """One in-flight computation a follower can wait on."""

    __slots__ = ("event", "record")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.record: SweepRecord | None = None


class InFlightRegistry:
    """Single-flight registry deduplicating concurrent identical candidates.

    Concurrent sweeps (e.g. jobs of the exploration service sharing one
    process) frequently overlap: two jobs submitted at the same moment may
    both miss the store on the same ``result_key`` and simulate it twice.
    Runners handed a shared registry *claim* each store key before
    dispatching it; the first claimant becomes the **owner** and simulates
    as usual, every later claimant becomes a **follower** that waits for
    the owner's published record instead of simulating — one simulation,
    many subscribers.

    The registry is in-process (``threading``-based): it complements the
    cross-process safety of :class:`repro.store.ResultStore` (atomic
    publication, last-writer-wins) rather than replacing it.  Owners that
    fail or are cancelled release their claims, waking followers with no
    record; followers then fall back to the store (the owner may have
    published before dying) or simulate locally, so a crashed owner can
    never strand its subscribers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _InFlightEntry] = {}

    def claim(self, key: str) -> _InFlightEntry | None:
        """Claim ``key`` for computation.

        Returns ``None`` when the caller is now the owner (and must later
        :meth:`publish` or :meth:`release` the key), or the existing
        entry to wait on when another runner already owns it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = _InFlightEntry()
                return None
            return entry

    def publish(self, key: str, record: SweepRecord | None) -> None:
        """Fulfil ``key``: hand ``record`` to every waiting follower.

        Publishing ``None`` releases the claim without a result (owner
        failed); followers recover via the store or local evaluation.
        Unclaimed keys are ignored, so double publication is harmless.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is not None:
            entry.record = record
            entry.event.set()

    def release(self, keys: Iterable[str]) -> None:
        """Release unfulfilled claims (owner failed or was cancelled)."""
        for key in keys:
            self.publish(key, None)

    def in_flight(self) -> int:
        """Number of keys currently claimed (diagnostics only)."""
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class ParallelSweepRunner:
    """Fan a grid of simulation candidates across worker processes.

    Candidates that differ only in their injection rate (equal
    :meth:`SweepCandidate.batch_key`) are always evaluated together,
    over one shared topology / routing-table / trace / flat-state build
    (:meth:`NocSimulator.run_batch`); see :meth:`_dispatch`.  Records,
    seeds and cache entries do not depend on that grouping, nor on
    ``jobs`` or the engine.

    Parameters
    ----------
    config:
        Base simulation configuration shared by every candidate (phase
        lengths, VC counts, ...).  Each candidate runs with this
        configuration and its own derived seed.
    jobs:
        Number of worker processes; ``1`` evaluates inline (identical
        results, no multiprocessing).
    cache_dir:
        Optional persistent result store (:class:`repro.store.ResultStore`):
        its root directory, opened lazily on first use, or an open
        handle, used as is (a :class:`~repro.service.jobs.JobManager`
        shares one handle across its jobs).  Entries are
        content-addressed by a SHA-256 hash of the candidate +
        configuration, so re-running an overlapping grid only simulates
        the new points — across runs, job counts, runners and concurrent
        processes sharing the directory.  Legacy flat cache directories
        are migrated in place the first time a store opens them.
    engine:
        Cycle-loop engine passed to :meth:`NocSimulator.run_batch`.
    derive_seeds:
        When ``True`` (default) every candidate gets a seed derived from
        ``config.seed`` and its identity via
        :func:`derive_candidate_seed`; when ``False`` all candidates use
        ``config.seed`` unchanged (used by the figure sweeps, which run
        every point with the base seed).
    in_flight:
        Optional shared :class:`InFlightRegistry`.  When several runners
        in one process (e.g. concurrent service jobs) share a registry,
        overlapping cache misses are simulated exactly once — the first
        runner to claim a store key owns the simulation, the others wait
        for its record.  Requires ``cache_dir`` (claims are keyed by the
        store key); ignored for uncached runners.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike[str] | ResultStore | None = None,
        engine: str = DEFAULT_ENGINE,
        derive_seeds: bool = True,
        in_flight: InFlightRegistry | None = None,
    ) -> None:
        check_positive_int("jobs", jobs)
        check_in_choices("engine", engine, ENGINE_NAMES)
        self._config = config if config is not None else SimulationConfig()
        self._jobs = jobs
        self._store: ResultStore | None = None
        if isinstance(cache_dir, ResultStore):
            self._store, cache_dir = cache_dir, cache_dir.root
        self._cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._engine = engine
        self._derive_seeds = derive_seeds
        self._in_flight = in_flight

    @property
    def jobs(self) -> int:
        """Configured number of worker processes."""
        return self._jobs

    @property
    def config(self) -> SimulationConfig:
        """Base simulation configuration."""
        return self._config

    @property
    def store(self) -> ResultStore | None:
        """The persistent result store backing this runner, or ``None``.

        A handle passed as ``cache_dir`` is returned as is.  A path is
        opened lazily on first use, so constructing a runner never
        touches the filesystem; opening validates/migrates the on-disk
        schema and sweeps orphaned temp files of dead writers.
        """
        if self._cache_dir is None:
            return None
        if self._store is None:
            self._store = ResultStore(self._cache_dir)
        return self._store

    # -- grid construction ---------------------------------------------------

    @staticmethod
    def grid(
        kinds: Sequence[str],
        chiplet_counts: Iterable[int],
        injection_rates: Iterable[float],
        traffics: Sequence[str] = ("uniform",),
        *,
        regularity: str | None = None,
    ) -> list[SweepCandidate]:
        """The full cartesian candidate grid, in deterministic order.

        ``regularity`` requests one regularity class for every
        arrangement (``None`` keeps the per-count best available class,
        and the candidates' cache keys unchanged).
        """
        return [
            SweepCandidate(
                kind=kind,
                num_chiplets=count,
                injection_rate=rate,
                traffic=traffic,
                regularity=regularity,
            )
            for count in chiplet_counts
            for kind in kinds
            for rate in injection_rates
            for traffic in traffics
        ]

    @staticmethod
    def workload_grid(
        kinds: Sequence[str],
        chiplet_counts: Iterable[int],
        workloads: Sequence[str],
        mappers: Sequence[str] = ("partition",),
        *,
        injection_rates: Iterable[float] = (0.1,),
        num_tasks: int | None = None,
        regularity: str | None = None,
    ) -> list[SweepCandidate]:
        """The trace-driven candidate grid: (arrangement x count x workload x mapper).

        ``num_tasks`` sizes every workload through
        :func:`repro.workloads.effective_num_tasks`: ``None`` scales each
        workload with its candidate's chiplet count (about one task per
        chiplet), while an explicit value below a generator's minimum
        fails fast at grid construction.  ``regularity`` requests one
        regularity class for every arrangement (``None`` keeps the best
        available class per count).
        """
        return [
            SweepCandidate(
                kind=kind,
                num_chiplets=count,
                injection_rate=rate,
                workload=workload,
                workload_params=(
                    ("num_tasks", effective_num_tasks(workload, num_tasks, count)),
                ),
                mapper=mapper,
                regularity=regularity,
            )
            for count in chiplet_counts
            for kind in kinds
            for workload in workloads
            for mapper in mappers
            for rate in injection_rates
        ]

    # -- cache ---------------------------------------------------------------

    def cache_key(self, candidate: SweepCandidate, config: SimulationConfig) -> str:
        """Stable hash identifying one (candidate, configuration) result.

        Delegates to :func:`repro.store.result_key`, which preserves the
        exact key computation of the earlier flat cache — previously
        computed results keep their addresses across the store migration.
        The config enters through
        :func:`repro.noc.config.config_identity_dict`, which omits
        ``router_pipeline`` at its single-stage default for the same
        reason: keys minted before the knob existed stay valid, staged
        runs key distinctly.
        """
        return _store_key(candidate, config_identity_dict(config))

    def _cache_load(self, key: str) -> SimulationResult | None:
        store = self.store
        if store is None:
            return None
        entry = store.load(key)
        if entry is None:
            return None
        try:
            return simulation_result_from_dict(entry.result)
        except (ValueError, KeyError, TypeError):
            # A structurally valid entry whose result payload does not
            # rebuild (e.g. written by a different result layout):
            # recompute and overwrite.
            return None

    def _cache_store(
        self,
        key: str,
        candidate: SweepCandidate,
        result: SimulationResult,
        *,
        seed: int | None = None,
        wall_time_s: float | None = None,
        engine: str | None = None,
    ) -> None:
        """Publish one fresh result into the store, provenance embedded.

        The manifest (git revision, library versions, engine, derived
        seed, configuration, wall time) travels inside the entry — the
        store is self-describing, which is what lets ``hexamesh store
        verify`` replay any entry bit-for-bit later.  ``engine`` is the
        engine that *actually* ran (reported by the worker); it differs
        from the runner's requested engine when a staged router pipeline
        resolves the request to ``legacy``, and the manifest records the
        truth as provenance.
        """
        store = self.store
        if store is None or key is None:
            return
        from repro.telemetry.provenance import build_manifest

        # The manifest embeds the *identity* rendering of the config (the
        # exact dict the cache key hashes), so `hexamesh store verify`
        # can re-derive the entry key from the manifest bit-for-bit;
        # SimulationConfig(**manifest_config) still reconstructs exactly
        # (omitted-at-default fields come back as their defaults).
        manifest = build_manifest(
            config=config_identity_dict(
                replace(self._config, seed=seed) if seed is not None else self._config
            ),
            engine=engine if engine is not None else self._engine,
            seed=seed,
            wall_time_s=wall_time_s,
            extra={"candidate": candidate.key_dict(), "cache_key": key},
        )
        store.store(
            key,
            candidate=candidate.key_dict(),
            result=simulation_result_to_dict(result),
            manifest=manifest,
        )

    # -- running -------------------------------------------------------------

    def candidate_seed(self, candidate: SweepCandidate) -> int:
        """The seed this runner assigns to ``candidate``."""
        if self._derive_seeds:
            return derive_candidate_seed(self._config.seed, candidate)
        return self._config.seed

    def run(
        self,
        candidates: Iterable[SweepCandidate],
        *,
        progress: ProgressCallback | None = None,
    ) -> list[SweepRecord]:
        """Evaluate every candidate and return records in candidate order.

        Cache hits and in-flight followers are resolved here; the cache
        misses go to :meth:`_dispatch`, which groups them into work items
        of shared structure.
        """
        ordered = list(candidates)
        total = len(ordered)
        records: list[SweepRecord | None] = [None] * total
        completed = 0

        def _finish(index: int, record: SweepRecord) -> None:
            nonlocal completed
            records[index] = record
            completed += 1
            if progress is not None:
                progress(completed, total, record)

        caching = self._cache_dir is not None
        in_flight = self._in_flight if caching else None
        # The candidates differ from the base config only in their seed:
        # render its identity once and key each candidate with its seed
        # swapped in (``result_key`` sorts keys, so the hash is the one
        # :meth:`cache_key` computes for ``replace(config, seed=seed)``).
        identity = config_identity_dict(self._config) if caching else {}
        pending: dict[int, tuple[SweepCandidate, int, str | None]] = {}
        followed: list[tuple[int, SweepCandidate, int, str, _InFlightEntry]] = []
        owned_keys: set[str] = set()
        for index, candidate in enumerate(ordered):
            seed = self.candidate_seed(candidate)
            key = _store_key(candidate, {**identity, "seed": seed}) if caching else None
            cached = self._cache_load(key) if caching else None
            if cached is not None:
                _finish(index, SweepRecord(candidate, seed, cached, from_cache=True))
                continue
            if in_flight is not None and key is not None and key not in owned_keys:
                entry = in_flight.claim(key)
                if entry is not None:
                    # Another runner in this process is already simulating
                    # this exact (candidate, config): subscribe to its
                    # result instead of duplicating the work.
                    followed.append((index, candidate, seed, key, entry))
                    continue
                owned_keys.add(key)
            pending[index] = (candidate, seed, key)

        published: set[str] = set()

        def _finish_owned(index: int, record: SweepRecord) -> None:
            key = pending[index][2]
            if in_flight is not None and key is not None and key in owned_keys:
                published.add(key)
                in_flight.publish(key, record)
            _finish(index, record)

        try:
            if pending:
                self._dispatch(pending, _finish_owned)
        finally:
            # Wake followers of any claim we failed to fulfil (dispatch
            # raised, e.g. a cancelled job) so they can recover instead of
            # waiting forever.
            if in_flight is not None:
                in_flight.release(owned_keys - published)

        for index, candidate, seed, key, entry in followed:
            entry.event.wait()
            record = entry.record
            if record is not None:
                _finish(index, SweepRecord(candidate, seed, record.result,
                                           from_cache=True))
                continue
            # The owner released without publishing (failed or cancelled).
            # It may still have stored some results before dying; fall
            # back to the store, then to evaluating locally.
            cached = self._cache_load(key)
            if cached is not None:
                _finish(index, SweepRecord(candidate, seed, cached, from_cache=True))
                continue
            ((_, result, wall, effective),) = _evaluate_work_item(
                ([(index, candidate, seed)], self._config, self._engine)
            )
            self._cache_store(
                key, candidate, result, seed=seed, wall_time_s=wall, engine=effective
            )
            _finish(index, SweepRecord(candidate, seed, result, wall_time_s=wall))

        missing = [index for index, record in enumerate(records) if record is None]
        if missing:  # pragma: no cover - defensive; parallel_map is exhaustive
            raise RuntimeError(f"sweep lost results for candidate indices {missing}")
        return list(records)  # type: ignore[arg-type]

    def _dispatch(
        self,
        pending: dict[int, tuple[SweepCandidate, int, str | None]],
        finish: Callable[[int, SweepRecord], None],
    ) -> None:
        """Simulate the cache misses; call ``finish`` per completed record.

        ``pending`` maps candidate index to ``(candidate, seed, cache
        key)``.  Misses that differ at most in their injection rate (equal
        :meth:`SweepCandidate.batch_key`: same arrangement, traffic or
        workload, and fault set) are grouped, keeping first-appearance
        order of groups and candidate order within, so each group shares
        one topology / routing-table / trace / flat-state build.  With
        ``jobs > 1`` a group larger than its fair share — about two work
        items per worker, the load-balancing slack of
        :func:`default_chunk_size` — is split into consecutive sub-batches,
        so a single-structure sweep (one arrangement, many rates) still
        keeps every worker busy.  Grouping is an amortisation only: seeds
        are per candidate, so records never depend on it.
        """
        groups: dict[str, list[tuple[int, SweepCandidate, int]]] = {}
        for index, (candidate, seed, _) in pending.items():
            group = groups.setdefault(candidate.batch_key(), [])
            group.append((index, candidate, seed))
        if self._jobs > 1:
            max_batch = -(-len(pending) // (self._jobs * 2))
        else:
            max_batch = len(pending)
        items = [
            (entries[start : start + max_batch], self._config, self._engine)
            for entries in groups.values()
            for start in range(0, len(entries), max_batch)
        ]

        def _record(value: _PointOutput) -> tuple[int, SweepRecord]:
            index, result, wall, engine = value
            candidate, seed, key = pending[index]
            self._cache_store(
                key, candidate, result, seed=seed, wall_time_s=wall, engine=engine
            )
            return index, SweepRecord(candidate, seed, result, wall_time_s=wall)

        if is_inline(self._jobs, len(items)):
            # Store and report every point the moment it finishes: a
            # progress callback that raises (a cancelled job) then stops
            # the sweep between points and loses nothing simulated.
            for item in items:
                _evaluate_work_item(
                    item, on_result=lambda value: finish(*_record(value))
                )
            return

        def _on_complete(_done: int, _total: int, value: Any) -> None:
            # Store the whole item before reporting any of it, for the
            # same reason.
            for index, record in [_record(output) for output in value]:
                finish(index, record)

        # Work items are the dispatch unit (chunk_size=1): their size is
        # already set by the grouping above.
        parallel_map(
            _evaluate_work_item,
            items,
            jobs=self._jobs,
            chunk_size=1,
            progress=_on_complete,
        )
