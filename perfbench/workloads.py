"""The benchmark's three workloads.

Each workload object has the same life cycle: ``setup()`` (imports, store
creation, server start, input generation: everything ``setup_s``
covers), then per round ``prepare_round(index)`` (untimed) and
``run_round(index)`` (one timed round of identical operations), then
``check()`` (output checks, untimed) and ``close()``.  ``run_round``
returns ``(attempted, failed, candidates)`` for the round and appends the
client-observed latency of each job it ran to ``latencies``: a service
job is one submitted spec, a ``fig7-sim`` job the round's one
``run_figure7`` request and a ``fig7-analytical`` job one ``run_figure7``
request for one (kind, count) design.
"""

from __future__ import annotations

import os
import random
import shutil
import time

#: Arrangement families of Figure 7, in the order each round requests them.
FIGURE7_KINDS = ("grid", "brickwall", "hexamesh")

#: fig7-sim chiplet counts, two of the simulated Figure 7 points the
#: repository documents: an even-side square (the regular 4x4 grid) and a
#: centred hexagonal number (the regular 37-chiplet HexaMesh).  At both,
#: the simulated HexaMesh beats the grid on latency and saturation.
SIM_COUNTS = (16, 37)

#: fig7-analytical counts: a contiguous slice of the paper's 2-100 range
#: that holds even-side squares (16, 36), centred hexagonal numbers
#: (19, 37) and odd squares (25, 49).
ANALYTICAL_COUNTS = tuple(range(16, 53))

#: service-mixed job mix of one round: three cold jobs (fresh seeds, so
#: every candidate is simulated) and ten warm jobs, each re-requesting
#: the cold job of its type of the same round (pure store hits).  The
#: 77 % warm share puts p50 among the warm jobs and p90 among the cold
#: sweep and resilience jobs.  Nine of the ten warm jobs are sweeps, so
#: p50 lies inside one band (a warm resilience job also re-samples its
#: faults and takes about 50 % longer).  No warm job is a workload job: a
#: workload job re-runs the partition mapper to render its rows, which
#: would make p50 measure mapping rather than the service path.
SERVICE_COLD_TYPES = ("sweep", "resilience", "workload")
SERVICE_WARM_TYPES = ("sweep",) * 9 + ("resilience",)
SERVICE_CYCLES = 300


def _service_spec(job_type: str, seed: int, cycles: int) -> dict:
    """A cold job of ``job_type``.  Cold sweep and resilience jobs cost about
    the same and a cold workload job less, so p90 (60 % of the way up the
    cold jobs' ranks) falls inside the band of the first two."""
    if job_type == "sweep":
        return {"type": "sweep", "kinds": ["grid", "hexamesh"], "chiplets": [9],
                "rates": [0.05, 0.2], "cycles": cycles, "seed": seed}
    if job_type == "resilience":
        return {"type": "resilience", "kinds": ["grid", "hexamesh"], "chiplets": 9,
                "failures": [0, 1], "samples": 1, "cycles": cycles, "seed": seed}
    return {"type": "workload", "workloads": ["dnn-pipeline"],
            "arrangements": ["grid", "hexamesh"], "chiplets": [9],
            "cycles": cycles, "seed": seed}


def distinct_candidates(spec: dict) -> int:
    """Candidates of one cold job, counted from its spec alone.

    Resilience jobs draw one fault set per non-zero failure count
    (``samples == 1``), so each failure count adds one candidate per kind.
    """
    if spec["type"] == "sweep":
        return len(spec["kinds"]) * len(spec["chiplets"]) * len(spec["rates"])
    if spec["type"] == "resilience":
        return len(spec["kinds"]) * len(spec["failures"])
    return len(spec["arrangements"]) * len(spec["chiplets"]) * len(spec["workloads"])


class Fig7Sim:
    """Cold cycle-accurate Figure 7 points, each round into an empty store."""

    name = "fig7-sim"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.counts = SIM_COUNTS
        self.latencies: list[float] = []
        self.rounds: list[tuple] = []

    def setup(self) -> None:
        from repro.evaluation import performance
        from repro.noc.config import SimulationConfig

        self._performance = performance
        self.config = SimulationConfig(seed=random.Random(self.seed).randrange(1, 2**31))

    def prepare_round(self, index: int) -> None:
        pass

    def run_round(self, index: int) -> tuple[int, int, int]:
        store_dir = os.path.join(self.workdir, f"store-{index}")
        start = time.perf_counter()
        result = self._performance.run_figure7(
            self.counts, kinds=FIGURE7_KINDS, mode="simulation", batch=True,
            noc_engine="vectorized", cache_dir=store_dir, simulation_config=self.config,
        )
        self.latencies.append(time.perf_counter() - start)
        points = list(result.points)
        self.rounds.append((points, store_dir))
        return 2 * len(points), 0, 2 * len(points)

    def check(self) -> list[str]:
        from checks import check_fig7_sim
        from repro.core.parallel import simulation_result_from_dict
        from repro.store import ResultStore

        config = _evaluation_config()
        topology = sim_topology(self.counts)
        errors = []
        for points, store_dir in self.rounds:
            sims = {}
            for entry in ResultStore(store_dir).iter_entries():
                candidate = entry.candidate
                key = (candidate["kind"], candidate["num_chiplets"],
                       float(candidate["injection_rate"]))
                sims[key] = simulation_result_from_dict(entry.result)
            errors.extend(check_fig7_sim(points, sims, config=config, topology=topology))
        return errors

    def close(self) -> None:
        pass


class Fig7Analytical:
    """Analytical Figure 7 over :data:`ANALYTICAL_COUNTS`.

    The slice is fixed: the seed selects nothing here, because every
    analytical point is deterministic and any other slice would change
    the amount of work per round.
    """

    name = "fig7-analytical"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.counts = ANALYTICAL_COUNTS
        self.latencies: list[float] = []
        self.results: list = []

    def setup(self) -> None:
        from repro.evaluation import performance

        self._performance = performance

    def prepare_round(self, index: int) -> None:
        pass

    def run_round(self, index: int) -> tuple[int, int, int]:
        points = []
        for count in self.counts:
            for kind in FIGURE7_KINDS:
                start = time.perf_counter()
                result = self._performance.run_figure7((count,), kinds=(kind,),
                                                       mode="analytical")
                self.latencies.append(time.perf_counter() - start)
                points.extend(result.points)
        self.results.append(points)
        return len(points), 0, len(points)

    def check(self) -> list[str]:
        from checks import all_pairs_hops, check_fig7_analytical
        from repro.arrangements.factory import make_arrangement

        config = _evaluation_config()
        hops = {}
        for point in self.results[0]:
            key = (point.kind.value, point.num_chiplets)
            graph = make_arrangement(*key).graph
            hops[key] = all_pairs_hops(point.num_chiplets, graph.edges())
        errors = check_fig7_analytical(self.results[0], config=config, hops_by_design=hops)
        if any(points != self.results[0] for points in self.results[1:]):
            errors.append("analytical Figure 7 differs between rounds")
        return errors

    def close(self) -> None:
        pass


class ServiceMixed:
    """One closed-loop client driving an in-process service over its socket."""

    name = "service-mixed"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cycles = SERVICE_CYCLES
        self.jobs: list[dict] = []
        self.latencies: list[float] = []
        self.server = None
        self.tracer = None

    def setup(self) -> None:
        from repro.service import JobManager, ServiceClient, ServiceServer

        # A socket path relative to the work directory stays short however
        # deep the checkout lies (Unix socket paths are limited to 107 bytes).
        os.chdir(self.workdir)
        self.store_dir = "store"
        self.manager = JobManager(cache_dir=self.store_dir)
        self.server = ServiceServer(self.manager, "svc.sock")
        self.server.start()
        self.client = ServiceClient("svc.sock")
        self.client.call({"op": "ping"})
        self._rng = random.Random(self.seed)
        self._next_seed = self._rng.randrange(1, 2**30)

    def prepare_round(self, index: int) -> None:
        """Empty the store, so every round runs against a store of the same
        size: a store open lists every shard, so a growing store would make
        later rounds slower than earlier ones.  No job is running here."""
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _round_specs(self) -> list[tuple[dict, int | None]]:
        """The next round's ``(spec, source cold job index)`` pairs, in order."""
        planned = []
        cold_index = {}
        for job_type in SERVICE_COLD_TYPES:
            cold_index[job_type] = len(self.jobs) + len(planned)
            planned.append((_service_spec(job_type, self._next_seed, self.cycles), None))
            self._next_seed += 1
        warm = list(SERVICE_WARM_TYPES)
        self._rng.shuffle(warm)
        for job_type in warm:
            source = cold_index[job_type]
            planned.append((planned[source - len(self.jobs)][0], source))
        return planned

    def run_round(self, index: int) -> tuple[int, int, int]:
        failed = candidates = 0
        for spec, source in self._round_specs():
            if self.tracer is not None:
                self.tracer.op = len(self.jobs)
            start = time.perf_counter()
            final = None
            for final in self.client.request({"op": "submit", "spec": spec,
                                              "watch": True}):
                pass
            latency = time.perf_counter() - start
            self.jobs.append({"spec": spec, "source": source, "final": final,
                              "latency": latency})
            self.latencies.append(latency)
            if final is None or not final.get("ok"):
                failed += 1
            else:
                candidates += final["result"]["cache"]["candidates"]
        return len(SERVICE_COLD_TYPES) + len(SERVICE_WARM_TYPES), failed, candidates

    def check(self) -> list[str]:
        from checks import check_service

        cold = sum(distinct_candidates(job["spec"]) for job in self.jobs
                   if job["source"] is None)
        return check_service(self.jobs, distinct_candidates=cold)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.manager.shutdown(wait=True)
            self.server = None


def sim_topology(counts) -> dict:
    """``(kind, count) -> (all-pairs hop table, balanced bisection cut)``
    for every simulated Figure 7 design, computed by the benchmark itself."""
    from checks import all_pairs_hops, balanced_bisection_cut
    from repro.arrangements.factory import make_arrangement

    topology = {}
    for kind in FIGURE7_KINDS:
        for count in counts:
            arrangement = make_arrangement(kind, count)
            edges = list(arrangement.graph.edges())
            centres = [(arrangement.placement[node].center.x,
                        arrangement.placement[node].center.y) for node in range(count)]
            topology[(kind, count)] = (all_pairs_hops(count, edges),
                                       balanced_bisection_cut(edges, centres))
    return topology


def _evaluation_config():
    """The simulator configuration Figure 7 derives from the paper's parameters."""
    from repro.linkmodel.parameters import EvaluationParameters
    from repro.noc.config import SimulationConfig

    parameters = EvaluationParameters()
    return SimulationConfig(
        endpoints_per_chiplet=parameters.endpoints_per_chiplet,
        num_virtual_channels=parameters.num_virtual_channels,
        buffer_depth_flits=parameters.buffer_depth_flits,
        router_latency_cycles=parameters.router_latency_cycles,
        link_latency_cycles=parameters.link_latency_cycles,
    )


WORKLOADS = {cls.name: cls for cls in (Fig7Sim, Fig7Analytical, ServiceMixed)}
