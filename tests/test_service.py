"""The exploration service core: specs, in-flight dedup, job lifecycle.

The three acceptance properties of exploration-as-a-service live here:
a warm resubmission returns the full result with *zero* simulator
invocations, two concurrent jobs sharing candidates trigger exactly one
simulation per unique ``result_key``, and an interrupted job resumes as
pure store hits up to the cut.  Progress streams are additionally pinned
monotone in ``done`` and terminated by a ``finished`` snapshot.
"""

from __future__ import annotations

import shutil
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.parallel as parallel_module
from repro.core.parallel import InFlightRegistry, ParallelSweepRunner
from repro.core.verify import verify_store
from repro.service import JobManager, job_spec
from repro.service.specs import phase_config
from repro.service.tables import render_csv, sweep_rows
from repro.store import ResultStore

#: Single-value spec fields per job type (null is not allowed in any of them).
SCALAR_FIELDS = {
    "sweep": ("cycles", "seed", "engine", "jobs"),
    "workload": ("cycles", "seed", "engine", "jobs", "injection_rate"),
    "resilience": (
        "cycles", "seed", "engine", "jobs", "chiplets", "fault_type", "samples",
        "injection_rate", "traffic",
    ),
    "figure7": ("engine", "jobs", "max_chiplets", "mode"),
}

#: Optional single-value fields: null means "unset", a list or object is an error.
OPTIONAL_SCALAR_FIELDS = {
    "sweep": ("regularity",),
    "workload": ("tasks", "regularity"),
    "resilience": ("regularity",),
}

#: cycles=80 scales to the FAST_CONFIG-sized phases the other suites use.
SWEEP_SPEC = {
    "type": "sweep",
    "kinds": ["grid", "hexamesh"],
    "chiplets": [7],
    "rates": [0.05, 0.3],
    "cycles": 80,
}


def _forbid_simulation(monkeypatch):
    """Make any simulator invocation fail the test loudly."""

    def boom(*_args, **_kwargs):  # pragma: no cover - the assertion itself
        raise AssertionError("a warm run must not invoke the simulator")

    monkeypatch.setattr(parallel_module, "_evaluate_work_item", boom)


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(cache_dir=str(tmp_path / "store"), workers=2)
    yield mgr
    mgr.shutdown(wait=False, cancel_pending=True)


class TestJobSpec:
    def test_defaults_and_normalisation(self):
        spec = job_spec({"type": "sweep", "chiplets": 7, "rates": 0.05})
        assert spec.param("chiplets") == (7,)
        assert spec.param("rates") == (0.05,)
        assert spec.param("kinds") == ("grid", "brickwall", "hexamesh")
        assert spec.param("cycles") == 1000
        assert spec.param("jobs") == 1

    def test_equal_explorations_share_an_identity(self):
        first = job_spec({"type": "sweep", "chiplets": [7], "rates": [0.05]})
        second = job_spec({"chiplets": 7, "type": "sweep", "rates": 0.05})
        assert first == second
        assert first.canonical_json() == second.canonical_json()

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec field.*chiplet"):
            job_spec({"type": "sweep", "chiplet": [7]})

    @pytest.mark.parametrize("job_type", ["sweep", "resilience", "figure7"])
    def test_retired_batch_field_is_rejected(self, job_type):
        with pytest.raises(ValueError, match=f"unknown {job_type} spec field.*batch"):
            job_spec(dict(type=job_type, batch=True))

    def test_unknown_type_and_missing_type_are_rejected(self):
        with pytest.raises(ValueError, match="needs a 'type'"):
            job_spec({"kinds": ["grid"]})
        with pytest.raises(ValueError, match="type"):
            job_spec({"type": "figure8"})

    def test_cross_field_validation(self):
        with pytest.raises(ValueError, match="engine"):
            job_spec({"type": "sweep", "engine": "imaginary"})
        with pytest.raises(ValueError, match="kind"):
            job_spec({"type": "sweep", "kinds": ["moebius"]})

    def test_removed_active_engine_is_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            job_spec({"type": "sweep", "engine": "active"})

    @pytest.mark.parametrize(
        "job_type, field",
        [
            ("sweep", "cycles"),
            ("sweep", "seed"),
            ("sweep", "jobs"),
            ("resilience", "chiplets"),
            ("resilience", "samples"),
            ("figure7", "max_chiplets"),
            ("workload", "injection_rate"),
            ("resilience", "injection_rate"),
        ],
    )
    @pytest.mark.parametrize("value", [[7], None, {"n": 7}])
    def test_list_or_null_in_a_scalar_field_is_a_spec_error(self, job_type, field, value):
        with pytest.raises(ValueError, match=f"spec field '{field}'"):
            job_spec({"type": job_type, field: value})

    def test_optional_scalar_fields_take_null_but_not_lists(self):
        assert job_spec({"type": "workload", "tasks": None}).param("tasks") is None
        with pytest.raises(ValueError, match="spec field 'tasks'"):
            job_spec({"type": "workload", "tasks": [4]})

    @given(
        field=st.sampled_from(
            [(job_type, name) for job_type, names in SCALAR_FIELDS.items() for name in names]
            + [
                (job_type, name)
                for job_type, names in OPTIONAL_SCALAR_FIELDS.items()
                for name in names
            ]
        ),
        value=st.one_of(
            st.none(),
            st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=4)), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
    )
    def test_any_non_scalar_value_names_the_field(self, field, value):
        job_type, name = field
        if value is None and name in OPTIONAL_SCALAR_FIELDS.get(job_type, ()):
            assert job_spec({"type": job_type, name: None}).param(name) is None
            return
        with pytest.raises(ValueError, match=f"spec field '{name}'"):
            job_spec({"type": job_type, name: value})

    def test_figure7_spec_has_no_phase_knobs(self):
        # Figure 7 always runs the paper's parameters, so service results
        # stay byte-identical to `hexamesh figure 7`.
        spec = job_spec({"type": "figure7", "max_chiplets": 5})
        with pytest.raises(KeyError):
            spec.param("cycles")
        with pytest.raises(ValueError, match="unknown figure7 spec field"):
            job_spec({"type": "figure7", "cycles": 100})

    def test_config_matches_the_cli_phase_scaling(self):
        spec = job_spec({"type": "sweep", "cycles": 80, "seed": 3})
        assert spec.config() == phase_config(80, seed=3)


class TestInFlightRegistry:
    def test_first_claim_owns_followers_wait(self):
        registry = InFlightRegistry()
        assert registry.claim("k") is None
        entry = registry.claim("k")
        assert entry is not None
        assert registry.in_flight() == 1
        registry.publish("k", "record")
        assert entry.event.is_set()
        assert entry.record == "record"
        assert registry.in_flight() == 0
        # A fresh claim after publish starts a new flight.
        assert registry.claim("k") is None

    def test_release_wakes_followers_empty_handed(self):
        registry = InFlightRegistry()
        registry.claim("k")
        entry = registry.claim("k")
        registry.release({"k"})
        assert entry.event.is_set()
        assert entry.record is None

    def test_publish_without_claim_is_ignored(self):
        registry = InFlightRegistry()
        registry.publish("unclaimed", "record")
        assert registry.in_flight() == 0


class TestJobLifecycle:
    def test_sweep_job_matches_the_direct_runner(self, manager):
        job = manager.submit(SWEEP_SPEC)
        result = manager.result(job.id, timeout=120)
        spec = job.spec
        runner = ParallelSweepRunner(spec.config(), jobs=1)
        records = runner.run(
            ParallelSweepRunner.grid(
                spec.param("kinds"), spec.param("chiplets"), spec.param("rates"),
                spec.param("traffic"),
            )
        )
        rows = sweep_rows(records)
        assert result["rows"] == rows
        assert result["csv"] == render_csv(result["header"], rows)
        assert result["cache"] == {"candidates": 4, "cache_hits": 0, "simulated": 4}
        assert result["pareto"]
        assert result["pareto"] == sorted(
            result["pareto"], key=lambda point: point["latency"]
        )
        status = manager.status(job.id)
        assert status["state"] == "done"
        assert status["progress"]["finished"] is True

    def test_warm_resubmission_simulates_nothing(self, manager, monkeypatch):
        cold = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        _forbid_simulation(monkeypatch)
        warm = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        assert warm["cache"] == {"candidates": 4, "cache_hits": 4, "simulated": 0}
        assert warm["csv"] == cold["csv"]
        assert warm["pareto"] == cold["pareto"]

    def test_failed_job_surfaces_the_error(self, monkeypatch):
        manager = JobManager(cache_dir=None, workers=1)
        try:
            def boom(*_args, **_kwargs):
                raise RuntimeError("simulated explosion")

            monkeypatch.setattr(parallel_module, "_evaluate_work_item", boom)
            job = manager.submit(SWEEP_SPEC)
            with pytest.raises(RuntimeError, match="simulated explosion"):
                manager.result(job.id, timeout=60)
            assert manager.status(job.id)["state"] == "failed"
        finally:
            manager.shutdown(wait=False, cancel_pending=True)

    def test_unknown_job_id_raises(self, manager):
        with pytest.raises(KeyError, match="unknown job id"):
            manager.status("job-999")

    def test_queued_job_cancels_before_start(self, manager, monkeypatch):
        gate = threading.Semaphore(0)
        real = parallel_module._evaluate_work_item

        def gated(item, on_result=None):
            gate.acquire()
            return real(item, on_result)

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", gated)
        # Fill both worker threads so the third submission stays queued.
        blockers = [manager.submit(SWEEP_SPEC) for _ in range(2)]
        queued = manager.submit(SWEEP_SPEC)
        status = manager.cancel(queued.id)
        assert status["state"] == "cancelled"
        for _ in range(32):
            gate.release()
        for job in blockers:
            assert job.wait(timeout=120)


class TestSharedStoreHandle:
    WORKLOAD_SPEC = {
        "type": "workload",
        "workloads": ["dnn-pipeline"],
        "arrangements": ["hexamesh"],
        "chiplets": [7],
        "mappers": ["round-robin"],
        "cycles": 80,
    }
    RESILIENCE_SPEC = {
        "type": "resilience",
        "kinds": ["grid"],
        "chiplets": 9,
        "failures": [0, 1],
        "samples": 1,
        "cycles": 80,
    }

    def test_a_manager_opens_its_store_once(self, manager):
        # Every job runs on the manager's one handle: after five jobs (two
        # of them submitted together) the only other open is this check.
        together = [manager.submit(SWEEP_SPEC), manager.submit(self.RESILIENCE_SPEC)]
        results = [manager.result(job.id, timeout=120) for job in together]
        for spec in (SWEEP_SPEC, self.WORKLOAD_SPEC, self.RESILIENCE_SPEC):
            results.append(manager.result(manager.submit(spec).id, timeout=120))
        assert ResultStore(manager.cache_dir).generation == 2
        # The handle's counters total every job, across the job threads.
        counters = manager.store.counters
        assert counters.hits == sum(result["cache"]["cache_hits"] for result in results)
        assert counters.misses == counters.writes == sum(
            result["cache"]["simulated"] for result in results
        )

    def test_manager_survives_its_store_directory_being_removed(
        self, manager, monkeypatch
    ):
        cold = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        shutil.rmtree(manager.cache_dir)
        again = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        assert again["cache"] == {"candidates": 4, "cache_hits": 0, "simulated": 4}
        assert again["csv"] == cold["csv"]
        with monkeypatch.context() as patch:
            _forbid_simulation(patch)
            warm = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        assert warm["cache"] == {"candidates": 4, "cache_hits": 4, "simulated": 0}
        store = ResultStore(manager.cache_dir)
        assert store.stats().entries == 4
        outcomes = verify_store(store, sample=4)
        assert len(outcomes) == 4
        assert all(outcome.ok for outcome in outcomes), outcomes


class TestStreamedProgress:
    def test_stream_is_monotone_and_ends_finished(self, manager):
        job = manager.submit(SWEEP_SPEC)
        snapshots = list(manager.stream(job.id))
        assert snapshots, "a 4-candidate sweep must stream snapshots"
        done = [snapshot["done"] for snapshot in snapshots]
        assert done == sorted(done)
        assert snapshots[-1]["finished"] is True
        assert snapshots[-1]["done"] == snapshots[-1]["total"] == 4
        # A late subscriber replays the full history.
        replay = list(manager.stream(job.id))
        assert replay == snapshots


class TestCrossJobDeduplication:
    def test_concurrent_identical_jobs_simulate_each_key_once(
        self, manager, monkeypatch
    ):
        lock = threading.Lock()
        simulated: set[tuple] = set()
        real = parallel_module._evaluate_work_item

        def once_per_key(item, on_result=None):
            entries, _, _ = item
            for _, candidate, _ in entries:
                key = (candidate.kind, candidate.num_chiplets, candidate.injection_rate)
                with lock:
                    if key in simulated:
                        raise AssertionError(f"candidate {key} simulated twice")
                    simulated.add(key)
            # Stretch the simulation window so the two jobs genuinely
            # overlap on the in-flight registry rather than racing past
            # each other into the store.
            time.sleep(0.2)
            return real(item, on_result)

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", once_per_key)
        first = manager.submit(SWEEP_SPEC)
        second = manager.submit(SWEEP_SPEC)
        result_a = manager.result(first.id, timeout=120)
        result_b = manager.result(second.id, timeout=120)
        assert result_a["csv"] == result_b["csv"]
        assert len(simulated) == 4
        total = result_a["cache"]["simulated"] + result_b["cache"]["simulated"]
        assert total == 4
        assert manager.in_flight.in_flight() == 0


class TestCancelAndResume:
    def test_interrupted_job_resumes_as_store_hits(self, manager, monkeypatch):
        gate = threading.Semaphore(0)
        real = parallel_module._evaluate_work_item

        def gated(item, on_result=None):
            gate.acquire()
            return real(item, on_result)

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", gated)
        job = manager.submit(SWEEP_SPEC)
        # One work item: the two rates of the first arrangement.
        gate.release(1)
        deadline = time.monotonic() + 60
        while manager.status(job.id)["snapshots"] < 2:
            assert time.monotonic() < deadline, "first two candidates never landed"
            time.sleep(0.01)
        manager.cancel(job.id)
        gate.release(8)  # let any in-flight simulation finish and unwind
        assert job.wait(timeout=120)
        assert manager.status(job.id)["state"] == "cancelled"
        with pytest.raises(RuntimeError, match="cancelled"):
            manager.result(job.id)

        resumed = manager.resume(job.id)
        assert resumed.resumed_from == job.id
        result = manager.result(resumed.id, timeout=120)
        # Everything simulated before the cut comes back from the store.
        assert result["cache"]["candidates"] == 4
        assert result["cache"]["cache_hits"] >= 2
        assert result["cache"]["simulated"] <= 2

        # And once the resumed job completed the grid, a third run is
        # 100% store hits: zero simulator invocations.
        _forbid_simulation(monkeypatch)
        third = manager.result(manager.submit(SWEEP_SPEC).id, timeout=120)
        assert third["cache"]["cache_hits"] == 4
        assert third["cache"]["simulated"] == 0
        assert third["csv"] == result["csv"]

    def test_cancel_inside_a_multi_rate_item_keeps_every_point(
        self, manager, monkeypatch
    ):
        # One arrangement, four rates: a single work item at jobs=1.
        spec = {
            "type": "sweep",
            "kinds": ["hexamesh"],
            "chiplets": [7],
            "rates": [0.02, 0.05, 0.1, 0.3],
            "cycles": 80,
        }
        submitted = threading.Event()
        job_ids: list[str] = []
        simulated: list[int] = []
        real = parallel_module._evaluate_work_item

        def cancel_after_first_point(item, on_result=None):
            submitted.wait(timeout=60)

            def _on_result(output):
                simulated.append(output[0])
                on_result(output)
                manager.cancel(job_ids[0])

            return real(item, _on_result)

        monkeypatch.setattr(
            parallel_module, "_evaluate_work_item", cancel_after_first_point
        )
        job = manager.submit(spec)
        job_ids.append(job.id)
        submitted.set()
        assert job.wait(timeout=120)
        assert manager.status(job.id)["state"] == "cancelled"
        # The cancel lands at the second point's progress report: the
        # rest of the item never runs.
        assert len(simulated) == 2

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", real)
        result = manager.result(manager.resume(job.id).id, timeout=120)
        # Both points simulated before the cut are store hits; only the
        # two that never ran are simulated.
        assert result["cache"]["cache_hits"] == 2
        assert result["cache"]["simulated"] == 2

    def test_resume_requires_a_terminal_job(self, manager, monkeypatch):
        gate = threading.Semaphore(0)
        real = parallel_module._evaluate_work_item

        def gated(item, on_result=None):
            gate.acquire()
            return real(item, on_result)

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", gated)
        job = manager.submit(SWEEP_SPEC)
        with pytest.raises(ValueError, match="still"):
            manager.resume(job.id)
        gate.release(8)
        assert job.wait(timeout=120)


class TestOtherJobTypes:
    def test_workload_job_smoke(self, manager):
        job = manager.submit(
            {
                "type": "workload",
                "workloads": ["dnn-pipeline"],
                "arrangements": ["hexamesh"],
                "chiplets": [7],
                "mappers": ["round-robin"],
                "cycles": 80,
            }
        )
        result = manager.result(job.id, timeout=120)
        assert result["header"][0] == "arrangement"
        assert len(result["rows"]) == 1
        assert result["rows"][0][0] == "hexamesh"
        assert result["cache"]["candidates"] == 1

    def test_resilience_job_smoke(self, manager):
        job = manager.submit(
            {
                "type": "resilience",
                "kinds": ["grid"],
                "chiplets": 9,
                "failures": [0, 1],
                "samples": 1,
                "cycles": 80,
            }
        )
        result = manager.result(job.id, timeout=120)
        assert [row[2] for row in result["rows"]] == [0, 1]
        assert result["rows"][0][9] == 1.0  # baseline anchors at 1.0

    def test_figure7_job_smoke(self, manager):
        job = manager.submit({"type": "figure7", "max_chiplets": 5})
        result = manager.result(job.id, timeout=120)
        # Four concatenated experiment tables, each with its own header.
        assert result["csv"].count("experiment,series,") == 4
        assert result["metadata"]["mode"] == "analytical"
