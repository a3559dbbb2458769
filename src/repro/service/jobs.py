"""Async job execution over the result store: the exploration service core.

:class:`JobManager` is a long-running, in-process front end to the sweep
machinery: it accepts validated :class:`~repro.service.specs.JobSpec`
descriptions, runs them on a bounded thread pool (each job drives the
existing runners, which in turn fan simulation across worker
*processes*), streams :class:`~repro.telemetry.progress.SweepProgress`
snapshots per job, and shares one persistent
:class:`~repro.store.ResultStore` handle plus one
:class:`~repro.core.parallel.InFlightRegistry` across every job — so a
warm resubmission is pure store hits (zero simulator invocations) and
two concurrent jobs that overlap trigger exactly one simulation per
unique ``result_key``.  The manager opens the store once, when it is
created, and hands that handle to every job's runner: a job pays no
store open (no meta rewrite, no orphan sweep over every shard), and the
handle's :class:`~repro.store.StoreCounters` count the hits, misses and
writes of all the manager's jobs, updated from several job threads.

Cancellation is cooperative: a cancel request raises
:class:`JobCancelled` out of the job's next progress callback, the
runner releases its in-flight claims, and everything already simulated
stays in the store — resuming the job (a fresh submission of the same
spec) picks up from there as cache hits.

:func:`run_job` is the executor itself (spec → candidates → runner →
result payload); the CLI's spec-backed commands call it in-process, so
a command's ``--output`` and the equivalent job's ``csv`` are the same
bytes.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Iterator, Mapping

from repro.core.parallel import InFlightRegistry, ParallelSweepRunner
from repro.service.specs import JobSpec, job_spec
from repro.service.tables import (
    RESILIENCE_HEADER,
    SWEEP_HEADER,
    WORKLOAD_HEADER,
    figure7_csv,
    render_csv,
    resilience_rows,
    sweep_pareto,
    sweep_rows,
    workload_rows,
)
from repro.store import ResultStore
from repro.telemetry.progress import SweepProgressTracker

#: States a job moves through: ``queued`` → ``running`` → one terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_ACTIVE_STATES = frozenset({"queued", "running"})


class JobCancelled(RuntimeError):
    """Raised inside a job's progress callback to unwind a cancelled run."""


class Job:
    """One submitted exploration job: spec, state, progress and result.

    All mutation happens under the job's condition variable; readers
    (:meth:`status`, :meth:`stream`, :meth:`wait`) are safe from any
    thread, which is what lets socket handler threads watch jobs the
    pool is still running.
    """

    def __init__(self, job_id: str, spec: JobSpec, *, resumed_from: str | None = None):
        self.id = job_id
        self.spec = spec
        self.resumed_from = resumed_from
        self.state = "queued"
        self.error: str | None = None
        self.result: dict[str, Any] | None = None
        self._snapshots: list[dict[str, Any]] = []
        self._cond = threading.Condition()
        self._cancel = threading.Event()
        self._future: Future | None = None

    # -- worker-side mutation ------------------------------------------------

    def _set_state(self, state: str, *, error: str | None = None,
                   result: dict[str, Any] | None = None) -> None:
        with self._cond:
            self.state = state
            if error is not None:
                self.error = error
            if result is not None:
                self.result = result
            self._cond.notify_all()

    def _add_snapshot(self, snapshot: dict[str, Any]) -> None:
        with self._cond:
            self._snapshots.append(snapshot)
            self._cond.notify_all()

    # -- client-side views ---------------------------------------------------

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state not in _ACTIVE_STATES

    def status(self) -> dict[str, Any]:
        """JSON-able job status: state, spec, latest progress, error."""
        with self._cond:
            progress = self._snapshots[-1] if self._snapshots else None
            return {
                "id": self.id,
                "type": self.spec.job_type,
                "state": self.state,
                "spec": self.spec.as_dict(),
                "progress": progress,
                "snapshots": len(self._snapshots),
                "error": self.error,
                "resumed_from": self.resumed_from,
            }

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; ``True`` when it finished."""
        with self._cond:
            self._cond.wait_for(lambda: self.state not in _ACTIVE_STATES, timeout)
            return self.state not in _ACTIVE_STATES

    def stream(self) -> Iterator[dict[str, Any]]:
        """Yield every progress snapshot, live, until the job is terminal.

        Snapshots already recorded are replayed first, so late
        subscribers see the full monotone ``done`` sequence; the stream
        ends once the job reaches a terminal state and every snapshot
        has been delivered.
        """
        cursor = 0
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: len(self._snapshots) > cursor
                    or self.state not in _ACTIVE_STATES
                )
                batch = self._snapshots[cursor:]
                cursor += len(batch)
                terminal = self.state not in _ACTIVE_STATES
            for snapshot in batch:
                yield snapshot
            if terminal:
                return


class JobManager:
    """Run exploration jobs asynchronously over one shared result store.

    The manager opens the store at ``cache_dir`` once, here, and every
    job's runner uses that handle, just as every job shares the
    manager's :class:`~repro.core.parallel.InFlightRegistry`.  The
    handle's :attr:`~repro.store.ResultStore.counters` therefore total
    all jobs, updated from the job threads.  Removing the store
    directory while the manager runs is safe: the next job misses,
    re-simulates and republishes.

    Parameters
    ----------
    cache_dir:
        Root of the persistent result store every job reads and writes.
        ``None`` runs jobs uncached (each simulates everything — useful
        only for tests).
    workers:
        Concurrent jobs (threads).  Each job additionally fans its
        simulations across the worker *processes* its spec's ``jobs``
        field requests, so this bounds job-level concurrency, not
        simulator parallelism.
    """

    def __init__(self, *, cache_dir: str | None = None, workers: int = 2) -> None:
        self._cache_dir = cache_dir
        self._store = ResultStore(cache_dir) if cache_dir is not None else None
        self._in_flight = InFlightRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="hexamesh-job"
        )
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    @property
    def cache_dir(self) -> str | None:
        return self._cache_dir

    @property
    def store(self) -> ResultStore | None:
        """The one store handle every job of this manager uses, or ``None``."""
        return self._store

    @property
    def in_flight(self) -> InFlightRegistry:
        """The registry deduplicating candidates across this manager's jobs."""
        return self._in_flight

    # -- submission and lookup ----------------------------------------------

    def submit(
        self,
        spec: Mapping[str, Any] | JobSpec,
        *,
        resumed_from: str | None = None,
    ) -> Job:
        """Validate ``spec``, enqueue it and return the (running) job."""
        validated = spec if isinstance(spec, JobSpec) else job_spec(spec)
        with self._lock:
            job = Job(
                f"job-{next(self._ids)}", validated, resumed_from=resumed_from
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
        job._future = self._executor.submit(self._execute, job)
        return job

    def get(self, job_id: str) -> Job:
        """The job with this id (raises ``KeyError`` for unknown ids)."""
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job id {job_id!r}")
            return self._jobs[job_id]

    def jobs(self) -> list[dict[str, Any]]:
        """Status of every job, in submission order."""
        with self._lock:
            ordered = [self._jobs[job_id] for job_id in self._order]
        return [job.status() for job in ordered]

    # -- the five-verb Python API -------------------------------------------

    def status(self, job_id: str) -> dict[str, Any]:
        """Current status of one job."""
        return self.get(job_id).status()

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Live progress snapshots of one job (ends when terminal)."""
        return self.get(job_id).stream()

    def result(self, job_id: str, *, timeout: float | None = None) -> dict[str, Any]:
        """Block for and return a job's result payload.

        Raises :class:`RuntimeError` when the job failed or was
        cancelled (the exception message carries the job error), and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        job = self.get(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
        if job.state != "done":
            raise RuntimeError(
                f"job {job_id} {job.state}: {job.error or 'no result available'}"
            )
        assert job.result is not None
        return job.result

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Request cancellation; returns the job's status afterwards.

        Queued jobs cancel immediately; running jobs unwind at their
        next progress callback (everything already simulated stays in
        the store, so a resume is pure cache hits up to the cut).
        """
        job = self.get(job_id)
        job._cancel.set()
        future = job._future
        if future is not None and future.cancel():
            # Never started: terminal right away.
            job._set_state("cancelled", error="cancelled before start")
        return job.status()

    def resume(self, job_id: str) -> Job:
        """Resubmit a cancelled/failed job's spec as a fresh job.

        The new job re-walks the full grid; every candidate the original
        run completed comes back as a store hit, so resuming after an
        interrupt costs only the not-yet-simulated remainder.
        """
        job = self.get(job_id)
        if not job.finished:
            raise ValueError(f"job {job_id} is still {job.state}; cancel it first")
        return self.submit(job.spec, resumed_from=job.id)

    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        if cancel_pending:
            with self._lock:
                jobs = list(self._jobs.values())
            for job in jobs:
                if not job.finished:
                    self.cancel(job.id)
        self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    # -- execution -----------------------------------------------------------

    def _execute(self, job: Job) -> None:
        if job.cancel_requested:
            job._set_state("cancelled", error="cancelled before start")
            return
        job._set_state("running")
        spec = job.spec
        tracker = SweepProgressTracker(jobs=spec.param("jobs"))

        def progress(done: int, total: int, record) -> None:
            if job.cancel_requested:
                raise JobCancelled(f"job {job.id} cancelled at {done}/{total}")
            job._add_snapshot(tracker.update(done, total, record).as_dict())

        try:
            payload = run_job(
                spec,
                cache_dir=self._store,
                progress=progress,
                in_flight=self._in_flight,
            )
        except JobCancelled as cancelled:
            job._set_state("cancelled", error=str(cancelled))
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            job._set_state("failed", error=f"{type(error).__name__}: {error}")
        else:
            job._set_state("done", result=payload)


def run_job(
    spec: JobSpec,
    *,
    cache_dir: str | os.PathLike[str] | ResultStore | None = None,
    progress=None,
    in_flight: InFlightRegistry | None = None,
) -> dict[str, Any]:
    """Run one validated job spec and return its result payload.

    The single executor behind :class:`JobManager` and the CLI's
    ``sweep``, ``workload``, sampled ``faults`` and ``figure 7``
    commands, so a command and the equivalent service job produce the
    same payload.  Table jobs return ``header``, ``rows``, their
    rendered ``csv`` (sweeps add the latency/throughput ``pareto``
    front) and a ``cache`` summary; Figure 7 returns its ``csv`` and
    ``metadata``.  ``progress(done, total, record)`` is called per
    completed candidate; ``in_flight`` dedupes candidates across
    concurrent jobs.  ``cache_dir`` is a store root, opened by the job's
    runner, or an open :class:`~repro.store.ResultStore` handle, used as
    is (what :class:`JobManager` passes).
    """
    job_type = spec.job_type
    if job_type == "figure7":
        from repro.evaluation.performance import run_figure7

        figure7 = run_figure7(
            range(2, spec.param("max_chiplets") + 1),
            mode=spec.param("mode"),
            simulation_points=spec.param("sim_points"),
            jobs=spec.param("jobs"),
            cache_dir=cache_dir,
            noc_engine=spec.param("engine"),
            progress=progress,
            in_flight=in_flight,
        )
        return {"csv": figure7_csv(figure7), "metadata": figure7.metadata}

    execution = {
        "jobs": spec.param("jobs"),
        "cache_dir": cache_dir,
        "engine": spec.param("engine"),
        "in_flight": in_flight,
    }
    extra: dict[str, Any] = {}
    if job_type == "resilience":
        from repro.resilience.sweep import run_resilience_sweep

        result = run_resilience_sweep(
            spec.param("kinds"),
            spec.param("chiplets"),
            spec.param("failures"),
            samples=spec.param("samples"),
            fault_type=spec.param("fault_type"),
            config=spec.config(),
            injection_rate=spec.param("injection_rate"),
            injection_rates=spec.param("injection_rates"),
            traffic=spec.param("traffic"),
            regularity=spec.param("regularity"),
            progress=progress,
            **execution,
        )
        records = list(result.records)
        header, rows = RESILIENCE_HEADER, resilience_rows(result.summaries)
    elif job_type == "sweep":
        runner = ParallelSweepRunner(spec.config(), **execution)
        candidates = ParallelSweepRunner.grid(
            spec.param("kinds"),
            spec.param("chiplets"),
            spec.param("rates"),
            spec.param("traffic"),
            regularity=spec.param("regularity"),
        )
        records = runner.run(candidates, progress=progress)
        header, rows = SWEEP_HEADER, sweep_rows(records)
        extra["pareto"] = sweep_pareto(records)
    else:
        runner = ParallelSweepRunner(spec.config(), **execution)
        candidates = ParallelSweepRunner.workload_grid(
            spec.param("arrangements"),
            spec.param("chiplets"),
            spec.param("workloads"),
            spec.param("mappers"),
            injection_rates=(spec.param("injection_rate"),),
            num_tasks=spec.param("tasks"),
            regularity=spec.param("regularity"),
        )
        records = runner.run(candidates, progress=progress)
        header = WORKLOAD_HEADER
        rows = workload_rows(records, runner.config, jobs=spec.param("jobs"))
    hits = sum(1 for record in records if record.from_cache)
    return {
        "header": header,
        "rows": rows,
        "csv": render_csv(header, rows),
        **extra,
        "cache": {
            "candidates": len(records),
            "cache_hits": hits,
            "simulated": len(records) - hits,
        },
    }
