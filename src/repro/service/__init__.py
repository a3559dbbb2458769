"""Exploration-as-a-service: async jobs over the persistent result store.

The service layer turns the sweep machinery into a long-running process
serving many clients: job specs (:mod:`~repro.service.specs`) describe
sweep / workload / resilience / figure-7 explorations, a
:class:`JobManager` (:mod:`~repro.service.jobs`) runs them on a bounded
pool with per-job progress streams while one shared
:class:`~repro.store.ResultStore` and
:class:`~repro.core.parallel.InFlightRegistry` guarantee each unique
``result_key`` simulates at most once — across jobs, submissions and
restarts.  :mod:`~repro.service.server` exposes the same five verbs
(``submit``, ``status``, ``stream``, ``result``, ``cancel``) over a
JSONL Unix-socket protocol behind ``hexamesh serve`` / ``hexamesh
jobs``.  :func:`~repro.service.jobs.run_job` executes every job, and the
CLI's ``sweep`` / ``workload`` / ``faults`` / ``figure 7`` commands run
their specs through it too, so their output is byte-identical to the
equivalent job's.
"""

from repro.service.jobs import JOB_STATES, Job, JobCancelled, JobManager
from repro.service.server import (
    PROTOCOL,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service.specs import JOB_TYPES, JobSpec, job_spec, phase_config

__all__ = [
    "JOB_STATES",
    "JOB_TYPES",
    "PROTOCOL",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobSpec",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "job_spec",
    "phase_config",
]
