"""The CLI and the exploration service run one job executor.

``hexamesh sweep``, ``workload``, sampled ``faults`` and ``figure 7``
turn their flags into a job spec and run it through
:func:`repro.service.jobs.run_job`, the function behind
:class:`~repro.service.JobManager`.  So a command's ``--output`` file
must be byte-identical to the equivalent job's ``csv``, and a command
run without flags must run exactly the bare ``{"type": ...}`` spec: the
spec field tables are the only source of defaults.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import main
from repro.service import JobManager, job_spec

#: name -> (CLI argv without --output, the same exploration as a job spec).
SAME_EXPLORATION = {
    "sweep": (
        ["sweep", "--kinds", "grid,hexamesh", "--chiplets", "7",
         "--rates", "0.05,0.3", "--cycles", "80"],
        {"type": "sweep", "kinds": ["grid", "hexamesh"], "chiplets": [7],
         "rates": [0.05, 0.3], "cycles": 80},
    ),
    "workload": (
        ["workload", "--kind", "dnn-pipeline", "--chiplets", "7",
         "--arrangement", "hexamesh", "--cycles", "80"],
        {"type": "workload", "workloads": ["dnn-pipeline"], "chiplets": [7],
         "arrangements": ["hexamesh"], "cycles": 80},
    ),
    "faults": (
        ["faults", "--kinds", "grid", "--chiplets", "9", "--failures", "0,1",
         "--samples", "1", "--cycles", "80"],
        {"type": "resilience", "kinds": ["grid"], "chiplets": 9,
         "failures": [0, 1], "samples": 1, "cycles": 80},
    ),
    "figure 7": (
        ["figure", "7", "--max-chiplets", "5"],
        {"type": "figure7", "max_chiplets": 5},
    ),
}


@pytest.fixture(scope="module")
def manager():
    mgr = JobManager(workers=1)
    yield mgr
    mgr.shutdown(wait=True)


@pytest.mark.parametrize("name", sorted(SAME_EXPLORATION))
def test_cli_output_is_byte_identical_to_the_service_csv(name, manager, tmp_path, capsys):
    argv, spec = SAME_EXPLORATION[name]
    path = tmp_path / "cli.csv"
    assert main([*argv, "--output", str(path)]) == 0
    capsys.readouterr()
    job = manager.submit(spec)
    service_csv = manager.result(job.id, timeout=300)["csv"]
    assert path.read_bytes() == service_csv.encode("utf-8")


class _Ran(Exception):
    """Raised by the stand-in executor once it has seen the spec."""


@pytest.mark.parametrize(
    "argv,job_type",
    [
        (["sweep"], "sweep"),
        (["workload"], "workload"),
        (["faults"], "resilience"),
        (["figure", "7"], "figure7"),
    ],
)
def test_flagless_command_runs_the_bare_spec(argv, job_type, monkeypatch, capsys):
    ran = []

    def capture(spec, **_options):
        ran.append(spec)
        raise _Ran

    monkeypatch.setattr(cli, "run_job", capture)
    with pytest.raises(_Ran):
        main(argv)
    assert ran == [job_spec({"type": job_type})]
    # Flags left at their defaults trigger no ignored-flag warning.
    assert capsys.readouterr().err == ""
