"""The service transport: JSONL over a Unix socket, and the jobs CLI.

An in-process :class:`ServiceServer` (daemon thread) fronts a real
:class:`JobManager`; a :class:`ServiceClient` — and ``hexamesh jobs``
through ``main(argv)`` — exercise every protocol op end to end,
including the warm-resubmission byte-identity the CI service smoke
asserts from the outside.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import (
    PROTOCOL,
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
)

SWEEP_SPEC = {
    "type": "sweep",
    "kinds": ["grid"],
    "chiplets": [7],
    "rates": [0.05, 0.3],
    "cycles": 80,
}


@pytest.fixture
def service(tmp_path):
    socket_path = str(tmp_path / "hexamesh.sock")
    manager = JobManager(cache_dir=str(tmp_path / "store"), workers=2)
    server = ServiceServer(manager, socket_path)
    server.start()
    client = ServiceClient(socket_path, connect_timeout=10.0)
    yield client, server
    server.shutdown()


class TestProtocol:
    def test_ping_reports_protocol_and_store(self, service, tmp_path):
        client, _ = service
        response = client.call({"op": "ping"})
        assert response["protocol"] == PROTOCOL
        assert response["cache_dir"] == str(tmp_path / "store")

    def test_submit_watch_streams_progress_then_result(self, service):
        client, _ = service
        lines = list(
            client.request({"op": "submit", "spec": SWEEP_SPEC, "watch": True})
        )
        ack, middle, final = lines[0], lines[1:-1], lines[-1]
        assert ack["ok"] and ack["job"]["id"]
        job_id = ack["job"]["id"]
        done = [line["progress"]["done"] for line in middle]
        assert done == sorted(done)
        assert middle[-1]["progress"]["finished"] is True
        assert final["ok"] and final["job"]["state"] == "done"
        assert final["job"]["id"] == job_id
        assert final["result"]["csv"].startswith("kind,chiplets,rate,")

    def test_status_result_and_jobs_roundtrip(self, service):
        client, _ = service
        job_id = client.call({"op": "submit", "spec": SWEEP_SPEC})["job"]["id"]
        result = client.call({"op": "result", "id": job_id, "timeout": 120})
        assert result["job"]["state"] == "done"
        assert result["result"]["cache"]["candidates"] == 2
        status = client.call({"op": "status", "id": job_id})
        assert status["job"]["state"] == "done"
        listing = client.call({"op": "jobs"})
        assert [job["id"] for job in listing["jobs"]] == [job_id]

    def test_warm_resubmission_over_the_socket(self, service):
        client, _ = service
        first = client.call({"op": "submit", "spec": SWEEP_SPEC})["job"]["id"]
        cold = client.call({"op": "result", "id": first, "timeout": 120})["result"]
        second = client.call({"op": "submit", "spec": SWEEP_SPEC})["job"]["id"]
        warm = client.call({"op": "result", "id": second, "timeout": 120})["result"]
        assert warm["cache"]["simulated"] == 0
        assert warm["cache"]["cache_hits"] == 2
        assert warm["csv"] == cold["csv"]

    def test_resume_resubmits_a_finished_job(self, service):
        client, _ = service
        job_id = client.call({"op": "submit", "spec": SWEEP_SPEC})["job"]["id"]
        client.call({"op": "result", "id": job_id, "timeout": 120})
        lines = list(client.request({"op": "resume", "id": job_id, "watch": True}))
        assert lines[0]["ok"]
        assert lines[0]["job"]["resumed_from"] == job_id
        assert lines[-1]["job"]["state"] == "done"
        assert lines[-1]["result"]["cache"]["simulated"] == 0

    def test_bad_requests_are_rejected_not_fatal(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="unknown op"):
            client.call({"op": "frobnicate"})
        with pytest.raises(ServiceError, match="needs a job 'id'"):
            client.call({"op": "status"})
        with pytest.raises(ServiceError, match="unknown job id"):
            client.call({"op": "status", "id": "job-999"})
        with pytest.raises(ServiceError, match="invalid spec"):
            client.call({"op": "submit", "spec": {"type": "sweep", "kinds": ["x"]}})
        with pytest.raises(ServiceError, match="invalid spec: spec field 'chiplets'"):
            client.call({"op": "submit", "spec": {"type": "resilience", "chiplets": [7]}})
        with pytest.raises(ServiceError, match="needs a 'spec'"):
            client.call({"op": "submit"})
        # ...and the server is still alive afterwards.
        assert client.call({"op": "ping"})["ok"]

    def test_shutdown_op_stops_the_server(self, tmp_path):
        socket_path = str(tmp_path / "hexamesh.sock")
        manager = JobManager(cache_dir=None, workers=1)
        server = ServiceServer(manager, socket_path)
        server.start()
        client = ServiceClient(socket_path)
        assert client.call({"op": "shutdown"})["shutdown"] is True
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()
        with pytest.raises((FileNotFoundError, ConnectionRefusedError)):
            ServiceClient(socket_path, connect_timeout=0.2).call({"op": "ping"})


class TestJobsCli:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SWEEP_SPEC))
        return str(path)

    def test_submit_watch_and_warm_resubmit(self, service, tmp_path, capsys):
        client, _ = service
        socket_path = client.socket_path
        spec_file = self._spec_file(tmp_path)
        cold_csv = tmp_path / "cold.csv"
        argv = [
            "jobs", "submit", "--socket", socket_path,
            "--spec-file", spec_file, "--output", str(cold_csv),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "job job-1: done" in captured.err
        assert "/ 2 simulated" in captured.err

        warm_csv = tmp_path / "warm.csv"
        argv = [
            "jobs", "submit", "--socket", socket_path,
            "--spec-file", spec_file, "--output", str(warm_csv),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "/ 0 simulated" in captured.err
        assert "(100% hit ratio)" in captured.err
        assert warm_csv.read_bytes() == cold_csv.read_bytes()

    def test_inline_spec_status_result_and_list(self, service, tmp_path, capsys):
        client, _ = service
        socket_path = client.socket_path
        argv = [
            "jobs", "submit", "--socket", socket_path,
            "--spec", json.dumps(SWEEP_SPEC),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        out_csv = tmp_path / "result.csv"
        assert main([
            "jobs", "result", "--socket", socket_path, "job-1",
            "--timeout", "120", "--output", str(out_csv),
        ]) == 0
        capsys.readouterr()
        assert out_csv.read_text().startswith("kind,chiplets,rate,")
        assert main(["jobs", "status", "--socket", socket_path, "job-1"]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["jobs", "list", "--socket", socket_path]) == 0
        assert "job-1" in capsys.readouterr().out
        assert main(["jobs", "ping", "--socket", socket_path]) == 0
        assert PROTOCOL in capsys.readouterr().out

    def test_unreachable_socket_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        # Shrink the client's connect-retry window; the CLI default (10s)
        # exists only to let clients race `hexamesh serve` startup.
        import repro.service as service_module

        real = service_module.ServiceClient
        monkeypatch.setattr(
            service_module,
            "ServiceClient",
            lambda path: real(path, connect_timeout=0.2),
        )
        assert main([
            "jobs", "ping", "--socket", str(tmp_path / "missing.sock"),
        ]) == 1
        assert "hexamesh serve" in capsys.readouterr().err

    def test_serve_on_a_newer_schema_store_is_a_clean_error(self, tmp_path, capsys):
        # The manager opens its store when the server starts, so a store
        # this code cannot use is reported before any socket is bound.
        store = tmp_path / "store"
        store.mkdir()
        (store / "store.json").write_text(json.dumps({"schema": 99, "generation": 1}))
        socket_path = tmp_path / "hexamesh.sock"
        assert main([
            "serve", "--socket", str(socket_path), "--cache-dir", str(store),
        ]) == 2
        assert "schema 99" in capsys.readouterr().err
        assert not socket_path.exists()
