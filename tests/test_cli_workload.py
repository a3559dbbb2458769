"""CLI coverage of the ``workload`` subcommand and the figure ignored-flag paths."""

from __future__ import annotations

import pytest

from repro.cli import main

WORKLOAD_ARGS = [
    "workload", "--kind", "dnn-pipeline", "--chiplets", "7",
    "--arrangement", "hexamesh", "--mapper", "partition",
    "--cycles", "100",
]


class TestWorkloadCommand:
    def test_single_point_reports_application_metrics(self, capsys):
        assert main(WORKLOAD_ARGS) == 0
        out = capsys.readouterr().out
        assert "weighted hops" in out
        assert "makespan proxy [cyc]" in out
        assert "dnn-pipeline" in out
        assert "partition" in out

    def test_engines_produce_identical_tables(self, capsys):
        assert main(WORKLOAD_ARGS + ["--engine", "vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert main(WORKLOAD_ARGS + ["--engine", "legacy"]) == 0
        legacy = capsys.readouterr().out
        assert vectorized == legacy

    def test_removed_active_engine_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(WORKLOAD_ARGS + ["--engine", "active"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'active'" in capsys.readouterr().err

    def test_jobs_produce_identical_tables(self, capsys):
        grid_args = [
            "workload", "--kind", "dnn-pipeline,all-reduce", "--chiplets", "7,9",
            "--arrangement", "grid", "--mapper", "round-robin",
            "--cycles", "100",
        ]
        assert main(grid_args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(grid_args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "workloads.csv"
        assert main(WORKLOAD_ARGS + ["--output", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("arrangement,chiplets,workload,mapper")
        assert len(lines) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--kind", "matmul"), ("--mapper", "annealing"), ("--arrangement", "torus")],
    )
    def test_fails_fast_on_typos(self, flag, value, capsys):
        args = list(WORKLOAD_ARGS)
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_too_small_tasks_fails_fast(self, capsys):
        args = [
            "workload", "--kind", "fork-join", "--chiplets", "7",
            "--arrangement", "grid", "--mapper", "round-robin",
            "--tasks", "2", "--cycles", "100",
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "at least 3 tasks" in err

    def test_all_shorthand_for_mappers(self, capsys):
        args = [
            "workload", "--kind", "fork-join", "--chiplets", "7",
            "--arrangement", "grid", "--mapper", "all", "--cycles", "100",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        for mapper in ("greedy", "partition", "round-robin"):
            assert mapper in out


class TestFigureIgnoredFlags:
    def test_figure7_analytical_warns_about_simulation_flags(self, capsys):
        assert main(["figure", "7", "--max-chiplets", "4", "--jobs", "3"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err
        assert "--jobs" in err
        assert "analytical" in err

    def test_figure7_analytical_stays_silent_with_defaults(self, capsys):
        assert main(["figure", "7", "--max-chiplets", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_figure6_warning_still_fires(self, capsys):
        assert main(["figure", "6", "--max-chiplets", "4", "--jobs", "3"]) == 0
        err = capsys.readouterr().err
        assert "figure 6 is always analytical" in err
