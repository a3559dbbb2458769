"""Tests for the command-line interface."""

import csv
import io
import os

import pytest

from repro.cli import main


class TestInfoAndCompare:
    def test_info(self, capsys):
        assert main(["info", "hexamesh", "19"]) == 0
        output = capsys.readouterr().out
        assert "diameter" in output
        assert "link_bandwidth_gbps" in output

    def test_compare(self, capsys):
        assert main(["compare", "hexamesh", "19", "--baseline", "grid"]) == 0
        output = capsys.readouterr().out
        assert "HM-19" in output
        assert "diameter_reduction_percent" in output

    def test_invalid_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["info", "torus", "16"])

    def test_invalid_count_reports_error(self, capsys):
        assert main(["info", "grid", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestFigureCommand:
    def test_figure6_to_stdout(self, capsys):
        assert main(["figure", "6", "--max-chiplets", "10"]) == 0
        output = capsys.readouterr().out
        assert "FIG6a" in output
        assert "FIG6b" in output

    def test_figure7_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig7.csv"
        assert main(["figure", "7", "--max-chiplets", "8", "--output", str(target)]) == 0
        content = target.read_text()
        assert "FIG7a" in content
        assert "FIG7d" in content

    def test_figure7_matches_golden_up_to_52(self, tmp_path):
        # tests/goldens/figure7_analytical.csv is `repro figure 7` (2-100),
        # one CSV block per panel.  Its headers and its per-count rows up to
        # 52 chiplets are what `--max-chiplets 52` prints; the averages over
        # the whole range (`window=all`) depend on the range and are left out.
        def rows(path):
            kept = []
            with open(path, newline="") as handle:
                for line in handle.read().splitlines(keepends=True):
                    fields = next(csv.reader(io.StringIO(line)))
                    if fields[0] == "experiment":
                        count_column = fields.index("number of chiplets")
                        kept.append(line)
                    elif "window=" not in fields[-1] and float(fields[count_column]) <= 52:
                        kept.append(line)
            return kept

        golden = os.path.join(os.path.dirname(__file__), "goldens", "figure7_analytical.csv")
        target = tmp_path / "fig7.csv"
        assert main(["figure", "7", "--max-chiplets", "52", "--output", str(target)]) == 0
        produced = rows(target)
        assert len(produced) == 4 + 2 * 3 * 51 + 2 * 2 * 51
        assert produced == rows(golden)

class TestSimulateCommand:
    def test_simulate_small_design(self, capsys):
        assert main(
            ["simulate", "grid", "4", "--injection-rate", "0.05", "--cycles", "300"]
        ) == 0
        output = capsys.readouterr().out
        assert "avg packet latency" in output
        assert "throughput [Tb/s]" in output


class TestExportCommand:
    def test_export_svg_and_booksim(self, tmp_path, capsys):
        svg = tmp_path / "view.svg"
        topology = tmp_path / "net.anynet"
        config = tmp_path / "booksim.cfg"
        code = main(
            [
                "export",
                "hexamesh",
                "7",
                "--svg",
                str(svg),
                "--booksim-topology",
                str(topology),
                "--booksim-config",
                str(config),
            ]
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert "router" in topology.read_text()

    def test_export_requires_some_target(self, capsys):
        assert main(["export", "grid", "4"]) == 2

    def test_export_booksim_needs_both_paths(self, tmp_path):
        assert main(
            ["export", "grid", "4", "--booksim-topology", str(tmp_path / "t.anynet")]
        ) == 2

    def test_export_honeycomb_svg_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["export", "honeycomb", "9", "--svg", str(tmp_path / "h.svg")]
        ) == 2


class TestFeasibilityCommand:
    def test_feasible_design_returns_zero(self, capsys):
        assert main(["feasibility", "hexamesh", "37"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_interposer_flag(self, capsys):
        assert main(["feasibility", "grid", "100", "--silicon-interposer"]) == 0


class TestSweepOptions:
    def test_sweep_csv_does_not_depend_on_jobs(self, tmp_path):
        inline = tmp_path / "inline.csv"
        workers = tmp_path / "workers.csv"
        base = ["sweep", "--kinds", "grid", "--chiplets", "9",
                "--rates", "0.05,0.2", "--cycles", "200"]
        assert main(base + ["--output", str(inline)]) == 0
        assert main(base + ["--jobs", "2", "--output", str(workers)]) == 0
        # One grouped work item inline, two split ones across workers:
        # the CSV (latencies, throughput, delivery ratios) is byte-identical.
        assert workers.read_text() == inline.read_text()

    def test_sweep_regularity_changes_the_swept_arrangement(self, tmp_path):
        # 12 chiplets admit both a semi-regular and an irregular grid, so
        # forcing the class must change the simulated topology (and with
        # it the CSV), while an unconstrained run picks the best class.
        best = tmp_path / "best.csv"
        irregular = tmp_path / "irregular.csv"
        base = ["sweep", "--kinds", "grid", "--chiplets", "12",
                "--rates", "0.1", "--cycles", "200"]
        assert main(base + ["--output", str(best)]) == 0
        assert main(
            base + ["--regularity", "irregular", "--output", str(irregular)]
        ) == 0
        assert irregular.read_text() != best.read_text()

    def test_unknown_regularity_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--kinds", "grid", "--chiplets", "9",
                  "--regularity", "fractal"])
        assert "--regularity" in capsys.readouterr().err

    def test_figure6_warns_about_ignored_flags(self, capsys):
        assert main(["figure", "6", "--max-chiplets", "6", "--jobs", "2"]) == 0
        assert "--jobs" in capsys.readouterr().err

    def test_figure7_analytical_warns_about_ignored_flags(self, capsys):
        assert main(["figure", "7", "--max-chiplets", "6", "--jobs", "2"]) == 0
        assert "--jobs" in capsys.readouterr().err
