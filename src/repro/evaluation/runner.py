"""One-call orchestration of every experiment.

:func:`run_all_experiments` regenerates the data behind every figure and
table of the paper, optionally writes each as a CSV file and returns the
results indexed by experiment id.  The benchmarks and the ``examples``
scripts are thin wrappers around this runner.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.evaluation.headline import compute_headline_claims
from repro.evaluation.performance import FIGURE7_MODES, run_figure7, run_link_bandwidth_table
from repro.evaluation.proxies import figure4_annotations, run_figure6
from repro.evaluation.series import ExperimentResult
from repro.linkmodel.parameters import EvaluationParameters
from repro.noc.config import SimulationConfig
from repro.utils.validation import check_in_choices


def run_all_experiments(
    *,
    max_chiplets: int = 100,
    mode: str = "analytical",
    simulation_points: Sequence[int] | None = None,
    simulation_config: SimulationConfig | None = None,
    parameters: EvaluationParameters | None = None,
    output_dir: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run every experiment of the evaluation and return the results by id.

    Parameters
    ----------
    max_chiplets:
        Upper end of the chiplet-count sweeps (the paper uses 100).
    mode:
        Engine for Figure 7: ``"analytical"``, ``"hybrid"`` or
        ``"simulation"`` (see :func:`repro.evaluation.performance.run_figure7`).
    simulation_points:
        Chiplet counts to run through the cycle-accurate simulator in
        hybrid / simulation mode.
    simulation_config:
        Optional simulator phase-length override (use
        :meth:`SimulationConfig.fast_functional` for quick runs).
    parameters:
        Link-model parameters; defaults to the paper's Section VI values.
    output_dir:
        When given, each experiment is also written as
        ``<output_dir>/<experiment_id>.csv``.
    jobs:
        Worker processes for the cycle-accurate Figure 7 points (see
        :func:`repro.evaluation.performance.run_figure7`).
    cache_dir:
        Optional on-disk result cache for the cycle-accurate points.
    """
    check_in_choices("mode", mode, FIGURE7_MODES)
    if parameters is None:
        parameters = EvaluationParameters()

    results: dict[str, ExperimentResult] = {}
    timings: dict[str, float] = {}

    start = time.perf_counter()
    results["FIG4"] = figure4_annotations(range(4, max_chiplets + 1))
    timings["FIG4"] = time.perf_counter() - start

    start = time.perf_counter()
    figure6 = run_figure6(range(1, max_chiplets + 1))
    results["FIG6a"] = figure6.diameter_experiment()
    results["FIG6b"] = figure6.bisection_experiment()
    timings["FIG6"] = time.perf_counter() - start

    start = time.perf_counter()
    results["TAB1"] = run_link_bandwidth_table(parameters=parameters)
    timings["TAB1"] = time.perf_counter() - start

    start = time.perf_counter()
    figure7 = run_figure7(
        range(2, max_chiplets + 1),
        parameters=parameters,
        mode=mode,
        simulation_points=simulation_points,
        simulation_config=simulation_config,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    results["FIG7a"] = figure7.latency_experiment()
    results["FIG7b"] = figure7.throughput_experiment()
    results["FIG7c"] = figure7.normalized_latency_experiment()
    results["FIG7d"] = figure7.normalized_throughput_experiment()
    timings["FIG7"] = time.perf_counter() - start

    claims = compute_headline_claims(figure7)
    headline = ExperimentResult(
        experiment_id="HEADLINE",
        title="Headline claims of the abstract (HexaMesh vs. grid)",
        x_label="claim",
        y_label="percent",
    )
    from repro.evaluation.series import DataSeries  # local import to avoid cycle noise

    series = DataSeries(name="hexamesh vs grid")
    for index, (name, value) in enumerate(sorted(claims.as_dict().items())):
        series.add(index, value, claim=name)
    headline.series.append(series)
    headline.metadata["claims"] = claims.as_dict()
    results["HEADLINE"] = headline

    for experiment_id, result in results.items():
        result.metadata.setdefault("mode", mode)
        result.metadata.setdefault("timings_s", timings)

    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        for experiment_id, result in results.items():
            result.write_csv(os.path.join(output_dir, f"{experiment_id}.csv"))

    return results
