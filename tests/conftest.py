"""Shared fixtures for the test-suite.

Besides the small arrangement/graph fixtures, this module owns the
**simulation-mode registry**: the single list of ways to run the
cycle-accurate simulator that every equivalence, invariant, golden-trace
and property suite parametrizes over.  Adding a new engine (or engine
mode, like the batched path) to ``EQUIVALENT_SIM_MODES`` enrols it in all of
those grids at once.
"""

from __future__ import annotations

import pytest

from repro.arrangements.brickwall import generate_brickwall
from repro.arrangements.grid import generate_grid
from repro.arrangements.hexamesh import generate_hexamesh
from repro.graphs.model import ChipGraph
from repro.linkmodel.parameters import EvaluationParameters
from repro.noc.config import SimulationConfig

from fault_scenarios import FAULT_SCENARIOS
from sim_modes import ALL_SIM_MODES, EQUIVALENT_SIM_MODES


@pytest.fixture(params=EQUIVALENT_SIM_MODES)
def equivalent_sim_mode(request):
    """Every simulation mode that must be bit-identical to legacy."""
    return request.param


@pytest.fixture(params=ALL_SIM_MODES)
def sim_mode(request):
    """Every simulation mode, the legacy reference included."""
    return request.param


@pytest.fixture(params=FAULT_SCENARIOS)
def fault_scenario(request):
    """Every representative fault scenario of ``tests/fault_scenarios.py``."""
    return request.param


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current legacy-engine "
             "output instead of asserting against the committed fixtures",
    )


@pytest.fixture(scope="session")
def update_goldens(request):
    """Whether ``--update-goldens`` was passed (golden-trace suite seam)."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def small_grid():
    """A 3x3 regular grid arrangement."""
    return generate_grid(9, "regular")


@pytest.fixture
def small_brickwall():
    """A 3x3 regular brickwall arrangement."""
    return generate_brickwall(9, "regular")


@pytest.fixture
def small_hexamesh():
    """A one-ring (7-chiplet) regular HexaMesh arrangement."""
    return generate_hexamesh(7, "regular")


@pytest.fixture
def medium_hexamesh():
    """A two-ring (19-chiplet) regular HexaMesh arrangement."""
    return generate_hexamesh(19, "regular")


@pytest.fixture
def path_graph():
    """A simple path graph 0 - 1 - 2 - 3."""
    return ChipGraph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def cycle_graph():
    """A cycle graph on 6 nodes."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return ChipGraph(nodes=range(6), edges=edges)


@pytest.fixture
def paper_parameters():
    """The evaluation parameters of Section VI of the paper."""
    return EvaluationParameters()


@pytest.fixture
def fast_sim_config():
    """A short-phase simulator configuration for quick functional tests."""
    return SimulationConfig(
        warmup_cycles=100,
        measurement_cycles=300,
        drain_cycles=800,
    )
