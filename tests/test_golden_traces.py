"""Golden-trace regression tests: committed fixtures lock engine outputs.

One fixed, fully specified scenario per arrangement kind — healthy and
with a deterministically sampled single-link fault — is committed as a
JSON fixture under ``tests/goldens/``: the complete simulation result
(latency summaries, throughput counters, packet accounting) plus the raw
per-packet latency histogram.  Every simulation mode (legacy, vectorized,
batched, batched-legacy — the ``sim_mode`` fixture of ``tests/conftest.py``)
must reproduce each fixture **exactly**; any change to RNG consumption,
allocation order, routing, phase accounting or statistics shows up as a
diff against the goldens, not as a silent drift.

Updating after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-goldens

regenerates the fixtures from the legacy reference engine (the suite then
re-asserts every other mode against the fresh files — so an update run
still proves cross-engine equivalence).  Commit the resulting diff and
explain it in the PR.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import pytest

from repro.arrangements.factory import make_arrangement
from repro.core.parallel import simulation_result_to_dict
from repro.noc import array_kernel
from repro.noc.config import SimulationConfig, config_identity_dict
from repro.resilience import sample_survivable_faults

from sim_modes import FORCED_KERNEL_SWITCHES, simulate_noc

#: Schema of the golden files; bump on layout changes (forces regeneration).
GOLDEN_SCHEMA = 1

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

#: The pinned scenario configuration.  Never change these values casually:
#: every golden fixture embeds them, so a silent edit fails loudly.
GOLDEN_CONFIG = SimulationConfig(
    warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=7
)
GOLDEN_RATE = 0.2
GOLDEN_TRAFFIC = "uniform"
GOLDEN_FAULT_SEED = 31


#: Pinned configuration of the backpressure edge golden: two-flit buffers
#: keep every VC occupied at the saturated injection rate, exercising the
#: escape-patience and credit-stall paths of all engines.
BACKPRESSURE_CONFIG = SimulationConfig(
    warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=7,
    buffer_depth_flits=2,
)


@dataclass(frozen=True)
class GoldenScenario:
    kind: str
    count: int
    faulted: bool  # False = healthy, True = sampled failed links
    #: Edge-case knobs (defaults reproduce the classic scenario shape).
    label: str | None = None  # overrides the derived name suffix
    rate: float = GOLDEN_RATE
    config: SimulationConfig = GOLDEN_CONFIG
    link_faults: int = 1

    @property
    def name(self) -> str:
        suffix = self.label
        if suffix is None:
            suffix = "single-link" if self.faulted else "healthy"
        return f"{self.kind}{self.count}-{suffix}"

    @property
    def path(self) -> str:
        return os.path.join(GOLDEN_DIR, f"{self.name}.json")


SCENARIOS = tuple(
    GoldenScenario(kind, count, faulted)
    for kind, count in (
        ("grid", 9), ("brickwall", 9), ("honeycomb", 7), ("hexamesh", 7)
    )
    for faulted in (False, True)
)

#: The saturated shallow-buffer point of :data:`BACKPRESSURE_CONFIG`.
BACKPRESSURE_SCENARIO = GoldenScenario(
    "hexamesh", 7, False, label="backpressure", rate=1.0, config=BACKPRESSURE_CONFIG
)

#: Kernel edge cases, enrolled with the same fixtures and mode grid: the
#: minimum (2-router) topology, an empty generation schedule (zero
#: injection rate — the engines must still agree on every phase
#: boundary), all-VCs-occupied backpressure, and a doubly-degraded
#: topology.
EDGE_SCENARIOS = (
    GoldenScenario("grid", 2, False, label="two-router"),
    GoldenScenario("hexamesh", 7, False, label="zero-load", rate=0.0),
    BACKPRESSURE_SCENARIO,
    GoldenScenario("hexamesh", 7, True, label="two-link-faults", link_faults=2),
)

#: The two ends of the load range the kernel's size switches divide.
FORCED_SWITCH_SCENARIOS = (
    GoldenScenario("grid", 9, False, label="low-load", rate=0.02),
    BACKPRESSURE_SCENARIO,
)

#: The staged-pipeline configuration pinned by the staged goldens.
STAGED_CONFIG = SimulationConfig(
    warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=7,
    router_pipeline="staged",
)

#: Staged-router fidelity mode (router_pipeline="staged"): its own golden
#: fixtures, enrolled in the full mode grid — healthy, faulted and
#: saturated-backpressure regimes.  The single-stage scenarios above are
#: untouched, which is what keeps the default model bit-stable while the
#: explicit RC/VA/SA pipeline locks its own behaviour.
STAGED_SCENARIOS = (
    GoldenScenario("hexamesh", 7, False, label="staged-healthy", config=STAGED_CONFIG),
    GoldenScenario("grid", 9, True, label="staged-single-link", config=STAGED_CONFIG),
    GoldenScenario(
        "hexamesh", 7, False, label="staged-backpressure",
        rate=1.0,
        config=SimulationConfig(
            warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=7,
            buffer_depth_flits=2, router_pipeline="staged",
        ),
    ),
)


def _scenario_faults(scenario: GoldenScenario, graph):
    if not scenario.faulted:
        return None
    return sample_survivable_faults(
        graph, num_link_faults=scenario.link_faults, seed=GOLDEN_FAULT_SEED
    )


def _nan_to_none(value):
    """Replace NaN floats with ``None``, recursively.

    Empty latency summaries (the zero-load edge golden) report NaN
    statistics; NaN never compares equal — not even to itself — and is
    not valid strict JSON, so the fixtures store ``null`` instead.
    """
    if isinstance(value, dict):
        return {key: _nan_to_none(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_nan_to_none(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def build_payload(scenario: GoldenScenario, mode: str) -> dict:
    """Run the scenario under ``mode`` and shape the comparable payload.

    Only JSON-native types (dicts, lists, scalars) appear — NaN included
    (mapped to ``null``) — so the payload compares exactly against a
    ``json.load`` of the committed fixture.
    """
    graph = make_arrangement(scenario.kind, scenario.count).graph
    faults = _scenario_faults(scenario, graph)
    network, result = simulate_noc(
        graph,
        scenario.config,
        injection_rate=scenario.rate,
        traffic=GOLDEN_TRAFFIC,
        faults=faults,
        mode=mode,
    )
    network.verify_flit_conservation()
    latencies = sorted(
        packet.latency
        for endpoint in network.endpoints
        for packet in endpoint.ejected_packets
        if packet.measured
    )
    histogram: dict[int, int] = {}
    for latency in latencies:
        histogram[latency] = histogram.get(latency, 0) + 1
    return {
        "schema": GOLDEN_SCHEMA,
        "kind": scenario.kind,
        "count": scenario.count,
        "injection_rate": scenario.rate,
        "traffic": GOLDEN_TRAFFIC,
        # The identity rendering omits router_pipeline at its "single"
        # default, so every fixture committed before the knob existed
        # stays byte-valid; staged-pipeline fixtures embed the mode.
        "config": config_identity_dict(scenario.config),
        "faults": {
            "failed_links": [list(link) for link in faults.failed_links],
            "failed_routers": list(faults.failed_routers),
        } if faults is not None else None,
        "result": _nan_to_none(simulation_result_to_dict(result)),
        "latency_histogram": [
            [latency, count] for latency, count in sorted(histogram.items())
        ],
    }


@pytest.mark.parametrize(
    "scenario", SCENARIOS + EDGE_SCENARIOS + STAGED_SCENARIOS, ids=lambda s: s.name
)
def test_modes_reproduce_goldens(scenario, sim_mode, update_goldens):
    if update_goldens:
        golden = build_payload(scenario, "legacy")
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(scenario.path, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
    assert os.path.exists(scenario.path), (
        f"golden fixture {scenario.path} is missing; generate it with "
        "pytest tests/test_golden_traces.py --update-goldens"
    )
    with open(scenario.path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    payload = build_payload(scenario, sim_mode)
    assert payload == golden, (
        f"{sim_mode} run of {scenario.name} diverged from the committed "
        "golden trace; if the change is intentional, regenerate with "
        "--update-goldens and commit the diff"
    )


def test_goldens_carry_traffic():
    """Every committed golden measured real traffic (no silent dead nets)."""
    for scenario in SCENARIOS:
        with open(scenario.path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert golden["schema"] == GOLDEN_SCHEMA
        assert golden["result"]["measured_packets_ejected"] > 0
        assert golden["latency_histogram"]
        total = sum(count for _, count in golden["latency_histogram"])
        assert total == golden["result"]["measured_packets_ejected"]
        if scenario.faulted:
            assert len(golden["faults"]["failed_links"]) == 1


def test_edge_goldens_have_expected_shape():
    """The edge fixtures cover exactly the regimes they are named after."""
    by_label = {}
    for scenario in EDGE_SCENARIOS:
        with open(scenario.path, "r", encoding="utf-8") as handle:
            by_label[scenario.label] = json.load(handle)
    # An empty generation schedule creates (and therefore ejects) nothing,
    # but the engines must still agree on every phase boundary.
    zero = by_label["zero-load"]
    assert zero["injection_rate"] == 0.0
    assert zero["result"]["measured_packets_ejected"] == 0
    assert zero["latency_histogram"] == []
    # The minimum topology and the saturated shallow-buffer point both
    # carry real measured traffic.
    assert by_label["two-router"]["result"]["measured_packets_ejected"] > 0
    backpressure = by_label["backpressure"]
    assert backpressure["config"]["buffer_depth_flits"] == 2
    assert backpressure["result"]["measured_packets_ejected"] > 0
    # The doubly-degraded topology really lost two links.
    assert len(by_label["two-link-faults"]["faults"]["failed_links"]) == 2


def test_staged_goldens_have_expected_shape():
    """The staged fixtures pin the mode and diverge from their single twins."""
    for scenario in STAGED_SCENARIOS:
        with open(scenario.path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert golden["config"]["router_pipeline"] == "staged"
        assert golden["result"]["measured_packets_ejected"] > 0
    # The explicit pipeline really changes timing: the staged healthy
    # hexamesh must not accidentally reproduce the single-stage fixture.
    with open(os.path.join(GOLDEN_DIR, "hexamesh7-staged-healthy.json")) as handle:
        staged = json.load(handle)
    with open(os.path.join(GOLDEN_DIR, "hexamesh7-healthy.json")) as handle:
        single = json.load(handle)
    assert staged["latency_histogram"] != single["latency_histogram"]


@pytest.mark.parametrize("switch", FORCED_KERNEL_SWITCHES, ids=lambda s: f"{s[0]}={s[1]}")
@pytest.mark.parametrize("scenario", FORCED_SWITCH_SCENARIOS, ids=lambda s: s.name)
def test_forced_kernel_switches_reproduce_goldens(scenario, switch, monkeypatch):
    """Either side of each kernel size switch alone matches the reference."""
    legacy = build_payload(scenario, "legacy")
    monkeypatch.setattr(array_kernel, *switch)
    assert build_payload(scenario, "vectorized") == legacy
