"""Multi-rate degradation surfaces: equivalence, aggregation, derived metrics.

The batching-gap regression suite: a resilience sweep over several
injection rates — whose rates the runner groups over one build per fault
arrangement — must produce records **bit-identical** to one fresh
per-point simulation per candidate, on any engine, with any worker
count — and the
surface-shaped aggregation (per-rate baselines, the rate selector of
``curve()``, the saturation-rate-vs-faults derived curve) must stay
consistent with the flat summaries.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parallel import ParallelSweepRunner, SweepCandidate, derive_candidate_seed
from repro.noc.config import SimulationConfig
from repro.noc.engine import ENGINE_NAMES
from repro.noc.simulator import NocSimulator
from repro.resilience import (
    EXPLICIT_FAULT_TYPE,
    FAULT_TYPES,
    SUMMARY_FAULT_TYPES,
    normalize_injection_rates,
    resilience_grid,
    run_resilience_sweep,
    summarize_records,
)

FAST_CONFIG = SimulationConfig(
    warmup_cycles=40, measurement_cycles=80, drain_cycles=160
)

#: >= 4 rates x >= 3 fault arrangements (healthy, one failure, two
#: failures), per the surface acceptance grid.
SURFACE_RATES = (0.05, 0.1, 0.2, 0.4)
SURFACE_FAILURES = (0, 1, 2)


def _surface_sweep(**overrides):
    params = dict(
        samples=1,
        config=FAST_CONFIG,
        injection_rates=SURFACE_RATES,
    )
    params.update(overrides)
    return run_resilience_sweep(("grid",), 9, SURFACE_FAILURES, **params)


@pytest.fixture(scope="module")
def reference_sweep():
    """The legacy run every other mode must reproduce exactly."""
    return _surface_sweep(engine="legacy", jobs=1)


class TestSurfaceEquivalence:
    def test_reference_equals_per_point_simulations(self, reference_sweep):
        # One fresh simulator per candidate, with the runner's derived
        # seed: grouping the rates of a fault arrangement changes nothing.
        for record in reference_sweep.records:
            candidate = record.candidate
            expected = NocSimulator(
                candidate.build_graph(),
                replace(FAST_CONFIG, seed=record.seed),
                injection_rate=candidate.injection_rate,
                traffic=candidate.traffic,
            ).run(engine="legacy")
            assert record.seed == derive_candidate_seed(FAST_CONFIG.seed, candidate)
            assert record.result == expected

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_bit_identical_across_engines(self, reference_sweep, engine):
        sweep = _surface_sweep(engine=engine)
        # Point-by-point: same candidates in the same order, each with an
        # identical simulation result.
        assert [r.candidate for r in sweep.records] == [
            r.candidate for r in reference_sweep.records
        ]
        assert [r.result for r in sweep.records] == [
            r.result for r in reference_sweep.records
        ]
        assert sweep.summaries == reference_sweep.summaries

    def test_jobs_do_not_change_the_surface(self, reference_sweep):
        sweep = _surface_sweep(engine="vectorized", jobs=2)
        assert [r.result for r in sweep.records] == [
            r.result for r in reference_sweep.records
        ]
        assert sweep.summaries == reference_sweep.summaries

    def test_covers_healthy_and_faulted_points(self, reference_sweep):
        healthy = [
            r for r in reference_sweep.records if r.candidate.fault_set.is_empty
        ]
        faulted = [
            r for r in reference_sweep.records if not r.candidate.fault_set.is_empty
        ]
        assert len(healthy) == len(SURFACE_RATES)
        assert len(faulted) == 2 * len(SURFACE_RATES)


class TestSurfaceApi:
    def test_rates_are_recorded_ascending(self, reference_sweep):
        assert reference_sweep.rates() == tuple(sorted(SURFACE_RATES))

    def test_curve_requires_a_rate_selector_on_surfaces(self, reference_sweep):
        with pytest.raises(ValueError, match="injection rates"):
            reference_sweep.curve("grid")

    def test_curve_selects_one_rate(self, reference_sweep):
        curve = reference_sweep.curve("grid", injection_rate=0.1)
        assert [point.num_failures for point in curve] == list(SURFACE_FAILURES)
        assert all(point.injection_rate == 0.1 for point in curve)

    def test_curve_unknown_rate_lists_the_swept_rates(self, reference_sweep):
        with pytest.raises(ValueError, match="swept rates"):
            reference_sweep.curve("grid", injection_rate=0.33)

    def test_single_rate_sweeps_keep_the_selectorless_call_shape(self):
        sweep = _surface_sweep(injection_rates=None, injection_rate=0.1)
        curve = sweep.curve("grid")
        assert [point.num_failures for point in curve] == list(SURFACE_FAILURES)

    def test_surface_is_row_ordered(self, reference_sweep):
        surface = reference_sweep.surface("grid")
        assert len(surface) == len(SURFACE_FAILURES) * len(SURFACE_RATES)
        expected = [
            (failures, rate)
            for failures in SURFACE_FAILURES
            for rate in sorted(SURFACE_RATES)
        ]
        assert [(s.num_failures, s.injection_rate) for s in surface] == expected

    def test_baselines_anchor_per_rate(self, reference_sweep):
        for rate in SURFACE_RATES:
            curve = reference_sweep.curve("grid", injection_rate=rate)
            assert curve[0].num_failures == 0
            assert curve[0].latency_vs_baseline == pytest.approx(1.0)
            assert curve[0].throughput_vs_baseline == pytest.approx(1.0)
            assert not math.isnan(curve[-1].latency_vs_baseline)

    def test_saturation_curve_shape(self, reference_sweep):
        curve = reference_sweep.saturation_curve("grid", threshold=0.01)
        assert [point.num_failures for point in curve] == list(SURFACE_FAILURES)
        for point in curve:
            assert point.kind == "grid"
            assert point.threshold == 0.01
            # Virtually any accepted traffic clears a 1% threshold, so
            # every arrangement sustains the whole swept range.
            assert point.saturation_rate == max(SURFACE_RATES)

    def test_saturation_curve_is_nan_when_nothing_sustains(self, reference_sweep):
        curve = reference_sweep.saturation_curve("grid", threshold=1.0)
        # At threshold 1.0 a point must accept *all* offered traffic;
        # whether any rate clears that is workload-dependent, but the
        # curve must stay well-formed either way.
        for point in curve:
            assert math.isnan(point.saturation_rate) or (
                point.saturation_rate in SURFACE_RATES
            )

    def test_saturation_threshold_validated(self, reference_sweep):
        with pytest.raises(ValueError, match="threshold"):
            reference_sweep.saturation_curve("grid", threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            reference_sweep.saturation_curve("grid", threshold=1.5)


class TestNormalizeInjectionRates:
    def test_none_keeps_the_single_rate(self):
        assert normalize_injection_rates(0.1, None) == (0.1,)

    def test_sorts_and_deduplicates(self):
        assert normalize_injection_rates(0.1, (0.2, 0.05, 0.2)) == (0.05, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one rate"):
            normalize_injection_rates(0.1, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            normalize_injection_rates(0.1, (0.5, 1.5))


class TestExplicitFaultType:
    def test_explicit_is_first_class_but_not_sampleable(self):
        assert EXPLICIT_FAULT_TYPE == "explicit"
        assert EXPLICIT_FAULT_TYPE in SUMMARY_FAULT_TYPES
        assert EXPLICIT_FAULT_TYPE not in FAULT_TYPES

    def test_summarize_accepts_explicit_and_rejects_unknown(self):
        candidates = [
            SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.1),
            SweepCandidate(
                kind="grid", num_chiplets=9, injection_rate=0.1,
                failed_links=((0, 1),),
            ),
        ]
        records = ParallelSweepRunner(FAST_CONFIG).run(candidates)
        summaries = summarize_records(records, fault_type=EXPLICIT_FAULT_TYPE)
        assert all(s.fault_type == "explicit" for s in summaries)
        assert [s.num_failures for s in summaries] == [0, 1]
        with pytest.raises(ValueError, match="fault_type"):
            summarize_records(records, fault_type="meteor")


# -- hypothesis properties over random (rates x fault counts) grids ----------

rate_lists = st.lists(
    st.sampled_from([round(0.01 * step, 2) for step in range(1, 41)]),
    min_size=1,
    max_size=6,
)
count_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)

_GRID_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestGridProperties:
    @_GRID_SETTINGS
    @given(rates=rate_lists, counts=count_lists, samples=st.integers(1, 3))
    def test_grid_covers_every_rate_of_every_fault_arrangement(
        self, rates, counts, samples
    ):
        candidates = resilience_grid(
            ("hexamesh",), 19, counts, samples=samples,
            injection_rates=rates, seed=3,
        )
        unique_rates = tuple(sorted(set(rates)))
        unique_counts = sorted(set(counts))
        arrangements = sum(
            1 if count == 0 else samples for count in unique_counts
        )
        assert len(candidates) == arrangements * len(unique_rates)
        # Every fault arrangement is contiguous in the grid, covering the
        # full ascending rate scan — the exact adjacency the batched
        # runner's batch_key grouping relies on.
        for start in range(0, len(candidates), len(unique_rates)):
            group = candidates[start:start + len(unique_rates)]
            assert len({c.batch_key() for c in group}) == 1
            assert [c.injection_rate for c in group] == list(unique_rates)

    @_GRID_SETTINGS
    @given(rates=rate_lists, counts=count_lists)
    def test_fault_draws_are_rate_independent(self, rates, counts):
        multi = resilience_grid(
            ("hexamesh",), 19, counts, samples=2, injection_rates=rates, seed=3
        )
        single = resilience_grid(
            ("hexamesh",), 19, counts, samples=2, injection_rate=0.1, seed=3
        )
        # Collapsing the rate axis leaves exactly the per-arrangement
        # fault sets, in order: adding rates never changes what fails.
        multi_faults = []
        for candidate in multi:
            if not multi_faults or multi_faults[-1] != candidate.fault_set:
                multi_faults.append(candidate.fault_set)
        assert multi_faults == [candidate.fault_set for candidate in single]
