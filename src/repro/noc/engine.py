"""The legacy dense cycle loop: the object-model reference engine.

:func:`run_legacy_loop` advances a :class:`~repro.noc.network.Network`
through the warm-up, measurement and drain phases and records the
phase-boundary flit counters that
:class:`~repro.noc.simulator.NocSimulator` turns into a
:class:`~repro.noc.simulator.SimulationResult`.  Every cycle it scans
every channel, steps every endpoint (until the drain phase) and steps
every router, whether or not the component has work to do.

It is the reference of the equivalence test suite: the numpy array
kernel behind :mod:`repro.noc.vec_engine` must leave the network in
bit-identical state under the same configuration and seed, which the
suite checks field by field on the final results.  It is also the only
loop that steps the ``router_pipeline="staged"`` routers, so staged
configurations always run here (see
:meth:`~repro.noc.simulator.NocSimulator.resolve_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.config import SimulationConfig
from repro.noc.network import Network
from repro.telemetry.metrics import sample_object_cycle
from repro.telemetry.session import TelemetrySession, install_probes, uninstall_probes

#: Canonical names of every cycle-loop engine, in default-preference order.
#: ``"vectorized"`` is the default numpy array kernel of
#: :mod:`repro.noc.vec_engine` and ``"legacy"`` the dense object-model
#: reference loop of this module.  Every ``engine=`` validation site
#: (simulator, sweep runner, workload bridge, CLI) imports this tuple so a
#: new engine only has to be registered once.
ENGINE_NAMES: tuple[str, ...] = ("vectorized", "legacy")

DEFAULT_ENGINE = "vectorized"


@dataclass(frozen=True)
class PhaseSnapshots:
    """Flit counters captured at the phase boundaries of one run.

    Attributes
    ----------
    ejected_before_measurement / injected_before_measurement:
        Network totals at the start of the measurement phase.
    ejected_after_measurement / injected_after_measurement:
        Network totals at the end of the measurement phase.
    total_cycles:
        The configured simulation horizon (warm-up + measurement + drain).
    cycles_executed:
        Loop iterations actually performed; smaller than ``total_cycles``
        when the array kernel exited early because the network had fully
        drained.
    """

    ejected_before_measurement: int
    injected_before_measurement: int
    ejected_after_measurement: int
    injected_after_measurement: int
    total_cycles: int
    cycles_executed: int

    @property
    def ejected_during_measurement(self) -> int:
        """Flits ejected within the measurement window."""
        return self.ejected_after_measurement - self.ejected_before_measurement

    @property
    def injected_during_measurement(self) -> int:
        """Flits injected within the measurement window."""
        return self.injected_after_measurement - self.injected_before_measurement


@dataclass
class EngineStats:
    """Instrumentation counters of one array-kernel run.

    These are diagnostics only — they do not feed into the reported
    simulation statistics — but the test-suite uses them to assert that
    the fast path actually skips idle work.
    """

    cycles_executed: int = 0
    channel_deliveries: int = 0
    router_steps: int = 0
    endpoint_steps: int = 0
    early_exit_cycle: int | None = None


def _phase_bounds(config: SimulationConfig) -> tuple[int, int, int]:
    """``(warmup_end, measure_end, total_cycles)`` of a configuration."""
    warmup_end = config.warmup_cycles
    measure_end = warmup_end + config.measurement_cycles
    total_cycles = measure_end + config.drain_cycles
    return warmup_end, measure_end, total_cycles


def _injected_total(network: Network) -> int:
    return sum(endpoint.injected_flits for endpoint in network.endpoints)


def run_legacy_loop(
    network: Network,
    config: SimulationConfig,
    *,
    telemetry: TelemetrySession | None = None,
) -> PhaseSnapshots:
    """The original dense cycle loop: step everything, every cycle."""
    warmup_end, measure_end, total_cycles = _phase_bounds(config)

    ejected_before = ejected_after = 0
    injected_before = injected_after = 0

    metrics = telemetry.metrics if telemetry is not None else None
    observed = telemetry is not None and telemetry.observes_network
    if observed:
        install_probes(network.routers, network.endpoints, telemetry)

    try:
        for cycle in range(total_cycles):
            if cycle == warmup_end:
                ejected_before = network.total_ejected_flits()
                injected_before = _injected_total(network)
            if cycle == measure_end:
                ejected_after = network.total_ejected_flits()
                injected_after = _injected_total(network)

            measured_phase = warmup_end <= cycle < measure_end
            network.deliver_channels(cycle)
            # During the drain phase the sources stop creating new packets so
            # that in-flight measured packets can reach their destinations.
            if cycle < measure_end:
                network.step_endpoints(cycle, measured_phase=measured_phase)
            network.step_routers(cycle)
            if metrics is not None:
                sample_object_cycle(network.routers, network.endpoints, metrics)
    finally:
        if observed:
            uninstall_probes(network.routers, network.endpoints)
    if metrics is not None:
        metrics.finalize(total_cycles)

    if config.drain_cycles == 0:
        ejected_after = network.total_ejected_flits()
        injected_after = _injected_total(network)

    return PhaseSnapshots(
        ejected_before_measurement=ejected_before,
        injected_before_measurement=injected_before,
        ejected_after_measurement=ejected_after,
        injected_after_measurement=injected_after,
        total_cycles=total_cycles,
        cycles_executed=total_cycles,
    )

