"""The simulation-mode registry shared by the equivalence-style suites.

Not a test module: ``tests/conftest.py`` turns these into fixtures, and
``test_noc_engine.py`` / ``test_noc_invariants.py`` /
``test_golden_traces.py`` / ``test_properties.py`` import the helper and
constants directly (pytest's default ``prepend`` import mode puts
``tests/`` on ``sys.path``, mirroring ``fault_scenarios.py``).  Adding a
new engine (or engine mode, like the batched path) to ``FAST_SIM_MODES``
enrols it in every equivalence, invariant, golden-trace and property grid
at once.

The batched modes evaluate the requested point as the *second* point of
a two-point batch, after a lead point at another rate and seed: batching
promises bit-identical per-point results, so any state one point leaves
behind in the shared build — the reused network and, for ``"batched"``,
the one set of array-kernel state arrays — shows up as a divergence from
the legacy run.
"""

from __future__ import annotations

from repro.noc.simulator import BatchPoint, NocSimulator

#: The array-kernel modes: one ``NocSimulator.run(engine="vectorized")``
#: plus the batched multi-point path (``NocSimulator.run_batch``, which
#: drives the same kernel).  The hypothesis properties sample from these.
FAST_SIM_MODES: tuple[str, ...] = ("vectorized", "batched")

#: Every way to run the cycle-accurate simulator that must be
#: *bit-identical* to one legacy ``NocSimulator.run``: the fast modes plus
#: ``"batched-legacy"``, the per-point branch of ``run_batch``
#: (``engine="legacy"``, the branch every staged-pipeline batch takes),
#: which shares one topology, routing-table and traffic build across points.
EQUIVALENT_SIM_MODES: tuple[str, ...] = FAST_SIM_MODES + ("batched-legacy",)

#: The equivalent modes plus the legacy reference itself (for suites that
#: check self-consistency properties rather than equivalence against legacy).
ALL_SIM_MODES: tuple[str, ...] = ("legacy",) + EQUIVALENT_SIM_MODES

#: The batch engine each batched mode hands to ``run_batch``.
BATCH_ENGINES: dict[str, str] = {"batched": "vectorized", "batched-legacy": "legacy"}

#: ``repro.noc.array_kernel``'s size switches, each forced to one side
#: (the kernel reads them as module globals at call time): at ``-1`` every
#: stage takes its array path, at ``1 << 30`` its scalar / enumerating /
#: sequential-tail path.  Otherwise traffic alone picks the side.
FORCED_KERNEL_SWITCHES: tuple[tuple[str, int], ...] = tuple(
    (name, value)
    for name in ("_SCALAR_MAX", "_ENUM_MAX", "_VA_TAIL_MAX")
    for value in (-1, 1 << 30)
)

#: Injection rate of the lead point that runs before the requested point in
#: the batched modes; no suite requests it, so the two points always differ.
LEAD_POINT_RATE = 0.45


def simulate_noc(
    graph,
    config,
    *,
    injection_rate=0.2,
    traffic="uniform",
    faults=None,
    mode="legacy",
    telemetry=None,
):
    """Run one simulation point under a mode; return ``(network, result)``.

    ``mode`` is an engine name or a batched mode (``"batched"`` /
    ``"batched-legacy"``), which evaluates the point through
    :meth:`NocSimulator.run_batch` as the second point of a batch, after a
    lead point at :data:`LEAD_POINT_RATE` with seed ``config.seed + 1``,
    and captures the network through the ``on_point`` hook — so every
    suite can inspect final network state uniformly across modes.
    ``telemetry`` is an optional :class:`~repro.telemetry.TelemetrySession`
    observing the run (in the batched modes it observes the requested
    point only).
    """
    if mode in BATCH_ENGINES:
        captured = {}

        def grab(index, network, result):
            if index == 1:
                captured["network"] = network

        def observe(index, point):
            return telemetry if index == 1 else None

        results = NocSimulator.run_batch(
            graph,
            [
                BatchPoint(LEAD_POINT_RATE, seed=config.seed + 1),
                BatchPoint(injection_rate),
            ],
            config=config,
            traffic=traffic,
            faults=faults,
            engine=BATCH_ENGINES[mode],
            on_point=grab,
            telemetry=None if telemetry is None else observe,
        )
        return captured["network"], results[1]
    simulator = NocSimulator(
        graph, config, injection_rate=injection_rate, traffic=traffic, faults=faults
    )
    result = simulator.run(engine=mode, telemetry=telemetry)
    return simulator.network, result
