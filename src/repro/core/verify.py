"""Store verification: recompute sampled entries and compare bit-for-bit.

A store entry is self-describing: the candidate identity it carries
rebuilds the exact :class:`~repro.core.parallel.SweepCandidate`
(:meth:`~repro.core.parallel.SweepCandidate.from_key_dict`), and the
embedded provenance manifest carries the full simulation configuration
(seed included) the result was produced with.  Verification replays that
simulation and requires the canonical JSON rendering of the result to
match the stored one byte for byte — the strongest possible "this cache
is not lying" check.  The replay runs the default engine (or an explicit
override), not the one the manifest records: the engines are
bit-identical under a fixed seed, and the recorded name is provenance
only — it may name an engine that no longer exists.

The replay goes through :func:`~repro.core.parallel._evaluate_work_item`,
the worker entry point of every sweep, which is why this module lives in
:mod:`repro.core` rather than in :mod:`repro.store`: the store only
stores.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.parallel import (
    SweepCandidate,
    _evaluate_work_item,
    simulation_result_to_dict,
)
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE
from repro.store import ResultStore, StoreEntry, result_key


@dataclass(frozen=True)
class VerifyOutcome:
    """The verdict on one entry: ``ok``, ``mismatch`` or ``skipped``."""

    key: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def canonical_result_json(result: dict[str, Any]) -> str:
    """Canonical rendering used for bit-for-bit result comparison.

    ``NaN`` latencies (empty statistics) serialise deterministically, so
    string equality is exact even for results dict equality cannot
    compare (``NaN != NaN``).
    """
    return json.dumps(result, sort_keys=True)


def verify_entry(entry: StoreEntry, *, engine: str | None = None) -> VerifyOutcome:
    """Recompute one entry's simulation and compare it to the stored result.

    Entries without an embedded manifest (pre-provenance legacy entries)
    cannot be replayed — their exact configuration is unknown — and are
    reported as ``skipped``.  The replay runs ``engine`` if given and
    :data:`~repro.noc.engine.DEFAULT_ENGINE` otherwise; the manifest's
    ``engine`` field is provenance and is not consulted (the engines are
    bit-identical, so the choice only changes wall time).
    """
    manifest = entry.manifest or {}
    config_data = manifest.get("config")
    if not isinstance(config_data, dict):
        return VerifyOutcome(
            entry.key, "skipped", "no embedded manifest config to replay"
        )
    try:
        config = SimulationConfig(**config_data)
        candidate = SweepCandidate.from_key_dict(entry.candidate)
    except (TypeError, ValueError, KeyError) as error:
        return VerifyOutcome(entry.key, "mismatch", f"unreplayable entry: {error}")
    expected_key = result_key(candidate.key_dict(), config_data)
    if expected_key != entry.key:
        return VerifyOutcome(
            entry.key,
            "mismatch",
            "stored key does not hash from the stored candidate + config",
        )
    run_engine = engine if engine is not None else DEFAULT_ENGINE
    ((_, result, wall, ran_engine),) = _evaluate_work_item(
        ([(0, candidate, config.seed)], config, run_engine)
    )
    fresh = canonical_result_json(simulation_result_to_dict(result))
    stored = canonical_result_json(entry.result)
    if fresh != stored:
        return VerifyOutcome(
            entry.key, "mismatch", "recomputed result differs from the stored entry"
        )
    return VerifyOutcome(entry.key, "ok", f"recomputed in {wall:.2f}s ({ran_engine})")


def sample_keys(keys: Sequence[str], sample: int, *, seed: int = 0) -> list[str]:
    """A deterministic sample of ``sample`` keys (seeded, order-stable)."""
    ordered = sorted(keys)
    if sample >= len(ordered):
        return ordered
    return sorted(random.Random(seed).sample(ordered, sample))


def verify_store(
    store: ResultStore,
    *,
    sample: int = 1,
    seed: int = 0,
    engine: str | None = None,
) -> list[VerifyOutcome]:
    """Structurally check every entry, then recompute a deterministic sample.

    The structural pass reads each entry through the store (corrupt
    entries are quarantined and reported as mismatches); the sampled
    entries are then re-simulated and compared bit-for-bit via
    :func:`verify_entry`.
    """
    outcomes: list[VerifyOutcome] = []
    entries: dict[str, StoreEntry] = {}
    for key in store.keys():
        entry = store.get(key)
        if entry is None:
            outcomes.append(
                VerifyOutcome(key, "mismatch", "corrupt or unreadable entry")
            )
        else:
            entries[key] = entry
    for key in sample_keys(list(entries), sample, seed=seed):
        outcomes.append(verify_entry(entries[key], engine=engine))
    return sorted(outcomes, key=lambda outcome: outcome.key)
