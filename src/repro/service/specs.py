"""Job specifications of the exploration service.

A job spec is the wire-level description of one unit of exploration
work: a job type (``sweep``, ``workload``, ``resilience`` or
``figure7``) plus the parameters the corresponding runner needs.  Specs
arrive as plain JSON dicts (from the Python API or over the service
socket), are validated and normalised here — defaults filled in, lists
canonicalised, unknown fields rejected — and travel onward as frozen
:class:`JobSpec` objects whose canonical JSON form doubles as an
identity: two submissions of the same exploration produce equal specs,
which is what lets the :class:`~repro.service.jobs.JobManager` treat a
warm resubmission as the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.arrangements.base import ArrangementKind, Regularity
from repro.evaluation.performance import FIGURE7_MODES
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.noc.traffic import available_traffic_patterns
from repro.resilience.sweep import FAULT_TYPES
from repro.utils.validation import check_in_choices, check_positive_int
from repro.workloads import available_mappers, available_workloads

#: Arrangement families of the paper.
ARRANGEMENT_KINDS = tuple(kind.value for kind in ArrangementKind)

#: Regularity classes accepted by arrangement generators.
REGULARITIES = tuple(regularity.value for regularity in Regularity)


def phase_config(cycles: int, *, seed: int | None = None) -> SimulationConfig:
    """Simulation phase lengths scaled from a ``cycles`` knob.

    Shared by the CLI's ``simulate`` / ``trace`` commands and every job
    spec, so the job executor runs exactly the phases those commands do.
    """
    return SimulationConfig(
        warmup_cycles=max(100, cycles // 2),
        measurement_cycles=cycles,
        drain_cycles=cycles * 2,
        **({} if seed is None else {"seed": seed}),
    )


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalised job description.

    ``params`` is stored as a canonical sorted ``(name, value)`` tuple
    (lists rendered as tuples) so equal explorations compare and hash
    equal; :meth:`as_dict` restores the JSON-able form.
    """

    job_type: str
    params: tuple[tuple[str, Any], ...]

    def param(self, name: str) -> Any:
        """The value of one normalised parameter."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able rendering (inverse of :func:`job_spec`)."""
        data: dict[str, Any] = {"type": self.job_type}
        for key, value in self.params:
            data[key] = list(value) if isinstance(value, tuple) else value
        return data

    def canonical_json(self) -> str:
        """Canonical JSON identity of this spec."""
        return json.dumps(self.as_dict(), sort_keys=True)

    def config(self) -> SimulationConfig:
        """The simulation configuration this spec's candidates run with."""
        return phase_config(self.param("cycles"), seed=self.param("seed"))


@dataclass(frozen=True)
class SpecField:
    """One job option: its normalisation, default, valid values and CLI flag.

    The per-type tables in :data:`SPEC_FIELDS` are the only declaration of
    a job option: :func:`job_spec` validates against them and the CLI
    builds its spec-backed flags from them.
    """

    name: str
    element: type
    default: Any
    help: str
    listed: bool = False
    optional: bool = False
    #: Valid values: a tuple, a callable returning one, or ``None`` for any.
    values: tuple | Callable[[], tuple] | None = None
    #: CLI flag where it is not ``--<name>``.
    cli_flag: str | None = None

    @property
    def flag(self) -> str:
        """The CLI flag that sets this field."""
        return self.cli_flag or "--" + self.name.replace("_", "-")

    def valid_values(self) -> tuple | None:
        """The accepted values (``None`` when any value of the type is)."""
        return self.values() if callable(self.values) else self.values

    def normalise(self, value: Any) -> Any:
        """Canonical form of a raw JSON value: tuples for lists, typed scalars."""
        if value is None:
            if self.optional:
                return None
            raise ValueError(f"spec field {self.name!r} must not be null")
        if self.listed:
            items = value if isinstance(value, (list, tuple)) else [value]
            if not items:
                raise ValueError(f"spec field {self.name!r} must name at least one value")
        elif isinstance(value, (list, tuple, Mapping)):
            raise ValueError(
                f"spec field {self.name!r} takes a single value, got {type(value).__name__}"
            )
        else:
            items = [value]
        try:
            typed = tuple(self.element(item) for item in items)
        except (TypeError, ValueError) as error:
            raise ValueError(f"spec field {self.name!r}: {error}") from error
        valid = self.valid_values()
        if valid is not None:
            for item in typed:
                check_in_choices(self.name, item, valid)
        return typed if self.listed else typed[0]


def _table(*fields: SpecField) -> dict[str, SpecField]:
    return {field.name: field for field in fields}


_KINDS = SpecField(
    "kinds",
    str,
    ("grid", "brickwall", "hexamesh"),
    "arrangement kinds",
    listed=True,
    values=ARRANGEMENT_KINDS,
)
_REGULARITY = SpecField(
    "regularity",
    str,
    None,
    "force one regularity class for every arrangement "
    "(default: best available per chiplet count)",
    optional=True,
    values=REGULARITIES,
)
_ENGINE = SpecField(
    "engine",
    str,
    DEFAULT_ENGINE,
    "cycle-loop engine (all engines are bit-identical)",
    values=ENGINE_NAMES,
)
_JOBS = SpecField("jobs", int, 1, "worker processes")
_PHASE_FIELDS = (
    SpecField("cycles", int, 1000, "measurement cycles (warm-up and drain scale with it)"),
    SpecField("seed", int, 1, "base RNG seed"),
    _ENGINE,
    _JOBS,
)

#: Per-type field tables, the only source of defaults: the CLI leaves an
#: unset flag out of the spec, so a bare ``{"type": ...}`` runs exactly
#: what the flagless command does.
SPEC_FIELDS: dict[str, dict[str, SpecField]] = {
    "sweep": _table(
        _KINDS,
        SpecField("chiplets", int, (16, 36, 64), "chiplet counts", listed=True),
        SpecField(
            "rates",
            float,
            (0.02, 0.1, 0.3, 0.5, 1.0),
            "injection rates (flits/cycle/endpoint)",
            listed=True,
        ),
        SpecField(
            "traffic",
            str,
            ("uniform",),
            "traffic patterns",
            listed=True,
            values=available_traffic_patterns,
        ),
        _REGULARITY,
        *_PHASE_FIELDS,
    ),
    "workload": _table(
        SpecField(
            "workloads",
            str,
            ("dnn-pipeline",),
            "workload kinds",
            listed=True,
            values=available_workloads,
            cli_flag="--kind",
        ),
        SpecField(
            "arrangements",
            str,
            ("hexamesh",),
            "arrangement kinds",
            listed=True,
            values=ARRANGEMENT_KINDS,
            cli_flag="--arrangement",
        ),
        SpecField("chiplets", int, (37,), "chiplet counts", listed=True),
        SpecField(
            "mappers",
            str,
            ("partition",),
            "task-to-chiplet mappers",
            listed=True,
            values=available_mappers,
            cli_flag="--mapper",
        ),
        SpecField(
            "tasks", int, None, "tasks per workload (default: the chiplet count)", optional=True
        ),
        SpecField("injection_rate", float, 0.1, "offered load of the heaviest source endpoint"),
        _REGULARITY,
        *_PHASE_FIELDS,
    ),
    "resilience": _table(
        _KINDS,
        SpecField("chiplets", int, 37, "chiplet count shared by every arrangement"),
        SpecField(
            "failures",
            int,
            (0, 1, 2, 4),
            "failure counts (include 0 for the baseline)",
            listed=True,
        ),
        SpecField(
            "fault_type",
            str,
            "link",
            "what fails: links, routers, or an even mix",
            values=FAULT_TYPES,
        ),
        SpecField("samples", int, 2, "independent fault draws per (kind, failure count)"),
        SpecField("injection_rate", float, 0.1, "offered load (flits/cycle/endpoint)"),
        SpecField(
            "injection_rates",
            float,
            None,
            "injection rates; several turn each degradation curve into a surface "
            "(rows gain a rate column) and override injection_rate",
            listed=True,
            optional=True,
        ),
        SpecField("traffic", str, "uniform", "traffic pattern", values=available_traffic_patterns),
        _REGULARITY,
        *_PHASE_FIELDS,
    ),
    # Figure 7 runs the paper's evaluation parameters over its 2-100
    # chiplet range; it has no cycles/seed knobs.
    "figure7": _table(
        SpecField(
            "max_chiplets", int, 100, "largest chiplet count (figure 6 starts at 1, figure 7 at 2)"
        ),
        SpecField("mode", str, "analytical", "Figure 7 evaluation mode", values=FIGURE7_MODES),
        SpecField(
            "sim_points",
            int,
            None,
            "chiplet counts to simulate (hybrid mode; simulation mode: all)",
            listed=True,
            optional=True,
        ),
        _ENGINE,
        _JOBS,
    ),
}

#: Job types the service accepts.
JOB_TYPES = tuple(SPEC_FIELDS)


def _check_spec(params: dict[str, Any]) -> None:
    """Cross-field validation after normalisation (fail before running)."""
    for name in ("cycles", "jobs", "max_chiplets"):
        if name in params:
            check_positive_int(name, params[name])


def job_spec(data: Mapping[str, Any]) -> JobSpec:
    """Validate and normalise a raw JSON job description.

    ``data`` must carry a ``type`` field naming one of :data:`JOB_TYPES`;
    every other field is type-specific, scalar-or-list values are
    accepted for list fields, defaults fill in the rest, and unknown
    fields are rejected (a typo'd knob must not silently run the default
    exploration).
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"job spec must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    job_type = payload.pop("type", None)
    if job_type is None:
        raise ValueError(f"job spec needs a 'type' field (one of {', '.join(JOB_TYPES)})")
    check_in_choices("type", job_type, JOB_TYPES)
    fields = SPEC_FIELDS[job_type]
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ValueError(
            f"unknown {job_type} spec field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(fields))})"
        )
    params = {
        name: field.normalise(payload[name]) if name in payload else field.default
        for name, field in fields.items()
    }
    _check_spec(params)
    return JobSpec(
        job_type=job_type,
        params=tuple(sorted(params.items())),
    )
