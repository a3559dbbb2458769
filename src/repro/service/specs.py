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
from typing import Any, Mapping

from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.noc.traffic import available_traffic_patterns
from repro.resilience.sweep import FAULT_TYPES
from repro.utils.validation import check_in_choices, check_positive_int
from repro.workloads import available_mappers, available_workloads

#: Arrangement families of the paper.
ARRANGEMENT_KINDS = ("grid", "brickwall", "honeycomb", "hexamesh")

#: Regularity classes accepted by arrangement generators.
REGULARITIES = ("regular", "semi-regular", "irregular")

#: Job types the service accepts.
JOB_TYPES = ("sweep", "workload", "resilience", "figure7")

#: Figure-7 evaluation modes.
FIGURE7_MODES = ("analytical", "hybrid", "simulation")


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


def _as_list(value: Any, kind: type, name: str) -> tuple:
    """Normalise a scalar-or-list JSON value into a typed tuple."""
    if value is None:
        raise ValueError(f"spec field {name!r} must not be null")
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [value]
    if not items:
        raise ValueError(f"spec field {name!r} must name at least one value")
    try:
        return tuple(kind(item) for item in items)
    except (TypeError, ValueError) as error:
        raise ValueError(f"spec field {name!r}: {error}") from error


def _as_scalar(value: Any, kind: type, name: str) -> Any:
    """Normalise a single JSON value (the scalar twin of :func:`_as_list`)."""
    if value is None:
        raise ValueError(f"spec field {name!r} must not be null")
    if isinstance(value, (list, tuple, Mapping)):
        raise ValueError(f"spec field {name!r} takes a single value, got {type(value).__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError) as error:
        raise ValueError(f"spec field {name!r}: {error}") from error


def _listed(kind: type, *, optional: bool = False):
    """Field normaliser ``(value, name) -> tuple`` for a list field (null if ``optional``)."""
    return lambda v, name: None if optional and v is None else _as_list(v, kind, name)


def _scalar(kind: type, *, optional: bool = False):
    """Field normaliser ``(value, name) -> value`` for a scalar field (null if ``optional``)."""
    return lambda v, name: None if optional and v is None else _as_scalar(v, kind, name)


# Per-type field tables: name -> (normaliser, default).  Normalisers
# receive the raw JSON value and the field name and return the canonical
# form (tuples for lists).  These tables are the only source of
# defaults: the CLI leaves an unset flag out of the spec, so a bare
# ``{"type": ...}`` runs exactly what the flagless command does.


def _common_fields() -> dict[str, tuple]:
    return {
        "cycles": (_scalar(int), 1000),
        "seed": (_scalar(int), 1),
        "engine": (_scalar(str), DEFAULT_ENGINE),
        "jobs": (_scalar(int), 1),
    }


def _spec_fields(job_type: str) -> dict[str, tuple]:
    fields = _common_fields()
    if job_type == "sweep":
        fields.update(
            kinds=(_listed(str), ("grid", "brickwall", "hexamesh")),
            chiplets=(_listed(int), (16, 36, 64)),
            rates=(_listed(float), (0.02, 0.1, 0.3, 0.5, 1.0)),
            traffic=(_listed(str), ("uniform",)),
            regularity=(_scalar(str, optional=True), None),
        )
    elif job_type == "workload":
        fields.update(
            workloads=(_listed(str), ("dnn-pipeline",)),
            arrangements=(_listed(str), ("hexamesh",)),
            chiplets=(_listed(int), (37,)),
            mappers=(_listed(str), ("partition",)),
            tasks=(_scalar(int, optional=True), None),
            injection_rate=(_scalar(float), 0.1),
            regularity=(_scalar(str, optional=True), None),
        )
    elif job_type == "resilience":
        fields.update(
            kinds=(_listed(str), ("grid", "brickwall", "hexamesh")),
            chiplets=(_scalar(int), 37),
            failures=(_listed(int), (0, 1, 2, 4)),
            fault_type=(_scalar(str), "link"),
            samples=(_scalar(int), 2),
            injection_rate=(_scalar(float), 0.1),
            injection_rates=(_listed(float, optional=True), None),
            traffic=(_scalar(str), "uniform"),
            regularity=(_scalar(str, optional=True), None),
        )
    elif job_type == "figure7":
        # Figure 7 runs the paper's evaluation parameters over its 2-100
        # chiplet range; it has no cycles/seed knobs.
        del fields["cycles"], fields["seed"]
        fields.update(
            max_chiplets=(_scalar(int), 100),
            mode=(_scalar(str), "analytical"),
            sim_points=(_listed(int, optional=True), None),
        )
    else:  # pragma: no cover - guarded by the caller
        raise ValueError(f"unknown job type {job_type!r}")
    return fields


def _check_spec(job_type: str, params: dict[str, Any]) -> None:
    """Cross-field validation after normalisation (fail before running)."""
    check_in_choices("engine", params["engine"], ENGINE_NAMES)
    if "cycles" in params:
        check_positive_int("cycles", params["cycles"])
    check_positive_int("jobs", params["jobs"])
    if job_type == "sweep":
        for kind in params["kinds"]:
            check_in_choices("kind", kind, ARRANGEMENT_KINDS)
        for traffic in params["traffic"]:
            check_in_choices("traffic", traffic, available_traffic_patterns())
    elif job_type == "workload":
        for kind in params["workloads"]:
            check_in_choices("workload kind", kind, available_workloads())
        for arrangement in params["arrangements"]:
            check_in_choices("arrangement", arrangement, ARRANGEMENT_KINDS)
        for mapper in params["mappers"]:
            check_in_choices("mapper", mapper, available_mappers())
    elif job_type == "resilience":
        for kind in params["kinds"]:
            check_in_choices("kind", kind, ARRANGEMENT_KINDS)
        check_in_choices("fault_type", params["fault_type"], FAULT_TYPES)
        check_in_choices("traffic", params["traffic"], available_traffic_patterns())
    elif job_type == "figure7":
        check_in_choices("mode", params["mode"], FIGURE7_MODES)
        check_positive_int("max_chiplets", params["max_chiplets"])
    regularity = params.get("regularity")
    if regularity is not None:
        check_in_choices("regularity", regularity, REGULARITIES)


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
    fields = _spec_fields(job_type)
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ValueError(
            f"unknown {job_type} spec field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(fields))})"
        )
    params = {
        name: normalise(payload[name], name) if name in payload else default
        for name, (normalise, default) in fields.items()
    }
    _check_spec(job_type, params)
    return JobSpec(
        job_type=job_type,
        params=tuple(sorted(params.items())),
    )
