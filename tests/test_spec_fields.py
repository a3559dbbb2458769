"""The job-spec field table is the only declaration of a job option.

``repro.service.specs.SPEC_FIELDS`` drives both surfaces: ``job_spec``
validates against it, the spec-backed CLI commands build one flag per
field from it, and ``docs/JOBSPEC.md`` is rendered from it.  After a
change to the table, regenerate the reference with::

    PYTHONPATH=src python tests/test_spec_fields.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.service.specs import SPEC_FIELDS

REFERENCE = Path(__file__).resolve().parent.parent / "docs" / "JOBSPEC.md"

#: job type -> the command line (with positionals) that runs it.
COMMANDS = {
    "sweep": ["sweep"],
    "workload": ["workload"],
    "resilience": ["faults"],
    "figure7": ["figure", "7"],
}

#: The options of each command that are no spec field.
CLI_ONLY = {
    "sweep": {"--cache-dir", "--output", "--progress"},
    "workload": {"--cache-dir", "--output", "--progress"},
    "resilience": {"--cache-dir", "--output", "--progress", "--fail-links", "--fail-routers"},
    "figure7": {"--cache-dir", "--output", "number"},
}


def _subcommands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """``(argv prefix, parser)`` of every (nested) subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _subcommands(sub, path + (name,))


def _options(job_type: str) -> list[argparse.Action]:
    """The options of ``job_type``'s command, ``--help`` aside."""
    parsers = dict(_subcommands(cli._build_parser()))
    command = parsers[(COMMANDS[job_type][0],)]
    return [action for action in command._actions if action.dest != "help"]


def _other_value(field) -> tuple[str, object]:
    """A valid non-default value of ``field``: ``(CLI text, spec value)``."""
    candidates = field.valid_values() or {int: (3, 4), float: (0.25, 0.5)}[field.element]
    for value in candidates:
        spec_value = (value,) if field.listed else value
        if spec_value != field.default:
            return str(value), spec_value
    raise AssertionError(f"{field.name} has no value besides its default")


@pytest.mark.parametrize("job_type", sorted(SPEC_FIELDS))
def test_every_field_is_one_flag_whose_value_lands_in_the_spec(job_type):
    parser = cli._build_parser()
    options = _options(job_type)
    for name, field in SPEC_FIELDS[job_type].items():
        assert [action.option_strings for action in options if action.dest == name] == [
            [field.flag]
        ]
        text, expected = _other_value(field)
        args = parser.parse_args([*COMMANDS[job_type], field.flag, text])
        assert cli._spec(job_type, args).param(name) == expected
        if field.listed and field.valid_values():
            args = parser.parse_args([*COMMANDS[job_type], field.flag, "all"])
            assert cli._spec(job_type, args).param(name) == field.valid_values()


@pytest.mark.parametrize("job_type", sorted(SPEC_FIELDS))
def test_the_other_options_are_the_cli_only_set(job_type):
    fields = SPEC_FIELDS[job_type]
    others = {
        action.option_strings[0] if action.option_strings else action.dest
        for action in _options(job_type)
        if action.dest not in fields
    }
    assert others == CLI_ONLY[job_type]


@pytest.mark.parametrize(
    "argv", [list(path) for path, _ in _subcommands(cli._build_parser())], ids=" ".join
)
def test_help_renders_for_every_subcommand(argv, capsys):
    # argparse %-formats help strings only when it renders them.
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hexamesh")


_HEADER = """\
# Job-spec field reference

Rendered from `repro.service.specs.SPEC_FIELDS` by
`tests/test_spec_fields.py`, whose tier-1 test fails when this file and
the table disagree. Regenerate it with
`PYTHONPATH=src python tests/test_spec_fields.py`.

A job spec is a JSON object with a `type` and any of that type's
fields; a field left out takes its default. The CLI command of each
type takes one flag per field, and an unset flag leaves the default.
List fields take comma lists on the command line, where `all` expands to
the field's valid values.

| job type | field | CLI flag | type | default | valid values | help |
|----------|-------|----------|------|---------|--------------|------|
"""


def render_reference() -> str:
    """``docs/JOBSPEC.md``: one row per job type and field."""
    rows = []
    for job_type, fields in SPEC_FIELDS.items():
        for name, field in fields.items():
            kind = field.element.__name__
            if field.listed:
                kind = f"list of {kind}"
            if field.optional:
                kind += " or null"
            values = field.valid_values()
            cells = [
                f"`{job_type}`",
                f"`{name}`",
                f"`{' '.join(COMMANDS[job_type])} {field.flag}`",
                kind,
                f"`{json.dumps(field.default)}`",
                ", ".join(values) if values else "any",
                field.help,
            ]
            rows.append(f"| {' | '.join(cells)} |\n")
    return _HEADER + "".join(rows)


def test_the_field_reference_is_current():
    assert REFERENCE.read_text(encoding="utf-8") == render_reference()


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(render_reference(), encoding="utf-8")
    print(f"wrote {REFERENCE}")
