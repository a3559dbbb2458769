"""Import layering: the simulator and the result store sit at the bottom.

No module under ``repro/noc/`` or ``repro/store/`` may import from the
layers built on top of them — ``repro.core``, ``repro.service``,
``repro.evaluation``, ``repro.resilience`` or ``repro.cli`` — except the
function-local imports listed in :data:`ALLOWED`, which predate the rule.
The allow-list may only shrink: an entry whose import has gone fails the
test as well, so removing an upward import removes its entry with it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages that must not reach up the stack.
LOWER_PACKAGES: tuple[str, ...] = ("noc", "store")

#: Modules (and their submodules) the lower packages must not import.
UPPER_MODULES: tuple[str, ...] = (
    "repro.core",
    "repro.service",
    "repro.evaluation",
    "repro.resilience",
    "repro.cli",
)

#: ``(file under repro/, enclosing function, imported module)`` of every
#: tolerated upward import.  Delete entries; never add one.
ALLOWED: frozenset[tuple[str, str, str]] = frozenset(
    {
        ("noc/sweep.py", "run_injection_sweep", "repro.core.parallel"),
        ("store/verify.py", "candidate_from_key_dict", "repro.core.parallel"),
        ("store/verify.py", "verify_entry", "repro.core.parallel"),
    }
)


def _module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(node: ast.AST, module: str, is_package: bool) -> list[str]:
    """Absolute names of the modules an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        base = node.module or ""
    else:
        package = module.split(".") if is_package else module.split(".")[:-1]
        package = package[: len(package) - (node.level - 1)]
        base = ".".join(package + ([node.module] if node.module else []))
    if _is_upper(base):
        return [base]
    # ``from repro import core`` imports the submodule ``repro.core``.
    return [f"{base}.{alias.name}" for alias in node.names]


def _is_upper(name: str) -> bool:
    return any(name == upper or name.startswith(upper + ".") for upper in UPPER_MODULES)


def _upward_imports() -> list[tuple[str, str, str, int]]:
    """Every upward import as ``(file, enclosing function, module, line)``.

    The enclosing function is ``""`` for a module-level import.
    """
    found = []
    for package in LOWER_PACKAGES:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            module = _module_name(path)
            relative = path.relative_to(PACKAGE_ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

            def visit(node: ast.AST, function: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(child, child.name)
                        continue
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        names = _imported_modules(
                            child, module, path.name == "__init__.py"
                        )
                        for name in names:
                            if _is_upper(name):
                                found.append((relative, function, name, child.lineno))
                    visit(child, function)

            visit(tree, "")
    return found


def test_lower_layers_import_nothing_from_upper_layers():
    violations = [
        f"{path}:{line} imports {name}"
        + (f" in {function}()" if function else " at module level")
        for path, function, name, line in _upward_imports()
        if (path, function, name) not in ALLOWED
    ]
    assert not violations, "upward imports:\n" + "\n".join(violations)


def test_allow_list_has_no_stale_entries():
    found = {(path, function, name) for path, function, name, _ in _upward_imports()}
    stale = sorted(ALLOWED - found)
    assert not stale, f"delete these allow-list entries, the imports are gone: {stale}"


def test_allowed_imports_are_function_local():
    assert all(function for _, function, _ in ALLOWED)


def test_detector_resolves_relative_and_package_imports():
    """The scanner sees the spellings an upward import could take."""
    module = "repro.noc.sweep"
    for source, expected in [
        ("import repro.core.parallel", "repro.core.parallel"),
        ("from repro.service import jobs", "repro.service"),
        ("from repro import cli", "repro.cli"),
        ("from ..core.parallel import SweepCandidate", "repro.core.parallel"),
        ("from .. import evaluation", "repro.evaluation"),
    ]:
        node = ast.parse(source).body[0]
        names = _imported_modules(node, module, is_package=False)
        assert expected in names, (source, names)
        assert any(_is_upper(name) for name in names)
    node = ast.parse("from .engine import run_legacy_loop").body[0]
    names = _imported_modules(node, module, is_package=False)
    assert not any(_is_upper(name) for name in names)
