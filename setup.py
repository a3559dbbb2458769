"""Package metadata.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so fully
offline environments — no access to a ``wheel`` distribution, which
modern ``pip install -e .`` needs for PEP 660 editable wheels — can still
perform a development install via ``python setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read the version as text: importing the package would need its
# dependencies installed before setup runs.
INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="hexamesh-repro",
    version=VERSION,
    description=(
        "Reproduction of the HexaMesh (DAC 2023) chiplet-arrangement study: "
        "arrangement generators, D2D link model, cycle-accurate NoC simulator "
        "with two bit-identical engines, parallel sweeps, workloads and "
        "fault-injection resilience analysis"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy backs the spectral partitioner and the vectorized NoC engine's
    # flat tables (the CI examples job used to install it ad hoc).
    install_requires=["numpy"],
    extras_require={
        # `pip install .[bench]` for the pytest-based benchmark modules
        # under benchmarks/ (the `repro bench` harness itself needs no
        # extras — it only uses the stdlib + numpy).
        "bench": ["pytest-benchmark"],
        # pytest-cov backs the CI coverage job (line-coverage floor).
        "test": ["pytest", "pytest-benchmark", "hypothesis", "pytest-cov"],
    },
    entry_points={
        "console_scripts": ["hexamesh = repro.cli:main"],
    },
)
