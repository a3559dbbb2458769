"""High-level design API.

:class:`ChipletDesign` is the main entry point of the library: it bundles
an arrangement, the solved chiplet shape, the D2D link model and the
performance proxies / estimates of one design point, and exposes the
paper's methodology (graph proxies, link bandwidth, analytical or
cycle-accurate performance) through a single object.

:class:`DesignSpaceExplorer` sweeps chiplet counts and arrangement families
and ranks the resulting designs, which is how a user of the library would
actually pick an arrangement for a given product.

:class:`ParallelSweepRunner` evaluates grids of cycle-accurate candidates
across worker processes.  It groups candidates that differ only in their
injection rate, so they share one topology / routing-table build; the
grouping is automatic and never changes a result.
"""

from repro.core.design import ChipletDesign
from repro.core.explorer import (
    DesignSpaceExplorer,
    ExplorationRecord,
    WorkloadExplorationRecord,
)
from repro.core.parallel import (
    InFlightRegistry,
    ParallelSweepRunner,
    SweepCandidate,
    SweepRecord,
    derive_candidate_seed,
    is_inline,
    parallel_map,
    resolve_workload_candidate,
)
from repro.core.report import DesignComparison, compare_designs

__all__ = [
    "ChipletDesign",
    "DesignComparison",
    "DesignSpaceExplorer",
    "ExplorationRecord",
    "InFlightRegistry",
    "ParallelSweepRunner",
    "SweepCandidate",
    "SweepRecord",
    "WorkloadExplorationRecord",
    "compare_designs",
    "derive_candidate_seed",
    "is_inline",
    "parallel_map",
    "resolve_workload_candidate",
]
