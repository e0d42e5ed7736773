"""Majorization, thermo-majorization, and flexible-catalyst search tools."""

import importlib

from .conditions import (
    adjacent_ratio_bound_ok,
    boundary_ratios_ok,
    boundary_rigidity_holds,
    d3_no_go,
    endpoint_conditions_ok,
    k2_standard_witness,
    ratio_bound_holds,
    support_size_uniform,
)
from .errors import (
    BadNormalization,
    BadRange,
    DimensionMismatch,
    EmptyCycle,
    EmptyVector,
    EmptyViolationSet,
    FlexcatError,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotFeasible,
    NotSorted,
    PreconditionUnmet,
    SamplingFailed,
    WrongDimension,
    ZeroTail,
)
from .majorize import (
    ViolationReport,
    flexible_cycle_ok,
    incomparable,
    is_majorized_by,
    standard_catalysis_ok,
    vidal_probability,
    violation_indices,
)
from .probvec import (
    Cycle,
    GibbsVec,
    ProbVec,
    SchmidtVec,
    gibbs_vector,
    make_cycle,
    make_prob_vec,
    sort_desc,
    tail_sum,
    tensor,
    uniform,
)

# search and thermo import numpy, so their names are bound on first access
# (PEP 562): the scalar API and CLI commands start without numpy. The first
# access binds every such name, and each later one is a plain global lookup.
_LAZY = {
    "search": (
        "ConjectureCandidate",
        "ConjectureReport",
        "GridSpec",
        "LandscapeGrid",
        "OptResult",
        "best_flexible",
        "best_standard",
        "conjecture_search",
        "per_step_probability",
        "sample_incomparable_pair",
        "scan_pflex_landscape",
        "scan_thermo_feasibility",
        "scan_thermo_standard",
    ),
    "thermo": (
        "LorenzCurve",
        "curve_geq",
        "gibbs_tensor",
        "lorenz_curve",
        "thermo_flexible_ok",
        "thermo_majorizes",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY and not any(name in names for names in _LAZY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _LAZY.items():
        # importing a submodule also binds it here, as flexcat.search etc.
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *(n for names in _LAZY.values() for n in names)})


__version__ = "0.1.0"

__all__ = [
    "BadNormalization",
    "BadRange",
    "ConjectureCandidate",
    "ConjectureReport",
    "Cycle",
    "DimensionMismatch",
    "EmptyCycle",
    "EmptyVector",
    "EmptyViolationSet",
    "FlexcatError",
    "GibbsVec",
    "GridSpec",
    "IndexOutOfRange",
    "LandscapeGrid",
    "LorenzCurve",
    "NegativeEntry",
    "NonFiniteEntry",
    "NotFeasible",
    "NotSorted",
    "OptResult",
    "PreconditionUnmet",
    "ProbVec",
    "SamplingFailed",
    "SchmidtVec",
    "ViolationReport",
    "WrongDimension",
    "ZeroTail",
    "adjacent_ratio_bound_ok",
    "best_flexible",
    "best_standard",
    "boundary_ratios_ok",
    "boundary_rigidity_holds",
    "conjecture_search",
    "curve_geq",
    "d3_no_go",
    "endpoint_conditions_ok",
    "flexible_cycle_ok",
    "gibbs_tensor",
    "gibbs_vector",
    "incomparable",
    "is_majorized_by",
    "k2_standard_witness",
    "lorenz_curve",
    "make_cycle",
    "make_prob_vec",
    "per_step_probability",
    "ratio_bound_holds",
    "sample_incomparable_pair",
    "scan_pflex_landscape",
    "scan_thermo_feasibility",
    "scan_thermo_standard",
    "sort_desc",
    "standard_catalysis_ok",
    "support_size_uniform",
    "tail_sum",
    "tensor",
    "thermo_flexible_ok",
    "thermo_majorizes",
    "uniform",
    "vidal_probability",
    "violation_indices",
]
