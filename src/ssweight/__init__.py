"""Exact-arithmetic engine for weight spectral sequences of strictly
semistable degenerations: strata validation, E1/E2 pages, hard Lefschetz /
weight-monodromy / degree-one check suites, bigraded Hodge-Lefschetz module
axioms, and Newton/Hodge polygon calculus."""

from .linalg import (
    RatMatrix,
    Subspace,
    QuotientSpace,
    kernel,
    image,
    induced_map,
    induced_pairing,
    signature,
)
from .strata import StratumCohomology, StrataComplex, ValidationReport
from .spectral import E1Page, E2Page, build_e1, compute_e2
from .checks import (
    CheckResult,
    check_log_hl,
    check_log_hl_all,
    check_wm,
    check_h1_suite,
)
from .hodge_lefschetz import (
    check_hl_axioms,
    hl_from_strata,
    hl_cohomology,
    hl_suite,
)
from .polygons import (
    SlopeMultiset,
    HodgeVector,
    Polygon,
    PhiNModule,
    Report,
    slopes_from_e2,
    check_slope_symmetry,
    check_admissibility_necessary,
    check_linear_relation,
    hodge_from_ordinary,
    hodge_symmetry_report,
)
from .scenarios import ScenarioSpec, build, builtin_specs, parse_spec

__all__ = [
    "RatMatrix",
    "Subspace",
    "QuotientSpace",
    "kernel",
    "image",
    "induced_map",
    "induced_pairing",
    "signature",
    "StratumCohomology",
    "StrataComplex",
    "ValidationReport",
    "E1Page",
    "E2Page",
    "build_e1",
    "compute_e2",
    "CheckResult",
    "check_log_hl",
    "check_log_hl_all",
    "check_wm",
    "check_h1_suite",
    "check_hl_axioms",
    "hl_from_strata",
    "hl_cohomology",
    "hl_suite",
    "SlopeMultiset",
    "HodgeVector",
    "Polygon",
    "PhiNModule",
    "Report",
    "slopes_from_e2",
    "check_slope_symmetry",
    "check_admissibility_necessary",
    "check_linear_relation",
    "hodge_from_ordinary",
    "hodge_symmetry_report",
    "ScenarioSpec",
    "build",
    "builtin_specs",
    "parse_spec",
]
