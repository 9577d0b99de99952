"""Isogeometric Taylor-Hood discretization of Stokes flow on multi-patch
domains, with a dual-primal tearing and interconnecting (IETI-DP) solver and
inf-sup condition studies.

The usual workflow is: build a domain (`parse_domain` or the builders in
`domains`), pick discretization spaces (`taylor_hood_spaces`), then either
assemble and solve monolithically (`assemble_global`) or run the
domain-decomposition solver (`solve_stokes_ieti`). `InfSupStudy` and the
functions in `analysis` cover the spectral side.
"""

from .analysis import (
    InfSupStudy,
    SpectrumError,
    local_infsup,
    pressure_schur_extremes,
    pressure_schur_spectrum,
    skeleton_matrices,
    skeleton_spectra,
)
from .assembly import (
    GlobalStokesSystem,
    PatchStokesSystem,
    TaylorHoodPatchSpace,
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    fortin_correction,
    manufactured_pressure,
    manufactured_rhs,
    manufactured_velocity,
    manufactured_velocity_gradient,
    taylor_hood_spaces,
    total_errors,
)
from .bspline import TensorSplineSpace, UnivariateSplineSpace
from .domains import (
    build_domain,
    grid_domain,
    load_domain,
    parse_domain,
    quarter_annulus_domain,
    rectangle_with_hole_domain,
    strip_domain,
)
from .geometry import (
    GeometryMap,
    MultiPatch,
    bilinear_patch,
    build_multipatch,
    load_multipatch,
    save_multipatch,
)
from .ieti import (
    IetiOperator,
    ScaledDirichletPreconditioner,
    SingularLocalSystemError,
    SolveReport,
    setup_ieti,
    solve_pcg,
    solve_stokes_ieti,
    verify_supmat,
)

__version__ = "0.1.0"

__all__ = (
    "__version__",
    # splines and geometry
    "UnivariateSplineSpace",
    "TensorSplineSpace",
    "GeometryMap",
    "MultiPatch",
    "bilinear_patch",
    "build_multipatch",
    "save_multipatch",
    "load_multipatch",
    # domains
    "grid_domain",
    "strip_domain",
    "quarter_annulus_domain",
    "rectangle_with_hole_domain",
    "build_domain",
    "parse_domain",
    "load_domain",
    # discretization
    "TaylorHoodPatchSpace",
    "PatchStokesSystem",
    "GlobalStokesSystem",
    "build_taylor_hood",
    "taylor_hood_spaces",
    "assemble_patch",
    "assemble_global",
    "fortin_correction",
    "total_errors",
    "manufactured_velocity",
    "manufactured_velocity_gradient",
    "manufactured_pressure",
    "manufactured_rhs",
    # solver
    "SingularLocalSystemError",
    "IetiOperator",
    "ScaledDirichletPreconditioner",
    "SolveReport",
    "setup_ieti",
    "solve_pcg",
    "solve_stokes_ieti",
    "verify_supmat",
    # analysis
    "pressure_schur_extremes",
    "pressure_schur_spectrum",
    "local_infsup",
    "skeleton_matrices",
    "skeleton_spectra",
    "InfSupStudy",
    "SpectrumError",
)
