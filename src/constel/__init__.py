"""Exact series algebra for weighted lattice-path enumeration.

The package computes, with integer arithmetic throughout:

- weight polynomials of height-bounded paths with long rises and unit
  falls (:mod:`constel.paths`),
- their nested-fraction expansions in the length variable
  (:mod:`constel.contfrac`),
- banded determinants built from those polynomials, which collapse to
  monomials and can be inverted back to single weights
  (:mod:`constel.hankel`),
- fixed-point solutions for the weights of a degree-marked planar model
  (:mod:`constel.solver`),
- and the fully solvable cubic specialization with one marked degree
  (:mod:`constel.eulerian`).

Every identity the library relies on has a runnable cross-check in
:mod:`constel.verify`, surfaced through the ``constel`` CLI.
"""

from .algebra import (
    ExponentOverflow,
    Monomial,
    MultiPoly,
    NonSquare,
    NonUnitConstant,
    NotDivisible,
    UnassignedVariable,
    XSeries,
    det_elements,
)
from .contfrac import TSeries, expand_f, expand_fraction
from .eulerian import (
    EulerContext,
    f1_closed,
    f_closed,
    fib_chebyshev_check,
    fib_poly,
    make_context,
    t_n,
    v_closed,
    v_series,
    verify_det3,
)
from .hankel import (
    HankelSpec,
    IdentityViolation,
    NonUniqueNILP,
    hankel_det,
    hankel_matrix,
    hankel_product,
    lgv_signed_sum,
    nilp_unique,
    recover_vi,
)
from .paths import PPath, count_closed3, count_paths, enumerate_paths, f_mid, f_poly, path_weight
from .solver import SolverConfig, f1_tutte_check, f_from_v, solve_v, solve_vi

__version__ = "0.1.0"

__all__ = [
    "EulerContext",
    "ExponentOverflow",
    "HankelSpec",
    "IdentityViolation",
    "Monomial",
    "MultiPoly",
    "NonSquare",
    "NonUniqueNILP",
    "NonUnitConstant",
    "NotDivisible",
    "PPath",
    "SolverConfig",
    "TSeries",
    "UnassignedVariable",
    "XSeries",
    "count_closed3",
    "count_paths",
    "det_elements",
    "enumerate_paths",
    "expand_f",
    "expand_fraction",
    "f1_closed",
    "f1_tutte_check",
    "f_closed",
    "f_from_v",
    "f_mid",
    "f_poly",
    "fib_chebyshev_check",
    "fib_poly",
    "hankel_det",
    "hankel_matrix",
    "hankel_product",
    "lgv_signed_sum",
    "make_context",
    "nilp_unique",
    "path_weight",
    "recover_vi",
    "solve_v",
    "solve_vi",
    "t_n",
    "v_closed",
    "v_series",
    "verify_det3",
]
