"""Exact period polynomials and Hecke operator matrices on Gamma0(N).

The pipeline side builds Hecke matrices from closed-form period polynomials;
the oracle side recomputes them from q-expansions.  Everything is exact
rational arithmetic end to end.
"""

from .errors import (
    BasisDeficientError,
    EmptySpaceError,
    HeckePolyError,
    LevelError,
    PrecisionError,
    SingularMatrixError,
    UnsupportedParityError,
)
from .exactlinalg import ExactMatrix, charpoly, determinant, hankel_bernoulli, mat_inverse
from .exactnum import bernoulli_number, bernoulli_poly0, moebius, sigma
from .heckeop import HeckeComputation, basis_matrix, dim_cusp, hecke_charpoly, hecke_computation, hecke_matrix
from .heckesum import eigenvalue_w6, enumerate_H_neg, r_minus_hecke, s_poly_m
from .periodpoly import PeriodContext, assemble_from_periods, period_value, r_plus_odd, s_poly
from .polyring import BoundedPolynomial, coeff_inner_product, compose_linear, reciprocal_scale
from .qoracle import (
    QSeries,
    cusp_basis_gamma02,
    eisenstein_gamma02,
    eisenstein_level1,
    eta_quotient,
    hecke_matrix_oracle,
    hecke_on_qseries,
    theorem14_check,
)

__version__ = "0.1.0"

__all__ = [
    "BasisDeficientError",
    "BoundedPolynomial",
    "EmptySpaceError",
    "ExactMatrix",
    "HeckeComputation",
    "HeckePolyError",
    "LevelError",
    "PeriodContext",
    "PrecisionError",
    "QSeries",
    "SingularMatrixError",
    "UnsupportedParityError",
    "assemble_from_periods",
    "basis_matrix",
    "bernoulli_number",
    "bernoulli_poly0",
    "charpoly",
    "coeff_inner_product",
    "compose_linear",
    "cusp_basis_gamma02",
    "determinant",
    "dim_cusp",
    "eigenvalue_w6",
    "eisenstein_gamma02",
    "eisenstein_level1",
    "enumerate_H_neg",
    "eta_quotient",
    "hankel_bernoulli",
    "hecke_charpoly",
    "hecke_computation",
    "hecke_matrix",
    "hecke_matrix_oracle",
    "hecke_on_qseries",
    "mat_inverse",
    "moebius",
    "period_value",
    "r_minus_hecke",
    "r_plus_odd",
    "reciprocal_scale",
    "s_poly",
    "s_poly_m",
    "sigma",
    "theorem14_check",
]
