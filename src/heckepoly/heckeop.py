"""End-to-end Hecke matrix pipeline.

Builds the Gram-style matrices S1 (pairings of the base period polynomials)
and S2 (pairings against the corrected index-m polynomials) from integer
coefficient vectors over one denominator per polynomial, and solves
S1 T_m = S2 fraction-free.  Complete for level 2; levels 3..5 run in an
experimental mode where a failed basis is surfaced, never patched.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BasisDeficientError, EmptySpaceError, LevelError, UnderdeterminedSystemError
from .exactlinalg import ExactMatrix, charpoly, clear_denominators, solve_right
from .heckesum import r_minus_hecke
from .periodpoly import PeriodContext, r_plus_odd, s_poly

# dim S_k(Gamma0(N)) for N in {3, 4, 5}, even weight k; values from the
# standard genus-0 dimension count for these index <= 6 groups, spot-checked
# against the worked examples in scope (e.g. dim S_10(Gamma0(4)) = 3).
_DIM_TABLE = {
    3: {k: k // 3 - 1 for k in range(4, 63, 2)},
    4: {k: k // 2 - 2 for k in range(4, 63, 2)},
    5: {k: 2 * (k // 4) - 1 for k in range(4, 63, 2)},
}

_BASIS_VARIANTS = ("even_low", "even_high", "odd_low", "odd_high")


def dim_cusp(level, w):
    """Dimension of the weight-(w+2) cusp space on Gamma0(level), level in {2..5}."""
    if w < 2 or w % 2:
        raise ValueError("w must be an even integer >= 2")
    if level == 2:
        return (w - 2) // 4
    if level in _DIM_TABLE:
        table = _DIM_TABLE[level]
        k = w + 2
        if k not in table:
            raise LevelError("weight %d outside the stored dimension table for level %d" % (k, level))
        return table[k]
    raise LevelError("level %d unsupported (need 2..5)" % level)


def basis_matrix(w, which):
    """Coefficient matrix certifying one of the four level-2 period bases.

    Rows index the basis forms, columns the designated coefficients:

    * ``even_low``:  coeff of X^(w-2j+1) in the odd polynomial of index 2i
    * ``even_high``: coeff of X^(2j-1)   in the odd polynomial of index w-2i
    * ``odd_low``:   coeff of X^(w-2j)   in the even polynomial of index 2i-1
    * ``odd_high``:  coeff of X^(2j)     in the even polynomial of index w-2i+1
    """
    if which not in _BASIS_VARIANTS:
        raise ValueError("which must be one of %s" % (_BASIS_VARIANTS,))
    d = dim_cusp(2, w)
    if d == 0:
        return ExactMatrix([], cols=0)
    rows = []
    for i in range(1, d + 1):
        if which == "even_low":
            poly = s_poly(PeriodContext(2, w, 2 * i))
            rows.append([poly.coeff(w - 2 * j + 1) for j in range(1, d + 1)])
        elif which == "even_high":
            poly = s_poly(PeriodContext(2, w, w - 2 * i))
            rows.append([poly.coeff(2 * j - 1) for j in range(1, d + 1)])
        elif which == "odd_low":
            poly = r_plus_odd(PeriodContext(2, w, 2 * i - 1))
            rows.append([poly.coeff(w - 2 * j) for j in range(1, d + 1)])
        else:
            poly = r_plus_odd(PeriodContext(2, w, w - 2 * i + 1))
            rows.append([poly.coeff(2 * j) for j in range(1, d + 1)])
    return ExactMatrix(rows)


@dataclass
class HeckeComputation:
    """One full T_m computation with its intermediate matrices."""

    level: int
    w: int
    m: int
    basis_indices: list
    s1: ExactMatrix
    s2: ExactMatrix
    t: ExactMatrix

    def charpoly(self):
        return charpoly(self.t)


def _gram(rows, cols):
    """Coefficient dot products of cleared polynomials (v, D), paired in integers."""
    return ExactMatrix([[Fraction(sum(map(mul, u, v)), du * dv) for v, dv in cols] for u, du in rows])


def hecke_computation(level, w, m):
    """Compute T_m on the weight-(w+2) cusp space, with S1, S2 retained.

    The matrix represents T_m with respect to the normalized even-index
    period basis ``base[k] = s_poly(PeriodContext(level, w, 2k + 2))`` and
    acts on columns: the corrected index-m image of ``base[j]`` equals
    ``sum_k T[k, j] * base[k]``.  It is ``S1^-1 S2`` with
    ``S2[i, j] = <base[i], image[j]>`` for the coefficient dot product; the
    transpose pairing ``S1^-1 S2^t = S1^-1 T^t S1`` gives the adjoint of T_m
    for that product, a similar but different matrix.  Entries are exact
    rationals.
    """
    if m < 1:
        raise ValueError("m must be positive")
    d = dim_cusp(level, w)
    if d == 0:
        raise EmptySpaceError("dimension 0 (d_w = 0) for level %d, w = %d" % (level, w))
    indices = [2 * i for i in range(1, d + 1)]
    if indices[-1] >= w:
        raise BasisDeficientError(
            "dimension %d exceeds the %d even period indices available at w = %d" % (d, (w - 2) // 2, w)
        )
    base = [clear_denominators(s_poly(PeriodContext(level, w, n)).coeffs) for n in indices]
    images = [clear_denominators(r_minus_hecke(PeriodContext(level, w, n), m).coeffs) for n in indices]
    s1 = _gram(base, base)
    s2 = _gram(base, images)
    try:
        t = solve_right(s1, s2)
    except UnderdeterminedSystemError as exc:
        raise BasisDeficientError(
            "period polynomials of indices %s are dependent (rank %s); no basis at level %d, w = %d"
            % (indices, exc.rank, level, w)
        ) from exc
    return HeckeComputation(level=level, w=w, m=m, basis_indices=indices, s1=s1, s2=s2, t=t)


def hecke_matrix(level, w, m):
    """The matrix of T_m on S_{w+2}(Gamma0(level)) in the period basis.

    Column action, as in ``hecke_computation``: ``images[j] = sum_k T[k, j] * base[k]``.
    """
    return hecke_computation(level, w, m).t


def hecke_charpoly(level, w, m):
    """Characteristic polynomial of T_m, monic, coefficients ascending."""
    return charpoly(hecke_matrix(level, w, m))
