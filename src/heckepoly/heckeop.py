"""End-to-end Hecke matrix pipeline.

Solves the column-action identity ``image[j] = sum_k T[k, j] * base[k]``
for T_m exactly over the base period polynomials' coefficients; an image
outside their span is an error, never projected.  S1 and S2 (Gram-style
pairings, ``gram``) are output only: ``hecke_computation`` forms them, S2
as S1 T, and ``hecke_matrix`` and ``hecke_charpoly`` do not.  Complete for
level 2; levels 3..5 run in an experimental mode where a failed basis is
surfaced, never patched.
"""

from dataclasses import dataclass
from math import lcm

from .errors import (
    BasisDeficientError,
    EmptySpaceError,
    InconsistentSystemError,
    LevelError,
    UnderdeterminedSystemError,
)
from .exactlinalg import ExactMatrix, charpoly, solve_right
from .heckesum import hecke_images
from .periodpoly import PeriodContext, r_plus_odd, s_poly
from .polyring import coeff_dot

# (nu2, nu3, cusps) of Gamma0(N), N = 2..5; all have genus 0, so for even k >= 4
# dim S_k = 1 - k + nu2 [k/4] + nu3 [k/3] + cusps (k/2 - 1) (Diamond-Shurman, Thm 3.5.1)
_ELLIPTIC_CUSPS = {2: (1, 0, 2), 3: (0, 1, 2), 4: (0, 0, 3), 5: (2, 0, 2)}

_BASIS_VARIANTS = ("even_low", "even_high", "odd_low", "odd_high")


def dim_cusp(level, w):
    """Dimension of the weight-(w+2) cusp space on Gamma0(level), level in {2..5}."""
    if w < 2 or w % 2:
        raise ValueError("w must be an even integer >= 2")
    if level not in _ELLIPTIC_CUSPS:
        raise LevelError("level %d unsupported (need 2..5)" % level)
    nu2, nu3, cusps = _ELLIPTIC_CUSPS[level]
    k = w + 2
    return 1 - k + nu2 * (k // 4) + nu3 * (k // 3) + cusps * (k // 2 - 1)


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


def _solve(level, w, m):
    """Basis indices, base period polynomials and T, with no Gram pairing."""
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
    base = [s_poly(PeriodContext(level, w, n)) for n in indices]
    images = hecke_images(level, w, indices, m)
    try:
        # column k of B (of C) is the coefficient vector of base[k] (of image[k]), over its denominator
        b, c = (ExactMatrix.from_columns([p.num for p in polys], [p.den for p in polys]) for polys in (base, images))
        t = solve_right(b, c)
    except UnderdeterminedSystemError as exc:
        raise BasisDeficientError(
            "period polynomials of indices %s are dependent (rank %s); no basis at level %d, w = %d"
            % (indices, exc.rank, level, w)
        ) from exc
    except InconsistentSystemError as exc:
        raise BasisDeficientError(
            "T_%d image leaves the span of the period basis at level %d, w = %d" % (m, level, w)
        ) from exc
    return indices, base, t


def gram(base, t):
    """S1[i, j] = <base[i], base[j]>, the coefficient dot product, and S2 = S1 T.

    S2[i, j] = <base[i], image[j]> exactly: ``solve_right`` returns T only once
    image[j] = sum_k T[k, j] base[k] holds on every coefficient.
    """
    d = len(base)
    upper = [[coeff_dot(base[i], base[j]) for i in range(j + 1)] for j in range(d)]  # S1 is symmetric: pair i <= j
    lcm_base = lcm(*(p.den for p in base))  # S1[i, j] = dot / (den_i den_j): column j goes over lcm_base den_j
    columns = [[upper[max(i, j)][min(i, j)] * (lcm_base // base[i].den) for i in range(d)] for j in range(d)]
    s1 = ExactMatrix.from_columns(columns, [lcm_base * p.den for p in base])
    return s1, s1 * t


def hecke_computation(level, w, m):
    """Compute T_m on the weight-(w+2) cusp space, with S1, S2 for output.

    The matrix represents T_m with respect to the normalized even-index
    period basis ``base[k] = s_poly(PeriodContext(level, w, 2k + 2))`` and
    acts on columns: the corrected index-m image of ``base[j]`` equals
    ``sum_k T[k, j] * base[k]``; T solves that identity exactly, and a
    dependent base or an image outside its span raises BasisDeficientError.
    S1, S2 (``S2[i, j] = <base[i], image[j]>``, coefficient dot product) are
    output only; ``S1^-1 S2^t = S1^-1 T^t S1`` is the adjoint of T_m for that
    product, a similar but different matrix.  Entries are exact rationals.
    """
    indices, base, t = _solve(level, w, m)
    s1, s2 = gram(base, t)
    return HeckeComputation(level=level, w=w, m=m, basis_indices=indices, s1=s1, s2=s2, t=t)


def hecke_matrix(level, w, m):
    """The matrix of T_m on S_{w+2}(Gamma0(level)) in the period basis.

    Column action, as in ``hecke_computation``: ``images[j] = sum_k T[k, j] * base[k]``;
    S1 and S2 are not formed.
    """
    return _solve(level, w, m)[2]


def hecke_charpoly(level, w, m):
    """Characteristic polynomial of T_m, monic, coefficients ascending."""
    return charpoly(hecke_matrix(level, w, m))
