"""End-to-end Hecke matrix pipeline.

Solves the column-action identity ``image[j] = sum_k T[k, j] * base[k]``
for T_m exactly over the base period polynomials' coefficients; an image
outside their span is an error, never projected.  S1 and S2 (Gram-style
pairings, ``gram``) are output only: ``hecke_computation`` forms them, S2
as S1 T, and ``hecke_matrix`` and ``hecke_charpoly`` do not.  Complete for
level 2; levels 3..5 run in an experimental mode where a failed basis is
surfaced, never patched.
"""

from math import gcd, lcm, prod
from operator import add, mul
from typing import NamedTuple

from .errors import (
    BasisDeficientError,
    EmptySpaceError,
    InconsistentSystemError,
    LevelError,
    UnderdeterminedSystemError,
)
from .exactlinalg import ExactMatrix, charpoly, solve_right
from .exactnum import require_even, require_positive
from .heckesum import hecke_images
from .periodpoly import PeriodContext, r_plus_odd, s_poly
from .polyring import BoundedPolynomial, coeff_dot

# (nu2, nu3, cusps) of Gamma0(N), N = 2..5; all have genus 0, so for even k >= 4
# dim S_k = 1 - k + nu2 [k/4] + nu3 [k/3] + cusps (k/2 - 1) (Diamond-Shurman, Thm 3.5.1)
_ELLIPTIC_CUSPS = {2: (1, 0, 2), 3: (0, 1, 2), 4: (0, 0, 3), 5: (2, 0, 2)}

# basis variant -> (period polynomial builder, row i -> index n, column j -> power of X), as in basis_matrix
_BASIS_VARIANTS = {
    "even_low": (s_poly, lambda w, i: 2 * i, lambda w, j: w - 2 * j + 1),
    "even_high": (s_poly, lambda w, i: w - 2 * i, lambda w, j: 2 * j - 1),
    "odd_low": (r_plus_odd, lambda w, i: 2 * i - 1, lambda w, j: w - 2 * j),
    "odd_high": (r_plus_odd, lambda w, i: w - 2 * i + 1, lambda w, j: 2 * j),
}


def dim_cusp(level, w):
    """Dimension of the weight-(w+2) cusp space on Gamma0(level), level in {2..5}."""
    require_even("w", w, 2)
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
        raise ValueError("which must be one of %s" % (tuple(_BASIS_VARIANTS),))
    build, index, power = _BASIS_VARIANTS[which]
    d = dim_cusp(2, w)
    polys = [build(PeriodContext(2, w, index(w, i))) for i in range(1, d + 1)]
    return ExactMatrix([[poly.coeff(power(w, j)) for j in range(1, d + 1)] for poly in polys])


class HeckeComputation(NamedTuple):
    """One full T_m computation with its intermediate matrices and T's characteristic polynomial."""

    basis_indices: list
    s1: ExactMatrix
    s2: ExactMatrix
    t: ExactMatrix
    charpoly: list


def _w_split(level, w, m, b, c):
    """C = B T solved on the eigenspaces of W_N: (T, blocks), or None when a column is not W-symmetric.

    W_N sends P_n to N^(h-n) P_(w-n), h = w/2 (identity 5 of ``heckesum``, m = 1).  Its eigenspaces hold the columns
    Q+-_n = P_n +- N^(h-n) P_(w-n), n < h, and P_h (+); the rows F+-_k(v) = N^(h-k) v_k +- (-1)^k v_(w-k), k < h, and
    v_h (in the (-1)^h block) vanish on the other one.  Once each adapted base column's other rows F are checked
    zero, its own F_k is 2 N^(h-k) times its coefficient k: a block solves on rows 0..h and still certifies C = B T
    on every coefficient.  For gcd(m, N) = 1, T_m commutes with W_N: each block solves for its own adapted images
    (checked the same way; half the right-hand sides of the Y path), blocks = (T+, T-) and Y = diag(T+, T-) Q^-1;
    otherwise each solves for its rows of Y = Q^-1 T against F(C) / (2 N^(h-k)), and blocks is None.  T = Q Y in
    O(d^2).
    """
    d, h, npow = b.cols, w // 2, [level**e for e in range(w // 2 + 1)]
    pairs = [(i, d - 1 - i, npow[d - 1 - 2 * i]) for i in range(d // 2)]  # indices 2i + 2, w - 2i - 2 and N^(h-2i-2)
    mid = [d // 2] if d % 2 else []  # index h

    def project(num, sign):  # rows F_sign of the columns of num
        rows = [[npow[h - k] * x + sign * (-1) ** k * y for x, y in zip(num[k], num[w - k])] for k in range(h)]
        return rows + [num[h]] if (-1) ** h == sign else rows

    def adapt(rows, dens, sign):  # (rows, dens) of the columns Q_sign
        coefs, centre = [(i, j, dens[j], sign * s * dens[i]) for i, j, s in pairs], mid if sign > 0 else []
        adapted = [[r[i] * u + r[j] * v for i, j, u, v in coefs] + [r[k] for k in centre] for r in rows]
        return adapted, [dens[i] * u for i, _, u, _ in coefs] + [dens[k] for k in centre]

    coprime, ys, blocks = gcd(m, level) == 1, [], []
    for sign in (1, -1):
        if any(any(r) for mat in (b, c)[: 1 + coprime] for r in adapt(project(mat.num, -sign), mat.dens, sign)[0]):
            return None
        low = h + ((-1) ** h == sign)  # rows 0..h-1, and row h in its block
        rhs = adapt(c.num[:low], c.dens, sign) if coprime else (  # else F_k(C) / (2 N^(h-k)) and c_h, over 2 N^h
            [[x * u for x in row] for u, row in zip(npow[:h] + [2 * npow[h]], project(c.num, sign))],
            [2 * npow[h] * e for e in c.dens],
        )
        try:
            y = solve_right(ExactMatrix._over(*adapt(b.num[:low], b.dens, sign)), ExactMatrix._over(*rhs))
        except (UnderdeterminedSystemError, InconsistentSystemError):  # the direct solve names the failure
            return None
        if coprime:  # column p of T_sign goes over 2 to index i and over sign 2 N^(h-n) to its mirror j
            blocks.append(y)
            cols, place = list(zip(*y.num)), [None] * d
            for p, (i, j, s) in enumerate(pairs):
                place[i], place[j] = (cols[p], 2 * y.dens[p]), (cols[p], sign * 2 * s * y.dens[p])
            for k in mid:
                place[k] = (cols[-1], y.dens[-1]) if sign > 0 else ([0] * y.rows, 1)
            y = ExactMatrix.from_columns(*zip(*place))
        ys.append(y)
    # T = Q Y: row i is Y+_p + Y-_p, row j is N^(h-n) (Y+_p - Y-_p), row h is Y+'s last, over one denominator a column
    (yp, ym), rows = ys, [None] * d
    dens = [lcm(u, v) for u, v in zip(yp.dens, ym.dens)]
    up, um = ([den // e for den, e in zip(dens, y.dens)] for y in ys)
    for p, (i, j, s) in enumerate(pairs):
        x, y = list(map(mul, yp.num[p], up)), list(map(mul, ym.num[p], um))
        rows[i], rows[j] = list(map(add, x, y)), [s * (u - v) for u, v in zip(x, y)]
    for k in mid:
        rows[k] = list(map(mul, yp.num[-1], up))
    return ExactMatrix._over(rows, dens), blocks or None


def _solve(level, w, m):
    """Basis indices, base period polynomials, T, and T's W_N blocks (None unless T is block-diagonal in them)."""
    require_positive("m", m)
    d = dim_cusp(level, w)
    if d == 0:
        raise EmptySpaceError("dimension 0 (d_w = 0) for level %d, w = %d" % (level, w))
    indices = [2 * i for i in range(1, d + 1)]
    if indices[-1] >= w:
        raise BasisDeficientError(
            "dimension %d exceeds the %d even period indices available at w = %d" % (d, (w - 2) // 2, w)
        )
    base, images = hecke_images(level, w, indices, m)
    try:
        # column k of B (of C) is the coefficient vector of base[k] (of image[k]), over its denominator
        b, c = (ExactMatrix.from_columns([p.num for p in polys], [p.den for p in polys]) for polys in (base, images))
        # the basis 2, 4, ..., 2d holds every index's mirror w - n exactly when 2d = w - 2: levels 4, and 5 at 4 | w
        t, blocks = (2 * d == w - 2 and _w_split(level, w, m, b, c)) or (solve_right(b, c), None)
    except UnderdeterminedSystemError as exc:
        raise BasisDeficientError(
            "period polynomials of indices %s are dependent (rank %s); no basis at level %d, w = %d"
            % (indices, exc.rank, level, w)
        ) from exc
    except InconsistentSystemError as exc:
        raise BasisDeficientError(
            "T_%d image leaves the span of the period basis at level %d, w = %d" % (m, level, w)
        ) from exc
    return indices, base, t, blocks


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


def _solve_charpoly(level, w, m):
    """Basis indices, base period polynomials, T and charpoly(T): charpoly(T+) charpoly(T-) when T has W_N blocks."""
    indices, base, t, blocks = _solve(level, w, m)
    return indices, base, t, prod(BoundedPolynomial(charpoly(mat)) for mat in blocks or [t]).coeffs


def hecke_computation(level, w, m):
    """Compute T_m on the weight-(w+2) cusp space, with S1, S2 and the charpoly for output.

    The matrix represents T_m with respect to the normalized even-index
    period basis ``base[k] = s_poly(PeriodContext(level, w, 2k + 2))`` and
    acts on columns: the corrected index-m image of ``base[j]`` equals
    ``sum_k T[k, j] * base[k]``; T solves that identity exactly, and a
    dependent base or an image outside its span raises BasisDeficientError.
    S1, S2 (``S2[i, j] = <base[i], image[j]>``, coefficient dot product) are
    output only; ``S1^-1 S2^t = S1^-1 T^t S1`` is the adjoint of T_m for that
    product, a similar but different matrix.  Entries are exact rationals.
    """
    indices, base, t, cp = _solve_charpoly(level, w, m)
    s1, s2 = gram(base, t)
    return HeckeComputation(indices, s1, s2, t, cp)


def hecke_matrix(level, w, m):
    """The matrix of T_m on S_{w+2}(Gamma0(level)) in the period basis.

    Column action, as in ``hecke_computation``: ``images[j] = sum_k T[k, j] * base[k]``;
    S1 and S2 are not formed.
    """
    return _solve(level, w, m)[2]


def hecke_charpoly(level, w, m):
    """Characteristic polynomial of T_m, monic, coefficients ascending; from T's W_N blocks when it has them."""
    return _solve_charpoly(level, w, m)[3]
