from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

from heckepoly import exactlinalg, heckeop, heckesum
from heckepoly.errors import BasisDeficientError, EmptySpaceError, LevelError
from heckepoly.exactlinalg import ExactMatrix, determinant, mat_inverse
from heckepoly.exactnum import bernoulli_number
from heckepoly.heckeop import (
    basis_matrix,
    dim_cusp,
    hecke_charpoly,
    hecke_computation,
    hecke_matrix,
)
from heckepoly.heckesum import eigenvalue_w6, r_minus_hecke
from heckepoly.periodpoly import PeriodContext, s_poly
from heckepoly.polyring import BoundedPolynomial
from heckepoly.qoracle import eta_quotient


def test_dim_cusp_values():
    assert dim_cusp(2, 10) == 2
    assert dim_cusp(2, 4) == 0
    assert dim_cusp(2, 6) == 1
    assert dim_cusp(4, 8) == 3
    assert dim_cusp(3, 4) == 1
    assert dim_cusp(5, 6) == 3
    assert dim_cusp(3, 70) == 23
    with pytest.raises(LevelError):
        dim_cusp(7, 10)
    with pytest.raises(ValueError):
        dim_cusp(2, 5)


def test_basis_matrix_small():
    bm = basis_matrix(6, "even_low")
    assert bm.entries == [[Fraction(-4, 15)]]
    assert basis_matrix(4, "even_low").rows == 0
    bm10 = basis_matrix(10, "even_low")
    assert bm10 == ExactMatrix(
        [[Fraction(-64, 15), Fraction(64, 9)], [Fraction(16, 21), Fraction(-4, 3)]]
    )
    assert determinant(bm10) == Fraction(256, 945)
    with pytest.raises(ValueError):
        basis_matrix(10, "sideways")


def test_basis_matrix_even_low_closed_form():
    # entry (i, j) is 2^(w-2i-2j+1)/(w-2i+1) * C(w-2i+1, 2j-1) * B_{w-2i-2j+2}
    for w in (10, 14, 22):
        d = dim_cusp(2, w)
        m = basis_matrix(w, "even_low")
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                expected = (
                    Fraction(2 ** (w - 2 * i - 2 * j + 1), w - 2 * i + 1)
                    * comb(w - 2 * i + 1, 2 * j - 1)
                    * bernoulli_number(w - 2 * i - 2 * j + 2)
                )
                assert m[i - 1, j - 1] == expected


def test_basis_matrices_nonsingular_sample():
    for w in range(6, 32, 2):
        for which in ("even_low", "even_high", "odd_low", "odd_high"):
            assert determinant(basis_matrix(w, which)) != 0, (w, which)


def test_hecke_matrix_printed_level2():
    comp = hecke_computation(2, 10, 2)
    assert comp.basis_indices == [2, 4]
    assert comp.t == ExactMatrix([[-208, 36], [-1120, 184]])
    assert comp.charpoly() == [Fraction(2048), Fraction(24), Fraction(1)]
    assert comp.s1 == comp.s1.transpose()


def test_hecke_matrix_weight8_eigenvalues():
    for m in range(1, 30, 2):
        mat = hecke_matrix(2, 6, m)
        assert mat.rows == mat.cols == 1
        assert mat[0, 0] == eigenvalue_w6(m)


def test_hecke_matrix_level4_charpoly():
    # (x - 228)(x + 156)^2 expanded exactly
    target = (
        BoundedPolynomial([-228, 1]) * BoundedPolynomial([156, 1]) * BoundedPolynomial([156, 1])
    ).coeffs
    assert hecke_charpoly(4, 8, 3) == target


def test_hecke_matrix_level4_printed_entries_are_transposed_pairing():
    # The published 3x3 reference for this case pairs the image polynomials in
    # the first inner-product slot, which is S1^-1 S2^T under the convention
    # fixed by the level-2 reference matrix; both conventions share the
    # charpoly (the matrices are similar) but differ entrywise.
    comp = hecke_computation(4, 8, 3)
    printed = ExactMatrix(
        [
            [Fraction(x, 152915) for x in row]
            for row in [
                [2456678965260, -224610211392, 61847064000],
                [37961609400000, -3470759119380, 955676880000],
                [40281954570000, -3682878636192, 1014067309260],
            ]
        ]
    )
    assert mat_inverse(comp.s1) * comp.s2.transpose() == printed
    assert comp.t != printed


def test_identity_operator():
    for level, w in ((2, 10), (2, 14), (4, 8)):
        d = dim_cusp(level, w)
        assert hecke_matrix(level, w, 1) == ExactMatrix.identity(d)
        cp = hecke_charpoly(level, w, 1)
        binom_row = [Fraction((-1) ** (d - k) * comb(d, k)) for k in range(d + 1)]
        assert cp == binom_row  # (x - 1)^d


def test_s1_symmetric_across_levels():
    for level, w in ((2, 14), (3, 10), (4, 8), (5, 8)):
        s1 = hecke_computation(level, w, 2).s1
        assert s1 == s1.transpose()


def test_commutativity_and_multiplicativity_sample():
    cache = {}

    def tmat(w, m):
        if (w, m) not in cache:
            cache[(w, m)] = hecke_matrix(2, w, m)
        return cache[(w, m)]

    for w in (10, 14, 18):
        for m1, m2 in ((2, 3), (3, 4), (2, 5), (3, 5)):
            assert gcd(m1, m2) == 1
            assert tmat(w, m1) * tmat(w, m2) == tmat(w, m2) * tmat(w, m1)
            assert tmat(w, m1) * tmat(w, m2) == tmat(w, m1 * m2)


def test_prime_square_relation():
    for w in (10, 14):
        d = dim_cusp(2, w)
        for p in (3, 5):
            t_p = hecke_matrix(2, w, p)
            t_pp = hecke_matrix(2, w, p * p)
            assert t_pp == t_p * t_p - ExactMatrix.identity(d) * (p ** (w + 1))


def test_general_level_matches_eta_eigenforms():
    # dim-1 spaces at levels 3 and 4: every T_m matrix entry must equal the
    # q^m coefficient of the normalized eta-quotient eigenform
    f3 = eta_quotient([(1, 6), (3, 6)], 14)  # weight 6 on Gamma0(3)
    f4 = eta_quotient([(2, 12)], 14)  # weight 6 on Gamma0(4)
    for m in range(1, 13):
        assert hecke_matrix(3, 4, m)[0, 0] == f3.coeff(m)
        assert hecke_matrix(4, 4, m)[0, 0] == f4.coeff(m)


def test_error_paths():
    with pytest.raises(EmptySpaceError):
        hecke_matrix(2, 4, 2)
    with pytest.raises(BasisDeficientError):
        hecke_matrix(5, 6, 2)  # dim 3 but only two even interior indices
    with pytest.raises(LevelError):
        hecke_matrix(6, 10, 2)
    with pytest.raises(ValueError):
        hecke_matrix(2, 10, 0)


def test_integer_gram_and_solve_match_rational_pipeline():
    # S1/S2 against a Fraction dot product of the coefficient lists (not coeff_inner_product, which
    # builds S1; gram forms S2 as S1 T, so the pairing with the images is S2's independent check),
    # T against the explicit inverse, and S1 T = S2 directly, on levels 2..5
    def dot(f, g):
        return sum(a * b for a, b in zip(f.coeffs, g.coeffs))

    grid = [(2, 14, 2), (2, 18, 3), (2, 22, 4), (3, 16, 2), (3, 20, 5), (4, 12, 3), (4, 16, 2), (5, 12, 2), (5, 16, 3)]
    for level, w, m in grid:
        comp = hecke_computation(level, w, m)
        base = [s_poly(PeriodContext(level, w, n)) for n in comp.basis_indices]
        images = [r_minus_hecke(PeriodContext(level, w, n), m) for n in comp.basis_indices]
        assert comp.s1 == ExactMatrix([[dot(bi, bj) for bj in base] for bi in base])
        assert comp.s2 == ExactMatrix([[dot(bi, img) for img in images] for bi in base])
        assert comp.t == mat_inverse(comp.s1) * comp.s2, (level, w, m)
        assert comp.s1 * comp.t == comp.s2


def test_dependent_basis_names_rank(monkeypatch):
    real_s_poly = heckeop.s_poly

    def repeated(ctx):
        # every basis slot gets the index-2 polynomial: S1 has rank 1
        return real_s_poly(PeriodContext(ctx.level, ctx.w, 2))

    monkeypatch.setattr(heckeop, "s_poly", repeated)
    with pytest.raises(BasisDeficientError, match=r"dependent \(rank 1\)"):
        hecke_computation(2, 14, 2)


def test_image_outside_span_is_basis_deficient(monkeypatch):
    # every base polynomial has X^2 coefficient 0, so adding X^2 to one image
    # takes that image out of their span
    real_hecke_images = heckeop.hecke_images

    def off_span(level, w, ns, m):
        images = real_hecke_images(level, w, ns, m)
        return [img + BoundedPolynomial.monomial(2, bound=w) if n == 4 else img for n, img in zip(ns, images)]

    monkeypatch.setattr(heckeop, "hecke_images", off_span)
    with pytest.raises(BasisDeficientError, match=r"T_2 image leaves the span .* level 2, w = 14"):
        hecke_computation(2, 14, 2)


def test_image_outside_span_in_a_late_row_is_basis_deficient(monkeypatch):
    # the base polynomials are odd, so X^12 on one image adds a row past the
    # first d = 3 nonzero ones (X^1, X^3, X^5): those still give d pivots, and
    # only the product check of the later rows sees the term
    real_hecke_images, real_bareiss = heckeop.hecke_images, exactlinalg._bareiss
    eliminated = []

    def off_span(level, w, ns, m):
        images = real_hecke_images(level, w, ns, m)
        return [img + BoundedPolynomial.monomial(12, bound=w) if n == 4 else img for n, img in zip(ns, images)]

    def counting(work, pivot_cols):
        eliminated.append(len(work))
        return real_bareiss(work, pivot_cols)

    monkeypatch.setattr(heckeop, "hecke_images", off_span)
    monkeypatch.setattr(exactlinalg, "_bareiss", counting)
    with pytest.raises(BasisDeficientError, match=r"T_2 image leaves the span .* level 2, w = 14"):
        hecke_computation(2, 14, 2)
    assert eliminated == [3]


def test_one_sign_sum_pass_per_hecke_computation(monkeypatch):
    # the divisor power sums are shared by every index: one sign_restricted_sum call per
    # T_m, and inside it as many divisors() calls for all d indices as for one index
    real_sign_sum, real_divisors = heckesum.sign_restricted_sum, heckesum.divisors
    calls = Counter()

    def counting_sign_sum(level, w, ns, m):
        calls["sign_sum"] += 1
        before = calls["divisors"]
        result = real_sign_sum(level, w, ns, m)
        calls["divisors_inside", len(ns)] = calls["divisors"] - before
        return result

    def counting_divisors(n):
        calls["divisors"] += 1
        return real_divisors(n)

    monkeypatch.setattr(heckesum, "sign_restricted_sum", counting_sign_sum)
    monkeypatch.setattr(heckesum, "divisors", counting_divisors)
    comp = hecke_computation(3, 24, 100)
    d = len(comp.basis_indices)
    assert d > 1
    assert calls["sign_sum"] == 1
    heckesum.sign_restricted_sum(3, 24, [2], 100)
    assert calls["divisors_inside", 1] == calls["divisors_inside", d] > 0
