"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Every comparison is exact (tolerance zero).  Hecke matrices act on columns:
``T[k, j]`` is the coefficient of the k-th base period polynomial in the
image of the j-th, as the level-2 reference matrix of criterion 4 fixes.

Criterion 5 checks the published level-4 T_3 data: both the computed and the
published matrix have charpoly (x - 228)(x + 156)^2, and the published
entries are compared exactly with the program in two steps.  (a) For each
of the three basis polynomials, the corrected index-3 image equals
``sum_k T[k, j] * base[k]`` as a polynomial, which pins every entry of the
computed matrix without going through S1 and S2.  (b) The published matrix
P satisfies ``S1 * P == T^t * S1``: it is ``S1^-1 T^t S1``, the adjoint of T_3
for the coefficient dot product, similar to T_3 but not its matrix.  Given T
and the nonsingular S1, (b) fixes every published entry.
"""

import random
from fractions import Fraction
from math import gcd

from heckepoly.exactlinalg import ExactMatrix, charpoly, determinant, hankel_bernoulli, mat_inverse
from heckepoly.heckeop import basis_matrix, dim_cusp, hecke_computation, hecke_matrix
from heckepoly.heckesum import (
    diagonal_sum,
    eigenvalue_w6,
    moebius_correction,
    r_minus_hecke,
    s_poly_m,
    sign_restricted_sum,
)
from heckepoly.periodpoly import PeriodContext, assemble_from_periods, period_value, r_plus_odd, s_poly
from heckepoly.polyring import BoundedPolynomial
from heckepoly.qoracle import QSeries, eta_quotient, hecke_matrix_oracle, hecke_on_qseries, scale_variable, theorem14_check


def run_criterion(num, desc, body):
    try:
        body()
    except BaseException:
        print("FAIL criterion %02d: %s" % (num, desc))
        raise
    print("PASS criterion %02d: %s" % (num, desc))


def frac_poly(scale, coeffs, bound=None):
    return Fraction(*scale) * BoundedPolynomial(coeffs, bound=bound)


def test_criterion_01_s262():
    def body():
        assert s_poly(PeriodContext(2, 6, 2)) == frac_poly((-1, 15), [0, 1, 0, -5, 0, 4])

    run_criterion(1, "s_poly(2,6,2) = -(1/15)(4X^5 - 5X^3 + X)", body)


def test_criterion_02_s442_vanishes():
    def body():
        assert s_poly_m(PeriodContext(4, 4, 2), 2).is_zero()

    run_criterion(2, "index-2 sum at level 4, w = 4 vanishes identically", body)


def test_criterion_03_level4_m8():
    def body():
        ctx = PeriodContext(4, 6, 2)
        assert sign_restricted_sum(ctx.level, ctx.w, [ctx.n], 8)[0] == -1024 * BoundedPolynomial([0, 1, 0, -2, 0, 1], bound=6)
        assert diagonal_sum(ctx, 8) == frac_poly((-256, 15), [0, -56, 0, 40, 0, 1], bound=6)
        assert moebius_correction(ctx, 8) == 256 * BoundedPolynomial([0, 0, 0, -4, 0, 3], bound=6)
        assert r_minus_hecke(ctx, 8) == frac_poly((-1024, 15), [0, 1, 0, -5, 0, 4], bound=6)

    run_criterion(3, "corrected m=8 polynomial at level 4 with all three intermediates", body)


def test_criterion_04_t2_matrix_level2():
    def body():
        comp = hecke_computation(2, 10, 2)
        assert comp.t == ExactMatrix([[-208, 36], [-1120, 184]])
        assert comp.charpoly() == [Fraction(2048), Fraction(24), Fraction(1)]

    run_criterion(4, "T_2 on the weight-12 level-2 space: matrix and charpoly", body)


def test_criterion_05_t3_matrix_level4():
    def body():
        comp = hecke_computation(4, 8, 3)
        target = (
            BoundedPolynomial([-228, 1]) * BoundedPolynomial([156, 1]) * BoundedPolynomial([156, 1])
        ).coeffs
        assert comp.charpoly() == target
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
        assert charpoly(printed) == target
        # the published entries, reproduced exactly: they pair the image
        # polynomials in the first inner-product slot (transposed S2)
        assert mat_inverse(comp.s1) * comp.s2.transpose() == printed
        # (a) column action: the image of base[j] is sum_k T[k, j] * base[k]
        assert comp.basis_indices == [2, 4, 6]
        base = [s_poly(PeriodContext(4, 8, n)) for n in comp.basis_indices]
        for j, n in enumerate(comp.basis_indices):
            combo = sum((comp.t[k, j] * b for k, b in enumerate(base)), BoundedPolynomial.zero(8))
            assert r_minus_hecke(PeriodContext(4, 8, n), 3) == combo, n
        # (b) the published entries are the coefficient-pairing adjoint S1^-1 T^t S1
        assert comp.s1 * printed == comp.t.transpose() * comp.s1

    run_criterion(5, "T_3 on the weight-10 level-4 space: printed matrix and charpoly", body)


def test_criterion_06_hankel():
    def body():
        for which in (1, 2, 3):
            for n in range(1, 9):
                det, closed = hankel_bernoulli(which, n)
                assert det == closed, (which, n)

    run_criterion(6, "Hankel determinants equal closed forms, which in {1,2,3}, n = 1..8", body)


def test_criterion_07_eigenvalues_vs_eta():
    def body():
        f = eta_quotient([(1, 8), (2, 8)], 100)
        assert f.coeff(1) == 1  # already normalized
        for m in range(3, 100, 2):
            assert eigenvalue_w6(m) == f.coeff(m), m

    run_criterion(7, "weight-8 eigenvalue formula matches the eta quotient through q^99", body)


def test_criterion_08_oracle_equivalence():
    def body():
        for k in range(8, 26, 2):
            for m in (2, 3, 4, 5):
                pipeline = charpoly(hecke_matrix(2, k - 2, m))
                oracle = charpoly(hecke_matrix_oracle(k, m))
                assert pipeline == oracle, (k, m)

    run_criterion(8, "pipeline and q-expansion oracle charpolys agree, k = 8..24, m = 2..5", body)


def test_criterion_09_basis_determinants():
    def body():
        for w in range(6, 62, 2):
            for which in ("even_low", "even_high", "odd_low", "odd_high"):
                assert determinant(basis_matrix(w, which)) != 0, (w, which)

    run_criterion(9, "all four basis coefficient matrices nonsingular, w = 6..60", body)


def test_criterion_10_eisenstein_product_bases():
    def body():
        for k in range(8, 42, 2):
            rep = theorem14_check(k)
            assert rep.ok, (k, rep)

    run_criterion(10, "both Eisenstein-product families have full rank, k = 8..40", body)


def test_criterion_11_property_suites():
    def body():
        # period symmetry on 200 sampled tuples
        rng = random.Random(20260810)
        checked = 0
        while checked < 200:
            level = rng.choice([2, 3, 4, 5])
            w = rng.choice(range(4, 32, 2))
            n = rng.randint(0, w)
            m = rng.randint(0, w)
            if 0 < n < w:
                if (m + n) % 2 == 0:
                    continue
            elif m % 2 == 0 or not 0 < m < w:
                continue
            lhs = period_value(PeriodContext(level, w, n), m)
            rhs = Fraction(-level) ** (w - n - m) * period_value(PeriodContext(level, w, w - n), w - m)
            assert lhs == rhs, (level, w, n, m)
            checked += 1

        # assembly agreement for N <= 5, w <= 30
        for level in (2, 3, 4, 5):
            for w in range(4, 32, 2):
                for n in range(2, w - 1, 2):
                    ctx = PeriodContext(level, w, n)
                    assert assemble_from_periods(ctx, "minus") == s_poly(ctx), (level, w, n)
                for n in range(1, w, 2):
                    ctx = PeriodContext(level, w, n)
                    assert assemble_from_periods(ctx, "plus") == r_plus_odd(ctx), (level, w, n)

        # Hecke commutativity and multiplicativity, coprime m1, m2 <= 10, w <= 22
        cache = {}

        def tmat(w, m):
            if (w, m) not in cache:
                cache[(w, m)] = hecke_matrix(2, w, m)
            return cache[(w, m)]

        pairs = [(a, b) for a in range(2, 11) for b in range(a + 1, 11) if gcd(a, b) == 1]
        for w in range(6, 24, 2):
            for m1, m2 in pairs:
                assert tmat(w, m1) * tmat(w, m2) == tmat(w, m2) * tmat(w, m1), (w, m1, m2)
                assert tmat(w, m1) * tmat(w, m2) == tmat(w, m1 * m2), (w, m1, m2)

        # T_{p^2} = T_p^2 - p^(w+1) for odd primes p, w <= 18
        for w in range(6, 20, 2):
            d = dim_cusp(2, w)
            for p in (3, 5):
                assert tmat(w, p * p) == tmat(w, p) * tmat(w, p) - ExactMatrix.identity(d) * (
                    p ** (w + 1)
                ), (w, p)

    run_criterion(11, "period symmetry, assembly agreement, and Hecke algebra relations", body)


def test_criterion_12_t2_delta_relations():
    def body():
        prec = 62
        delta = eta_quotient([(1, 24)], prec)
        delta2 = QSeries(12, scale_variable(delta, 2).coeffs, prec=prec)
        lhs = hecke_on_qseries(delta, 12, 2)
        rhs = -24 * delta + (-2048) * delta2
        assert lhs.prefix(30) == rhs.prefix(30)
        assert hecke_on_qseries(delta2, 12, 2).prefix(30) == delta.prefix(30)

    run_criterion(12, "T_2 action on Delta(z) and Delta(2z) through 30 coefficients", body)
