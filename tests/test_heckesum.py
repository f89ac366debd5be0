from fractions import Fraction
from math import comb, gcd

import pytest

from heckepoly import heckesum
from heckepoly.errors import UnsupportedParityError
from heckepoly.exactnum import bernoulli_poly0, divisors, moebius
from heckepoly.heckesum import (
    _pencil,
    diagonal_sum,
    eigenvalue_w6,
    enumerate_H_neg,
    fricke_mirror,
    hecke_images,
    moebius_correction,
    r_minus_hecke,
    s_poly_m,
    sign_restricted_sum,
)
from heckepoly.periodpoly import PeriodContext, s_poly
from heckepoly.polyring import BoundedPolynomial, compose_linear, reciprocal_scale
from heckepoly.qoracle import eta_quotient


def frac_poly(scale, coeffs, bound=None):
    return Fraction(*scale) * BoundedPolynomial(coeffs, bound=bound)


def test_enumerate_examples():
    assert enumerate_H_neg(4, 8) == [
        (-1, -1, 4, -4),
        (-1, 1, -4, -4),
        (1, -1, 4, 4),
        (1, 1, -4, 4),
    ]
    assert enumerate_H_neg(2, 1) == []
    assert enumerate_H_neg(5, 1) == []
    assert sorted(enumerate_H_neg(2, 3)) == sorted(
        [(1, 1, -2, 1), (1, -1, 2, 1), (-1, 1, -2, -1), (-1, -1, 2, -1)]
    )


def test_enumerate_defining_conditions():
    for level in (2, 3, 4, 5):
        for m in (4, 9, 12):
            mats = enumerate_H_neg(level, m)
            assert mats == sorted(mats)
            assert len(set(mats)) == len(mats)
            for a, b, c, d in mats:
                assert a * d - b * c == m
                assert c % level == 0
                assert a % level != 0 or level == 1
                assert a * b * c * d < 0


def test_enumerate_matches_exhaustive_scan():
    # brute-force 4-cube scan as the independent oracle
    for level, m in ((2, 6), (3, 5), (4, 8)):
        from math import gcd

        brute = sorted(
            (a, b, c, d)
            for a in range(-m, m + 1)
            for b in range(-m, m + 1)
            for c in range(-m, m + 1)
            for d in range(-m, m + 1)
            if a * d - b * c == m and c % level == 0 and gcd(a, level) == 1 and a * b * c * d < 0
        )
        assert enumerate_H_neg(level, m) == brute


def test_negation_closure_and_equal_summands():
    for level, m in ((2, 5), (4, 8), (3, 9)):
        mats = set(enumerate_H_neg(level, m))
        for a, b, c, d in mats:
            assert (-a, -b, -c, -d) in mats


def test_s_poly_m_vanishing_example():
    assert s_poly_m(PeriodContext(4, 4, 2), 2).is_zero()


def test_s_poly_m_identity_index():
    for level, w, n in ((2, 6, 2), (3, 8, 4), (5, 10, 3)):
        ctx = PeriodContext(level, w, n)
        assert s_poly_m(ctx, 1) == s_poly(ctx)


def test_s_poly_m_oddness_for_even_n():
    for level in (2, 3, 4, 5):
        for w in (4, 12, 20):
            for n in range(2, w - 1, 2):
                for m in (2, 7, 12):
                    p = s_poly_m(PeriodContext(level, w, n), m)
                    assert all(p.coeff(k) == 0 for k in range(0, w + 1, 2)), (level, w, n, m)


def test_level4_m8_decomposition():
    ctx = PeriodContext(4, 6, 2)
    assert sign_restricted_sum(ctx.level, ctx.w, [ctx.n], 8)[0] == -1024 * BoundedPolynomial([0, 1, 0, -2, 0, 1], bound=6)
    assert diagonal_sum(ctx, 8) == frac_poly((-256, 15), [0, -56, 0, 40, 0, 1], bound=6)
    assert moebius_correction(ctx, 8) == 256 * BoundedPolynomial([0, 0, 0, -4, 0, 3], bound=6)
    assert r_minus_hecke(ctx, 8) == frac_poly((-1024, 15), [0, 1, 0, -5, 0, 4], bound=6)


def test_corrected_polynomials_match_printed_w10():
    # the reference values for the index-2 polynomials at w = 10 are the
    # *corrected* polynomials (divisibility correction included), not the raw sums
    ctx2, ctx4 = PeriodContext(2, 10, 2), PeriodContext(2, 10, 4)
    printed2 = frac_poly((128, 45), [0, -5, 0, 30, 0, -42, 0, 5, 0, 12])
    printed4 = frac_poly((-32, 105), [0, -7, 0, 40, 0, -42, 0, -35, 0, 44])
    assert r_minus_hecke(ctx2, 2) == printed2
    assert r_minus_hecke(ctx4, 2) == printed4
    assert s_poly_m(ctx2, 2) != printed2
    assert s_poly_m(ctx4, 2) != printed4


def test_r_minus_equals_raw_when_not_divisible():
    for level, w, n, m in ((2, 10, 2, 3), (4, 8, 2, 3), (3, 8, 2, 5)):
        ctx = PeriodContext(level, w, n)
        assert r_minus_hecke(ctx, m) == s_poly_m(ctx, m)


def test_r_minus_parity_guard():
    with pytest.raises(UnsupportedParityError):
        r_minus_hecke(PeriodContext(2, 6, 3), 2)


def test_moebius_correction_guard():
    with pytest.raises(ValueError):
        moebius_correction(PeriodContext(2, 6, 2), 3)


def test_eigenvalue_examples():
    assert eigenvalue_w6(1) == 1
    assert eigenvalue_w6(3) == 12
    assert eigenvalue_w6(5) == -210
    with pytest.raises(UnsupportedParityError):
        eigenvalue_w6(4)
    with pytest.raises(ValueError):
        eigenvalue_w6(0)


def test_eigenvalue_matches_eta_expansion():
    f = eta_quotient([(1, 8), (2, 8)], 40)
    for m in range(1, 40, 2):
        assert eigenvalue_w6(m) == f.coeff(m)


def _diagonal_sum_by_composition(ctx, m):
    # the binomial-expansion form of diagonal_sum, kept as a reference
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    total = BoundedPolynomial.zero(w)
    for a in divisors(m):
        if gcd(a, level) != 1:
            continue
        d = m // a
        scaled = reciprocal_scale(compose_linear(bernoulli_poly0(nt + 1), d, 0), level, w)
        total = total + Fraction(a**n * level**nt, nt + 1) * scaled
        composed = BoundedPolynomial(compose_linear(bernoulli_poly0(n + 1), a, 0).coeffs, bound=w)
        total = total - Fraction(d**nt, n + 1) * composed
    return total


def _moebius_correction_by_composition(ctx, m):
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    acc = BoundedPolynomial.zero(w)
    for d in divisors(level):
        mu = moebius(level // d)
        if mu == 0:
            continue
        for c in divisors(m // level):
            scale = m * d // (c * level)
            poly = reciprocal_scale(compose_linear(bernoulli_poly0(n + 1), scale, 0), level, w)
            acc = acc + Fraction(mu * c**nt * level**w, d**n * (n + 1)) * poly
    return -acc


def test_scaled_sums_match_binomial_expansion():
    # every interior n at w = 6 and 10, odd n included (hecke-sum --raw reaches diagonal_sum with them)
    cases = [(w, n) for w in (6, 10) for n in range(1, w)] + [(14, 6), (8, 3), (12, 7)]
    for level in (2, 3, 4, 5, 6, 7):
        for w, n in cases:
            ctx = PeriodContext(level, w, n)
            for m in (1, 2, 4, 6, 12, 30, 210, 240, 256):
                assert diagonal_sum(ctx, m) == _diagonal_sum_by_composition(ctx, m), (level, w, n, m)
                if m % level == 0:
                    assert moebius_correction(ctx, m) == _moebius_correction_by_composition(ctx, m), (level, w, n, m)


def test_hecke_images_pairs_each_base_with_its_image():
    # one pair of Bernoulli rows per index serves both: the base is s_poly, the image s_poly_m plus the
    # Moebius correction when level | m, for several indices in one call
    for level in (2, 3, 4, 5, 6, 7):
        for m in (1, 4, 6, 12, 30):
            bases, images = hecke_images(level, 10, [2, 4, 6, 8], m)
            for n, base, image in zip((2, 4, 6, 8), bases, images):
                ctx = PeriodContext(level, 10, n)
                correction = moebius_correction(ctx, m) if m % level == 0 else BoundedPolynomial.zero(10)
                assert base == s_poly(ctx), (level, n, m)
                want = _sign_restricted_sum_by_matrices(ctx, m) + diagonal_sum(ctx, m) + correction
                assert image == want, (level, n, m)


def test_hecke_images_bases_are_s_poly():
    # mirrored (gcd(m, level) = 1) and direct indices alike
    for level in (2, 3, 4, 5):
        for w in range(4, 31, 2):
            ns = list(range(2, w, 2))
            for m in (1, 2, 3, 4, 5, 6, 25):
                bases, _ = hecke_images(level, w, ns, m)
                assert bases == [s_poly(PeriodContext(level, w, n)) for n in ns], (level, w, m)


def test_hecke_images_builds_each_bernoulli_order_once(monkeypatch):
    # at level 4 every ntilde is also an index, so the 24 indices share 24 orders instead of building 48 rows
    orders = []

    def counting(k):
        orders.append(k)
        return bernoulli_poly0(k)

    monkeypatch.setattr(heckesum, "bernoulli_poly0", counting)
    ns = list(range(2, 50, 2))
    bases, _ = hecke_images(4, 50, ns, 2)
    assert sorted(orders) == list(range(3, 50, 2))
    assert bases == [s_poly(PeriodContext(4, 50, n)) for n in ns]


def test_hecke_images_mirror_matches_single_index_calls():
    # with every even interior n in one call and gcd(m, level) = 1, one image of each pair n, w - n is read off
    # the other by W_N; a call with one index computes its polynomials directly
    for level in range(2, 10):
        for w in (4, 6, 12, 26):  # 4 and 12 have a self-mirrored index, w / 2
            ns = list(range(2, w, 2))
            for m in list(range(1, 16)) + [25, 49, 77, 97, 120, 121]:
                bases, images = hecke_images(level, w, ns, m)
                for n, base, image in zip(ns, bases, images):
                    assert ([base], [image]) == hecke_images(level, w, [n], m), (level, w, n, m)


def test_fricke_mirror_is_an_involution():
    for level in (2, 3, 4, 7):
        for w in (2, 6, 12):
            for n in range(w + 1):
                poly = BoundedPolynomial([Fraction((-1) ** k * (k * k + n + 1), k + level) for k in range(w + 1)])
                mirrored = fricke_mirror(poly, level, n)
                assert mirrored != poly
                assert fricke_mirror(mirrored, level, w - n) == poly, (level, w, n)


def test_fricke_mirror_needs_m_prime_to_the_level():
    # the bases mirror at every m, the images only when gcd(m, level) = 1: at level 4, m = 2 they do not
    level, w = 4, 10
    (base2, base8), (image2, image8) = hecke_images(level, w, [2, 8], 2)
    assert fricke_mirror(base2, level, 2) == base8
    assert fricke_mirror(image2, level, 2) != image8
    _, (image2, image8) = hecke_images(level, w, [2, 8], 3)
    assert fricke_mirror(image2, level, 2) == image8


def test_diagonal_sum_at_index_one_is_s_poly():
    for level in (2, 3, 4, 5, 6):
        for w in (2, 8, 14):
            for n in range(1, w):
                ctx = PeriodContext(level, w, n)
                assert diagonal_sum(ctx, 1) == s_poly(ctx)


def _sign_restricted_sum_by_matrices(ctx, m):
    # the per-matrix expansion over H_neg that the closed form replaced, kept as the oracle
    n, nt, w = ctx.n, ctx.ntilde, ctx.w
    acc = [0] * (w + 1)
    for a, b, c, d in enumerate_H_neg(ctx.level, m):
        if a < 0:
            continue
        sign = 1 if b > 0 else -1
        left = [sign * comb(n, i) * a**i * b ** (n - i) for i in range(n + 1)]
        right = [comb(nt, j) * c**j * d ** (nt - j) for j in range(nt + 1)]
        for i, u in enumerate(left):
            for j, v in enumerate(right):
                acc[i + j] += u * v
    return BoundedPolynomial(acc, bound=w)


def test_sign_restricted_sum_matches_per_matrix_expansion():
    # every n, odd n included (hecke-sum --raw reaches them), in one call per (level, w, m), so a
    # power-sum table sized or indexed for one n fails; m = 210 and 240 have many s with
    # gcd(s, m - s) > 1, e.g. s = 6, t = 204 at m = 210
    def check(level, w, ns, m):
        got = sign_restricted_sum(level, w, ns, m)
        assert len(got) == len(ns)
        for n, poly in zip(ns, got):
            assert poly == _sign_restricted_sum_by_matrices(PeriodContext(level, w, n), m), (level, w, n, m)

    for level, prime in ((2, 13), (3, 11), (4, 7), (5, 17), (6, 5), (7, 19)):
        for m in (1, 2, level, level * level, prime, 210, 240):
            for w in (2, 4) if m > 200 else (2, 6, 12, 30):
                check(level, w, range(w + 1), m)
    check(5, 30, [0, 1, 2, 15, 28, 29, 30], 240)
    check(7, 30, [0, 1, 2, 15, 28, 29, 30], 210)
    # 3 | 96: s and 96 - s share one pencil, reversed with the sign (-1)^nt, odd nt included
    check(3, 30, [0, 1, 2, 15, 28, 29, 30], 96)
    # gcd(98, 4) = 2 but 4 does not divide 98: neither the shared pencil nor d-sums equal to the a-sums apply
    check(4, 30, [0, 1, 2, 15, 28, 29, 30], 98)
    # m = 256, the CLI's largest index, at w = 30: a power table of 256 rows to exponent 30 and the longest pencils
    check(2, 30, [2, 14, 28], 256)


def test_pencil_recurrence_matches_binomial_convolution():
    for n in range(7):
        for nt in range(7):
            for s in (1, 2, 5, -3, 12):
                for t in (0, 1, 4, -2, 7, 30):
                    left = [comb(n, i) for i in range(n + 1)]
                    right = [comb(nt, j) * s ** (nt - j) * (-t) ** j for j in range(nt + 1)]
                    want = [0] * (n + nt + 1)
                    for i, u in enumerate(left):
                        for j, v in enumerate(right):
                            want[i + j] += u * v
                    assert _pencil(n, nt, s, t) == want, (n, nt, s, t)


def test_pencil_reversal():
    # X^w P(s, t)(1/X) = (-1)^nt P(t, s): the pencil of m - s is that of s, reversed, times (-1)^nt;
    # t = 0 is left out, as _pencil divides by its s argument
    for n in range(7):
        for nt in range(7):
            for s in (1, 2, 5, -3, 12):
                for t in (1, 4, -2, 7, 30):
                    assert _pencil(n, nt, t, s) == [(-1) ** nt * x for x in reversed(_pencil(n, nt, s, t))], (n, nt, s, t)


def test_sign_restricted_sum_refuses_nonpositive_m():
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be positive"):
            sign_restricted_sum(2, 4, [2], m)
