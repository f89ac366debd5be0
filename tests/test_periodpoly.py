import random
from fractions import Fraction

import pytest

from heckepoly.errors import UnsupportedParityError
from heckepoly.exactnum import bernoulli_number, prime_divisors
from heckepoly.periodpoly import (
    PeriodContext,
    assemble_from_periods,
    euler_ratio,
    period_value,
    r_plus_odd,
    s_poly,
)
from heckepoly.polyring import BoundedPolynomial


def frac_poly(scale, coeffs, bound=None):
    return Fraction(*scale) * BoundedPolynomial(coeffs, bound=bound)


def test_context_validation():
    with pytest.raises(ValueError):
        PeriodContext(1, 6, 2)
    with pytest.raises(ValueError):
        PeriodContext(2, 5, 2)
    for n in (7, -1):  # n outside [0, w]
        with pytest.raises(ValueError, match="^n must satisfy 0 <= n <= w$"):
            PeriodContext(2, 6, n)
    ctx = PeriodContext(2, 6, 2)
    assert ctx.ntilde == 4
    assert ctx.c_rat == 15
    assert PeriodContext(2, 6, 3).c_rat == -20


def test_euler_ratio():
    assert euler_ratio(2, 4, 8) == (1 - Fraction(1, 16)) / (1 - Fraction(1, 256))
    assert euler_ratio(6, 3, 5) == euler_ratio(2, 3, 5) * euler_ratio(3, 3, 5)
    assert euler_ratio(4, 3, 5) == euler_ratio(2, 3, 5)


def _euler_ratio_by_factors(level, s, t):
    value = Fraction(1)
    for p in prime_divisors(level):
        value *= (1 - Fraction(1, p**s)) / (1 - Fraction(1, p**t))
    return value


def test_euler_ratio_matches_the_product_of_its_factors():
    # both sides of the assembly suite read euler_ratio, so it is checked here against one factor per prime
    for level in range(2, 31):
        for s in range(1, 13):
            for t in range(1, 13):
                assert euler_ratio(level, s, t) == _euler_ratio_by_factors(level, s, t), (level, s, t)


def test_s_poly_printed_values():
    assert s_poly(PeriodContext(2, 6, 2)) == frac_poly((-1, 15), [0, 1, 0, -5, 0, 4])
    assert s_poly(PeriodContext(2, 10, 2)) == frac_poly((-1, 45), [0, 5, 0, -45, 0, 168, 0, -320, 0, 192])


def test_s_poly_2_10_4_recomputed():
    # recomputed from the defining formula; the widely circulated rendering
    # of this polynomial mistypes X^7 as X^6 and X^5 as X^4, which would
    # break the odd-parity structure proven for even n
    got = s_poly(PeriodContext(2, 10, 4))
    assert got == frac_poly((1, 210), [0, 7, 0, -55, 0, 168, 0, -280, 0, 160])
    assert all(got.coeff(k) == 0 for k in range(0, 11, 2))


def test_s_poly_leading_coefficient_remark():
    # r^-(index 2, w = 6, level 2) = N^3 B_4 X^5 + ...
    assert s_poly(PeriodContext(2, 6, 2)).coeff(5) == 2**3 * bernoulli_number(4)


def test_s_poly_is_odd_for_even_n():
    for level in (2, 3, 5):
        for w in (6, 10, 14):
            for n in range(2, w - 1, 2):
                p = s_poly(PeriodContext(level, w, n))
                assert p.degree() <= w - 1
                assert all(p.coeff(k) == 0 for k in range(0, w + 1, 2))


def test_s_poly_interior_guard():
    with pytest.raises(ValueError):
        s_poly(PeriodContext(2, 6, 0))
    with pytest.raises(ValueError):
        s_poly(PeriodContext(2, 6, 6))


def test_r_plus_parity_guard():
    with pytest.raises(UnsupportedParityError):
        r_plus_odd(PeriodContext(2, 6, 2))


def test_r_plus_is_even_with_boundary_correction():
    for level in (2, 3, 4):
        for w in (6, 10):
            for n in range(1, w, 2):
                ctx = PeriodContext(level, w, n)
                plus = r_plus_odd(ctx)
                assert all(plus.coeff(k) == 0 for k in range(1, w + 1, 2))
                diff = plus - s_poly(ctx)
                # the correction lives on X^w and X^0 only
                assert all(diff.coeff(k) == 0 for k in range(1, w))


def test_period_value_examples():
    assert period_value(PeriodContext(2, 6, 2), 5) == Fraction(1, 90)
    assert period_value(PeriodContext(2, 6, 4), 1) == Fraction(-1, 45)
    # cross-check against the printed X^3 coefficient of the index-2 polynomial:
    # coeff X^3 = -C(6,3) r_3 and the printed coefficient is 1/3
    assert period_value(PeriodContext(2, 6, 2), 3) == Fraction(-1, 60)


def test_period_value_delta_activation():
    # at m = ntilde + 1 the Kronecker term contributes; removing it changes the value
    ctx = PeriodContext(2, 6, 2)
    with_delta = period_value(ctx, 5)
    base = Fraction(15, 36) / ctx.c_rat  # the binomial-Bernoulli part alone at m = 5
    assert with_delta != base
    assert base - with_delta == Fraction(1, 2 * 2) / ctx.c_rat


def test_period_value_parity_guards():
    with pytest.raises(UnsupportedParityError):
        period_value(PeriodContext(2, 6, 2), 4)
    with pytest.raises(UnsupportedParityError):
        period_value(PeriodContext(2, 6, 0), 2)
    with pytest.raises(UnsupportedParityError):
        period_value(PeriodContext(2, 6, 6), 0)
    with pytest.raises(ValueError):
        period_value(PeriodContext(2, 6, 2), 7)


def test_period_symmetry_sampled():
    rng = random.Random(101)
    checked = 0
    while checked < 120:
        level = rng.choice([2, 3, 4, 5])
        w = rng.choice(range(4, 28, 2))
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


def test_assembly_matches_direct_construction():
    assert assemble_from_periods(PeriodContext(2, 6, 2), "minus") == s_poly(PeriodContext(2, 6, 2))
    assert assemble_from_periods(PeriodContext(3, 8, 4), "minus") == s_poly(PeriodContext(3, 8, 4))
    assert assemble_from_periods(PeriodContext(2, 6, 3), "plus") == r_plus_odd(PeriodContext(2, 6, 3))


def test_assembly_guards():
    with pytest.raises(UnsupportedParityError):
        assemble_from_periods(PeriodContext(2, 6, 3), "minus")
    with pytest.raises(UnsupportedParityError):
        assemble_from_periods(PeriodContext(2, 6, 2), "plus")
    with pytest.raises(ValueError):
        assemble_from_periods(PeriodContext(2, 6, 2), "both")
