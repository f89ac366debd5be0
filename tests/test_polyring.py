import random
from fractions import Fraction
from math import gcd

import pytest

from heckepoly.exactnum import bernoulli_poly0
from heckepoly.polyring import (
    BoundedPolynomial,
    coeff_dot,
    coeff_inner_product,
    compose_linear,
    convolve,
    reciprocal_scale,
)


def rand_poly(rng, bound):
    return BoundedPolynomial(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(bound + 1)], bound=bound
    )


def test_constructor_bound_rules():
    p = BoundedPolynomial([1, 2], bound=4)
    assert p.coeffs == [1, 2, 0, 0, 0]
    assert p.degree() == 1
    # trailing zeros beyond the bound are tolerated, nonzeros are not
    assert BoundedPolynomial([1, 0, 0], bound=1).bound == 1
    with pytest.raises(ValueError):
        BoundedPolynomial([1, 0, 3], bound=1)
    with pytest.raises(ValueError):
        BoundedPolynomial([1], bound=-1)


def test_constructor_takes_any_iterable_of_ints_and_fractions():
    values = (1, Fraction(-1, 2), 0, 3)
    for given in (list(values), values, (c for c in values)):
        p = BoundedPolynomial(given)
        assert (p.num, p.den, p.bound) == ([2, -1, 0, 6], 2, 3)
    # a one-shot iterator is read once, for the bound check and the coefficients alike
    assert BoundedPolynomial(iter([1, 2, 0]), bound=1).coeffs == [1, 2]
    with pytest.raises(ValueError):
        BoundedPolynomial((c for c in (1, 0, 3)), bound=1)


def test_arithmetic_and_equality():
    p = BoundedPolynomial([1, 2, 3])
    q = BoundedPolynomial([0, 1], bound=5)
    assert (p + q).coeff(1) == 3
    assert (p - p).is_zero()
    assert p == BoundedPolynomial([1, 2, 3], bound=9)
    assert 2 * p == BoundedPolynomial([2, 4, 6])
    assert (p * q).coeff(3) == 3


def test_reciprocal_scale_examples():
    xsq = BoundedPolynomial([0, 0, 1])
    assert reciprocal_scale(xsq, 2, 4) == BoundedPolynomial([0, 0, Fraction(1, 4)], bound=4)
    one = BoundedPolynomial([1])
    assert reciprocal_scale(one, 3, 6) == BoundedPolynomial([0] * 6 + [1])


def test_reciprocal_scale_assembles_s262():
    # (2^4/5) * X^6 B0_5(1/(2X)) - (1/3) B0_3(X) = -(1/15)(4X^5 - 5X^3 + X)
    got = Fraction(16, 5) * reciprocal_scale(bernoulli_poly0(5), 2, 6) - Fraction(1, 3) * BoundedPolynomial(
        bernoulli_poly0(3).coeffs, bound=6
    )
    want = Fraction(-1, 15) * BoundedPolynomial([0, 1, 0, -5, 0, 4], bound=6)
    assert got == want


def test_reciprocal_scale_degree_guard():
    with pytest.raises(ValueError):
        reciprocal_scale(BoundedPolynomial([0] * 5 + [1]), 2, 4)


def test_reciprocal_scale_involution():
    rng = random.Random(3)
    for _ in range(40):
        w = rng.choice([2, 4, 6, 10])
        level = rng.randint(2, 6)
        p = rand_poly(rng, w)
        twice = reciprocal_scale(reciprocal_scale(p, level, w), level, w)
        assert twice == Fraction(1, level**w) * p


def test_compose_linear_examples():
    x = BoundedPolynomial([0, 1])
    assert compose_linear(x, 2, 3) == BoundedPolynomial([3, 2])
    xsq = BoundedPolynomial([0, 0, 1])
    assert compose_linear(xsq, 1, 0) == xsq
    got = compose_linear(bernoulli_poly0(3), 1, 1)
    assert got == BoundedPolynomial([Fraction(3, 2), Fraction(7, 2), 3, 1])


def test_compose_linear_composition():
    rng = random.Random(5)
    for _ in range(40):
        p = rand_poly(rng, rng.choice([3, 5, 8]))
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        assert compose_linear(compose_linear(p, a, b), c, d) == compose_linear(p, a * c, a * d + b)


def test_inner_product_basics():
    x = BoundedPolynomial([0, 1], bound=10)
    assert coeff_inner_product(x, x) == 1
    with pytest.raises(ValueError):
        coeff_inner_product(x, BoundedPolynomial([0, 1], bound=4))


def test_inner_product_symmetric_bilinear():
    rng = random.Random(9)
    for _ in range(30):
        w = rng.choice([4, 7])
        f, g, h = (rand_poly(rng, w) for _ in range(3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert coeff_inner_product(f, g) == coeff_inner_product(g, f)
        assert coeff_inner_product(f + h, g) == coeff_inner_product(f, g) + coeff_inner_product(h, g)
        assert coeff_inner_product(c * f, g) == c * coeff_inner_product(f, g)
        # the integer pairing behind it, which the Gram matrices use directly
        assert coeff_dot(f, g) == coeff_inner_product(f, g) * f.den * g.den == sum(
            a * b for a, b in zip(f.coeffs, g.coeffs)
        ) * f.den * g.den


def test_inner_product_printed_polynomial():
    # self-pairing of -(1/45)(192X^9 - 320X^7 + 168X^5 - 45X^3 + 5X)
    s = Fraction(-1, 45) * BoundedPolynomial([0, 5, 0, -45, 0, 168, 0, -320, 0, 192], bound=10)
    assert coeff_inner_product(s, s) == Fraction(169538, 2025)


def _fraction_model_check(p, coeffs, bound):
    # the integer representation against a plain Fraction coefficient list
    assert type(p) is BoundedPolynomial and p.bound == bound
    assert p.coeffs == coeffs + [Fraction(0)] * (bound + 1 - len(coeffs))
    assert p.den > 0
    assert gcd(p.den, *p.num) == 1
    if not any(p.num):
        assert p.den == 1


def test_integer_representation_matches_fraction_model():
    rng = random.Random(17)

    def rand_coeffs(bound):
        if rng.random() < 0.15:
            return [Fraction(0)] * (bound + 1)
        return [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9, 35])) for _ in range(bound + 1)]

    def pad(c, n):
        return c + [Fraction(0)] * (n - len(c))

    for _ in range(150):
        ba, bb = rng.randint(0, 8), rng.randint(0, 8)
        a, b = rand_coeffs(ba), rand_coeffs(bb)
        p, q = BoundedPolynomial(a, bound=ba), BoundedPolynomial(b, bound=bb)
        _fraction_model_check(p, a, ba)
        top = max(ba, bb)
        _fraction_model_check(p + q, [x + y for x, y in zip(pad(a, top + 1), pad(b, top + 1))], top)
        _fraction_model_check(p - q, [x - y for x, y in zip(pad(a, top + 1), pad(b, top + 1))], top)
        _fraction_model_check(-p, [-x for x in a], ba)
        for c in (0, 2, Fraction(1, 2), rng.randint(-7, 7), Fraction(rng.randint(-7, 7), rng.randint(1, 12))):
            _fraction_model_check(p * c, [c * x for x in a], ba)
            _fraction_model_check(c * p, [c * x for x in a], ba)
            assert (p == c * p) == (c == 1 or not any(a))
        product = [Fraction(0)] * (ba + bb + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        _fraction_model_check(p * q, product, ba + bb)
        deg = max((k for k, x in enumerate(a) if x), default=-1)
        for new_bound in (max(deg, 0), ba + rng.randint(0, 4)):
            rebound = BoundedPolynomial(p.coeffs, bound=new_bound)
            _fraction_model_check(rebound, pad(a, new_bound + 1)[: new_bound + 1], new_bound)
            # equality ignores the ambient bound, and only the bound
            assert p == rebound == BoundedPolynomial(a, bound=ba)
        assert (p == q) == (pad(a, top + 1) == pad(b, top + 1))
        assert p != p + BoundedPolynomial([0] * (ba + 1) + [Fraction(1, 3)])
        level, w = rng.randint(1, 6), max(deg, 0) + rng.randint(0, 3)
        scaled = [Fraction(0)] * (w + 1)
        for k, x in enumerate(a[: w + 1]):
            scaled[w - k] = x / level**k
        _fraction_model_check(reciprocal_scale(p, level, w), scaled, w)


def schoolbook(a, b, length):
    out = [0] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] += x * y
    return out


def test_convolve_matches_schoolbook():
    rng = random.Random(20260)
    cases = [([], [], 3), ([], [5, -1], 2), ([0, 0, 0], [7, -7], 4), ([3], [0] * 5, 5), ([1, 2], [3], 0)]
    for _ in range(300):
        la, lb = rng.randint(0, 12), rng.randint(0, 12)
        bits = rng.choice((1, 4, 20, 70, 200))
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
        b = [rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(lb)]
        # length below, at and above len(a) + len(b) - 1
        full = la + lb - 1
        cases += [(a, b, n) for n in {0, 1, max(full - 2, 0), max(full, 0), full + 3}]
    # slot edges: all entries +-(2^j - 1), so the largest coefficient meets the slot bound
    for j in (1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65):
        top = 2**j - 1
        for la, lb in ((1, 1), (2, 3), (4, 4), (5, 2), (8, 9)):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * top] * la, [sb * top] * lb
                cases.append((a, b, la + lb - 1))
                mixed = [rng.choice((top, -top)) for _ in range(la)]
                cases.append((mixed, b, la + lb))
    for a, b, length in cases:
        assert convolve(a, b, length) == schoolbook(a, b, length), (a, b, length)


def test_coeff_outside_the_bound_is_zero_and_reciprocal_scale_needs_a_level():
    p = BoundedPolynomial([1, Fraction(2, 3)], bound=3)
    assert [p.coeff(k) for k in (-1, 1, 3, 4)] == [0, Fraction(2, 3), 0, 0]
    assert type(p.coeff(4)) is Fraction
    for level in (0, -2):
        with pytest.raises(ValueError, match="^level must be positive$"):
            reciprocal_scale(p, level, 3)
