"""Hecke-side period polynomial sums.

The index-m analogue of the period polynomial is a sum over the set H_{N,m}
of integer matrices of determinant m with N | c and gcd(a, N) = 1: a
sign-restricted part over abcd < 0 plus a diagonal part over ad = m, with a
Moebius double-sum correction when N | m.
"""

from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .errors import UnsupportedParityError
from .exactnum import bernoulli_poly0, divisors, moebius, sigma
from .polyring import BoundedPolynomial, reciprocal_scale, scale_argument


class IntMat2(NamedTuple):
    a: int
    b: int
    c: int
    d: int


def enumerate_H_neg(level, m):
    """All matrices in H_{level,m} with abcd < 0, sorted lexicographically.

    abcd < 0 forces ad > 0 and bc < 0 (else the determinant would be negative),
    hence ad = s and |bc| = m - s with 1 <= s <= m - 1; splitting both values
    into divisor pairs enumerates the set without scanning a 4-cube.
    """
    if level < 2:
        raise ValueError("level must be >= 2")
    if m < 1:
        raise ValueError("m must be positive")
    out = []
    for s in range(1, m):
        t = m - s
        apairs = [(a, s // a) for a in divisors(s) if gcd(a, level) == 1]
        bpairs = [(b, t // b) for b in divisors(t) if (t // b) % level == 0]
        for a, d in apairs:
            for b, c in bpairs:
                out.append(IntMat2(a, b, -c, d))
                out.append(IntMat2(a, -b, c, d))
                out.append(IntMat2(-a, b, -c, -d))
                out.append(IntMat2(-a, -b, c, -d))
    out.sort()
    return out


def _linear_power(a, b, e):
    # coefficient list of (a*X + b)^e, ascending; plain ints for speed
    return [comb(e, k) * a**k * b ** (e - k) for k in range(e + 1)]


def sign_restricted_sum(ctx, m):
    """(1/2) sum over H_neg of sgn(ab) (aX+b)^n (cX+d)^nt.

    H_neg is closed under global negation and the two members of an orbit
    contribute equal summands (w is even), so summing the a > 0
    representatives once absorbs the 1/2 exactly.
    """
    n, nt, w = ctx.n, ctx.ntilde, ctx.w
    acc = [0] * (w + 1)
    for a, b, c, d in enumerate_H_neg(ctx.level, m):
        if a < 0:
            continue
        sign = 1 if b > 0 else -1
        left = _linear_power(a, b, n)
        right = _linear_power(c, d, nt)
        for i, u in enumerate(left):
            if not u:
                continue
            su = sign * u
            for j, v in enumerate(right):
                if v:
                    acc[i + j] += su * v
    return BoundedPolynomial(acc, bound=w)


def diagonal_sum(ctx, m):
    """sum over ad = m, a > 0, gcd(a, level) = 1 of the two reciprocal/Bernoulli terms."""
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    total = BoundedPolynomial.zero(w)
    for a in divisors(m):
        if gcd(a, level) != 1:
            continue
        d = m // a
        scaled = reciprocal_scale(scale_argument(bernoulli_poly0(nt + 1), d), level, w)
        total = total + Fraction(a**n * level**nt, nt + 1) * scaled
        total = total - Fraction(d**nt, n + 1) * scale_argument(bernoulli_poly0(n + 1), a).with_bound(w)
    return total


def s_poly_m(ctx, m):
    """The raw index-m period polynomial sum (no divisibility correction)."""
    if not 0 < ctx.n < ctx.w:
        raise ValueError("need 0 < n < w, got n=%d, w=%d" % (ctx.n, ctx.w))
    if m < 1:
        raise ValueError("m must be positive")
    return sign_restricted_sum(ctx, m) + diagonal_sum(ctx, m)


def moebius_correction(ctx, m):
    """The extra term of the corrected odd period polynomial when level | m.

    Returns the signed addend, i.e. r_minus_hecke = s_poly_m + moebius_correction.
    """
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    if m % level:
        raise ValueError("correction only applies when level | m")
    acc = BoundedPolynomial.zero(w)
    for d in divisors(level):
        mu = moebius(level // d)
        if mu == 0:
            continue
        for c in divisors(m // level):
            scale = m * d // (c * level)
            poly = reciprocal_scale(scale_argument(bernoulli_poly0(n + 1), scale), level, w)
            acc = acc + Fraction(mu * c**nt * level**w, d**n * (n + 1)) * poly
    return -acc


def r_minus_hecke(ctx, m):
    """Odd period polynomial of the index-m form: s_poly_m, corrected when level | m."""
    if ctx.n % 2:
        raise UnsupportedParityError("the odd period polynomial needs even n, got n=%d" % ctx.n)
    base = s_poly_m(ctx, m)
    if m % ctx.level == 0:
        base = base + moebius_correction(ctx, m)
    return base


def eigenvalue_w6(m):
    """m-th Hecke eigenvalue of the weight-8 normalized cusp form at level 2, odd m.

    a_m = m sigma_1(m) + 240 sum over u + 2v = m, u,v >= 1 of (u-v) sigma_1(u) sigma_3(v).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 0:
        raise UnsupportedParityError("the eigenvalue formula covers odd m only, got m=%d" % m)
    total = m * sigma(1, m)
    for v in range(1, (m - 1) // 2 + 1):
        u = m - 2 * v
        total += 240 * (u - v) * sigma(1, u) * sigma(3, v)
    return total
