"""Closed-form period polynomials of the cusp forms dual to the period functionals.

For a level N >= 2, even weight parameter w, and index 0 <= n <= w this module
evaluates, in exact rational arithmetic,

* the odd period polynomial S_{N,w,n} (the r^- of the even-index forms),
* the even period polynomial of the odd-index forms (S plus an Euler-product
  correction supported on X^w and X^0),
* the individual period values r_m, including the boundary indices n in {0, w},
* and an independent reassembly of the polynomials from those period values.

The transcendental factor 2*pi*i that the underlying integral formulas carry on
both sides cancels throughout, so every quantity here is a plain Fraction; the
stored rational normalizer is c_rat = (-1)^n * C(w, n).
"""

from fractions import Fraction
from math import comb, lcm, prod
from typing import NamedTuple

from .errors import UnsupportedParityError
from .exactnum import bernoulli_number, bernoulli_poly0, power_sums, prime_divisors, require_even, require_level
from .polyring import BoundedPolynomial


class PeriodContext(NamedTuple("PeriodContext", [("level", int), ("w", int), ("n", int)])):
    """The tuple (level, w, n) governing one period computation."""

    __slots__ = ()

    def __new__(cls, level, w, n):
        require_level(level)
        require_even("w", w, 2)
        if not 0 <= n <= w:
            raise ValueError("n must satisfy 0 <= n <= w")
        return super().__new__(cls, level, w, n)

    @property
    def ntilde(self):
        return self.w - self.n

    @property
    def c_rat(self):
        """Rational part of the normalizer: (-1)^n * C(w, n)."""
        return Fraction((-1) ** self.n * comb(self.w, self.n))


def euler_ratio(level, s, t):
    """prod over primes p | level of (1 - p^-s) / (1 - p^-t) = (p^s - 1) p^t / ((p^t - 1) p^s), as one quotient."""
    primes = prime_divisors(level)
    return Fraction(prod((p**s - 1) * p**t for p in primes), prod((p**t - 1) * p**s for p in primes))


def _require_interior(ctx):
    if not 0 < ctx.n < ctx.w:
        raise ValueError("need 0 < n < w, got n=%d, w=%d" % (ctx.n, ctx.w))


def bernoulli_rows(ctx):
    """B^0_(nt+1) and B^0_(n+1), each an integer row over one denominator: every period sum at ctx reads them."""
    return bernoulli_poly0(ctx.ntilde + 1), bernoulli_poly0(ctx.n + 1)


def period_sum(ctx, rows, pairs, term_sums=()):
    """Sum of the Bernoulli terms over pairs and terms, in one integer pass over the rows (r1, D1), (r2, D2) of ctx.

    A pair (a, d) adds a^n N^nt/(nt+1) X^w B^0_(nt+1)(d/(NX)) - d^nt/(n+1) B^0_(n+1)(aX), a term (c, x) adds
    -c N^nt/(n+1) X^w B^0_(n+1)(x/(NX)) (N the level), and the terms come summed: term_sums[e] = sum of c x^e,
    e = 0..n+1.  X^(w-e) gets r1[e] N^(nt-e) (sum of a^n d^e) / ((nt+1) D1) - r2[e] N^(nt-e) term_sums[e] / ((n+1) D2),
    X^e gets -r2[e] (sum of d^nt a^e) / ((n+1) D2), all over one denominator N^s lcm((nt+1) D1, (n+1) D2), s >= 1
    the least shift making every N^(nt-e+s) an integer.
    """
    _require_interior(ctx)
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    (r1, d1), (r2, d2) = ((p.num, p.den) for p in rows)
    shift = max(1, n + 1 - nt) if term_sums else 1
    common = lcm((nt + 1) * d1, (n + 1) * d2)
    u, v = common // ((nt + 1) * d1), common // ((n + 1) * d2)
    num = [0] * (w + 1)
    a_sums = power_sums([(a**n, d) for a, d in pairs], nt + 1)
    for e in range(nt + 1, -1, -2):
        num[w - e] += u * r1[e] * a_sums[e] * level ** (nt + shift - e)
    d_sums = power_sums([(d**nt, a) for a, d in pairs], n + 1)
    for e in range(n + 1, -1, -2):
        num[e] -= v * r2[e] * d_sums[e] * level**shift
    if term_sums:
        for e in range(n + 1, -1, -2):
            num[w - e] -= v * r2[e] * term_sums[e] * level ** (nt + shift - e)
    return BoundedPolynomial._over(num, common * level**shift)


def s_poly(ctx):
    """S_{N,w,n}(X) = (N^nt/(nt+1)) X^w B^0_{nt+1}(1/(NX)) - (1/(n+1)) B^0_{n+1}(X): the diagonal sum at m = 1."""
    return period_sum(ctx, bernoulli_rows(ctx), [(1, 1)])


def r_plus_odd(ctx):
    """Even period polynomial for odd n: S_{N,w,n} minus the Euler-product correction.

    The correction is supported on X^w and X^0 only.
    """
    _require_interior(ctx)
    if ctx.n % 2 == 0:
        raise UnsupportedParityError("the even-polynomial formula needs odd n, got n=%d" % ctx.n)
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    scalar = (
        (w + 2)
        * bernoulli_number(n + 1)
        * bernoulli_number(nt + 1)
        / ((n + 1) * (nt + 1) * bernoulli_number(w + 2))
    )
    top = Fraction(1, level) * euler_ratio(level, n + 1, w + 2)
    low = Fraction(1, level ** (n + 1)) * euler_ratio(level, nt + 1, w + 2)
    return s_poly(ctx) - scalar * BoundedPolynomial([-low] + [0] * (w - 1) + [top])


def period_value(ctx, m):
    """The m-th period r_m of the form indexed by (level, w, n), as a Fraction.

    Supported cases: interior n with m of the opposite parity, and boundary
    n in {0, w} with odd interior m.
    """
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    if not 0 <= m <= w:
        raise ValueError("need 0 <= m <= w, got m=%d" % m)
    if 0 < n < w:
        if (m + n) % 2 == 0:
            raise UnsupportedParityError(
                "period index m=%d and n=%d of equal parity are outside the closed formulas" % (m, n)
            )
        if m + n > w:
            inner = (
                Fraction(comb(m + 1, nt), m + 1) * bernoulli_number(m - nt + 1)
                - (Fraction(1, level * n) if m == nt + 1 else 0)
                - (
                    comb(w + 2, n + 1)
                    * bernoulli_number(n + 1)
                    * bernoulli_number(nt + 1)
                    / ((w + 1) * level ** (n + 1) * bernoulli_number(w + 2))
                    * euler_ratio(level, nt + 1, w + 2)
                    if m == w
                    else 0
                )
            )
            return inner / ctx.c_rat
        mt = w - m
        inner = (
            Fraction(comb(mt + 1, n), mt + 1) * bernoulli_number(mt - n + 1)
            - (Fraction(1, level * nt) if mt == n + 1 else 0)
            - (
                comb(w + 2, n + 1)
                * bernoulli_number(n + 1)
                * bernoulli_number(nt + 1)
                / ((w + 1) * level ** (nt + 1) * bernoulli_number(w + 2))
                * euler_ratio(level, n + 1, w + 2)
                if m == 0
                else 0
            )
        )
        return (-level) ** (nt - m) * inner / ctx.c_rat
    # boundary indices n = w and n = 0: closed forms for odd interior m
    if m % 2 == 0 or not 0 < m < w:
        raise UnsupportedParityError("for n in {0, w} only odd m with 0 < m < w is supported, got m=%d" % m)
    mt = w - m
    if n == w:
        return (
            Fraction(1, m + 1) * bernoulli_number(m + 1)
            - (Fraction(1, level * w) if w == mt + 1 else 0)
            - (w + 2)
            * bernoulli_number(m + 1)
            * bernoulli_number(mt + 1)
            / (level ** (m + 1) * (m + 1) * (mt + 1) * bernoulli_number(w + 2))
            * euler_ratio(level, mt + 1, w + 2)
        )
    return -(level**mt) * (
        Fraction(1, mt + 1) * bernoulli_number(mt + 1)
        - (Fraction(1, level * w) if w == m + 1 else 0)
        - (w + 2)
        * bernoulli_number(m + 1)
        * bernoulli_number(mt + 1)
        / (level ** (mt + 1) * (m + 1) * (mt + 1) * bernoulli_number(w + 2))
        * euler_ratio(level, m + 1, w + 2)
    )


def assemble_from_periods(ctx, sign):
    """Rebuild the period polynomial directly from individual period values.

    The expansion of the defining integral kernel gives, for even w,

        r(X) = sum_m (-1)^m C(w, m) X^m r_{w-m},

    so the odd part collects odd m with a global minus and the even part
    collects even m (including the boundary terms m = 0 and m = w).  This is
    an independent construction path against s_poly / r_plus_odd.
    """
    _require_interior(ctx)
    w = ctx.w
    if sign == "minus":
        if ctx.n % 2:
            raise UnsupportedParityError("minus-assembly needs even n, got n=%d" % ctx.n)
        start, flip = 1, -1
    elif sign == "plus":
        if ctx.n % 2 == 0:
            raise UnsupportedParityError("plus-assembly needs odd n, got n=%d" % ctx.n)
        start, flip = 0, 1
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    coeffs = [Fraction(0)] * (w + 1)
    for m in range(start, w + 1, 2):
        coeffs[m] = flip * comb(w, m) * period_value(ctx, w - m)
    return BoundedPolynomial(coeffs, bound=w)
