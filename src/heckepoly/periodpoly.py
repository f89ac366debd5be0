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

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import UnsupportedParityError
from .exactnum import bernoulli_number, bernoulli_poly0, prime_divisors
from .polyring import BoundedPolynomial, reciprocal_scale


@dataclass(frozen=True)
class PeriodContext:
    """The tuple (level, w, n) governing one period computation."""

    level: int
    w: int
    n: int

    def __post_init__(self):
        if self.level < 2:
            raise ValueError("level must be >= 2")
        if self.w <= 0 or self.w % 2:
            raise ValueError("w must be a positive even integer")
        if not 0 <= self.n <= self.w:
            raise ValueError("n must satisfy 0 <= n <= w")

    @property
    def ntilde(self):
        return self.w - self.n

    @property
    def c_rat(self):
        """Rational part of the normalizer: (-1)^n * C(w, n)."""
        return Fraction((-1) ** self.n * comb(self.w, self.n))


def euler_ratio(level, s, t):
    """prod over primes p | level of (1 - p^-s) / (1 - p^-t)."""
    value = Fraction(1)
    for p in prime_divisors(level):
        value *= (1 - Fraction(1, p**s)) / (1 - Fraction(1, p**t))
    return value


def _require_interior(ctx):
    if not 0 < ctx.n < ctx.w:
        raise ValueError("need 0 < n < w, got n=%d, w=%d" % (ctx.n, ctx.w))


def s_poly(ctx):
    """S_{N,w,n}(X) = (N^nt/(nt+1)) X^w B^0_{nt+1}(1/(NX)) - (1/(n+1)) B^0_{n+1}(X)."""
    _require_interior(ctx)
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    first = Fraction(level**nt, nt + 1) * reciprocal_scale(bernoulli_poly0(nt + 1), level, w)
    second = Fraction(1, n + 1) * bernoulli_poly0(n + 1).with_bound(w)
    return first - second


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
