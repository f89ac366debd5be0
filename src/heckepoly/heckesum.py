"""Hecke-side period polynomial sums.

The index-m analogue of the period polynomial is a sum over the set H_{N,m}
of integer matrices of determinant m with N | c and gcd(a, N) = 1: a
sign-restricted part over abcd < 0 plus a diagonal part over ad = m, with a
Moebius double-sum correction when N | m.

The sign-restricted part is never summed matrix by matrix.  Its members with
a > 0 are (a, b, -c, d) and (a, -b, c, d) with a, b, c, d > 0, ad = s and
bc = t = m - s, and X -> (b/a)X turns (aX+b)^n (-cX+d)^nt into
b^n a^-nt (1+X)^n (s - tX)^nt, so

    [X^k] (aX+b)^n (-cX+d)^nt = a^(k-nt) b^(n-k) [X^k] (1+X)^n (s - tX)^nt.

The pair sums to g(X) - (-1)^n g(-X), which keeps the k with n + k odd,
doubled.  Summed over the divisor pairs of s and t, each coefficient is one
"pencil" coefficient times two divisor power sums; negative powers of a
(of b) are written as powers of d = s/a (of c = t/b) over a power of s
(of t), and that power divides the product exactly because the product is
the integer sum of the per-matrix coefficients.

Every power is read from one table x^0..x^w, x < m, and the divisor power
sums never depend on n, so ``sign_restricted_sum`` serves a list of indices
from one pass; ``hecke_images`` corrects the images of a whole period basis.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import UnsupportedParityError
from .exactnum import bernoulli_poly0, divisors, moebius, sigma
from .periodpoly import PeriodContext, _require_interior
from .polyring import BoundedPolynomial, reciprocal_scale


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


def _pencil(n, nt, s, t):
    """Coefficients of (1+X)^n (s - tX)^nt, ascending, for s != 0.

    From (1+X)(s-tX)P' = (n(s-tX) - nt*t(1+X))P:
    s(k+1)P_{k+1} = (ns - nt*t - (s-t)k)P_k + t(k-1-w)P_{k-1}, w = n + nt,
    where every division is exact because P has integer coefficients.  The three
    multipliers are progressions in k, read from ranges (repeat for step 0).
    """
    w, u0 = n + nt, n * s - nt * t
    us = range(u0, u0 + (t - s) * w, t - s) if s != t else repeat(u0, w)
    vs = range(-t * (w + 1), -t, t) if t else repeat(0, w)
    coeffs = [s**nt]
    prev, cur = 0, coeffs[0]
    for u, v, q in zip(us, vs, range(s, s * (w + 1), s)):
        prev, cur = cur, (u * cur + v * prev) // q
        coeffs.append(cur)
    return coeffs


def sign_restricted_sum(level, w, ns, m):
    """(1/2) sum over H_neg of sgn(ab) (aX+b)^n (cX+d)^nt, in closed form, for each n in ns.

    H_neg is closed under global negation and the two members of an orbit
    contribute equal summands (w is even), so the a > 0 representatives,
    taken once, carry the 1/2 exactly.  For ad = s, bc = t = m - s their
    X^k coefficients sum to

        2 P_k (sum of a^(k-nt)) (sum of b^(n-k))    for n + k odd, else 0,

    with P = (1+X)^n (s - tX)^nt (see the module docstring).  For k < nt the
    a-sum is (sum of d^(nt-k)) / s^(nt-k) and for k > n the b-sum is
    (sum of c^(k-n)) / t^(k-n); the product is divided once, exactly.
    N | c forces N | t, so only s = m mod N contribute.  The powers x^e,
    x < m, e <= w, are tabulated once per call (m (w + 1) integers); per s
    the four power sums are sums of table rows and s^e, t^e are table rows,
    shared by every index; only the pencil is per n.
    Returns one integer-coefficient polynomial per n, in the order of ns.
    """
    ns = list(ns)
    for n in ns:
        PeriodContext(level, w, n)  # checks level >= 2, w even and 0 <= n <= w
    accs = [[0] * (w + 1) for _ in ns]
    powers = [list(accumulate(repeat(x, w), mul, initial=1)) for x in range(m)]  # powers[x][e] = x^e
    for s in range(m % level or level, m, level):
        t = m - s
        avals = [a for a in divisors(s) if gcd(a, level) == 1]
        cvals = [c for c in divisors(t) if c % level == 0]  # c = t is one, as level | t
        a_sums, d_sums, b_sums, c_sums = (  # [sum of x^e over x in xs, e = 0..w], by adding table rows
            list(map(sum, zip(*(powers[x] for x in xs))))
            for xs in (avals, [s // a for a in avals], [t // c for c in cvals], cvals)
        )
        s_pows, t_pows = powers[s], powers[t]
        for n, acc in zip(ns, accs):
            nt = w - n
            pencil = _pencil(n, nt, s, t)
            for k in range((n + 1) % 2, w + 1, 2):
                if k >= nt:
                    a_part, den = a_sums[k - nt], 1
                else:
                    a_part, den = d_sums[nt - k], s_pows[nt - k]
                if k <= n:
                    b_part = b_sums[n - k]
                else:
                    b_part, den = c_sums[k - n], den * t_pows[k - n]
                acc[k] += 2 * (pencil[k] * a_part * b_part // den)
    return [BoundedPolynomial._over(acc, 1) for acc in accs]


def diagonal_sum(ctx, m):
    """Sum over ad = m, a > 0, gcd(a, level) = 1 of the two reciprocal/Bernoulli terms.

    Each pair contributes a^n N^nt/(nt+1) X^w B^0_{nt+1}(d/(NX)) - d^nt/(n+1) B^0_{n+1}(aX)
    (N the level), so the whole sum is two scaled Bernoulli sums; at m = 1 it is s_poly.
    """
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    pairs = [(a, m // a) for a in divisors(m) if gcd(a, level) == 1]
    first = reciprocal_scale(bernoulli_poly0(nt + 1, [(a**n, d) for a, d in pairs]), level, w)
    second = bernoulli_poly0(n + 1, [(d**nt, a) for a, d in pairs]).with_bound(w)
    return Fraction(level**nt, nt + 1) * first - Fraction(1, n + 1) * second


def s_poly_m(ctx, m):
    """The raw index-m period polynomial sum (no divisibility correction)."""
    _require_interior(ctx)
    if m < 1:
        raise ValueError("m must be positive")
    return sign_restricted_sum(ctx.level, ctx.w, [ctx.n], m)[0] + diagonal_sum(ctx, m)


def moebius_correction(ctx, m):
    """The extra term of the corrected odd period polynomial when level | m.

    Returns the signed addend, i.e. r_minus_hecke = s_poly_m + moebius_correction.
    """
    n, nt, w, level = ctx.n, ctx.ntilde, ctx.w, ctx.level
    if m % level:
        raise ValueError("correction only applies when level | m")
    # X^w B^0_{n+1}(me/(cNX)), e | N, c | m/N, has weight mu(N/e) c^nt N^w/e^n = mu(N/e) c^nt N^nt (N/e)^n
    terms = [
        (moebius(level // e) * c**nt * (level // e) ** n, m * e // (c * level))
        for e in divisors(level)
        for c in divisors(m // level)
    ]
    return -Fraction(level**nt, n + 1) * reciprocal_scale(bernoulli_poly0(n + 1, terms), level, w)


def hecke_images(level, w, ns, m):
    """Corrected odd period polynomials of the index-m form for every even index n in ns.

    Each is s_poly_m plus, when level | m, the Moebius correction; the sign
    sums of all the indices come from one sign_restricted_sum pass.
    """
    ctxs = [PeriodContext(level, w, n) for n in ns]
    for ctx in ctxs:
        if ctx.n % 2:
            raise UnsupportedParityError("the odd period polynomial needs even n, got n=%d" % ctx.n)
        _require_interior(ctx)
    if m < 1:
        raise ValueError("m must be positive")
    signed = sign_restricted_sum(level, w, ns, m)
    images = [part + diagonal_sum(ctx, m) for part, ctx in zip(signed, ctxs)]
    if m % level == 0:
        images = [image + moebius_correction(ctx, m) for image, ctx in zip(images, ctxs)]
    return images


def r_minus_hecke(ctx, m):
    """Odd period polynomial of the index-m form: s_poly_m, corrected when level | m."""
    return hecke_images(ctx.level, ctx.w, [ctx.n], m)[0]


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
