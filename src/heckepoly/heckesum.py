"""Hecke-side period polynomial sums.

The index-m analogue of the period polynomial is a sum over the set H_{N,m} of integer matrices of
determinant m with N | c and gcd(a, N) = 1: a sign-restricted part over abcd < 0 plus a diagonal part
over ad = m, with a Moebius double-sum correction when N | m.  The diagonal part and the correction
are, like s_poly, ``periodpoly.period_sum`` passes over the index's two Bernoulli rows.

The sign-restricted part is never summed matrix by matrix.  Its members with a > 0 are (a, b, -c, d)
and (a, -b, c, d) with a, b, c, d > 0, ad = s and bc = t = m - s; N | c forces N | t, so only
s = m mod N contribute.  X -> (b/a)X turns (aX+b)^n (-cX+d)^nt into b^n a^-nt P(s, t), with the
integer "pencil" P(s, t) = (1+X)^n (s - tX)^nt, so the X^k coefficient is a^(k-nt) b^(n-k) P_k.
The pair sums to g(X) - (-1)^n g(-X), which keeps the k with n + k odd, doubled.  Four identities
cut the big-integer work of the sum over the divisor pairs of s and t:

1. b-sums over u = t/N: b = t/c and c/N both run over the divisors of u, so a negative power sum
   of b is (sum of b^e over b | u) / u^e.
2. One s-side sum when gcd(m, N) = 1: then every s is prime to N and a = s/d runs over all divisors
   of s, so the d-sum that writes a negative power sum of a as (sum of d^e) / s^e is the a-sum.
3. One pencil per pair when N | m: then t is a visited s too, and X^w P(s, t)(1/X) = (-1)^nt P(t, s),
   so P(t, s)_k = (-1)^nt P(s, t)_(w-k).
4. Divide first, double once: each binomial term of P_k carries s^(nt-i) t^i with k - n <= i <= k,
   so s^(nt-k) u^(k-n) (positive exponents only) divides P_k before the sums multiply it, and each
   finished polynomial is doubled once.

One more identity spares whole indices, not big-integer work:

5. The Fricke mirror when gcd(m, N) = 1: conjugation by W_N sends (a, b, c, d) to (d, -c/N, -Nb, a),
   which maps H_{N,m} and its abcd < 0 part onto themselves, keeping sgn(ab) and s = ad; the
   diagonal pairs (a, m/a) are symmetric because every divisor of m is prime to N.  So coefficient
   w - k of the index-(w - n) image is (-1)^(n+k) N^(n-k) times coefficient k of the index-n one.
   When gcd(m, N) > 1 the images do not obey it (level 4, w = 10, m = 2 is a counterexample), so there
   every image is computed directly.  The mirror serves images only; a base is always the m = 1 sum.
"""

from itertools import accumulate, count, repeat
from math import gcd
from operator import mul

from .errors import UnsupportedParityError
from .exactnum import bernoulli_poly0, divisors, moebius, power_sums, require_level, require_positive, sigma
from .periodpoly import PeriodContext, _require_interior, bernoulli_rows, period_sum
from .polyring import BoundedPolynomial


def enumerate_H_neg(level, m):
    """All matrices (a, b, c, d) in H_{level,m} with abcd < 0, as 4-tuples sorted lexicographically.

    abcd < 0 forces ad > 0 and bc < 0 (else the determinant would be negative),
    hence ad = s and |bc| = m - s with 1 <= s <= m - 1; splitting both values
    into divisor pairs enumerates the set without scanning a 4-cube.
    """
    require_level(level)
    require_positive("m", m)
    out = []
    for s in range(1, m):
        t = m - s
        apairs = [(a, s // a) for a in divisors(s) if gcd(a, level) == 1]
        bpairs = [(b, t // b) for b in divisors(t) if (t // b) % level == 0]
        for a, d in apairs:
            for b, c in bpairs:
                out.append((a, b, -c, d))
                out.append((a, -b, c, d))
                out.append((-a, b, -c, -d))
                out.append((-a, -b, c, -d))
    out.sort()
    return out


def _pencil(n, nt, s, t):
    """Coefficients of (1+X)^n (s - tX)^nt, ascending, for s != 0.

    From (1+X)(s-tX)P' = (n(s-tX) - nt*t(1+X))P:
    s(k+1)P_{k+1} = (ns - nt*t - (s-t)k)P_k + t(k-1-w)P_{k-1}, w = n + nt,
    where every division is exact because P has integer coefficients.  The three
    multipliers are progressions in k: two counts, whose step may be 0, and the
    range of divisors s(k+1), whose w terms bound the loop.
    """
    w = n + nt
    coeffs = [s**nt]
    prev, cur = 0, coeffs[0]
    for u, v, q in zip(count(n * s - nt * t, t - s), count(-t * (w + 1), t), range(s, s * (w + 1), s)):
        prev, cur = cur, (u * cur + v * prev) // q
        coeffs.append(cur)
    return coeffs


def sign_restricted_sum(level, w, ns, m):
    """(1/2) sum over H_neg of sgn(ab) (aX+b)^n (cX+d)^nt, in closed form, for each n in ns.

    H_neg is closed under global negation and the two members of an orbit contribute equal summands
    (w is even), so the a > 0 representatives, taken once, carry the 1/2 exactly.  At one s they sum
    to 2 P_k (sum of a^(k-nt)) (sum of b^(n-k)) at n + k odd, by the module docstring's identities.
    The powers x^e, x < m, e <= w, are tabulated once per call (m (w + 1) integers) and every power
    sum adds table rows; the sums serve every index, and only the pencil is per n.
    Returns one integer-coefficient polynomial per n, in the order of ns.
    """
    ns = list(ns)
    for n in ns:
        PeriodContext(level, w, n)  # checks level >= 2, w even and 0 <= n <= w
    require_positive("m", m)
    accs = [[0] * (w + 1) for _ in ns]
    powers = [list(accumulate(repeat(x, w), mul, initial=1)) for x in range(m)]  # powers[x][e] = x^e

    def row_sums(xs):  # [sum of x^e over x in xs, e = 0..w]
        return list(map(sum, zip(*(powers[x] for x in xs))))

    def side(s):  # a-sums, d-sums (identity 2), b-sums over u = (m - s)/N (identity 1), s^e and u^e
        avals = [a for a in divisors(s) if gcd(a, level) == 1]
        a_sums, u = row_sums(avals), (m - s) // level
        d_sums = a_sums if gcd(m, level) == 1 else row_sums([s // a for a in avals])
        return a_sums, d_sums, row_sums(divisors(u)), powers[s], powers[u]

    paired = m % level == 0  # identity 3: m - s is visited with s, on the pencil of s
    for s in range(m % level or level, m // 2 + 1 if paired else m, level):
        sides = [side(s), side(m - s)] if paired and 2 * s != m else [side(s)]
        for n, acc in zip(ns, accs):
            nt = w - n
            pencil = _pencil(n, nt, s, m - s)
            for coeffs, sign, (a_sums, d_sums, b_sums, s_pows, u_pows) in zip(
                (pencil, pencil[::-1]), (1, (-1) ** nt), sides
            ):
                for k in range((n + 1) % 2, w + 1, 2):
                    c = coeffs[k]
                    if k < nt:
                        c, a_part = c // s_pows[nt - k], d_sums[nt - k]
                    else:
                        a_part = a_sums[k - nt]
                    if k > n:
                        c, b_part = c // u_pows[k - n], b_sums[k - n]
                    else:
                        b_part = b_sums[n - k]
                    acc[k] += sign * c * a_part * b_part
    return [BoundedPolynomial._over([2 * x for x in acc], 1) for acc in accs]


def _diagonal_pairs(level, m):
    return [(a, m // a) for a in divisors(m) if gcd(a, level) == 1]


def _moebius_sums(ctx, m):
    # X^w B^0_{n+1}(ec'/(NX)), e | N, cc' = m/N, weighs mu(N/e) (N/e)^n c^nt N^nt (period_sum supplies N^nt),
    # so the power sums over the pairs (e, c) factor into one over e times one over c
    n, nt, level, cofactor = ctx.n, ctx.ntilde, ctx.level, m // ctx.level
    e_sums = power_sums([(moebius(level // e) * (level // e) ** n, e) for e in divisors(level)], n + 1)
    c_sums = power_sums([(c**nt, cofactor // c) for c in divisors(cofactor)], n + 1)
    return list(map(mul, e_sums, c_sums))


def diagonal_sum(ctx, m):
    """Sum over ad = m, a > 0, gcd(a, level) = 1 of the two reciprocal/Bernoulli terms.

    Each pair contributes a^n N^nt/(nt+1) X^w B^0_{nt+1}(d/(NX)) - d^nt/(n+1) B^0_{n+1}(aX) (N the level);
    ``period_sum`` adds them in one pass.  At m = 1 the only pair is (1, 1): diagonal_sum(ctx, 1) is s_poly(ctx).
    """
    return period_sum(ctx, bernoulli_rows(ctx), _diagonal_pairs(ctx.level, m))


def s_poly_m(ctx, m):
    """The raw index-m period polynomial sum (no divisibility correction)."""
    _require_interior(ctx)
    require_positive("m", m)
    return sign_restricted_sum(ctx.level, ctx.w, [ctx.n], m)[0] + diagonal_sum(ctx, m)


def moebius_correction(ctx, m):
    """The signed extra term of the corrected odd period polynomial, level | m: r_minus_hecke - s_poly_m."""
    if m % ctx.level:
        raise ValueError("correction only applies when level | m")
    return period_sum(ctx, bernoulli_rows(ctx), [], _moebius_sums(ctx, m))


def fricke_mirror(poly, level, n):
    """The index-(w - n) polynomial read off the index-n one by W_N (identity 5 of the module docstring).

    Coefficient w - k of the result is (-1)^(n+k) N^(n-k) times coefficient k of poly (N the level): over
    one denominator, num'[j] = (-1)^(n+j) N^j num[w-j] over den N^(w-n).  Applied twice it is the identity.
    """
    w = poly.bound
    scales = accumulate(repeat(-level, w), mul, initial=(-1) ** n)  # (-1)^(n+j) N^j
    return BoundedPolynomial._over(list(map(mul, reversed(poly.num), scales)), poly.den * level ** (w - n))


def hecke_images(level, w, ns, m):
    """(bases, images) at the even indices ns: s_poly, and s_poly_m plus the Moebius correction when level | m.

    One sign_restricted_sum pass serves every index; per index, one pair of Bernoulli rows serves both parts, and
    each row B^0_k is built once per call: the k = ntilde + 1 of one index may be the k = n + 1 of another.  Every
    base is the m = 1 period sum on its index's rows.  When gcd(m, level) = 1, the image of an index n whose mirror
    ntilde = w - n > n is in ns is read off the image of index ntilde by ``fricke_mirror`` (identity 5) and the sign
    sum skips it; the larger index, whose pencil (1+X)^ntilde (s - tX)^n has the smaller power of s - tX, is summed.
    Otherwise every image is computed directly.  ``heckeop._w_split`` pairs the same indices into W_N-eigenvectors.
    """
    ctxs = {n: PeriodContext(level, w, n) for n in ns}
    for ctx in ctxs.values():
        if ctx.n % 2:
            raise UnsupportedParityError("the odd period polynomial needs even n, got n=%d" % ctx.n)
        _require_interior(ctx)
    require_positive("m", m)
    mirror_of = {n: w - n for n in ctxs if w - n > n and w - n in ctxs} if gcd(m, level) == 1 else {}
    direct = [n for n in ctxs if n not in mirror_of]
    pairs = _diagonal_pairs(level, m)
    row_of = {k: bernoulli_poly0(k) for k in {k for ctx in ctxs.values() for k in (ctx.ntilde + 1, ctx.n + 1)}}
    rows = {n: (row_of[ctx.ntilde + 1], row_of[ctx.n + 1]) for n, ctx in ctxs.items()}
    images = {}
    for n, part in zip(direct, sign_restricted_sum(level, w, direct, m)):
        images[n] = part + period_sum(ctxs[n], rows[n], pairs, _moebius_sums(ctxs[n], m) if m % level == 0 else ())
    for n, nt in mirror_of.items():
        images[n] = fricke_mirror(images[nt], level, nt)
    return [period_sum(ctxs[n], rows[n], [(1, 1)]) for n in ns], [images[n] for n in ns]


def r_minus_hecke(ctx, m):
    """Odd period polynomial of the index-m form: s_poly_m, corrected when level | m."""
    return hecke_images(ctx.level, ctx.w, [ctx.n], m)[1][0]


def eigenvalue_w6(m):
    """m-th Hecke eigenvalue of the weight-8 normalized cusp form at level 2, odd m.

    a_m = m sigma_1(m) + 240 sum over u + 2v = m, u,v >= 1 of (u-v) sigma_1(u) sigma_3(v).
    """
    require_positive("m", m)
    if m % 2 == 0:
        raise UnsupportedParityError("the eigenvalue formula covers odd m only, got m=%d" % m)
    total = m * sigma(1, m)
    for v in range(1, (m - 1) // 2 + 1):
        u = m - 2 * v
        total += 240 * (u - v) * sigma(1, u) * sigma(3, v)
    return total
