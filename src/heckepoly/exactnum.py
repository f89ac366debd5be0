"""Exact number-theoretic primitives.

Bernoulli numbers (convention B_1 = -1/2), the even-index-only Bernoulli
polynomials B^0_k, weighted integer power sums, divisor power sums, the
Moebius function, and a factorization read off the divisor list behind the
prime-divisor helpers, so ``divisors`` is the one trial-division loop.
Everything is exact; nothing here ever rounds.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, isqrt, lcm
from operator import mul

from .polyring import BoundedPolynomial

# B_0, B_1 seed the table; the cache is only ever replaced by a longer copy.  _seidel_row pairs a cache length L
# with boustrophedon row L - 2, whose successor gives B_L; a length that does not match restarts at row 0.
_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]
_seidel_row = (2, [1])


def bernoulli_number(k):
    """Return B_k as a Fraction, under the convention B_1 = -1/2.

    Row r of Seidel's boustrophedon is the running sum of row r - 1 reversed, and odd row 2j - 1 ends in the
    tangent number T_j, so B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) from integer additions only (Brent &
    Harvey, arXiv:1108.0286).  A miss extends a private copy of the cache, from the row kept beside it or from
    row 0, and then rebinds it, so the list a caller reads is never mutated and a caller on another thread
    sees a shorter cache at worst, never a wrong entry.
    """
    global _bernoulli_cache, _seidel_row
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    cache = _bernoulli_cache
    if k < len(cache):
        return cache[k]
    size, row = _seidel_row
    cache, row = (list(cache), row) if size == len(cache) else (cache[:2], [1])
    while len(cache) <= k:
        row = list(accumulate(reversed(row), initial=0))  # row len(cache) - 1
        j, odd = divmod(len(cache), 2)
        cache.append(Fraction(0) if odd else Fraction((-1) ** (j - 1) * 2 * j * row[-1], 4**j * (4**j - 1)))
    _seidel_row = (len(cache), row)
    _bernoulli_cache = cache
    return cache[k]


def power_sums(terms, k):
    """[sum of c*a^e over the integer pairs (c, a) in terms] for e = 0..k."""
    rows = [accumulate(repeat(a, k), mul, initial=c) for c, a in terms]  # c*a^e, e = 0..k
    return list(map(sum, zip(*rows))) if rows else [0] * (k + 1)


def bernoulli_poly0(k):
    """B^0_k(X) = sum over even i, 0 <= i <= k, of C(k,i) B_i X^(k-i).

    This is the k-th Bernoulli polynomial without its B_1 term, so nothing
    depends on the B_1 convention; the bound is k and the degree exactly k.
    The numerators are integers over the lcm of the denominators of those B_i.
    This is the package's one source of Bernoulli polynomials.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    bs = [bernoulli_number(i) for i in range(0, k + 1, 2)]  # even-i B_i, at X^(k-i); a cache slice may be short
    den = lcm(*(b.denominator for b in bs))
    num = [0] * (k + 1)
    num[k::-2] = [comb(k, 2 * j) * b.numerator * (den // b.denominator) for j, b in enumerate(bs)]
    return BoundedPolynomial._over(num, den)


def divisors(n):
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def sigma(k, n):
    """Divisor power sum sigma_k(n) = sum of d^k over d | n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d**k for d in divisors(n))


def factorize(n):
    """Prime factorization of n >= 1 as ascending (p, exponent) pairs.

    Walks the divisors of n above 1 in order, dividing each one out fully: a
    divisor that still divides what is left has no smaller prime factor, so
    it is prime.
    """
    factors = []
    for p in divisors(n)[1:]:
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        if r:
            factors.append((p, r))
    return factors


def prime_divisors(n):
    """Sorted distinct prime divisors of n >= 1."""
    return [p for p, _ in factorize(n)]


def moebius(n):
    """Moebius function mu(n)."""
    factors = factorize(n)
    if any(r > 1 for _, r in factors):
        return 0
    return (-1) ** len(factors)
