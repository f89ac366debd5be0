"""Exact number-theoretic primitives.

Bernoulli numbers (convention B_1 = -1/2), the even-index-only Bernoulli polynomials B^0_k, weighted integer power
sums, divisor power sums, the Moebius function, the Hecke multiplication law on Gamma0(N), the index, level and
weight rules every layer checks its input by, and a factorization read off the divisor list behind the prime-divisor
helpers, so ``divisors`` is the one trial-division loop.  Everything is exact; nothing here ever rounds.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, isqrt, lcm
from operator import mul

from .polyring import BoundedPolynomial

# B_0, B_1 seed the table; beside it, boustrophedon row len(table) - 2, whose successor gives B_len(table).  The pair
# is one value, only ever replaced by a longer one, so the table and its row always agree.
_bernoulli = ([Fraction(1), Fraction(-1, 2)], [1])


def require_positive(name, value):
    """The index rule: raise ValueError("<name> must be positive") unless value >= 1."""
    if value < 1:
        raise ValueError("%s must be positive" % name)


def require_level(level):
    """The level rule: raise ValueError("level must be at least 2, got <level>") unless level >= 2."""
    if level < 2:
        raise ValueError("level must be at least 2, got %d" % level)


def require_even(name, value, least):
    """The weight rule: raise ValueError unless value is an even integer >= least."""
    if value < least or value % 2:
        raise ValueError("%s must be an even integer >= %d, got %d" % (name, least, value))


def bernoulli_number(k):
    """Return B_k as a Fraction, under the convention B_1 = -1/2.

    Row r of Seidel's boustrophedon is the running sum of row r - 1 reversed, and odd row 2j - 1 ends in the
    tangent number T_j, so B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) from integer additions only (Brent &
    Harvey, arXiv:1108.0286).  A miss extends a private copy of the table from the row kept with it and then
    rebinds the pair in one assignment, so no list a caller holds is ever mutated and a caller on another
    thread sees a shorter table at worst, never a wrong entry.
    """
    global _bernoulli
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    table, row = _bernoulli
    if k < len(table):
        return table[k]
    table = list(table)
    while len(table) <= k:
        row = list(accumulate(reversed(row), initial=0))  # row len(table) - 1
        j, odd = divmod(len(table), 2)
        table.append(Fraction(0) if odd else Fraction((-1) ** (j - 1) * 2 * j * row[-1], 4**j * (4**j - 1)))
    _bernoulli = (table, row)
    return table[k]


def power_sums(terms, k):
    """[sum of c*a^e over the integer pairs (c, a) in terms] for e = 0..k, k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative, got %d" % k)
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
    bs = [bernoulli_number(i) for i in range(0, k + 1, 2)]  # even-i B_i, at X^(k-i)
    den = lcm(*(b.denominator for b in bs))
    num = [0] * (k + 1)
    num[k::-2] = [comb(k, 2 * j) * b.numerator * (den // b.denominator) for j, b in enumerate(bs)]
    return BoundedPolynomial._over(num, den)


def divisors(n):
    """Sorted positive divisors of n >= 1."""
    require_positive("n", n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def sigma(k, n):
    """Divisor power sum sigma_k(n) = sum of d^k over d | n, k >= 0."""
    require_positive("n", n)
    if k < 0:
        raise ValueError("k must be nonnegative, got %d" % k)
    return sum(d**k for d in divisors(n))


def hecke_terms(level, k, g):
    """(e, e^(k-1)) over e | g, gcd(e, level) = 1, ascending: T_a T_b = sum of c T_(ab/e^2) over them at g = gcd(a, b).

    The one Hecke multiplication law on S_k(Gamma0(level)), U_p at p | level included (Diamond-Shurman, GTM 228, 5.3).
    """
    require_positive("k", k)  # e^(k-1) stays an integer
    return [(e, e ** (k - 1)) for e in divisors(g) if gcd(e, level) == 1]


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
