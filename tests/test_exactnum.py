import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul

import pytest

from heckepoly import exactnum
from heckepoly.exactnum import (
    bernoulli_number,
    bernoulli_poly0,
    divisors,
    factorize,
    hecke_terms,
    moebius,
    power_sums,
    prime_divisors,
    sigma,
)
from heckepoly.polyring import BoundedPolynomial, compose_linear


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for k in range(3, 61, 2):
        assert bernoulli_number(k) == 0


def test_bernoulli_negative_rejected():
    with pytest.raises(ValueError, match="^Bernoulli index must be nonnegative$"):
        bernoulli_number(-1)


def test_bernoulli_recurrence():
    # sum_{i<m} C(m,i) B_i = 0; the identity starts at m = 2 (m = 1 gives B_0 = 1)
    for m in range(2, 61):
        assert sum(comb(m, i) * bernoulli_number(i) for i in range(m)) == 0


def _bernoulli_by_recurrence(k):
    # B_0..B_k by the defining recurrence sum_{i<m} C(m,i) B_i = 0 on Fractions: an independent reference
    table = [Fraction(1), Fraction(-1, 2)]
    while len(table) <= k:
        m = len(table) + 1
        table.append(-sum(comb(m, i) * b for i, b in enumerate(table) if b) / m)
    return table[: k + 1]


_SEEDS = ([Fraction(1), Fraction(-1, 2)], [1])  # B_0, B_1 and boustrophedon row 0


def _assert_row_continues_table(want):
    # the row kept with a table of length L is boustrophedon row L - 2 (L - 1 entries); two steps from it give
    # rows L - 1 and L, whose last entries (zigzag numbers) give B_L and B_(L+1), one of them at an even index
    table, row = exactnum._bernoulli
    assert len(row) == len(table) - 1
    for k in (len(table), len(table) + 1):
        row = list(accumulate(reversed(row), initial=0))
        j, odd = divmod(k, 2)
        assert (0 if odd else Fraction((-1) ** (j - 1) * 2 * j * row[-1], 4**j * (4**j - 1))) == want[k], k


@pytest.mark.parametrize("walk", [False, True], ids=["filled", "walked"])
def test_bernoulli_table_matches_recurrence(monkeypatch, walk):
    # filled from the two seeds in one call, or walked up one index at a time (each call a miss by one)
    monkeypatch.setattr(exactnum, "_bernoulli", _SEEDS)
    if not walk:
        bernoulli_number(300)
    assert [bernoulli_number(k) for k in range(301)] == _bernoulli_by_recurrence(300)


@pytest.mark.parametrize("walk", [False, True], ids=["filled", "walked"])
def test_bernoulli_row_continues_its_table(monkeypatch, walk):
    want = _bernoulli_by_recurrence(122)
    monkeypatch.setattr(exactnum, "_bernoulli", _SEEDS)
    _assert_row_continues_table(want)
    for k in [120] if not walk else range(121):
        bernoulli_number(k)
        _assert_row_continues_table(want)
    assert exactnum._bernoulli[0] == want[:121]


def test_bernoulli_table_under_contending_threads(monkeypatch):
    # eight threads walk the indices from the seeds, four upwards (each call a miss by one) and four in random
    # orders, switching often: a thread may read a table and row that two other extensions rebound
    want = _bernoulli_by_recurrence(242)
    monkeypatch.setattr(exactnum, "_bernoulli", _SEEDS)
    orders = [range(241)] * 4 + [random.Random(seed).sample(range(241), 241) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda ks: [(k, bernoulli_number(k)) for k in ks], ks) for ks in orders]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(b == want[k] for got in results for k, b in got)
    assert exactnum._bernoulli[0] == want[: len(exactnum._bernoulli[0])]
    _assert_row_continues_table(want)


def test_bernoulli_denominators_von_staudt_clausen():
    # the denominator of B_2j is the product of the primes p with (p - 1) | 2j, and B_2j has the sign (-1)^(j-1)
    limit = 1101
    sieve = [True] * (limit + 1)
    for p in range(2, limit + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    primes = [p for p in range(2, limit + 1) if sieve[p]]
    bernoulli_number(1100)
    for j in range(1, 551):
        b = bernoulli_number(2 * j)
        want = 1
        for p in primes:
            if (2 * j) % (p - 1) == 0:
                want *= p
        assert b.denominator == want, j
        assert (b > 0) == (j % 2 == 1), j


def test_bernoulli_cache_thread_safety():
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli_number, [200] * 16))
    assert len(set(results)) == 1
    assert results[0] == bernoulli_number(200)


def test_bernoulli_poly0_cache_thread_safety(monkeypatch):
    # a thread that began extending the table earlier may finish later and rebind it to a shorter one, at
    # any step of another thread's read; in worker threads reading whole rows and Bernoulli numbers at mixed
    # k, a tracer that rebinds the seeds before every line run in exactnum stands in for that thread
    monkeypatch.setattr(exactnum, "_bernoulli", _SEEDS)

    def rebind_short(frame, event, arg):
        if frame.f_globals is not vars(exactnum):
            return None
        exactnum._bernoulli = _SEEDS
        return rebind_short

    def read(k):
        previous = sys.gettrace()
        sys.settrace(rebind_short)
        try:
            return bernoulli_poly0(k) if k % 2 else bernoulli_number(k)
        finally:
            sys.settrace(previous)

    ks = list(range(2, 48))
    with ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(read, ks))
    for k, row in zip(ks, rows):
        if k % 2:
            assert row.coeffs == [comb(k, e) * bernoulli_number(k - e) if (k - e) % 2 == 0 else 0 for e in range(k + 1)]
        else:
            assert row == bernoulli_number(k), k


def _weighted_bernoulli_poly0(k, terms):
    # sum of c*B^0_k(aX) over (c, a) in terms, as periodpoly.period_sum weights a row: per power, by power_sums
    row = bernoulli_poly0(k)
    return BoundedPolynomial._over(list(map(mul, row.num, power_sums(terms, k))), row.den)


def test_bernoulli_poly0_examples():
    assert bernoulli_poly0(3) == BoundedPolynomial([0, Fraction(1, 2), 0, 1])
    assert bernoulli_poly0(0) == BoundedPolynomial([1])
    assert bernoulli_poly0(5) == BoundedPolynomial([0, Fraction(-1, 6), 0, Fraction(5, 3), 0, 1])


def test_bernoulli_poly0_structure():
    for k in range(0, 24):
        p = bernoulli_poly0(k)
        assert p.degree() == k
        # only exponents k - i with even i carry coefficients
        for i in range(1, k + 1, 2):
            assert p.coeff(k - i) == 0


def test_bernoulli_poly0_terms_are_scaled_sums():
    # sum of c*B^0_k(aX), by binomial expansion: c = 0 is a vanishing Moebius weight
    for terms in ([(3, 2)], [(1, 1), (-2, 5)], [(0, 7), (4, -3), (-1, 12)], [(5, 1), (-5, 1)]):
        for k in (0, 1, 2, 7, 12):
            want = BoundedPolynomial.zero(k)
            for c, a in terms:
                want = want + c * compose_linear(bernoulli_poly0(k), a, 0)
            got = _weighted_bernoulli_poly0(k, terms)
            assert got == want
            assert got.bound == k
    assert _weighted_bernoulli_poly0(6, []) == BoundedPolynomial.zero(6)


def test_bernoulli_poly0_matches_fraction_coefficients():
    # integer numerators over the lcm of the B_i denominators, against C(k,i) B_i sum c a^(k-i) as Fractions
    terms = [(1, 1), (-3, 2), (5, 7)]
    for k in range(100):
        want = [Fraction(0)] * (k + 1)
        for i in range(0, k + 1, 2):
            want[k - i] = comb(k, i) * bernoulli_number(i) * sum(c * a ** (k - i) for c, a in terms)
        got = _weighted_bernoulli_poly0(k, terms)
        assert got.coeffs == want and got.bound == k, k
        assert got.den == lcm(*(x.denominator for x in want)), k


def test_sigma_examples():
    assert sigma(1, 6) == 12
    assert sigma(3, 1) == 1
    assert sigma(1, 5) == 6
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_sigma_multiplicative():
    rng = random.Random(11)
    tried = 0
    while tried < 60:
        a = rng.randint(2, 10**2)
        b = rng.randint(2, 10**2)
        if gcd(a, b) != 1 or a * b > 10**4:
            continue
        for k in (0, 1, 3):
            assert sigma(k, a * b) == sigma(k, a) * sigma(k, b)
        tried += 1


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_summatory():
    # sum_{d|n} mu(d) = [n == 1] for n <= 10^4, via a divisor sieve
    limit = 10**4
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        mu = moebius(d)
        if mu:
            for multiple in range(d, limit + 1, d):
                acc[multiple] += mu
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, limit + 1))


def test_divisors_and_prime_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert prime_divisors(12) == [2, 3]
    assert prime_divisors(1) == []
    assert prime_divisors(97) == [97]


def test_factorize_matches_prime_divisors_and_moebius():
    for n in range(1, 2001):
        factors = factorize(n)
        assert [p for p, _ in factors] == prime_divisors(n)
        product = 1
        for p, r in factors:
            assert r >= 1 and all(p % q for q in range(2, p))
            product *= p**r
        assert product == n
        squarefree = all(n % (d * d) for d in range(2, n + 1))
        assert moebius(n) == ((-1) ** len(factors) if squarefree else 0)
    with pytest.raises(ValueError):
        factorize(0)


def test_hecke_terms_at_a_prime():
    # p | N: U_p, only e = 1; p not dividing N: the one extra term (p, p^(k-1))
    for level in (2, 3, 4, 5):
        for k in (4, 12, 42):
            for p in (2, 3, 5, 7, 11):
                extra = [] if level % p == 0 else [(p, p ** (k - 1))]
                assert hecke_terms(level, k, p) == [(1, 1)] + extra, (level, k, p)


def test_hecke_terms_at_a_composite_gcd():
    # e runs over the divisors of g prime to N, ascending
    assert hecke_terms(3, 6, 12) == [(1, 1), (2, 32), (4, 1024)]
    assert hecke_terms(4, 6, 12) == [(1, 1), (3, 243)]
    assert hecke_terms(5, 4, 50) == [(1, 1), (2, 8)]


def test_hecke_terms_for_coprime_indices_is_one_term():
    # g = gcd(a, b) = 1: T_a T_b = T_ab at every level and weight
    for level in (2, 3, 4, 5):
        for k in (4, 12, 42):
            assert hecke_terms(level, k, 1) == [(1, 1)]


def test_hecke_terms_match_the_level2_hand_written_values():
    # the values they replace: (p % 2) p^(k-1) at level 2, p^(w+1) = p^(k-1), odd d | g with d^(k-1)
    for k in range(4, 40, 2):
        w = k - 2
        for p in (2, 3, 5, 7, 11, 13):
            assert sum(c for e, c in hecke_terms(2, k, p) if e > 1) == (p % 2) * p ** (k - 1)
            if p % 2:
                assert dict(hecke_terms(2, k, p))[p] == p ** (w + 1)
        for g in range(1, 200):
            odd = [(d, d ** (k - 1)) for d in range(1, g + 1, 2) if g % d == 0]
            assert hecke_terms(2, k, g) == odd, (k, g)
            assert sum(c for _, c in hecke_terms(2, k, g)) == sigma(k - 1, g // (g & -g))


def test_bernoulli_poly0_refuses_a_negative_index():
    with pytest.raises(ValueError, match="^index must be nonnegative$"):
        bernoulli_poly0(-1)
