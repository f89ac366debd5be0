"""Independent q-expansion verification channel for level 2.

Truncated q-series (integer numerators over one denominator): eta quotients
by the recurrence of their logarithmic derivative, Eisenstein series at both
cusps of Gamma0(2), Hecke action on coefficients, a runtime-verified cusp-form
basis, and oracle Hecke matrices to cross-check the period-polynomial pipeline.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import mul

from .errors import (
    BasisDeficientError,
    EmptySpaceError,
    InconsistentSystemError,
    PrecisionError,
    UnderdeterminedSystemError,
)
from .exactlinalg import ExactMatrix, rank, solve_right
from .exactnum import bernoulli_number, divisors
from .heckeop import dim_cusp
from .polyring import _as_fraction, _lowest_terms, clear_denominators, convolve


class QSeries:
    """Truncated power series in q: a_n = num[n] / den for n = 0 .. prec, all exact.

    ``num`` are ints over the least positive common denominator ``den``, so an
    integer series (den = 1) never leaves ``int``.  ``weight`` tags the modular
    weight of the form; arithmetic never claims coefficients the operands lack.
    """

    __slots__ = ("weight", "prec", "num", "den")

    def __init__(self, weight, coeffs, prec=None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        self.weight, self.prec = weight, prec
        self.num, self.den = clear_denominators(coeffs[: prec + 1] + [0] * (prec + 1 - len(coeffs)))

    @classmethod
    def _over(cls, weight, num, den):
        """Series num[n] / den (den > 0), reduced to the least common denominator."""
        series = cls.__new__(cls)
        series.weight, series.prec = weight, len(num) - 1
        series.num, series.den = _lowest_terms(num, den)
        return series

    @property
    def coeffs(self):
        return [Fraction(x, self.den) for x in self.num]

    def coeff(self, n):
        if n < 0:
            return Fraction(0)
        if n > self.prec:
            raise PrecisionError("coefficient %d beyond precision %d" % (n, self.prec), required=n)
        return Fraction(self.num[n], self.den)

    def prefix(self, n):
        """Tuple (a_0, ..., a_n); errors if n exceeds the precision."""
        if n > self.prec:
            raise PrecisionError("prefix %d beyond precision %d" % (n, self.prec), required=n)
        return tuple(Fraction(x, self.den) for x in self.num[: n + 1])

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot extend precision %d to %d" % (self.prec, prec), required=prec)
        return QSeries._over(self.weight, self.num[: prec + 1], self.den)

    def is_cuspidal(self):
        return self.num[0] == 0

    def __neg__(self):
        return QSeries._over(self.weight, [-x for x in self.num], self.den)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError("weight mismatch: %s vs %s" % (self.weight, other.weight))
        den = lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        # zip stops at the shorter series, i.e. at the smaller precision
        return QSeries._over(self.weight, [u * x + v * y for x, y in zip(self.num, other.num)], den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            length = min(self.prec, other.prec) + 1
            return QSeries._over(
                self.weight + other.weight, convolve(self.num, other.num, length), self.den * other.den
            )
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return QSeries._over(self.weight, [c.numerator * x for x in self.num], self.den * c.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        head = ", ".join(str(c) for c in self.prefix(min(self.prec, 5)))
        return "QSeries(weight=%s, prec=%d, coeffs=[%s, ...])" % (self.weight, self.prec, head)


def eta_quotient(parts, prec):
    """Product of rescaled Dedekind eta factors eta(delta z)^r.

    ``parts`` is a list of (delta, r) pairs; the leading exponent
    sum(delta*r)/24 must be a nonnegative integer and sum(r) must be even so
    the result lives in integral weight starting at q^0.
    """
    parts = [(int(d), int(r)) for d, r in parts]
    if not parts or any(d < 1 for d, _ in parts):
        raise ValueError("parts must be nonempty with positive scales")
    e24 = sum(d * r for d, r in parts)
    if e24 % 24:
        raise ValueError("leading exponent sum(delta*r)/24 = %s/24 is not an integer" % e24)
    lead = e24 // 24
    if lead < 0:
        raise ValueError("negative leading exponent %d is unsupported" % lead)
    rsum = sum(r for _, r in parts)
    if rsum % 2:
        raise ValueError("sum of eta exponents must be even for integral weight")
    inner = prec - lead
    if inner < 0:
        raise ValueError("prec %d below the leading exponent %d" % (prec, lead))
    # F = prod (1 - q^(delta n))^r has q F'/F = sum c_j q^j with
    # c_j = -sum_(delta | j) r delta sigma_1(j / delta), r the total exponent of each delta
    exponents = {}
    for delta, r in parts:
        exponents[delta] = exponents.get(delta, 0) + r
    c = [0] * (inner + 1)
    for delta, r in exponents.items():
        if r:  # one sieve per delta whose exponents do not cancel, so zero parts cost nothing
            for step in range(delta, inner + 1, delta):
                for j in range(step, inner + 1, step):
                    c[j] -= r * step
    # n F_n = sum_(j=1..n) c_j F_(n-j); the division is exact as F has integer coefficients
    f = [1]
    for n in range(1, inner + 1):
        f.append(sum(map(mul, c[1 : n + 1], reversed(f))) // n)
    return QSeries._over(rsum // 2, [0] * lead + f, 1)


def eisenstein_level1(k, prec):
    """Level-1 Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    k = 2 is quasi-modular and is exposed only as a building block for the
    weight-2 level-2 combination in m2_weight2.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    c = Fraction(-2 * k) / bernoulli_number(k)
    sigmas = [0] * (prec + 1)  # sigma_{k-1}(n) by one sieve: d^(k-1) goes to every multiple of d
    for d in range(1, prec + 1):
        power = d ** (k - 1)
        for n in range(d, prec + 1, d):
            sigmas[n] += power
    num = [c.denominator] + [c.numerator * x for x in sigmas[1:]]
    return QSeries._over(k, num, c.denominator)


def scale_variable(f, t):
    """f(t z): coefficient a_n moves to q^(t n)."""
    if t < 1:
        raise ValueError("scale must be positive")
    num = [0] * (f.prec + 1)
    num[::t] = f.num[: f.prec // t + 1]
    return QSeries._over(f.weight, num, f.den)


def m2_weight2(prec):
    """The weight-2 form 2 E_2(2z) - E_2(z) on Gamma0(2)."""
    e2 = eisenstein_level1(2, prec)
    return 2 * scale_variable(e2, 2) - e2


def eisenstein_gamma02(k, cusp, prec):
    """Normalized weight-k Eisenstein series on Gamma0(2) at a chosen cusp.

    The two forms are pinned by the pair of identities
    E_inf + E_0 = E_k and E_k(2z) = E_inf + 2^-k E_0 (the half-lattice sums
    partition the full coprime sum, and split E_k(2z) by parity), giving

        E_inf = (2^k E_k(2z) - E_k) / (2^k - 1),
        E_0   = 2^k (E_k - E_k(2z)) / (2^k - 1).
    """
    if k < 4 or k % 2:
        raise ValueError("k must be an even integer >= 4")
    if cusp not in ("infinity", "zero"):
        raise ValueError("cusp must be 'infinity' or 'zero'")
    ek = eisenstein_level1(k, prec)
    ek2 = scale_variable(ek, 2)
    if cusp == "infinity":
        return Fraction(1, 2**k - 1) * (2**k * ek2 - ek)
    return Fraction(2**k, 2**k - 1) * (ek - ek2)


def hecke_on_qseries(f, k, m):
    """Apply T_m to a weight-k form on Gamma0(2), coefficientwise.

    a_n(T_m f) = sum over odd d | gcd(m, n) of d^(k-1) a_{mn/d^2}: the even
    d drop out because 2 divides the level.  The result keeps coefficients
    0 .. prec(f) // m.
    """
    if f.weight != k:
        raise ValueError("series weight %s does not match k = %d" % (f.weight, k))
    if m < 1:
        raise ValueError("m must be positive")
    top = f.prec // m
    # a divisor of gcd(m, n) with n >= 1 is at most top; only a_0 != 0 needs every divisor of m
    candidates = divisors(m) if f.num[0] else range(1, top + 1, 2)
    odd = [(d, d ** (k - 1)) for d in candidates if d % 2 and m % d == 0]
    num = [sum(e * f.num[m * n // (d * d)] for d, e in odd if n % d == 0) for n in range(top + 1)]
    return QSeries._over(k, num, f.den)


def cusp_basis_gamma02(k, prec):
    """Monomial cusp-form basis of weight k on Gamma0(2).

    Elements are D8 * M2^a * E4^b with 2a + 4b = k - 8, where D8 is the
    weight-8 eta quotient eta(z)^8 eta(2z)^8 and M2 = 2 E_2(2z) - E_2(z).
    Linear independence and Hecke stability are verified where used, not
    assumed.  Empty for k < 8.
    """
    if k % 2:
        raise ValueError("k must be even")
    if k < 8:
        return []
    d8 = eta_quotient([(1, 8), (2, 8)], prec)
    m2 = m2_weight2(prec)
    e4 = eisenstein_level1(4, prec)
    # b falls from its largest value while a = (k - 8 - 4b)/2 climbs by 2 from 0 or 1
    steps = (k - 8) // 4
    e4_powers = accumulate(repeat(e4, steps), mul, initial=QSeries(0, [1], prec=prec))
    heads = accumulate(repeat(m2 * m2, steps), mul, initial=d8 * m2 if k % 4 else d8)
    return [head * e4_power for head, e4_power in zip(heads, reversed(list(e4_powers)))][::-1]


def default_precision(k, m=1):
    """Coefficient budget: the weight-k Sturm bound k/4 plus margin, scaled for T_m."""
    return max(k // 2 + 10, m * (k // 4 + 2))


def _coefficient_matrix(series, nrows):
    """Coefficients 1 .. nrows of each series as one column over the series' denominator."""
    for f in series:
        f.coeff(nrows)  # raises PrecisionError past the precision
    return ExactMatrix.from_columns([f.num[1 : nrows + 1] for f in series], [f.den for f in series])


def hecke_matrix_oracle(k, m, prec=None):
    """Matrix of T_m on the weight-k cusp space, from q-expansions alone.

    Expresses the image of each basis element back in the basis by an exact
    linear solve over the first prec//m coefficients; errors distinguish
    precision shortfalls from genuine basis failures.
    """
    d = dim_cusp(2, k - 2)
    if d < 1:
        raise EmptySpaceError("dimension 0 at weight %d on Gamma0(2)" % k)
    if prec is None:
        prec = default_precision(k, m)
    basis = cusp_basis_gamma02(k, prec)
    images = [hecke_on_qseries(f, k, m) for f in basis]
    nrows = prec // m
    if nrows < d:
        raise PrecisionError(
            "only %d usable coefficient rows for %d unknowns; need prec >= %d" % (nrows, d, m * d),
            required=m * d,
        )
    a = _coefficient_matrix(basis, nrows)
    b = _coefficient_matrix(images, nrows)
    try:
        return solve_right(a, b)
    except UnderdeterminedSystemError as exc:
        if nrows < d + 2:
            raise PrecisionError(
                "solve rank-deficient with only %d rows; need prec >= %d" % (nrows, m * (d + 2)),
                required=m * (d + 2),
            ) from exc
        raise BasisDeficientError("oracle basis is linearly dependent at weight %d" % k) from exc
    except InconsistentSystemError as exc:
        raise BasisDeficientError(
            "T_%d image leaves the span of the oracle basis at weight %d" % (m, k)
        ) from exc


@dataclass
class Theorem14Report:
    """Rank report for the two Eisenstein-product families at one weight."""

    k: int
    dim: int
    rank_first: int
    rank_second: int
    cuspidal_first: bool
    cuspidal_second: bool

    @property
    def ok(self):
        return (
            self.cuspidal_first
            and self.cuspidal_second
            and self.rank_first == self.dim
            and self.rank_second == self.dim
        )


def theorem14_check(k):
    """Check that both cusp-product Eisenstein families span the weight-k cusp space.

    Builds E0_{2j+2} Einf_{k-2-2j} and E0_{k-2-2j} Einf_{2j+2} for
    j = 1..dim, verifies every product is a cusp form (vanishing constant
    term, expressible in the monomial cusp basis), and reports the exact rank
    of each family.
    """
    if k < 8 or k % 2:
        raise ValueError("k must be an even integer >= 8")
    w = k - 2
    d = dim_cusp(2, w)
    prec = default_precision(k)
    basis = cusp_basis_gamma02(k, prec)
    first, second = [], []
    for j in range(1, d + 1):
        e0_low = eisenstein_gamma02(2 * j + 2, "zero", prec)
        einf_high = eisenstein_gamma02(w - 2 * j, "infinity", prec)
        e0_high = eisenstein_gamma02(w - 2 * j, "zero", prec)
        einf_low = eisenstein_gamma02(2 * j + 2, "infinity", prec)
        first.append(e0_low * einf_high)
        second.append(e0_high * einf_low)
    nrows = prec
    basis_mat = _coefficient_matrix(basis, nrows)

    def family_report(family):
        cuspidal = all(f.is_cuspidal() for f in family)
        fam_mat = _coefficient_matrix(family, nrows)
        try:
            solve_right(basis_mat, fam_mat)
        except (UnderdeterminedSystemError, InconsistentSystemError):
            cuspidal = False
        return cuspidal, rank(fam_mat)

    cusp_first, rank_first = family_report(first)
    cusp_second, rank_second = family_report(second)
    return Theorem14Report(
        k=k,
        dim=d,
        rank_first=rank_first,
        rank_second=rank_second,
        cuspidal_first=cusp_first,
        cuspidal_second=cusp_second,
    )
