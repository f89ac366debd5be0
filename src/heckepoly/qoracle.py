"""Independent q-expansion verification channel for level 2.

Truncated q-series (integer numerators over one denominator): eta quotients
by the recurrence of their logarithmic derivative, Eisenstein series at both
cusps of Gamma0(2), Hecke action on coefficients, a triangular cusp-form
basis of one eta quotient per form (times M2 at weights 2 mod 4), and oracle
Hecke matrices to cross-check the period-polynomial pipeline: T_p from
q-expansions at each prime p | m, T_m by the Hecke law of ``hecke_terms``.
"""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import BasisDeficientError, EmptySpaceError, InconsistentSystemError, PrecisionError
from .exactlinalg import ExactMatrix, rank, solve_right
from .exactnum import bernoulli_number, factorize, hecke_terms, require_even, require_positive
from .polyring import _as_fraction, _IntVector, _lowest_terms, convolve


class QSeries(_IntVector):
    """Truncated power series in q: a_n = num[n] / den for n = 0 .. prec, all exact.

    ``num`` are ints over the least positive common denominator ``den``, so an
    integer series (den = 1) never leaves ``int``.  ``weight`` tags the modular
    weight of the form; arithmetic never claims coefficients the operands lack.
    """

    __slots__ = ("weight", "prec")

    def __init__(self, weight, coeffs, prec=None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        self.weight, self.prec = weight, prec
        self._store(coeffs, prec + 1)

    @classmethod
    def _over(cls, weight, num, den):
        """Series num[n] / den (den > 0), reduced to the least common denominator."""
        series = cls.__new__(cls)
        series.weight, series.prec = weight, len(num) - 1
        series.num, series.den = _lowest_terms(num, den)
        return series

    def _like(self, num, den):
        return self._over(self.weight, num, den)

    def coeff(self, n):
        if n < 0:
            return Fraction(0)
        if n > self.prec:
            raise PrecisionError("coefficient %d beyond precision %d" % (n, self.prec))
        return Fraction(self.num[n], self.den)

    def prefix(self, n):
        """Tuple (a_0, ..., a_n); errors if n exceeds the precision."""
        if n > self.prec:
            raise PrecisionError("prefix %d beyond precision %d" % (n, self.prec))
        return tuple(Fraction(x, self.den) for x in self.num[: n + 1])

    def is_cuspidal(self):
        return self.num[0] == 0

    def _pair(self, other):
        if self.weight != other.weight:
            raise ValueError("weight mismatch: %s vs %s" % (self.weight, other.weight))
        # zip stops at the shorter series, i.e. at the smaller precision
        return zip(self.num, other.num)

    def _product(self, other):
        length = min(self.prec, other.prec) + 1
        return self._over(self.weight + other.weight, convolve(self.num, other.num, length), self.den * other.den)

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
    require_even("k", k, 2)
    if prec < 0:
        raise ValueError("prec must be nonnegative")
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
    require_even("k", k, 4)
    if cusp not in ("infinity", "zero"):
        raise ValueError("cusp must be 'infinity' or 'zero'")
    ek = eisenstein_level1(k, prec)
    ek2 = scale_variable(ek, 2)
    if cusp == "infinity":
        return Fraction(1, 2**k - 1) * (2**k * ek2 - ek)
    return Fraction(2**k, 2**k - 1) * (ek - ek2)


def hecke_on_qseries(f, m):
    """Apply T_m to a form on Gamma0(2) of weight k = f.weight, coefficientwise.

    a_n(T_m f) = sum of c a_{mn/e^2} over the pairs (e, c) of ``hecke_terms(2, k, m)`` with e | n, the law
    T_m T_n = sum of c T_(mn/e^2) read at q^1: the even e drop out because 2 divides the level.  The result has
    weight k and keeps coefficients 0 .. prec(f) // m.
    """
    require_positive("m", m)
    top = f.prec // m
    # n = 0 meets every e, so a_0(T_m f) = a_0 (sum of c); at top = 0 and a_0 = 0 nothing is summed, m not factored
    terms = hecke_terms(2, f.weight, m) if top or f.num[0] else []
    num = [sum(c * f.num[m * n // (e * e)] for e, c in terms if n % e == 0) for n in range(1, top + 1)]
    return QSeries._over(f.weight, [f.num[0] and f.num[0] * sum(c for _, c in terms)] + num, f.den)


def _basis_orders(k):
    """Orders at infinity j = 1 .. d of the weight-k basis forms; d = k//4 - 1 is dim S_k(Gamma0(2))."""
    require_even("k", k, 4)
    return range(1, k // 4)


def cusp_basis_gamma02(k, prec):
    """Triangular cusp-form basis of weight k on Gamma0(2): form j begins with q^j.

    For 4 | k, form j = 1 .. k/4 - 1 is the eta quotient
    eta(z)^(4k - 24j) eta(2z)^(24j - 2k), of order j at infinity and k/4 - j
    at 0 (Ligozat), with trivial character.  For k = 2 mod 4 every form
    vanishes at the elliptic point, which no eta quotient does, so the basis is
    M2 = 2 E_2(2z) - E_2(z) times the weight k - 2 one, of equal dimension.
    Its length is the dimension d (0 at k = 4, 6); prec must reach d.
    """
    k0 = k - k % 4
    basis = [eta_quotient([(1, 4 * k0 - 24 * j), (2, 24 * j - 2 * k0)], prec) for j in _basis_orders(k)]
    if k % 4:
        m2 = m2_weight2(prec)
        basis = [m2 * f for f in basis]
    return basis


def default_precision(k, m=1):
    """Precision max(k/2 + 10, P (k/4 + 2)), P the largest prime of m (1 at m = 1): T_p reads rows 1 .. prec // p."""
    require_positive("m", m)
    factors = factorize(m)
    return max(k // 2 + 10, (factors[-1][0] if factors else 1) * (len(_basis_orders(k)) + 3))


def _coefficient_matrix(series, nrows):
    """Coefficients 1 .. nrows of each series as one column over the series' denominator."""
    for f in series:
        f.coeff(nrows)  # raises PrecisionError past the precision
    return ExactMatrix.from_columns([f.num[1 : nrows + 1] for f in series], [f.den for f in series])


def hecke_matrix_oracle(k, m, prec=None):
    """Matrix of T_m on the weight-k cusp space, from q-expansions alone.

    Each prime p | m gives T_p: the basis coordinates of its images, by one
    exact solve over coefficients 1 .. prec//P, P the largest prime of m (1
    at m = 1).  T_m follows by the Hecke law of ``hecke_terms(2, k, g)``
    (Diamond-Shurman, GTM 228, section 5.3): one term at g = 1 makes T_m the
    product of its prime-power parts, and T_(p^(j+1)) = T_p T_(p^j) - (sum of
    c over e > 1 at g = p) T_(p^(j-1)).  Form j begins with q^j, so rows 1 .. d
    give d pivots: the one precision rule is PrecisionError when prec // P < d,
    and an image that leaves the basis's span raises BasisDeficientError.
    """
    require_positive("m", m)
    d = len(_basis_orders(k))
    if d < 1:
        raise EmptySpaceError("dimension 0 at weight %d on Gamma0(2)" % k)
    factors = factorize(m)
    top = factors[-1][0] if factors else 1
    if prec is None:
        prec = default_precision(k, m)
    nrows = prec // top
    if nrows < d:
        raise PrecisionError("only %d usable coefficient rows for %d unknowns; need prec >= %d" % (nrows, d, top * d))
    basis = cusp_basis_gamma02(k, prec)
    t = identity = ExactMatrix.identity(d)
    for p, a in factors:
        images = [hecke_on_qseries(f, p) for f in basis]
        try:
            tp = solve_right(_coefficient_matrix(basis, nrows), _coefficient_matrix(images, nrows))
        except InconsistentSystemError as exc:
            raise BasisDeficientError("T_%d image leaves the span of the oracle basis at weight %d" % (p, k)) from exc
        previous, power, tail = identity, tp, sum(c for e, c in hecke_terms(2, k, p) if e > 1)
        for _ in range(a - 1):
            previous, power = power, tp * power - tail * previous
        t = t * power
    return t


class Theorem14Report(NamedTuple):
    """Rank report for the two Eisenstein-product families at one weight; dim is the oracle basis's length."""

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
    j = 1..d, d the length of the oracle's cusp basis, verifies every product
    is a cusp form (vanishing constant term, expressible in the cusp basis),
    and reports the exact rank of each family.  The basis has full column
    rank, so a family in its span has the rank of its d x d coordinates.
    """
    require_even("k", k, 8)
    prec = default_precision(k)
    basis_mat = _coefficient_matrix(cusp_basis_gamma02(k, prec), prec)
    d = basis_mat.cols  # one column per basis form

    def family_report(low, high):
        """Cuspidality and rank of E_low(2j+2) E_high(k-2-2j), j = 1..d, for the cusps low and high."""
        family = [
            eisenstein_gamma02(2 * j + 2, low, prec) * eisenstein_gamma02(k - 2 - 2 * j, high, prec)
            for j in range(1, d + 1)
        ]
        cuspidal = all(f.is_cuspidal() for f in family)
        fam_mat = _coefficient_matrix(family, prec)
        try:
            return cuspidal, rank(solve_right(basis_mat, fam_mat))
        except InconsistentSystemError:
            return False, rank(fam_mat)

    cusp_first, rank_first = family_report("zero", "infinity")
    cusp_second, rank_second = family_report("infinity", "zero")
    return Theorem14Report(
        k=k,
        dim=d,
        rank_first=rank_first,
        rank_second=rank_second,
        cuspidal_first=cusp_first,
        cuspidal_second=cusp_second,
    )
