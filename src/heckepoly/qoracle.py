"""Independent q-expansion verification channel for level 2.

Truncated q-series with exact rational coefficients: eta quotients via the
pentagonal number theorem, Eisenstein series at both cusps of Gamma0(2),
Hecke action on coefficients, a runtime-verified cusp-form basis, and oracle
Hecke matrices to cross-check the period-polynomial pipeline.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BasisDeficientError,
    EmptySpaceError,
    InconsistentSystemError,
    PrecisionError,
    UnderdeterminedSystemError,
)
from .exactlinalg import ExactMatrix, rank, solve_right
from .exactnum import bernoulli_number, factorize, sigma
from .heckeop import dim_cusp


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class QSeries:
    """Truncated power series in q: coefficients a_0 .. a_prec, all exact.

    ``weight`` tags the modular weight of the form the series expands.
    Arithmetic never claims coefficients beyond what the operands support.
    """

    __slots__ = ("weight", "prec", "coeffs")

    def __init__(self, weight, coeffs, prec=None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        if len(coeffs) < prec + 1:
            coeffs.extend([Fraction(0)] * (prec + 1 - len(coeffs)))
        self.weight = weight
        self.prec = prec
        self.coeffs = coeffs[: prec + 1]

    def coeff(self, n):
        if n < 0:
            return Fraction(0)
        if n > self.prec:
            raise PrecisionError("coefficient %d beyond precision %d" % (n, self.prec), required=n)
        return self.coeffs[n]

    def prefix(self, n):
        """Tuple (a_0, ..., a_n); errors if n exceeds the precision."""
        if n > self.prec:
            raise PrecisionError("prefix %d beyond precision %d" % (n, self.prec), required=n)
        return tuple(self.coeffs[: n + 1])

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot extend precision %d to %d" % (self.prec, prec), required=prec)
        return QSeries(self.weight, self.coeffs[: prec + 1], prec=prec)

    def is_cuspidal(self):
        return self.coeffs[0] == 0

    def __neg__(self):
        return QSeries(self.weight, [-c for c in self.coeffs], prec=self.prec)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError("weight mismatch: %s vs %s" % (self.weight, other.weight))
        prec = min(self.prec, other.prec)
        return QSeries(self.weight, [self.coeffs[i] + other.coeffs[i] for i in range(prec + 1)], prec=prec)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            prec = min(self.prec, other.prec)
            out = [Fraction(0)] * (prec + 1)
            for i in range(prec + 1):
                a = self.coeffs[i]
                if not a:
                    continue
                for j in range(prec + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(self.weight + other.weight, out, prec=prec)
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return QSeries(self.weight, [c * x for x in self.coeffs], prec=self.prec)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QSeries(0, [1], prec=self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return "QSeries(weight=%s, prec=%d, coeffs=[%s, ...])" % (self.weight, self.prec, head)


def _series_inverse(coeffs, prec):
    # reciprocal of a unit power series, coefficients ascending
    a0 = coeffs[0]
    if not a0:
        raise ValueError("series with zero constant term is not invertible")
    inv = [Fraction(0)] * (prec + 1)
    inv[0] = 1 / a0
    for n in range(1, prec + 1):
        acc = Fraction(0)
        for i in range(1, min(n, len(coeffs) - 1) + 1):
            if coeffs[i]:
                acc += coeffs[i] * inv[n - i]
        inv[n] = -acc / a0
    return inv


def _euler_factor(delta, prec):
    # prod_{n>=1} (1 - q^(delta n)) by the pentagonal number theorem
    coeffs = [Fraction(0)] * (prec + 1)
    coeffs[0] = Fraction(1)
    g = 1
    while True:
        p1 = delta * g * (3 * g - 1) // 2
        p2 = delta * g * (3 * g + 1) // 2
        if p1 > prec and p2 > prec:
            break
        s = Fraction((-1) ** g)
        if p1 <= prec:
            coeffs[p1] += s
        if p2 <= prec:
            coeffs[p2] += s
        g += 1
    return coeffs


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
    prod = [Fraction(1)] + [Fraction(0)] * inner
    for delta, r in parts:
        factor = _euler_factor(delta, inner)
        if r < 0:
            factor = _series_inverse(factor, inner)
            r = -r
        for _ in range(r):
            out = [Fraction(0)] * (inner + 1)
            for i, a in enumerate(prod):
                if not a:
                    continue
                for j in range(inner + 1 - i):
                    b = factor[j]
                    if b:
                        out[i + j] += a * b
            prod = out
    coeffs = [Fraction(0)] * lead + prod
    return QSeries(rsum // 2, coeffs, prec=prec)


def eisenstein_level1(k, prec):
    """Level-1 Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    k = 2 is quasi-modular and is exposed only as a building block for the
    weight-2 level-2 combination in m2_weight2.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    c = Fraction(-2 * k) / bernoulli_number(k)
    coeffs = [Fraction(1)] + [c * sigma(k - 1, n) for n in range(1, prec + 1)]
    return QSeries(k, coeffs, prec=prec)


def scale_variable(f, t):
    """f(t z): coefficient a_n moves to q^(t n)."""
    if t < 1:
        raise ValueError("scale must be positive")
    coeffs = [Fraction(0)] * (f.prec + 1)
    for n in range(f.prec // t + 1):
        coeffs[t * n] = f.coeffs[n]
    return QSeries(f.weight, coeffs, prec=f.prec)


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


def _hecke_u2(f):
    out_prec = f.prec // 2
    return QSeries(f.weight, [f.coeffs[2 * n] for n in range(out_prec + 1)], prec=out_prec)


def _hecke_tp(f, p, k):
    out_prec = f.prec // p
    scale = p ** (k - 1)
    coeffs = []
    for n in range(out_prec + 1):
        c = f.coeffs[n * p]
        if n % p == 0:
            c += scale * f.coeffs[n // p]
        coeffs.append(c)
    return QSeries(f.weight, coeffs, prec=out_prec)


def hecke_on_qseries(f, k, m, out_prec=None):
    """Apply T_m to a weight-k form on Gamma0(2), coefficientwise.

    For p = 2 the action is a_n -> a_{2n}; for odd primes
    a_n -> a_{np} + p^(k-1) a_{n/p}; prime powers follow the usual recurrence
    and coprime indices compose.  The result keeps prec(f) // m coefficients.
    """
    if f.weight != k:
        raise ValueError("series weight %s does not match k = %d" % (f.weight, k))
    if m < 1:
        raise ValueError("m must be positive")
    if out_prec is not None and f.prec < m * out_prec:
        raise PrecisionError(
            "need %d input coefficients for %d output coefficients under T_%d, have %d"
            % (m * out_prec, out_prec, m, f.prec),
            required=m * out_prec,
        )
    g = f
    for p, r in factorize(m):
        if p == 2:
            for _ in range(r):
                g = _hecke_u2(g)
        else:
            prev, cur = g, _hecke_tp(g, p, k)
            for _ in range(r - 1):
                prev, cur = cur, _hecke_tp(cur, p, k) - p ** (k - 1) * prev
            g = cur
    if out_prec is not None:
        g = g.truncate(out_prec)
    return g


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
    basis = []
    for b in range((k - 8) // 4 + 1):
        a = (k - 8 - 4 * b) // 2
        f = d8 * m2**a * e4**b
        basis.append(QSeries(k, f.coeffs, prec=f.prec))
    return basis


def default_precision(k, m=1):
    """Coefficient budget: the weight-k Sturm bound k/4 plus margin, scaled for T_m."""
    return max(k // 2 + 10, m * (k // 4 + 2))


def _coefficient_matrix(series, nrows):
    return ExactMatrix([[f.coeff(r) for f in series] for r in range(1, nrows + 1)], cols=len(series))


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


def theorem14_check(k, prec=None):
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
    if prec is None:
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
