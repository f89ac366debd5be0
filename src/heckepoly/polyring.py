"""Bounded-degree polynomial arithmetic over exact rationals.

Coefficients are stored ascending by power of X as integer numerators over
their least common denominator: ``num[k] / den`` is the coefficient of X^k.
``BoundedPolynomial`` and ``qoracle.QSeries`` share this representation and
its arithmetic through one base, ``_IntVector``.  The ``bound`` is an ambient
degree cap (the weight parameter w in most uses), so a polynomial may carry
trailing zero coefficients up to that cap.
"""

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def clear_denominators(values):
    """Integers v and the least positive D with values[k] == v[k] / D: the lcm of the reduced denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _lowest_terms(num, den):
    """(num, den), den > 0, divided by gcd(den, *num): den becomes the least common denominator."""
    g = gcd(den, *num)
    return ([x // g for x in num], den // g) if g > 1 else (num, den)


def convolve(a, b, length):
    """Coefficients 0 .. length-1 of the product of two ascending lists of ints.

    The package's one convolution kernel, by Kronecker substitution: each operand
    is packed into one big integer with a slot per coefficient, and one product
    of the two gives every coefficient of the result at once.  The operands must
    be ints (every caller passes integer numerators).
    """
    a, b = a[:length], b[:length]
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if not bound:
        return [0] * length
    # a slot of w bytes holds any |c| <= bound plus a sign bit; the half-slot
    # offset makes every packed slot nonnegative, so no slot borrows from the next
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    offsets = bytes(w - 1) + b"\x80"  # half, little-endian

    def pack(v):
        packed = b"".join([(x + half).to_bytes(w, "little") for x in v])
        return int.from_bytes(packed, "little") - int.from_bytes(offsets * len(v), "little")

    low = pack(a) * pack(b) + int.from_bytes(offsets * length, "little")
    raw = (low & ((1 << 8 * w * length) - 1)).to_bytes(w * length, "little")
    return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * length, w)]


class _IntVector:
    """Exact rational vector: entry k is num[k] / den, over the least positive common denominator.

    The arithmetic that ``BoundedPolynomial`` and ``qoracle.QSeries`` share.  A
    subclass says how to tag a result (``_like``), how two operands pair their
    entries (``_pair``) and what the vector product is (``_product``).
    """

    __slots__ = ("num", "den")

    def _store(self, coeffs, length):
        """Set num and den from the rationals coeffs[:length], zero-padded to length."""
        self.num, self.den = clear_denominators(coeffs[:length] + [0] * (length - len(coeffs)))

    @property
    def coeffs(self):
        return [Fraction(x, self.den) for x in self.num]

    def __neg__(self):
        return self._like([-x for x in self.num], self.den)

    def _combine(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        den = lcm(self.den, other.den)
        u, v = den // self.den, sign * (den // other.den)
        return self._like([u * x + v * y for x, y in self._pair(other)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return self._like([c.numerator * x for x in self.num], self.den * c.denominator)
        return NotImplemented

    __rmul__ = __mul__


class BoundedPolynomial(_IntVector):
    """Polynomial in X of degree <= bound: coefficient k is num[k] / den, over the least common denominator."""

    __slots__ = ("bound",)

    def __init__(self, coeffs, bound=None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if bound is None:
            bound = max(len(coeffs) - 1, 0)
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if any(coeffs[bound + 1 :]):
            raise ValueError("coefficients exceed the degree bound %d" % bound)
        self._store(coeffs, bound + 1)
        self.bound = bound

    @classmethod
    def _over(cls, num, den):
        """Polynomial with coefficients num[k] / den (den > 0) and bound len(num) - 1, in lowest terms."""
        poly = cls.__new__(cls)
        poly.num, poly.den = _lowest_terms(num, den)
        poly.bound = len(num) - 1
        return poly

    _like = _over

    @classmethod
    def zero(cls, bound):
        return cls([], bound=bound)

    def degree(self):
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        for k in range(self.bound, -1, -1):
            if self.num[k]:
                return k
        return -1

    def coeff(self, k):
        if 0 <= k <= self.bound:
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def is_zero(self):
        return not any(self.num)

    def _pair(self, other):
        return zip_longest(self.num, other.num, fillvalue=0)

    def _product(self, other):
        return self._like(convolve(self.num, other.num, self.bound + other.bound + 1), self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, BoundedPolynomial):
            return NotImplemented
        # lowest terms make (num, den) unique up to trailing zeros
        return self.den == other.den and all(x == y for x, y in self._pair(other))

    def __repr__(self):
        return "BoundedPolynomial(%r, bound=%d)" % ([str(c) for c in self.coeffs], self.bound)


def reciprocal_scale(poly, level, w):
    """Return X^w * P(1/(level*X)) as a polynomial of degree <= w.

    The monomial x^k maps to X^(w-k) / level^k, so the result is a genuine
    polynomial exactly when deg P <= w; over den * level^(deg P) its
    numerators are the integers num[k] * level^(deg P - k).
    """
    if level < 1:
        raise ValueError("level must be positive")
    deg = poly.degree()
    if deg > w:
        raise ValueError("degree %d exceeds w=%d; result would not be a polynomial" % (deg, w))
    num = [0] * (w + 1)
    for k in range(deg + 1):
        num[w - k] = poly.num[k] * level ** (deg - k)
    return BoundedPolynomial._over(num, poly.den * level ** max(deg, 0))


def compose_linear(poly, a, b):
    """Return P(a*X + b) by exact binomial expansion; the bound is preserved."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    coeffs = [Fraction(0)] * (poly.bound + 1)
    for k, c in enumerate(poly.coeffs):
        if c:
            # (aX + b)^k expanded term by term
            for j in range(k + 1):
                coeffs[j] += c * comb(k, j) * a**j * b ** (k - j)
    return BoundedPolynomial(coeffs, bound=poly.bound)


def coeff_dot(f, g):
    """Integer dot product of the two numerator vectors: the coefficient dot product times f.den * g.den."""
    if f.bound != g.bound:
        raise ValueError("inner product requires matching bounds (%d vs %d)" % (f.bound, g.bound))
    return sum(map(mul, f.num, g.num))


def coeff_inner_product(f, g):
    """Dot product of the two coefficient vectors (rational, so no conjugation), paired in integers."""
    return Fraction(coeff_dot(f, g), f.den * g.den)
