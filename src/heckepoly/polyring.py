"""Bounded-degree polynomial arithmetic over exact rationals.

Coefficients are stored ascending by power of X: ``coeffs[k]`` is the
coefficient of X^k.  The ``bound`` is an ambient degree cap (the weight
parameter w in most uses), so a polynomial may carry trailing zero
coefficients up to that cap.
"""

from fractions import Fraction
from math import comb


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def convolve(a, b, length):
    """Coefficients 0 .. length-1 of the product of two ascending coefficient lists.

    The package's one convolution loop, for ints and Fractions; pass a sparse operand first.
    """
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i], i):
                if y:
                    out[j] += x * y
    return out


class BoundedPolynomial:
    """Polynomial in one variable X with Fraction coefficients and degree <= bound."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs, bound=None):
        coeffs = [_as_fraction(c) for c in coeffs]
        if bound is None:
            bound = max(len(coeffs) - 1, 0)
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if len(coeffs) > bound + 1:
            if any(coeffs[bound + 1 :]):
                raise ValueError("coefficients exceed the degree bound %d" % bound)
            coeffs = coeffs[: bound + 1]
        coeffs.extend([Fraction(0)] * (bound + 1 - len(coeffs)))
        self.coeffs = coeffs
        self.bound = bound

    @classmethod
    def zero(cls, bound):
        return cls([], bound=bound)

    @classmethod
    def monomial(cls, k, c=1, bound=None):
        if bound is None:
            bound = k
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = _as_fraction(c)
        return cls(coeffs, bound=bound)

    def degree(self):
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        for k in range(self.bound, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def coeff(self, k):
        if 0 <= k <= self.bound:
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self):
        return not any(self.coeffs)

    def with_bound(self, bound):
        """Same polynomial under a new ambient cap; fails if the degree exceeds it."""
        return BoundedPolynomial(self.coeffs, bound=bound)

    def even_part(self):
        masked = [c if k % 2 == 0 else Fraction(0) for k, c in enumerate(self.coeffs)]
        return BoundedPolynomial(masked, bound=self.bound)

    def odd_part(self):
        masked = [c if k % 2 == 1 else Fraction(0) for k, c in enumerate(self.coeffs)]
        return BoundedPolynomial(masked, bound=self.bound)

    def __neg__(self):
        return BoundedPolynomial([-c for c in self.coeffs], bound=self.bound)

    def __add__(self, other):
        if not isinstance(other, BoundedPolynomial):
            return NotImplemented
        bound = max(self.bound, other.bound)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(bound + 1)]
        return BoundedPolynomial(coeffs, bound=bound)

    def __sub__(self, other):
        if not isinstance(other, BoundedPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BoundedPolynomial):
            bound = self.bound + other.bound
            return BoundedPolynomial(convolve(self.coeffs, other.coeffs, bound + 1), bound=bound)
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return BoundedPolynomial([c * x for x in self.coeffs], bound=self.bound)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BoundedPolynomial([1], bound=0)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, BoundedPolynomial):
            return NotImplemented
        top = max(self.bound, other.bound)
        return all(self.coeff(k) == other.coeff(k) for k in range(top + 1))

    def __call__(self, x):
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        terms = []
        for k in range(self.bound, -1, -1):
            c = self.coeffs[k]
            if c:
                terms.append("%s*X^%d" % (c, k) if k else str(c))
        body = " + ".join(terms) if terms else "0"
        return "BoundedPolynomial(%s; bound=%d)" % (body, self.bound)


def reciprocal_scale(poly, level, w):
    """Return X^w * P(1/(level*X)) as a polynomial of degree <= w.

    The monomial x^k maps to X^(w-k) / level^k, so the result is a genuine
    polynomial exactly when deg P <= w.
    """
    if level < 1:
        raise ValueError("level must be positive")
    if poly.degree() > w:
        raise ValueError("degree %d exceeds w=%d; result would not be a polynomial" % (poly.degree(), w))
    coeffs = [Fraction(0)] * (w + 1)
    for k in range(min(poly.bound, w) + 1):
        c = poly.coeffs[k]
        if c:
            coeffs[w - k] = c / level**k
    return BoundedPolynomial(coeffs, bound=w)


def compose_linear(poly, a, b):
    """Return P(a*X + b) by exact binomial expansion; the bound is preserved."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    deg = poly.degree()
    coeffs = [Fraction(0)] * (poly.bound + 1)
    for k in range(deg, -1, -1):
        c = poly.coeffs[k]
        if not c:
            continue
        # (aX + b)^k expanded term by term
        for j in range(k + 1):
            coeffs[j] += c * comb(k, j) * a**j * b ** (k - j)
    return BoundedPolynomial(coeffs, bound=poly.bound)


def coeff_inner_product(f, g):
    """Dot product of the two coefficient vectors (rational, so no conjugation)."""
    if f.bound != g.bound:
        raise ValueError("inner product requires matching bounds (%d vs %d)" % (f.bound, g.bound))
    return sum((a * b for a, b in zip(f.coeffs, g.coeffs)), Fraction(0))
