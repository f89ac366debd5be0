"""Rendering of exact values: reduced rational strings, JSON shapes, text, LaTeX."""

from fractions import Fraction
from math import gcd


def fraction_str(x):
    """Reduced 'p/q' string; integers render without the denominator."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    return _ratio_str(x.numerator, x.denominator)


def fraction_latex(x):
    x = x if isinstance(x, Fraction) else Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(x.numerator), x.denominator)


def poly_json(poly):
    return {"bound": poly.bound, "coeffs": [fraction_str(c) for c in poly.coeffs]}


def _terms(coeffs):
    """Nonzero (power, coefficient) pairs of ascending coefficients, descending by power."""
    return [(k, c) for k, c in reversed(list(enumerate(coeffs))) if c]


def poly_text(poly):
    """Human-readable rendering, descending powers."""
    terms = _terms(poly.coeffs)
    if not terms:
        return "0"
    parts = []
    for idx, (k, c) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if idx else "")
        mag = abs(c)
        if k == 0:
            body = fraction_str(mag)
        else:
            var = "X" if k == 1 else "X^%d" % k
            body = var if mag == 1 else "%s*%s" % (fraction_str(mag), var)
        parts.append((sign + " " if sign and idx else sign) + body)
    return " ".join(parts)


def _latex(coeffs, var):
    """LaTeX for ascending coefficients, descending powers of var."""
    parts = []
    for k, c in _terms(coeffs):
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = fraction_latex(mag)
        else:
            power = var if k == 1 else "%s^{%d}" % (var, k)
            body = power if mag == 1 else fraction_latex(mag) + power
        parts.append(sign + body)
    return "".join(parts) or "0"


def poly_latex(poly):
    return _latex(poly.coeffs, "X")


def _ratio_str(x, den):
    """fraction_str(Fraction(x, den)) for den > 0, reduced without building the Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def matrix_json(mat):
    return [[_ratio_str(x, den) for x, den in zip(row, mat.dens)] for row in mat.num]


def matrix_text(mat):
    widths = [0] * mat.cols
    cells = [[fraction_str(x) for x in row] for row in mat.entries]
    for row in cells:
        for j, s in enumerate(row):
            widths[j] = max(widths[j], len(s))
    return "\n".join("[ " + "  ".join(s.rjust(widths[j]) for j, s in enumerate(row)) + " ]" for row in cells)


def matrix_latex(mat):
    rows = [" & ".join(fraction_latex(x) for x in row) for row in mat.entries]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"


def coeffs_json(coeffs):
    return [fraction_str(c) for c in coeffs]


def charpoly_latex(coeffs):
    """Monic polynomial in x from ascending coefficients."""
    return _latex(coeffs, "x")
