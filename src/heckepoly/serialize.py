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


def _render(coeffs, var, number, power_format, spaced):
    """Ascending coefficients in descending powers of var: the one loop behind text and LaTeX.

    ``number`` renders |c|, ``power_format % (var, k)`` the power k >= 2, and a coefficient 1 before a power is left
    out; ``spaced`` gives the text style ``3*X^2 - X + 1``, otherwise LaTeX's juxtaposed ``3X^{2}-X+1``.
    """
    parts = []
    for k, c in reversed(list(enumerate(coeffs))):
        if not c:
            continue
        mag = abs(c)
        power = "" if k == 0 else var if k == 1 else power_format % (var, k)
        body = power if power and mag == 1 else number(mag) + ("*" if spaced and power else "") + power
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append((" %s " % sign if spaced and parts else sign) + body)
    return "".join(parts) or "0"


def poly_text(poly):
    """Human-readable rendering, descending powers."""
    return _render(poly.coeffs, "X", fraction_str, "%s^%d", True)


def poly_latex(poly):
    return _render(poly.coeffs, "X", fraction_latex, "%s^{%d}", False)


def _ratio_str(x, den):
    """fraction_str(Fraction(x, den)) for den > 0, reduced without building the Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def matrix_json(mat):
    return [[_ratio_str(x, den) for x, den in zip(row, mat.dens)] for row in mat.num]


def matrix_text(mat):
    cells = [[fraction_str(x) for x in row] for row in mat.entries]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "\n".join("[ " + "  ".join(s.rjust(widths[j]) for j, s in enumerate(row)) + " ]" for row in cells)


def matrix_latex(mat):
    rows = [" & ".join(fraction_latex(x) for x in row) for row in mat.entries]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"


def coeffs_json(coeffs):
    return [fraction_str(c) for c in coeffs]


def charpoly_latex(coeffs):
    """Monic polynomial in x from ascending coefficients."""
    return _render(coeffs, "x", fraction_latex, "%s^{%d}", False)
