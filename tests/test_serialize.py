import random
from fractions import Fraction

from heckepoly.exactlinalg import ExactMatrix
from heckepoly.polyring import BoundedPolynomial
from heckepoly.serialize import (
    charpoly_latex,
    fraction_latex,
    _ratio_str,
    matrix_json,
    matrix_latex,
    poly_json,
    poly_latex,
    poly_text,
)


def test_fraction_str():
    # every rational leaves the package as str of its Fraction or int: reduced p/q, integers bare
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(-691, 2730)) == "-691/2730"
    assert str(Fraction(8, -6)) == "-4/3"
    assert str(Fraction(4)) == "4"
    assert str(0) == "0"


def test_ratio_str_is_str_of_the_fraction():
    # matrix cells render from (numerator, column denominator) pairs without building the Fraction
    rng = random.Random(40)
    cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (-691, 2730), (1 << 600, 1), (-(3**400), 3**250)]
    for _ in range(2000):
        bits = rng.choice((4, 64, 300, 600))
        x = rng.randint(-(1 << bits), 1 << bits)
        den = rng.choice((1, rng.randint(1, 1 << bits)))
        common = rng.choice((1, rng.randint(1, 1 << 200)))  # a shared factor the reduction must remove
        cases.append((x * common, den * common))
    for x, den in cases:
        assert _ratio_str(x, den) == str(Fraction(x, den)), (x, den)


def test_fraction_latex():
    assert fraction_latex(Fraction(-1, 15)) == r"-\frac{1}{15}"
    assert fraction_latex(Fraction(7)) == "7"


def test_poly_renderings():
    p = Fraction(-1, 15) * BoundedPolynomial([0, 1, 0, -5, 0, 4], bound=6)
    assert poly_json(p) == {"bound": 6, "coeffs": ["0", "-1/15", "0", "1/3", "0", "-4/15", "0"]}
    assert poly_text(p) == "-4/15*X^5 + 1/3*X^3 - 1/15*X"
    assert poly_latex(p) == r"-\frac{4}{15}X^{5}+\frac{1}{3}X^{3}-\frac{1}{15}X"
    assert poly_text(BoundedPolynomial.zero(3)) == "0"


def test_matrix_renderings():
    m = ExactMatrix([[-208, 36], [-1120, 184]])
    assert matrix_json(m) == [["-208", "36"], ["-1120", "184"]]
    assert "pmatrix" in matrix_latex(m)


def test_charpoly_latex():
    assert charpoly_latex([Fraction(2048), Fraction(24), Fraction(1)]) == "x^{2}+24x+2048"
    assert charpoly_latex([Fraction(0), Fraction(-1), Fraction(1)]) == "x^{2}-x"


def _terms_oracle(coeffs):
    return [(k, c) for k, c in reversed(list(enumerate(coeffs))) if c]


def _poly_text_oracle(coeffs):
    # the text renderer as it was before text and LaTeX shared one loop
    terms = _terms_oracle(coeffs)
    if not terms:
        return "0"
    parts = []
    for idx, (k, c) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if idx else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "X" if k == 1 else "X^%d" % k
            body = var if mag == 1 else "%s*%s" % (mag, var)
        parts.append((sign + " " if sign and idx else sign) + body)
    return " ".join(parts)


def _latex_oracle(coeffs, var):
    # the LaTeX renderer as it was before text and LaTeX shared one loop
    parts = []
    for k, c in _terms_oracle(coeffs):
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = fraction_latex(mag)
        else:
            power = var if k == 1 else "%s^{%d}" % (var, k)
            body = power if mag == 1 else fraction_latex(mag) + power
        parts.append(sign + body)
    return "".join(parts) or "0"


def test_one_renderer_matches_the_separate_text_and_latex_loops():
    rng = random.Random(16)
    pool = [0, 0, 0, 1, -1, 2, -7, Fraction(1, 3), Fraction(-4, 15), Fraction(691, 2730)]
    polys = [[], [0], [0, 0, 0], [1], [-1], [0, 1], [0, -1], [5, -1], [Fraction(-1, 2), 0, 1]]
    while len(polys) < 1200:
        coeffs = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.3:
            coeffs[-1] = -abs(coeffs[-1]) or -1  # a negative leading term
        polys.append(coeffs)
    for coeffs in polys:
        poly = BoundedPolynomial(coeffs, bound=max(len(coeffs) - 1, 0))
        assert poly_text(poly) == _poly_text_oracle(poly.coeffs), coeffs
        assert poly_latex(poly) == _latex_oracle(poly.coeffs, "X"), coeffs
        assert charpoly_latex([Fraction(c) for c in coeffs]) == _latex_oracle(coeffs, "x"), coeffs


def test_bounded_polynomial_repr_lists_coefficients():
    p = Fraction(-1, 15) * BoundedPolynomial([0, 1, 0, -5], bound=4)
    assert repr(p) == "BoundedPolynomial(['0', '-1/15', '0', '1/3', '0'], bound=4)"
