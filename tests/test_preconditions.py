"""The index rule m, n >= 1, the level rule and the even-weight rule, each written once in ``exactnum``, at every site.

Each former hand-written copy keeps its exact message, except the library's two level checks, which now read as the
CLI's; the exact-arithmetic entry points return only exact values or raise ValueError on every boundary input.
"""

import argparse
from fractions import Fraction
from itertools import product

import pytest

from heckepoly.cli import _check_level, _cmd_oracle_matrix
from heckepoly.exactlinalg import hankel_bernoulli
from heckepoly.exactnum import divisors, hecke_terms, power_sums, require_even, require_level, require_positive, sigma
from heckepoly.heckeop import _solve, dim_cusp
from heckepoly.heckesum import eigenvalue_w6, enumerate_H_neg, hecke_images, s_poly_m, sign_restricted_sum
from heckepoly.periodpoly import PeriodContext
from heckepoly.qoracle import (
    QSeries,
    _basis_orders,
    default_precision,
    eisenstein_gamma02,
    eisenstein_level1,
    eta_quotient,
    hecke_matrix_oracle,
    hecke_on_qseries,
    m2_weight2,
    theorem14_check,
)


def _even_rule(name, least, value):
    return "%s must be an even integer >= %d, got %d" % (name, least, value)


_CTX = PeriodContext(2, 10, 2)
_SERIES = eisenstein_level1(4, 6)

# (id, call, message): every site that hand-wrote one of the three rules, at its boundary, with the text it raises
_SITES = [
    # the two library level checks said "level must be >= 2" with no value until they read the CLI's rule
    ("periodpoly.PeriodContext-level", lambda: PeriodContext(1, 6, 2), "level must be at least 2, got 1"),
    ("heckesum.enumerate_H_neg-level", lambda: enumerate_H_neg(1, 8), "level must be at least 2, got 1"),
    ("cli._check_level", lambda: _check_level(1), "level must be at least 2, got 1"),
    ("heckeop._solve", lambda: _solve(2, 10, 0), "m must be positive"),
    ("heckesum.enumerate_H_neg", lambda: enumerate_H_neg(2, 0), "m must be positive"),
    ("heckesum.sign_restricted_sum", lambda: sign_restricted_sum(2, 10, [2], 0), "m must be positive"),
    ("heckesum.s_poly_m", lambda: s_poly_m(_CTX, 0), "m must be positive"),
    ("heckesum.hecke_images", lambda: hecke_images(2, 10, [2, 4], 0), "m must be positive"),
    ("heckesum.eigenvalue_w6", lambda: eigenvalue_w6(0), "m must be positive"),
    ("qoracle.hecke_on_qseries", lambda: hecke_on_qseries(_SERIES, 0), "m must be positive"),
    ("qoracle.default_precision", lambda: default_precision(12, 0), "m must be positive"),
    ("qoracle.hecke_matrix_oracle", lambda: hecke_matrix_oracle(12, 0), "m must be positive"),
    ("exactnum.divisors", lambda: divisors(0), "n must be positive"),
    ("exactnum.sigma", lambda: sigma(1, 0), "n must be positive"),
    ("exactlinalg.hankel_bernoulli", lambda: hankel_bernoulli(1, 0), "n must be positive"),
]
for _w in (3, 0):
    _SITES += [
        ("PeriodContext-w%d" % _w, lambda w=_w: PeriodContext(2, w, 0), _even_rule("w", 2, _w)),
        ("heckeop.dim_cusp-w%d" % _w, lambda w=_w: dim_cusp(2, w), _even_rule("w", 2, _w)),
    ]
for _name, _call, _least in (
    ("qoracle.eisenstein_level1", lambda k: eisenstein_level1(k, 5), 2),
    ("qoracle.eisenstein_gamma02", lambda k: eisenstein_gamma02(k, "zero", 5), 4),
    ("qoracle._basis_orders", _basis_orders, 4),
    ("qoracle.theorem14_check", theorem14_check, 8),  # the one new text: it gains ", got k" like its siblings
    ("cli.oracle-matrix", lambda k: _cmd_oracle_matrix(argparse.Namespace(weight=k, m=2, prec=0)), 4),
):
    _arg = "weight" if _name.startswith("cli") else "k"
    for _k in (_least - 1, _least - 2):
        _SITES.append(("%s-k%d" % (_name, _k), lambda call=_call, k=_k: call(k), _even_rule(_arg, _least, _k)))


@pytest.mark.parametrize(("call", "message"), [site[1:] for site in _SITES], ids=[site[0] for site in _SITES])
def test_every_site_refuses_its_boundary_with_one_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_two_rules_accept_exactly_their_domains():
    for value in (1, 2, 10**30):
        require_positive("m", value)
    for value in (0, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="^m must be positive$"):
            require_positive("m", value)
    for value in (4, 6, 10**30):
        require_even("k", value, 4)
    for value in (3, 2, 5, -4):
        with pytest.raises(ValueError, match="^k must be an even integer >= 4, got %d$" % value):
            require_even("k", value, 4)


def test_the_level_rule_accepts_exactly_its_domain():
    for level in (2, 3, 10**30):
        require_level(level)
    for level in (1, 0, -5):
        with pytest.raises(ValueError, match="^level must be at least 2, got %d$" % level):
            require_level(level)
    # the level rule runs first, before the weight rule and the index rule
    with pytest.raises(ValueError, match="^level must be at least 2, got 0$"):
        PeriodContext(0, 3, 9)
    with pytest.raises(ValueError, match="^level must be at least 2, got 0$"):
        enumerate_H_neg(0, 0)


def test_sigma_refuses_a_negative_power():
    # sigma(-1, 6) was the float 2.0; sigma_0 counts divisors
    with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
        sigma(-1, 6)
    assert sigma(0, 6) == 4


def test_power_sums_refuses_a_negative_power():
    # power_sums([(1, 2)], -1) was [1] and power_sums([], -1) was []: the range e = 0..k is empty at k < 0
    for terms in ([(1, 2)], []):
        with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
            power_sums(terms, -1)
    assert power_sums([(1, 2)], 0) == [1] and power_sums([], 0) == [0]


def test_default_precision_applies_the_weight_rule():
    # default_precision(-2) was 9, (7) 13 and (3, 5) 11: the basis length it sizes now reads the weight rule;
    # the index rule on m still comes first
    for args in ((-2,), (7,), (3, 5), (2, 1)):
        with pytest.raises(ValueError, match="^k must be an even integer >= 4, got %d$" % args[0]):
            default_precision(*args)
    with pytest.raises(ValueError, match="^m must be positive$"):
        default_precision(7, 0)
    assert [default_precision(k) for k in (4, 6, 8)] == [12, 13, 14]


def test_hecke_terms_refuses_a_weight_below_one():
    # at k = 0 the coefficients e^(k-1) were floats, and T_3 of a weight-0 eta quotient died in a TypeError
    with pytest.raises(ValueError, match="^k must be positive$"):
        hecke_terms(2, 0, 9)
    with pytest.raises(ValueError, match="^k must be positive$"):
        hecke_on_qseries(eta_quotient([(1, -24), (2, 24)], 12), 3)
    assert hecke_terms(2, 1, 9) == [(1, 1), (3, 1), (9, 1)]


def test_eisenstein_series_refuse_a_negative_precision():
    # eisenstein_level1(4, -3) was a series of precision 0, where QSeries(4, [1], -3) refuses
    for call in (lambda: eisenstein_level1(4, -3), lambda: m2_weight2(-1), lambda: eisenstein_gamma02(4, "zero", -1)):
        with pytest.raises(ValueError, match="^prec must be nonnegative$"):
            call()
    assert eisenstein_level1(4, 0).prefix(0) == (1,)


def _exact(value):
    """True when value is an int, a Fraction, a QSeries of them, or a list or tuple of exact values."""
    if isinstance(value, QSeries):
        return _exact([value.weight, value.prec, value.den, *value.num])
    if isinstance(value, (list, tuple)):
        return all(map(_exact, value))
    return type(value) in (int, Fraction)


_BOUNDARY_CALLS = [
    *(("sigma", sigma, k, n) for k, n in product(range(-2, 5), range(13))),
    *(("hecke_terms", hecke_terms, level, k, g) for level, k, g in product((2, 3), range(-2, 5), range(13))),
    *(("eisenstein_level1", eisenstein_level1, k, prec) for k, prec in product(range(-2, 5), range(-2, 4))),
    *(("m2_weight2", m2_weight2, prec) for prec in range(-2, 4)),
    *(
        ("eisenstein_gamma02", eisenstein_gamma02, k, cusp, prec)
        for k, cusp, prec in product(range(-2, 5), ("infinity", "zero"), range(-2, 4))
    ),
]


def test_boundary_inputs_give_exact_values_or_value_errors():
    answered = 0
    for name, function, *args in _BOUNDARY_CALLS:
        try:
            value = function(*args)
        except ValueError:
            continue
        assert _exact(value), (name, args, value)
        answered += 1
    # sigma at k >= 0, n >= 1; hecke_terms at k, g >= 1; E_2 and E_4, m2 and the two E_4 at prec >= 0
    assert answered == 5 * 12 + 2 * 4 * 12 + 2 * 4 + 4 + 2 * 4
