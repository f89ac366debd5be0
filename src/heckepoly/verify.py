"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite is a list of independent named checks; a check passes silently or
fails with a detail string.  Results come back in submission order.
"""

import random
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, NamedTuple

from .exactlinalg import ExactMatrix, charpoly, determinant, hankel_bernoulli, solve_right
from .exactnum import bernoulli_number
from .heckeop import basis_matrix, dim_cusp, hecke_computation, hecke_matrix
from .heckesum import (
    diagonal_sum,
    eigenvalue_w6,
    enumerate_H_neg,
    moebius_correction,
    r_minus_hecke,
    s_poly_m,
    sign_restricted_sum,
)
from .periodpoly import PeriodContext, assemble_from_periods, period_value, r_plus_odd, s_poly
from .polyring import BoundedPolynomial
from .qoracle import (
    QSeries,
    cusp_basis_gamma02,
    eisenstein_level1,
    eta_quotient,
    hecke_matrix_oracle,
    hecke_on_qseries,
    scale_variable,
    theorem14_check,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class Check(NamedTuple):
    name: str
    run: Callable[[], None]  # raises AssertionError (or anything) on failure


def _evaluate(check):
    try:
        check.run()
        return CheckResult(check.name, True, "")
    except AssertionError as exc:
        return CheckResult(check.name, False, str(exc) or "assertion failed")
    except Exception as exc:  # surface, never swallow
        return CheckResult(check.name, False, "%s: %s" % (type(exc).__name__, exc))


def _check_paper_s262():
    expected = Fraction(-1, 15) * BoundedPolynomial([0, 1, 0, -5, 0, 4])
    assert s_poly(PeriodContext(2, 6, 2)) == expected


def _check_paper_s_2_10():
    got2 = s_poly(PeriodContext(2, 10, 2))
    assert got2 == Fraction(-1, 45) * BoundedPolynomial([0, 5, 0, -45, 0, 168, 0, -320, 0, 192])
    # the published rendering of the second polynomial carries an X^6/X^4 typo;
    # this is the value recomputed from the defining formula (odd powers only)
    got4 = s_poly(PeriodContext(2, 10, 4))
    assert got4 == Fraction(1, 210) * BoundedPolynomial([0, 7, 0, -55, 0, 168, 0, -280, 0, 160])


def _check_paper_s2_corrected():
    got2 = r_minus_hecke(PeriodContext(2, 10, 2), 2)
    assert got2 == Fraction(128, 45) * BoundedPolynomial([0, -5, 0, 30, 0, -42, 0, 5, 0, 12])
    got4 = r_minus_hecke(PeriodContext(2, 10, 4), 2)
    assert got4 == Fraction(-32, 105) * BoundedPolynomial([0, -7, 0, 40, 0, -42, 0, -35, 0, 44])


def _check_paper_s442():
    assert s_poly_m(PeriodContext(4, 4, 2), 2).is_zero()


def _check_paper_level4_m8():
    ctx = PeriodContext(4, 6, 2)
    assert enumerate_H_neg(4, 8) == [
        (-1, -1, 4, -4),
        (-1, 1, -4, -4),
        (1, -1, 4, 4),
        (1, 1, -4, 4),
    ]
    assert sign_restricted_sum(ctx.level, ctx.w, [ctx.n], 8)[0] == -1024 * BoundedPolynomial([0, 1, 0, -2, 0, 1])
    assert diagonal_sum(ctx, 8) == Fraction(-256, 15) * BoundedPolynomial([0, -56, 0, 40, 0, 1])
    assert moebius_correction(ctx, 8) == 256 * BoundedPolynomial([0, 0, 0, -4, 0, 3])
    assert r_minus_hecke(ctx, 8) == Fraction(-1024, 15) * BoundedPolynomial([0, 1, 0, -5, 0, 4])


def _check_paper_leading_coeff_remark():
    # the odd polynomial of index 2 at w = 6 starts N^3 B_4 X^5 + ...
    assert s_poly(PeriodContext(2, 6, 2)).coeff(5) == 2**3 * bernoulli_number(4)


def _check_paper_t2_matrix():
    t = hecke_matrix(2, 10, 2)
    assert t == ExactMatrix([[-208, 36], [-1120, 184]])
    assert charpoly(t) == [Fraction(2048), Fraction(24), Fraction(1)]


def _check_paper_t3_level4():
    comp = hecke_computation(4, 8, 3)
    printed = ExactMatrix(
        [
            [Fraction(x, 152915) for x in row]
            for row in [
                [2456678965260, -224610211392, 61847064000],
                [37961609400000, -3470759119380, 955676880000],
                [40281954570000, -3682878636192, 1014067309260],
            ]
        ]
    )
    # (x - 228)(x + 156)^2 expanded exactly
    target = BoundedPolynomial([-228, 1]) * BoundedPolynomial([156, 1]) * BoundedPolynomial([156, 1])
    assert comp.charpoly() == target.coeffs
    assert charpoly(printed) == target.coeffs
    # the published 3x3 entries pair the image polynomials in the first slot,
    # i.e. they are S1^-1 S2^T in this module's convention
    assert solve_right(comp.s1, comp.s2.transpose()) == printed
    # column action: the image of base[j] is sum_k T[k, j] * base[k]
    assert comp.basis_indices == [2, 4, 6]
    base = [s_poly(PeriodContext(4, 8, n)) for n in comp.basis_indices]
    for j, n in enumerate(comp.basis_indices):
        combo = sum((comp.t[k, j] * b for k, b in enumerate(base)), BoundedPolynomial.zero(8))
        assert r_minus_hecke(PeriodContext(4, 8, n), 3) == combo, "column action fails for index %d" % n
    # the published entries are the coefficient-pairing adjoint S1^-1 T^t S1
    assert comp.s1 * printed == comp.t.transpose() * comp.s1


def _check_paper_t2_delta():
    prec = 62
    delta = eta_quotient([(1, 24)], prec)
    delta2 = QSeries(12, scale_variable(delta, 2).coeffs, prec=prec)
    lhs = hecke_on_qseries(delta, 12, 2)
    rhs = -24 * delta + (-2048) * delta2
    assert lhs.prefix(30) == rhs.prefix(30)
    assert hecke_on_qseries(delta2, 12, 2).prefix(30) == delta.prefix(30)


def _check_paper_weight10_forms():
    # Hecke eigenform on Gamma0(2): eta(z)^8 eta(2z)^8 * M2 = q + 16q^2 - 156q^3 + 256q^4 + ...
    f = cusp_basis_gamma02(10, 10)[0]
    assert f.prefix(4) == (0, 1, 16, -156, 256)
    # newform on Gamma0(4): eta(2z)^12 * E_4(2z) = q + 228q^3 - 666q^5 + ...
    g = eta_quotient([(2, 12)], 10) * scale_variable(eisenstein_level1(4, 10), 2)
    assert g.prefix(5) == (0, 1, 0, 228, 0, -666)


def _check_paper_dimensions():
    assert dim_cusp(2, 10) == 2
    assert dim_cusp(2, 4) == 0
    assert dim_cusp(4, 8) == 3
    assert dim_cusp(2, 6) == 1


def _check_eigenvalue_formula():
    f = eta_quotient([(1, 8), (2, 8)], 100)
    for m in range(1, 100, 2):
        assert eigenvalue_w6(m) == f.coeff(m), "mismatch at m=%d" % m


def suite_paper_examples():
    return [
        Check("s_poly(2,6,2) printed value", _check_paper_s262),
        Check("s_poly(2,10,2)/(2,10,4) printed values", _check_paper_s_2_10),
        Check("corrected index-2 polynomials at w=10", _check_paper_s2_corrected),
        Check("s_poly_m(4,4,2;2) vanishes", _check_paper_s442),
        Check("level-4 m=8 decomposition", _check_paper_level4_m8),
        Check("leading coefficient remark", _check_paper_leading_coeff_remark),
        Check("T_2 matrix and charpoly on S_12(Gamma0(2))", _check_paper_t2_matrix),
        Check("T_3 on S_10(Gamma0(4)) vs printed data", _check_paper_t3_level4),
        Check("T_2 action on Delta(z), Delta(2z)", _check_paper_t2_delta),
        Check("printed weight-10 eigenform/newform expansions", _check_paper_weight10_forms),
        Check("dimension values", _check_paper_dimensions),
        Check("weight-8 eigenvalue formula vs eta quotient", _check_eigenvalue_formula),
    ]


def suite_hankel():
    def make(which, n):
        def run():
            det, closed = hankel_bernoulli(which, n)
            assert det == closed, "det %s != closed form %s" % (det, closed)

        return Check("hankel which=%d n=%d" % (which, n), run)

    return [make(which, n) for which in (1, 2, 3) for n in range(1, 9)]


def suite_bases(max_weight=60):
    def make(w, which):
        def run():
            assert determinant(basis_matrix(w, which)) != 0

        return Check("basis w=%d %s nonsingular" % (w, which), run)

    return [
        make(w, which)
        for w in range(6, max_weight + 1, 2)
        for which in ("even_low", "even_high", "odd_low", "odd_high")
    ]


def suite_theorem14(max_weight=40):
    def make(k):
        def run():
            rep = theorem14_check(k)
            assert rep.ok, "rank %d/%d at weight %d" % (min(rep.rank_first, rep.rank_second), rep.dim, k)

        return Check("eisenstein-product bases weight %d" % k, run)

    return [make(k) for k in range(8, max_weight + 1, 2)]


def suite_oracle(max_weight=40):
    def make(k, m):
        def run():
            assert charpoly(hecke_matrix_oracle(k, m)) == charpoly(hecke_matrix(2, k - 2, m))

        return Check("oracle charpoly k=%d m=%d" % (k, m), run)

    return [make(k, m) for k in range(8, max_weight + 1, 2) for m in (2, 3, 4, 5)]


def suite_symmetry():
    rng = random.Random(20260810)
    cases = []
    while len(cases) < 200:
        level = rng.choice([2, 3, 4, 5])
        w = rng.choice(range(4, 32, 2))
        n = rng.randint(0, w)
        m = rng.randint(0, w)
        if 0 < n < w:
            if (m + n) % 2 == 0:
                continue
        elif m % 2 == 0 or not 0 < m < w:
            continue
        cases.append((level, w, n, m))

    def make(level, w, n, m):
        def run():
            lhs = period_value(PeriodContext(level, w, n), m)
            rhs = Fraction(-level) ** (w - n - m) * period_value(PeriodContext(level, w, w - n), w - m)
            assert lhs == rhs, "%s != %s" % (lhs, rhs)

        return Check("period symmetry N=%d w=%d n=%d m=%d" % (level, w, n, m), run)

    return [make(*case) for case in cases]


def suite_assembly(max_weight=30):
    def make(level, w, n, sign):
        def run():
            ctx = PeriodContext(level, w, n)
            direct = s_poly(ctx) if sign == "minus" else r_plus_odd(ctx)
            assert assemble_from_periods(ctx, sign) == direct

        return Check("assembly N=%d w=%d n=%d %s" % (level, w, n, sign), run)

    checks = []
    for level in (2, 3, 4, 5):
        for w in range(4, max_weight + 1, 2):
            for n in range(2, w - 1, 2):
                checks.append(make(level, w, n, "minus"))
            for n in range(1, w, 2):
                checks.append(make(level, w, n, "plus"))
    return checks


def suite_hecke_relations(max_weight=22):
    tmat = cache(lambda w, m: hecke_matrix(2, w, m))  # each T once per suite run
    pairs = [(a, b) for a in range(2, 11) for b in range(a + 1, 11) if gcd(a, b) == 1]

    def make_pair(w, m1, m2):
        def run():
            t1, t2 = tmat(w, m1), tmat(w, m2)
            assert t1 * t2 == t2 * t1, "commutator nonzero"
            assert t1 * t2 == tmat(w, m1 * m2), "multiplicativity fails"

        return Check("T_%d,T_%d relations w=%d" % (m1, m2, w), run)

    def make_prime_square(w, p):
        def run():
            d = dim_cusp(2, w)
            lhs = tmat(w, p * p)
            rhs = tmat(w, p) * tmat(w, p) - ExactMatrix.identity(d) * (p ** (w + 1))
            assert lhs == rhs

        return Check("T_%d^2 relation w=%d" % (p, w), run)

    checks = [make_pair(w, m1, m2) for w in range(6, max_weight + 1, 2) for m1, m2 in pairs]
    checks += [make_prime_square(w, p) for w in range(6, min(max_weight, 18) + 1, 2) for p in (3, 5)]
    return checks


# name -> (builder, ceiling of its --max-weight bound, or None for a suite that takes no bound);
# each suite takes about 10 s at its ceiling (oracle --max-weight 200 ran past 60 s)
SUITES = {
    "paper-examples": (suite_paper_examples, None),
    "hankel": (suite_hankel, None),
    "bases": (suite_bases, 132),
    "theorem14": (suite_theorem14, 92),
    "oracle": (suite_oracle, 90),
    "symmetry": (suite_symmetry, None),
    "assembly": (suite_assembly, 100),
    "hecke-relations": (suite_hecke_relations, 58),
}


def run_suite(name, max_weight=None):
    """Run one named suite, bounded by ``max_weight`` if it has a ceiling; returns the ordered CheckResults."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    builder, ceiling = SUITES[name]
    checks = builder() if ceiling is None or max_weight is None else builder(max_weight)
    return [_evaluate(check) for check in checks]
