"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite is a list of independent named checks; a check passes silently or
fails with a detail string.  Results come back in submission order.  Each kind
of check is one module-level function, and every suite but ``paper-examples``
is a grid of one such function over its cases (``_grid``).
"""

import random
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import Callable, NamedTuple

from .exactlinalg import ExactMatrix, charpoly, determinant, hankel_bernoulli, solve_right
from .exactnum import bernoulli_number, hecke_terms
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
    assert charpoly(comp.t) == target.coeffs
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
    delta = eta_quotient([(1, 24)], 62)
    delta2 = scale_variable(delta, 2)
    lhs = hecke_on_qseries(delta, 2)
    rhs = -24 * delta + (-2048) * delta2
    assert lhs.prefix(30) == rhs.prefix(30)
    assert hecke_on_qseries(delta2, 2).prefix(30) == delta.prefix(30)


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


def _grid(title, check, cases):
    """One Check per case, in order: named title % case, running check(*case)."""
    return [Check(title % case, partial(check, *case)) for case in cases]


def _check_hankel(which, n):
    det, closed = hankel_bernoulli(which, n)
    assert det == closed, "det %s != closed form %s" % (det, closed)


def suite_hankel():
    return _grid("hankel which=%d n=%d", _check_hankel, [(which, n) for which in (1, 2, 3) for n in range(1, 9)])


def _check_basis(w, which):
    assert determinant(basis_matrix(w, which)) != 0


def suite_bases(max_weight=60):
    variants = ("even_low", "even_high", "odd_low", "odd_high")
    cases = [(w, which) for w in range(6, max_weight + 1, 2) for which in variants]
    return _grid("basis w=%d %s nonsingular", _check_basis, cases)


def _check_theorem14(k):
    rep = theorem14_check(k)
    assert rep.ok, "rank %d/%d at weight %d" % (min(rep.rank_first, rep.rank_second), rep.dim, k)


def suite_theorem14(max_weight=40):
    return _grid("eisenstein-product bases weight %d", _check_theorem14, [(k,) for k in range(8, max_weight + 1, 2)])


def _check_oracle(k, m):
    assert charpoly(hecke_matrix_oracle(k, m)) == charpoly(hecke_matrix(2, k - 2, m))


def suite_oracle(max_weight=40):
    cases = [(k, m) for k in range(8, max_weight + 1, 2) for m in (2, 3, 4, 5)]
    return _grid("oracle charpoly k=%d m=%d", _check_oracle, cases)


def _check_period_symmetry(level, w, n, m):
    lhs = period_value(PeriodContext(level, w, n), m)
    rhs = Fraction(-level) ** (w - n - m) * period_value(PeriodContext(level, w, w - n), w - m)
    assert lhs == rhs, "%s != %s" % (lhs, rhs)


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
    return _grid("period symmetry N=%d w=%d n=%d m=%d", _check_period_symmetry, cases)


def _check_assembly(level, w, n, sign):
    ctx = PeriodContext(level, w, n)
    direct = s_poly(ctx) if sign == "minus" else r_plus_odd(ctx)
    assert assemble_from_periods(ctx, sign) == direct


def suite_assembly(max_weight=30):
    cases = [
        (level, w, n, sign)
        for level in (2, 3, 4, 5)
        for w in range(4, max_weight + 1, 2)
        for sign, first in (("minus", 2), ("plus", 1))
        for n in range(first, w, 2)
    ]
    return _grid("assembly N=%d w=%d n=%d %s", _check_assembly, cases)


def _check_hecke_law(tmat, level, a, b, w):
    product = tmat(level, w, a) * tmat(level, w, b)
    assert product == tmat(level, w, b) * tmat(level, w, a), "commutator nonzero"
    law = [c * tmat(level, w, a * b // (e * e)) for e, c in hecke_terms(level, w + 2, gcd(a, b))]  # e = 1 first
    assert product == sum(law[1:], law[0]), "T_a T_b is not the sum of e^(k-1) T_(ab/e^2)"


def suite_hecke_relations(max_weight=22):
    law = partial(_check_hecke_law, cache(hecke_matrix))  # each T once per suite run
    pairs = [(a, b) for a in range(2, 11) for b in range(a + 1, 11) if gcd(a, b) == 1]
    pair_cases = [(m1, m2, w) for w in range(6, max_weight + 1, 2) for m1, m2 in pairs]
    square_cases = [(p, w) for w in range(6, min(max_weight, 18) + 1, 2) for p in (3, 5)]
    checks = _grid("T_%d,T_%d relations w=%d", partial(law, 2), pair_cases)
    checks += _grid("T_%d^2 relation w=%d", lambda p, w: law(2, p, p, w), square_cases)
    # levels 3-5: the same pairs and the squares of 2, 3 and 5 (U_p at p | N) at each w <= 40 the period basis serves
    served = [(level, w) for level in (3, 4, 5) for w in range(6, min(max_weight, 40) + 1, 2)]
    cases = [(n, a, b, w) for n, w in served if 0 < 2 * dim_cusp(n, w) < w for a, b in pairs + [(2, 2), (3, 3), (5, 5)]]
    return checks + _grid("N=%d T_%d,T_%d relations w=%d", law, cases)


# name -> (builder, ceiling of its --max-weight bound, or None for a suite that takes no bound);
# CLI wall time at the ceiling: bases 9 s, theorem14 2 s, oracle 4 s, assembly 11 s, hecke-relations 12 s (levels 2-5)
# (oracle --max-weight 200 ran past 60 s)
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
