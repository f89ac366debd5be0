import hashlib
import json
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

import heckepoly
from heckepoly import heckeop, qoracle
from heckepoly.cli import main
from heckepoly.errors import BasisDeficientError, EmptySpaceError, PrecisionError
from heckepoly.exactlinalg import ExactMatrix, charpoly, rank, solve_right
from heckepoly.exactnum import bernoulli_number, sigma
from heckepoly.heckeop import dim_cusp, hecke_matrix
from heckepoly.polyring import BoundedPolynomial
from heckepoly.qoracle import (
    QSeries,
    cusp_basis_gamma02,
    default_precision,
    eisenstein_gamma02,
    eisenstein_level1,
    eta_quotient,
    hecke_matrix_oracle,
    hecke_on_qseries,
    m2_weight2,
    scale_variable,
    theorem14_check,
)


def test_qseries_arithmetic():
    f = QSeries(2, [1, 2, 3])
    g = QSeries(2, [0, 1], prec=5)
    assert (f + g).prec == 2
    assert (f + g).coeffs == [1, 3, 3]
    assert (f * g).weight == 4
    assert (f * g).coeffs == [0, 1, 2]
    assert (3 * f).coeffs == [3, 6, 9]
    with pytest.raises(ValueError):
        f + QSeries(4, [1])
    with pytest.raises(PrecisionError):
        f.coeff(5)


def test_qseries_constructor_takes_any_iterable_of_ints_and_fractions():
    values = (1, Fraction(-1, 2), 0, 3)
    for given in (list(values), values, (c for c in values)):
        f = QSeries(6, given)
        assert (f.weight, f.prec, f.num, f.den) == (6, 3, [2, -1, 0, 6], 2)
    assert QSeries(6, (c for c in values), prec=1).coeffs == [1, Fraction(-1, 2)]


def test_qseries_arithmetic_keeps_the_class_and_the_weight():
    f = QSeries(10, [1, Fraction(2, 3), 5])
    g = QSeries(10, [Fraction(1, 5), 7], prec=1)
    for r, prec in ((-f, 2), (f - g, 1), (g - f, 1), (f * 3, 2), (Fraction(3, 7) * f, 2), (4 * g, 1)):
        assert type(r) is QSeries and (r.weight, r.prec) == (10, prec)


def test_qseries_and_polynomials_do_not_mix():
    f, p = QSeries(2, [1, 2, 3]), BoundedPolynomial([1, 2, 3])
    for a, b in ((f, p), (p, f)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
        assert not a == b and a != b


def test_eta_quotient_delta():
    delta = eta_quotient([(1, 24)], 10)
    assert delta.weight == 12
    assert delta.prefix(7) == (0, 1, -24, 252, -1472, 4830, -6048, -16744)


def test_eta_quotient_weight8_level2():
    f = eta_quotient([(1, 8), (2, 8)], 10)
    assert f.weight == 8
    assert f.coeff(0) == 0 and f.coeff(1) == 1
    assert f.coeff(3) == 12
    assert f.coeff(5) == -210


def test_eta_quotient_leading_term():
    for parts in ([(1, 24)], [(1, 8), (2, 8)], [(2, 12)]):
        f = eta_quotient(parts, 8)
        lead = sum(d * r for d, r in parts) // 24
        assert all(f.coeff(i) == 0 for i in range(lead))
        assert f.coeff(lead) == 1


def test_eta_quotient_negative_exponents():
    # eta(z)^-24 eta(2z)^48 * eta(z)^24 = eta(2z)^48, coefficientwise
    prec = 16
    quotient = eta_quotient([(1, -24), (2, 48)], prec)
    assert quotient.weight == 12
    product = quotient * eta_quotient([(1, 24)], prec)
    assert product.prefix(prec) == eta_quotient([(2, 48)], prec).prefix(prec)


def test_eta_quotient_ignores_parts_that_cancel(monkeypatch):
    # zero exponents and exponents that sum to zero per delta change neither the series nor its weight,
    # and cost no sieve work: the padded form makes exactly the range() calls of the plain one
    ranges = []
    monkeypatch.setattr(qoracle, "range", lambda *args: ranges.append(args) or range(*args), raising=False)
    plain = eta_quotient([(1, 8), (2, 8)], 200)
    plain_ranges, ranges[:] = list(ranges), []
    padding = [(1, 0)] * 2000 + [(3, 0)] + [(1, 1), (1, -1)] * 500 + [(2, 5), (2, -5), (7, 24), (7, -24)]
    padded = eta_quotient([(1, 8)] + padding + [(2, 8)], 200)
    assert (padded.weight, padded.num, padded.den) == (plain.weight, plain.num, plain.den)
    assert ranges == plain_ranges


def test_eta_quotient_guards():
    with pytest.raises(ValueError):
        eta_quotient([(1, 7)], 10)  # 7/24 fractional exponent
    with pytest.raises(ValueError):
        eta_quotient([(1, 24), (2, -1)], 10)  # odd exponent sum
    with pytest.raises(ValueError):
        eta_quotient([], 10)
    with pytest.raises(ValueError):
        eta_quotient([(1, -24)], 10)  # negative leading exponent


def test_eisenstein_level1():
    e4 = eisenstein_level1(4, 6)
    assert e4.prefix(3) == (1, 240, 2160, 6720)
    e6 = eisenstein_level1(6, 4)
    assert e6.coeff(0) == 1 and e6.coeff(1) == -504
    for k in range(2, 16, 2):
        assert eisenstein_level1(k, 3).coeff(0) == 1
    with pytest.raises(ValueError):
        eisenstein_level1(5, 4)


def test_eisenstein_level1_sieve_matches_sigma():
    # the sigma_{k-1} sieve against trial-division sigma (fraction_eisenstein, below)
    for k in (2, 4, 12, 40):
        for prec in (0, 1, 2, 12, 97, 300):
            ek = eisenstein_level1(k, prec)
            assert ek.coeffs == fraction_eisenstein(k, prec), (k, prec)
            assert_reduced(ek)


def test_eisenstein_gamma02_identities():
    prec = 30
    for k in range(4, 22, 2):
        einf = eisenstein_gamma02(k, "infinity", prec)
        e0 = eisenstein_gamma02(k, "zero", prec)
        ek = eisenstein_level1(k, prec)
        assert (einf + e0).prefix(prec) == ek.prefix(prec)
        assert (einf + Fraction(1, 2**k) * e0).prefix(prec) == scale_variable(ek, 2).prefix(prec)
        assert einf.coeff(0) == 1
        assert e0.coeff(0) == 0
    # explicit combination at k = 4
    e4 = eisenstein_level1(4, prec)
    manual = Fraction(1, 15) * (16 * scale_variable(e4, 2) - e4)
    assert eisenstein_gamma02(4, "infinity", prec).prefix(prec) == manual.prefix(prec)
    with pytest.raises(ValueError):
        eisenstein_gamma02(2, "infinity", 10)
    with pytest.raises(ValueError):
        eisenstein_gamma02(4, "elsewhere", 10)


def test_hecke_t2_delta_relations():
    prec = 62
    delta = eta_quotient([(1, 24)], prec)
    delta2 = scale_variable(delta, 2)
    image = hecke_on_qseries(delta, 2)
    target = -24 * delta + (-2048) * delta2
    assert image.prefix(30) == target.prefix(30)
    assert hecke_on_qseries(delta2, 2).prefix(30) == delta.prefix(30)


def test_hecke_identity_and_guards():
    f = eta_quotient([(1, 8), (2, 8)], 20)
    assert hecke_on_qseries(f, 1).prefix(20) == f.prefix(20)
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be positive"):
            hecke_on_qseries(f, m)


def test_hecke_prime_power_consistency():
    # T_9 = T_3 T_3 - 3^(k-1) on series, independently of the composite path
    prec = 81
    f = eta_quotient([(1, 8), (2, 8)], prec)
    t3 = hecke_on_qseries(f, 3)
    t9 = hecke_on_qseries(f, 9)
    manual = hecke_on_qseries(t3, 3) - 3**7 * f
    assert t9.prefix(9) == manual.prefix(9)
    # Hecke-algebra relations, whatever form hecke_on_qseries takes: T_2 applied r times is
    # T_(2^r), T_a T_b = T_ab for coprime a, b, and T_(p^2) = T_p T_p - p^(k-1)
    prec = 300
    for k in range(8, 22, 2):
        forms = cusp_basis_gamma02(k, prec) + [eisenstein_gamma02(k, c, prec) for c in ("infinity", "zero")]
        for f in forms:
            g = f
            for r in range(1, 5):
                g = hecke_on_qseries(g, 2)
                assert g.coeffs == hecke_on_qseries(f, 2**r).coeffs, (k, r)
            for a, b in ((2, 3), (3, 4), (4, 5), (3, 5)):
                composed = hecke_on_qseries(hecke_on_qseries(f, b), a)
                assert composed.coeffs == hecke_on_qseries(f, a * b).coeffs, (k, a, b)
            for p in (3, 5):
                twice = hecke_on_qseries(hecke_on_qseries(f, p), p)
                top = prec // (p * p)
                assert hecke_on_qseries(f, p * p).prefix(top) == (twice - p ** (k - 1) * f).prefix(top), (k, p)


def test_cusp_basis_cardinality_and_leading():
    # triangular: form j begins exactly q^j, so the basis is independent at any prec >= d;
    # both channels count the same dimension at every level-2 weight the CLI serves (d <= 40)
    for k in range(8, 166, 2):
        basis = cusp_basis_gamma02(k, k // 4)
        assert len(basis) == (k - 2 - 2) // 4 == dim_cusp(2, k - 2)
        for j, f in enumerate(basis, 1):
            assert f.weight == k
            assert f.coeffs[: j + 1] == [0] * j + [1], (k, j)
    assert cusp_basis_gamma02(6, 12) == []
    for k in (9, 2):
        with pytest.raises(ValueError, match="k must be an even integer >= 4, got %d" % k):
            cusp_basis_gamma02(k, 12)


def test_cusp_basis_independent():
    for k in (8, 12, 16, 24):
        basis = cusp_basis_gamma02(k, 26)
        m = ExactMatrix([[f.coeff(r) for f in basis] for r in range(1, 27)], cols=len(basis))
        assert rank(m) == len(basis)


def test_cusp_basis_k12_spans_delta_pair():
    prec = 24
    basis = cusp_basis_gamma02(12, prec)
    delta = eta_quotient([(1, 24)], prec)
    delta2 = scale_variable(delta, 2)
    rows = range(1, prec + 1)
    b = ExactMatrix([[f.coeff(r) for f in basis] for r in rows], cols=2)
    d = ExactMatrix([[f.coeff(r) for f in (delta, delta2)] for r in rows], cols=2)
    # exact change of basis in both directions
    solve_right(b, d)
    solve_right(d, b)


def test_m2_weight2():
    m2 = m2_weight2(8)
    assert m2.weight == 2
    assert m2.prefix(4) == (1, 24, 24, 96, 24)


def test_oracle_matrix_examples():
    t = hecke_matrix_oracle(12, 2)
    assert charpoly(t) == [Fraction(2048), Fraction(24), Fraction(1)]
    assert hecke_matrix_oracle(8, 3) == ExactMatrix([[12]])
    for k in (8, 12, 16):
        d = dim_cusp(2, k - 2)
        assert hecke_matrix_oracle(k, 1) == ExactMatrix.identity(d)
    with pytest.raises(EmptySpaceError):
        hecke_matrix_oracle(6, 2)
    with pytest.raises(PrecisionError):
        hecke_matrix_oracle(12, 5, prec=8)
    for k in (7, 2, -4):
        with pytest.raises(ValueError, match="k must be an even integer >= 4, got %d" % k):
            hecke_matrix_oracle(k, 2)


def direct_oracle(k, m):
    """T_m straight from q-expansions at index m: the basis at m (k/4 + 2) coefficients, one solve.

    The solve reads rows 1 .. prec // m, so it needs its own precision, scaled by m: default_precision
    scales by m's largest prime only, which leaves fewer than d rows at a composite m.
    """
    prec = max(k // 2 + 10, m * (k // 4 + 2))
    basis = cusp_basis_gamma02(k, prec)
    rows = range(1, prec // m + 1)
    images = [hecke_on_qseries(f, m).coeffs for f in basis]
    return solve_right(coefficient_matrix([f.coeffs for f in basis], rows), coefficient_matrix(images, rows))


def test_oracle_composite_index_matches_the_direct_solve():
    # T_m from T_p by the Hecke relations equals T_m read off its own q-expansion images
    for k in range(8, 42, 2):
        for m in (4, 6, 8, 9, 10, 12, 18, 25, 27):
            assert hecke_matrix_oracle(k, m) == direct_oracle(k, m), (k, m)


def test_oracle_reaches_large_index():
    # four distinct primes, an odd prime power and U_2^8
    for k in (20, 40):
        for m in (210, 243, 256):
            assert charpoly(hecke_matrix_oracle(k, m)) == charpoly(hecke_matrix(2, k - 2, m)), (k, m)


def test_oracle_precision_rule_reads_the_largest_prime():
    # k = 12: d = 2; m = 12 has largest prime 3, so prec // 3 >= 2 is enough
    assert hecke_matrix_oracle(12, 12, prec=6) == direct_oracle(12, 12)
    with pytest.raises(PrecisionError, match=r"only 1 usable coefficient rows for 2 unknowns; need prec >= 6$"):
        hecke_matrix_oracle(12, 12, prec=5)
    assert hecke_matrix_oracle(12, 1, prec=2) == ExactMatrix.identity(2)
    with pytest.raises(PrecisionError, match=r"need prec >= 2$"):
        hecke_matrix_oracle(12, 1, prec=1)


def test_oracle_image_outside_the_span_is_basis_deficient(monkeypatch):
    # a T_3 image that vanishes on rows 1 .. d but not on row d + 1 is in no span of the triangular basis
    def stray(f, p):
        return QSeries(f.weight, [0, 0, 0, 1], prec=f.prec // p) if p == 3 else hecke_on_qseries(f, p)

    monkeypatch.setattr(qoracle, "hecke_on_qseries", stray)
    assert hecke_matrix_oracle(12, 4) == direct_oracle(12, 4)
    with pytest.raises(BasisDeficientError, match="T_3 image leaves the span of the oracle basis at weight 12"):
        hecke_matrix_oracle(12, 6)


def test_oracle_matrix_rejects_nonpositive_m():
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be positive"):
            hecke_matrix_oracle(12, m)


def test_default_precision_policy():
    assert default_precision(12) == 16
    assert default_precision(12, 5) == max(16, 5 * 5)
    assert default_precision(24, 2) == max(22, 2 * 8)
    # a composite m scales by its largest prime: 3 at m = 12, 2 at m = 256
    assert default_precision(12, 12) == max(16, 3 * 5) == 16
    assert default_precision(40, 256) == max(30, 2 * 12) == 30
    assert default_precision(24, 2 * 3 * 7) == max(22, 7 * 8) == 56
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be positive"):
            default_precision(12, m)


def test_theorem14_small_weights():
    rep8 = theorem14_check(8)
    assert rep8.dim == 1 and rep8.rank_first == 1 and rep8.rank_second == 1 and rep8.ok
    rep10 = theorem14_check(10)
    assert rep10.dim == dim_cusp(2, 8) == 1 and rep10.ok
    rep12 = theorem14_check(12)
    assert rep12.dim == 2 and rep12.ok
    with pytest.raises(ValueError):
        theorem14_check(7)


def test_theorem14_ranks_match_the_full_family_matrices():
    # the report takes each rank from the d x d coordinates; the reference eliminates all prec rows
    for k in range(8, 41, 2):
        w, d, prec = k - 2, dim_cusp(2, k - 2), default_precision(k)
        report = theorem14_check(k)
        for low, high, got in (("zero", "infinity", report.rank_first), ("infinity", "zero", report.rank_second)):
            family = [
                eisenstein_gamma02(2 * j + 2, low, prec) * eisenstein_gamma02(w - 2 * j, high, prec)
                for j in range(1, d + 1)
            ]
            full = ExactMatrix.from_columns([f.num[1:] for f in family], [f.den for f in family])
            assert got == rank(full), (k, low)


def test_theorem14_counts_its_own_dimension(monkeypatch):
    # the verdict reads d off the basis it builds: with the pipeline's dimension patched to d - 1 wherever
    # the oracle could read it, a family of d - 1 >= 1 forms must not pass as spanning the d-dimensional space
    true_dim = {k: dim_cusp(2, k - 2) for k in range(12, 93, 2)}
    for owner in (heckeop, heckepoly, qoracle):
        monkeypatch.setattr(owner, "dim_cusp", lambda level, w: true_dim[w + 2] - 1, raising=False)
    built = []
    build = qoracle.cusp_basis_gamma02
    monkeypatch.setattr(qoracle, "cusp_basis_gamma02", lambda k, prec: built.append(build(k, prec)) or built[-1])
    for k, d in true_dim.items():
        report = theorem14_check(k)
        assert report.dim == len(built[-1]) == d, k
        assert report.ok, k


def test_theorem14_reports_a_family_outside_the_cusp_space(monkeypatch):
    # with the cusp-product Eisenstein series replaced by level-1 ones, each product has a constant term and leaves
    # the cusp basis's span: the report marks both families non-cuspidal and ranks their full coefficient matrices,
    # here 2 = dim M_16(SL_2(Z)) below the d = 3 forms of each family
    k, prec = 16, default_precision(16)
    monkeypatch.setattr(qoracle, "eisenstein_gamma02", lambda weight, cusp, prec: eisenstein_level1(weight, prec))
    report = theorem14_check(k)
    family = [eisenstein_level1(2 * j + 2, prec) * eisenstein_level1(k - 2 - 2 * j, prec) for j in (1, 2, 3)]
    full = ExactMatrix.from_columns([f.num[1:] for f in family], [f.den for f in family])
    assert report.dim == 3 and rank(full) == 2
    assert (report.cuspidal_first, report.rank_first) == (report.cuspidal_second, report.rank_second) == (False, 2)
    assert not report.ok


def test_theorem14_products_are_cuspidal():
    prec = 20
    w = 12
    for j in (1, 2):
        product = eisenstein_gamma02(2 * j + 2, "zero", prec) * eisenstein_gamma02(w - 2 * j, "infinity", prec)
        assert product.coeff(0) == 0


# --- integer numerators against the Fraction arithmetic they replaced -------


def fraction_convolution(a, b, prec):
    """Coefficients 0..prec of a*b by the Fraction loop QSeries.__mul__ used to run."""
    out = [Fraction(0)] * (prec + 1)
    for i in range(prec + 1):
        x = a[i]
        if not x:
            continue
        for j in range(prec + 1 - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def fraction_power(a, e, prec):
    """a^e by repeated squaring with the Fraction loop."""
    out = [Fraction(1)] + [Fraction(0)] * prec
    while e:
        if e % 2:
            out = fraction_convolution(out, a, prec)
        e //= 2
        if e:
            a = fraction_convolution(a, a, prec)
    return out


def fraction_eta(parts, prec):
    """eta quotient from Fraction Euler factors, Fraction inverses and the Fraction loop."""
    lead = sum(d * r for d, r in parts) // 24
    inner = prec - lead
    out = [Fraction(1)] + [Fraction(0)] * inner
    for delta, r in parts:
        factor = [Fraction(0)] * (inner + 1)
        for g in range(-inner, inner + 1):
            e = delta * g * (3 * g - 1) // 2
            if 0 <= e <= inner:
                factor[e] += -1 if g % 2 else 1
        if r < 0:
            inverse = [Fraction(1)]
            for n in range(1, inner + 1):
                inverse.append(-sum(factor[i] * inverse[n - i] for i in range(1, n + 1)))
            factor = inverse
        out = fraction_convolution(out, fraction_power(factor, abs(r), inner), inner)
    return [Fraction(0)] * lead + out


def fraction_eisenstein(k, prec):
    c = Fraction(-2 * k) / bernoulli_number(k)
    return [Fraction(1)] + [c * sigma(k - 1, n) for n in range(1, prec + 1)]


def assert_reduced(f):
    assert f.den > 0 and all(isinstance(x, int) for x in f.num)
    assert gcd(f.den, *f.num) == 1


def random_series(rng, weight, prec, den):
    return QSeries(weight, [Fraction(rng.randint(-50, 50), rng.choice(den)) for _ in range(prec + 1)])


def test_product_power_and_scalars_match_fraction_arithmetic():
    rng = random.Random(20261018)
    for _ in range(20):
        f = random_series(rng, 2, rng.randint(0, 15), (1, 2, 3, 7))
        g = random_series(rng, 4, rng.randint(0, 15), (1, 5, 6))
        prec = min(f.prec, g.prec)
        product = f * g
        assert (product.weight, product.prec) == (6, prec)
        assert product.coeffs == fraction_convolution(f.coeffs, g.coeffs, prec)
        assert_reduced(product)
        for c in (Fraction(3, 14), Fraction(-7, 2), -6, 0, Fraction(1, 1)):
            assert (c * f).coeffs == (f * c).coeffs == [c * x for x in f.coeffs]
            assert_reduced(c * f)


def test_sum_and_difference_with_mixed_denominators():
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, 6, rng.randint(0, 12), (1, 4, 9))
        g = random_series(rng, 6, rng.randint(0, 12), (2, 3, 35))
        prec = min(f.prec, g.prec)
        assert (f + g).coeffs == [x + y for x, y in zip(f.coeffs, g.coeffs)][: prec + 1]
        assert (f - g).coeffs == [x - y for x, y in zip(f.coeffs, g.coeffs)][: prec + 1]
        assert (f + g).prec == (f - g).prec == prec
        assert_reduced(f + g)
        assert_reduced(f - g)
    half = QSeries(0, [Fraction(1, 2), Fraction(3, 2)])
    whole = half + half
    assert (whole.num, whole.den) == ([1, 3], 1)
    assert (half - half).den == 1 and not any((half - half).num)
    assert QSeries(0, [Fraction(2, 4), 1], prec=3).coeffs == [Fraction(1, 2), 1, 0, 0]


def test_eta_quotient_matches_fraction_products():
    for parts in ([(1, 24)], [(1, 8), (2, 8)], [(1, -24), (2, 48)], [(1, 16), (2, -8)], [(4, -2), (1, 16), (2, 8)]):
        for prec in (4, 30):
            f = eta_quotient(parts, prec)
            assert f.den == 1
            assert f.coeffs == fraction_eta(parts, prec), parts


def sparse_convolution(a, b, length):
    """Coefficients 0 .. length-1 of a*b by the schoolbook loop, skipping zero entries."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i], i):
                if y:
                    out[j] += x * y
    return out


def series_inverse(coeffs, prec):
    # reciprocal of an integer power series with constant term 1, coefficients ascending
    terms = [(i, c) for i, c in enumerate(coeffs[1 : prec + 1], 1) if c]
    inv = [1]
    for n in range(1, prec + 1):
        inv.append(-sum(c * inv[n - i] for i, c in terms if i <= n))
    return inv


def euler_factor(delta, prec):
    # prod_{n>=1} (1 - q^(delta n)) by the pentagonal number theorem
    coeffs = [1] + [0] * prec
    g = 1
    while True:
        p1 = delta * g * (3 * g - 1) // 2
        p2 = delta * g * (3 * g + 1) // 2
        if p1 > prec and p2 > prec:
            break
        s = (-1) ** g
        if p1 <= prec:
            coeffs[p1] += s
        if p2 <= prec:
            coeffs[p2] += s
        g += 1
    return coeffs


def euler_product_eta(parts, prec):
    """(weight, numerators) of the eta quotient by Euler-factor products and one series inversion."""
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
    pos, neg = [1] + [0] * inner, [1] + [0] * inner
    for delta, r in parts:
        factor = euler_factor(delta, inner)
        for _ in range(abs(r)):
            if r > 0:
                pos = sparse_convolution(factor, pos, inner + 1)
            else:
                neg = sparse_convolution(factor, neg, inner + 1)
    return rsum // 2, [0] * lead + sparse_convolution(series_inverse(neg, inner), pos, inner + 1)


def test_eta_quotient_matches_euler_products():
    grid = [
        [(1, 8), (2, 8)],
        [(1, -24), (2, 48)],
        [(4, -2), (1, 16), (2, 8)],
        [(1, 0), (2, 12), (3, 0)],  # zero exponents
        [(1, 24), (401, 2), (401, -2)],  # delta > prec
        [(1, 48), (101, 24)],  # leading exponent 103
        [(100, 24)],  # leading exponent 100 = prec at prec 100
        [(1, -12), (2, 6)],  # leading exponent 0 = prec at prec 0
        [(1, -299), (299, 1)],  # at the exponent cap
        [(1, 7)],
        [(1, 24), (2, -1)],
        [],
        [(1, -24)],
        [(0, 24)],
    ]
    for parts in grid:
        for prec in (0, 1, 100, 400):
            try:
                expected = euler_product_eta(parts, prec)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    eta_quotient(parts, prec)
                assert str(got.value) == str(exc), (parts, prec)
                continue
            f = eta_quotient(parts, prec)
            assert (f.weight, f.num, f.den) == (*expected, 1), (parts, prec)


def test_eisenstein_gamma02_matches_fraction_formula():
    prec = 40
    for k in range(4, 22, 2):
        ek = fraction_eisenstein(k, prec)
        ek2 = [ek[n // 2] if n % 2 == 0 else 0 for n in range(prec + 1)]
        einf = [(2**k * y - x) / (2**k - 1) for x, y in zip(ek, ek2)]
        e0 = [2**k * (x - y) / (2**k - 1) for x, y in zip(ek, ek2)]
        assert eisenstein_level1(k, prec).coeffs == ek
        assert eisenstein_gamma02(k, "infinity", prec).coeffs == einf
        assert eisenstein_gamma02(k, "zero", prec).coeffs == e0
        assert_reduced(eisenstein_gamma02(k, "zero", prec))


def test_hecke_on_qseries_prime_powers_match_divisor_formula():
    # a_n(T_{p^r} f) = sum over d | gcd(n, p^r) of d^(k-1) a(p^r n / d^2), p odd; a_n(U_2^r f) = a(2^r n)
    prec = 250
    k = 12
    forms = [eisenstein_gamma02(k, "zero", prec), eisenstein_gamma02(k, "infinity", prec)]
    forms += cusp_basis_gamma02(k, prec)
    for f in forms:
        a = f.coeffs
        for p, r in ((2, 1), (2, 3), (3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2)):
            q = p**r
            image = hecke_on_qseries(f, q)
            assert image.prec == prec // q
            if p == 2:
                expected = [a[q * n] for n in range(prec // q + 1)]
            else:
                expected = [
                    sum(
                        (p**j) ** (k - 1) * a[q * n // p ** (2 * j)]
                        for j in range(r + 1)
                        if n % p**j == 0
                    )
                    for n in range(prec // q + 1)
                ]
            assert image.coeffs == expected, (p, r)


def test_hecke_on_qseries_odd_composite_index_matches_divisor_formula():
    # a_n(T_m f) = sum over odd d | gcd(m, n) of d^(k-1) a(m n / d^2); save at m = 15, prec 250, m has odd
    # divisors above prec // m, which meet only n = 0: a_0 != 0 on the Eisenstein series, a_0 = 0 on cusp forms
    for k in (12, 14):
        for prec in (100, 250):
            forms = [eisenstein_gamma02(k, "zero", prec), eisenstein_gamma02(k, "infinity", prec)]
            forms += cusp_basis_gamma02(k, prec)
            for f in forms:
                a = f.coeffs
                for m in (15, 30, 45, 90, 105):
                    image = hecke_on_qseries(f, m)
                    top = prec // m
                    assert image.prec == top
                    expected = [
                        sum(d ** (k - 1) * a[m * n // (d * d)] for d in range(1, m + 1, 2) if m % d == 0 == n % d)
                        for n in range(top + 1)
                    ]
                    assert image.coeffs == expected, (k, prec, m)


def fraction_m2(top):
    e2 = fraction_eisenstein(2, top)
    return [2 * e2[n // 2] * (n % 2 == 0) - e2[n] for n in range(top + 1)]


def fraction_monomial_family(k, top):
    """D8 * M2^a * E4^b, 2a + 4b = k - 8, D8 = eta(z)^8 eta(2z)^8: the oracle basis before the eta quotients."""
    m2, e4 = fraction_m2(top), fraction_eisenstein(4, top)
    d8_m2 = [fraction_eta([(1, 8), (2, 8)], top)]
    for _ in range((k - 8) // 2):
        d8_m2.append(fraction_convolution(d8_m2[-1], m2, top))
    family, e4_power = [], fraction_power(e4, 0, top)
    for b in range((k - 8) // 4 + 1):
        family.append(fraction_convolution(d8_m2[(k - 8 - 4 * b) // 2], e4_power, top))
        e4_power = fraction_convolution(e4_power, e4, top)
    return family


def coefficient_matrix(columns, rows):
    return ExactMatrix([[c[r] for c in columns] for r in rows], cols=len(columns))


def test_cusp_basis_matches_fraction_products():
    # reference at the largest precision; a truncated series is the prefix of the longer one
    top = 84
    m2 = fraction_m2(top)
    for k0 in range(8, 41, 4):
        etas = [fraction_eta([(1, 4 * k0 - 24 * j), (2, 24 * j - 2 * k0)], top) for j in range(1, k0 // 4)]
        for k, expected in ((k0, etas), (k0 + 2, [fraction_convolution(m2, f, top) for f in etas])):
            for prec in (12, 40, 84):
                basis = cusp_basis_gamma02(k, prec)
                assert len(basis) == len(expected)
                for f, coeffs in zip(basis, expected):
                    assert (f.weight, f.prec, f.den) == (k, prec, 1)
                    assert f.coeffs == coeffs[: prec + 1], (k, prec)


def test_cusp_basis_spans_the_monomial_family():
    # 24 rows exceed the Sturm bound k/4 of every weight here, so equal spans of prefixes are equal spaces
    top = 24
    for k in range(8, 42, 2):
        rows = range(1, top + 1)
        basis = coefficient_matrix([f.coeffs for f in cusp_basis_gamma02(k, top)], rows)
        family = coefficient_matrix(fraction_monomial_family(k, top), rows)
        solve_right(basis, family)
        solve_right(family, basis)


# SHA-256 of CLI stdout recorded before q-series moved to integer numerators
CLI_STDOUT_SHA256 = {
    ("qexp", "--form", "eta:1^8,2^8", "--prec", "60"): "41a9d0b41aceacad7032bf1512f3dea214e217ba81688dad0d33163ade85b649",
    ("qexp", "--form", "eta:1^-24,2^48", "--prec", "60"): "c63c8f951df3a3cc4dd3523807761b00586d37b029ffc56e974dbf816c438c62",
    ("qexp", "--form", "E:12", "--prec", "60"): "62283f048b2ece3aff71b3e0f7cf4330a0d29bb703d7346d7e11b03727b7ba97",
    ("qexp", "--form", "Einf:10", "--prec", "60"): "9e330e87a20440629444e7c110953722fde9ce3089d5cf86a5d573346c55e642",
    ("qexp", "--form", "E0:6", "--prec", "60"): "24699c781937a6f9d37df92b84e4506b394c6b94540e8fdef9f47a3a16b5f614",
    ("qexp", "--form", "E0:6"): "e93fb995f60942dee75b4f95e573ef22d506f5e14dd85a36d892fd734d50d54c",
    # oracle-matrix prints T in the eta-quotient basis of cusp_basis_gamma02
    ("oracle-matrix", "--weight", "12", "--m", "2"): "59709012e9c100f55e85a182870a1eb86f9d498b9d238e833531fe9bc0c61243",
    ("oracle-matrix", "--weight", "12", "--m", "5"): "d94af7378339737b8fa1daa27d51c285df1e19dc5d8b9742f8ef5ce8c9551147",
    ("oracle-matrix", "--weight", "20", "--m", "2"): "1668d94835c3920fad92d4f201bf2853932442095d06c214563fac15c10c30d2",
    ("oracle-matrix", "--weight", "20", "--m", "5"): "28b8f0c0b837471a28024ca22e323212d81c1c7682473352f2c854fcc1565958",
}
ORACLE_MATRIX_ARGV = [argv for argv in CLI_STDOUT_SHA256 if argv[0] == "oracle-matrix"]


def test_cli_stdout_is_byte_identical(capsys):
    for argv, digest in CLI_STDOUT_SHA256.items():
        assert main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", ORACLE_MATRIX_ARGV, ids=lambda argv: "k%s-m%s" % (argv[2], argv[4]))
def test_oracle_matrix_is_similar_to_the_monomial_basis_matrix(capsys, argv):
    # the printed T and the matrix of the old D8 M2^a E4^b basis are one operator: C T_old == T_new C
    assert main(list(argv)) == 0
    payload = json.loads(capsys.readouterr().out)
    k, m, prec = payload["weight"], payload["m"], payload["prec"]
    t_new = ExactMatrix([[Fraction(x) for x in row] for row in payload["T"]])
    old = fraction_monomial_family(k, prec)
    images = [hecke_on_qseries(QSeries(k, f), m).coeffs for f in old]
    image_rows = range(1, prec // m + 1)
    t_old = solve_right(coefficient_matrix(old, image_rows), coefficient_matrix(images, image_rows))
    new = [f.coeffs for f in cusp_basis_gamma02(k, prec)]
    c = solve_right(coefficient_matrix(new, range(1, prec + 1)), coefficient_matrix(old, range(1, prec + 1)))
    assert c * t_old == t_new * c
    assert main(["hecke-matrix", "--level", "2", "--w", str(k - 2), "--m", str(m)]) == 0
    assert payload["charpoly"] == json.loads(capsys.readouterr().out)["charpoly"]


def test_oracle_matches_pipeline_k62_and_k64():
    # both residues of k mod 4 at d = 14 and 15
    for k in (62, 64):
        for m in (2, 3):
            assert charpoly(hecke_matrix_oracle(k, m)) == charpoly(hecke_matrix(2, k - 2, m)), (k, m)


def test_oracle_matches_pipeline_k26_to_40():
    for k in range(26, 42, 2):
        for m in (2, 3, 4, 5):
            assert charpoly(hecke_matrix_oracle(k, m)) == charpoly(hecke_matrix(2, k - 2, m)), (k, m)


def test_hecke_on_qseries_huge_index_on_cusp_forms():
    # with a_0 = 0 only the divisors of m up to prec // m matter, so a huge prime m costs nothing
    f = cusp_basis_gamma02(12, 40)[0]
    assert hecke_on_qseries(f, 2**61 - 1).coeffs == [0]
    assert hecke_on_qseries(f, 3 * (2**61 - 1)).coeffs == [0]


def test_qseries_guards_and_repr():
    with pytest.raises(ValueError, match="^prec must be nonnegative$"):
        QSeries(4, [1], -1)
    series = QSeries(4, [1, Fraction(1, 2), 3])
    assert series.coeff(-1) == 0 and type(series.coeff(-1)) is Fraction
    with pytest.raises(PrecisionError, match="^prefix 3 beyond precision 2$"):
        series.prefix(3)
    with pytest.raises(ValueError, match="^scale must be positive$"):
        scale_variable(series, 0)
    # eta(24z) = q - q^25 - ...: an integral leading exponent, but odd weight
    with pytest.raises(ValueError, match="^sum of eta exponents must be even for integral weight$"):
        eta_quotient([(24, 1)], 30)
    assert repr(series) == "QSeries(weight=4, prec=2, coeffs=[1, 1/2, 3, ...])"
    e4 = "QSeries(weight=4, prec=8, coeffs=[1, 240, 2160, 6720, 17520, 30240, ...])"
    assert repr(eisenstein_level1(4, 8)) == e4
