import hashlib
import random
from fractions import Fraction
from math import factorial, gcd
from operator import mul

import pytest

from heckepoly import exactlinalg
from heckepoly.errors import (
    BasisDeficientError,
    InconsistentSystemError,
    SingularMatrixError,
    UnderdeterminedSystemError,
)
from heckepoly.exactlinalg import (
    ExactMatrix,
    charpoly,
    determinant,
    hankel_bernoulli,
    mat_inverse,
    rank,
    solve_right,
)
from heckepoly.exactnum import bernoulli_number
from heckepoly.heckeop import hecke_charpoly, hecke_matrix


def test_matrix_basics():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.trace() == 5
    assert m.transpose() == ExactMatrix([[1, 3], [2, 4]])
    assert (m * ExactMatrix.identity(2)) == m
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_cols_must_match_the_rows():
    # a width given beside the rows is checked against them, both ways, and named with the row's length
    for entries, cols in (([[1, 2]], 3), ([[1, 2], [3, 4]], 1), ([[1, 2]], 0)):
        with pytest.raises(ValueError, match="has 2 entries, not cols = %d" % cols):
            ExactMatrix(entries, cols=cols)
    assert ExactMatrix([[1, 2]], cols=2) == ExactMatrix([[1, 2]])
    # with no rows, the width comes from cols alone
    assert (ExactMatrix([], cols=3).rows, ExactMatrix([], cols=3).cols) == (0, 3)
    assert (ExactMatrix([]).rows, ExactMatrix([]).cols) == (0, 0)


def test_inverse_examples():
    ident = ExactMatrix.identity(4)
    assert mat_inverse(ident) == ident
    m = ExactMatrix([[1, 2], [3, 4]])
    assert mat_inverse(m) == ExactMatrix([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])


def test_inverse_singular_rank():
    with pytest.raises(SingularMatrixError) as info:
        mat_inverse(ExactMatrix([[0, 0], [0, 0]]))
    assert info.value.rank == 0
    with pytest.raises(SingularMatrixError) as info:
        mat_inverse(ExactMatrix([[1, 2], [2, 4]]))
    assert info.value.rank == 1


def test_inverse_random_roundtrip():
    rng = random.Random(17)
    for size in range(1, 9):
        for _ in range(6):
            m = ExactMatrix([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
            try:
                inv = mat_inverse(m)
            except SingularMatrixError:
                assert determinant(m) == 0
                continue
            assert m * inv == ExactMatrix.identity(size)
            assert inv * m == ExactMatrix.identity(size)


def test_determinant_values():
    assert determinant(ExactMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(ExactMatrix.identity(5)) == 1
    assert determinant(ExactMatrix([[Fraction(1, 2), 0], [7, Fraction(2, 3)]])) == Fraction(1, 3)
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = ExactMatrix([[Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)])
        # cofactor expansion as the independent oracle
        assert determinant(m) == _cofactor_det(m.entries)


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def test_charpoly_examples():
    assert charpoly(ExactMatrix.identity(2)) == [Fraction(1), Fraction(-2), Fraction(1)]
    assert charpoly(ExactMatrix([[-208, 36], [-1120, 184]])) == [Fraction(2048), Fraction(24), Fraction(1)]
    companion = ExactMatrix([[0, 0, 5], [1, 0, 0], [0, 1, 0]])
    assert charpoly(companion) == [Fraction(-5), Fraction(0), Fraction(0), Fraction(1)]


def test_charpoly_trace_det_relations():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 6)
        m = ExactMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        cp = charpoly(m)
        assert len(cp) == n + 1
        assert cp[n] == 1
        assert cp[n - 1] == -m.trace()
        assert cp[0] == (-1) ** n * determinant(m)


def test_rank():
    assert rank(ExactMatrix([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix([[0, 0, 0], [0, 0, 0]])) == 0


def test_solve_right():
    a = ExactMatrix([[1, 0], [0, 1], [1, 1]])
    b = ExactMatrix([[2], [3], [5]])
    assert solve_right(a, b) == ExactMatrix([[2], [3]])
    with pytest.raises(InconsistentSystemError):
        solve_right(a, ExactMatrix([[2], [3], [6]]))
    with pytest.raises(UnderdeterminedSystemError):
        solve_right(ExactMatrix([[1, 1], [2, 2]]), ExactMatrix([[1], [2]]))


def test_hankel_one_by_one():
    det, closed = hankel_bernoulli(1, 1)
    assert det == closed == Fraction(1, 12)  # B_2/2! = 4^-1 * 3^-1
    det, closed = hankel_bernoulli(2, 1)
    assert det == closed == Fraction(-1, 720)  # B_4/4!
    det, closed = hankel_bernoulli(3, 1)
    assert det == closed == Fraction(1, 30240)  # B_6/6!


def test_hankel_matches_direct_determinant():
    for which in (1, 2, 3):
        for n in range(1, 6):
            det, closed = hankel_bernoulli(which, n)
            entries = [
                [
                    bernoulli_number(2 * i + 2 * j + 2 * which) / factorial(2 * i + 2 * j + 2 * which)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert det == _cofactor_det(entries)
            assert det == closed


def _odd_product(lo, hi, base, expo):
    value = Fraction(1)
    for i in range(lo, hi + 1):
        value /= Fraction(base(i)) ** expo(i)
    return value


_HANKEL_BY_FACTORS = {
    1: lambda n: Fraction(1, 4 ** (n * n)) * _odd_product(1, 2 * n - 1, lambda i: 2 * i + 1, lambda i: 2 * n - i),
    2: lambda n: Fraction((-1) ** n, 4 ** (n * n + n) * 9**n)
    * _odd_product(1, 2 * n - 1, lambda i: 2 * i + 3, lambda i: 2 * n - i),
    3: lambda n: Fraction((n + 1) * (2 * n + 3), 4 ** (n * n + 2 * n))
    * _odd_product(1, 2 * n + 1, lambda i: 2 * i + 1, lambda i: 2 * n + 2 - i),
}


def test_hankel_closed_forms_match_their_factor_products():
    # up to the CLI cap n = 50, where the determinants themselves take seconds each
    for which, closed in exactlinalg._HANKEL_CLOSED.items():
        for n in range(1, 51):
            assert closed(n) == _HANKEL_BY_FACTORS[which](n), (which, n)


def test_hankel_input_guards():
    with pytest.raises(ValueError):
        hankel_bernoulli(4, 1)
    with pytest.raises(ValueError):
        hankel_bernoulli(1, 0)


# Independent oracles: textbook Gauss-Jordan and Faddeev-LeVerrier over
# Fraction, the methods the integer kernels replaced.


def _gauss_jordan(a_rows, b_rows):
    """Reduced row echelon form of [A|B]; returns (rows, pivot columns of A)."""
    d = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a_rows, b_rows)]
    pivots = []
    for col in range(d):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
    return aug, pivots


def _faddeev_leverrier(rows):
    n = len(rows)
    mat = ExactMatrix(rows, cols=n)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m_k = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        m_k = mat * m_k
        c = -m_k.trace() / k
        coeffs[n - k] = c
        m_k = m_k + ExactMatrix.identity(n) * c
    return coeffs


def _random_rational(rng, bound=9, den=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def _random_rows(rng, rows, cols):
    return [[_random_rational(rng) for _ in range(cols)] for _ in range(rows)]


def _combinations(rng, basis, count):
    """count random integer combinations of the rows in basis: rank <= len(basis)."""
    rows = []
    for _ in range(count):
        weights = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(c * v[j] for c, v in zip(weights, basis)) for j in range(len(basis[0]))])
    return rows


def test_solve_right_matches_gauss_jordan_square_and_tall():
    rng = random.Random(101)
    checked = 0
    for _ in range(80):
        d = rng.randint(1, 6)
        # up to 3d + 2 rows: level-2 coefficient systems have about 2d
        n = d + rng.choice([0, 0, 1, 3, d, 2 * d + 2])
        t = rng.randint(1, 4)
        a_rows = _random_rows(rng, n, d)
        if n > d:
            # consistent tall system: B = A X0
            x0 = ExactMatrix(_random_rows(rng, d, t))
            b_rows = (ExactMatrix(a_rows) * x0).entries
        else:
            b_rows = _random_rows(rng, n, t)
        aug, pivots = _gauss_jordan(a_rows, b_rows)
        if len(pivots) < d:
            continue
        expected = ExactMatrix([row[d:] for row in aug[:d]], cols=t)
        assert solve_right(ExactMatrix(a_rows), ExactMatrix(b_rows)) == expected
        checked += 1
    assert checked >= 60


def test_solve_right_zero_leading_pivot():
    a = ExactMatrix([[0, 2, 1], [Fraction(1, 3), 0, 5], [4, Fraction(-1, 2), 0]])
    b = ExactMatrix([[1, 0], [Fraction(2, 7), 3], [0, -1]])
    aug, pivots = _gauss_jordan(a.entries, b.entries)
    assert pivots == [0, 1, 2]
    x = solve_right(a, b)
    assert x == ExactMatrix([row[3:] for row in aug])
    assert a * x == b
    # a zero first column below a nonzero pivot, in a tall system
    a = ExactMatrix([[0, 1], [0, 0], [3, 0], [0, 2]])
    b = ExactMatrix([[5], [0], [Fraction(9, 2)], [10]])
    assert solve_right(a, b) == ExactMatrix([[Fraction(3, 2)], [5]])


def test_solve_right_error_kinds_match_oracle():
    rng = random.Random(202)
    seen = {"under": 0, "inconsistent": 0}
    for _ in range(60):
        d = rng.randint(2, 5)
        n = d + rng.randint(0, 3)
        basis = _random_rows(rng, rng.randint(1, d - 1), d)
        # rows drawn from a lower-dimensional span: rank(A) < d
        a_rows = _combinations(rng, basis, n)
        # a random B is mostly inconsistent too: non-uniqueness is what is reported
        b_rows = _random_rows(rng, n, 2)
        _, pivots = _gauss_jordan(a_rows, b_rows)
        with pytest.raises(UnderdeterminedSystemError) as info:
            solve_right(ExactMatrix(a_rows), ExactMatrix(b_rows))
        assert info.value.rank == len(pivots)
        seen["under"] += 1
        # full column rank, tall, with a right-hand side off the column span
        a_rows = _random_rows(rng, d + 1, d)
        if len(_gauss_jordan(a_rows, [[0]] * (d + 1))[1]) < d:
            continue
        b_rows = _random_rows(rng, d + 1, 1)
        aug, _ = _gauss_jordan(a_rows, b_rows)
        if aug[d][d] == 0:
            continue
        with pytest.raises(InconsistentSystemError):
            solve_right(ExactMatrix(a_rows), ExactMatrix(b_rows))
        seen["inconsistent"] += 1
    assert seen["under"] == 60 and seen["inconsistent"] >= 40


def _counting_bareiss(monkeypatch):
    """Record the row count of every _bareiss call solve_right makes."""
    real, calls = exactlinalg._bareiss, []

    def counting(work, pivot_cols):
        calls.append(len(work))
        return real(work, pivot_cols)

    monkeypatch.setattr(exactlinalg, "_bareiss", counting)
    return calls


def test_solve_right_dependent_first_rows_fall_back(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    rng = random.Random(606)
    checked = 0
    for _ in range(30):
        d = rng.randint(2, 5)
        # the first d rows span less than d dimensions, the later ones complete the rank
        head = _combinations(rng, _random_rows(rng, rng.randint(1, d - 1), d), d)
        if not all(any(row) for row in head):
            continue
        a_rows = head + [[0] * d] + _random_rows(rng, d + 1, d)
        x0 = ExactMatrix(_random_rows(rng, d, 2))
        b_rows = (ExactMatrix(a_rows) * x0).entries
        aug, pivots = _gauss_jordan(a_rows, b_rows)
        assert len(pivots) == d
        calls.clear()
        assert solve_right(ExactMatrix(a_rows), ExactMatrix(b_rows)) == ExactMatrix([row[d:] for row in aug[:d]])
        # the zero row is dropped; the fallback eliminates every other row
        assert calls == [d, 2 * d + 1]
        checked += 1
    assert checked >= 15


def test_solve_right_rank_is_that_of_all_rows():
    # the first three rows have rank 1, all five rank 2
    a = ExactMatrix([[1, 1, 0], [2, 2, 0], [3, 3, 0], [0, 0, 0], [0, 0, 5]])
    with pytest.raises(UnderdeterminedSystemError) as info:
        solve_right(a, ExactMatrix([[1], [2], [3], [0], [5]]))
    assert info.value.rank == 2


def test_solve_right_checks_rows_after_the_first_d(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    rng = random.Random(707)
    checked = 0
    for _ in range(30):
        d = rng.randint(1, 5)
        a_rows = _random_rows(rng, 3 * d + 2, d)
        if len(_gauss_jordan(a_rows[:d], [[]] * d)[1]) < d:
            continue
        b = ExactMatrix(a_rows) * ExactMatrix(_random_rows(rng, d, 3))
        calls.clear()
        assert ExactMatrix(a_rows) * solve_right(ExactMatrix(a_rows), b) == b
        assert calls == [d]
        # one entry of one later row off by a little: only the product check sees it
        b_rows = b.entries
        b_rows[rng.randint(d, 3 * d + 1)][rng.randint(0, 2)] += Fraction(1, 7)
        with pytest.raises(InconsistentSystemError):
            solve_right(ExactMatrix(a_rows), ExactMatrix(b_rows))
        checked += 1
    assert checked >= 25
    # no unknowns: any nonzero right side is inconsistent, a zero one is solved by the empty matrix
    with pytest.raises(InconsistentSystemError):
        solve_right(ExactMatrix([[], []]), ExactMatrix([[0], [1]]))
    assert solve_right(ExactMatrix([[], []]), ExactMatrix([[0], [0]])) == ExactMatrix([], cols=1)


def test_rank_matches_gauss_jordan():
    rng = random.Random(303)
    deficient = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        basis = _random_rows(rng, rng.randint(1, min(rows, cols)), cols)
        entries = _combinations(rng, basis, rows)
        expected = len(_gauss_jordan(entries, [[]] * rows)[1])
        assert rank(ExactMatrix(entries)) == expected
        deficient += expected < min(rows, cols)
    assert deficient >= 10


def test_inverse_is_solve_against_identity():
    rng = random.Random(404)
    for n in range(1, 7):
        rows = _random_rows(rng, n, n)
        aug, pivots = _gauss_jordan(rows, ExactMatrix.identity(n).entries)
        if len(pivots) == n:
            assert mat_inverse(ExactMatrix(rows)) == ExactMatrix([row[n:] for row in aug])
    assert mat_inverse(ExactMatrix([], cols=0)) == ExactMatrix([], cols=0)


def test_charpoly_matches_faddeev_leverrier():
    assert charpoly(ExactMatrix([], cols=0)) == [Fraction(1)]
    assert charpoly(ExactMatrix([[Fraction(-3, 4)]])) == [Fraction(3, 4), Fraction(1)]
    zero_corner = [[0, Fraction(1, 2), 3], [Fraction(-2, 3), 1, 0], [5, Fraction(1, 7), 0]]
    assert charpoly(ExactMatrix(zero_corner)) == _faddeev_leverrier(zero_corner)
    rng = random.Random(505)
    for _ in range(30):
        n = rng.randint(1, 7)
        rows = _random_rows(rng, n, n)
        if rng.random() < 0.3:
            rows[0][0] = Fraction(0)
        cp = charpoly(ExactMatrix(rows))
        assert cp == _faddeev_leverrier(rows)
        assert all(isinstance(c, Fraction) for c in cp)


# The one-sided Berkowitz recursion, one column chain A^k C per block, is the
# reference for charpoly's split chains (R A^(k//2)) (A^((k+1)//2) C).


def _berkowitz_one_sided(mat):
    n = mat.rows
    m, scale = mat._common()
    vec = [1]
    for r in range(n - 1, -1, -1):
        top = m[r][r + 1 :]
        sub = [row[r + 1 :] for row in m[r + 1 :]]
        v = [row[r] for row in m[r + 1 :]]
        toeplitz = [1, -m[r][r]]
        for k in range(n - r - 1):
            toeplitz.append(-sum(map(mul, top, v)))
            if k < n - r - 2:
                v = [sum(map(mul, row, v)) for row in sub]
        vec = [sum(toeplitz[i - j] * vec[j] for j in range(min(i + 1, len(vec)))) for i in range(n - r + 1)]
    return [Fraction(vec[n - k], scale ** (n - k)) for k in range(n + 1)]


def _poly_from_roots(roots):
    """Ascending coefficients of prod (x - root)."""
    coeffs = [Fraction(1)]
    for root in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return coeffs


def test_charpoly_matches_one_sided_berkowitz_on_random_families():
    rng = random.Random(808)
    for n in range(13):
        for _ in range(3):
            general = ExactMatrix(_random_rows(rng, n, n), cols=n)
            assert n < 2 or general != general.transpose()
            assert charpoly(general) == _berkowitz_one_sided(general), n
            # nilpotent, diagonal and rank-1 forms, each also conjugated by a random invertible P
            upper = ExactMatrix([[_random_rational(rng) if j > i else 0 for j in range(n)] for i in range(n)], cols=n)
            roots = [_random_rational(rng) for _ in range(n)]
            diagonal = ExactMatrix([[x * (i == j) for j, x in enumerate(roots)] for i in range(n)], cols=n)
            u, v = _random_rows(rng, 2, n)
            rank_one = [Fraction(0)] * n + [Fraction(1)]
            if n:
                rank_one[n - 1] = -sum(map(mul, u, v))  # x^n - tr(u v^T) x^(n-1)
            cases = [
                (upper, [Fraction(0)] * n + [Fraction(1)]),
                (diagonal, _poly_from_roots(roots)),
                (ExactMatrix([[x * y for y in v] for x in u], cols=n), rank_one),
            ]
            p = ExactMatrix(_random_rows(rng, n, n), cols=n)
            while not determinant(p):
                p = ExactMatrix(_random_rows(rng, n, n), cols=n)
            p_inv = mat_inverse(p)
            for mat, expected in cases:
                for form in (mat, p * mat * p_inv):
                    assert charpoly(form) == _berkowitz_one_sided(form) == expected, n


# charpoly cuts a singular matrix to its image and runs Berkowitz on the
# similar diag(dens)^-1 num; both references see M as it is.


def test_charpoly_of_singular_matrices_cuts_to_the_image():
    rng = random.Random(909)
    for n in range(1, 8):
        zero = ExactMatrix([[0] * n for _ in range(n)])
        assert charpoly(zero) == [Fraction(0)] * n + [Fraction(1)]
        # nilpotent Jordan blocks of sizes summing to n: x^n, rank n - (number of blocks)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        starts = {sum(sizes[:i]) for i in range(len(sizes))}
        jordan = [[int(j == i + 1 and j not in starts) for j in range(n)] for i in range(n)]
        assert rank(ExactMatrix(jordan)) == n - len(sizes)
        for rows in (jordan, _random_rows(rng, n, n)):
            for r in range(n + 1):
                # P diag(A, 0) P^-1 with A the leading r x r block of rows: rank <= r, charpoly x^(n-r) charpoly(A)
                block = [[rows[i][j] if i < r and j < r else 0 for j in range(n)] for i in range(n)]
                p = ExactMatrix(_random_rows(rng, n, n))
                while not determinant(p):
                    p = ExactMatrix(_random_rows(rng, n, n))
                mat = p * ExactMatrix(block) * mat_inverse(p)
                expected = [Fraction(0)] * (n - r) + _faddeev_leverrier([row[:r] for row in rows[:r]])
                assert charpoly(mat) == _berkowitz_one_sided(mat) == expected, (n, r)
                assert charpoly(mat) == _faddeev_leverrier(mat.entries)


def test_charpoly_probe_falls_back_to_the_exact_rank():
    # nonsingular, but every determinant is a multiple of the probe prime 65521: fewer pivots mod 65521 than the rank
    cases = [
        ([[65521]], [-65521, 1]),
        ([[65521, 0, 0], [0, 2, 0], [0, 0, 3]], [-393126, 327611, -65526, 1]),
        ([[Fraction(65521, 2), 1], [0, Fraction(1, 3)]], [Fraction(65521, 6), Fraction(-196565, 6), 1]),
    ]
    for rows, expected in cases:
        mat = ExactMatrix(rows)
        assert len(exactlinalg._pivots_mod_p(mat.num)) < rank(mat) == mat.rows
        assert charpoly(mat) == _berkowitz_one_sided(mat) == _faddeev_leverrier(rows) == expected
    # all n pivots prove an invertible matrix whose determinant is not a multiple of the prime
    assert exactlinalg._pivots_mod_p([[65522]]) == [0]
    assert exactlinalg._pivots_mod_p([[2, 1], [1, 1]]) == [0, 1]
    assert exactlinalg._pivots_mod_p([[2, 4], [1, 2]]) == [0]
    assert exactlinalg._pivots_mod_p([[0, 3, 1], [0, 6, 2], [0, 0, 5]]) == [1, 2]


def test_charpoly_cuts_at_the_pivots_mod_p_without_an_exact_rank(monkeypatch):
    # the exact rank is Bareiss over all n columns; solve_right's Bareiss runs over the r < n unknowns only
    real_bareiss = exactlinalg._bareiss
    widths = []

    def recording(work, pivot_cols):
        widths.append(pivot_cols)
        return real_bareiss(work, pivot_cols)

    monkeypatch.setattr(exactlinalg, "_bareiss", recording)
    # rank 2 with independent pivots mod 65521: the cut at them holds, so no exact rank runs
    mat = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert exactlinalg._pivots_mod_p(mat.num) == [0, 1]
    assert charpoly(mat) == _faddeev_leverrier(mat.entries)
    assert widths and 3 not in widths
    # singular, and its rank mod 65521 is below its rank: the cut at the mod-p pivots is inconsistent, so the
    # exact rank runs and cuts at its pivots
    rows = [[65521, 0, 0], [0, 0, 0], [0, 0, 1]]
    mat = ExactMatrix(rows)
    assert exactlinalg._pivots_mod_p(mat.num) == [2] and rank(mat) == 2
    widths.clear()
    assert charpoly(mat) == [0, 65521, -65522, 1] == _faddeev_leverrier(rows)  # x (x - 65521) (x - 1)
    assert 3 in widths


def test_charpoly_berkowitz_runs_on_the_better_scaled_form():
    # row form D^-1 num: row i is num row i over dens[i]; it is integral here, the column form is over 6
    row_wins = ExactMatrix([[1, Fraction(3, 2), Fraction(5, 3)], [2, 2, 2], [3, Fraction(9, 2), 1]])
    assert row_wins.num == [[1, 3, 5], [2, 4, 6], [3, 9, 3]] and row_wins.dens == [1, 2, 3]
    assert exactlinalg._scaled_rows(row_wins) == ([[1, 3, 5], [1, 2, 3], [1, 3, 1]], 1)
    # both forms over 6 here: the row form [[1/2, 1/2], [2/3, 1/3]] is still the one used
    tie = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(1, 3)]])
    assert tie._common() == ([[3, 2], [6, 2]], 6)
    assert exactlinalg._scaled_rows(tie) == ([[3, 3], [4, 2]], 6)
    # an integral matrix stays as it is
    integral = ExactMatrix([[2, -1], [5, 7]])
    assert exactlinalg._scaled_rows(integral) == ([[2, -1], [5, 7]], 1)
    for mat in (row_wins, tie, integral):
        assert charpoly(mat) == _berkowitz_one_sided(mat) == _faddeev_leverrier(mat.entries)
    # entry (i, j) is often a multiple of dens[i] over dens[j], so the row form is often better scaled
    rng = random.Random(707)
    smaller = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 6)
        dens = [rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(n)]
        rows = [[Fraction(rng.randint(-5, 5) * rng.choice([1, d, d]), e) for e in dens] for d in dens]
        mat = ExactMatrix(rows)
        scaled, scale = exactlinalg._scaled_rows(mat)
        assert mat._common()[1] % scale == 0
        smaller[scale < mat._common()[1]] += 1
        # L M' is similar to L M: same charpoly, over the scale it reports
        assert charpoly(ExactMatrix(scaled)) == [c * scale ** (n - k) for k, c in enumerate(charpoly(mat))]
        assert charpoly(mat) == _berkowitz_one_sided(mat) == _faddeev_leverrier(rows)
    assert smaller[True] > 10 and smaller[False] > 10


def test_charpoly_matches_one_sided_berkowitz_on_pipeline_matrices():
    served = 0
    cases = [(level, w, m) for level in (2, 3, 4, 5) for w in (10, 24, 40) for m in (2, 3, 12, 25)]
    cases += [(4, w, m) for w in (10, 24, 40) for m in (4, 8)]  # singular at level 4: U_2 kills the newforms
    for level, w, m in cases:
        try:
            t = hecke_matrix(level, w, m)
        except BasisDeficientError:
            assert level == 5 and w % 4 == 2  # refused by design
            continue
        assert charpoly(t) == _berkowitz_one_sided(t), (level, w, m)
        if level == 4 and m % 2 == 0:
            assert rank(t) < t.rows, (level, w, m)
        served += 1
    assert served == 50


def test_charpoly_hashes_at_dimension_29_and_39():
    # SHA-256 of the coefficients printed as "c_0 c_1 ... c_d", recorded from the one-sided recursion
    recorded = {
        (2, 160, 2): (39, "82e9e1a99ec24f40f17a6973794d9e8ba2102360c7810de62c1e3cd8e9f8e731"),
        (5, 60, 2): (29, "79a1f77989efc8a2910d5407d7a7de85f137d9dd3e12c5edced473cde25d4377"),
    }
    for args, (d, digest) in recorded.items():
        cp = hecke_charpoly(*args)
        assert len(cp) == d + 1
        assert hashlib.sha256(" ".join(map(str, cp)).encode()).hexdigest() == digest, args


# The integer-column representation against a Fraction-list model: every
# operation must give the model's values and leave the canonical form.


def _assert_canonical(m):
    assert len(m.num) == m.rows and len(m.dens) == m.cols
    assert all(len(row) == m.cols and all(type(x) is int for x in row) for row in m.num)
    for j, den in enumerate(m.dens):
        assert type(den) is int and den > 0
        # lowest terms; a zero column has gcd(den) == den, so den == 1
        assert gcd(den, *(row[j] for row in m.num)) == 1


def _checked(m, model):
    _assert_canonical(m)
    assert m.entries == model
    return m


def _model_charpoly(rows):
    """Faddeev-LeVerrier on Fraction lists, independent of ExactMatrix."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m_k = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m_k = [[sum((rows[i][t] * m_k[t][j] for t in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
        c = -sum((m_k[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        for i in range(n):
            m_k[i][i] += c
    return coeffs


def _model_entry(rng):
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.5:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 9, 10, 35, 2**40 + 15]))


def _model_rows(rng, rows, cols):
    out = [[_model_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for j in range(cols):
        if rng.random() < 0.15:  # whole zero columns, and columns with one shared factor
            scale = rng.choice([0, Fraction(1, 6)])
            for row in out:
                row[j] = scale * row[j]
    return [[Fraction(x) for x in row] for row in out]


def test_representation_matches_fraction_model():
    rng = random.Random(606)
    squares = 0
    for case in range(150):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        if case % 3 == 0:
            c = r
        rows = _model_rows(rng, r, c)
        m = _checked(ExactMatrix(rows, cols=c), rows)
        assert (m.rows, m.cols) == (r, c)
        assert all(m[i, j] == rows[i][j] and type(m[i, j]) is Fraction for i in range(r) for j in range(c))
        assert m == ExactMatrix(rows, cols=c)
        # an r x c matrix has c rows once transposed, also when r or c is 0
        _checked(m.transpose(), [[row[j] for row in rows] for j in range(c)])
        assert m.transpose().transpose() == m
        other_rows = _model_rows(rng, r, c)
        other = ExactMatrix(other_rows, cols=c)
        _checked(m + other, [[x + y for x, y in zip(u, v)] for u, v in zip(rows, other_rows)])
        _checked(m - other, [[x - y for x, y in zip(u, v)] for u, v in zip(rows, other_rows)])
        _checked(-m, [[-x for x in row] for row in rows])
        assert (m == other) == (rows == other_rows)
        for scalar in (rng.randint(-5, 5), Fraction(rng.randint(-7, 7), rng.randint(1, 12)), 0):
            _checked(m * scalar, [[scalar * x for x in row] for row in rows])
            _checked(scalar * m, [[scalar * x for x in row] for row in rows])
        k = rng.randint(0, 4)
        right_rows = _model_rows(rng, c, k)
        product = m * ExactMatrix(right_rows, cols=k)
        expected = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*right_rows)] for row in rows]
        _checked(product, expected if c else [[Fraction(0)] * k for _ in rows])
        if r != c:
            continue
        squares += 1
        n = r
        assert m.trace() == sum((rows[i][i] for i in range(n)), Fraction(0))
        _checked(ExactMatrix.identity(n), [[Fraction(i == j) for j in range(n)] for i in range(n)])
        _checked(ExactMatrix([[0] * k for _ in range(n)], cols=k), [[Fraction(0)] * k for _ in range(n)])
        det = determinant(m)
        assert det == _cofactor_det(rows)
        assert rank(m) == len(_gauss_jordan(rows, [[]] * n)[1])
        assert charpoly(m) == _model_charpoly(rows)
        aug, _ = _gauss_jordan(rows, [[Fraction(i == j) for j in range(n)] for i in range(n)])
        if det:
            _checked(mat_inverse(m), [row[n:] for row in aug])
        else:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        b_rows = _model_rows(rng, n, rng.randint(1, 3))
        aug, _ = _gauss_jordan(rows, b_rows)
        if det:
            _checked(solve_right(m, ExactMatrix(b_rows)), [row[n:] for row in aug])
    assert squares >= 50


def test_from_columns_reduces_every_column():
    m = ExactMatrix.from_columns([[4, -6, 0], [0, 0, 0], [3, 5, 7], [-2, 4, 8]], [-8, 5, 1, 6])
    _checked(
        m,
        [
            [Fraction(-1, 2), 0, 3, Fraction(-1, 3)],
            [Fraction(3, 4), 0, 5, Fraction(2, 3)],
            [0, 0, 7, Fraction(4, 3)],
        ],
    )
    assert m.dens == [4, 1, 1, 3]


def test_solve_right_ignores_zero_rows():
    a = ExactMatrix([[0, 0], [1, 2], [0, 0], [Fraction(1, 3), 0], [0, 0]])
    b = ExactMatrix([[0], [5], [0], [Fraction(1, 3)], [0]])
    x = _checked(solve_right(a, b), [[Fraction(1)], [Fraction(2)]])
    assert a * x == b
    # zero rows leave too few equations: the rank is that of the nonzero rows
    with pytest.raises(UnderdeterminedSystemError) as info:
        solve_right(ExactMatrix([[0, 0], [1, 1], [0, 0]]), ExactMatrix([[0], [3], [0]]))
    assert info.value.rank == 1
    # a zero row of A against a nonzero entry of B is no equation to drop: 0 = 1
    with pytest.raises(InconsistentSystemError):
        solve_right(a, ExactMatrix([[0], [5], [1], [Fraction(1, 3)], [0]]))
    with pytest.raises(InconsistentSystemError):
        solve_right(ExactMatrix([[0], [2]]), ExactMatrix([[Fraction(-1, 7)], [4]]))


def test_solve_right_scales_by_both_denominators():
    # A's columns and B's columns carry different denominators; X = diag(dens_A) Y diag(1 / dens_B)
    a = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)]])
    b = ExactMatrix([[Fraction(1, 5), Fraction(2, 7)], [Fraction(-1, 5), Fraction(1, 7)], [0, Fraction(3, 7)]])
    x = _checked(solve_right(a, b), [[Fraction(2, 5), Fraction(4, 7)], [Fraction(-3, 5), Fraction(3, 7)]])
    assert a * x == b


def test_shape_guards_state_their_shapes():
    square, wide = ExactMatrix([[1, 2], [3, 4]]), ExactMatrix([[1, 2, 3]])
    for call, message in (
        (wide.trace, "trace needs a square matrix"),
        (lambda: square + wide, "shape mismatch"),
        (lambda: square * wide, "shape mismatch: 2x2 times 1x3"),
        (lambda: determinant(wide), "determinant needs a square matrix"),
        (lambda: mat_inverse(wide), "inverse needs a square matrix"),
        (lambda: solve_right(square, wide), "row mismatch"),
        (lambda: charpoly(wide), "charpoly needs a square matrix"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_foreign_operands_are_left_to_python():
    m = ExactMatrix([[1, 2], [3, 4]])
    for method in (m.__add__, m.__sub__, m.__mul__, m.__eq__):
        assert method(2.5) is NotImplemented
        assert method([[1, 2], [3, 4]]) is NotImplemented
    assert m != [[1, 2], [3, 4]]
    for call in (lambda: m + 1, lambda: m - 1, lambda: m * 2.5, lambda: 2.5 * m):
        with pytest.raises(TypeError):
            call()


def test_repr_lists_reduced_entries():
    m = ExactMatrix([[Fraction(1, 2), 0], [-3, Fraction(4, 6)]])
    assert repr(m) == "ExactMatrix([['1/2', '0'], ['-3', '2/3']])"
    assert repr(ExactMatrix([], cols=2)) == "ExactMatrix([])"
