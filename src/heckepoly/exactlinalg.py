"""Exact dense linear algebra over the rationals, computed in integers.

Each routine clears denominators (per row, or one common denominator for the
whole matrix) and works on Python ints.  One fraction-free Bareiss
elimination kernel serves determinants, rank, ``solve_right`` and, through
``solve_right(M, I)``, inverses; characteristic polynomials use the
division-free Berkowitz recursion.  Results are exact rationals.
"""

from fractions import Fraction
from math import factorial
from operator import mul

from .errors import (
    InconsistentSystemError,
    SingularMatrixError,
    UnderdeterminedSystemError,
)
from .exactnum import bernoulli_number
from .polyring import _as_fraction, clear_denominators


class ExactMatrix:
    """Dense matrix of Fractions (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [[_as_fraction(x) for x in row] for row in entries]
        rows = len(entries)
        if rows:
            cols = len(entries[0])
            if any(len(row) != cols for row in entries):
                raise ValueError("ragged rows")
        else:
            cols = cols or 0
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)], cols=self.rows)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_symmetric(self):
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)], cols=self.cols
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)], cols=self.cols
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch: %dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
            tcols = other.transpose().entries
            return ExactMatrix(
                [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in tcols] for row in self.entries],
                cols=other.cols,
            )
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return ExactMatrix([[c * x for x in row] for row in self.entries], cols=self.cols)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __repr__(self):
        return "ExactMatrix(%r)" % [[str(x) for x in row] for row in self.entries]


def _bareiss(work, pivot_cols):
    """Fraction-free forward elimination of integer rows, in place (Bareiss 1968).

    Pivots are the first nonzero entries at or below the current row in the
    first ``pivot_cols`` columns; a column without one is skipped.  Every
    division is exact: after the k-th pivot step each entry below the pivot
    rows is a (k+1)x(k+1) minor of the row-permuted input.  Returns the pivot
    columns in order (their count is the rank of that column block) and the
    sign of the row permutation.
    """
    n = len(work)
    pivots = []
    sign = 1
    prev = 1
    for col in range(pivot_cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n) if work[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r][col:]
        p = top[0]
        # entries left of col are zero in every row from r down
        for row in work[r + 1 :]:
            f = row[col]
            if f:
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], top)]
            elif p != prev:
                row[col:] = [p * x // prev for x in row[col:]]
        prev = p
        pivots.append(col)
    return pivots, sign


def determinant(mat):
    """Exact determinant by Bareiss fraction-free elimination."""
    if not mat.is_square():
        raise ValueError("determinant needs a square matrix")
    n = mat.rows
    if n == 0:
        return Fraction(1)
    # clear denominators row by row; det scales by the product of the row scales
    work = []
    scale = 1
    for row in mat.entries:
        ints, den = clear_denominators(row)
        scale *= den
        work.append(ints)
    pivots, sign = _bareiss(work, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1], scale)


def mat_inverse(mat):
    """Exact inverse, as the solution of M X = I.

    Raises SingularMatrixError carrying the rank when the matrix is singular.
    """
    if not mat.is_square():
        raise ValueError("inverse needs a square matrix")
    try:
        return solve_right(mat, ExactMatrix.identity(mat.rows))
    except UnderdeterminedSystemError as exc:
        raise SingularMatrixError(
            "matrix is singular (rank %d of %d)" % (exc.rank, mat.rows), rank=exc.rank
        ) from exc


def rank(mat):
    """Exact rank by fraction-free elimination."""
    pivots, _ = _bareiss([clear_denominators(row)[0] for row in mat.entries], mat.cols)
    return len(pivots)


def solve_right(a, b):
    """Solve A X = B exactly for the unique X; A may have more rows than columns.

    Each row of [A|B] is cleared to integers and eliminated fraction-free.
    With D the last pivot (the determinant of the d pivot rows of A), D X is
    integral by Cramer's rule, so back substitution divides exactly.

    Raises UnderdeterminedSystemError (carrying the rank of A) when the
    solution is not unique and InconsistentSystemError when there is none.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    d, t = a.cols, b.cols
    work = [clear_denominators(ra + rb)[0] for ra, rb in zip(a.entries, b.entries)]
    pivots, _ = _bareiss(work, d)
    if len(pivots) < d:
        raise UnderdeterminedSystemError("system rank %d < %d unknowns" % (len(pivots), d), rank=len(pivots))
    if any(any(row[d:]) for row in work[d:]):
        raise InconsistentSystemError("system has no exact solution")
    det = work[d - 1][d - 1] if d else 1
    x = [None] * d
    for k in range(d - 1, -1, -1):
        row = work[k]
        acc = [det * y for y in row[d:]]
        for j in range(k + 1, d):
            u = row[j]
            if u:
                acc = [s - u * v for s, v in zip(acc, x[j])]
        p = row[k]
        x[k] = [s // p for s in acc]
    return ExactMatrix([[Fraction(v, det) for v in row] for row in x], cols=t)


def charpoly(mat):
    """Characteristic polynomial det(xI - M), monic, coefficients ascending.

    Division-free Berkowitz recursion (Berkowitz 1984) on the integer matrix
    L M, L the common denominator of M; then c_k(M) = c_k(L M) / L^(n-k).
    """
    if not mat.is_square():
        raise ValueError("charpoly needs a square matrix")
    n = mat.rows
    flat, scale = clear_denominators([x for row in mat.entries for x in row])
    m = [flat[i * n : (i + 1) * n] for i in range(n)]
    # descending coefficients of the charpoly of the trailing block m[r:, r:]
    vec = [1]
    for r in range(n - 1, -1, -1):
        top = m[r][r + 1 :]
        sub = [row[r + 1 :] for row in m[r + 1 :]]
        v = [row[r] for row in m[r + 1 :]]
        # first column of the Toeplitz factor: 1, -a, -R C, -R A C, ..., -R A^(s-2) C
        toeplitz = [1, -m[r][r]]
        for k in range(n - r - 1):
            toeplitz.append(-sum(map(mul, top, v)))
            if k < n - r - 2:
                v = [sum(map(mul, row, v)) for row in sub]
        vec = [sum(toeplitz[i - j] * vec[j] for j in range(min(i + 1, len(vec)))) for i in range(n - r + 1)]
    return [Fraction(vec[n - k], scale ** (n - k)) for k in range(n + 1)]


def _odd_product(lo, hi, base, expo):
    value = Fraction(1)
    for i in range(lo, hi + 1):
        value /= Fraction(base(i)) ** expo(i)
    return value


_HANKEL_CLOSED = {
    1: lambda n: Fraction(1, 4 ** (n * n)) * _odd_product(1, 2 * n - 1, lambda i: 2 * i + 1, lambda i: 2 * n - i),
    2: lambda n: Fraction((-1) ** n, 4 ** (n * n + n) * 9**n)
    * _odd_product(1, 2 * n - 1, lambda i: 2 * i + 3, lambda i: 2 * n - i),
    3: lambda n: Fraction((n + 1) * (2 * n + 3), 4 ** (n * n + 2 * n))
    * _odd_product(1, 2 * n + 1, lambda i: 2 * i + 1, lambda i: 2 * n + 2 - i),
}


def hankel_bernoulli(which, n):
    """Hankel determinant of Bernoulli numbers and its closed-form product.

    The n x n matrix has entries B_{2i+2j+2k0} / (2i+2j+2k0)! for
    0 <= i, j <= n-1 with offset k0 = which in {1, 2, 3}.  Returns the pair
    (determinant, closed form); the two agree identically.
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    if n < 1:
        raise ValueError("n must be positive")
    entries = [
        [bernoulli_number(2 * i + 2 * j + 2 * which) / factorial(2 * i + 2 * j + 2 * which) for j in range(n)]
        for i in range(n)
    ]
    det = determinant(ExactMatrix(entries))
    return det, _HANKEL_CLOSED[which](n)
