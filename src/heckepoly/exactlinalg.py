"""Exact dense linear algebra over the rationals, computed in integers.

A matrix stores each column as integer numerators over that column's least
positive denominator, as the one base of ``BoundedPolynomial`` and ``QSeries``
stores a vector, so the polynomial and q-series columns the pipeline solves
for enter the kernels without a ``Fraction`` round trip.
One fraction-free Bareiss elimination kernel on the numerators serves
determinants, rank, ``solve_right`` and, through ``solve_right(M, I)``,
inverses; ``solve_right`` eliminates only as many rows as it has unknowns
and checks the surplus rows of a tall system by one exact product.
Characteristic polynomials use the division-free Berkowitz recursion, on
the image of a singular matrix (exact: det(xI - M) = x^(n-r) det(xI - R))
and on the similar diag(dens)^-1 num, whose scale divides that of
M = num diag(dens)^-1.  Results are exact rationals.
"""

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import (
    InconsistentSystemError,
    SingularMatrixError,
    UnderdeterminedSystemError,
)
from .exactnum import bernoulli_number, require_positive
from .polyring import _as_fraction, clear_denominators


class ExactMatrix:
    """Dense rational matrix: entry (i, j) is num[i][j] / dens[j].

    ``num`` holds the rows as ints and ``dens`` one positive denominator per
    column, the least one for that column: ``gcd(dens[j], *column j) == 1``,
    so a zero column has denominator 1 and equal matrices have equal fields.
    """

    __slots__ = ("rows", "cols", "num", "dens")

    def __init__(self, entries, cols=None):
        entries = [[_as_fraction(x) for x in row] for row in entries]
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("a row has %d entries, not cols = %d" % (len(row), cols))
        columns = [clear_denominators([row[j] for row in entries]) for j in range(cols)]
        self.num = [[col[i] for col, _ in columns] for i in range(rows)]
        self.dens = [den for _, den in columns]
        self.rows, self.cols = rows, cols

    @classmethod
    def _over(cls, num, dens):
        """Matrix num[i][j] / dens[j] (int rows, nonzero dens), each column reduced to lowest terms."""
        columns = list(zip(*num)) if num else [()] * len(dens)
        # gcd is nonnegative: dividing by it with the sign of den makes every den positive
        scales = [gcd(d, *col) * (1 if d > 0 else -1) for d, col in zip(dens, columns)]
        if any(g != 1 for g in scales):
            num = [[x // g for x, g in zip(row, scales)] for row in num]
            dens = [d // g for d, g in zip(dens, scales)]
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat.num, mat.dens = len(num), len(dens), num, dens
        return mat

    @classmethod
    def from_columns(cls, columns, dens):
        """Matrix whose column j is the ints columns[j] over dens[j]; columns share one length."""
        return cls._over([list(row) for row in zip(*columns)], list(dens))

    @classmethod
    def identity(cls, n):
        return cls._over([[int(i == j) for j in range(n)] for i in range(n)], [1] * n)

    @property
    def entries(self):
        """Rows of Fractions in lowest terms (a fresh copy)."""
        return [[Fraction(x, d) for x, d in zip(row, self.dens)] for row in self.num]

    def __getitem__(self, key):
        i, j = key
        return Fraction(self.num[i][j], self.dens[j])

    def is_square(self):
        return self.rows == self.cols

    def _common(self):
        """Rows of ints over one common denominator L, the lcm of the column denominators; returns (rows, L)."""
        den = lcm(*self.dens)
        scales = [den // d for d in self.dens]
        return [list(map(mul, row, scales)) for row in self.num], den

    def transpose(self):
        # a row of self is not over one denominator, so put the whole matrix over L first
        rows, den = self._common()
        return ExactMatrix._over([[row[j] for row in rows] for j in range(self.cols)], [den] * self.rows)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((Fraction(self.num[i][i], self.dens[i]) for i in range(self.rows)), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        dens = [lcm(a, b) for a, b in zip(self.dens, other.dens)]
        u = [d // a for d, a in zip(dens, self.dens)]
        v = [d // b for d, b in zip(dens, other.dens)]
        return ExactMatrix._over(
            [[p * x + q * y for p, x, q, y in zip(u, r1, v, r2)] for r1, r2 in zip(self.num, other.num)], dens
        )

    def __neg__(self):
        return ExactMatrix._over([[-x for x in row] for row in self.num], self.dens)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch: %dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
            # (A B)[i, k] = sum_j (L A)[i, j] num_B[j, k] / (L dens_B[k]), L A integral
            rows, den = self._common()
            tcols = list(zip(*other.num)) or [()] * other.cols
            return ExactMatrix._over(
                [[sum(map(mul, row, col)) for col in tcols] for row in rows], [den * d for d in other.dens]
            )
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return ExactMatrix._over(
                [[c.numerator * x for x in row] for row in self.num], [c.denominator * d for d in self.dens]
            )
        return NotImplemented

    __rmul__ = __mul__  # reached only for a scalar on the left

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # the canonical form makes (num, dens) unique
        return (self.rows, self.cols, self.dens, self.num) == (other.rows, other.cols, other.dens, other.num)

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
    """Exact determinant by Bareiss fraction-free elimination: det(num) / prod(dens)."""
    if not mat.is_square():
        raise ValueError("determinant needs a square matrix")
    n = mat.rows
    if n == 0:
        return Fraction(1)
    work = [row[:] for row in mat.num]
    pivots, sign = _bareiss(work, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1], prod(mat.dens))


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
    """Exact rank by fraction-free elimination of the numerators (column scaling keeps the rank)."""
    pivots, _ = _bareiss([row[:] for row in mat.num], mat.cols)
    return len(pivots)


def solve_right(a, b):
    """Solve A X = B exactly for the unique X; A may have more rows than columns.

    With A = num_A diag(1/dens_A) and B = num_B diag(1/dens_B), X is
    diag(dens_A) Y diag(1/dens_B) for the solution Y of the integer system
    num_A Y = num_B.  Only the first d rows of [num_A | num_B] that are not
    all zero are eliminated fraction-free; with D the last pivot (the
    determinant of the A-part of those rows), D Y is integral by Cramer's
    rule, so back substitution divides exactly, and column j of X is
    dens_A * (D Y)[:, j] over D dens_B[j].  Every later row is then checked
    by one integer product, A_row (D Y) == D B_row.  Only when the first d
    rows are dependent are all rows eliminated, so a rank deficit is that of
    the whole of A.

    Raises UnderdeterminedSystemError (carrying the rank of A) when the
    solution is not unique and InconsistentSystemError when there is none.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    d = a.cols
    rows = [row for row in (ra + rb for ra, rb in zip(a.num, b.num)) if any(row)]
    work, rest = [row[:] for row in rows[:d]], rows[d:]
    pivots, _ = _bareiss(work, d)
    if len(pivots) < d:
        work, rest = [row[:] for row in rows], rows
        pivots, _ = _bareiss(work, d)
        if len(pivots) < d:
            raise UnderdeterminedSystemError("system rank %d < %d unknowns" % (len(pivots), d), rank=len(pivots))
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
    cols = list(zip(*x)) if d else [()] * b.cols
    if any([sum(map(mul, row, col)) for col in cols] != [det * y for y in row[d:]] for row in rest):
        raise InconsistentSystemError("system has no exact solution")
    return ExactMatrix._over(
        [[scale * v for v in row] for scale, row in zip(a.dens, x)], [det * den for den in b.dens]
    )


def charpoly(mat):
    """Characteristic polynomial det(xI - M), monic, coefficients ascending.

    Two exact steps come first.  A singular M is cut to its image: with V r
    columns of M spanning im M and M V = V R, det(xI - M) = x^(n-r)
    det(xI - R), as im M is M-invariant and M is 0 on the quotient.  V is M's
    pivot columns mod 65521, independent over Q, so n of them prove M
    invertible; K = solve_right(V, M) exists only if V spans im M, and then
    R = K V with no exact rank.  If 65521 lost rank, the exact pivots cut, so
    the prime never decides the answer; at r = 0, R is 0 x 0, with charpoly 1.
    This pays at level 4, where an even-m T_m has rank about d/2.  Then
    Berkowitz's division-free recursion (Berkowitz 1984) runs on L M',
    M' = D^-1 num the similar row form of M = num D^-1 (D = diag(dens)), L its
    scale, and c_k(M') = c_k(L M') / L^(n-k).  L divides M's lcm(dens): it is
    far smaller at levels 2 and 3, has about half the bits at level 4 and
    usually equals it at level 5.  Each Toeplitz entry R A^k C of block r,
    [[a, R], [C, A]] with A of size s and k < s, is (R A^(k//2))
    (A^((k+1)//2) C), the baby-step split of Kaltofen (ISSAC 1992): a chained
    vector gains about one entry's bits per product, so two chains of about
    s/2 products reach about half the bits of one chain A^k C.
    """
    if not mat.is_square():
        raise ValueError("charpoly needs a square matrix")
    zeros, exact = [], False
    while mat.rows:
        pivots = _bareiss([row[:] for row in mat.num], mat.rows)[0] if exact else _pivots_mod_p(mat.num)
        if len(pivots) == mat.rows:
            break
        image = ExactMatrix._over([[row[j] for j in pivots] for row in mat.num], [mat.dens[j] for j in pivots])
        try:
            cut = solve_right(image, mat)
        except InconsistentSystemError:  # 65521 divides a minor: cut at the exact pivots, which span im M
            exact = True
            continue
        zeros += [Fraction(0)] * (mat.rows - len(pivots))
        mat, exact = cut * image, False
    n = mat.rows
    m, scale = _scaled_rows(mat)
    # descending coefficients of the charpoly of the trailing block m[r:, r:]
    vec = [1]
    for r in range(n - 1, -1, -1):
        s = n - r - 1
        sub = [row[r + 1 :] for row in m[r + 1 :]]
        # cols[j] = A^j C for j <= s/2, rows[j] = R A^j for j <= (s-1)/2
        cols = [[row[r] for row in m[r + 1 :]]]
        for _ in range(s // 2):
            cols.append([sum(map(mul, row, cols[-1])) for row in sub])
        rows = [m[r][r + 1 :]]
        sub_t = list(zip(*sub)) if s > 2 else ()  # A's columns, for a row chain, which only s > 2 has
        for _ in range((s - 1) // 2):
            rows.append([sum(map(mul, col, rows[-1])) for col in sub_t])
        # first column of the Toeplitz factor: 1, -a, -R C, -R A C, ..., -R A^(s-1) C
        toeplitz = [1, -m[r][r]] + [-sum(map(mul, rows[k // 2], cols[(k + 1) // 2])) for k in range(s)]
        vec = [sum(toeplitz[i - j] * vec[j] for j in range(min(i + 1, len(vec)))) for i in range(n - r + 1)]
    return zeros + [Fraction(vec[n - k], scale ** (n - k)) for k in range(n + 1)]


def _pivots_mod_p(num):
    """Pivot columns of an echelon form of num mod p = 65521 (a row left becomes p0 row - f top): independent over Q."""
    rows, pivots = [[x % 65521 for x in row] for row in num], []
    for col in range(len(num[0]) if num else 0):
        if top := next((row for row in rows if row[col]), None):
            rows.remove(top)
            p0, tail = top[col], top[col:]
            for row in rows:
                if f := row[col]:
                    row[col:] = [(p0 * x - f * y) % 65521 for x, y in zip(row[col:], tail)]
            pivots.append(col)
    return pivots


def _scaled_rows(mat):
    """(L D^-1 num, L): the similar matrix D^-1 num = D^-1 M D (D = diag(dens)) as integer rows over its scale L."""
    if all(d == 1 for d in mat.dens):
        return mat.num, 1
    # row i is num row i over dens[i], in lowest terms over dens[i] / gcd(dens[i], row i): L divides M's lcm(dens)
    scale = lcm(*(d // gcd(d, *row) for d, row in zip(mat.dens, mat.num)))
    return [[x * scale // d for x in row] for d, row in zip(mat.dens, mat.num)], scale


_HANKEL_CLOSED = {
    1: lambda n: Fraction(1, 4 ** (n * n) * prod((2 * i + 1) ** (2 * n - i) for i in range(2 * n))),
    2: lambda n: Fraction((-1) ** n, 4 ** (n * n + n) * prod((2 * i + 3) ** (2 * n - i) for i in range(2 * n))),
    3: lambda n: Fraction(
        (n + 1) * (2 * n + 3), 4 ** (n * n + 2 * n) * prod((2 * i + 1) ** (2 * n + 2 - i) for i in range(2 * n + 2))
    ),
}


def hankel_bernoulli(which, n):
    """Hankel determinant of Bernoulli numbers and its closed-form product.

    The n x n matrix has entries B_{2i+2j+2k0} / (2i+2j+2k0)! for
    0 <= i, j <= n-1 with offset k0 = which in {1, 2, 3}.  Returns the pair
    (determinant, closed form); the two agree identically.
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    require_positive("n", n)
    entries = [
        [bernoulli_number(2 * i + 2 * j + 2 * which) / factorial(2 * i + 2 * j + 2 * which) for j in range(n)]
        for i in range(n)
    ]
    det = determinant(ExactMatrix(entries))
    return det, _HANKEL_CLOSED[which](n)
