"""Exact integer linear algebra: Smith normal form with transforms,
saturated kernels, integer linear solves, and primitive vectors.

All arithmetic is on arbitrary-precision Python ints; intermediate entries
in a Smith reduction can grow far beyond the input size, so fixed-width
types are never used.

The Smith normal form U*A*V = S is the one elimination engine: the rank is
the number of nonzero diagonal entries, a unimodular inverse is V*U,
integer solves and kernels come from solve_with_snf and the V-columns, and
since U and V stay invertible mod 2, mod-2 solves read off the same
transforms. Only det keeps its own (Bareiss) elimination: it is the
per-candidate test of the brute-force equivalence search, called far too
often to afford a Smith reduction with transforms each time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import DimensionMismatch, ZeroVector


class IntMatrix:
    """Dense integer matrix, row-major, immutable by convention."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                "%dx%d matrix needs %d entries, got %d"
                % (rows, cols, rows * cols, len(entries))
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(m, n, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, cols):
        cols = [list(c) for c in cols]
        return cls.from_rows(zip(*cols)) if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def __getitem__(self, ij):
        return self.at(*ij)

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        cols = [other.column(j) for j in range(other.cols)]
        out = [
            sum(map(operator.mul, self.row(i), col))
            for i in range(self.rows)
            for col in cols
        ]
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length %d != %d" % (len(vec), self.cols))
        return tuple(sum(map(operator.mul, self.row(i), vec)) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_rows(),)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a nonsquare matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                for i in range(t + 1, n):
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            prev = m[t][t]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self):
        """Exact inverse of a matrix with determinant +-1: the Smith form
        U*A*V is then the identity, so A^-1 = V*U."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a nonsquare matrix")
        if self.rows == 0:
            return self
        dec = smith_normal_form(self)
        if any(d != 1 for d in dec.diagonal()):
            raise DimensionMismatch("matrix is not unimodular")
        return dec.V * dec.U


@dataclass(frozen=True)
class SNFDecomposition:
    """U*A*V = S with U, V unimodular, S diagonal with nonnegative entries
    each dividing the next."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S.at(i, i) for i in range(n))

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)


def _find_pivot(s, t, m, n):
    """Smallest |nonzero| entry of s[t:, t:]; ties broken by (row, col)."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = s[i][j]
            if v != 0 and (best is None or abs(v) < abs(s[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SNFDecomposition:
    """Smith normal form over the integers, with the transforms.

    The pivot strategy (minimal absolute value, ties by position) makes the
    output reproducible across runs.
    """
    m, n = A.rows, A.cols
    if m == 0 or n == 0:
        raise DimensionMismatch("Smith normal form of an empty matrix")
    s = A.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def row_sub(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_sub(j, i, q):  # col_j -= q * col_i
        for r in s:
            r[j] -= q * r[i]
        for r in v:
            r[j] -= q * r[i]

    for t in range(min(m, n)):
        if _find_pivot(s, t, m, n) is None:
            break
        while True:
            i0, j0 = _find_pivot(s, t, m, n)
            if i0 != t:
                s[t], s[i0] = s[i0], s[t]
                u[t], u[i0] = u[i0], u[t]
            if j0 != t:
                for r in s:
                    r[t], r[j0] = r[j0], r[t]
                for r in v:
                    r[t], r[j0] = r[j0], r[t]
            if s[t][t] < 0:
                s[t] = [-a for a in s[t]]
                u[t] = [-a for a in u[t]]
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = s[i][t] // p
                if q:
                    row_sub(i, t, q)
                if s[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = s[t][j] // p
                if q:
                    col_sub(j, t, q)
                if s[t][j]:
                    dirty = True
            if dirty:
                continue
            # Row and column t are clear; force p to divide the rest so the
            # diagonal comes out as a divisibility chain.
            bad = None
            for i in range(t + 1, m):
                if any(s[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)
    return SNFDecomposition(
        IntMatrix.from_rows(u), IntMatrix.from_rows(s), IntMatrix.from_rows(v)
    )


def canonical_sign(vec):
    """Flip the sign so the first nonzero entry is positive."""
    for e in vec:
        if e != 0:
            return tuple(vec) if e > 0 else tuple(-x for x in vec)
    return tuple(vec)


def kernel_saturated(A: IntMatrix):
    """Z-basis of the integer kernel of A.

    The kernel of an integer matrix is a saturated sublattice, and the
    trailing columns of the Smith V-transform are a basis of it; each basis
    vector is normalized to have positive leading entry.
    """
    dec = smith_normal_form(A)
    r = dec.rank()
    return [canonical_sign(dec.V.column(j)) for j in range(r, A.cols)]


def solve_with_snf(dec: SNFDecomposition, b):
    """Some integer x with A*x = b given the SNF of A, or None."""
    m, n = dec.U.rows, dec.V.rows
    c = dec.U.apply(b)
    y = [0] * n
    for i in range(m):
        d = dec.S.at(i, i) if i < n else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return dec.V.apply(y)


def solve_integer(A: IntMatrix, b):
    """Some integer solution of A*x = b, or None if none exists over Z."""
    b = list(b)
    if len(b) != A.rows:
        raise DimensionMismatch("rhs length %d != %d rows" % (len(b), A.rows))
    return solve_with_snf(smith_normal_form(A), b)


def rank(A: IntMatrix):
    """Rank over the rationals."""
    if A.rows == 0 or A.cols == 0:
        return 0
    return smith_normal_form(A).rank()


def primitive_part(v):
    """v divided by the (positive) gcd of its entries; direction preserved."""
    v = tuple(int(e) for e in v)
    g = 0
    for e in v:
        g = gcd(g, e)
    if g == 0:
        raise ZeroVector("primitive part of the zero vector")
    return tuple(e // g for e in v)


def gcd_of(values):
    g = 0
    for x in values:
        g = gcd(g, x)
    return g
