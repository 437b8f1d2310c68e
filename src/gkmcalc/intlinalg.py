"""Exact integer linear algebra: Smith normal form with transforms,
saturated kernels, integer solves, determinants, adjugates, inverses and
primitive vectors.

All arithmetic is on arbitrary-precision Python ints; intermediate entries
in a Smith reduction can grow far beyond the input size, so fixed-width
types are never used.

There are two eliminations. The Smith normal form U*A*V = S does lattice
work: the rank is the number of nonzero diagonal entries, integer solves
and kernels come from solve_with_snf and the V-columns, the saturation
test reads the diagonal, and since U and V stay invertible mod 2, mod-2
solves read off the same transforms. Square matrices take one
fraction-free Gauss-Jordan elimination (`_eliminate`): handed B it gives
det B, and handed [B | I] it also gives adj B. The determinant picks the
isomorphism search's base weights and is the is_unimodular test, the
adjugate of the base solves for psi, and every unimodular inverse is
det * adj: the flow-up completions, the kernel path's quotient reps and
the GeneratorBasis coordinates. None of these runs a Smith form.

Empty matrices (0xn, mx0) have an ordinary Smith form: the loop finds no
pivot, so U and V are identities and S has no diagonal. Their rank is 0,
the kernel of a 0xn matrix is all of Z^n, and no caller special-cases them.

The Smith form builds only what its caller reads. Kernels, ranks and the
saturation test read V or S alone, so they ask for no U (`with_u=False`).
Solves (`solve_with_snf` here, `CohomologyRing.express_mod2` mod 2) and
the quotient's projection read U, and the quotient reps its inverse. A
solve needs only the first rank(S) rows of U*b: the rows past the rank ask
that U*b vanish there, and since U is invertible that holds exactly when
the candidate x = V*y solves A*x = b, which is checked on A instead. A
tall basis matrix (many monomial coordinates, few classes) thus costs two
thin products in place of one square one.
"""

import operator
from math import gcd

from .errors import DimensionMismatch, Record, SchemaError, ZeroVector


class IntMatrix:
    """Dense integer matrix, row-major, immutable by convention."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        for e in entries:
            if type(e) is not int:
                raise SchemaError("matrix entry %r must be an integer" % (e,))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                "%dx%d matrix needs %d entries, got %d"
                % (rows, cols, rows * cols, len(entries))
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, rows, cols, entries):
        """A matrix built here from int entries, without the entry check."""
        out = object.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.entries = tuple(entries)
        return out

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
        return cls._of(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

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
        return IntMatrix._of(self.rows, other.cols, out)

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
        """Determinant by the fraction-free elimination `_eliminate`."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a nonsquare matrix")
        return _eliminate(self.to_rows())

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self):
        """Exact inverse of a matrix with determinant +-1: det * adj."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a nonsquare matrix")
        det, adj = det_adjugate(self.to_rows())
        if det not in (1, -1):
            raise DimensionMismatch("matrix is not unimodular")
        return IntMatrix._of(self.rows, self.rows, [det * x for r in adj for x in r])


def _eliminate(m):
    """det B for the rows m of [B | C] with B square, by fraction-free
    Gauss-Jordan elimination in place (each step divides exactly by the
    previous pivot); when det B != 0, C ends as adj(B) * C. A row swap
    negates one of the two rows, which keeps the determinant. A row with a
    zero under a pivot equal to the previous one is unchanged, so it is
    skipped, and only the columns right of each pivot are formed."""
    prev = 1
    for t in range(len(m)):
        if not m[t][t]:
            p = next((i for i in range(t + 1, len(m)) if m[i][t]), None)
            if p is None:
                return 0
            m[t], m[p] = m[p], [-x for x in m[t]]
        row = m[t]
        pivot, cols = row[t], range(t + 1, len(row))
        for i, r in enumerate(m):
            c = r[t]
            if i != t and (c or pivot != prev):
                for j in cols:
                    r[j] = (pivot * r[j] - c * row[j]) // prev
        prev = pivot
    return prev


def det_adjugate(rows):
    """(det B, adj B) for the square matrix B with these rows, from one
    elimination of [B | I]: adj(B) * B = B * adj(B) = det(B) * I. adj B is
    a list of rows, or None when det B = 0."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    det = _eliminate(m)
    return det, ([r[n:] for r in m] if det else None)


class SNFDecomposition(Record):
    """U*A*V = S with U, V unimodular, S diagonal with nonnegative entries
    each dividing the next. U is None when it was not asked for."""

    __slots__ = _fields = ("U", "S", "V", "A")

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S.at(i, i) for i in range(n))

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)

    def ranked_rows(self, b):
        """(entry i of U*b, S[i][i]) for the first rank(S) rows i."""
        return [(sum(map(operator.mul, self.U.row(i), b)), d) for i, d in enumerate(self.diagonal()) if d]


def _find_pivot(s, t, m, n):
    """Smallest |nonzero| entry of s[t:, t:]; ties broken by (row, col).
    A +-1 is the least possible, and the first one met in row-major order
    wins every tie, so the scan stops there."""
    best, least = None, 0
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = abs(v)
                if a == 1:
                    return (i, j)
                if best is None or a < least:
                    best, least = (i, j), a
    return best


def smith_normal_form(A: IntMatrix, *, with_u=True) -> SNFDecomposition:
    """Smith normal form over the integers, with the transforms; U is left
    out (None) when `with_u` is false.

    Each elimination step scans once for its pivot, the entry of least
    absolute value (ties by position), so the output is reproducible.
    """
    m, n = A.rows, A.cols
    s = A.to_rows()
    u = IntMatrix.identity(m).to_rows() if with_u else None
    v = IntMatrix.identity(n).to_rows()

    def row_sub(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        if u is not None:
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_sub(j, i, q):  # col_j -= q * col_i
        for r in s:
            r[j] -= q * r[i]
        for r in v:
            r[j] -= q * r[i]

    t = 0
    while (pivot := _find_pivot(s, t, m, n)) is not None:
        i0, j0 = pivot
        if i0 != t:
            s[t], s[i0] = s[i0], s[t]
            if u is not None:
                u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for r in s:
                r[t], r[j0] = r[j0], r[t]
            for r in v:
                r[t], r[j0] = r[j0], r[t]
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            if u is not None:
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
        # diagonal comes out as a divisibility chain. 1 divides anything.
        if p == 1:
            t += 1
            continue
        for i in range(t + 1, m):
            if any(s[i][j] % p for j in range(t + 1, n)):
                row_sub(t, i, -1)
                break
        else:
            t += 1
    return SNFDecomposition(
        IntMatrix._of(m, m, [x for r in u for x in r]) if u is not None else None,
        IntMatrix._of(m, n, [x for r in s for x in r]),
        IntMatrix._of(n, n, [x for r in v for x in r]),
        A,
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
    dec = smith_normal_form(A, with_u=False)
    r = dec.rank()
    return [canonical_sign(dec.V.column(j)) for j in range(r, A.cols)]


def solve_with_snf(dec: SNFDecomposition, b):
    """Some integer x with A*x = b given the SNF of A, or None.

    Only the first rank(S) rows of U*b are formed; A*x == b stands in for
    the rows past the rank (see the module docstring)."""
    b = tuple(b)
    if len(b) != dec.A.rows:
        raise DimensionMismatch("vector length %d != %d" % (len(b), dec.A.rows))
    y = [0] * dec.V.rows
    for i, (c, d) in enumerate(dec.ranked_rows(b)):
        if c % d:
            return None
        y[i] = c // d
    x = dec.V.apply(y)
    return x if dec.A.apply(x) == b else None


def saturated(cols):
    """Whether the columns (no more of them than their length) are
    independent and span a saturated sublattice: the Smith diagonal of the
    matrix they form is all ones, as for the leading columns of a
    unimodular matrix."""
    return all(d == 1 for d in smith_normal_form(IntMatrix.from_columns(cols), with_u=False).diagonal())


def primitive_part(v):
    """v divided by the (positive) gcd of its entries; direction preserved."""
    g = gcd_of(v)
    if g == 0:
        raise ZeroVector("primitive part of the zero vector")
    return tuple(e // g for e in v)


def gcd_of(values):
    g = 0
    for x in values:
        g = gcd(g, x)
    return g
