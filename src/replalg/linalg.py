"""Exact linear algebra over the rationals.

A scalar is an ``int`` when it is integral and a ``fractions.Fraction``
otherwise, so no rounding ever happens.  The two mix exactly: int op int
stays an int and int op Fraction is a Fraction.  :func:`scalar` normalises
inputs at construction, and the one division is :func:`_inv`, so no float
ever appears.  The matrices here are the substrate for all Hom/solve
computations in the rest of the package, so the inner loops skip zero
entries aggressively (the matrices we meet are mostly zeros and ones).
Systems that are sparse from the start (the Hom equations) are solved by
:func:`sparse_kernel` on rows stored as ``{column: value}`` dicts, and
spans of such rows grow in a :class:`SparseSpan`.

Matrices are immutable by convention: no method mutates ``self`` and
callers must not modify ``data`` after construction.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]


def scalar(x):
    """x as an exact scalar: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = x if type(x) is Fraction else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _inv(a):
    """1 / a for a nonzero scalar a, an int when integral: the one division."""
    n, d = (a, 1) if type(a) is int else (a.numerator, a.denominator)
    return n * d if n in (1, -1) else Fraction(d, n)


def _coerce_row(row: Iterable) -> list[Scalar]:
    return [x if type(x) is int else scalar(x) for x in row]


class RatMatrix:
    """Dense row-major matrix of rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Sequence[Sequence]] = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [_coerce_row(r) for r in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("data shape does not match (rows, cols)")

    @classmethod
    def _of(cls, rows: int, cols: int, data: list[list[Scalar]]) -> "RatMatrix":
        """Wrap rows of scalars already of shape (rows, cols): no coercion, no check."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def column(cls, vec: Sequence) -> "RatMatrix":
        return cls(len(vec), 1, [[x] for x in vec])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "RatMatrix":
        if not cols:
            return cls(nrows or 0, 0)
        nrows = len(cols[0])
        return cls(nrows, len(cols), [[c[i] for c in cols] for i in range(nrows)])

    # -- basic structure ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RatMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix([{body}])"

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def transpose(self) -> "RatMatrix":
        data = [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return RatMatrix._of(self.cols, self.rows, data)

    def column_vec(self, j: int) -> list[Scalar]:
        return [row[j] for row in self.data]

    def columns(self) -> list[list[Scalar]]:
        return [self.column_vec(j) for j in range(self.cols)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix._of(
            len(row_idx), len(col_idx),
            [[self.data[i][j] for j in col_idx] for i in row_idx],
        )

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return RatMatrix._of(self.rows, self.cols,
                             [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return RatMatrix._of(self.rows, self.cols,
                             [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(self.rows, self.cols, [[-a for a in row] for row in self.data])

    def scaled(self, c) -> "RatMatrix":
        c = scalar(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix._of(self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in compress(enumerate(arow), arow):
                brow = odata[k]
                if a == 1:
                    for j, b in compress(enumerate(brow), brow):
                        orow[j] = orow[j] + b
                else:
                    for j, b in compress(enumerate(brow), brow):
                        orow[j] = orow[j] + a * b
        return RatMatrix._of(self.rows, other.cols, out)

    # -- elimination ----------------------------------------------------

    def _gauss_jordan(self, aug: int = 0) -> tuple[list[list[Scalar]], list[int]]:
        """Reduced row echelon of a working copy.

        Pivots are only chosen in the first ``cols - aug`` columns, so the
        last ``aug`` columns ride along as an augmented part.
        Returns (reduced rows, pivot column list).
        """
        m = [row[:] for row in self.data]
        nrows, ncols = self.rows, self.cols
        limit = ncols - aug
        pivots: list[int] = []
        r = 0
        for c in range(limit):
            pr = -1
            for i in range(r, nrows):
                if m[i][c]:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            piv = prow[c]
            if piv != 1:
                inv = _inv(piv)
                for j in range(c, ncols):
                    if prow[j]:
                        prow[j] = prow[j] * inv
            for i in range(nrows):
                if i != r:
                    f = m[i][c]
                    if f:
                        row = m[i]
                        row[c] = 0
                        for j in range(c + 1, ncols):
                            p = prow[j]
                            if p:
                                row[j] = row[j] - f * p
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return m, pivots

    def rref(self) -> tuple["RatMatrix", int, list[int]]:
        """Reduced row echelon form, rank, and pivot columns."""
        m, pivots = self._gauss_jordan()
        return RatMatrix._of(self.rows, self.cols, m), len(pivots), pivots

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right null space, one basis vector per column."""
        return self.null_space()[0]

    def null_space(self) -> tuple["RatMatrix", list[int]]:
        """(kernel_basis, its free columns): basis vector i has a 1 at the
        i-th free column and 0 at the others, so the basis is the identity on
        the rows listed.  A matrix with no row or no column is not reduced."""
        red, pivots = self._gauss_jordan() if self.rows and self.cols else ([], [])
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        out = [[0] * len(free) for _ in range(self.cols)]
        for i, f in enumerate(free):
            out[f][i] = 1
        for row, p in zip(red, pivots):
            out[p] = [-row[f] if row[f] else 0 for f in free]
        return RatMatrix._of(self.cols, len(free), out), free

    def solve(self, rhs: "RatMatrix") -> Optional["RatMatrix"]:
        """Some X with self @ X = rhs, or None if the system is inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if self.rows != rhs.rows:
            raise ValueError("shape mismatch in solve")
        aug = RatMatrix._of(self.rows, self.cols + rhs.cols,
                            [a + b for a, b in zip(self.data, rhs.data)])
        red, pivots = aug._gauss_jordan(aug=rhs.cols)
        nc = self.cols
        for i in range(len(pivots), self.rows):
            if any(red[i][nc + j] for j in range(rhs.cols)):
                return None
        x = [[0] * rhs.cols for _ in range(nc)]
        for i, p in enumerate(pivots):
            x[p] = red[i][nc:]
        return RatMatrix._of(nc, rhs.cols, x)

    def inverse(self) -> Optional["RatMatrix"]:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        x = self.solve(RatMatrix.identity(self.rows))
        if x is None:
            return None
        # solve() found pivots for every column iff the rank is full
        if (self @ x) != RatMatrix.identity(self.rows):
            return None
        return x


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    mats = list(mats)
    if not mats:
        return RatMatrix.zeros(0, 0)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return RatMatrix._of(rows, sum(m.cols for m in mats), data)


def _sub_scaled(r: dict[int, Scalar], a: Scalar, row: dict[int, Scalar], p: int) -> None:
    """r -= a * row in place, over the columns of row other than p."""
    for j, x in row.items():
        if j != p:
            y = r.get(j, 0) - a * x
            if y:
                r[j] = y
            else:
                del r[j]


def _insert_rows(piv: dict[int, dict[int, Scalar]], rows: Iterable[dict[int, Scalar]]) -> None:
    """Insert each sparse row into the row echelon form ``piv``, which maps a
    pivot column to its row: 1 at the pivot, its smallest column, and no
    entry at a smaller pivot column.

    Each row is reduced against the stored rows in ascending pivot order,
    through a sorted list of the pivot columns it hits (``insort`` adds
    fill-in as it appears), so the work is that of the nonzeros met, not
    that of the dimension.
    """
    for row in rows:
        r = {j: x for j, x in row.items() if x}
        hits = [c for c in r if c in piv]
        hits.sort()
        for p in hits:  # ascending; insort adds columns beyond p as they fill in
            a = r.pop(p, None)
            if a is None:  # cancelled, or listed twice
                continue
            for j, x in piv[p].items():
                if j != p:
                    y = r.get(j)
                    if y is None:
                        r[j] = -a * x
                        if j in piv:
                            insort(hits, j)
                    else:
                        y -= a * x
                        if y:
                            r[j] = y
                        else:
                            del r[j]
        if not r:
            continue
        p = min(r)
        a = r[p]
        if a != 1:
            inv = _inv(a)
            r = {j: x * inv for j, x in r.items()}
        piv[p] = r


class SparseSpan:
    """A growing subspace of sparse vectors ``{column: value}``, kept in the
    row echelon form of :func:`_insert_rows` in ``piv``: the sparse twin of
    :class:`EchelonSpace`."""

    __slots__ = ("piv",)

    def __init__(self):
        self.piv: dict[int, dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.piv)

    def add(self, vec: dict[int, Scalar]) -> bool:
        """Insert vec's span; returns True if the rank grew."""
        rank = len(self.piv)
        _insert_rows(self.piv, (vec,))
        return len(self.piv) > rank


def _sparse_rref(rows: Iterable[dict[int, Scalar]]) -> dict[int, dict[int, Scalar]]:
    """Fully reduced row echelon form of sparse rows, keyed by pivot column.

    Each pivot row has a 1 at its pivot and no entry at any other pivot
    column.  The rows are put in echelon form by :func:`_insert_rows`, and
    one back-substitution pass in descending pivot order then clears the
    entries above the pivots.
    """
    piv: dict[int, dict[int, Scalar]] = {}
    _insert_rows(piv, rows)
    # rows with a larger pivot are fully reduced first, so one pass clears each
    for p in sorted(piv, reverse=True):
        prow = piv[p]
        qs = prow.keys() & piv.keys()
        qs.discard(p)
        for q in qs:
            _sub_scaled(prow, prow.pop(q), piv[q], q)
    return piv


def sparse_kernel(rows: Sequence[dict[int, Scalar]], n: int) -> list[dict[int, Scalar]]:
    """Basis of the solutions of the sparse system ``rows`` in n unknowns.

    Each row maps a column to a nonzero coefficient.  The basis is read off
    as ``RatMatrix.kernel_basis`` reads it: one vector per free column in
    ascending order, 1 at that column and minus the pivot-row entries at the
    pivots.  The reduced row echelon form of a row space is unique, so the
    vectors equal the dense ones entry for entry.  Each vector is returned
    as ``{column: value}`` and is checked against every row first: the
    vectors are indexed by column once, so the check costs the nonzero
    products of rows and vectors; a nonzero residual raises ``ValueError``.
    """
    piv = _sparse_rref(rows)
    kernel = {f: {f: 1} for f in range(n) if f not in piv}
    for p, prow in piv.items():
        for j, a in prow.items():
            if j != p:
                kernel[j][p] = -a
    basis = list(kernel.values())
    if not basis:
        return basis
    by_col: dict[int, list[tuple[int, Scalar]]] = {}
    for k, vec in enumerate(basis):
        for j, x in vec.items():
            by_col.setdefault(j, []).append((k, x))
    for row in rows:
        acc: dict[int, Scalar] = {}
        for j, a in row.items():
            for k, x in by_col.get(j, ()):
                acc[k] = acc.get(k, 0) + a * x
        if any(acc.values()):
            raise ValueError("sparse kernel vector does not solve its system")
    return basis


class EchelonSpace:
    """A growing subspace of Q^n kept in reduced row-echelon form.

    Used for image spans, closure computations and membership tests.
    """

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            a = v[p]
            if a:
                for j in range(p, self.n):
                    r = row[j]
                    if r:
                        v[j] = v[j] - a * r
        return v

    def add(self, vec: Sequence[Scalar]) -> bool:
        """Insert vec's span; returns True if the rank grew."""
        v = self._reduce(vec)
        p = -1
        for j, x in enumerate(v):
            if x:
                p = j
                break
        if p < 0:
            return False
        piv = v[p]
        if piv != 1:
            inv = _inv(piv)
            v = [x * inv if x else x for x in v]
        # back-substitute into existing rows to stay fully reduced
        for row in self.rows:
            a = row[p]
            if a:
                for j in range(p, self.n):
                    x = v[j]
                    if x:
                        row[j] = row[j] - a * x
        where = 0
        while where < len(self.pivots) and self.pivots[where] < p:
            where += 1
        self.rows.insert(where, v)
        self.pivots.insert(where, p)
        return True

    def basis_matrix(self) -> RatMatrix:
        """Basis as columns of an n x rank matrix."""
        return RatMatrix.from_columns(self.rows, nrows=self.n)
