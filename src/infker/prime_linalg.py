"""Exact linear algebra over a prime field F_p.

Everything runs on plain Python integers reduced into [0, p); there is no
floating point anywhere.  Matrices are immutable (dense entries live in a
tuple of row tuples, sparse ones in a tuple of column tuples) so values
can be cached and shared freely.  Elimination works on dense matrices;
the sparse type serves products and matvecs of operators that are
almost all zero.

Row reduction is deterministic: pivots are chosen leftmost column first,
then topmost available row.  Canonical objects downstream (subspace bases,
quotient monomials, report payloads) inherit their reproducibility from
this rule.  For p = 2 rows are packed into Python ints and eliminated with
XOR; the rref is unique, so that path produces bit-identical output to the
generic one, and the test suite cross-checks the two on random inputs.
``solve_rows`` solves augmented rows in the form the elimination takes.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    SCAN_LIMIT,
    DimensionMismatchError,
    FieldMismatchError,
    NotPrimeError,
    Record,
    bounded_count,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The smallest strong pseudoprime to every base in ``_SMALL_PRIMES``.
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41: exact for n < PRIME_BOUND
    = 3317044064679887385961981, above which a composite can pass."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Return ``p`` when it is a prime below PRIME_BOUND, else raise
    NotPrimeError."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"modulus must be prime, got {p!r}")
    if p >= PRIME_BOUND:
        raise NotPrimeError(
            f"modulus {p} is beyond the deterministic primality bound "
            f"{PRIME_BOUND}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Inverse of ``a`` modulo ``p`` via the extended Euclidean algorithm."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    r0, r1 = p, a
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r0 != 1:
        raise ZeroDivisionError(f"{a} is not invertible mod {p}")
    return t0 % p


def _power_bits(p: int, n: int) -> int:
    """Bit length of p ** n - 1 (n >= 1) from the top bits of p ** n alone:
    square-and-multiply on a lower and an upper bound cut to ``keep``
    bits, ``keep`` doubled until their lengths agree.  p ** n - 1 is one
    bit shorter than p ** n only for p = 2, where the bounds are exact."""
    keep = 64
    while True:
        lo = hi = 1
        shift = 0  # lo << shift <= p ** e <= hi << shift, e the bits of n read
        for bit in bin(n)[2:]:
            lo, hi = lo * lo * p ** int(bit), hi * hi * p ** int(bit)
            drop = max(hi.bit_length() - keep, 0)
            lo, hi, shift = lo >> drop, -(-hi >> drop), 2 * shift + drop
        if lo.bit_length() == hi.bit_length():
            return lo.bit_length() + shift - (p == 2)
        keep *= 2


class Matrix(Record):
    """Immutable dense matrix over F_p.

    Zero-row and zero-column shapes are legal; they show up naturally as
    operator matrices between trivial graded pieces.  ``_make(p, entries,
    cols)`` takes row tuples of width cols already reduced into [0, p).
    """

    __slots__ = ("p", "entries", "cols")

    def __init__(self, p: int, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        check_prime(p)
        normalized = tuple(tuple(v % p for v in row) for row in data)
        if normalized:
            width = len(normalized[0])
            if any(len(row) != width for row in normalized):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError(
                    f"declared {cols} columns but rows have {width}"
                )
            cols = width
        elif cols is None:
            cols = 0
        super().__init__(p, normalized, cols)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, p: int, n: int) -> "Matrix":
        check_prime(p)
        return cls._make(p, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zero(cls, p: int, rows: int, cols: int) -> "Matrix":
        return cls(p, ([0] * cols for _ in range(rows)), cols=cols)

    # -- basics -------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.rows}x{self.cols})"

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def transpose(self) -> "Matrix":
        if not self.rows:
            # 0 x n transposes to n x 0
            return Matrix._make(self.p, ((),) * self.cols, 0)
        return Matrix._make(self.p, tuple(zip(*self.entries)), self.rows)

    def scale(self, c: int) -> "Matrix":
        c %= self.p
        return Matrix(
            self.p,
            (((c * v) % self.p for v in row) for row in self.entries),
            cols=self.cols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.p,
            (((a + b) % self.p for a, b in zip(ra, rb))
             for ra, rb in zip(self.entries, other.entries)),
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.p,
            (((a - b) % self.p for a, b in zip(ra, rb))
             for ra, rb in zip(self.entries, other.entries)),
            cols=self.cols,
        )

    def _check_same_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.p != other.p:
            raise FieldMismatchError("mixed moduli")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p:
            raise FieldMismatchError("mixed moduli")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p, zero, rows_b = self.p, [0] * other.cols, other.entries
        out = []
        for row in self.entries:
            # a times row k of other, for each nonzero a = row[k]; one
            # reduction mod p per output row
            acc = zero
            for a, row_b in zip(row, rows_b):
                if a:
                    acc = [x + a * y for x, y in zip(acc, row_b)]
            out.append(tuple([v % p for v in acc]))
        return Matrix._make(p, tuple(out), other.cols)

    def matvec(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vec)} vs {self.cols} columns")
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.entries)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "rows": [list(r) for r in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        return cls(obj["p"], obj["rows"])


def _canonical_column(acc: dict, p: int) -> tuple:
    """Sorted ``(row, value)`` pairs of a ``{row: value}`` accumulator,
    values reduced into (0, p)."""
    return tuple(sorted((i, r) for i, v in acc.items() if (r := v % p)))


class SparseMatrix(Record):
    """Immutable sparse matrix over F_p, held by columns.

    Each column is a tuple of ``(row, value)`` pairs, sorted by row, with
    every value in (0, p).  That form is canonical, so ``==`` is an exact
    shape-and-entry test, as it is for :class:`Matrix`; ``_make(p, rows,
    columns)`` takes columns already in it.  The graded operators and
    transvection compounds are under 1% nonzero, and products of them cost
    a few multiply-adds per column here.
    """

    __slots__ = ("p", "rows", "columns")

    def __init__(self, p: int, rows: int, columns: Iterable[Iterable[tuple]]):
        """Sum the ``(row, value)`` pairs of each column modulo ``p``;
        repeated rows add up and zero sums are dropped."""
        check_prime(p)
        canon = []
        for col in columns:
            acc: dict = {}
            for i, v in col:
                if not 0 <= i < rows:
                    raise DimensionMismatchError(f"row {i} outside 0..{rows - 1}")
                acc[i] = acc.get(i, 0) + v
            canon.append(_canonical_column(acc, p))
        super().__init__(p, rows, tuple(canon))

    # -- constructors -------------------------------------------------

    @classmethod
    def diagonal(cls, p: int, n: int, c: int) -> "SparseMatrix":
        """``c`` times the n x n identity."""
        check_prime(p)
        c %= p
        return cls._make(p, n, tuple(((j, c),) if c else () for j in range(n)))

    # -- basics -------------------------------------------------------

    @property
    def cols(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return f"SparseMatrix(p={self.p}, {self.rows}x{self.cols})"

    def to_dense(self) -> Matrix:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                out[i][j] = v
        return Matrix(self.p, out, cols=self.cols)

    def scale(self, c: int) -> "SparseMatrix":
        p = self.p
        c %= p
        # p is prime, so a nonzero c keeps every value nonzero
        return SparseMatrix._make(p, self.rows, tuple(
            tuple((i, c * v % p) for i, v in col) if c else ()
            for col in self.columns))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            raise TypeError("expected a SparseMatrix")
        if self.p != other.p:
            raise FieldMismatchError("mixed moduli")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        p = self.p
        out = []
        for ca, cb in zip(self.columns, other.columns):
            acc = dict(ca)
            for i, v in cb:
                acc[i] = acc.get(i, 0) - v
            out.append(_canonical_column(acc, p))
        return SparseMatrix._make(p, self.rows, tuple(out))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.p != other.p:
            raise FieldMismatchError("mixed moduli")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p, mine = self.p, self.columns
        out = []
        for col in other.columns:
            acc: dict = {}
            for k, b in col:
                for i, a in mine[k]:
                    acc[i] = acc.get(i, 0) + a * b
            out.append(_canonical_column(acc, p))
        return SparseMatrix._make(p, self.rows, tuple(out))

    def matvec(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vec)} vs {self.cols} columns")
        p = self.p
        out = [0] * self.rows
        for col, b in zip(self.columns, vec):
            if b:
                for i, a in col:
                    out[i] += a * b
        return tuple(v % p for v in out)


def _eliminate(rows: list, ncols: int, p: int) -> tuple:
    """Reduce ``rows``, each of ``ncols`` columns, in place to rref and
    return the pivots.  At p = 2 each row is an int whose bit c is column
    c, and the rows join a fully reduced basis one at a time by XOR; the
    rref is unique, so it is the one the generic path gives.  Otherwise
    each row is a sequence of integers in [0, p)."""
    nrows, pivots = len(rows), []
    if p == 2:
        basis = {}  # lowest bit -> row, zero at every other row's lowest bit
        for w in rows:
            for low, prow in basis.items():
                if w & low:
                    w ^= prow
            if w:
                low = w & -w
                for key, prow in basis.items():
                    if prow & low:
                        basis[key] = prow ^ w
                basis[low] = w
        rows[:] = [basis[low] for low in sorted(basis)] + [0] * (nrows - len(basis))
        return tuple([low.bit_length() - 1 for low in sorted(basis)])
    for col in range(ncols):
        rank = len(pivots)
        for pivot in range(rank, nrows):
            if rows[pivot][col]:
                break
        else:
            continue
        prow, rows[pivot] = rows[pivot], rows[rank]
        if prow[col] != 1:
            inv = pow(prow[col], -1, p)
            prow = [inv * v % p for v in prow]
        rows[rank] = prow
        for i in range(nrows):
            f = rows[i][col]
            if f and i != rank:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], prow)]
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return tuple(pivots)


def _prepared(rows: Sequence[Sequence[int]], p: int) -> list:
    """Rows of any integers as ``_eliminate`` takes them, reduced mod p."""
    if p == 2:
        return [sum(1 << c for c, v in enumerate(row) if v & 1) for row in rows]
    return [[v % p for v in row] for row in rows]


def _rref_rows(rows: Sequence[Sequence[int]], ncols: int, p: int):
    """Reduced rows as a tuple of tuples in [0, p), pivots and rank; rows
    of any integers, reduced mod p once on the way in."""
    red = _prepared(rows, p)
    pivots = _eliminate(red, ncols, p)
    if p == 2:
        red = [[(w >> c) & 1 for c in range(ncols)] for w in red]
    return tuple(map(tuple, red)), pivots, len(pivots)


def rref(mat: Matrix):
    """Reduced row echelon form, on the packed XOR path when p = 2.

    Returns (reduced Matrix, pivot column tuple, rank).
    """
    red, pivots, rank = _rref_rows(mat.entries, mat.cols, mat.p)
    return Matrix._make(mat.p, red, mat.cols), pivots, rank


def rank(mat: Matrix) -> int:
    """The rank: ``rref``'s elimination, with no reduced matrix built."""
    return len(_eliminate(_prepared(mat.entries, mat.p), mat.cols, mat.p))


def solve_rows(p: int, rows: list, ncols: int) -> Optional[tuple]:
    """One solution of the augmented rows, each ``ncols`` coefficients and
    a right-hand side (at p = 2 an int, bit ``ncols`` the right-hand side;
    else ncols + 1 integers in [0, p)), or None when inconsistent.  The
    list is reduced in place; free variables are set to zero."""
    pivots = _eliminate(rows, ncols + 1, p)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, col in zip(rows, pivots):
        x[col] = (row >> ncols) & 1 if p == 2 else row[ncols]
    return tuple(x)


def solve(mat: Matrix, rhs: Sequence[int]) -> Optional[tuple]:
    """One solution of ``mat @ x = rhs``, or None when inconsistent.

    The augmented rows go to ``solve_rows``, which sets free variables to 0.
    """
    if len(rhs) != mat.rows:
        raise DimensionMismatchError(f"rhs length {len(rhs)} vs {mat.rows} rows")
    rows = _prepared([row + (b,) for row, b in zip(mat.entries, rhs)], mat.p)
    return solve_rows(mat.p, rows, mat.cols)


class Subspace(Record):
    """A subspace of F_p^n held in reduced-row-echelon canonical form.

    Two subspaces are equal iff they have the same span; the rref basis
    makes that a tuple comparison.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    @classmethod
    def from_rows(cls, p: int, ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatchError(
                    f"row length {len(r)} vs ambient dimension {ambient_dim}"
                )
        check_prime(p)
        red, pivots, rk = _rref_rows(rows, ambient_dim, p)
        return cls(p, ambient_dim, Matrix._make(p, red[:rk], ambient_dim), pivots)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls.from_rows(p, ambient_dim, [])

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        # the identity is already reduced, with a pivot in every column
        return cls(p, ambient_dim, Matrix.identity(p, ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def member(self, vec: Sequence[int]) -> Optional[tuple]:
        """Coefficients of ``vec`` over the rref basis, or None if outside.

        Because the basis is reduced, the only candidate coefficients are
        the entries of ``vec`` at the pivot columns; one exact comparison
        settles membership.
        """
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(vec)} vs ambient {self.ambient_dim}"
            )
        vec = [v % self.p for v in vec]
        if any(self.residual(vec)):
            return None
        return tuple(vec[c] for c in self.pivots)

    def residual(self, vec: Sequence[int]) -> Sequence[int]:
        """``vec`` (entries in [0, p)) with each pivot entry cleared by its
        basis row: zero exactly when ``vec`` lies in the subspace."""
        p = self.p
        for row, c in zip(self.basis.entries, self.pivots):
            if vec[c]:
                f = vec[c]
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
        return vec

    def vectors(self) -> Iterator[tuple]:
        """Every vector of the subspace, p^dim of them, in a fixed order;
        more than SCAN_LIMIT are refused with CatalogTooLargeError."""
        p = self.p
        bounded_count(lambda: p ** self.dim, SCAN_LIMIT, "vectors")
        rows = self.basis.entries
        for coeffs in itertools.product(range(p), repeat=self.dim):
            vec = [0] * self.ambient_dim
            for c, row in zip(coeffs, rows):
                if c:
                    vec = [(a + c * b) % p for a, b in zip(vec, row)]
            yield tuple(vec)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "ambient_dim": self.ambient_dim,
            "basis": [list(r) for r in self.basis.entries],
        }


def kernel_basis(mat: Matrix) -> Subspace:
    """Kernel of ``mat`` as a canonical subspace of F_p^cols.

    One elimination of the column-reversed rows takes pivots from the
    last column leftward, so each reduced row is 1 at its pivot c, zero at
    the other pivots and zero right of c.  Free column f then gives
    e_f minus the rows' entries in column f, placed at their pivots: that
    vector is 1 at f, zero at every other free column and zero left of f,
    so these vectors, f ascending, are already the kernel's rref.
    """
    p, n = mat.p, mat.cols
    red, rev_pivots, _ = _rref_rows([row[::-1] for row in mat.entries], n, p)
    free = sorted(set(range(n)).difference(n - 1 - c for c in rev_pivots))
    gens = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(red, rev_pivots):
            vec[n - 1 - c] = -row[n - 1 - f] % p
        gens.append(tuple(vec))
    return Subspace(p, n, Matrix._make(p, tuple(gens), n), tuple(free))


def count_subspaces(p: int, n: int, r: int) -> int:
    """Gaussian binomial: the number of r-dimensional subspaces of F_p^n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= p ** (n - i) - 1
        den *= p ** (r - i) - 1
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def iter_subspaces(p: int, n: int, r: int):
    """Every r-dimensional subspace of F_p^n, one per rref basis.

    Pivot patterns run in lexicographic order; for each pattern the free
    entries (right of the own pivot, excluding other pivot columns) run
    through all values.  Each subspace appears exactly once.
    """
    if r == 0:
        yield Subspace.zero(p, n)
        return
    if r < 0 or r > n:
        return
    for pattern in itertools.combinations(range(n), r):
        pset = set(pattern)
        free = [
            (i, c)
            for i, piv in enumerate(pattern)
            for c in range(piv + 1, n)
            if c not in pset
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i, piv in enumerate(pattern):
                rows[i][piv] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield Subspace.from_rows(p, n, rows)


def sum_and_intersection(u: Subspace, w: Subspace):
    """The pair (U + W, U intersect W), computed by the Zassenhaus trick.

    The modular law check dim(U+W) + dim(U int W) = dim U + dim W is
    asserted on every call.
    """
    if u.p != w.p or u.ambient_dim != w.ambient_dim:
        raise FieldMismatchError("subspaces live in different ambient spaces")
    p, n = u.p, u.ambient_dim
    red, pivots, _ = _rref_rows([r + r for r in u.basis.entries]
                                + [r + (0,) * n for r in w.basis.entries], 2 * n, p)
    # rows with pivots below n reduce U + W; those at n or beyond are zero
    # in the first half and reduce U intersect W in the second
    split = bisect.bisect_left(pivots, n)
    total = Subspace(p, n, Matrix._make(p, tuple([row[:n] for row in red[:split]]), n),
                     pivots[:split])
    inter = Subspace(p, n, Matrix._make(p, tuple([row[n:] for row in red[split:len(pivots)]]),
                                      n), tuple([c - n for c in pivots[split:]]))
    if total.dim + inter.dim != u.dim + w.dim:
        raise AssertionError("modular law violated; elimination bug")
    return total, inter
