"""Catalogs of totally isotropic subspaces, perps, and radical splittings.

Subspaces are enumerated through their reduced-row-echelon bases: for each
pivot pattern the rows are filled top to bottom, and the isotropy
conditions against the rows already placed form an affine-linear system in
the free entries of the next row.  Enumerating the solution set of that
system (particular solution plus kernel combinations, in a fixed order)
visits every isotropic subspace exactly once, deterministically, without
scanning the full row space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    CatalogTooLargeError,
    DimensionMismatchError,
    InvariantError,
)
from .prime_linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    rref,
    solve,
)
from .symplectic import SymplecticSpace, _cached

#: Refuse to materialize catalogs beyond this many subspaces.
CATALOG_LIMIT = 10 ** 6


def count_isotropic(p: int, m: int, r: int) -> int:
    """Closed-form count of totally isotropic r-subspaces of F_p^{2m}.

    Ordered isotropic r-frames divided by ordered bases of an r-space;
    the division is exact and asserted.
    """
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(1, r + 1):
        num *= p ** (2 * m - i + 1) - p ** (i - 1)
        den *= p ** r - p ** (i - 1)
    q, rem = divmod(num, den)
    if rem:
        raise InvariantError("frame count is not divisible by basis count")
    return q


def _row_solutions(space: SymplecticSpace, fixed_rows, pattern, i):
    """Yield each valid row i for the given pivot pattern, in a fixed order.

    The row is pinned to 1 at its own pivot, 0 at the other pivots and left
    of its pivot; isotropy against the earlier rows is linear in the free
    entries, so the candidates are exactly an affine solution set.
    """
    p, n = space.p, space.n
    pset = set(pattern)
    piv = pattern[i]
    free = [c for c in range(piv + 1, n) if c not in pset]
    gram_t = space.gram.transpose()
    # one linear constraint per earlier row
    lhs = []
    rhs = []
    for u in fixed_rows:
        w = gram_t.matvec(u)  # w . x = psi(u, x)
        lhs.append([w[c] for c in free])
        rhs.append((-w[piv]) % p)
    base = [0] * n
    base[piv] = 1
    if not free:
        if all(v == 0 for v in rhs):
            yield tuple(base)
        return
    mat = Matrix(p, lhs, cols=len(free))
    particular = solve(mat, rhs)
    if particular is None:
        return
    homogeneous = kernel_basis(mat)
    for coeffs in itertools.product(range(p), repeat=homogeneous.dim):
        vals = list(particular)
        for c, hrow in zip(coeffs, homogeneous.basis.entries):
            if c:
                vals = [(a + c * b) % p for a, b in zip(vals, hrow)]
        row = list(base)
        for c, v in zip(free, vals):
            row[c] = v
        yield tuple(row)


def iter_isotropic(space: SymplecticSpace, r: int) -> Iterator[Subspace]:
    """Stream every totally isotropic r-subspace in a deterministic order.

    No global size guard applies here; callers that materialize should go
    through :func:`enumerate_isotropic`.
    """
    p, n = space.p, space.n
    if r == 0:
        yield Subspace.zero(p, n)
        return
    if r < 0 or r > space.m:
        return

    def fill(pattern, rows):
        i = len(rows)
        if i == r:
            yield Subspace.from_rows(p, n, rows)
            return
        for row in _row_solutions(space, rows, pattern, i):
            yield from fill(pattern, rows + [list(row)])

    for pattern in itertools.combinations(range(n), r):
        yield from fill(pattern, [])


@dataclass(frozen=True)
class IsotropicCatalog:
    """A complete, cached enumeration for one (p, m, r)."""

    p: int
    m: int
    r: int
    count: int
    complete: bool
    subspaces: tuple

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.subspaces)

    def __len__(self) -> int:
        return len(self.subspaces)


def enumerate_isotropic(space: SymplecticSpace, r: int) -> IsotropicCatalog:
    """Materialize the full catalog, refusing beyond the size budget.

    Completeness is certified against the closed-form count, and every
    listed subspace is re-checked to be isotropic.
    """
    def build():
        expected = count_isotropic(space.p, space.m, r)
        if expected > CATALOG_LIMIT:
            raise CatalogTooLargeError(expected, CATALOG_LIMIT, "subspaces")
        subs = tuple(iter_isotropic(space, r))
        if len(subs) != expected:
            raise InvariantError(
                f"enumerated {len(subs)} subspaces, closed form says {expected}"
            )
        gram = space.gram
        for sub in subs:
            b = sub.basis
            if not (b @ gram @ b.transpose()).is_zero():
                raise InvariantError("catalog contains a non-isotropic subspace")
        return IsotropicCatalog(p=space.p, m=space.m, r=r, count=expected,
                                complete=True, subspaces=subs)
    return _cached(space, ("catalog", r), build)


def perp(space: SymplecticSpace, g: Sequence[int]) -> Subspace:
    """The set of vectors pairing to zero with ``g``."""
    p, n = space.p, space.n
    if len(g) != n:
        raise DimensionMismatchError(f"vector length {len(g)} vs 2m = {n}")
    # the one row g^T J, the functional J^T g
    return kernel_basis(Matrix(p, [g], cols=n) @ space.gram)


@dataclass(frozen=True)
class RadicalSplit:
    """A subspace split as radical plus a nondegenerate complement, with
    the restricted form: ``gram`` on the rref basis of ``sub``, ``gram_a``
    on that of ``a``."""

    sub: Subspace
    rad: Subspace
    a: Subspace
    gram: Matrix
    gram_a: Matrix


def radical_split(space: SymplecticSpace, sub: Subspace) -> RadicalSplit:
    """Split ``sub`` into the radical of the restricted form and a
    complement on which the form is nondegenerate.

    In coordinates over the rref basis the radical is the kernel of the
    k x k restricted Gram matrix.  The complement is spanned by the basis
    rows at the kernel's non-pivot positions: a kernel vector that is zero
    at every pivot is zero, so those rows meet the radical only in zero,
    and the output is deterministic.  Those rows are already reduced, so
    they are the complement's basis, with their own pivots, and its form
    is the matching block of the restricted Gram matrix.  All the defining
    properties are asserted before returning.
    """
    p, n = space.p, space.n
    if sub.p != p or sub.ambient_dim != n:
        raise DimensionMismatchError("subspace does not live on this space")
    b, bt = sub.basis, sub.basis.transpose()
    b_gram = b @ space.gram  # row i is the functional psi(b_i, -)
    gram_sub = b_gram @ bt  # k x k restricted form
    kernel = kernel_basis(gram_sub)
    # c is 1 at its pivot f and 0 at the kernel's other pivots, so b^T c is
    # 1 at sub's pivot f and 0 at the radical's other pivots: reduced rows
    rad = Subspace(p, n, Matrix._of(p, tuple([bt.matvec(c) for c in kernel.basis.entries]), n),
                   tuple([sub.pivots[f] for f in kernel.pivots]))
    kernel_pivots = set(kernel.pivots)
    kept = [i for i in range(sub.dim) if i not in kernel_pivots]
    a_space = Subspace(p, n, Matrix._of(p, tuple(b.entries[i] for i in kept), n),
                       tuple(sub.pivots[i] for i in kept))

    # both parts lie in sub, so they split it when their coefficient vectors
    # at sub's pivots, sub.dim of them, lead at distinct positions
    rows = rad.basis.entries + a_space.basis.entries
    leads = {next((i for i, c in enumerate(sub.pivots) if row[c]), None) for row in rows}
    if len(rows) != sub.dim or len(leads) != sub.dim or None in leads:
        raise InvariantError("radical and complement do not split the subspace")
    if any(any(b_gram.matvec(row)) for row in rad.basis.entries):
        raise InvariantError("radical vector pairs nontrivially inside the subspace")
    gram_a = Matrix._of(p, tuple([tuple([gram_sub.entries[i][j] for j in kept]) for i in kept]),
                        len(kept))
    if rref(gram_a)[2] != a_space.dim:
        raise InvariantError("complement form is degenerate")
    return RadicalSplit(sub=sub, rad=rad, a=a_space, gram=gram_sub, gram_a=gram_a)


def annihilator(space: SymplecticSpace, sub: Subspace, g: Sequence[int]) -> Subspace:
    """Functionals on ``sub`` (in the dual of its rref basis) killing ``g``.

    For g = 0 this is the whole dual; otherwise a hyperplane.  Raises when
    ``g`` lies outside the subspace.
    """
    coeffs = sub.member(g)
    if coeffs is None:
        raise ValueError("vector lies outside the subspace")
    return kernel_basis(Matrix._of(sub.p, (coeffs,), sub.dim))
