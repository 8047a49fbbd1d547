"""Catalogs of totally isotropic subspaces, and the perp chart of a vector.

Subspaces are enumerated through their reduced-row-echelon bases: for each
pivot pattern the rows are filled top to bottom, and the isotropy
conditions against the rows already placed form an affine-linear system in
the free entries of the next row.  Enumerating the solution set of that
system (particular solution plus kernel combinations, in a fixed order)
visits every isotropic subspace exactly once, deterministically, without
scanning the full row space.  The perp of a nonzero vector, its split
and the annihilator are written down from psi(g, -) alone (``perp_chart``).
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
    inv_mod,
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
        return IsotropicCatalog(p=space.p, m=space.m, r=r, count=expected, subspaces=subs)
    return _cached(space, ("catalog", r), build)


def _hyperplane(p: int, phi: Sequence[int]) -> Subspace:
    """Kernel of the nonzero functional ``phi``: with f its last nonzero
    position, the rows e_i - (phi_i/phi_f) e_f, i != f ascending, are its
    rref, the rows ``kernel_basis`` returns for the one-row matrix phi."""
    n, f = len(phi), max(i for i, c in enumerate(phi) if c)
    scale, free = -inv_mod(phi[f], p), tuple(i for i in range(n) if i != f)
    rows = tuple(tuple(int(j == i) if j != f else scale * phi[i] % p for j in range(n))
                 for i in free)
    return Subspace(p, n, Matrix._of(p, rows, n), free)


@dataclass(frozen=True)
class PerpChart:
    """The perp ``sub`` of a nonzero g, split as ``rad`` = <g> plus ``a``;
    the form on their rref bases (``gram``, ``gram_a``); and ``ann``, the
    functionals on ``sub`` (dual to its rref basis) killing g."""

    sub: Subspace
    rad: Subspace
    a: Subspace
    gram: Matrix
    gram_a: Matrix
    ann: Subspace


def perp_chart(space: SymplecticSpace, g: Sequence[int]) -> PerpChart:
    """The perp chart of the nonzero vector ``g``, with no product or kernel.

    g^perp is the hyperplane of phi = psi(g, -) = (-g_y, g_x); its rows are
    unit vectors plus multiples of e_f, f phi's last nonzero position, so
    its Gram matrix is the form on the pivots but in the row and column of
    f's partner.  The radical is <g>, with coordinates g at the pivots, led
    never at f, so the other rows span a complement.  The split, the
    radical's pairings and the complement's rank are asserted: together
    they prove that ``rad`` is the whole radical.
    """
    p, m, n = space.p, space.m, space.n
    if len(g) != n:
        raise DimensionMismatchError(f"vector length {len(g)} vs 2m = {n}")
    g = [c % p for c in g]
    if not any(g):
        raise ValueError("the perp chart needs a nonzero vector")
    phi = [-c % p for c in g[m:]] + g[:m]
    if sum(a * b for a, b in zip(phi, g)) % p:
        raise ValueError("vector lies outside the subspace")
    sub = _hyperplane(p, phi)
    idx, f, J = sub.pivots, max(i for i, c in enumerate(phi) if c), space.gram.entries
    rows = [[J[i][j] for j in idx] for i in idx]  # the form on the unit vectors
    q = f + m if f < m else f - m  # the one position pairing with e_f
    aq, sigma = q - (q > f), J[q][f]
    for b, row in enumerate(sub.basis.entries):  # row b is e_idx[b] + row[f] e_f
        if b != aq:
            rows[aq][b], rows[b][aq] = sigma * row[f] % p, -sigma * row[f] % p
    gram = Matrix._of(p, tuple(map(tuple, rows)), n - 1)
    coords = [g[i] for i in idx]  # g on sub's rref basis
    lead = next(a for a, c in enumerate(coords) if c)
    inv, kept = inv_mod(coords[lead], p), [a for a in range(n - 1) if a != lead]
    rad = Subspace(p, n, Matrix._of(p, (tuple(c * inv % p for c in g),), n), (idx[lead],))
    a_space = Subspace(p, n, Matrix._of(p, tuple(sub.basis.entries[a] for a in kept), n),
                       tuple(idx[a] for a in kept))
    gram_a = Matrix._of(p, tuple(tuple(rows[a][b] for b in kept) for a in kept), n - 2)
    chart = PerpChart(sub=sub, rad=rad, a=a_space, gram=gram, gram_a=gram_a,
                      ann=_hyperplane(p, coords))

    # both parts lie in sub, so they split it when their coefficient vectors
    # at sub's pivots, sub.dim of them, lead at distinct positions
    split_rows = chart.rad.basis.entries + chart.a.basis.entries
    leads = {next((a for a, c in enumerate(idx) if row[c]), None) for row in split_rows}
    if len(split_rows) != sub.dim or len(leads) != sub.dim or None in leads:
        raise InvariantError("radical and complement do not split the subspace")
    if any(sum(u[i] * v[m + i] - u[m + i] * v[i] for i in range(m)) % p
           for u in chart.rad.basis.entries for v in sub.basis.entries):
        raise InvariantError("radical vector pairs nontrivially inside the subspace")
    if rref(chart.gram_a)[2] != chart.a.dim:
        raise InvariantError("complement form is degenerate")
    return chart
