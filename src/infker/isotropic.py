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
from typing import Iterator, Sequence

from .errors import SCAN_LIMIT, DimensionMismatchError, InvariantError, Record, bounded_count
from .prime_linalg import (
    Matrix,
    Subspace,
    _power_bits,
    inv_mod,
    kernel_basis,
    rank,
    solve,
)
from .symplectic import SymplecticSpace, _cached


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


def _count_bits(p: int, m: int, r: int) -> int:
    """A lower bound on the bit length of ``count_isotropic(p, m, r)``, read
    without building it.  The count is the product over i = 1..r of
    (p^(2(m - i + 1)) - 1) / (p^i - 1) >= p^(2m - 3i + 2), so at least p^E,
    E = r(4m - 3r + 1)/2, whose bit length is read as
    ``ExtraspecialGroup.order_bits`` reads the group order's.  Exact at
    p = 2, r = 1; elsewhere at most two bits short."""
    return _power_bits(p, r * (4 * m - 3 * r + 1) // 2) + (p == 2) if 0 < r <= m else 0


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


class IsotropicCatalog(Record):
    """A complete, cached enumeration for one (p, m, r)."""

    __slots__ = ("p", "m", "r", "count", "subspaces")

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
        p, m = space.p, space.m
        expected = bounded_count(lambda: count_isotropic(p, m, r), SCAN_LIMIT, "subspaces",
                                 _count_bits(p, m, r))
        subs = tuple(iter_isotropic(space, r))
        if len(subs) != expected:
            raise InvariantError(
                f"enumerated {len(subs)} subspaces, closed form says {expected}"
            )
        if r:  # the zero subspace is isotropic with no form to read
            gram = space.gram
            for sub in subs:
                b = sub.basis
                if not (b @ gram @ b.transpose()).is_zero():
                    raise InvariantError("catalog contains a non-isotropic subspace")
        return IsotropicCatalog(p=space.p, m=space.m, r=r, count=expected, subspaces=subs)
    return _cached(space, ("catalog", r), build)


def _hyperplane_chart(p: int, phi: Sequence[int]) -> tuple:
    """(f, t) for the kernel of the nonzero functional ``phi``: f is its
    last nonzero position and t_b = -phi_u/phi_f at the other positions
    u = b + (b >= f), so the kernel's rref rows are e_u + t_b e_f."""
    f = len(phi) - 1 - next(i for i, c in enumerate(reversed(phi)) if c)
    scale = -inv_mod(phi[f], p)
    return f, tuple([scale * c % p for i, c in enumerate(phi) if i != f])


def _hyperplane(p: int, n: int, f: int, t: Sequence[int]) -> Subspace:
    """The hyperplane chart (f, t) on n positions as a Subspace: the rows
    e_u + t_b e_f, u != f ascending.  For the chart of a functional
    (``_hyperplane_chart``) these are byte for byte the rows that
    ``kernel_basis`` returns for its one-row matrix."""
    free = tuple(i for i in range(n) if i != f)
    rows = tuple(tuple(int(j == u) if j != f else tb for j in range(n))
                 for u, tb in zip(free, t))
    return Subspace(p, n, Matrix._make(p, rows, n), free)


def _perp_gram(space: SymplecticSpace, f: int) -> tuple:
    """The form on the unit vectors e_u, u != f: the Gram matrix of every
    perp whose chart is free but at f, before the row and column of f's
    partner are corrected.  Built once per (space, f)."""
    def build():
        J = space.gram.entries
        idx = [i for i in range(space.n) if i != f]
        return tuple(tuple(J[i][j] for j in idx) for i in idx)
    return _cached(space, ("perp_gram", f), build)


class PerpChart(Record):
    """The perp of a nonzero g, as the data that every one of its parts
    is written down from.

    g^perp is the hyperplane chart (f, c): its rref rows are e_u + c_b e_f,
    u = b + (b >= f).  ``gram`` holds the form on those rows.  The radical
    is <g>, whose coordinates on the rows are g off f, led at row
    ``lead``; the complement is the other rows.  The annihilator, the
    functionals on g^perp (dual to its rows) that kill g, is the
    hyperplane chart (f_ann, t) on 2m - 1 positions.  The Subspace and
    Matrix views ``sub``, ``gram_a`` and ``ann`` are built only when
    read.
    """

    __slots__ = ("p", "g", "f", "c", "gram", "lead", "f_ann", "t")

    @property
    def sub(self) -> Subspace:
        return _hyperplane(self.p, len(self.g), self.f, self.c)

    @property
    def gram_a(self) -> Matrix:
        b, rows = self.lead, self.gram[:self.lead] + self.gram[self.lead + 1:]
        return Matrix._make(self.p, tuple(row[:b] + row[b + 1:] for row in rows), len(rows))

    @property
    def ann(self) -> Subspace:
        return _hyperplane(self.p, len(self.c), self.f_ann, self.t)


def perp_chart(space: SymplecticSpace, g: Sequence[int]) -> PerpChart:
    """The perp chart of the nonzero vector ``g``, with no product, kernel
    or view.

    g^perp is the hyperplane of phi = psi(g, -) = (-g_y, g_x), charted at
    f, phi's last nonzero position; its rows are unit vectors plus
    multiples of e_f, so its Gram matrix is the form on the unit vectors,
    templated per (space, f), but in the row and column of f's partner.
    The radical is <g>, whose coordinates on the rows are g off f, led
    never at f; the annihilator is the hyperplane of those coordinates.
    On the chart's own data, three checks run: the radical's coordinates
    lead where the complement has no row (the split), psi(g, -) is
    phi_u + c_b phi_f = 0 on every row (the radical pairing), and the
    complement's form has full rank (rank only: no reduced matrix is read
    back).  Together they prove that <g> is the whole radical.  The rank
    is kept per space, keyed by the form's entries: most points share
    their complement form with others (30 forms for the 364 points at
    p = 3, m = 3), so each distinct form is eliminated once, and a form
    that differs in any entry is its own key.
    """
    p, m, n = space.p, space.m, space.n
    if len(g) != n:
        raise DimensionMismatchError(f"vector length {len(g)} vs 2m = {n}")
    g = [x % p for x in g]
    if not any(g):
        raise ValueError("the perp chart needs a nonzero vector")
    phi = [-x % p for x in g[m:]] + g[:m]
    if sum(a * b for a, b in zip(phi, g)) % p:
        raise ValueError("vector lies outside the subspace")
    f, c = _hyperplane_chart(p, phi)
    q = f + m if f < m else f - m  # the one position pairing with e_f
    aq, sigma = q - (q > f), space.gram.entries[q][f]
    rows = [list(row) for row in _perp_gram(space, f)]
    for b, cb in enumerate(c):  # row b is e_u + cb e_f, and psi(e_q, e_f) = sigma
        if b != aq:
            rows[aq][b], rows[b][aq] = sigma * cb % p, -sigma * cb % p
    coords = g[:f] + g[f + 1:]  # g on the rows
    lead = next(b for b, x in enumerate(coords) if x)
    f_ann, t = _hyperplane_chart(p, coords)
    chart = PerpChart(p, tuple(g), f, c, tuple(map(tuple, rows)), lead, f_ann, t)

    # the complement's rows lead at every row but ``lead``, so the parts
    # split g^perp when the radical's coordinates lead there
    if not coords[chart.lead] or any(coords[:chart.lead]):
        raise InvariantError("radical and complement do not split the subspace")
    if any((phi[b + (b >= f)] + cb * phi[f]) % p for b, cb in enumerate(chart.c)):
        raise InvariantError("radical vector pairs nontrivially inside the subspace")
    form = chart.gram_a
    if _cached(space, ("complement_rank", form.entries), lambda: rank(form)) != n - 2:
        raise InvariantError("complement form is degenerate")
    return chart
