"""Symplectic structure on F_p^{2m} and the graded operator triple.

Conventions, fixed once for the whole package:

* Coordinates are ordered x1 < ... < xm < y1 < ... < ym; position i < m is
  x_{i+1} and position m + i is y_{i+1}.
* The alternating form pairs the hyperbolic partners to 1: psi(xi, yi) = 1,
  psi(yi, xi) = -1, and every other basis pairing is 0.
* gamma = sum_i xi ^ yi is the invariant 2-form; its dual carries the
  opposite sign on each term.

The graded triple consists of the lowering operator (left wedge by gamma,
raising degree by 2 in this grading), the raising operator (a signed
contraction dropping degree by 2), and the weight operator acting as
(m - r) on degree r.  The contraction carries one global sign SIGMA,
calibrated so that the three matrices satisfy the standard bracket
relations over every prime; ``calibrate_sigma`` recomputes that choice
from scratch and the test suite pins it.

The triple has two encodings.  The termwise action on Multivectors
(``x_minus``, ``x_plus``) serves user classes.  Everything else runs on
the torus-weight block maps in pair coordinates (``_block_map``,
``_inclusion_rref``), one (s, k) at a time: the bracket checks, the
primitive pieces, ``decompose`` and the rank probe.
"""

from __future__ import annotations

import bisect
import itertools
import warnings
from functools import lru_cache
from math import comb
from typing import Sequence

from .errors import (
    PRINTABLE_BITS,
    SCAN_LIMIT,
    DecompositionDefectError,
    FieldMismatchError,
    HomogeneityError,
    InvariantError,
    PrimitivityError,
    Record,
    bounded_count,
)
from .exterior import Multivector, VariableOrder, mono_rank, monomials, rank_one_wedge
from .prime_linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    check_prime,
    inv_mod,
    kernel_basis,
    rref,
    solve,
    sum_and_intersection,
)

#: Global sign on the raising operator.  With the bare contraction formula
#: the bracket of raising and lowering comes out as +(m - r) on degree r;
#: the triple closes up with the opposite sign, so every raising matrix is
#: scaled by -1.  This is the only sign choice that works for odd primes
#: (for p = 2 the two choices coincide); recorded in every report.
SIGMA = -1

#: Largest middle-degree dimension C(2m, m) the closure engine serves:
#: C(10, 5), so m <= 5.  Every closure on a larger space is refused
#: before any compound is built.
CLOSURE_LIMIT = 252

#: Largest middle-degree dimension C(2m, m) that ``sl2_check`` serves:
#: C(16, 8), so m <= 8; ``decompose`` and ``ladder`` refuse past it too.
TRIPLE_LIMIT = 12870


def dim_wedge(n: int, r: int) -> int:
    """Dimension of the degree-r graded piece on n coordinates."""
    return comb(n, r) if 0 <= r <= n else 0


def _capped_comb_product(pairs) -> int:
    """The product of C(n, r) over the (n, r) in ``pairs``, grown one factor
    (n - i) / (i + 1) at a time and stopped once past PRINTABLE_BITS: exact
    up to there, and past it a lower bound, since no step shrinks it."""
    count = 1
    for n, r in pairs:
        count *= int(0 <= r <= n)
        for i in range(min(r, n - r)):
            count = count * (n - i) // (i + 1)
            if count.bit_length() > PRINTABLE_BITS:
                return count
    return count


def _refuse_wider(n: int, r: int, limit: int):
    """Refuse more than ``limit`` degree-r wedge coordinates, C(n, r) read
    by ``_capped_comb_product``, so huge n refuse at once."""
    bounded_count(lambda: _capped_comb_product([(n, r)]), limit, f"degree-{r} wedge coordinates")


class SymplecticSpace(Record):
    """F_p^{2m} with the standard alternating form and its cached operators.
    The 2m x 2m Gram matrix is built on first read, so a space too large
    for it can still be constructed and refused by what it is asked.  Two
    spaces are equal by (p, m); the cache is state, never compared."""

    __slots__ = ("p", "m", "_cache")

    def __init__(self, p: int, m: int):
        check_prime(p)
        if m < 1:
            raise ValueError(f"need m >= 1, got {m}")
        super().__init__(p, m)

    @property
    def order(self) -> VariableOrder:
        return VariableOrder(self.m)

    @property
    def gram(self) -> Matrix:
        """The Gram matrix of the form, checked when it is built: alternating
        with zero diagonal, and nondegenerate (the matrix is its own
        certificate, but check anyway)."""
        gram = self._cache.get("gram")
        if gram is None:
            p, m, n = self.p, self.m, self.n
            rows = [[0] * n for _ in range(n)]
            for i in range(m):
                rows[i][m + i] = 1
                rows[m + i][i] = (-1) % p
            gram = Matrix(p, rows, cols=n)
            if any(gram.entries[i][i] for i in range(n)):
                raise InvariantError("form has a nonzero self-pairing")
            if not (gram + gram.transpose()).is_zero():
                raise InvariantError("form is not alternating")
            if rref(gram)[2] != n:
                raise InvariantError("form is degenerate")
            self._cache["gram"] = gram
        return gram

    @property
    def n(self) -> int:
        return 2 * self.m

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """psi(u, v) as an integer in [0, p)."""
        return sum(a * b for a, b in zip(self.gram.matvec(v), u)) % self.p


def _check_value(space: SymplecticSpace, a: Multivector):
    if a.p != space.p or a.m != space.m:
        raise FieldMismatchError(
            f"value over (p={a.p}, m={a.m}) does not live on {space!r}"
        )


def gamma(space: SymplecticSpace) -> Multivector:
    """The invariant 2-form, sum of xi ^ yi."""
    return Multivector(space.p, space.m,
                       {(i, space.m + i): 1 for i in range(space.m)})


def x_minus(space: SymplecticSpace, a: Multivector) -> Multivector:
    """Lowering operator: left wedge by gamma."""
    _check_value(space, a)
    return gamma(space).wedge(a)


def _x_plus_mono(m: int, mono: tuple, sigma: int):
    """Termwise raising action on one monomial: signed pair removals."""
    out = []
    where = {c: i for i, c in enumerate(mono)}
    for i0, c in enumerate(mono):
        j0 = where.get(c + m) if c < m else None
        if j0 is None:
            continue
        # psi of the pair is 1; the contraction contributes
        # (-psi) * (-1)^(i+j) with 1-based slots i, j, so with 0-based
        # slots the factor is -((-1)^(i0+j0)), all times the global sign
        sign = sigma if ((i0 + j0) & 1) else -sigma
        out.append((sign, tuple(x for t, x in enumerate(mono) if t not in (i0, j0))))
    return out


def x_plus(space: SymplecticSpace, a: Multivector, sigma: int = SIGMA) -> Multivector:
    """Raising operator: the signed contraction against the dual 2-form."""
    _check_value(space, a)
    p, m = space.p, space.m
    terms: dict = {}
    for mono, coeff in a.terms.items():
        for sign, reduced in _x_plus_mono(m, mono, sigma):
            terms[reduced] = (terms.get(reduced, 0) + sign * coeff) % p
    return Multivector(p, m, terms)


def h_op(space: SymplecticSpace, a: Multivector) -> Multivector:
    """Weight operator: multiplies the degree-r piece by (m - r)."""
    _check_value(space, a)
    terms = {mono: (space.m - len(mono)) * coeff for mono, coeff in a.terms.items()}
    return Multivector(space.p, space.m, terms)


# ---------------------------------------------------------------------------
# operator maps: torus-weight blocks in pair coordinates


def _cached(space: SymplecticSpace, key, build):
    cache = space._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def torus_weight(m: int, mono: tuple) -> tuple:
    """The torus weight e_I - e_J in {-1, 0, 1}^m of x_I ^ y_J, whatever
    pairs x_k ^ y_k it also holds."""
    w = [0] * m
    for a in mono:
        w[a % m] += 1 if a < m else -1
    return tuple(w)


def _weights(m: int, s: int):
    """The C(m, s) 2^(m - s) torus weights with s free positions: the free
    set in lex order, then the signs of the other positions."""
    for free in itertools.combinations(range(m), s):
        for signs in itertools.product((1, -1), repeat=m - s):
            fill = iter(signs)
            yield tuple([0 if a in free else next(fill) for a in range(m)])


def assemble(p: int, m: int, r: int, parts: dict) -> Subspace:
    """The canonical subspace of degree r whose block of each torus weight w
    with s free positions is the unsigned ``parts[s]`` moved by its signs.
    Blocks have disjoint supports, so the rows of all blocks, sorted by
    pivot, are the rref."""
    d, rows = dim_wedge(2 * m, r), []
    for s, part in parts.items():
        k = (r - m + s) // 2
        for w in _weights(m, s):
            signed = _signed(p, w, k, part)
            ranks = [mono_rank(mono) for mono in _block_monomials(m, w, k)]
            for row, pivot in zip(signed.basis.entries, signed.pivots):
                vec = [0] * d
                for c, v in zip(ranks, row):
                    vec[c] = v
                rows.append((ranks[pivot], tuple(vec)))
    rows.sort()
    return Subspace(p, d, Matrix._make(p, tuple([row for _, row in rows]), d),
                    tuple([pivot for pivot, _ in rows]))


def _pair_signs(w: tuple, k: int) -> tuple:
    """epsilon(K) for the k-subsets K of the free set {a : w_a = 0}, in
    colex order of K: the sign that sorts x_I ^ y_J ^ prod_{a in K} x_a ^ y_a
    into its monomial, (-1)^(C(k, 2) + |J| k + sum_{a in K} #{i in I u J : i > a})."""
    later = [sum(map(abs, w[a + 1:])) for a, v in enumerate(w) if not v]
    base = k * (k - 1) // 2 + w.count(-1) * k
    return tuple([-1 if (base + sum([later[a] for a in mono])) & 1 else 1
                  for mono in monomials(len(later), k)])


def _block_signs(p: int, w: tuple, k: int) -> tuple:
    """``_pair_signs(w, k)`` as seen mod p: at p = 2 every sign is 1."""
    return _pair_signs(w, k) if p != 2 else (1,) * dim_wedge(w.count(0), k)


@lru_cache(maxsize=None)
def _inclusion_columns(s: int, k: int, t: int) -> tuple:
    """The inclusion map from the k-subsets of range(s) to its t-subsets, by
    columns: per k-subset in colex order, the ascending colex indices of the
    t-subsets that hold it (t > k) or that it holds (t < k).  For t > k
    these are the columns of W_{k,t}(s), for t < k those of W_{t,k}(s)^T.
    Refused when its two pools of subsets hold more than SCAN_LIMIT
    positions, once per key: the top degree's key (m, m) lists about m^2."""
    bounded_count(lambda: dim_wedge(s, k) * k + dim_wedge(s, t) * t, SCAN_LIMIT, "subset positions")
    rows = [sum(1 << a for a in mono) for mono in monomials(s, t)]
    return tuple(tuple([i for i, row in enumerate(rows) if row & col == (col if t > k else row)])
                 for col in (sum(1 << a for a in mono) for mono in monomials(s, k)))


def _block_map(p: int, s: int, k: int, t: int, scale: int, eps: tuple, eps_t: tuple) -> SparseMatrix:
    """A torus-weight block's map from its k-pair to its t-pair monomials in
    pair coordinates (the subsets K of its s-element free set): scale times
    D_t W D_k, with W from ``_inclusion_columns`` and D = diag(epsilon) from
    ``eps`` and ``eps_t``.  The left wedge by gamma^(j) is t = k + j with
    scale 1, since products of pairs commute; the raising operator is
    t = k - 1 with scale sigma, since it takes x_a ^ y_a to sigma."""
    return SparseMatrix._make(p, dim_wedge(s, t), tuple(
        tuple([(i, scale * e * eps_t[i] % p) for i in col])
        for col, e in zip(_inclusion_columns(s, k, t), eps)))


@lru_cache(maxsize=None)
def _inclusion_rref(p: int, s: int, k: int, js: tuple) -> Subspace:
    """The rref of the unsigned inclusion matrices W_{k-j,k}(s), j in
    ``js``, stacked: row K' has a 1 at each k-subset of range(s) holding
    it, both in colex order.  Eliminated once per key in the process."""
    d = dim_wedge(s, k)
    return Subspace.from_rows(p, d, [[int(i in holders) for i in range(d)]
                                     for j in js for holders in _inclusion_columns(s, k - j, k)])


def _signed(p: int, w: tuple, k: int, part: Subspace) -> Subspace:
    """An unsigned canonical subspace of the block of weight w with k
    pairs, moved by D = diag(epsilon(K)): column c scaled by eps[c], then
    each row by eps at its pivot, which keeps the rref and its pivots.
    At p = 2 every sign is 1 and the part is returned as it is."""
    if p == 2:
        return part
    eps, d = _pair_signs(w, k), part.ambient_dim
    rows = tuple(tuple([v if e == eps[c] else -v % p for v, e in zip(row, eps)])
                 for row, c in zip(part.basis.entries, part.pivots))
    return Subspace(p, d, Matrix._make(p, rows, d), part.pivots)


def _block_keys(m: int, r: int):
    """(s, k, count) for the torus-weight blocks of degree r: a block with
    s free positions holds k = (r - m + s) / 2 pairs, 0 <= k <= s, so
    s >= |r - m| with the parity of r - m, and C(m, s) 2^(m - s) weights
    have s free positions."""
    for s in range(abs(r - m), m + 1, 2):
        yield s, (r - m + s) // 2, comb(m, s) << (m - s)


@lru_cache(maxsize=None)
def _block_split(p: int, s: int, k: int) -> tuple:
    """How a block with k pairs on an s-element free set splits into its
    primitive part and the image of the lowering map from k - 1 pairs:
    (the unsigned kernel of the raising block map, the dimension of its
    overlap with the image ``_inclusion_rref(p, s, k, (1,))``, the
    codimension of their sum).  D is invertible, so the dimensions are the
    signed block's, and ``_signed`` moves the kernel to each block."""
    d = dim_wedge(s, k)
    prim = kernel_basis(_block_map(p, s, k, k - 1, SIGMA, (1,) * d,
                                   (1,) * dim_wedge(s, k - 1)).to_dense())
    total, overlap = sum_and_intersection(prim, _inclusion_rref(p, s, k, (1,)))
    return prim, overlap.dim, d - total.dim


def _block_monomials(m: int, w: tuple, k: int) -> tuple:
    """The monomials x_I ^ y_J ^ prod_{a in K} x_a ^ y_a of the block of
    weight w, over the k-subsets K of its free set in colex order."""
    unpaired = [a for a, v in enumerate(w) if v == 1] + [m + a for a, v in enumerate(w) if v == -1]
    free = [a for a, v in enumerate(w) if not v]
    return tuple(tuple(sorted(unpaired + [q for a in mono for q in (free[a], m + free[a])]))
                 for mono in monomials(len(free), k))


def _block_slot(m: int, w: tuple, mono: tuple) -> int:
    """The index of ``mono`` in ``_block_monomials`` of its weight w: the
    colex rank of its pairs K inside the free set."""
    free = [a for a, v in enumerate(w) if not v]
    return mono_rank(tuple([i for i, a in enumerate(free) if a in mono]))


def _colex_matrix(space: SymplecticSpace, r: int, t: int, op) -> Matrix:
    """The dense colex matrix from degree r to degree t of a termwise
    operator, one column per unit monomial."""
    p, m, cols = space.p, space.m, dim_wedge(space.n, r)
    entries = [[0] * cols for _ in range(dim_wedge(space.n, t))]
    for j, mono in enumerate(monomials(space.n, r)):
        for image, c in op(Multivector(p, m, {mono: 1})).terms.items():
            entries[mono_rank(image)][j] = c
    return Matrix(p, entries, cols=cols)


def x_minus_matrix(space: SymplecticSpace, r: int) -> Matrix:
    """Matrix of the lowering operator from degree r to degree r + 2."""
    return _colex_matrix(space, r, r + 2, lambda a: x_minus(space, a))


def x_plus_matrix(space: SymplecticSpace, r: int, sigma: int = SIGMA) -> Matrix:
    """Matrix of the raising operator from degree r to degree r - 2."""
    return _colex_matrix(space, r, r - 2, lambda a: x_plus(space, a, sigma))


# ---------------------------------------------------------------------------
# bracket relations


class DegreeCheck(Record):
    """The bracket relations at degree r: [raise, lower] = -(weight),
    [weight, raise] = 2 raise, [weight, lower] = -2 lower, and the weight
    acting by m - r."""

    __slots__ = ("r", "bracket_ok", "raise_shift_ok", "lower_shift_ok", "weight_ok")

    @property
    def ok(self) -> bool:
        return (self.bracket_ok and self.raise_shift_ok
                and self.lower_shift_ok and self.weight_ok)


class Sl2Report(Record):
    __slots__ = ("p", "m", "sigma", "ok", "degrees")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "sigma": self.sigma,
            "ok": self.ok,
            "degrees": [
                {
                    "r": d.r,
                    "bracket_ok": d.bracket_ok,
                    "raise_shift_ok": d.raise_shift_ok,
                    "lower_shift_ok": d.lower_shift_ok,
                    "weight_ok": d.weight_ok,
                }
                for d in self.degrees
            ],
        }


@lru_cache(maxsize=None)
def _block_relations(p: int, s: int, k: int, sigma: int, shift: int) -> tuple:
    """The four relations of ``DegreeCheck`` on the torus-weight blocks
    with k pairs on an s-element free set, where the weight acts by
    m - r = -shift, as exact equations between sparse maps in pair
    coordinates.  The maps are the unsigned inclusions (unit signs): a
    block's true maps are these conjugated by D = diag(epsilon(K)) on
    each side, and since D^2 = I the conjugation cancels in every
    product, so each relation holds on the signed maps exactly when it
    holds here."""
    below, here, above = [(1,) * dim_wedge(s, t) for t in (k - 1, k, k + 1)]
    d = len(here)
    lower = _block_map(p, s, k, k + 1, 1, here, above)
    raising = _block_map(p, s, k, k - 1, sigma, here, below)
    weight = SparseMatrix.diagonal(p, d, -shift)
    bracket = (_block_map(p, s, k + 1, k, sigma, above, here) @ lower
               - _block_map(p, s, k - 1, k, 1, below, here) @ raising)
    return (
        bracket == SparseMatrix.diagonal(p, d, shift),
        (SparseMatrix.diagonal(p, raising.rows, 2 - shift) @ raising
         - raising @ weight) == raising.scale(2),
        (SparseMatrix.diagonal(p, lower.rows, -2 - shift) @ lower
         - lower @ weight) == lower.scale(-2),
        weight == SparseMatrix.diagonal(p, d, 1).scale(-shift),
    )


def sl2_check(space: SymplecticSpace, sigma: int = SIGMA) -> Sl2Report:
    """Verify the full set of bracket relations degree by degree.

    Every operator preserves the torus weight, so each relation holds on a
    degree exactly when it holds on each of its torus-weight blocks.  A
    block of degree r = m - s + 2k is fixed up to the signs epsilon(K) by
    its (s, k), and the signs cancel in every relation
    (``_block_relations``), so the relations are checked once per (s, k)
    with 0 <= k <= s <= m, as exact equations between sparse maps; nothing
    is assumed from the construction.  Spaces whose middle degree has
    more than TRIPLE_LIMIT coordinates are refused with
    CatalogTooLargeError before any map is built.
    """
    p, m, n = space.p, space.m, space.n
    _refuse_wider(n, m, TRIPLE_LIMIT)
    flags = [(True,) * 4 for _ in range(n + 1)]
    for s in range(m + 1):
        for k in range(s + 1):
            r = m - s + 2 * k
            ok = _block_relations(p, s, k, sigma % p, (r - m) % p)
            flags[r] = tuple([a and b for a, b in zip(flags[r], ok)])
    checks = tuple(DegreeCheck(r, *ok) for r, ok in enumerate(flags))
    return Sl2Report(p=p, m=m, sigma=sigma, ok=all(c.ok for c in checks), degrees=checks)


def calibrate_sigma(space: SymplecticSpace) -> tuple:
    """All global signs under which the bracket relations close up.

    Over odd primes exactly one of {+1, -1} works; over p = 2 the two
    candidates coincide, so both are reported.
    """
    return tuple(s for s in (1, -1) if sl2_check(space, sigma=s).ok)


# ---------------------------------------------------------------------------
# ladders


class LadderSequence(Record):
    """A string of vectors generated downward from a primitive seed.

    entry nu is ((-1)^nu / nu!) times the nu-fold lowering of the seed;
    the divided-power normalization keeps every index below p, where the
    factorials stay invertible.  The sequence stops at the first zero or
    at index p - 1, whichever comes first.
    """

    __slots__ = ("start", "weight", "entries")

    def __len__(self) -> int:
        return len(self.entries)


def ladder(space: SymplecticSpace, seed: Multivector) -> LadderSequence:
    """Build the ladder from a primitive homogeneous seed and verify the
    three recurrences it must satisfy; refused past TRIPLE_LIMIT
    coordinates in the widest degree it may reach."""
    _check_value(space, seed)
    if seed.is_zero():
        raise HomogeneityError("ladder seed must be nonzero")
    r = seed.degree()
    p, m = space.p, space.m
    if r > m:
        raise ValueError(f"seed degree {r} exceeds m = {m}")
    # entries and their checks reach degree r + 2p at most; C(2m, .) peaks at m
    _refuse_wider(space.n, min(m, r + 2 * p), TRIPLE_LIMIT)
    if not x_plus(space, seed).is_zero():
        raise PrimitivityError("seed is not annihilated by the raising operator")
    lam = (m - r) % p

    entries = [seed]
    while len(entries) <= p - 1:
        nu = len(entries) - 1
        lowered = x_minus(space, entries[-1])
        nxt = lowered.scale(-inv_mod(nu + 1, p))
        if nxt.is_zero():
            break
        entries.append(nxt)

    # recurrences, verified rather than trusted
    for nu, e in enumerate(entries):
        if h_op(space, e) != e.scale(lam - 2 * nu):
            raise InvariantError(f"weight recurrence fails at index {nu}")
        lowered = x_minus(space, e)
        if nu + 1 < len(entries):
            if lowered != entries[nu + 1].scale(-(nu + 1)):
                raise InvariantError(f"lowering recurrence fails at index {nu}")
        elif nu + 1 <= p - 1:
            if not lowered.is_zero():
                raise InvariantError("sequence stopped before its lowering vanished")
        raised = x_plus(space, e)
        expect = (Multivector.zero(p, m) if nu == 0
                  else entries[nu - 1].scale(lam - nu + 1))
        if raised != expect:
            raise InvariantError(f"raising recurrence fails at index {nu}")
    return LadderSequence(start=seed, weight=lam, entries=tuple(entries))


# ---------------------------------------------------------------------------
# primitive pieces and isotropic spans


def primitive_basis(space: SymplecticSpace, r: int) -> Subspace:
    """Kernel of the raising operator on degree r, canonical basis: one
    kernel per (s, k) of the raising block map in pair coordinates
    (``_block_split``), moved to each torus-weight block by its signs.
    Refused past VANISHING_LIMIT coordinates, as ``ideal_component`` is."""
    from .inflation import VANISHING_LIMIT  # inflation imports this module
    p, m = space.p, space.m
    _refuse_wider(space.n, r, VANISHING_LIMIT)
    return _cached(space, ("primitive", r), lambda: assemble(
        p, m, r, {s: _block_split(p, s, k)[0] for s, k, _ in _block_keys(m, r)}))


def isotropic_span_basis(space: SymplecticSpace, r: int) -> Subspace:
    """Span of the wedges of bases of all isotropic r-dimensional subspaces.

    The symplectic group is transitive on isotropic r-subspaces (Witt), so
    the span is the submodule generated by x1 ^ ... ^ xr.  That closure
    lies inside the span, and the span is a quotient of the Weyl module of
    dimension C(2m, r) - C(2m, r - 2); asserting that dimension at the end
    therefore proves the closure is the whole span.  Every basis vector is
    also checked to be primitive by the termwise raising operator.
    """
    p, m, n = space.p, space.m, space.n
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r > m:
        warnings.warn(f"no isotropic subspaces of dimension {r} > m = {m}; span is zero")
        return Subspace.zero(p, dim_wedge(n, r))

    def build():
        seed = Multivector(p, m, {tuple(range(r)): 1})
        span = submodule_closure(space, r, [seed])
        if any(not x_plus(space, Multivector.from_coords(p, m, r, row)).is_zero()
               for row in span.basis.entries):
            raise InvariantError("isotropic wedge escaped the primitive subspace")
        expected = dim_wedge(n, r) - dim_wedge(n, r - 2)
        if span.dim != expected:
            raise InvariantError(
                f"isotropic span has dimension {span.dim}, expected {expected}"
            )
        return span
    return _cached(space, ("isotropic_span", r), build)


def decompose(space: SymplecticSpace, alpha: Multivector):
    """Split a homogeneous value into primitive part plus lowered part.

    Returns (e, beta) with alpha = e + gamma ^ beta, e primitive.  When
    the primitive subspace and the lowered image fail to meet trivially or
    to span (possible once p <= m), the defect dimensions, summed over the
    torus-weight blocks of the class's degree (``_block_split``), are
    reported via :class:`DecompositionDefectError` before any solve.
    Otherwise only the blocks the class touches are solved, each on its
    signed primitive rows, then its signed lowering columns in pair order,
    free variables 0: the system is block diagonal, so this is the whole
    degree's solution.  Refused past TRIPLE_LIMIT coordinates in the
    class's degree; below degree 2 the class is its own primitive part,
    answered with nothing of size m built.
    """
    _check_value(space, alpha)
    if alpha.is_zero():
        z = Multivector.zero(space.p, space.m)
        return z, z
    r = alpha.degree()
    p, m, n = space.p, space.m, space.n
    if r > m:
        raise ValueError(f"degree {r} exceeds m = {m}")
    _refuse_wider(n, r, TRIPLE_LIMIT)
    if r < 2:  # nothing lowers into degrees 0 and 1, so the class is primitive
        return alpha, Multivector.zero(p, m)
    defect = [sum(count * _block_split(p, s, k)[i] for s, k, count in _block_keys(m, r))
              for i in (1, 2)]
    if any(defect):
        raise DecompositionDefectError(*defect)
    touched, e_terms, beta_terms = {}, {}, {}
    for mono, c in alpha.terms.items():
        touched.setdefault(torus_weight(m, mono), {})[mono] = c
    for w, terms in touched.items():
        s = w.count(0)
        k = (r - m + s) // 2
        prim = _signed(p, w, k, _block_split(p, s, k)[0]).basis.entries
        lower = _block_map(p, s, k - 1, k, 1, _block_signs(p, w, k - 1),
                           _block_signs(p, w, k)).to_dense()
        cols, monos = list(prim) + list(zip(*lower.entries)), _block_monomials(m, w, k)
        sol = solve(Matrix(p, zip(*cols), cols=len(cols)), [terms.get(mono, 0) for mono in monos])
        if sol is None:
            raise InvariantError("decomposition solve failed after span check")
        for i, mono in enumerate(monos):
            e_terms[mono] = sum(c * row[i] for c, row in zip(sol, prim))
        beta_terms.update(zip(_block_monomials(m, w, k - 1), sol[len(prim):]))
    e, beta = Multivector(p, m, e_terms), Multivector(p, m, beta_terms)
    if alpha != e + x_minus(space, beta):
        raise InvariantError("decomposition does not reassemble")
    return e, beta


class ProbeReport(Record):
    __slots__ = ("r", "rank", "corank", "injective", "surjective")


def injectivity_surjectivity_probe(space: SymplecticSpace, r: int) -> ProbeReport:
    """Exact rank data for the lowering operator out of degree r.  The map
    is block diagonal, and on a degree-(r + 2) block with k >= 1 pairs it
    is the inclusion W_{k-1,k}(s) up to signs, so its rank is the sum of
    those blocks' ``_inclusion_rref`` dimensions (Wilson's F_p-ranks);
    no matrix of the degree is built."""
    p, m, n = space.p, space.m, space.n
    rk = sum(count * _inclusion_rref(p, s, k, (1,)).dim
             for s, k, count in _block_keys(m, r + 2) if k)
    rows, cols = dim_wedge(n, r + 2), dim_wedge(n, r)
    return ProbeReport(
        r=r,
        rank=rk,
        corank=rows - rk,
        injective=rk == cols,
        surjective=rk == rows,
    )


# ---------------------------------------------------------------------------
# transvections and generated submodules


def _generator_directions(m: int) -> list:
    """x1..xm, y1..ym and x_i + x_{i+1}: the 3m - 1 transvection
    directions that generate the symplectic group."""
    n = 2 * m
    units = [[int(j == i) for j in range(n)] for i in range(n)]
    return units + [[int(j in (i, i + 1)) for j in range(n)]
                    for i in range(m - 1)]


def _transvection(space: SymplecticSpace, v: Sequence[int]) -> tuple:
    """The transvection x -> x + psi(x, v) v as rank-one data (a, u): e_i
    goes to e_i + a_i v, a_i = psi(e_i, v), and u is v as (k, v_k) pairs.
    The form is checked entrywise: psi(t e_i, t e_j) - psi(e_i, e_j) =
    a_i (a_j + psi(v, e_j) + a_j psi(v, v)) for i < j, and p is prime, so
    the second factor must vanish past the first nonzero a_i."""
    p, rows, u = space.p, space.gram.entries, [(k, c) for k, c in enumerate(v) if c]
    a = [sum(row[k] * c for k, c in u) % p for row in rows]
    b = [sum(c * rows[k][j] for k, c in u) for j in range(len(v))]  # psi(v, e_j)
    c = sum(a[k] * x for k, x in u)  # psi(v, v)
    first = next((i for i, x in enumerate(a) if x), len(a))
    if any((a[j] * (1 + c) + b[j]) % p for j in range(first + 1, len(a))):
        raise InvariantError("transvection does not preserve the form")
    return a, u


def _transvections(space: SymplecticSpace) -> tuple:
    """The transvections along the 3m - 1 generator directions."""
    return _cached(space, ("transvections",), lambda: tuple(
        _transvection(space, v) for v in _generator_directions(space.m)))


def _rank_one_compound(p: int, r: int, a: Sequence[int], u: Sequence[tuple]) -> SparseMatrix:
    """The degree-r compound of e_i -> e_i + a_i u from ``rank_one_wedge``."""
    n = len(a)
    return SparseMatrix._make(p, dim_wedge(n, r), tuple(
        tuple(sorted((mono_rank(t), c) for t, c in rank_one_wedge(mono, a, u, p).items()))
        for mono in monomials(n, r)))


def _transvection_compounds(space: SymplecticSpace, r: int) -> tuple:
    return _cached(space, ("tv_compound", r), lambda: tuple(
        _rank_one_compound(space.p, r, a, u) for a, u in _transvections(space)))


def submodule_closure(space: SymplecticSpace, r: int, seeds: Sequence[Multivector]) -> Subspace:
    """Smallest subspace of degree r containing the seeds and stable under
    the induced action of the symplectic group.

    The group is generated by the 3m - 1 transvections along x1..xm,
    y1..ym and x_i + x_{i+1}.  Negating the pairs (x_j, y_j) for every
    other j is symplectic and, since t_{-v} = t_v, conjugates them to the
    transvections along x_i, y_i and x_i - x_{i+1}: the homology actions
    of Lickorish's Dehn-twist generators of the mapping class group,
    which generate Sp(2m, Z), and Sp(2m, Z) maps onto Sp(2m, F_p).  Each
    generator has finite order, so closure under the generators alone is
    exactly invariance under the group.  A transvection is the rank-one
    map e_i -> e_i + psi(e_i, v) v, so its degree-r compound is written
    column by column in closed form (``rank_one_wedge``), with no dense
    matrix and no minor.

    Spaces whose middle degree has more than CLOSURE_LIMIT coordinates
    are refused with CatalogTooLargeError before any compound is built.
    """
    p, m, n = space.p, space.m, space.n
    _refuse_wider(n, m, CLOSURE_LIMIT)
    # echelon rows (pivot, row), 1 at the pivot and 0 left of it, by pivot;
    # each new vector is reduced against them and appended once, normalised
    echelon, frontier = [], []

    def absorb(vec):
        res = list(vec)
        for c, row in echelon:
            if res[c]:
                f = res[c]
                res = [(a - f * b) % p for a, b in zip(res, row)]
        lead = next((i for i, v in enumerate(res) if v), None)
        if lead is not None:
            inv = inv_mod(res[lead], p)
            bisect.insort(echelon, (lead, [v * inv % p for v in res]))
            frontier.append(vec)

    for s in seeds:
        _check_value(space, s)
        if not s.is_zero() and s.degrees() != (r,):
            raise HomogeneityError(f"seed {s} is not homogeneous of degree {r}")
        absorb(s.coords(r))
    compounds = _transvection_compounds(space, r)
    while frontier:
        vec = frontier.pop()
        for mat in compounds:
            absorb(mat.matvec(vec))
    return Subspace.from_rows(p, dim_wedge(n, r), [row for _, row in echelon])


# ---------------------------------------------------------------------------
# irreducibility predicate


class PremetReport(Record):
    __slots__ = ("p", "m", "r", "product", "divisible", "sufficient_bound_holds", "irreducible")

    def to_json(self) -> dict:
        return {
            "p": self.p, "m": self.m, "r": self.r,
            "product": self.product,
            "divisible": self.divisible,
            "sufficient_bound_holds": self.sufficient_bound_holds,
            "irreducible": self.irreducible,
        }


def premet_suprunenko(p: int, m: int, r: int) -> PremetReport:
    """Arithmetic irreducibility test for the degree-r primitive piece.

    The criterion multiplies C(m - (r + j)/2 + 1, (r - j)/2) over the j
    between 0 and r of the same parity as r; the piece is irreducible
    exactly when p does not divide the product.  Everything is exact
    integer arithmetic.  The simpler sufficient bound p > m - r/2 + 1 is
    reported alongside (compared as 2p > 2m - r + 2 to stay integral).
    A product past PRINTABLE_BITS is refused, as ``group --op order`` is,
    before it is multiplied out.
    """
    check_prime(p)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not 0 <= r <= m:
        raise ValueError(f"degree {r} out of range 0..{m}")
    product = bounded_count(lambda: _capped_comb_product(
        (m - (r + j) // 2 + 1, (r - j) // 2) for j in range(r % 2, r + 1, 2)),
        1 << PRINTABLE_BITS, "as the product")
    divisible = product % p == 0
    return PremetReport(
        p=p, m=m, r=r,
        product=product,
        divisible=divisible,
        sufficient_bound_holds=2 * p > 2 * m - r + 2,
        irreducible=not divisible,
    )
