"""The graded sandwich: image ideal inside the common vanishing kernel.

Per degree r this module computes two subspaces of the degree-r wedge
coordinates on F_p^{2m}:

* the ideal component, the image of wedging with the invariant 2-tensor
  from degree r - 2, and
* the vanishing space, the classes whose pullback to every Lagrangian
  subspace is zero: up to degree m, the divided-power ideal.

The first always sits inside the second; the dimension gap between them
is the interesting quantity.  For p > m the gap is zero in every degree
and this is asserted.  Otherwise the gap classes are reported in reduced
form (coordinates supported on monomials outside the ideal's pivot set),
and ``certificate`` checks, one vector at a time, that a class passes
every pointwise membership condition even when it lies outside the
ideal.

Both operators preserve the torus weight of a monomial, so both spaces
are kept as one local subspace per weight block (``_divided_power_parts``,
``_vanishing_parts``).  A block is written in pair coordinates, the
subsets K of its free set, where wedging with gamma^(j) is the inclusion
matrix conjugated by D = diag(epsilon(K)).  D is invertible and D^2 = I,
so the parts stay unsigned: one elimination of the inclusion matrices per
(s, k), shared by every block with those sizes, whose pivots are the
signed space's.  The signs are applied only where rows are printed or
paired: the assembled bases of ``ideal_component`` and
``vanishing_space``, the gap representatives, and the frame-wedge terms
of the pairing check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .errors import CatalogTooLargeError, InvariantError
from .exterior import (
    Multivector,
    _hyperplane_terms,
    _wedge_table,
    hyperplane_restriction,
    mono_rank,
    monomials,
    pullback_coords,
    pure_wedge_coords,
)
from .isotropic import perp_chart
from .prime_linalg import Matrix, Subspace, inv_mod, solve_rows
from .symplectic import (
    SymplecticSpace,
    _cached,
    _inclusion_columns,
    _pair_signs,
    _refuse_wider,
    assemble,
    dim_wedge,
    gamma,
    generator_transvections,
    torus_weight,
    weight_blocks,
)

#: Most nonzero vectors p^(2m) - 1 that ``certificate`` checks, the same
#: budget as ``Subspace.vectors`` and the group scans.
CERTIFICATE_LIMIT = 10 ** 6

#: Most C(2m, r) that ``ideal_component`` and ``vanishing_space`` serve,
#: and most C(2m, m) for the vanishing space up to degree m: C(12, 6).
VANISHING_LIMIT = 924


@lru_cache(maxsize=None)
def _inclusion_rref(p: int, s: int, k: int, js: tuple) -> Subspace:
    """The rref of the unsigned inclusion matrices W_{k-j,k}(s), j in
    ``js``, stacked: row K' has a 1 at each k-subset of range(s) holding
    it, both in colex order.  Eliminated once per key in the process."""
    d = dim_wedge(s, k)
    return Subspace.from_rows(p, d, [[int(i in holders) for i in range(d)]
                                     for j in js for holders in _inclusion_columns(s, k - j, k)])


def _divided_power_parts(space: SymplecticSpace, r: int, js: tuple) -> dict:
    """The span of the images of gamma^(j) ^ from degree r - 2j over the j
    in ``js``, one local subspace per torus weight, unsigned.  On the block
    of x_I ^ y_J ^ prod_{a in K} x_a ^ y_a, K a k-subset of the s-element
    free set, gamma^(j) ^ is D' W_{k-j,k}(s) D with D = diag(epsilon(K)), so
    the block's canonical subspace is its (s, k)'s shared
    ``_inclusion_rref`` moved by ``_signed``; the part is that rref
    itself."""
    def build():
        p, m, parts = space.p, space.m, {}
        for w in weight_blocks(m, r)[0] if 2 * min(js, default=r + 1) <= r else ():  # O(m) each
            s = w.count(0)
            k = (r - m + s) // 2
            used = tuple([j for j in js if j <= k])
            if used:
                parts[w] = _inclusion_rref(p, s, k, used)
        return parts
    return _cached(space, ("divided_power_parts", r, js), build)


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
    return Subspace(p, d, Matrix._of(p, rows, d), part.pivots)


def _assemble_signed(space: SymplecticSpace, r: int, parts: dict) -> Subspace:
    """The degree-r subspace whose block of weight w is ``parts[w]`` moved
    by its signs, in colex coordinates."""
    p, m = space.p, space.m
    return assemble(p, m, r, {w: _signed(p, w, (r - m + w.count(0)) // 2, part)
                              for w, part in parts.items()})


def ideal_component(space: SymplecticSpace, r: int) -> Subspace:
    """Degree-r part of the ideal generated by the invariant 2-tensor:
    the image of the lowering operator out of degree r - 2."""
    _refuse_wider(space.n, r, VANISHING_LIMIT)
    return _cached(space, ("ideal", r), lambda: _assemble_signed(
        space, r, _divided_power_parts(space, r, (1,))))


def quotient_basis(space: SymplecticSpace, r: int) -> tuple:
    """Monomials whose classes form a basis of degree r modulo the ideal.

    These are the colex monomials at the non-pivot columns of the ideal's
    reduced basis, listed in colex order.
    """
    parts = _divided_power_parts(space, r, (1,))
    blocks = weight_blocks(space.m, r)[0] if parts else {}
    pivots = {blocks[w][c] for w, part in parts.items() for c in part.pivots}
    return tuple(
        mono for k, mono in enumerate(monomials(space.n, r))
        if k not in pivots
    )


def _frame_wedges(space: SymplecticSpace) -> list:
    """Per generator transvection t, the wedges of t(x1)..t(xr) and of
    t(y1)..t(yr) for r = 0..m: prefix products of sparse degree-1
    Multivectors."""
    def build():
        p, m, chains = space.p, space.m, []
        one = Multivector.one(p, m)
        for t in generator_transvections(space):
            images = [Multivector._of(p, m, {(i,): c for i, c in enumerate(col)})
                      for col in zip(*t.entries)]  # the columns t(e_q)
            chain = [(one, one)]
            for q in range(m):
                chain.append(tuple(wedge.wedge(images[a])
                                   for wedge, a in zip(chain[-1], (q, m + q))))
            chains.append(chain)
        return chains
    return _cached(space, ("frame_wedges",), build)


def _vanishing_parts(space: SymplecticSpace, r: int) -> dict:
    """The vanishing space in degree r <= m, one unsigned local subspace per
    torus weight: the divided-power ideal (images of gamma^(j) ^ from
    degree r - 2j, j >= 1), which vanishes on every Lagrangian.  Its
    dimension C(2m, r - 2), the annihilator's, is asserted, and every row
    is checked to pair to zero with the images of x1 ^ ... ^ xr and
    y1 ^ ... ^ yr under the generator transvections; the y-frame images
    reach the blocks that hold pairs x_k ^ y_k.  A signed row is an
    unsigned row u times D, up to a sign, so it pairs to zero with the
    wedge's terms c_i exactly when sum_i c_i eps_i u_i does: the signs are
    read only for the blocks those terms touch."""
    def build():
        p, m, n = space.p, space.m, space.n
        _refuse_wider(n, m, VANISHING_LIMIT)
        parts = _divided_power_parts(space, r, tuple(range(1, r // 2 + 1)))
        dim = sum(part.dim for part in parts.values())
        if dim != dim_wedge(n, r - 2):
            raise InvariantError(f"degree {r}: divided-power ideal has dimension {dim}")
        slot, signs = weight_blocks(m, r)[1], {}
        for chain in _frame_wedges(space):  # those along x1, y1 fix the seeds
            for wedge in chain[r]:
                support = {}  # weight -> (local slot, coefficient) of the wedge's terms
                for mono, c in wedge.terms.items():
                    support.setdefault(torus_weight(m, mono), []).append((slot[mono_rank(mono)], c))
                for w, terms in support.items():
                    if w not in parts:
                        continue
                    if p != 2:
                        if w not in signs:
                            signs[w] = _pair_signs(w, (r - m + w.count(0)) // 2)
                        terms = [(i, c * signs[w][i]) for i, c in terms]
                    if any(sum(c * row[i] for i, c in terms) % p
                           for row in parts[w].basis.entries):
                        raise InvariantError(
                            f"degree {r}: a vanishing class pairs with an isotropic wedge")
        return parts
    return _cached(space, ("vanishing_parts", r), build)


def vanishing_space(space: SymplecticSpace, r: int) -> Subspace:
    """Classes of degree r that pull back to zero on every Lagrangian.

    Pulling back to a Lagrangian pairs the class against the wedges of
    r-subsets of its basis, so the vanishing space is the annihilator of
    the isotropic span; above degree m there is nothing to pair against.
    Up to degree m it is the divided-power ideal, checked as described in
    ``_vanishing_parts``.
    """
    def build():
        if r > space.m:
            _refuse_wider(space.n, r, VANISHING_LIMIT)
            return Subspace.full(space.p, dim_wedge(space.n, r))
        return _assemble_signed(space, r, _vanishing_parts(space, r))
    return _cached(space, ("vanishing", r), build)


@dataclass(frozen=True)
class KernelSandwich:
    """Both spaces' dimensions at one degree, with the gap spelled out."""

    p: int
    m: int
    r: int
    ideal_dim: int
    vanishing_dim: int
    gap: int
    gap_classes: tuple

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "degree": self.r,
            "ideal_dim": self.ideal_dim,
            "vanishing_dim": self.vanishing_dim,
            "gap": self.gap,
            "gap_classes": [str(c) for c in self.gap_classes],
        }


def sandwich(space: SymplecticSpace, r: int) -> KernelSandwich:
    """Compute both spaces at degree r and certify the containment.

    Both spaces stay one unsigned local subspace per torus weight, shared
    by the blocks with the same free-set size s (and so the same k).  D is
    invertible, so the signed ideal lies in the signed vanishing space
    exactly when the unsigned one does, and reducing modulo the ideal
    commutes with D: the containment and the reduction are taken once per
    s, and only the gap representatives are moved to each block by its
    signs.  Each representative goes from its local row straight to a
    Multivector, and they are listed by the colex rank of their pivots,
    the order of the dense rref.  Above degree m every block vanishes
    whole, so its representatives are the unit vectors off the ideal's
    pivots.

    Raises InvariantError if the ideal ever escapes the vanishing space;
    that containment is unconditional.
    """
    p, m, n = space.p, space.m, space.n
    blocks, monos = weight_blocks(m, r)[0], monomials(n, r)
    ideal = _divided_power_parts(space, r, (1,))
    ideal_dim, reps = sum(part.dim for part in ideal.values()), []
    if r > m:
        vanishing_dim = dim_wedge(n, r)
        for w, ranks in blocks.items():
            pivots = set(ideal[w].pivots) if w in ideal else ()
            reps += [(k, {monos[k]: 1}) for i, k in enumerate(ranks) if i not in pivots]
    else:
        vanish = _vanishing_parts(space, r)
        vanishing_dim = sum(part.dim for part in vanish.values())
        if any(w not in vanish for w in ideal):
            raise InvariantError(f"degree {r}: ideal class escapes the vanishing space")
        gaps = {}  # s -> the vanishing rows reduced modulo the ideal, rref, or None
        for w, vanish_w in vanish.items():
            s = w.count(0)
            if s not in gaps:
                ideal_w = ideal.get(w)
                if ideal_w and any(vanish_w.member(row) is None
                                   for row in ideal_w.basis.entries):
                    raise InvariantError(f"degree {r}: ideal class escapes the vanishing space")
                res = [ideal_w.residual(row) if ideal_w else row
                       for row in vanish_w.basis.entries]
                gaps[s] = (Subspace.from_rows(p, vanish_w.ambient_dim, res)
                           if any(map(any, res)) else None)
            if gaps[s] is not None:
                ranks = blocks[w]
                red = _signed(p, w, (r - m + s) // 2, gaps[s])
                reps += [(ranks[c], {monos[ranks[i]]: v for i, v in enumerate(row) if v})
                         for row, c in zip(red.basis.entries, red.pivots)]
    gap = vanishing_dim - ideal_dim
    if len(reps) != gap:
        raise InvariantError(
            f"degree {r}: reduced representatives span {len(reps)}, gap is {gap}"
        )
    reps.sort(key=lambda rep: rep[0])
    classes = tuple(Multivector(p, m, terms) for _, terms in reps)
    return KernelSandwich(p=p, m=m, r=r, ideal_dim=ideal_dim,
                          vanishing_dim=vanishing_dim, gap=gap, gap_classes=classes)


def theorem1_verify(space: SymplecticSpace) -> tuple:
    """The sandwich in every degree 0..2m.

    For p > m the two spaces are asserted equal degreewise, so any gap
    raises InvariantError.  For p <= m gaps are legitimate output.
    """
    out = []
    for r in range(space.n + 1):
        s = sandwich(space, r)
        if space.p > space.m and s.gap:
            raise InvariantError(
                f"p > m but degree {r} has gap {s.gap}"
            )
        out.append(s)
    return tuple(out)


def counterexample(space: SymplecticSpace) -> Optional[Multivector]:
    """The first gap class at the lowest defective degree, reduced to
    standard-monomial form; None when every degree collapses."""
    for r in range(space.n + 1):
        s = sandwich(space, r)
        if s.gap:
            return s.gap_classes[0]
    return None


@dataclass(frozen=True)
class CertificateRecord:
    """Outcome of the membership test at one nonzero vector, together
    with the structure of the perp: its radical and the dimension of a
    complement carrying a nondegenerate form."""

    g: tuple
    dim_perp: int
    dim_radical: int
    dim_complement: int
    dim_annihilator: int
    vacuous: bool
    member: bool
    witness: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.vacuous or self.member

    def to_json(self) -> dict:
        return {
            "g": list(self.g),
            "dim_perp": self.dim_perp,
            "dim_radical": self.dim_radical,
            "dim_complement": self.dim_complement,
            "dim_annihilator": self.dim_annihilator,
            "vacuous": self.vacuous,
            "member": self.member,
            "ok": self.ok,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class CertificateReport:
    """Per-vector membership outcomes for one homogeneous class."""

    p: int
    m: int
    degree: int
    target: Multivector
    records: tuple

    @property
    def overall(self) -> bool:
        return all(rec.ok for rec in self.records)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "degree": self.degree,
            "target": str(self.target),
            "overall": self.overall,
            "checked": len(self.records),
            "vacuous": sum(1 for rec in self.records if rec.vacuous),
            "records": [rec.to_json() for rec in self.records],
        }


def _gram_form(gram: tuple) -> tuple:
    """Degree-2 coordinates of the form whose Gram matrix has the rows
    ``gram``: coordinate (a, b), a < b, is entry (a, b).  On a subspace's
    rref basis this is the pullback of gamma = sum x_i ^ y_i, whose
    coordinate (a, b) sums the minors b_a[i] b_b[m + i] - b_a[m + i] b_b[i]
    into psi(b_a, b_b)."""
    return tuple(gram[a][b] for a, b in monomials(len(gram), 2))


def _form_wedge_columns(p: int, k: int, degree: int, omega_rest, mus) -> list:
    """Coordinates of the restricted form wedged with each monomial in
    ``mus`` (colex ranks of degree - 2) on the k-dimensional perp, one
    column per monomial."""
    omega_terms = [(ia, c) for ia, c in enumerate(omega_rest) if c]
    table, size, cols = _wedge_table(k, 2, degree - 2), dim_wedge(k, degree), []
    for mu in mus:
        col = [0] * size
        for ia, c in omega_terms:
            hit = table[ia][mu]
            if hit is not None:
                col[hit[1]] += hit[0] * c
        cols.append(tuple([v % p for v in col]))
    return cols


@lru_cache(maxsize=None)
def _system_plan(k: int, degree: int) -> tuple:
    """The form-wedge entries of the certificate's system on a k-dimensional
    perp: per degree-``degree`` monomial R, the (column mu, pair R - mu,
    sign) with mu inside R, by colex rank; ``_wedge_table`` transposed."""
    rows = [[] for _ in range(dim_wedge(k, degree))]
    for pair, row in enumerate(_wedge_table(k, 2, degree - 2)):
        for mu, hit in enumerate(row):
            if hit is not None:
                rows[hit[1]].append((mu, pair, hit[0]))
    return tuple(map(tuple, rows))


def _generator(p: int, k: int, degree: int, omega_rest, ann: Subspace,
               ident) -> Optional[tuple]:
    """Coordinates of the generator that an identity record names on the
    k-dimensional perp, or None when the record names no generator."""
    kind = ident.get("kind") if isinstance(ident, dict) else None
    if kind == "form_wedge":
        positions, nvars, r = ident.get("monomial"), k, degree - 2
    elif kind == "annihilator_wedge":
        positions, nvars, r = ident.get("rows"), ann.dim, degree
    else:
        return None
    if not (isinstance(positions, list)
            and all(type(c) is int for c in positions)
            and tuple(positions) in monomials(nvars, r)):
        return None
    if kind == "annihilator_wedge":
        return pure_wedge_coords([ann.basis.entries[i] for i in positions], k, p)
    return _form_wedge_columns(p, k, degree, omega_rest, [mono_rank(tuple(positions))])[0]


def certificate(space: SymplecticSpace, target: Multivector) -> CertificateReport:
    """Check, for every nonzero vector g, that the restriction of the
    target to the perp of g lies in the span of (restricted 2-form) wedge
    (anything) plus top wedges of functionals annihilating g.

    Vectors whose restriction of the target vanishes pass vacuously.
    Witness coefficient lists are stored for the non-vacuous passes so
    the membership can be replayed independently.  The test runs once per
    projective point, at the g whose first nonzero entry is 1: c * g has
    the same perp, restriction, annihilator and witness, so its record is
    g's with only g replaced.  Each point works from its perp chart's
    data alone: the restriction is the closed form
    ``hyperplane_restriction``, and the system is written row by row (at
    p = 2 one packed int a row) from ``_system_plan`` at the chart's Gram
    form, the annihilator's ``_hyperplane_terms`` at its t, and the
    restriction, in the generators' column order; identity records are
    built only for a witness's nonzero coefficients.  Spaces with more than
    CERTIFICATE_LIMIT nonzero vectors are refused with
    CatalogTooLargeError before the first perp is built.
    """
    if target.p != space.p or target.m != space.m:
        raise ValueError("class does not live on this space")
    if target.is_zero():
        raise ValueError("class is zero")
    degree = target.degree()
    if degree < 2:
        raise ValueError("degree must be at least 2")
    p, n = space.p, space.n
    nonzero = p ** n - 1
    if nonzero > CERTIFICATE_LIMIT:
        raise CatalogTooLargeError(nonzero, CERTIFICATE_LIMIT, "vectors")
    # g^perp has dimension k, its radical <g> dimension 1, and the
    # complement and the annihilator dimension k - 1; the generators are
    # the form wedged with each monomial, then the annihilator's wedges
    # in lex order of their rows, the order ``_hyperplane_terms`` lists
    k = n - 1
    monos = monomials(k, degree - 2)
    subsets = list(itertools.combinations(range(k - 1), degree))
    plan, ncols = _system_plan(k, degree), len(monos) + len(subsets)

    def identity(j: int) -> dict:
        if j < len(monos):
            return {"kind": "form_wedge", "monomial": list(monos[j])}
        return {"kind": "annihilator_wedge", "rows": list(subsets[j - len(monos)])}

    records = []
    by_point = {}  # normalized g -> its record; product order lists it first
    for g in itertools.product(range(p), repeat=n):
        lead = next((c for c in g if c), 0)
        if lead > 1:
            inv = inv_mod(lead, p)
            records.append(replace(by_point[tuple(c * inv % p for c in g)], g=g))
            continue
        if not lead:
            continue
        chart = perp_chart(space, g)
        rest = hyperplane_restriction(n, p, chart.f, chart.c, degree, target.terms)
        coeffs = witness = None
        if any(rest):
            omega, t = _gram_form(chart.gram), chart.t
            ann = enumerate(_hyperplane_terms(k, chart.f_ann, degree)[0].values(), len(monos))
            if p == 2:
                rows = [sum([1 << mu for mu, pair, _ in entries if omega[pair]]) | v << ncols
                        for entries, v in zip(plan, rest)]
                for j, (unit, terms) in ann:
                    rows[unit] |= 1 << j
                    for rank, _, b in terms:
                        rows[rank] |= t[b] << j
            else:
                rows = [[0] * ncols + [v] for v in rest]
                for row, entries in zip(rows, plan):
                    for mu, pair, sign in entries:
                        row[mu] = sign * omega[pair] % p
                for j, (unit, terms) in ann:
                    rows[unit][j] = 1
                    for rank, sign, b in terms:
                        rows[rank][j] = sign * t[b] % p
            coeffs = solve_rows(p, rows, ncols)
            if coeffs is not None:
                witness = {"terms": [{"coeff": c, **identity(j)}
                                     for j, c in enumerate(coeffs) if c]}
        by_point[g] = CertificateRecord(
            g=g, dim_perp=k, dim_radical=1, dim_complement=k - 1,
            dim_annihilator=k - 1, vacuous=not any(rest),
            member=coeffs is not None, witness=witness,
        )
        records.append(by_point[g])
    return CertificateReport(p=p, m=space.m, degree=degree,
                             target=target, records=records)


def verify_certificate_record(space: SymplecticSpace, target: Multivector,
                              record: CertificateRecord) -> bool:
    """Replay a stored witness from its generator identities alone.

    Returns True when the witness terms rebuild exactly the restriction
    of the target (or when the record is a vacuous pass and the
    restriction really is zero).  A malformed witness term, one that
    names no generator at this vector, returns False.
    """
    degree, chart = target.degree(), perp_chart(space, record.g)
    f = chart.sub.basis.transpose()
    rest = pullback_coords(f, degree, target.terms)
    if record.vacuous:
        return not any(rest)
    terms = record.witness.get("terms") if isinstance(record.witness, dict) else None
    if not record.member or not isinstance(terms, list):
        return False
    # the form pulled back by minors cross-checks the one certificate read
    # off the chart's Gram matrix
    omega_rest = pullback_coords(f, 2, gamma(space).terms)
    p, k = space.p, chart.sub.dim
    total = [0] * dim_wedge(k, degree)
    for term in terms:
        vec = _generator(p, k, degree, omega_rest, chart.ann, term)
        if vec is None or type(term.get("coeff")) is not int:
            return False
        c = term["coeff"]
        total = [(t + c * v) % p for t, v in zip(total, vec)]
    return tuple(total) == tuple(rest)
