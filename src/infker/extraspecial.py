"""Central extensions of the translation group by a prime cyclic center.

Elements are pairs (z, v) with z in F_p and v in F_p^{2m}; the product
twists the v-addition by the bilinear cocycle

    beta(u, v) = u_{x1} v_{y1} + ... + u_{xm} v_{ym},

whose antisymmetrization is exactly the symplectic pairing of the ambient
space.  Everything here is computed by elementwise group arithmetic;
agreement with the linear-algebra picture (commutators landing on the
pairing, centralizer images equal to perps) is asserted or tested, never
assumed.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from typing import Iterator, Sequence

from .errors import SCAN_LIMIT, DimensionMismatchError, InvariantError, Record, bounded_count
from .prime_linalg import Subspace, _power_bits, check_prime
from .symplectic import SymplecticSpace


@total_ordering
class GroupElement(Record):
    """One element (z, v) of an extraspecial group."""

    __slots__ = ("group", "z", "v")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        g = self.group
        if other.group != g:
            raise DimensionMismatchError("elements from different groups")
        return GroupElement._make(g, *g.product(self.z, self.v, other.z, other.v))

    def inverse(self) -> "GroupElement":
        g = self.group
        neg = tuple(-a % g.p for a in self.v)
        # (z, v)(z', -v) = identity forces z' = beta(v, v) - z
        z = (g.cocycle(self.v, self.v) - self.z) % g.p
        return GroupElement._make(g, z, neg)

    def is_identity(self) -> bool:
        return self.z == 0 and not any(self.v)

    def order(self) -> int:
        acc = self
        n = 1
        while not acc.is_identity():
            acc = acc * self
            n += 1
            if n > self.group.p ** 2:
                raise InvariantError("element order exceeded p^2")
        return n

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.group.identity()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __lt__(self, other: "GroupElement") -> bool:
        return (self.z, self.v) < (other.z, other.v)

    def __str__(self) -> str:
        return f"({self.z}; {','.join(map(str, self.v))})"


class ExtraspecialGroup(Record):
    """The group of pairs (z, v) under the cocycle-twisted product."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int):
        check_prime(p)
        if m < 1:
            raise ValueError("need m >= 1")
        super().__init__(p, m)

    @property
    def n(self) -> int:
        return 2 * self.m

    def order(self) -> int:
        return self.p ** (1 + self.n)

    def order_bits(self) -> int:
        """Bit length of the order p^(2m+1), read without building it:
        ``_power_bits`` gives that of p^(2m+1) - 1, one shorter at p = 2."""
        return _power_bits(self.p, 1 + self.n) + (self.p == 2)

    def cocycle(self, u: Sequence[int], v: Sequence[int]) -> int:
        """beta(u, v): x-part of u against y-part of v."""
        m = self.m
        return sum(u[i] * v[m + i] for i in range(m)) % self.p

    def product(self, z: int, u: Sequence[int], w: int, v: Sequence[int]) -> tuple:
        """The group law on pairs: (z, u)(w, v) = (z + w + beta(u, v), u + v)."""
        return ((z + w + self.cocycle(u, v)) % self.p,
                tuple([(a + b) % self.p for a, b in zip(u, v)]))

    def element(self, z: int, v: Sequence[int]) -> GroupElement:
        if len(v) != self.n:
            raise DimensionMismatchError(f"vector length {len(v)} vs 2m = {self.n}")
        return GroupElement(self, z % self.p, tuple(a % self.p for a in v))

    def identity(self) -> GroupElement:
        return self.element(0, [0] * self.n)

    def generators(self) -> tuple:
        """The 2m standard lifts (0, e_i); they generate the whole group."""
        out = []
        for i in range(self.n):
            v = [0] * self.n
            v[i] = 1
            out.append(self.element(0, v))
        return tuple(out)

    def elements(self) -> Iterator[GroupElement]:
        """Every element, z outermost; refused past SCAN_LIMIT when called,
        not when first iterated."""
        bounded_count(self.order, SCAN_LIMIT, "group elements", self.order_bits())
        return (GroupElement(self, z, v) for z in range(self.p)
                for v in itertools.product(range(self.p), repeat=self.n))

    def space(self) -> SymplecticSpace:
        return SymplecticSpace(self.p, self.m)


def make_group(p: int, m: int) -> ExtraspecialGroup:
    return ExtraspecialGroup(p, m)


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """a b a^-1 b^-1, asserted central with z equal to the pairing."""
    g = a.group
    c = a * b * a.inverse() * b.inverse()
    expected = (g.cocycle(a.v, b.v) - g.cocycle(b.v, a.v)) % g.p
    if any(c.v) or c.z != expected:
        raise InvariantError("commutator is not the central pairing element")
    return c


def center(group: ExtraspecialGroup) -> tuple:
    """All central elements, found by scanning against the generators.

    Commuting with every generator implies commuting with all products,
    so the scan is a complete centrality test.  The result is asserted
    to be exactly the p central pairs (z, 0).
    """
    elements, gens = group.elements(), group.generators()
    out = []
    for h in elements:
        if all(h * g == g * h for g in gens):
            out.append(h)
    if len(out) != group.p or any(any(h.v) for h in out):
        raise InvariantError("center is not the expected central line")
    return tuple(sorted(out))


def centralizer_image(group: ExtraspecialGroup, a: GroupElement) -> Subspace:
    """Projection to F_p^{2m} of the centralizer of one element.

    Computed purely by group arithmetic; the collected image is asserted
    to be closed under the vector-space structure before packaging.
    """
    hits = set()
    for h in group.elements():
        if h * a == a * h:
            hits.add(h.v)
    sub = Subspace.from_rows(group.p, group.n, [list(v) for v in sorted(hits)])
    if len(hits) != group.p ** sub.dim:
        raise InvariantError("centralizer image is not a subspace")
    return sub


def abelian_preimage_check(group: ExtraspecialGroup, sub: Subspace) -> bool:
    """Whether the full preimage of a subspace is an abelian subgroup.

    Scans the pairs of preimage elements, each unordered pair of distinct
    lifts once (commuting is symmetric, and an element commutes with
    itself), multiplying (z, v) pairs by the group law directly; pair
    counts above the scan budget are refused rather than sampled.
    """
    if sub.p != group.p or sub.ambient_dim != group.n:
        raise DimensionMismatchError("subspace does not match the group")
    bounded_count(lambda: group.p ** (2 * sub.dim + 2), SCAN_LIMIT, "element pairs")
    lifts = [(z, v) for z in range(group.p) for v in sub.vectors()]
    return all(group.product(*a, *b) == group.product(*b, *a)
               for a, b in itertools.combinations(lifts, 2))


def group_type(group: ExtraspecialGroup) -> dict:
    """Isomorphism-type report: order, exponent, and the +/- label.

    For odd p the label comes from the exponent; for p = 2 from the Arf
    invariant of the squaring form q(v) = beta(v, v).  With this cocycle
    q vanishes on the standard basis pairs, so the type is always "+";
    the report still derives it from the actual element data.
    """
    p, m = group.p, group.m
    # every element order divides p^2, so the exponent is p^2 exactly
    # when some p-th power is nontrivial
    exponent = p
    for h in group.elements():
        if not (h ** p).is_identity():
            exponent = p * p
            break
    report = {"order": group.order(), "exponent": exponent}
    if p == 2:
        # Arf invariant of q over the standard hyperbolic pairs (x_i, y_i)
        q = [group.cocycle(g.v, g.v) for g in group.generators()]
        arf = sum(q[i] & q[m + i] for i in range(m)) % 2
        report["arf"] = arf
        report["type"] = "+" if arf == 0 else "-"
    else:
        report["type"] = "+" if exponent == p else "-"
    return report
