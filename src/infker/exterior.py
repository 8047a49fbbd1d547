"""Exterior algebra over F_p with an explicit monomial calculus.

The low-level layer works over an arbitrary number of coordinates: a
monomial is a strictly increasing tuple of 0-based positions, and the
degree-r monomials are ordered colexicographically.  That ordering gives
every monomial a rank through the combinatorial number system, so graded
pieces get stable coordinates and operators become plain matrices.

On top of that sits :class:`Multivector`, the user-facing value for the
symplectic setting: 2m variables named x1..xm, y1..ym (in that order),
with a text grammar and a JSON form for round-tripping.
"""

from __future__ import annotations

import bisect
import itertools
import re
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import (
    SCAN_LIMIT,
    DimensionMismatchError,
    FieldMismatchError,
    HomogeneityError,
    ParseError,
    Record,
    bounded_count,
)
from .prime_linalg import Matrix, check_prime

Mono = tuple  # strictly increasing tuple of 0-based positions


# ---------------------------------------------------------------------------
# monomial order and ranking


@lru_cache(maxsize=None)
def monomials(nvars: int, r: int) -> tuple:
    """All degree-r monomials on ``nvars`` positions, in colex order."""
    if r < 0 or r > nvars:
        return ()
    if r == 0:  # ``combinations`` would copy the whole pool first
        return ((),)
    return tuple(sorted(itertools.combinations(range(nvars), r),
                        key=lambda mono: mono[::-1]))


def mono_rank(mono: Mono) -> int:
    """Colex rank of a monomial among all monomials of its degree.

    The combinatorial number system: rank = sum of C(c_i, i) over the
    1-based positions i of the entries c_i.
    """
    if any(a >= b for a, b in zip(mono, mono[1:])):
        raise ValueError(f"monomial positions must strictly increase: {mono}")
    return _colex_rank(mono)


def _colex_rank(mono: Mono) -> int:
    """``mono_rank`` without the check, for monomials that increase by
    construction, as the table builders' do."""
    return sum([comb(c, i + 1) for i, c in enumerate(mono)])


def wedge_monomials(a: Mono, b: Mono):
    """Merge two monomials into one, tracking the transposition sign.

    Returns (sign, merged) with sign in {1, -1}, or None when the factors
    share a position (the product is zero).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    merged = []
    inversions = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the len(a) - i remaining entries of a
            inversions += len(a) - i
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1) ** (inversions & 1), tuple(merged)


def sort_to_monomial(positions: Sequence[int]):
    """Sort wedge factors into a monomial; None when a position repeats."""
    if len(set(positions)) != len(positions):
        return None
    sign = 1
    order = list(positions)
    # insertion sort keeps the transposition count exact
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(order)


# ---------------------------------------------------------------------------
# compounds and pullbacks: every minor is a wedge coordinate


def rank_one_wedge(mono: Mono, a: Sequence[int], u: Sequence[tuple], p: int) -> dict:
    """Nonzero terms of the wedge over i in I = ``mono`` of e_i + a_i u mod
    p, u given as (k, u_k) pairs: two factors along u wedge to zero, so it
    is e_I plus a_i times e_I with e_i replaced by u, for each i in I with
    a_i nonzero.  That is column I of the compound of e_i -> e_i + a_i u."""
    terms = {mono: 1}
    for pos, i in enumerate(mono):
        if a[i]:
            rest = mono[:pos] + mono[pos + 1:]
            for k, c in u:
                if k not in rest:  # e_k takes i's slot, then moves to slot j
                    j = bisect.bisect_left(rest, k)
                    target = rest[:j] + (k,) + rest[j:]
                    terms[target] = (terms.get(target, 0) + (-1) ** abs(pos - j) * a[i] * c) % p
    return {t: c for t, c in terms.items() if c}


def pure_wedge_coords(rows: Sequence[Sequence[int]], nvars: int, p: int) -> tuple:
    """Colex coordinates of the wedge of the given vectors.

    ``rows`` is an r x nvars array; coordinate I of the result is the
    r x r minor on columns I.  The rows are wedged in one at a time,
    starting from the degree-0 unit, so only nonzero entries are merged.
    """
    acc = (1,)
    for deg, row in enumerate(rows):
        acc = wedge_coords(nvars, p, deg, acc, 1, row)
    return acc


def pullback_coords(f: Matrix, r: int, terms: dict) -> tuple:
    """Colex coordinates of the pullback along ``f`` of one degree-r class.

    ``terms`` is the class as ``{monomial: coeff}`` on the rows of ``f``
    (the shape of :attr:`Multivector.terms`).  The pullback of x_I is the
    wedge of the rows of ``f`` indexed by I, so only the minors on the
    class's own monomials are taken; the result is the class's coordinates
    times the transposed compound of ``f``.  Refused when the widest wedge
    table those minors read, ``_wedge_table(f.cols, d, 1)`` with
    d = min(r - 1, f.cols // 2), holds more than SCAN_LIMIT entries.
    """
    p, n = f.p, f.cols
    bounded_count(lambda: comb(n, min(r - 1, n // 2)) * n if r else 0, SCAN_LIMIT,
                  "wedge-table entries")
    out = [0] * comb(n, r)
    for mono, coeff in terms.items():
        if len(mono) != r:
            raise DimensionMismatchError(f"monomial {mono} does not have degree {r}")
        vec = pure_wedge_coords([f.entries[i] for i in mono], f.cols, p)
        out = [(a + coeff * b) % p for a, b in zip(out, vec)]
    return tuple(out)


@lru_cache(maxsize=None)
def _hyperplane_terms(nvars: int, f: int, r: int) -> tuple:
    """The wedges of r rows of a hyperplane chart, as positions and signs.

    Row b of the chart at ``f`` is e_u + t_b e_f, u = b + (b >= f): a
    basis of a hyperplane on ``nvars`` positions with one row per position
    other than f, its rref rows when f is the last position its functional
    reads.  The wedge of rows B, with U = u(B), is e_U plus, for
    each b in B, (-1)^s t_b e_{U - u + f}, s the number of positions of U
    strictly between u and f; every other term takes e_f twice.  Returns
    (by_rows, by_mono): by_rows maps B, in lex order, to (rank of U, ((rank
    of U - u + f, sign, b), ...)); by_mono maps each degree-r monomial I on ``nvars``
    positions to the transpose, (rank of B with U = I or None, ((rank of
    B, sign, b), ...)), ranks colex.
    """
    by_rows, units, hits = {}, {}, {}
    for rows in itertools.combinations(range(nvars - 1), r):
        us, rank_b = tuple(b + (b >= f) for b in rows), _colex_rank(rows)
        terms = []
        for i, b in enumerate(rows):
            others = us[:i] + us[i + 1:]
            j = bisect.bisect(others, f)  # f moves past |i - j| positions of U
            sign, mono = -1 if (i - j) & 1 else 1, others[:j] + (f,) + others[j:]
            terms.append((_colex_rank(mono), sign, b))
            hits.setdefault(mono, []).append((rank_b, sign, b))
        by_rows[rows] = (_colex_rank(us), tuple(terms))
        units[us] = rank_b
    by_mono = {mono: (units.get(mono), tuple(hits.get(mono, ())))
               for mono in itertools.combinations(range(nvars), r)}
    return by_rows, by_mono


def hyperplane_restriction(nvars: int, p: int, f: int, t: Sequence[int], r: int,
                           terms: dict) -> tuple:
    """Colex coordinates, on the nvars - 1 rows of the hyperplane chart
    (f, t), of the restriction of one degree-r class given as
    ``{monomial: coeff}`` on ``nvars`` positions.  Coordinate B is the
    class at the wedge of rows B, which is e_U plus the signed t_b at
    U - u + f, so this reads ``_hyperplane_terms`` by monomial: what
    ``pullback_coords`` gives along the transposed rows, with no minor."""
    table = _hyperplane_terms(nvars, f, r)[1]
    out = [0] * comb(nvars - 1, r)
    for mono, coeff in terms.items():
        if len(mono) != r:
            raise DimensionMismatchError(f"monomial {mono} does not have degree {r}")
        unit, entries = table[mono]
        if unit is not None:
            out[unit] += coeff
        for rank, sign, b in entries:
            out[rank] += sign * t[b] * coeff
    return tuple([v % p for v in out])


@lru_cache(maxsize=None)
def _wedge_table(nvars: int, deg_a: int, deg_b: int) -> tuple:
    """Products of monomials by colex rank: entry [ia][ib] is (sign, rank)
    of monomial ia of degree deg_a wedged with monomial ib of degree deg_b,
    or None when they share a position."""
    monos_b = monomials(nvars, deg_b)
    table = []
    for ma in monomials(nvars, deg_a):
        row = []
        for mb in monos_b:
            merged = wedge_monomials(ma, mb)
            row.append(None if merged is None else (merged[0], _colex_rank(merged[1])))
        table.append(tuple(row))
    return tuple(table)


def wedge_coords(nvars: int, p: int, deg_a: int, vec_a: Sequence[int],
                 deg_b: int, vec_b: Sequence[int]) -> tuple:
    """Wedge two coordinate vectors of pure degrees into one of degree
    deg_a + deg_b, all in colex coordinates on ``nvars`` positions."""
    out = [0] * comb(nvars, deg_a + deg_b)
    table = _wedge_table(nvars, deg_a, deg_b)
    terms_b = [(ib, cb) for ib, cb in enumerate(vec_b) if cb]
    for ia, ca in enumerate(vec_a):
        if not ca:
            continue
        row = table[ia]
        for ib, cb in terms_b:
            hit = row[ib]
            if hit is not None:
                out[hit[1]] += hit[0] * ca * cb
    # from a list, so that the tuple is allocated at its exact length
    return tuple([v % p for v in out])


# ---------------------------------------------------------------------------
# named variables and multivectors


_VAR_RE = re.compile(r"([xy])([0-9]+)$")


class VariableOrder(Record):
    """The fixed variable order x1 < ... < xm < y1 < ... < ym."""

    __slots__ = ("m",)

    @property
    def nvars(self) -> int:
        return 2 * self.m

    def name(self, position: int) -> str:
        if not 0 <= position < 2 * self.m:
            raise ValueError(f"position {position} out of range for m = {self.m}")
        if position < self.m:
            return f"x{position + 1}"
        return f"y{position - self.m + 1}"

    def position(self, name: str) -> int:
        match = _VAR_RE.match(name)
        if not match:
            raise ValueError(f"unknown variable {name!r}")
        letter, idx = match.group(1), int(match.group(2))
        if not 1 <= idx <= self.m:
            raise ValueError(f"variable index out of range in {name!r} (m = {self.m})")
        return idx - 1 if letter == "x" else self.m + idx - 1

    def mono_name(self, mono: Mono) -> str:
        if not mono:
            return "1"
        return "^".join(self.name(c) for c in mono)


class Multivector(Record):
    """An element of the exterior algebra on x1..xm, y1..ym over F_p.

    Terms are stored sparsely as {monomial: coefficient} with coefficients
    normalized into [1, p), behind a read-only ``MappingProxyType``: a
    write to ``terms`` raises TypeError, so the value and its hash stay
    fixed.  All arithmetic returns new values.  The hash is taken over the
    terms sorted; copy and pickle pass them as a plain dict.
    """

    __slots__ = ("p", "m", "terms")

    def __init__(self, p: int, m: int, terms: Optional[dict] = None):
        check_prime(p)
        if m < 1:
            raise ValueError(f"need at least one hyperbolic pair, got m = {m}")
        n = 2 * m
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if any(not 0 <= c < n for c in mono):
                raise ValueError(f"monomial {mono} out of range for 2m = {n}")
            if any(a >= b for a, b in zip(mono, mono[1:])):
                raise ValueError(f"monomial positions must strictly increase: {mono}")
            coeff %= p
            if coeff:
                clean[mono] = coeff
        super().__init__(p, m, MappingProxyType(clean))

    @classmethod
    def _of(cls, p: int, m: int, terms: dict) -> "Multivector":
        """Wrap valid monomials whose coefficients are already in [0, p);
        the zero ones are dropped."""
        return cls._make(p, m, MappingProxyType({mono: c for mono, c in terms.items() if c}))

    def __reduce__(self):
        return type(self), (self.p, self.m, dict(self.terms))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int, m: int) -> "Multivector":
        return cls(p, m, {})

    @classmethod
    def one(cls, p: int, m: int) -> "Multivector":
        return cls(p, m, {(): 1})

    @classmethod
    def variable(cls, p: int, m: int, name: str) -> "Multivector":
        pos = VariableOrder(m).position(name)
        return cls(p, m, {(pos,): 1})

    @classmethod
    def from_coords(cls, p: int, m: int, r: int, coords: Sequence[int]) -> "Multivector":
        monos = monomials(2 * m, r)
        if len(coords) != len(monos):
            raise DimensionMismatchError(
                f"expected {len(monos)} coordinates for degree {r}, got {len(coords)}"
            )
        return cls(p, m, {mono: c for mono, c in zip(monos, coords) if c})

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple:
        return tuple(sorted({len(mono) for mono in self.terms}))

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous value."""
        degs = self.degrees()
        if len(degs) != 1:
            raise HomogeneityError(f"value has degrees {degs}, expected exactly one")
        return degs[0]

    def component(self, r: int) -> "Multivector":
        return Multivector(self.p, self.m,
                           {mono: c for mono, c in self.terms.items() if len(mono) == r})

    def coords(self, r: int) -> tuple:
        """Colex coordinate vector of the degree-r component."""
        vec = [0] * comb(2 * self.m, r)
        for mono, coeff in self.terms.items():
            if len(mono) == r:
                vec[mono_rank(mono)] = coeff
        return tuple(vec)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(),
                      key=lambda kv: (len(kv[0]), mono_rank(kv[0])))

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.p != other.p or self.m != other.m:
            raise FieldMismatchError(
                f"mixed algebras (p={self.p}, m={self.m}) vs (p={other.p}, m={other.m})"
            )

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = (terms.get(mono, 0) + coeff) % self.p
        return Multivector(self.p, self.m, terms)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = (terms.get(mono, 0) - coeff) % self.p
        return Multivector(self.p, self.m, terms)

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    def scale(self, c: int) -> "Multivector":
        return Multivector(self.p, self.m,
                           {mono: (c * coeff) % self.p for mono, coeff in self.terms.items()})

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other)
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged = wedge_monomials(ma, mb)
                if merged is None:
                    continue
                sign, mono = merged
                terms[mono] = (terms.get(mono, 0) + sign * ca * cb) % self.p
        return Multivector._of(self.p, self.m, terms)

    def __hash__(self) -> int:
        return hash((self.p, self.m, tuple(sorted(self.terms.items()))))

    # -- text and JSON ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        order = VariableOrder(self.m)
        parts = []
        for mono, coeff in self.sorted_terms():
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(order.mono_name(mono))
            else:
                parts.append(f"{coeff}*{order.mono_name(mono)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector(p={self.p}, m={self.m}, {str(self)!r})"

    def to_json(self) -> dict:
        order = VariableOrder(self.m)
        return {
            "p": self.p,
            "m": self.m,
            "terms": [
                {"mono": [order.name(c) for c in mono], "coeff": coeff}
                for mono, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Multivector":
        p, m = obj["p"], obj["m"]
        order = VariableOrder(m)
        terms: dict = {}
        for item in obj["terms"]:
            resolved = sort_to_monomial([order.position(n) for n in item["mono"]])
            if resolved is None:
                continue
            sign, mono = resolved
            terms[mono] = (terms.get(mono, 0) + sign * item["coeff"]) % p
        return cls(p, m, terms)


# ---------------------------------------------------------------------------
# text grammar
#
#   expr  := term (('+'|'-') term)*
#   term  := [coeff '*'] mono | coeff
#   mono  := var ('^' var)*
#   var   := ('x'|'y') digits
#   coeff := digits


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return int(self.text[start:self.pos])


def parse(text: str, p: int, m: int) -> Multivector:
    """Parse the additive multivector grammar into a value.

    Raises :class:`ParseError` with a character offset on malformed input,
    unknown variable letters, or indices outside 1..m.
    """
    order = VariableOrder(m)
    scan = _Scanner(text)
    result = Multivector.zero(p, m)

    def parse_var() -> int:
        scan.skip_ws()
        start = scan.pos
        letter = scan.peek()
        if letter not in ("x", "y"):
            raise ParseError(f"expected a variable, found {letter or 'end of input'!r}", start)
        scan.pos += 1
        idx = scan.take_digits()
        if not 1 <= idx <= m:
            raise ParseError(f"variable index {idx} out of range 1..{m}", start)
        return order.position(f"{letter}{idx}")

    def parse_term() -> Multivector:
        scan.skip_ws()
        coeff = 1
        if scan.peek().isdigit():
            coeff = scan.take_digits()
            scan.skip_ws()
            if scan.peek() == "*":
                scan.pos += 1
            else:
                return Multivector(p, m, {(): coeff})
        positions = [parse_var()]
        scan.skip_ws()
        while scan.peek() == "^":
            scan.pos += 1
            positions.append(parse_var())
            scan.skip_ws()
        resolved = sort_to_monomial(positions)
        if resolved is None:
            return Multivector.zero(p, m)
        sign, mono = resolved
        return Multivector(p, m, {mono: sign * coeff})

    result = result + parse_term()
    scan.skip_ws()
    while scan.pos < len(scan.text):
        op = scan.peek()
        if op not in "+-":
            raise ParseError(f"expected '+' or '-', found {op!r}", scan.pos)
        scan.pos += 1
        term = parse_term()
        result = result + term if op == "+" else result - term
        scan.skip_ws()
    return result
