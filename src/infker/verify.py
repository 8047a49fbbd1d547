"""Timed self-checks covering every headline property of the package.

Each criterion function recomputes its claim from scratch and returns a
result record with the elapsed time, a pass flag, and enough detail to
see what was actually checked.  ``run_all`` executes the battery on a
named grid; the CLI front end and the acceptance tests both drive it.
"""

from __future__ import annotations

import random
import time
from math import comb

from .errors import Record
from .exterior import Multivector, monomials, parse
from .extraspecial import (
    abelian_preimage_check,
    center,
    commutator,
    group_type,
    make_group,
)
from .inflation import (
    certificate,
    counterexample,
    ideal_component,
    quotient_basis,
    theorem1_verify,
    vanishing_space,
    verify_certificate_record,
)
from .prime_linalg import (
    count_subspaces,
    iter_subspaces,
    kernel_basis,
    sum_and_intersection,
)
from .symplectic import (
    SIGMA,
    SymplecticSpace,
    dim_wedge,
    gamma,
    injectivity_surjectivity_probe,
    isotropic_span_basis,
    premet_suprunenko,
    primitive_basis,
    sl2_check,
    submodule_closure,
    x_minus,
)

#: zeta = x2^x3^y2^y3 at (2,3), the degree-4 class outside the ideal that
#: criteria 1, 6 and 8 check.
ZETA = parse("x2^x3^y2^y3", 2, 3)


class CriterionResult(Record):
    __slots__ = ("cid", "description", "ok", "seconds", "budget", "details")
    __hash__ = None  # its details are a dict

    def __init__(self, cid: int, description: str, ok: bool, seconds: float,
                 budget: float, details: dict | None = None):
        super().__init__(cid, description, ok, seconds, budget,
                         {} if details is None else details)

    @property
    def in_budget(self) -> bool:
        return self.seconds < self.budget

    def to_json(self) -> dict:
        return {
            "criterion": self.cid,
            "description": self.description,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "budget": self.budget,
            "in_budget": self.in_budget,
            "details": self.details,
        }


def _run(cid: int, description: str, budget: float, fn) -> CriterionResult:
    t0 = time.perf_counter()
    ok, details = fn()
    dt = time.perf_counter() - t0
    return CriterionResult(cid=cid, description=description, ok=ok,
                           seconds=dt, budget=budget, details=details)


def criterion_1(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Quotient of degree 4 at (2,3) is one-dimensional, spanned by a
    monomial outside the ideal."""
    def body():
        space = SymplecticSpace(2, 3)
        qb = quotient_basis(space, 4)
        names = list(map(space.order.mono_name, qb))
        outside = ideal_component(space, 4).member(ZETA.coords(4)) is None
        ok = len(qb) == 1 and names == ["x2^x3^y2^y3"] and outside
        return ok, {"quotient_dim": len(qb), "basis": names,
                    "monomial_outside_ideal": outside}
    return _run(1, "degree-4 quotient at (2,3) is the single standard monomial",
                1.0, body)


def criterion_2(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Operator triple relations hold degreewise on the whole grid with
    one global sign convention."""
    def body():
        primes = (2, 3, 5, 7) if grid == "small" else (2, 3, 5, 7, 11)
        cases = {}
        for p in primes:
            for m in (1, 2, 3):
                rep = sl2_check(SymplecticSpace(p, m))
                cases[f"({p},{m})"] = rep.ok and rep.sigma == SIGMA
        return all(cases.values()), {"sigma": SIGMA, "cases": cases}
    return _run(2, "triple relations exact on {2,3,5,7} x {1,2,3}, one sigma",
                10.0, body)


def criterion_3(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Isotropic-span dimensions match the binomial difference."""
    def body():
        pairs = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)]
        if grid == "full":
            pairs.append((7, 3))
        cases = {}
        for p, m in pairs:
            space = SymplecticSpace(p, m)
            for r in range(m + 1):
                want = comb(2 * m, r) - (comb(2 * m, r - 2) if r >= 2 else 0)
                got = isotropic_span_basis(space, r)
                cases[f"({p},{m}) r={r}"] = got.dim == want and (
                    vanishing_space(space, r) == kernel_basis(got.basis))
        return all(cases.values()), {"cases": cases}
    return _run(3, "span of isotropic wedges has dimension C(2m,r)-C(2m,r-2)",
                60.0, body)


def criterion_4(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Lowering operator ranks, primitive complements, and the two
    descriptions of the primitive space agreeing.  The ranks are the
    probe's, summed over the torus-weight blocks."""
    def body():
        # the splitting needs p > m: otherwise the invariant 2-tensor is
        # itself primitive and lands in the overlap
        pairs = [(3, 2), (5, 2), (7, 3)]
        if grid == "full":
            pairs.append((5, 3))
        cases = {}
        for p, m in pairs:
            space = SymplecticSpace(p, m)
            n = 2 * m
            for r in range(n + 1):
                probe = injectivity_surjectivity_probe(space, r)
                if r <= m - 1:
                    cases[f"({p},{m}) inj r={r}"] = probe.injective
                if r >= m - 1:
                    cases[f"({p},{m}) surj r={r}"] = probe.surjective
            for r in range(m + 1):
                prim = primitive_basis(space, r)
                img = ideal_component(space, r)
                total, overlap = sum_and_intersection(prim, img)
                cases[f"({p},{m}) split r={r}"] = (
                    overlap.dim == 0 and total.dim == dim_wedge(n, r)
                )
                cases[f"({p},{m}) prim=span r={r}"] = (
                    prim == isotropic_span_basis(space, r)
                )
        return all(cases.values()), {"cases": cases}
    return _run(4, "injectivity, surjectivity, splitting, and E_r = F_r",
                30.0, body)


def criterion_5(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Surjectivity in the tiny cases and the corank-1 failure at (2,3),
    from the probe's block ranks."""
    def body():
        cases = {}
        for m in (1, 2):
            space = SymplecticSpace(2, m)
            n = 2 * m
            for r in range(m - 1, n + 1):
                if dim_wedge(n, r + 2) == 0:
                    continue
                cases[f"(2,{m}) surj r={r}"] = (
                    injectivity_surjectivity_probe(space, r).surjective)
        probe = injectivity_surjectivity_probe(SymplecticSpace(2, 3), 2)
        cases["(2,3) corank at r=2"] = probe.corank == 1
        return all(cases.values()), {"cases": cases, "corank": probe.corank}
    return _run(5, "surjectivity for m <= 2 and corank 1 at (2,3) degree 2",
                5.0, body)


def criterion_6(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Gap profile: zero everywhere for (3,2) and (5,2); exactly one gap
    class at degree 4 for (2,3), equal to the counterexample."""
    def body():
        cases = {}
        for p, m in [(3, 2), (5, 2)]:
            sws = theorem1_verify(SymplecticSpace(p, m))
            cases[f"({p},{m}) all gaps zero"] = all(s.gap == 0 for s in sws)
        space = SymplecticSpace(2, 3)
        sws = theorem1_verify(space)
        gaps = {s.r: s.gap for s in sws}
        cases["(2,3) gap at 4"] = gaps[4] == 1
        cases["(2,3) gaps 0..2"] = all(gaps[r] == 0 for r in (0, 1, 2))
        cx = counterexample(space)
        diff = cx - ZETA
        same_class = diff.is_zero() or (
            ideal_component(space, 4).member(diff.coords(4)) is not None)
        cases["(2,3) counterexample is zeta mod ideal"] = same_class
        return all(cases.values()), {"cases": cases, "gaps": gaps,
                                     "counterexample": str(cx)}
    return _run(6, "gap zero for p > m; gap 1 at degree 4 for (2,3)",
                60.0, body)


def criterion_7(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Degree-2 vanishing space equals the line spanned by the form."""
    def body():
        cases = {}
        for p, m in [(2, 3), (3, 2), (5, 2)]:
            space = SymplecticSpace(p, m)
            t2 = vanishing_space(space, 2)
            line = ideal_component(space, 2)
            ok = t2 == line and t2.dim == 1
            ok = ok and t2.member(gamma(space).coords(2)) is not None
            cases[f"({p},{m})"] = ok
        return all(cases.values()), {"cases": cases}
    return _run(7, "degree-2 common kernel is exactly the invariant line",
                30.0, body)


def criterion_8(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Membership certificate at (2,3): all 63 vectors pass, witnesses
    replay, and the perp structure is (5, 1, 4) throughout."""
    def body():
        space = SymplecticSpace(2, 3)
        rep = certificate(space, ZETA)
        n_checked = len(rep.records)
        all_pass = rep.overall
        replayed = all(
            verify_certificate_record(space, ZETA, r) for r in rep.records)
        dims_ok = all(
            r.dim_perp == 5 and r.dim_radical == 1 and r.dim_complement == 4
            for r in rep.records)
        ok = n_checked == 63 and all_pass and replayed and dims_ok
        return ok, {
            "checked": n_checked,
            "all_pass": all_pass,
            "witnesses_replayed": replayed,
            "perp_structure_ok": dims_ok,
            "vacuous": sum(1 for r in rep.records if r.vacuous),
        }
    return _run(8, "certificate passes all 63 vectors with replayable witnesses",
                10.0, body)


def criterion_9(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Irreducibility predicate agrees with explicit orbit closures."""
    def body():
        rng = random.Random(seed)
        cases = {}

        space = SymplecticSpace(2, 3)
        prim = primitive_basis(space, 2)
        pred = premet_suprunenko(2, 3, 2)
        cases["(2,3,2) predicate irreducible"] = pred.irreducible
        closures_full = True
        for _ in range(5):
            while True:
                coeffs = [rng.randrange(2) for _ in range(prim.dim)]
                if any(coeffs):
                    break
            vec = [0] * dim_wedge(6, 2)
            for c, row in zip(coeffs, prim.basis.entries):
                if c:
                    vec = [(a + c * b) % 2 for a, b in zip(vec, row)]
            seed_mv = Multivector.from_coords(2, 3, 2, vec)
            closure = submodule_closure(space, 2, [seed_mv])
            closures_full = closures_full and closure == prim
        cases["(2,3,2) random closures fill the primitive space"] = closures_full
        cases["(2,3,2) dim"] = prim.dim == 14

        space2 = SymplecticSpace(2, 2)
        pred2 = premet_suprunenko(2, 2, 2)
        cases["(2,2,2) predicate reducible"] = not pred2.irreducible
        closure2 = submodule_closure(space2, 2, [gamma(space2)])
        prim2 = primitive_basis(space2, 2)
        cases["(2,2,2) closure of the form is a proper line"] = (
            closure2.dim == 1 and prim2.dim == 5
            and closure2.dim < prim2.dim
            and all(prim2.member(row) is not None
                    for row in closure2.basis.entries)
        )
        return all(cases.values()), {"cases": cases}
    return _run(9, "divisibility predicate matches transvection closures",
                60.0, body)


def criterion_10(grid: str = "small", seed: int = 0) -> CriterionResult:
    """Group-side structure: order, center, commutator form, the
    abelian-preimage equivalence, and the dihedral identification."""
    def body():
        cases = {}
        for p, m in [(2, 1), (2, 2), (3, 1), (2, 3)]:
            group = make_group(p, m)
            space = SymplecticSpace(p, m)
            cases[f"({p},{m}) order"] = group.order() == p ** (1 + 2 * m)
            z = center(group)
            cases[f"({p},{m}) center"] = (
                len(z) == p and all(not any(el.v) for el in z))
            gens = group.generators()
            comms = [(commutator(a, b), space.pairing(a.v, b.v)) for a in gens for b in gens]
            cases[f"({p},{m}) commutator form"] = all(
                c.z == want and not any(c.v) for c, want in comms)

        group22, space22 = make_group(2, 2), SymplecticSpace(2, 2)
        subs = [sub for k in range(5) for sub in iter_subspaces(2, 4, k)]
        checked = len(subs)
        equiv = all([abelian_preimage_check(group22, sub) == all(
            space22.pairing(u, v) == 0 for u in sub.basis.entries for v in sub.basis.entries)
            for sub in subs])
        cases["(2,2) isotropic iff abelian preimage"] = (
            equiv and checked == sum(count_subspaces(2, 4, k) for k in range(5)))

        group21 = make_group(2, 1)
        rot = next(h for h in group21.elements() if h.order() == 4)
        ref = next(h for h in group21.elements()
                   if h.order() == 2 and all(rot ** k != h for k in range(4)))
        words = {(rot ** i) * (ref ** j) for i in range(4) for j in range(2)}
        cases["(2,1) dihedral"] = (
            ref * rot * ref.inverse() == rot.inverse() and len(words) == 8)

        details = {"cases": cases, "subspaces_checked": checked,
                   "type_(2,1)": group_type(group21)}
        return all(cases.values()), details
    return _run(10, "extraspecial order, center, commutator form, dihedral case",
                30.0, body)


def criterion_11(grid: str = "small", seed: int = 0) -> CriterionResult:
    """The p-th power of the lowering operator vanishes: the termwise
    operator applied p times to every unit monomial gives zero."""
    def body():
        pairs = [(2, 2), (2, 3), (3, 3)]
        if grid == "full":
            pairs.append((5, 2))
        cases = {}
        for p, m in pairs:
            space = SymplecticSpace(p, m)
            all_zero = True
            for r in range(2 * m + 1):
                for mono in monomials(2 * m, r):
                    value = Multivector(p, m, {mono: 1})
                    for _ in range(p):
                        value = x_minus(space, value)
                    all_zero = all_zero and value.is_zero()
            cases[f"({p},{m})"] = all_zero
        return all(cases.values()), {"cases": cases}
    return _run(11, "p-th power of the lowering operator is zero",
                5.0, body)


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
)


def run_all(grid: str = "small", seed: int = 0) -> dict:
    """Run the whole battery and synthesize the overall result.

    The final entry is the meta-criterion: everything above passed and
    the total single-threaded wall time stayed under five minutes.
    """
    if grid not in ("small", "full"):
        raise ValueError(f"unknown grid {grid!r}")
    t0 = time.perf_counter()
    results = [fn(grid=grid, seed=seed) for fn in CRITERIA]
    total = time.perf_counter() - t0
    meta = CriterionResult(
        cid=12,
        description="full battery runs single-threaded in under five minutes",
        ok=all(r.ok for r in results) and total < 300.0,
        seconds=total,
        budget=300.0,
        details={"criteria_passed": sum(1 for r in results if r.ok),
                 "criteria_total": len(results)},
    )
    results.append(meta)
    return {
        "grid": grid,
        "seed": seed,
        "ok": all(r.ok for r in results),
        "in_budget": all(r.in_budget for r in results),
        "total_seconds": round(total, 3),
        "criteria": [r.to_json() for r in results],
    }
