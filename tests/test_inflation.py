"""The two-sided squeeze on the inflation kernel, plus the certificates.

The ideal gives the lower bound, the vanishing conditions the upper
bound; the one-dimensional gap at half weight for p = 2, m = 3 is the
load-bearing example and is frozen here in full.
"""

import functools
import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from infker import inflation, isotropic, prime_linalg, symplectic
from infker.errors import CatalogTooLargeError, HomogeneityError, InvariantError
from infker.exterior import (
    Multivector,
    hyperplane_restriction,
    mono_rank,
    monomials,
    parse,
    pullback_coords,
    wedge_monomials,
)
from infker.inflation import (
    CertificateRecord,
    _form_wedge_columns,
    _generator,
    _gram_form,
    _system_plan,
    certificate,
    counterexample,
    ideal_component,
    quotient_basis,
    sandwich,
    theorem1_verify,
    vanishing_space,
    verify_certificate_record,
)
from infker.isotropic import enumerate_isotropic, perp_chart
from infker.prime_linalg import (
    Matrix,
    Subspace,
    _power_bits,
    inv_mod,
    kernel_basis,
    solve,
)
from infker.symplectic import (
    SIGMA,
    SymplecticSpace,
    dim_wedge,
    gamma,
    injectivity_surjectivity_probe,
    isotropic_span_basis,
    primitive_basis,
)
from oracles import (
    assembled_map,
    certificate_by_columns,
    divided_power_oracle,
    image_basis,
    weight_blocks,
    x_plus_oracle,
)
from test_exterior import pullback_matrix
from test_prime_linalg import count_calls
from test_isotropic import greedy_radical_split, kernel_annihilator, kernel_perp


@functools.lru_cache(maxsize=None)
def shared_space(p, m):
    # reuse spaces across tests so their internal caches pay off
    return SymplecticSpace(p, m)


def space23():
    return shared_space(2, 3)


def test_sandwich_dims_frozen_for_2_3():
    space = space23()
    ideal_dims = [ideal_component(space, r).dim for r in range(7)]
    vanishing_dims = [vanishing_space(space, r).dim for r in range(7)]
    assert ideal_dims == [0, 0, 1, 6, 14, 6, 1]
    assert vanishing_dims == [0, 0, 1, 6, 15, 6, 1]


def test_gap_is_one_exactly_at_half_weight():
    space = space23()
    for r in range(7):
        sw = sandwich(space, r)
        assert sw.gap == (1 if r == 4 else 0)
        if r == 4:
            assert [str(c) for c in sw.gap_classes] == ["x2^x3^y2^y3"]
        else:
            assert sw.gap_classes == ()


def test_sandwich_json_shape():
    blob = sandwich(space23(), 4).to_json()
    assert blob == {
        "p": 2, "m": 3, "degree": 4,
        "ideal_dim": 14, "vanishing_dim": 15, "gap": 1,
        "gap_classes": ["x2^x3^y2^y3"],
    }


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 1), (7, 2)])
def test_no_gap_when_p_exceeds_m(p, m):
    space = shared_space(p, m)
    for sw in theorem1_verify(space):
        assert sw.gap == 0
    assert counterexample(space) is None


def test_theorem1_reports_gaps_when_p_is_small():
    # at p = 2, m = 3 a gap is legitimate output, not a failure
    gaps = [sw.gap for sw in theorem1_verify(space23())]
    assert gaps == [0, 0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("p,m,gaps", [
    (2, 4, [0, 0, 0, 0, 1, 8, 1, 0, 0]),
    (3, 4, [0] * 9),
    (2, 6, [0, 0, 0, 0, 1, 12, 65, 208, 65, 12, 1, 0, 0]),
    (3, 6, [0, 0, 0, 0, 0, 0, 1, 12, 1, 0, 0, 0, 0]),
])
def test_theorem1_closure_at_m_4(p, m, gaps):
    """The gap profile at m = 4 and m = 6, and vanishing dims in closed
    form (0 below degree 2, C(2m, r-2) up to m, C(2m, r) above)."""
    sws = theorem1_verify(shared_space(p, m))
    assert [sw.gap for sw in sws] == gaps
    assert [sw.vanishing_dim for sw in sws] == [
        0 if r < 2 else comb(2 * m, r - 2) if r <= m else comb(2 * m, r)
        for r in range(2 * m + 1)]


def test_counterexample_is_the_half_weight_class():
    space = space23()
    cx = counterexample(space)
    assert cx == parse("x2^x3^y2^y3", 2, 3)
    ideal = ideal_component(space, 4)
    assert ideal.member(cx.coords(4)) is None
    vanishing = vanishing_space(space, 4)
    assert vanishing.member(cx.coords(4)) is not None


@pytest.mark.parametrize("r", range(7))
def test_ideal_inside_vanishing(r):
    space = space23()
    ideal = ideal_component(space, r)
    vanishing = vanishing_space(space, r)
    for row in ideal.basis.entries:
        assert vanishing.member(row) is not None


def test_quotient_basis_counts():
    space = space23()
    for r in range(7):
        monos = quotient_basis(space, r)
        assert len(monos) == dim_wedge(6, r) - ideal_component(space, r).dim
    assert quotient_basis(space, 4) == ((1, 2, 4, 5),)
    assert space.order.mono_name(quotient_basis(space, 4)[0]) == "x2^x3^y2^y3"


def test_ideal_at_degree_two_is_the_invariant_line():
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        space = shared_space(p, m)
        ideal = ideal_component(space, 2)
        assert ideal.dim == 1
        assert ideal.member(gamma(space).coords(2)) is not None


def catalog_kernel(space, r, dims):
    """Oracle: the kernel of the stacked pullbacks to every isotropic
    k-subspace, k in ``dims``, from the materialized catalogs."""
    blocks = [pullback_matrix(sub.basis.transpose(), r)
              for k in dims if dim_wedge(k, r)
              for sub in enumerate_isotropic(space, k)]
    if not blocks:
        return Subspace.full(space.p, dim_wedge(space.n, r))
    return kernel_basis(Matrix(space.p, [row for b in blocks for row in b.entries],
                               cols=dim_wedge(space.n, r)))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_vanishing_space_matches_catalog_oracle(p, m):
    space = shared_space(p, m)
    for r in range(2 * m + 1):
        vanish = vanishing_space(space, r)
        assert catalog_kernel(space, r, [m]) == vanish
        assert catalog_kernel(space, r, range(1, m + 1)) == vanish


@pytest.mark.parametrize("p,m", [
    (p, m) for m in (2, 3, 4) for p in (2, 3, 5, 7)] + [(2, 5)])
def test_vanishing_space_matches_closure_oracle(p, m):
    """The divided-power ideal is the annihilator of the orbit closure of
    x1 ^ ... ^ xr up to degree m, and the full space above it (at m = 5,
    the two top closures only)."""
    space = shared_space(p, m)
    for r in ((4, 5) if m == 5 else range(2 * m + 1)):
        oracle = (kernel_basis(isotropic_span_basis(space, r).basis) if r <= m
                  else Subspace.full(p, dim_wedge(space.n, r)))
        assert vanishing_space(space, r) == oracle


def dense_ideal_component(space, r):
    """The ideal as one image over full C(2m, r)-wide rows, of the lowering
    matrix built from its definition."""
    return image_basis(divided_power_oracle(space.p, space.m, 1, r - 2).to_dense())


def dense_vanishing_space(space, r):
    """The divided-power ideal from the stacked d-wide images of every
    gamma^(j) ^, j >= 1, up to degree m; the full space above it."""
    p, m, d = space.p, space.m, dim_wedge(space.n, r)
    if r > m:
        return Subspace.full(p, d)
    return Subspace.from_rows(p, d, (
        [col.get(i, 0) for i in range(d)] for j in range(1, r // 2 + 1)
        for col in map(dict, divided_power_oracle(p, m, j, r - 2 * j).columns)))


def dense_primitive_basis(space, r):
    """The kernel of the whole dense raising matrix, built from the
    termwise contraction."""
    return kernel_basis(x_plus_oracle(space.p, space.m, r, SIGMA).to_dense())


def dense_sandwich(space, r):
    """Dimensions, gap and gap classes from the dense spaces: containment
    and reduction modulo the ideal over full rows."""
    p, d = space.p, dim_wedge(space.n, r)
    ideal, vanish = dense_ideal_component(space, r), dense_vanishing_space(space, r)
    assert all(vanish.member(row) is not None for row in ideal.basis.entries)
    reduced = []
    for row in vanish.basis.entries:
        vec = list(row)
        for irow, piv in zip(ideal.basis.entries, ideal.pivots):
            c = vec[piv]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, irow)]
        reduced.append(vec)
    reps = Subspace.from_rows(p, d, reduced)
    assert reps.dim == vanish.dim - ideal.dim
    return (ideal.dim, vanish.dim, reps.dim,
            tuple(Multivector.from_coords(p, space.m, r, row) for row in reps.basis.entries))


def check_against_dense(space, r):
    for got, want in ((ideal_component(space, r), dense_ideal_component(space, r)),
                      (vanishing_space(space, r), dense_vanishing_space(space, r)),
                      (primitive_basis(space, r), dense_primitive_basis(space, r))):
        assert got == want
        assert got.pivots == want.pivots
    sw = sandwich(space, r)
    assert (sw.ideal_dim, sw.vanishing_dim, sw.gap, sw.gap_classes) == dense_sandwich(space, r)


@pytest.mark.parametrize("p,m", [
    (p, m) for m in (1, 2, 3, 4) for p in (2, 3, 5, 7)] + [(2, 5), (3, 5)])
def test_graded_spaces_match_dense_oracles(p, m):
    """Ideal, vanishing space, sandwich and primitive piece, each assembled
    from torus-weight blocks, equal their dense computations in every
    degree, pivots included."""
    space = SymplecticSpace(p, m)
    for r in range(2 * m + 1):
        check_against_dense(space, r)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_graded_spaces_match_dense_oracles_in_one_degree(data):
    """A fresh space asked for one degree only: nothing depends on the
    order in which degrees are computed."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 4))
    check_against_dense(SymplecticSpace(p, m), data.draw(st.integers(0, 2 * m)))


@pytest.mark.parametrize("p,m", [(5, 3), (7, 4)])
def test_divided_power_map_is_gamma_power_over_factorial(p, m):
    space = shared_space(p, m)
    power, factorial = Multivector.one(p, m), 1
    for j in range(1, m + 1):
        power, factorial = power.wedge(gamma(space)), factorial * j
        divided = power.scale(inv_mod(factorial, p))
        for r in range(2 * m - 2 * j + 1):
            cols = [divided.wedge(Multivector(p, m, {mono: 1})).coords(r + 2 * j)
                    for mono in monomials(2 * m, r)]
            assert assembled_map(p, m, r, r + 2 * j, 1).to_dense() == Matrix(
                p, zip(*cols), cols=len(cols))


def test_huge_spaces_refuse_before_listing_blocks(monkeypatch):
    """theorem1, counterexample and quotient_basis refuse an oversized
    space themselves, before a torus weight of length m is listed."""
    def refuse(*args, **kwargs):
        raise AssertionError("listed torus-weight blocks before refusing")
    monkeypatch.setattr(inflation, "_weights", refuse)
    monkeypatch.setattr(symplectic, "_weights", refuse)
    space = SymplecticSpace(2, 10 ** 9)
    for call in (theorem1_verify, counterexample, lambda space: quotient_basis(space, 3)):
        with pytest.raises(CatalogTooLargeError) as exc:
            call(space)
        assert exc.value.limit == inflation.VANISHING_LIMIT


def test_library_refuses_at_m_100000():
    """At m = 10^5 the sandwich refuses on its middle degree, primitive_basis
    on its own degree, and the probe out of degree 2m - 2 on the top key
    (m, m), whose m subsets of size m - 1 it would list: each at once."""
    space, m = SymplecticSpace(2, 10 ** 5), 10 ** 5
    for call in (lambda: sandwich(space, 2 * m), lambda: primitive_basis(space, 1),
                 lambda: injectivity_surjectivity_probe(space, 2 * m - 2)):
        start = time.perf_counter()
        with pytest.raises(CatalogTooLargeError):
            call()
        assert time.perf_counter() - start < 2


def test_theorem1_reaches_no_closure(monkeypatch):
    """theorem1 never closes an orbit, and its transvections are rank-one
    data: it multiplies no dense matrices, not even to check the form."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 reached the orbit closure")
    monkeypatch.setattr(symplectic, "submodule_closure", refuse)
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    space = SymplecticSpace(2, 4)
    assert [sw.gap for sw in theorem1_verify(space)] == [0, 0, 0, 0, 1, 8, 1, 0, 0]
    assert products == []
    assert str(counterexample(space)) == "x2^x3^y2^y3 + x2^x4^y2^y4 + x3^x4^y3^y4"


@given(st.sampled_from((2, 3, 5, 7, 11, 2 ** 61 - 1)), st.integers(1, 3000))
@settings(max_examples=200)
def test_power_bits_is_the_exact_bit_length(p, n):
    """The certificate's refusal reads the bit length of p^n - 1 from
    truncated bounds; it is exact wherever the integer can be built."""
    assert _power_bits(p, n) == (p ** n - 1).bit_length()


def bad_gram(p, m):
    """The standard form plus a self-pairing psi(x1, x1) = 1: the
    transvection along x1 moves psi(x1, y1) from 1 to 0."""
    rows = [list(row) for row in SymplecticSpace(p, m).gram.entries]
    rows[0][0] = 1
    return Matrix(p, rows, cols=2 * m)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("build", [theorem1_verify, lambda space: isotropic_span_basis(space, 2)],
                         ids=["theorem1", "closure"])
def test_transvections_check_the_form(monkeypatch, p, build):
    """The form check on the rank-one transvections fires from both of
    their readers, the pairing check and the closure compounds."""
    gram = bad_gram(p, 3)
    monkeypatch.setattr(SymplecticSpace, "gram", property(lambda space: gram))
    with pytest.raises(InvariantError, match="transvection does not preserve the form"):
        build(SymplecticSpace(p, 3))


@pytest.mark.parametrize("p,m,gaps,first", [
    (2, 5, [0, 0, 0, 0, 1, 10, 44, 10, 1, 0, 0],
     "x2^x3^y2^y3 + x2^x4^y2^y4 + x3^x4^y3^y4 + x2^x5^y2^y5 + x3^x5^y3^y5 + x4^x5^y4^y5"),
    (3, 5, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], "x3^x4^x5^y3^y4^y5"),
])
def test_theorem1_builds_no_dense_row(monkeypatch, p, m, gaps, first):
    """The theorem1 path keeps its spaces per torus-weight block: it never
    assembles colex rows and builds no identity, not even above degree m."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 built a dense subspace")
    monkeypatch.setattr(inflation, "assemble", refuse)
    monkeypatch.setattr(Matrix, "identity", refuse)
    space = SymplecticSpace(p, m)
    assert [sw.gap for sw in theorem1_verify(space)] == gaps
    assert str(counterexample(space)) == first


@pytest.mark.parametrize("p,m,cls,points,solves", [
    (3, 3, "x2^x3^y2^y3", 364, 324),
    (2, 4, "x2^x3^x4^y2^y3^y4", 255, 192),
])
def test_certificate_works_from_chart_data(monkeypatch, p, m, cls, points, solves):
    """Each projective point takes no minor and builds no hyperplane
    Subspace, and the exact work is done once per distinct input: one rank
    per distinct complement form, one solve per distinct system (f_ann,
    omega, t, restriction) of the non-vacuous points, and no other
    elimination.  The distinct inputs are counted here from the charts."""
    forms, systems = set(), set()
    counting, target = SymplecticSpace(p, m), parse(cls, p, m)
    for g in itertools.product(range(p), repeat=2 * m):
        if next((c for c in g if c), 0) == 1:
            chart = perp_chart(counting, g)
            forms.add(chart.gram_a.entries)
            rest = hyperplane_restriction(2 * m, p, chart.f, chart.c, target.degree(),
                                          target.terms)
            if any(rest):
                systems.add((chart.f_ann, _gram_form(chart.gram), chart.t, rest))
    assert (len(forms), len(systems)) == {(3, 3): (30, 114), (2, 4): (43, 100)}[p, m]

    def refuse(*args, **kwargs):
        raise AssertionError("certificate took minors or built a hyperplane")
    monkeypatch.setattr(inflation, "pure_wedge_coords", refuse)
    monkeypatch.setattr(inflation, "pullback_coords", refuse)
    monkeypatch.setattr(isotropic, "_hyperplane", refuse)
    space = SymplecticSpace(p, m)
    assert space.gram.rows == 2 * m  # the form's one-time checks, before counting
    ranks = count_calls(monkeypatch, isotropic, "rank")
    solved = count_calls(monkeypatch, inflation, "solve_rows")
    eliminations = count_calls(monkeypatch, prime_linalg, "_eliminate")
    rep = certificate(space, target)
    normalized = [rec for rec in rep.records if next(c for c in rec.g if c) == 1]
    assert rep.overall and len(normalized) == points
    assert sum(not rec.vacuous for rec in normalized) == solves
    assert (len(ranks), len(solved), len(eliminations)) == \
        (len(forms), len(systems), len(forms) + len(systems))


def test_dense_bases_refused_before_any_is_built(monkeypatch):
    """Past C(12, 6) wedge coordinates in a degree, the printed bases are
    refused before a block is eliminated or a dense row is written."""
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was built before the refusal")
    monkeypatch.setattr(inflation, "_divided_power_parts", refuse)
    monkeypatch.setattr(inflation, "assemble", refuse)
    monkeypatch.setattr(Subspace, "full", refuse)
    space = SymplecticSpace(2, 7)
    for build, r, count in ((vanishing_space, 8, 3003), (vanishing_space, 3, 3432),
                            (ideal_component, 7, 3432), (ideal_component, 9, 2002)):
        with pytest.raises(CatalogTooLargeError) as exc:
            build(space, r)
        assert exc.value.count == count


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 3), (3, 4)])
def test_pairing_check_sees_paired_blocks(monkeypatch, p, m):
    """Flipping the sign epsilon(K) at K = {x1^y1} in the zero-weight block
    of degree 2 keeps every dimension; only pairing with the transvection
    images of y1 ^ ... ^ yr, which reach the blocks holding pairs, catches
    it."""
    zero, at = (0,) * m, weight_blocks(m, 2)[1][mono_rank((0, m))]
    signs = inflation._pair_signs

    def flipped(w, k):
        out = signs(w, k)
        if w == zero and k == 1:
            out = tuple(-e if i == at else e for i, e in enumerate(out))
        return out
    monkeypatch.setattr(inflation, "_pair_signs", flipped)
    with pytest.raises(InvariantError, match="pairs with an isotropic wedge"):
        vanishing_space(SymplecticSpace(p, m), 2)


@functools.lru_cache(maxsize=1)
def gap_class_certificate():
    return certificate(space23(), parse("x2^x3^y2^y3", 2, 3))


class TestCertificate:
    def report(self):
        return space23(), parse("x2^x3^y2^y3", 2, 3), gap_class_certificate()

    def test_every_restriction_checked(self):
        space, zeta, rep = self.report()
        assert len(rep.records) == 2 ** 6 - 1
        assert rep.overall is True
        seen = {rec.g for rec in rep.records}
        assert len(seen) == 63

    def test_vacuous_count_and_dims(self):
        _, _, rep = self.report()
        assert sum(1 for rec in rep.records if rec.vacuous) == 15
        for rec in rep.records:
            assert (rec.dim_perp, rec.dim_radical,
                    rec.dim_complement, rec.dim_annihilator) == (5, 1, 4, 4)

    def test_every_record_replays(self):
        space, zeta, rep = self.report()
        for rec in rep.records:
            assert verify_certificate_record(space, zeta, rec)

    # each rewrites the first witness term, a form_wedge on a 5-dim perp
    # whose annihilator has dimension 4
    TAMPERS = {
        "coeff": lambda t: {**t, "coeff": (t["coeff"] + 1) % 2},
        "annihilator_row_out_of_range": lambda t: {
            "coeff": 1, "kind": "annihilator_wedge", "rows": [0, 1, 2, 4]},
        "form_monomial_out_of_range": lambda t: {**t, "monomial": [0, 5]},
        "unsorted_monomial": lambda t: {**t, "monomial": t["monomial"][::-1]},
        # a degree-1 list with the colex rank of the degree-2 monomial
        "wrong_length_monomial": lambda t: {
            **t, "monomial": [mono_rank(tuple(t["monomial"]))]},
    }

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_witness_fails_replay(self, tamper):
        space, zeta, rep = self.report()
        rec = next(r for r in rep.records if not r.vacuous)
        terms = [dict(t) for t in rec.witness["terms"]]
        assert terms[0]["kind"] == "form_wedge"
        terms[0] = self.TAMPERS[tamper](terms[0])
        bad = rec._replace(witness={"terms": terms})
        assert verify_certificate_record(space, zeta, bad) is False

    @pytest.mark.parametrize("witness", [{}, {"terms": None}, {"terms": [None]}],
                             ids=["no_terms", "terms_not_a_list", "term_not_a_dict"])
    def test_malformed_witness_fails_replay(self, witness):
        space, zeta, rep = self.report()
        rec = next(r for r in rep.records if not r.vacuous)
        bad = rec._replace(witness=witness)
        assert verify_certificate_record(space, zeta, bad) is False

    def test_json_counts(self):
        _, _, rep = self.report()
        blob = rep.to_json()
        assert blob["checked"] == 63
        assert blob["vacuous"] == 15
        assert blob["overall"] is True
        assert blob["target"] == "x2^x3^y2^y3"
        assert len(blob["records"]) == 63
        assert all(r["ok"] for r in blob["records"])

    def test_membership_witnesses_have_known_kinds(self):
        _, _, rep = self.report()
        for rec in rep.records:
            if rec.witness is None:
                continue
            for term in rec.witness["terms"]:
                assert term["kind"] in ("form_wedge", "annihilator_wedge")
                assert term["coeff"] % 2 == 1


def certificate_records_oracle(space, target):
    """The per-vector loop that ``certificate`` ran before it solved once
    per projective point, with the greedy radical split: every nonzero g
    gets its own perp, split, annihilator and solve, each from the kernel
    oracles rather than the perp chart."""
    degree = target.degree()
    p, n = space.p, space.n
    records = []
    for g in itertools.product(range(p), repeat=n):
        if not any(g):
            continue
        s_g = kernel_perp(space, g)
        rest = pullback_coords(s_g.basis.transpose(), degree, target.terms)
        omega_rest = pullback_coords(s_g.basis.transpose(), 2, gamma(space).terms)
        rad, a = greedy_radical_split(space, s_g)
        ann = kernel_annihilator(s_g, g)
        coeffs = witness = None
        if any(rest):
            idents = (
                [{"kind": "form_wedge", "monomial": list(mu)}
                 for mu in monomials(s_g.dim, degree - 2)]
                + [{"kind": "annihilator_wedge", "rows": list(subset)}
                   for subset in itertools.combinations(range(ann.dim), degree)]
            )
            gens = [_generator(p, s_g.dim, degree, omega_rest, ann, ident)
                    for ident in idents]
            coeffs = solve(Matrix(p, zip(*gens), cols=len(gens)), rest)
            if coeffs is not None:
                witness = {"terms": [{"coeff": c, **ident}
                                     for c, ident in zip(coeffs, idents) if c]}
        records.append(CertificateRecord(
            g=g, dim_perp=s_g.dim, dim_radical=rad.dim,
            dim_complement=a.dim, dim_annihilator=ann.dim,
            vacuous=not any(rest), member=coeffs is not None,
            witness=witness,
        ))
    return records


@pytest.mark.parametrize("p,m,cls,vacuous", [
    (3, 2, "x1^x2+2*y1^y2+x1^y1", 0),
    (3, 2, "x1^x2^y1+2*x2^y1^y2", 26),
    (5, 2, "x1^x2+3*y1^y2+4*x1^y2", 0),
    (5, 2, "x1^x2^y2+x1^y1^y2", 124),
    (3, 3, "x2^x3^y2^y3", 80),
])
def test_certificate_matches_per_vector_oracle(p, m, cls, vacuous):
    space = shared_space(p, m)
    target = parse(cls, p, m)
    rep = certificate(space, target)
    assert list(rep.records) == certificate_records_oracle(space, target)
    assert sum(rec.vacuous for rec in rep.records) == vacuous


@given(st.data())
@settings(max_examples=80)
def test_perp_chart_gram_is_the_restricted_form(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 3))
    space = shared_space(p, m)
    g = [data.draw(st.integers(0, p - 1)) for _ in range(2 * m)]
    if not any(g):
        return
    chart = perp_chart(space, g)
    gram, b = chart.gram, chart.sub.basis
    assert gram == (b @ space.gram @ b.transpose()).entries
    assert gram == tuple(tuple(space.pairing(u, v) for v in b.entries) for u in b.entries)
    # the form that certificate reads off the Gram is the pullback of gamma,
    # which the replay computes by minors
    assert _gram_form(gram) == pullback_coords(b.transpose(), 2, gamma(space).terms)


def form_wedge_oracle(p, k, degree, omega_rest, mu):
    """The restricted form wedged with monomial ``mu``, merged term by
    term on monomials."""
    out = [0] * comb(k, degree)
    for pair, c in zip(monomials(k, 2), omega_rest):
        merged = wedge_monomials(pair, mu) if c else None
        if merged is not None:
            out[mono_rank(merged[1])] += merged[0] * c
    return tuple(v % p for v in out)


def plan_block(p, k, degree, omega):
    """The form-wedge columns that certificate's rows hold: ``_system_plan``
    read at the form and transposed."""
    cols = [[0] * dim_wedge(k, degree) for _ in monomials(k, degree - 2)]
    for r, entries in enumerate(_system_plan(k, degree)):
        for mu, pair, sign in entries:
            cols[mu][r] = sign * omega[pair] % p
    return [tuple(col) for col in cols]


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 4)])
def test_form_wedge_block_matches_generator_columns(p, m):
    # certificate's block, from the row plan at the Gram, against replay's
    # columns, from the pullback of gamma, one identity record at a time
    space = shared_space(p, m)
    for g in itertools.product(range(p), repeat=2 * m):
        if next((c for c in g if c), 0) != 1:
            continue
        chart = perp_chart(space, g)
        k, ann = chart.sub.dim, chart.ann
        omega_rest = pullback_coords(chart.sub.basis.transpose(), 2, gamma(space).terms)
        omega_gram = _gram_form(chart.gram)
        for degree in range(2, k + 1):
            monos = monomials(k, degree - 2)
            block = plan_block(p, k, degree, omega_gram)
            assert block == _form_wedge_columns(p, k, degree, omega_gram, range(len(monos)))
            assert block == [
                _generator(p, k, degree, omega_rest, ann,
                           {"kind": "form_wedge", "monomial": list(mu)})
                for mu in monos]
            assert block == [form_wedge_oracle(p, k, degree, omega_rest, mu)
                             for mu in monos]


@st.composite
def certificate_cases(draw):
    """A space up to (7, 2), (3, 3) and (2, 4) and a nonzero class of degree
    2 .. 2m - 2, where the perp's annihilator still has top wedges to
    offer."""
    p, m = draw(st.sampled_from([(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)]))
    r = draw(st.integers(2, 2 * m - 2))
    monos = monomials(2 * m, r)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(picked),
                           max_size=len(picked)))
    return shared_space(p, m), Multivector(p, m, dict(zip(picked, coeffs)))


@given(certificate_cases())
@settings(max_examples=30, deadline=None)
def test_certificate_matches_column_oracle(case):
    """The rows written from the plan and solved packed give the records,
    witnesses and all, that the columns solved through a Matrix gave."""
    space, target = case
    assert certificate(space, target).to_json() == \
        certificate_by_columns(space, target).to_json()


def test_certificate_matches_column_oracle_at_5_3():
    """A larger odd prime at m = 3, 15,624 vectors, with annihilator wedges
    in some witnesses and points where membership fails; (7, 3) is left to
    the CI step, where the oracle's 117,648 vectors take seconds."""
    space, target = shared_space(5, 3), parse("x1^x2 + 2*x3^y1", 5, 3)
    rep = certificate(space, target)
    assert rep.to_json() == certificate_by_columns(space, target).to_json()
    assert not rep.overall
    assert any(term["kind"] == "annihilator_wedge" for rec in rep.records if rec.witness
               for term in rec.witness["terms"])


@pytest.mark.parametrize("p,m,cls,forms", [
    (5, 2, "x1^x2^y1+2*x2^y1^y2", 4),
    (3, 3, "x2^x3^y2^y3", 30),
    (3, 3, "x1^x2+2*x3^y1", 30),  # membership fails at every point
    (7, 2, "x1^x2^y1+3*x2^y1^y2", 6),
])
def test_certificate_on_a_warm_space_matches_a_fresh_one(p, m, cls, forms):
    """The complement ranks that a first certificate leaves on the space,
    one per distinct form, change no record of a second one: it equals a
    fresh space's and the column oracle's, witnesses and all."""
    warm, target = SymplecticSpace(p, m), parse(cls, p, m)
    first = certificate(warm, target)
    assert sum(key[0] == "complement_rank" for key in warm._cache) == forms
    again = certificate(warm, target)
    assert again == first == certificate(SymplecticSpace(p, m), target)
    assert again.to_json() == certificate_by_columns(SymplecticSpace(p, m), target).to_json()


def test_certificate_rejects_zero_and_inhomogeneous_targets():
    space = space23()
    with pytest.raises(ValueError):
        certificate(space, Multivector.zero(2, 3))
    with pytest.raises((ValueError, HomogeneityError)):
        certificate(space, parse("x1 + x1^x2", 2, 3))


def test_certificate_on_an_ideal_class_also_passes():
    # anything in the ideal restricts to a multiple of the form, so the
    # check is satisfiable there too
    space = shared_space(3, 2)
    target = gamma(space).wedge(parse("x1^y1", 3, 2))
    rep = certificate(space, target)
    assert rep.overall is True


def test_gap_class_reduction_is_itself():
    space = space23()
    cx = counterexample(space)
    reduced = ideal_component(space, 4).residual(cx.coords(4))
    assert Multivector.from_coords(2, 3, 4, reduced) == cx
