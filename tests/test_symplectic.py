"""The sl2 triple on the exterior algebra and everything downstream of it.

Frozen values were computed by hand or by brute force over all basis
monomials; the ladder entries are re-derived from factorials and signed
powers of the invariant two-tensor rather than trusted from the builder.
"""

import functools
import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from infker import exterior, symplectic
from infker.errors import CatalogTooLargeError, DecompositionDefectError, PrimitivityError
from infker.exterior import (
    Multivector,
    mono_rank,
    monomials,
    parse,
    pure_wedge_coords,
)
from infker.isotropic import count_isotropic, iter_isotropic
from infker.prime_linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    inv_mod,
    rank,
    sum_and_intersection,
)
from infker.symplectic import (
    SIGMA,
    _block_keys,
    _block_monomials,
    _block_slot,
    _generator_directions,
    _pair_signs,
    _rank_one_compound,
    _transvection,
    _transvection_compounds,
    _weights,
    DegreeCheck,
    ProbeReport,
    Sl2Report,
    SymplecticSpace,
    assemble,
    calibrate_sigma,
    decompose,
    dim_wedge,
    gamma,
    h_op,
    injectivity_surjectivity_probe,
    isotropic_span_basis,
    ladder,
    premet_suprunenko,
    primitive_basis,
    sl2_check,
    submodule_closure,
    x_minus,
    x_minus_matrix,
    x_plus,
    x_plus_matrix,
)
from oracles import (
    assembled_map,
    compound_matrix,
    dense_decompose,
    divided_power_oracle,
    sparse_from_dense,
    transvection,
    weight_blocks,
    x_plus_oracle,
)

odd_primes = st.sampled_from((3, 5, 7))


def space_grid():
    return [SymplecticSpace(p, m) for p in (2, 3, 5) for m in (1, 2, 3)]


@pytest.mark.parametrize("space", space_grid(), ids=lambda s: f"p{s.p}m{s.m}")
def test_pairing_table(space):
    m = space.m
    basis = [[1 if j == i else 0 for j in range(2 * m)] for i in range(2 * m)]
    for i in range(2 * m):
        for j in range(2 * m):
            got = space.pairing(basis[i], basis[j])
            if j == i + m:
                assert got == 1
            elif i == j + m:
                assert got == space.p - 1
            else:
                assert got == 0
            assert space.gram.entries[i][j] == got


def test_pairing_is_bilinear_alternating():
    space = SymplecticSpace(7, 2)
    u, v, w = [3, 1, 4, 1], [5, 2, 6, 0], [2, 2, 2, 3]
    assert space.pairing(u, u) == 0
    assert space.pairing(u, v) == (-space.pairing(v, u)) % 7
    us = [(a + b) % 7 for a, b in zip(u, w)]
    assert space.pairing(us, v) == (space.pairing(u, v) + space.pairing(w, v)) % 7


@pytest.mark.parametrize("space", space_grid(), ids=lambda s: f"p{s.p}m{s.m}")
def test_gamma_coefficients(space):
    g = gamma(space)
    expected = parse(
        " + ".join(f"x{i}^y{i}" for i in range(1, space.m + 1)),
        space.p, space.m)
    assert g == expected


def test_dim_wedge():
    assert dim_wedge(6, 0) == 1
    assert dim_wedge(6, 3) == 20
    assert dim_wedge(6, 7) == 0
    assert dim_wedge(6, -1) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl2_relations_hold(p, m):
    report = sl2_check(SymplecticSpace(p, m))
    blob = report.to_json()
    assert blob["ok"] is True
    assert blob["p"] == p and blob["m"] == m
    assert blob["sigma"] == SIGMA
    assert len(blob["degrees"]) == 2 * m + 1
    for row in blob["degrees"]:
        assert row["bracket_ok"] and row["weight_ok"]
        assert row["raise_shift_ok"] and row["lower_shift_ok"]


def test_sigma_calibration():
    assert calibrate_sigma(SymplecticSpace(5, 2)) == (-1,)
    assert calibrate_sigma(SymplecticSpace(3, 3)) == (-1,)
    # both signs coincide in characteristic two
    assert set(calibrate_sigma(SymplecticSpace(2, 2))) == {1, -1}


def dense_sl2_report(space, sigma):
    """The bracket relations as dense matrix products of the operators
    built from their definitions: the oracle for ``sl2_check``."""
    p, m, n = space.p, space.m, space.n

    def weight(r):
        return Matrix.identity(p, dim_wedge(n, r)).scale(m - r)

    checks = []
    for r in range(n + 1):
        d = dim_wedge(n, r)
        xm_r = divided_power_oracle(p, m, 1, r).to_dense()
        xp_r = x_plus_oracle(p, m, r, sigma).to_dense()
        h_r = weight(r)
        bracket = (x_plus_oracle(p, m, r + 2, sigma).to_dense() @ xm_r
                   - divided_power_oracle(p, m, 1, r - 2).to_dense() @ xp_r)
        raise_shift = (weight(r - 2) @ xp_r - xp_r @ h_r) == xp_r.scale(2)
        lower_shift = (weight(r + 2) @ xm_r - xm_r @ h_r) == xm_r.scale(-2)
        checks.append(DegreeCheck(
            r=r,
            bracket_ok=bracket == Matrix.identity(p, d).scale(r - m),
            raise_shift_ok=raise_shift,
            lower_shift_ok=lower_shift,
            weight_ok=h_r == Matrix.identity(p, d).scale(m - r),
        ))
    return Sl2Report(p=p, m=m, sigma=sigma, ok=all(c.ok for c in checks),
                     degrees=tuple(checks)).to_json()


@pytest.fixture
def fresh_relations():
    """An empty cache of block relation checks, emptied again afterwards,
    so that a test counts every check and a patched block map neither reads
    nor leaves cached verdicts."""
    symplectic._block_relations.cache_clear()
    yield
    symplectic._block_relations.cache_clear()


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)]
                         + [(2, 4)])
def test_sl2_check_matches_dense_oracle(p, m, sigma):
    space = SymplecticSpace(p, m)
    assert sl2_check(space, sigma).to_json() == dense_sl2_report(space, sigma)


def test_sl2_check_makes_no_dense_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix product")
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert sl2_check(SymplecticSpace(3, 3)).ok


def test_sl2_check_scans_no_colex_monomial(monkeypatch, fresh_relations):
    """The blocks are walked by torus weight and their maps built on subsets
    of the free set: no monomial merge, no colex rank, no block table."""
    def refuse(*args):
        raise AssertionError("sl2_check scanned colex monomials")
    for module, name in ((exterior, "wedge_monomials"), (exterior, "mono_rank"),
                         (symplectic, "mono_rank"), (symplectic, "_weights")):
        monkeypatch.setattr(module, name, refuse)
    assert sl2_check(SymplecticSpace(3, 5)).ok


@pytest.mark.parametrize("p,m,blocks,keys", [
    (2, 4, 189, 15), (7, 4, 189, 15), (3, 5, 648, 21), (2, 8, 24057, 45), (3, 8, 24057, 45)])
def test_sl2_check_checks_each_distinct_block_once(fresh_relations, p, m, blocks, keys):
    """A block with t unpaired positions comes in C(m, t) 2^t weights and
    m - t + 1 degrees.  The blocks of one (s, k) share their unsigned maps
    and their signs cancel in every relation, so the relations are checked
    once per (s, k) with k <= s <= m, whatever p: one call each, no
    repeat."""
    assert sum(comb(m, t) * 2 ** t * (m - t + 1) for t in range(m + 1)) == blocks
    assert sl2_check(SymplecticSpace(p, m)).ok
    info = symplectic._block_relations.cache_info()
    assert (info.hits + info.misses, info.misses) == (keys, keys)
    assert keys == (m + 1) * (m + 2) // 2


@functools.lru_cache(maxsize=None)
def signed_block_relations(p, s, k, signs, sigma, shift):
    """The four relations on one block from its signed maps: ``signs``
    holds its epsilon for k - 1, k and k + 1 pairs."""
    below, here, above = signs
    d = dim_wedge(s, k)
    block_map = symplectic._block_map
    lower = block_map(p, s, k, k + 1, 1, here, above)
    raising = block_map(p, s, k, k - 1, sigma, here, below)
    weight = SparseMatrix.diagonal(p, d, -shift)
    bracket = (block_map(p, s, k + 1, k, sigma, above, here) @ lower
               - block_map(p, s, k - 1, k, 1, below, here) @ raising)
    return (
        bracket == SparseMatrix.diagonal(p, d, shift),
        (SparseMatrix.diagonal(p, raising.rows, 2 - shift) @ raising
         - raising @ weight) == raising.scale(2),
        (SparseMatrix.diagonal(p, lower.rows, -2 - shift) @ lower
         - lower @ weight) == lower.scale(-2),
        weight == SparseMatrix.diagonal(p, d, 1).scale(-shift),
    )


def signed_sl2_report(space, sigma):
    """The relations checked weight by weight, on each block's signed maps:
    the oracle for checking them once per (s, k) on the unsigned ones."""
    p, m, n = space.p, space.m, space.n
    flags = [(True,) * 4 for _ in range(n + 1)]
    for w in itertools.product((0, 1, -1), repeat=m):
        s = w.count(0)
        eps = [()] + [symplectic._block_signs(p, w, k) for k in range(s + 1)] + [()]
        for k in range(s + 1):
            r = m - s + 2 * k
            ok = signed_block_relations(p, s, k, tuple(eps[k:k + 3]), sigma % p, (r - m) % p)
            flags[r] = tuple([a and b for a, b in zip(flags[r], ok)])
    checks = tuple(DegreeCheck(r, *ok) for r, ok in enumerate(flags))
    return Sl2Report(p=p, m=m, sigma=sigma, ok=all(c.ok for c in checks),
                     degrees=checks).to_json()


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(1, 6))
def test_sl2_check_matches_the_signed_per_weight_oracle(p, m, sigma):
    space = SymplecticSpace(p, m)
    assert sl2_check(space, sigma).to_json() == signed_sl2_report(space, sigma)


@pytest.mark.parametrize("name", ["x_minus_map", "x_plus_map"])
def test_tampered_operator_fails_bracket(monkeypatch, fresh_relations, name):
    """One coefficient changed in one block map of the named operator: the
    one out of the zero-weight block of degree 2 at m = 2, which has two
    free positions and one pair."""
    space, r0 = SymplecticSpace(3, 2), 2
    target = {"x_minus_map": 2, "x_plus_map": 0}[name]
    honest = symplectic._block_map

    def fake(p, s, k, t, *args):
        true = honest(p, s, k, t, *args)
        if (s, k, t) != (2, 1, target):
            return true
        columns = [list(col) for col in true.columns]
        i, v = columns[0][0]
        columns[0][0] = (i, v + 1)
        return SparseMatrix(p, true.rows, columns)
    monkeypatch.setattr(symplectic, "_block_map", fake)
    report = sl2_check(space)
    assert not report.ok
    assert not report.degrees[r0].bracket_ok


def block_map_mismatches(space):
    """Where the maps assembled from the signed block maps
    (``oracles.assembled_map``) differ from the colex columns built from
    the definitions: every gamma^(j) ^ and the raising operator for both
    signs, in every degree."""
    p, m, n = space.p, space.m, space.n
    wrong = []
    for r in range(n + 1):
        for j in range(1, m + 1):
            if assembled_map(p, m, r, r + 2 * j, 1) != divided_power_oracle(p, m, j, r):
                wrong.append(("divided_power", j, r))
        for sigma in (1, -1):
            if assembled_map(p, m, r, r - 2, sigma) != x_plus_oracle(p, m, r, sigma):
                wrong.append(("x_plus", sigma, r))
    return wrong


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(1, 6))
def test_block_maps_assemble_to_the_definitions(p, m):
    assert block_map_mismatches(SymplecticSpace(p, m)) == []


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (7, 4)])
def test_flipped_pair_sign_fails_the_definitions_only(monkeypatch, fresh_relations, p, m):
    """Flipping epsilon(K) at the first K of the zero-weight block with one
    pair breaks the comparison with the definitions.  ``sl2_check`` cannot
    see such an error: the flip conjugates each block map by a diagonal D
    with D^2 = I, which cancels in every bracket, so it checks the
    unsigned maps and reads no epsilon at all."""
    zero, signs = (0,) * m, symplectic._pair_signs

    def flipped(w, k):
        out = signs(w, k)
        return (-out[0],) + out[1:] if (w, k) == (zero, 1) else out
    monkeypatch.setattr(symplectic, "_pair_signs", flipped)
    space = SymplecticSpace(p, m)
    assert ("divided_power", 1, 0) in block_map_mismatches(space)
    assert sl2_check(space).ok


def test_weight_operator_is_scalar_per_degree():
    space = SymplecticSpace(5, 2)
    for r in range(5):
        for mono in monomials(4, r):
            unit = Multivector(5, 2, {mono: 1})
            assert h_op(space, unit) == unit.scale(space.m - r)
    assert h_op(space, gamma(space)).is_zero()
    assert h_op(space, parse("x1", 5, 2)) == parse("x1", 5, 2)


def test_raising_kills_gamma_only_when_p_divides_m():
    sp = SymplecticSpace(5, 2)
    assert x_plus(sp, gamma(sp)) == Multivector.one(5, 2).scale(-2)
    sp33 = SymplecticSpace(3, 3)
    assert x_plus(sp33, gamma(sp33)).is_zero()


def interleaved_sign(subset, m):
    """Sign of sorting (x_{i1}, y_{i1}, x_{i2}, y_{i2}, ...) positionally.

    ``subset`` holds zero-based pair indices; x_i sits at position i and
    y_i at position m + i, so the sign is an inversion count over the
    interleaved position sequence.
    """
    positions = []
    for i in subset:
        positions.append(i)
        positions.append(m + i)
    inv = sum(
        1
        for a in range(len(positions))
        for b in range(a + 1, len(positions))
        if positions[a] > positions[b])
    return -1 if inv % 2 else 1


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (7, 3)])
def test_gamma_power_oracle(p, m):
    # Gamma^k = k! * sum over k-subsets of pairs, where the coefficient
    # on the sorted monomial x_S ^ y_S is the sign of the interleaving.
    space = SymplecticSpace(p, m)
    g = gamma(space)
    power = Multivector.one(p, m)
    for k in range(1, m + 1):
        power = power.wedge(g)
        coeffs = {}
        for subset in itertools.combinations(range(m), k):
            mono = tuple(sorted(
                [i for i in subset] + [m + i for i in subset]))
            sign = interleaved_sign(subset, m)
            coeffs[mono] = (factorial(k) * sign) % p
        expected = [coeffs.get(mono, 0) for mono in monomials(2 * m, 2 * k)]
        assert list(power.coords(2 * k)) == expected


@pytest.mark.parametrize("p,m,seed_text,entries_text,weight", [
    (5, 2, "1", ["1", "4*x1^y1 + 4*x2^y2", "4*x1^x2^y1^y2"], 2),
    (3, 2, "x1", ["x1", "2*x1^x2^y2"], 1),
    (2, 3, "1", ["1", "x1^y1 + x2^y2 + x3^y3"], 1),
])
def test_ladder_frozen(p, m, seed_text, entries_text, weight):
    space = SymplecticSpace(p, m)
    seq = ladder(space, parse(seed_text, p, m))
    assert [str(e) for e in seq.entries] == entries_text
    assert seq.weight == weight
    assert seq.start == parse(seed_text, p, m)


@pytest.mark.parametrize("p,m,seed_text", [
    (5, 2, "1"), (5, 2, "x1"), (7, 3, "x1^x2"), (3, 2, "x2"),
])
def test_ladder_relations(p, m, seed_text):
    space = SymplecticSpace(p, m)
    seed = parse(seed_text, p, m)
    seq = ladder(space, seed)
    lam = seq.weight
    # entries are signed divided powers of the lowering operator
    for k, entry in enumerate(seq.entries):
        lowered = seed
        for _ in range(k):
            lowered = x_minus(space, lowered)
        scale = ((-1) ** k * inv_mod(factorial(k) % p, p)) % p
        assert entry == lowered.scale(scale)
    # the raising operator walks back up with the textbook coefficient
    for k in range(1, len(seq.entries)):
        assert x_plus(space, seq.entries[k]) == \
            seq.entries[k - 1].scale(lam - k + 1)
    # the ladder ends where lowering the normalized entry gives zero
    assert x_minus(space, seq.entries[-1]).is_zero()


def test_ladder_rejects_non_primitive_seed():
    space = SymplecticSpace(5, 2)
    with pytest.raises(PrimitivityError):
        ladder(space, gamma(space))


@pytest.mark.parametrize("r", range(0, 5))
def test_operator_matrices_match_operators(r):
    """The maps assembled from the signed block maps act as the termwise
    operators on every unit monomial, and the dense matrices, which are
    built from the termwise operators, are those maps."""
    space = SymplecticSpace(3, 2)
    lower, raising = assembled_map(3, 2, r, r + 2, 1), assembled_map(3, 2, r, r - 2, SIGMA)
    for mono_coords in range(dim_wedge(4, r)):
        coords = [0] * dim_wedge(4, r)
        coords[mono_coords] = 1
        mv = Multivector.from_coords(3, 2, r, coords)
        down = lower.matvec(coords)
        assert list(down) == list(x_minus(space, mv).coords(r + 2))
        up = raising.matvec(coords)
        if r >= 2:
            assert list(up) == list(x_plus(space, mv).coords(r - 2))
        else:
            assert all(c == 0 for c in up)
    assert x_minus_matrix(space, r) == lower.to_dense()
    assert x_plus_matrix(space, r) == raising.to_dense()


def test_decompose_frozen():
    space = SymplecticSpace(5, 2)
    e, beta = decompose(space, parse("x1^y1", 5, 2))
    assert str(e) == "3*x1^y1 + 2*x2^y2"
    assert str(beta) == "3"
    reassembled = e + gamma(space).wedge(beta)
    assert reassembled == parse("x1^y1", 5, 2)
    assert x_plus(space, e).is_zero()


@given(odd_primes, st.data())
@settings(max_examples=50)
def test_decompose_properties(p, data):
    m = data.draw(st.integers(2, 3))
    if p <= m:
        return
    space = SymplecticSpace(p, m)
    coords = [data.draw(st.integers(0, p - 1))
              for _ in range(dim_wedge(2 * m, 2))]
    alpha = Multivector.from_coords(p, m, 2, coords)
    e, beta = decompose(space, alpha)
    assert x_plus(space, e).is_zero()
    assert e + gamma(space).wedge(beta) == alpha


def test_decompose_defect_when_p_divides_m():
    space = SymplecticSpace(3, 3)
    with pytest.raises(DecompositionDefectError):
        decompose(space, parse("x1^y1", 3, 3))


def test_ladder_and_decompose_refuse_past_the_triple_limit(monkeypatch):
    """Past C(16, 8) coordinates in the widest degree they reach, both are
    refused before a basis is built or a wedge is taken: the ladder of 1
    at p = 3 reaches degree 6, C(18, 6) = 18,564 at m = 9."""
    def refuse(*args, **kwargs):
        raise AssertionError("built before the refusal")
    assert [str(e) for e in ladder(SymplecticSpace(3, 8), parse("1", 3, 8)).entries][0] == "1"
    monkeypatch.setattr(symplectic, "x_plus", refuse)
    monkeypatch.setattr(symplectic, "primitive_basis", refuse)
    with pytest.raises(CatalogTooLargeError) as exc:
        ladder(SymplecticSpace(3, 9), parse("1", 3, 9))
    assert exc.value.count == comb(18, 6)
    with pytest.raises(CatalogTooLargeError) as exc:
        decompose(SymplecticSpace(5, 9), parse("x1^x2^x3^x4^x5^x6", 5, 9))
    assert exc.value.count == comb(18, 6)


def assert_decompose_matches_dense(space, alpha):
    """Per-block ``decompose`` against the whole-degree solve on the
    definition-level maps: the same (e, beta), or the same defect."""
    try:
        want = dense_decompose(space, alpha)
    except DecompositionDefectError as exc:
        with pytest.raises(DecompositionDefectError) as got:
            decompose(space, alpha)
        assert (got.value.overlap_dim, got.value.missing_dim) == (exc.overlap_dim, exc.missing_dim)
    else:
        assert decompose(space, alpha) == want


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_decompose_matches_the_dense_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(0, m))
    monos = monomials(2 * m, r)
    terms = data.draw(st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1),
                                      max_size=len(monos)))
    assert_decompose_matches_dense(SymplecticSpace(p, m), Multivector(p, m, terms))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(1, 5))
def test_decompose_matches_the_dense_oracle_in_every_degree(p, m):
    """Every degree up to m, on one monomial, on a dense random class and
    on gamma ^ (a monomial), defects included."""
    rng, space = random.Random(100 * p + m), SymplecticSpace(p, m)
    for r in range(m + 1):
        monos = monomials(2 * m, r)
        classes = [Multivector(p, m, {rng.choice(monos): 1}),
                   Multivector(p, m, {mono: rng.randrange(p) for mono in monos})]
        if r >= 2:
            classes.append(x_minus(space, Multivector(p, m, {rng.choice(monomials(2 * m, r - 2)): 1})))
        for alpha in classes:
            assert_decompose_matches_dense(space, alpha)


def test_decompose_builds_no_whole_degree_map(monkeypatch):
    """Only the blocks the class touches are solved: no colex operator
    matrix, no assembled subspace and no list of the degree's monomials."""
    def refuse(*args, **kwargs):
        raise AssertionError("decompose built a whole-degree object")
    for name in ("x_minus_matrix", "x_plus_matrix", "assemble", "_weights"):
        monkeypatch.setattr(symplectic, name, refuse)
    space = SymplecticSpace(7, 5)
    alpha = parse("x1^x2^y3 + 2*x4^y4^x5 + x1^y1^x2", 7, 5)
    e, beta = decompose(space, alpha)
    assert x_plus(space, e).is_zero()
    assert e + gamma(space).wedge(beta) == alpha
    with pytest.raises(DecompositionDefectError):
        decompose(SymplecticSpace(3, 3), parse("x1^y1", 3, 3))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(1, 6))
def test_probe_rank_is_the_dense_rank(p, m):
    """The probe's sum of block ranks against the rank of the lowering
    matrix built from its definition, in every degree -2..2m + 2."""
    space = SymplecticSpace(p, m)
    for r in range(-2, 2 * m + 3):
        mat = divided_power_oracle(p, m, 1, r).to_dense()
        rk = rank(mat)
        assert injectivity_surjectivity_probe(space, r) == ProbeReport(
            r=r, rank=rk, corank=mat.rows - rk, injective=rk == mat.cols,
            surjective=rk == mat.rows)


def test_probe_known_corank():
    space = SymplecticSpace(2, 3)
    probe = injectivity_surjectivity_probe(space, 2)
    assert probe.rank == 14
    assert probe.corank == 1
    assert not probe.surjective
    assert not probe.injective


def test_probe_bijective_middle_when_collapse():
    space = SymplecticSpace(5, 2)
    probe = injectivity_surjectivity_probe(space, 1)
    assert probe.injective
    assert probe.rank == dim_wedge(4, 1)


@given(st.data())
@settings(max_examples=60)
def test_transvection_preserves_pairing(data):
    p = data.draw(odd_primes)
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    v = [data.draw(st.integers(0, p - 1)) for _ in range(2 * m)]
    if all(c == 0 for c in v):
        return
    t = transvection(space, v)
    assert t.transpose() @ space.gram @ t == space.gram


@given(st.data())
@settings(max_examples=60)
def test_rank_one_compound_matches_dense_minors(data):
    """The compound written from a transvection's rank-one data equals the
    minors of the dense transvection in every degree, for any nonzero
    direction, not only the generators'."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=2 * m, max_size=2 * m).filter(any))
    a, u = _transvection(space, v)
    t = transvection(space, v)
    for r in range(2 * m + 1):
        assert _rank_one_compound(p, r, a, u) == sparse_from_dense(compound_matrix(t, r))


def test_transvection_moves_only_along_v():
    space = SymplecticSpace(5, 2)
    v = [1, 0, 0, 0]
    t = transvection(space, v)
    w = [0, 0, 1, 0]
    image = t.matvec(w)
    diff = [(a - b) % 5 for a, b in zip(image, w)]
    assert diff in ([list(v)] + [[(c * k) % 5 for c in v] for k in range(5)])


def test_submodule_closure_of_gamma_is_a_line():
    space = SymplecticSpace(2, 2)
    closure = submodule_closure(space, 2, [gamma(space)])
    assert closure.dim == 1
    prim = primitive_basis(space, 2)
    assert prim.dim == 5
    joined, met = sum_and_intersection(closure, prim)
    assert met.dim == closure.dim


def test_submodule_closure_generates_primitives():
    space = SymplecticSpace(2, 3)
    prim = primitive_basis(space, 2)
    assert prim.dim == 14
    seed = Multivector.from_coords(2, 3, 2, prim.basis.row(0))
    closure = submodule_closure(space, 2, [seed])
    assert closure.dim == prim.dim
    assert closure.basis == prim.basis


def torus_weight(m, mono):
    return tuple(int(i in mono) - int(m + i in mono) for i in range(m))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_weight_blocks_partition_the_colex_ranks(m):
    for r in range(-1, 2 * m + 2):
        blocks, slot = weight_blocks(m, r)
        monos = monomials(2 * m, r)
        assert sorted(k for ranks in blocks.values() for k in ranks) == list(range(len(monos)))
        for w, ranks in blocks.items():
            assert list(ranks) == sorted(ranks)
            assert all(torus_weight(m, monos[k]) == w for k in ranks)
            assert [slot[k] for k in ranks] == list(range(len(ranks)))


@pytest.mark.parametrize("m", range(1, 7))
def test_weights_of_the_keys_list_each_block_once(m):
    """Per degree, the weights of each (s, k) key with their block's
    monomials list every monomial exactly once, grouped as the colex
    table ``oracles.weight_blocks`` groups them, and a monomial's local
    slot (``_block_slot``) is its place in that table's block."""
    for r in range(-1, 2 * m + 2):
        blocks, slot = weight_blocks(m, r)
        got = {}
        for s, k, count in _block_keys(m, r):
            weights = list(_weights(m, s))
            assert len(weights) == len(set(weights)) == count
            for w in weights:
                assert w.count(0) == s
                got[w] = tuple(mono_rank(mono) for mono in _block_monomials(m, w, k))
                assert [slot[mono_rank(mono)] for mono in _block_monomials(m, w, k)] == \
                    [_block_slot(m, w, mono) for mono in _block_monomials(m, w, k)]
        assert got == blocks


def test_block_keys_start_at_the_smallest_free_set():
    """A block of degree r has s >= |r - m| free positions, so a huge
    space in degree 0 has one key and no loop over the smaller s."""
    assert list(_block_keys(10 ** 9, 0)) == [(10 ** 9, 0, 1)]
    for m in range(1, 7):
        for r in range(-1, 2 * m + 2):
            assert list(_block_keys(m, r)) == [
                (s, (r - m + s) // 2, comb(m, s) * 2 ** (m - s)) for s in range(m + 1)
                if (r - m + s) % 2 == 0 and 0 <= r - m + s <= 2 * s]


@pytest.mark.parametrize("p,m", [(2, 3), (3, 4)])
def test_graded_operators_preserve_torus_weight(p, m):
    for r in range(2 * m + 1):
        maps = [(assembled_map(p, m, r, r + 2 * j, 1), r + 2 * j) for j in range(1, m + 1)]
        for mat, s in maps + [(assembled_map(p, m, r, r - 2, SIGMA), r - 2)]:
            for mono, col in zip(monomials(2 * m, r), mat.columns):
                assert all(torus_weight(m, monomials(2 * m, s)[i]) == torus_weight(m, mono)
                           for i, _ in col)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_assemble_is_the_rref_of_all_block_rows(data):
    """Random unsigned local subspaces, one per free-set size s: the
    assembled subspace is the rref of their rows moved to every block
    with s free positions by its signs epsilon(K), written in colex
    coordinates through the oracle's block table."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(0, 2 * m))
    parts, rows = {}, []
    for s, k, _ in _block_keys(m, r):
        d = dim_wedge(s, k)
        if data.draw(st.booleans()):
            local = [[data.draw(st.integers(0, p - 1)) for _ in range(d)]
                     for _ in range(data.draw(st.integers(0, d)))]
            parts[s] = (Subspace.from_rows(p, d, local), local)
    for w, ranks in weight_blocks(m, r)[0].items():
        if w.count(0) in parts:
            k = (r - m + w.count(0)) // 2
            for row in parts[w.count(0)][1]:
                vec = [0] * dim_wedge(2 * m, r)
                for c, v, e in zip(ranks, row, _pair_signs(w, k)):
                    vec[c] = v * e % p
                rows.append(vec)
    parts = {s: part for s, (part, _) in parts.items()}
    got = assemble(p, m, r, parts)
    want = Subspace.from_rows(p, dim_wedge(2 * m, r), rows)
    assert got == want
    assert got.pivots == want.pivots


def re_reducing_closure(space, r, seeds):
    """The closure loop that re-reduced the whole span after every new
    vector: a membership test per image, then an rref of span plus image."""
    p = space.p
    span = Subspace.from_rows(p, dim_wedge(space.n, r), [s.coords(r) for s in seeds])
    frontier = list(span.basis.entries)
    while frontier:
        vec = frontier.pop()
        for mat in _transvection_compounds(space, r):
            img = mat.matvec(vec)
            if span.member(img) is None:
                span = Subspace.from_rows(p, span.ambient_dim, list(span.basis.entries) + [img])
                frontier.append(img)
    return span


@pytest.mark.parametrize("p,m", [
    (2, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (7, 3), (2, 4), (3, 4)])
def test_closure_matches_re_reducing_loop(p, m):
    """The incremental echelon closure against the re-reducing loop, from
    x1 ^ ... ^ xr, from gamma and from a random class in every degree."""
    rng = random.Random(p * 100 + m)
    space = SymplecticSpace(p, m)
    for r in range(2 * m + 1):
        d = dim_wedge(2 * m, r)
        seeds = [[Multivector(p, m, {tuple(range(r)): 1})],
                 [Multivector.from_coords(p, m, r, [rng.randrange(p) for _ in range(d)])]]
        if r == 2:
            seeds.append([gamma(space)])
        for seed in seeds:
            got = submodule_closure(space, r, seed)
            want = re_reducing_closure(space, r, seed)
            assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("p,m,r", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (5, 2, 1)])
def test_isotropic_span_dimension(p, m, r):
    space = SymplecticSpace(p, m)
    span = isotropic_span_basis(space, r)
    assert span.dim == dim_wedge(2 * m, r) - dim_wedge(2 * m, r - 2)


ORACLE_SPACES = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("p,m", ORACLE_SPACES)
def test_isotropic_span_matches_lagrangian_stream(p, m):
    space = SymplecticSpace(p, m)
    lagrangians = [sub.basis.entries for sub in iter_isotropic(space, m)]
    for r in range(m + 1):
        wedges = [pure_wedge_coords([rows[i] for i in subset], 2 * m, p)
                  for rows in lagrangians
                  for subset in itertools.combinations(range(m), r)]
        oracle = Subspace.from_rows(p, dim_wedge(2 * m, r), wedges)
        assert isotropic_span_basis(space, r) == oracle


@functools.lru_cache(maxsize=None)
def all_transvection_compounds(p, m, r):
    space = SymplecticSpace(p, m)
    return tuple(compound_matrix(transvection(space, v), r)
                 for v in itertools.product(range(p), repeat=2 * m) if any(v))


def closure_under_all_transvections(p, m, r, seed):
    """Oracle: close under every one of the p^(2m) - 1 transvections."""
    span = Subspace.from_rows(p, dim_wedge(2 * m, r), [seed])
    frontier = list(span.basis.entries)
    while frontier:
        vec = frontier.pop()
        for mat in all_transvection_compounds(p, m, r):
            img = mat.matvec(vec)
            if span.member(img) is None:
                span = Subspace.from_rows(
                    p, span.ambient_dim, list(span.basis.entries) + [img])
                frontier.append(img)
    return span


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_generator_closure_matches_all_transvections(p, m):
    rng = random.Random(1000 * p + m)
    space = SymplecticSpace(p, m)
    n = 2 * m
    for r in range(n + 1):
        d = dim_wedge(n, r)
        monomial = [0] * d
        monomial[rng.randrange(d)] = 1
        lowered = [0] * d
        if r >= 2:
            lowered = x_minus_matrix(space, r - 2).matvec(
                [rng.randrange(p) for _ in range(dim_wedge(n, r - 2))])
        prim = primitive_basis(space, r)
        primitive = [0] * d
        for row in prim.basis.entries:
            c = rng.randrange(p)
            primitive = [(a + c * b) % p for a, b in zip(primitive, row)]
        dense = [rng.randrange(p) for _ in range(d)]
        for seed in (monomial, lowered, primitive, dense):
            got = submodule_closure(
                space, r, [Multivector.from_coords(p, m, r, seed)])
            assert got == closure_under_all_transvections(p, m, r, seed)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_generators_are_transitive_on_lagrangians(p, m):
    space = SymplecticSpace(p, m)
    gens = [transvection(space, v) for v in _generator_directions(m)]
    assert len(gens) == 3 * m - 1
    start = Subspace.from_rows(
        p, 2 * m, [[int(j == i) for j in range(2 * m)] for i in range(m)])
    orbit = {start}
    frontier = [start]
    while frontier:
        sub = frontier.pop()
        for t in gens:
            img = Subspace.from_rows(
                p, 2 * m, [t.matvec(row) for row in sub.basis.entries])
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    assert len(orbit) == count_isotropic(p, m, m)


def test_premet_frozen():
    blob = premet_suprunenko(2, 3, 2).to_json()
    assert blob["product"] == 3
    assert blob["divisible"] is False
    assert blob["irreducible"] is True

    blob = premet_suprunenko(2, 2, 2).to_json()
    assert blob["product"] == 2
    assert blob["divisible"] is True
    assert blob["irreducible"] is False

    blob = premet_suprunenko(5, 3, 2).to_json()
    assert blob["product"] == 3
    assert blob["sufficient_bound_holds"] is True
    assert blob["irreducible"] is True


def test_premet_product_is_the_product_of_binomials_while_it_prints():
    """Grown one factor at a time, the product equals the product of the
    binomials; past 14,000 bits it is refused, not multiplied out."""
    for m in range(1, 41):
        for r in range(m + 1):
            want = 1
            for j in range(r % 2, r + 1, 2):
                want *= comb(m - (r + j) // 2 + 1, (r - j) // 2)
            assert premet_suprunenko(7, m, r).product == want
    want = 1
    for j in range(0, 1001, 2):
        want *= comb(2000 - (1000 + j) // 2 + 1, (1000 - j) // 2)
    assert want.bit_length() > 14000
    with pytest.raises(CatalogTooLargeError, match="more than the supported 2\\^14000"):
        premet_suprunenko(3, 2000, 1000)


def test_premet_rejects_out_of_range_degrees():
    with pytest.raises(ValueError):
        premet_suprunenko(5, 2, 3)
    with pytest.raises(ValueError):
        premet_suprunenko(5, 2, -1)
