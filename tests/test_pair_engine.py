"""theorem1 in pair coordinates, against the per-block builder and the
closed form.

A torus-weight block of degree r holds x_I ^ y_J ^ prod_{a in K} x_a ^ y_a
over the k-subsets K of its free set.  The pair engine eliminates one
stacked inclusion matrix per (p, s, k, js) and keeps it unsigned; moved to
a block by the signs epsilon(K) (``inflation._signed``) it must be what
``oracles.divided_power_parts`` gets by eliminating every block on its own
from the merged gamma^(j) columns.
"""

import pytest

from infker import exterior, inflation, prime_linalg, symplectic
from infker.exterior import Multivector, monomials, sort_to_monomial
from infker.inflation import _divided_power_parts, _signed, sandwich, theorem1_verify
from infker.prime_linalg import Subspace
from infker.symplectic import SymplecticSpace, _block_keys, _pair_signs, _weights, torus_weight
from oracles import divided_power_parts, frame_wedges, gap_profile, weight_blocks
from test_prime_linalg import count_calls
from test_symplectic import ORACLE_SPACES

PRIMES = (2, 3, 5, 7)


def signed_parts(space, r, parts):
    """The unsigned per-s ``parts`` of degree r moved to every weight of
    their key by its signs: one signed local subspace per torus weight."""
    p, m = space.p, space.m
    return {w: _signed(p, w, k, parts[s])
            for s, k, _ in _block_keys(m, r) if s in parts for w in _weights(m, s)}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m", range(1, 6))
def test_pair_engine_matches_the_per_block_oracle(p, m):
    space = SymplecticSpace(p, m)
    for r in range(2 * m + 1):
        for js in ((1,), tuple(range(1, r // 2 + 1))):
            signed = signed_parts(space, r, _divided_power_parts(space, r, js))
            assert signed == divided_power_parts(p, m, r, js)


@pytest.mark.parametrize("m", range(1, 7))
def test_blocks_are_pair_products_in_colex_order_of_k(m):
    """Each block lists x_I ^ y_J ^ prod_{a in K} x_a ^ y_a in colex order
    of K, and epsilon(K) is the sign that sorts that product."""
    for r in range(2 * m + 1):
        monos = monomials(2 * m, r)
        for w, ranks in weight_blocks(m, r)[0].items():
            unpaired = [i for i in range(m) if w[i] == 1] + [m + i for i in range(m) if w[i] == -1]
            free = [i for i in range(m) if w[i] == 0]
            k = (r - len(unpaired)) // 2
            sorted_products = [sort_to_monomial(unpaired + [q for a in mono for q in (free[a], m + free[a])])
                               for mono in monomials(len(free), k)]
            assert [mono for _, mono in sorted_products] == [monos[q] for q in ranks]
            assert [sign for sign, _ in sorted_products] == list(_pair_signs(w, k))


@pytest.mark.parametrize("p,m,keys,blocks_with_gap", [(2, 5, 17, 11), (3, 5, 17, 0), (3, 6, 25, 1)])
def test_theorem1_eliminates_once_per_pair_key(monkeypatch, p, m, keys, blocks_with_gap):
    """No operator maps and no minors: one elimination per (s, k, js) key,
    and one per (degree, s) whose vanishing rows leave a nonzero residual
    modulo the ideal, however many blocks share it: at (2,5) its 11 blocks
    with a gap take 2 eliminations."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 built operator maps or took minors")
    for module, name in ((symplectic, "_block_map"), (exterior, "pure_wedge_coords"),
                         (inflation, "pure_wedge_coords")):
        monkeypatch.setattr(module, name, refuse)
    space = SymplecticSpace(p, m)
    assert space.gram.rows == 2 * m  # the form's one-time checks, before counting
    inflation._inclusion_rref.cache_clear()
    eliminations = count_calls(monkeypatch, prime_linalg, "_rref_rows")
    sandwiches = theorem1_verify(space)
    blocks, residual_keys = gap_blocks(space)
    assert len(blocks) == blocks_with_gap
    assert len(eliminations) == keys + len(residual_keys)
    assert inflation._inclusion_rref.cache_info().misses == keys
    assert sum(s.gap for s in sandwiches) > 0


@pytest.mark.parametrize("p", (2, 3))
def test_theorem1_lists_no_monomials_of_a_degree(monkeypatch, p):
    """The sandwich walks (s, k) keys and renders its representatives
    through their blocks' monomials: no degree's colex monomial list is
    built, not even the one monomial of degree 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 listed the monomials of a degree")
    monkeypatch.setattr(inflation, "monomials", refuse)
    space = SymplecticSpace(p, 6)
    dims = [(s.ideal_dim, s.vanishing_dim, s.gap) for s in theorem1_verify(space)]
    assert dims == gap_profile(p, 6)


def gap_blocks(space):
    """The (degree, weight) of the blocks up to degree m whose vanishing
    part is larger than their ideal part, and their distinct (degree, s)."""
    blocks = set()
    for r in range(space.m + 1):
        ideal = _divided_power_parts(space, r, (1,))
        blocks |= {(r, w) for s, part in inflation._vanishing_parts(space, r).items()
                   if part.dim > (ideal[s].dim if s in ideal else 0)
                   for w in _weights(space.m, s)}
    return blocks, {(r, w.count(0)) for r, w in blocks}


def frame_wedge_blocks(space):
    """The (degree, weight) of the paired blocks up to degree m that a
    term of a generator transvection's frame wedge falls in."""
    m = space.m
    return {(r, torus_weight(m, mono))
            for r in range(2, m + 1) for wedge in inflation._frame_wedges(space, r)
            for mono in wedge
            if torus_weight(m, mono).count(0) in inflation._vanishing_parts(space, r)}


@pytest.mark.parametrize("p,m", ORACLE_SPACES + [(2, 5), (3, 5)])
def test_frame_wedges_match_prefix_products(p, m):
    """The closed-form frame wedges are the prefix products of the dense
    transvections' columns, term for term, in every degree up to m, each
    distinct one once in the order first met."""
    space = SymplecticSpace(p, m)
    chains = frame_wedges(space)
    for r in range(m + 1):
        want = []
        for wedge in (wedge.terms for chain in chains for wedge in chain[r]):
            if wedge not in want:
                want.append(wedge)
        assert inflation._frame_wedges(space, r) == want


@pytest.mark.parametrize("p,m,calls", [(3, 5, 10), (3, 6, 16)])
def test_theorem1_reads_signs_only_where_rows_are_paired_or_printed(monkeypatch, p, m, calls):
    """epsilon(K) is read once per block that holds a gap representative
    and once per degree for each block that a frame-wedge term of the
    pairing check falls in, not once per block."""
    space = SymplecticSpace(p, m)
    # the pairing check reads them in inflation, ``_signed`` in symplectic
    reads = (count_calls(monkeypatch, inflation, "_pair_signs"),
             count_calls(monkeypatch, symplectic, "_pair_signs"))
    theorem1_verify(space)
    assert sum(map(len, reads)) == calls
    assert len(gap_blocks(space)[0]) + len(frame_wedge_blocks(space)) == calls


def oracle_gap_classes(p, m, r):
    """The gap classes of degree r <= m reduced block by block from the
    per-block oracle's signed parts: each vanishing block's rows modulo its
    ideal block, re-reduced, listed by the colex rank of their pivots."""
    blocks, monos = weight_blocks(m, r)[0], monomials(2 * m, r)
    ideal = divided_power_parts(p, m, r, (1,))
    reps = []
    for w, vanish_w in divided_power_parts(p, m, r, tuple(range(1, r // 2 + 1))).items():
        res = [ideal[w].residual(row) for row in vanish_w.basis.entries]
        if any(map(any, res)):
            red, ranks = Subspace.from_rows(p, len(res[0]), res), blocks[w]
            reps += [(ranks[c], {monos[ranks[i]]: v for i, v in enumerate(row) if v})
                     for row, c in zip(red.basis.entries, red.pivots)]
    return tuple(Multivector(p, m, terms) for _, terms in sorted(reps, key=lambda rep: rep[0]))


def test_gap_representatives_carry_their_signs(monkeypatch):
    """At (3,7) the 14 gap classes of degree 7 lie in blocks with one
    unpaired position, where epsilon(K) is not constant, so moving the
    shared reduction to each block must apply it (the served spaces, m <=
    6, hold no such block).  The limit is raised for this one space."""
    monkeypatch.setattr(inflation, "VANISHING_LIMIT", 3432)
    space = SymplecticSpace(3, 7)
    for r, gap in ((6, 1), (7, 14)):
        classes = sandwich(space, r).gap_classes
        assert len(classes) == gap
        assert classes == oracle_gap_classes(3, 7, r)


# ---------------------------------------------------------------------------
# the closed form (Wilson ranks), a test oracle only


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_equals_theorem1(p, m):
    dims = [(s.ideal_dim, s.vanishing_dim, s.gap) for s in theorem1_verify(SymplecticSpace(p, m))]
    assert dims == gap_profile(p, m)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_closed_form_threshold_and_palindromy(p):
    """A gap exists iff m >= 2p - 1; the first is Gamma^(p)'s degree 2p,
    one-dimensional; and gap_r = gap_{2m+2-r}."""
    for m in range(1, 2 * p + 4):
        gaps = [gap for _, _, gap in gap_profile(p, m)]
        assert min(gaps) >= 0 and gaps[:2] == [0, 0]
        assert any(gaps) == (m >= 2 * p - 1)
        if any(gaps):
            first = next(r for r, gap in enumerate(gaps) if gap)
            assert (first, gaps[first]) == (2 * p, 1)
        assert all(gaps[r] == gaps[2 * m + 2 - r] for r in range(2, 2 * m + 1))
