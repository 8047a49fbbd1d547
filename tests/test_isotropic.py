"""Isotropic subspace catalogs, perpendiculars, and radical splits.

The enumeration is cross-checked two independent ways: against the
closed-form count, and for small spaces against a filter over every
subspace of the right dimension.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from infker.errors import CatalogTooLargeError
from infker.isotropic import (
    CATALOG_LIMIT,
    annihilator,
    count_isotropic,
    enumerate_isotropic,
    iter_isotropic,
    perp,
    radical_split,
)
from infker.prime_linalg import (
    Matrix,
    Subspace,
    inv_mod,
    iter_subspaces,
    kernel_basis,
    sum_and_intersection,
)
from infker.symplectic import SymplecticSpace

from test_prime_linalg import count_calls, two_elimination_kernel


def is_isotropic(space, sub):
    b = sub.basis
    return (b @ space.gram @ b.transpose()).is_zero()


@pytest.mark.parametrize("p,m,r,expected", [
    (2, 2, 2, 15),
    (2, 3, 3, 135),
    (3, 3, 3, 1120),
    (3, 2, 2, 40),
    (5, 2, 2, 156),
    (2, 2, 0, 1),
    (7, 1, 1, 8),
])
def test_counts_frozen(p, m, r, expected):
    assert count_isotropic(p, m, r) == expected


def test_count_out_of_range():
    assert count_isotropic(3, 2, 3) == 0
    assert count_isotropic(3, 2, -1) == 0


def test_count_of_lines_is_projective_space():
    # every line is isotropic, so r = 1 counts points of P(F_p^{2m})
    for p, m in [(2, 1), (2, 3), (3, 2), (5, 2), (7, 3)]:
        assert count_isotropic(p, m, 1) == (p ** (2 * m) - 1) // (p - 1)


@pytest.mark.parametrize("p,m,r", [
    (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 3, 3),
])
def test_enumeration_matches_brute_force(p, m, r):
    space = SymplecticSpace(p, m)
    brute = {
        sub for sub in iter_subspaces(p, 2 * m, r)
        if is_isotropic(space, sub)
    }
    catalog = set(iter_isotropic(space, r))
    assert catalog == brute
    assert len(catalog) == count_isotropic(p, m, r)


def test_stream_is_deterministic():
    space = SymplecticSpace(3, 2)
    first = [sub.basis.entries for sub in iter_isotropic(space, 2)]
    second = [sub.basis.entries for sub in iter_isotropic(space, 2)]
    assert first == second


def test_catalog_record_fields():
    space = SymplecticSpace(2, 2)
    cat = enumerate_isotropic(space, 2)
    assert (cat.p, cat.m, cat.r) == (2, 2, 2)
    assert cat.count == 15
    assert cat.complete
    assert len(cat) == 15
    assert all(sub.dim == 2 for sub in cat)
    assert all(is_isotropic(space, sub) for sub in cat)


def test_zero_dimensional_catalog():
    space = SymplecticSpace(5, 2)
    cat = enumerate_isotropic(space, 0)
    assert cat.count == 1
    assert len(cat) == 1
    assert next(iter(cat)).dim == 0


def test_refusal_over_limit():
    space = SymplecticSpace(31, 3)
    assert count_isotropic(31, 3, 3) == 917_116_928
    assert count_isotropic(31, 3, 3) > CATALOG_LIMIT
    with pytest.raises(CatalogTooLargeError) as exc:
        enumerate_isotropic(space, 3)
    assert exc.value.count == 917_116_928


def test_lagrangian_catalog_under_limit():
    assert count_isotropic(7, 3, 3) == 137_600
    assert count_isotropic(7, 3, 3) < CATALOG_LIMIT


def test_perp_dimensions():
    space = SymplecticSpace(2, 3)
    assert perp(space, [1, 0, 0, 0, 0, 0]).dim == 5
    assert perp(space, [0, 0, 0, 0, 0, 0]).dim == 6
    for g in itertools.product(range(2), repeat=6):
        if not any(g):
            continue
        pp = perp(space, g)
        assert pp.dim == 5
        assert pp.member(g) is not None


@given(st.data())
@settings(max_examples=60)
def test_perp_is_pairing_kernel(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    g = [data.draw(st.integers(0, p - 1)) for _ in range(2 * m)]
    pp = perp(space, g)
    for row in pp.basis.entries:
        assert space.pairing(g, row) == 0
    expected_dim = 2 * m if not any(g) else 2 * m - 1
    assert pp.dim == expected_dim


def greedy_radical_split(space, sub):
    """The radical and a complement by greedy hyperbolic-pair extraction
    over the rref basis, lowest-index vectors first: the split that
    ``radical_split`` computed before it read the radical off the kernel
    of the restricted Gram matrix.  Returns (rad, a)."""
    p, n = space.p, space.n
    k = sub.dim
    b = sub.basis
    gram_sub = b @ space.gram @ b.transpose()

    def form(u, v):
        return sum(a * c for a, c in zip(gram_sub.matvec(v), u)) % p

    remaining = [[int(i == j) for j in range(k)] for i in range(k)]
    pair_vecs = []
    while True:
        hit = None
        for iu, u in enumerate(remaining):
            for iw in range(iu + 1, len(remaining)):
                val = form(u, remaining[iw])
                if val:
                    hit = (iu, iw, val)
                    break
            if hit:
                break
        if hit is None:
            break
        iu, iw, val = hit
        u = remaining[iu]
        w = [(inv_mod(val, p) * c) % p for c in remaining[iw]]
        others = [v for t, v in enumerate(remaining) if t not in (iu, iw)]
        # make the rest orthogonal to the extracted pair
        corrected = []
        for v in others:
            fvw = form(v, w)
            fvu = form(v, u)
            corrected.append([(a - fvw * bu + fvu * bw) % p
                              for a, bu, bw in zip(v, u, w)])
        pair_vecs.extend([u, w])
        remaining = corrected
    bt = b.transpose()
    a_space = Subspace.from_rows(p, n, [bt.matvec(c) for c in pair_vecs])
    _, rad = sum_and_intersection(sub, kernel_basis(b @ space.gram))
    return rad, a_space


def random_subspace(data, p, n):
    k = data.draw(st.integers(0, n))
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(n)]
            for _ in range(k)]
    return Subspace.from_rows(p, n, rows)


@given(st.data())
@settings(max_examples=80)
def test_radical_split_properties(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    sub = random_subspace(data, p, 2 * m)
    split = radical_split(space, sub)
    assert split.sub == sub
    assert split.rad.dim + split.a.dim == sub.dim
    # the radical pairs to zero against the whole subspace
    for u in split.rad.basis.entries:
        for v in sub.basis.entries:
            assert space.pairing(u, v) == 0
    # the complement carries a nondegenerate restriction
    ga = split.gram_a
    ab = split.a.basis
    assert ga == ab @ space.gram @ ab.transpose()
    from infker.prime_linalg import rref
    assert rref(ga)[2] == split.a.dim
    # and sits inside the subspace
    for row in split.a.basis.entries:
        assert sub.member(row) is not None
    # its basis is already canonical, pivots included
    again = Subspace.from_rows(p, 2 * m, split.a.basis.entries)
    assert split.a == again
    assert split.a.pivots == again.pivots


@given(st.data())
@settings(max_examples=150)
def test_radical_split_matches_greedy_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    sub = random_subspace(data, p, 2 * m)
    rad, a = greedy_radical_split(space, sub)
    split = radical_split(space, sub)
    assert split.rad == rad
    assert split.a.dim == a.dim


@given(st.data())
@settings(max_examples=150)
def test_radical_split_rad_matches_two_elimination_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    sub = random_subspace(data, p, 2 * m)
    split = radical_split(space, sub)
    b = sub.basis
    kernel = two_elimination_kernel(b @ space.gram @ b.transpose())
    oracle = Subspace.from_rows(
        p, 2 * m, [b.transpose().matvec(c) for c in kernel.basis.entries])
    assert split.rad == oracle and split.rad.pivots == oracle.pivots
    again = Subspace.from_rows(p, 2 * m, split.rad.basis.entries)
    assert split.rad == again and split.rad.pivots == again.pivots


def test_radical_split_eliminates_twice(monkeypatch):
    """The kernel of the restricted Gram and the complement's rank: the
    radical itself is wrapped, not re-reduced, and the split is checked
    without an elimination."""
    import infker.prime_linalg as pl
    space = SymplecticSpace(3, 2)
    sub = Subspace.from_rows(3, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    calls = count_calls(monkeypatch, pl, "_rref_rows")
    split = radical_split(space, sub)
    assert len(calls) == 2
    assert split.rad.basis.entries == ((0, 0, 1, 0),)
    assert split.rad.pivots == (2,)


def test_radical_split_frozen_cases():
    space = SymplecticSpace(3, 2)
    degenerate = Subspace.from_rows(
        3, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    split = radical_split(space, degenerate)
    assert split.rad.dim == 1
    assert split.a.dim == 2
    assert split.rad.basis.entries == ((0, 0, 1, 0),)

    plane = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    split = radical_split(space, plane)
    assert split.rad.dim == 0
    assert split.a.dim == 2

    lagrangian = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    split = radical_split(space, lagrangian)
    assert split.rad.dim == 2
    assert split.a.dim == 0


def test_radical_of_isotropic_is_everything():
    space = SymplecticSpace(2, 3)
    for sub in iter_isotropic(space, 2):
        split = radical_split(space, sub)
        assert split.rad == sub
        assert split.a.dim == 0


def test_annihilator_dimensions():
    space = SymplecticSpace(3, 2)
    sub = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    inside = annihilator(space, sub, [1, 2, 0, 0])
    assert inside.dim == 2
    assert inside.ambient_dim == 3
    zero = annihilator(space, sub, [0, 0, 0, 0])
    assert zero.dim == 3
    with pytest.raises(ValueError):
        annihilator(space, sub, [0, 0, 0, 1])


def test_annihilator_rows_kill_the_vector():
    space = SymplecticSpace(5, 2)
    sub = Subspace.from_rows(5, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    g = [2, 3, 0, 0]
    coords = sub.member(g)
    ann = annihilator(space, sub, g)
    for row in ann.basis.entries:
        assert sum(a * b for a, b in zip(row, coords)) % 5 == 0


def test_isotropy_closed_under_subspaces():
    space = SymplecticSpace(2, 2)
    for sub in iter_isotropic(space, 2):
        rows = sub.basis.entries
        line = Subspace.from_rows(2, 4, [rows[0]])
        assert is_isotropic(space, line)


def test_catalog_is_cached_per_space():
    space = SymplecticSpace(2, 2)
    a = enumerate_isotropic(space, 2)
    b = enumerate_isotropic(space, 2)
    assert a is b
