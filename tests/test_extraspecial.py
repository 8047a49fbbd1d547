"""Central extensions built from the pairing cocycle.

Group axioms are checked exhaustively on the two smallest groups; the
dihedral identification pins down the p = 2, m = 1 case completely.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from infker.errors import CatalogTooLargeError, DimensionMismatchError
from infker.extraspecial import (
    ExtraspecialGroup,
    abelian_preimage_check,
    center,
    centralizer_image,
    commutator,
    group_type,
    make_group,
)
from infker.isotropic import iter_isotropic, perp_chart
from infker.prime_linalg import Subspace, iter_subspaces
from infker.symplectic import SymplecticSpace


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_full_associativity(p, m):
    group = make_group(p, m)
    everything = list(group.elements())
    assert len(everything) == p ** (1 + 2 * m)
    for a in everything:
        for b in everything:
            for c in everything:
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (2, 3)])
def test_inverse_and_identity_axioms(p, m):
    group = make_group(p, m)
    e = group.identity()
    assert e.is_identity()
    for el in group.elements():
        assert el * e == el
        assert e * el == el
        assert el * el.inverse() == e
        assert el.inverse() * el == e


def test_orders_frozen_for_smallest_group():
    group = make_group(2, 1)
    orders = sorted(el.order() for el in group.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_element_count(p, m):
    group = make_group(p, m)
    seen = set(group.elements())
    assert len(seen) == p ** (1 + 2 * m)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (2, 3)])
def test_center_is_the_scalar_fiber(p, m):
    group = make_group(p, m)
    z = center(group)
    assert len(z) == p
    assert all(all(c == 0 for c in el.v) for el in z)
    assert sorted(el.z for el in z) == list(range(p))


def test_commutator_realizes_the_pairing():
    group = make_group(3, 2)
    space = SymplecticSpace(3, 2)
    gens = group.generators()
    for a in gens:
        for b in gens:
            c = commutator(a, b)
            assert all(x == 0 for x in c.v)
            assert c.z == space.pairing(a.v, b.v)


@given(st.data())
@settings(max_examples=60)
def test_commutator_is_central_and_bilinear(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 2))
    group = make_group(p, m)
    space = SymplecticSpace(p, m)
    draw_el = lambda: group.element(
        data.draw(st.integers(0, p - 1)),
        tuple(data.draw(st.integers(0, p - 1)) for _ in range(2 * m)))
    a, b = draw_el(), draw_el()
    c = commutator(a, b)
    assert all(x == 0 for x in c.v)
    assert c.z == space.pairing(a.v, b.v)


def test_centralizer_image_is_perp():
    group = make_group(2, 2)
    space = SymplecticSpace(2, 2)
    for v in itertools.product(range(2), repeat=4):
        if not any(v):
            continue
        a = group.element(0, v)
        assert centralizer_image(group, a) == perp_chart(space, v).sub


def test_abelian_preimage_iff_isotropic():
    group = make_group(2, 2)
    space = SymplecticSpace(2, 2)
    isotropic = set()
    for r in range(3):
        isotropic.update(iter_isotropic(space, r))
    total = 0
    for r in range(5):
        for sub in iter_subspaces(2, 4, r):
            total += 1
            assert abelian_preimage_check(group, sub) == (sub in isotropic)
    assert total == 67


def test_lagrangian_preimage_is_abelian_but_plane_is_not():
    group = make_group(3, 2)
    lagrangian = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert abelian_preimage_check(group, lagrangian)
    hyperbolic = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert not abelian_preimage_check(group, hyperbolic)


def test_group_type_frozen():
    assert group_type(make_group(2, 1)) == {
        "order": 8, "exponent": 4, "arf": 0, "type": "+"}
    assert group_type(make_group(3, 1)) == {
        "order": 27, "exponent": 3, "type": "+"}
    blob = group_type(make_group(5, 2))
    assert blob["order"] == 5 ** 5
    assert blob["exponent"] == 5
    assert blob["type"] == "+"


def test_dihedral_presentation():
    # p = 2, m = 1 gives the dihedral group of the square
    group = make_group(2, 1)
    elements = list(group.elements())
    rotations = [el for el in elements if el.order() == 4]
    assert len(rotations) == 2
    rot = rotations[0]
    assert rot ** 4 == group.identity()
    powers = {rot ** k for k in range(4)}
    assert len(powers) == 4
    reflections = [el for el in elements if el not in powers]
    assert all(el.order() <= 2 for el in reflections)
    ref = next(el for el in reflections if not el.is_identity())
    assert ref * rot * ref.inverse() == rot.inverse()
    words = {ref ** j * rot ** i for i in range(4) for j in range(2)}
    assert len(words) == 8


def test_pow_matches_repeated_multiplication():
    group = make_group(5, 1)
    el = group.element(2, (3, 4))
    acc = group.identity()
    for k in range(12):
        assert el ** k == acc
        acc = acc * el
    assert el ** 1 == el


def test_element_order_divides_p_squared():
    for p, m in [(2, 2), (3, 1), (5, 1)]:
        group = make_group(p, m)
        for el in group.elements():
            assert el ** (p * p) == group.identity()
            assert el.order() in (1, p, p * p)


def test_exponent_p_for_odd_primes():
    for p, m in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        group = make_group(p, m)
        blob = group_type(group)
        assert blob["exponent"] == p
        assert "arf" not in blob


def test_scans_refuse_naming_what_they_count():
    with pytest.raises(CatalogTooLargeError, match="1594323 group elements"):
        next(make_group(3, 6).elements())
    with pytest.raises(CatalogTooLargeError, match="4782969 element pairs"):
        abelian_preimage_check(make_group(3, 3), Subspace.full(3, 6))


def test_mixing_groups_raises():
    a = make_group(2, 1).element(0, (1, 0))
    b = make_group(2, 2).element(0, (1, 0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        a * b


def test_element_ordering_and_str():
    group = make_group(3, 1)
    el = group.element(2, (1, 0))
    assert str(el) == "(2; 1,0)"
    assert group.identity() < el
    listing = sorted(group.elements())
    assert listing[0] == group.identity()
