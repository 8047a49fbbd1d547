"""theorem1 in pair coordinates, against the per-block builder and the
closed form.

A torus-weight block of degree r holds x_I ^ y_J ^ prod_{a in K} x_a ^ y_a
over the k-subsets K of its free set.  The pair engine eliminates one
stacked inclusion matrix per (p, s, k, js) and transports it to every
block by the signs epsilon(K); ``oracles.divided_power_parts`` eliminates
every block on its own from the merged gamma^(j) columns.
"""

import pytest

from infker import exterior, inflation, prime_linalg, symplectic
from infker.exterior import monomials, sort_to_monomial
from infker.inflation import _divided_power_parts, theorem1_verify
from infker.symplectic import SymplecticSpace, _pair_signs, weight_blocks
from oracles import divided_power_parts, gap_profile
from test_prime_linalg import count_calls

PRIMES = (2, 3, 5, 7)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m", range(1, 6))
def test_pair_engine_matches_the_per_block_oracle(p, m):
    space = SymplecticSpace(p, m)
    for r in range(2 * m + 1):
        for js in ((1,), tuple(range(1, r // 2 + 1))):
            assert _divided_power_parts(space, r, js) == divided_power_parts(p, m, r, js)


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


@pytest.mark.parametrize("p,m,keys,residuals", [(2, 5, 17, 11), (3, 5, 17, 0)])
def test_theorem1_eliminates_once_per_pair_key(monkeypatch, p, m, keys, residuals):
    """No operator maps and no minors: one elimination per (s, k, js) key,
    and one per block whose vanishing rows leave a nonzero residual modulo
    the ideal."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 built operator maps or took minors")
    for module, name in ((symplectic, "_block_map"), (symplectic, "_graded_map"),
                         (exterior, "pure_wedge_coords"), (inflation, "pure_wedge_coords")):
        monkeypatch.setattr(module, name, refuse)
    space = SymplecticSpace(p, m)
    inflation._inclusion_rref.cache_clear()
    eliminations = count_calls(monkeypatch, prime_linalg, "_rref_rows")
    sandwiches = theorem1_verify(space)
    assert len(eliminations) == keys + residuals
    assert inflation._inclusion_rref.cache_info().misses == keys
    blocks_with_gap = sum(
        part.dim > (ideal[w].dim if w in ideal else 0)
        for r in range(m + 1)
        for ideal in (_divided_power_parts(space, r, (1,)),)
        for w, part in inflation._vanishing_parts(space, r).items())
    assert blocks_with_gap == residuals
    assert sum(s.gap for s in sandwiches) > 0


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
