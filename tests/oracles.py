"""Test-local oracles for the graded operators and the theorem1 engine.

* ``divided_power_oracle`` and ``x_plus_oracle`` are the colex maps of the
  left wedge by gamma^(j) and of the raising operator, built from their
  definitions one monomial at a time: ``wedge_monomials`` merges
  (``divided_power_columns``), and the termwise contraction
  ``symplectic._x_plus_mono``.
* ``divided_power_parts`` is the per-block builder that pair coordinates
  replaced: those gamma^(j) columns cut into torus-weight blocks
  (``block_columns``) and eliminated block by block.
* ``gap_profile`` is the closed form of the (ideal, vanishing, gap)
  dimensions from Wilson's F_p-ranks of the inclusion matrices W_{k-1,k}.
"""

from functools import lru_cache
from math import comb

from infker.exterior import mono_rank, monomials, wedge_monomials
from infker.prime_linalg import SparseMatrix, Subspace
from infker.symplectic import _x_plus_mono, dim_wedge, weight_blocks


@lru_cache(maxsize=None)
def divided_power_columns(m: int, j: int, r: int) -> tuple:
    """The left wedge by gamma^(j) from degree r to r + 2j, as (rank, sign)
    pairs per degree-r monomial: the sum over j-subsets A of the products
    of the x_a ^ y_a, a in A, each sorting to A u (m + A) in j(j-1)/2
    swaps."""
    terms = [a + tuple(m + t for t in a) for a in monomials(m, j)]
    sign = (-1) ** (j * (j - 1) // 2)
    return tuple(tuple((mono_rank(merged[1]), sign * merged[0])
                       for term in terms if (merged := wedge_monomials(term, mono)))
                 for mono in monomials(2 * m, r))


def divided_power_oracle(p: int, m: int, j: int, r: int) -> SparseMatrix:
    """The left wedge by gamma^(j) from degree r to r + 2j."""
    return SparseMatrix(p, dim_wedge(2 * m, r + 2 * j), divided_power_columns(m, j, r))


def x_plus_oracle(p: int, m: int, r: int, sigma: int) -> SparseMatrix:
    """The raising operator from degree r to r - 2: the termwise signed
    pair removals of each degree-r monomial."""
    return SparseMatrix(p, dim_wedge(2 * m, r - 2), (
        [(mono_rank(reduced), sign) for sign, reduced in _x_plus_mono(m, mono, sigma)]
        for mono in monomials(2 * m, r)))


def block_columns(m: int, columns, r: int, s: int) -> dict:
    """Columns of a weight-preserving map from degree r to s, given as (rank,
    value) pairs, grouped by torus weight and dense in the degree-s block."""
    blocks, slot = weight_blocks(m, s)
    out = {}
    for w, ranks in weight_blocks(m, r)[0].items():
        for k in ranks:
            vec = [0] * len(blocks.get(w, ()))
            for i, v in columns[k]:
                vec[slot[i]] = v
            out.setdefault(w, []).append(vec)
    return out


def divided_power_parts(p: int, m: int, r: int, js: tuple) -> dict:
    """The span of the images of gamma^(j) ^ from degree r - 2j over the j
    in ``js``, one canonical local subspace per torus weight, with one
    elimination per block."""
    blocks, cols = weight_blocks(m, r)[0], {}
    for j in js:
        columns = divided_power_columns(m, j, r - 2 * j)
        for w, block in block_columns(m, columns, r - 2 * j, r).items():
            if w in blocks:  # else no degree-r monomial has weight w
                cols.setdefault(w, []).extend(block)
    return {w: Subspace.from_rows(p, len(blocks[w]), c) for w, c in cols.items()}


def inclusion_rank(p: int, s: int, k: int) -> int:
    """rank_p W_{k-1,k}(s) by Wilson's diagonal form: for 2k <= s + 1 it is
    the sum over i < k with p not dividing k - i of C(s, i) - C(s, i - 1);
    otherwise k becomes s - k + 1 (complements, transposed)."""
    if not 1 <= k <= s:
        return 0
    if 2 * k > s + 1:
        k = s - k + 1
    return sum(comb(s, i) - (comb(s, i - 1) if i else 0)
               for i in range(k) if (k - i) % p)


def gap_profile(p: int, m: int) -> list:
    """(ideal, vanishing, gap) dimensions in every degree 0..2m.  A block
    with t unpaired positions out of m and k = (r - t) / 2 pairs comes in
    C(m, t) 2^t weights, each carrying W_{k-1,k}(m - t)."""
    out = []
    for r in range(2 * m + 1):
        ideal = sum(comb(m, t) * 2 ** t * inclusion_rank(p, m - t, (r - t) // 2)
                    for t in range(r % 2, min(r, m) + 1, 2))
        vanishing = comb(2 * m, r - 2) if 2 <= r <= m else (comb(2 * m, r) if r > m else 0)
        out.append((ideal, vanishing, vanishing - ideal))
    return out
