"""Test-local oracles for the theorem1 engine.

* ``divided_power_parts`` is the per-block builder that pair coordinates
  replaced: the gamma^(j) columns of every monomial merged by
  ``wedge_monomials`` (``divided_power_columns``), cut into torus-weight
  blocks (``block_columns``) and eliminated block by block.
* ``gap_profile`` is the closed form of the (ideal, vanishing, gap)
  dimensions from Wilson's F_p-ranks of the inclusion matrices W_{k-1,k}.
"""

from math import comb

from infker.prime_linalg import Subspace
from infker.symplectic import block_columns, divided_power_columns, weight_blocks


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
