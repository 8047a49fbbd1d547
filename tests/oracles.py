"""Test-local oracles for the graded operators and the theorem1 engine.

* ``divided_power_oracle`` and ``x_plus_oracle`` are the colex maps of the
  left wedge by gamma^(j) and of the raising operator, built from their
  definitions one monomial at a time: ``wedge_monomials`` merges
  (``divided_power_columns``), and the termwise contraction
  ``symplectic._x_plus_mono``.
* ``assembled_map`` is the colex map assembled from the signed block maps
  ``symplectic._block_map``, which the package no longer builds: the tests
  hold it against the definitions and against the termwise operators.
* ``weight_blocks`` groups every colex monomial of a degree by torus
  weight, with each rank's slot in its block: the table that the per-key
  engine replaced by listing weights from their (s, k) keys.
* ``divided_power_parts`` is the per-block builder that pair coordinates
  replaced: those gamma^(j) columns cut into torus-weight blocks
  (``block_columns``) and eliminated block by block.
* ``image_basis`` and ``dense_decompose`` are the column space and the
  decomposition over whole degrees that the per-block ``decompose``
  replaced, here on the definition-level maps.
* ``gap_profile`` is the closed form of the (ideal, vanishing, gap)
  dimensions from Wilson's F_p-ranks of the inclusion matrices W_{k-1,k}.
* ``rref_oracle`` and ``solve_oracle`` are the list-based elimination and
  the solve on a reduced augmented matrix that the packed and row-wise
  paths replaced.
* ``sparse_from_dense`` holds a dense matrix by columns through the
  canonicalising ``SparseMatrix`` constructor.
* ``transvection`` and ``compound_matrix`` are the dense transvection
  matrix, checked by t^T G t = G, and its compound by minors, which the
  rank-one closed form ``exterior.rank_one_wedge`` replaced;
  ``frame_wedges`` is the pairing check's frame wedges as prefix
  products of the dense transvections' columns.
* ``certificate_by_columns`` is the certificate loop that wrote each
  point's system column by column (``_form_wedge_columns`` and the
  annihilator wedges of ``hyperplane_wedge``) and solved its transpose.
"""

import itertools
from functools import lru_cache
from math import comb

from infker.exterior import (
    _hyperplane_terms,
    hyperplane_restriction,
    mono_rank,
    monomials,
    pure_wedge_coords,
    wedge_monomials,
)
from infker.inflation import (
    CertificateRecord,
    CertificateReport,
    _form_wedge_columns,
    _gram_form,
)
from infker.isotropic import perp_chart
from infker.errors import DecompositionDefectError, DimensionMismatchError, InvariantError
from infker.exterior import Multivector
from infker.prime_linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    inv_mod,
    kernel_basis,
    sum_and_intersection,
)
from infker.symplectic import (
    SIGMA,
    _block_map,
    _block_signs,
    _generator_directions,
    _x_plus_mono,
    dim_wedge,
    torus_weight,
    x_minus,
)


@lru_cache(maxsize=None)
def weight_blocks(m: int, r: int) -> tuple:
    """Degree-r monomials by torus weight, which gamma^(j) ^ and the
    raising operator preserve.  Returns (blocks, slot): ``blocks`` maps
    each weight to the ascending colex ranks of its monomials, ``slot[k]``
    is rank k's place in its block."""
    blocks, slot = {}, []
    for k, mono in enumerate(monomials(2 * m, r)):
        ranks = blocks.setdefault(torus_weight(m, mono), [])
        slot.append(len(ranks))
        ranks.append(k)
    return {w: tuple(ranks) for w, ranks in blocks.items()}, tuple(slot)


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


def assembled_map(p: int, m: int, r: int, t: int, scale: int) -> SparseMatrix:
    """The weight-preserving map from degree r to degree t that is
    ``_block_map`` on every torus-weight block, in colex coordinates: a
    block's colex order is the colex order of its K.  Gamma^(j) ^ is
    t = r + 2j with scale 1, the raising operator t = r - 2 with scale
    sigma."""
    target, columns = weight_blocks(m, t)[0], [()] * dim_wedge(2 * m, r)
    for w, ranks in weight_blocks(m, r)[0].items():
        if w in target:
            s, to = w.count(0), target[w]
            k, kt = (r - m + s) // 2, (t - m + s) // 2
            block = _block_map(p, s, k, kt, scale, _block_signs(p, w, k), _block_signs(p, w, kt))
            for rank, col in zip(ranks, block.columns):
                columns[rank] = tuple([(to[i], v) for i, v in col])
    return SparseMatrix._make(p, dim_wedge(2 * m, t), tuple(columns))


def sparse_from_dense(mat: Matrix) -> SparseMatrix:
    """``mat`` held by columns; the constructor drops the zeros."""
    return SparseMatrix(mat.p, mat.rows, ([(i, row[j]) for i, row in enumerate(mat.entries)]
                                          for j in range(mat.cols)))


def transvection(space, v) -> Matrix:
    """The symplectic transvection x -> x + psi(x, v) v as a matrix."""
    p, n = space.p, space.n
    if len(v) != n:
        raise DimensionMismatchError(f"vector length {len(v)} vs 2m = {n}")
    v = [c % p for c in v]
    if not any(v):
        raise ValueError("transvection direction must be nonzero")
    gv = space.gram.matvec(v)
    t = Matrix._make(p, tuple(tuple((int(i == j) + a * b) % p for j, b in enumerate(gv))
                            for i, a in enumerate(v)), n)
    if t.transpose() @ space.gram @ t != space.gram:
        raise InvariantError("transvection does not preserve the form")
    return t


def compound_matrix(f: Matrix, r: int) -> Matrix:
    """The degree-r compound of ``f``: entry (I, J) is the minor with rows
    I and columns J.  It is the matrix of the induced map on degree-r
    wedges, acting on colex coordinates; row I is the wedge of the rows
    of ``f`` indexed by I."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    return Matrix(f.p, (pure_wedge_coords([f.entries[i] for i in mono], f.cols, f.p)
                        for mono in monomials(f.rows, r)),
                  cols=comb(f.cols, r))


def frame_wedges(space) -> list:
    """Per generator transvection t, the wedges of t(x1)..t(xr) and of
    t(y1)..t(yr) for r = 0..m: prefix products of sparse degree-1
    Multivectors from the dense transvections' columns."""
    p, m, chains = space.p, space.m, []
    one = Multivector.one(p, m)
    for t in (transvection(space, v) for v in _generator_directions(m)):
        images = [Multivector._of(p, m, {(i,): c for i, c in enumerate(col)})
                  for col in zip(*t.entries)]  # the columns t(e_q)
        chain = [(one, one)]
        for q in range(m):
            chain.append(tuple(wedge.wedge(images[a])
                               for wedge, a in zip(chain[-1], (q, m + q))))
        chains.append(chain)
    return chains


def image_basis(mat: Matrix) -> Subspace:
    """Column space of ``mat`` as a canonical subspace of F_p^rows."""
    return Subspace.from_rows(mat.p, mat.rows, mat.transpose().entries)


def dense_decompose(space, alpha):
    """``decompose`` over the whole degree: the primitive kernel of the
    raising matrix and the lowering matrix's image, both from their
    definitions; the defect from their sum and intersection; then one
    solve on the primitive rows followed by the lowering columns, with
    free variables 0."""
    p, m, n = space.p, space.m, space.n
    if alpha.is_zero():
        return alpha, alpha
    r = alpha.degree()
    d = dim_wedge(n, r)
    prim = kernel_basis(x_plus_oracle(p, m, r, SIGMA).to_dense())
    lower = divided_power_oracle(p, m, 1, r - 2).to_dense()
    total, overlap = sum_and_intersection(prim, image_basis(lower))
    if overlap.dim or total.dim != d:
        raise DecompositionDefectError(overlap.dim, d - total.dim)
    cols = [list(row) for row in prim.basis.entries] + \
           [list(lower.column(j)) for j in range(lower.cols)]
    sol = solve_oracle(Matrix(p, zip(*cols), cols=len(cols)), alpha.coords(r))
    if sol is None:
        raise InvariantError("decomposition solve failed after span check")
    e_coords = [0] * d
    for c, row in zip(sol[:prim.dim], prim.basis.entries):
        e_coords = [(a + c * b) % p for a, b in zip(e_coords, row)]
    e = Multivector.from_coords(p, m, r, e_coords)
    beta = (Multivector.from_coords(p, m, r - 2, sol[prim.dim:]) if r >= 2
            else Multivector.zero(p, m))
    assert alpha == e + x_minus(space, beta)
    return e, beta


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


def rref_oracle(rows, ncols: int, p: int):
    """Reduced rows as lists, pivots and rank: leftmost column first, then
    topmost row, one list comprehension per row update."""
    mat = [[v % p for v in row] for row in rows]
    nrows, pivots, rank = len(mat), [], 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = inv_mod(mat[rank][col], p)
        mat[rank] = [(inv * v) % p for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, tuple(pivots), rank


def solve_oracle(mat, rhs):
    """One solution of ``mat @ x = rhs`` read off the reduced augmented
    matrix, free variables zero, or None when inconsistent."""
    red, pivots, _ = rref_oracle([row + (b,) for row, b in zip(mat.entries, rhs)],
                                 mat.cols + 1, mat.p)
    if mat.cols in pivots:
        return None
    x = [0] * mat.cols
    for row, col in zip(red, pivots):
        x[col] = row[mat.cols]
    return tuple(x)


def hyperplane_wedge(nvars: int, p: int, f: int, t, rows) -> tuple:
    """Colex coordinates of the wedge of the rows ``rows`` (a monomial on
    the nvars - 1 row numbers) of the hyperplane chart (f, t): e_U plus the
    signed t_b at U - u + f, as ``_hyperplane_terms`` lists them."""
    unit, terms = _hyperplane_terms(nvars, f, len(rows))[0][rows]
    out = [0] * comb(nvars, len(rows))
    out[unit] = 1
    for rank, sign, b in terms:
        out[rank] = sign * t[b] % p
    return tuple(out)


def certificate_by_columns(space, target) -> CertificateReport:
    """``certificate`` with each point's generators built as columns, the
    form wedges by ``_form_wedge_columns`` and the annihilator wedges by
    ``hyperplane_wedge``, transposed into a Matrix and solved by
    ``solve_oracle``."""
    degree, p, n = target.degree(), space.p, space.n
    k = n - 1
    monos = monomials(k, degree - 2)
    subsets = list(itertools.combinations(range(k - 1), degree))
    idents = ([{"kind": "form_wedge", "monomial": list(mu)} for mu in monos]
              + [{"kind": "annihilator_wedge", "rows": list(b)} for b in subsets])
    records, by_point = [], {}
    for g in itertools.product(range(p), repeat=n):
        lead = next((c for c in g if c), 0)
        if lead > 1:
            inv = inv_mod(lead, p)
            records.append(by_point[tuple(c * inv % p for c in g)]._replace(g=g))
            continue
        if not lead:
            continue
        chart = perp_chart(space, g)
        rest = hyperplane_restriction(n, p, chart.f, chart.c, degree, target.terms)
        coeffs = witness = None
        if any(rest):
            gens = (_form_wedge_columns(p, k, degree, _gram_form(chart.gram),
                                        range(len(monos)))
                    + [hyperplane_wedge(k, p, chart.f_ann, chart.t, b) for b in subsets])
            coeffs = solve_oracle(Matrix(p, zip(*gens), cols=len(gens)), rest)
            if coeffs is not None:
                witness = {"terms": [{"coeff": c, **ident}
                                     for c, ident in zip(coeffs, idents) if c]}
        by_point[g] = CertificateRecord(
            g=g, dim_perp=k, dim_radical=1, dim_complement=k - 1,
            dim_annihilator=k - 1, vacuous=not any(rest),
            member=coeffs is not None, witness=witness)
        records.append(by_point[g])
    return CertificateReport(p=p, m=space.m, degree=degree, target=target,
                             records=records)
