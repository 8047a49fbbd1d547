"""Row reduction, kernels, and subspace bookkeeping against hand oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from infker.errors import (
    CatalogTooLargeError,
    DimensionMismatchError,
    FieldMismatchError,
    NotPrimeError,
)
from infker.prime_linalg import (
    PRIME_BOUND,
    Matrix,
    SparseMatrix,
    Subspace,
    _rref_rows,
    check_prime,
    count_subspaces,
    inv_mod,
    is_prime,
    iter_subspaces,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_rows,
    sum_and_intersection,
)
from oracles import image_basis, rref_oracle, solve_oracle, sparse_from_dense

SMALL_PRIMES = (2, 3, 5, 7)

primes = st.sampled_from(SMALL_PRIMES)


def random_matrix(p, max_dim=5):
    shapes = st.tuples(st.integers(0, max_dim), st.integers(0, max_dim))
    return shapes.flatmap(
        lambda s: st.lists(
            st.lists(st.integers(0, p - 1), min_size=s[1], max_size=s[1]),
            min_size=s[0], max_size=s[0],
        ).map(lambda rows: Matrix(p, rows, cols=s[1]))
    )


matrices = primes.flatmap(random_matrix)
gf2_matrices = random_matrix(2, max_dim=8)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(0, 2000):
        assert is_prime(n) == trial(n), n


def test_strong_pseudoprimes_are_refused():
    # 399165290221 * 798330580441: a strong pseudoprime to bases 2..37
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(NotPrimeError):
        check_prime(318665857834031151167461)
    # the smallest strong pseudoprime to bases 2..41 is the bound itself:
    # it passes every base, so only the bound refuses it
    assert is_prime(PRIME_BOUND)
    with pytest.raises(NotPrimeError, match="bound"):
        check_prime(PRIME_BOUND)
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1


def test_check_prime_raises():
    with pytest.raises(NotPrimeError):
        check_prime(4)
    with pytest.raises(NotPrimeError):
        check_prime(1)
    check_prime(2)
    check_prime(97)


@given(primes, st.integers(1, 100))
def test_inv_mod(p, a):
    if a % p == 0:
        with pytest.raises(ZeroDivisionError):
            inv_mod(a, p)
    else:
        assert (a * inv_mod(a, p)) % p == 1


def test_rref_hand_example():
    # worked by hand over F_5
    mat = Matrix(5, [[2, 4, 1], [3, 1, 2], [0, 3, 4]])
    red, pivots, rk = rref(mat)
    assert rk == 3
    assert pivots == (0, 1, 2)
    assert red == Matrix.identity(5, 3)


def test_rref_hand_example_with_kernel():
    # second column is 2x the first, worked by hand over F_3
    mat = Matrix(3, [[1, 2, 0], [2, 4, 1]])
    red, pivots, rk = rref(mat)
    assert rk == 2
    assert pivots == (0, 2)
    assert red.entries == ((1, 2, 0), (0, 0, 1))
    ker = kernel_basis(mat)
    assert ker.dim == 1
    assert ker.basis.entries == ((1, 1, 0),)  # -2 = 1 mod 3


def test_rref_empty_shapes():
    for mat in (Matrix.zero(5, 0, 4), Matrix.zero(5, 4, 0), Matrix.zero(5, 0, 0)):
        red, pivots, rk = rref(mat)
        assert rk == 0 and pivots == ()
        assert (red.rows, red.cols) == (mat.rows, mat.cols)


def test_transpose_empty_roundtrip():
    mat = Matrix.zero(3, 0, 6)
    assert (mat.transpose().rows, mat.transpose().cols) == (6, 0)
    assert mat.transpose().transpose() == mat


@given(gf2_matrices)
def test_packed_rref_matches_generic(mat):
    """The bitset path over F_2 must be indistinguishable from the
    generic path, including pivot choices."""
    red, pivots, rk = rref_oracle(mat.entries, mat.cols, 2)
    assert (tuple(map(tuple, red)), pivots, rk) == _rref_rows(mat.entries, mat.cols, 2)


@given(matrices)
def test_rref_idempotent_and_rank_nullity(mat):
    red, pivots, rk = rref(mat)
    again, pivots2, rk2 = rref(red)
    assert again == red and pivots2 == pivots and rk2 == rk
    assert rk + kernel_basis(mat).dim == mat.cols


@given(matrices)
def test_kernel_vectors_annihilate(mat):
    ker = kernel_basis(mat)
    for row in ker.basis.entries:
        assert not any(mat.matvec(row))


def two_elimination_kernel(mat):
    """Reference: the kernel as it was built before kernel_basis read its
    rref off one right-to-left elimination.  Generators from the
    left-to-right rref, then a second elimination."""
    red, pivots, rk = rref(mat)
    p = mat.p
    n = mat.cols
    free = [c for c in range(n) if c not in set(pivots)]
    gens = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-red.entries[i][f]) % p
        gens.append(vec)
    return Subspace.from_rows(p, n, gens)


@st.composite
def kernel_cases(draw):
    """Matrices up to 6 x 7 over p in {2, 3, 5, 7}, empty shapes included:
    random, zero, or of full rank min(rows, cols)."""
    p = draw(primes)
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("random", "zero", "full")))
    entry = st.integers(0, p - 1)
    rows = [[draw(entry) if kind == "random" else 0 for _ in range(c)] for _ in range(r)]
    if kind == "full":
        # unit staircase, random right of each step, in permuted columns
        perm = draw(st.permutations(range(c)))
        for i in range(min(r, c)):
            rows[i][perm[i]] = 1
            for j in range(i + 1, c):
                rows[i][perm[j]] = draw(entry)
    return Matrix(p, rows, cols=c)


@given(kernel_cases())
@settings(max_examples=300)
def test_kernel_basis_matches_two_elimination_oracle(mat):
    ker = kernel_basis(mat)
    oracle = two_elimination_kernel(mat)
    assert ker == oracle
    assert ker.pivots == oracle.pivots
    assert (mat @ ker.basis.transpose()).is_zero()
    again = Subspace.from_rows(mat.p, mat.cols, ker.basis.entries)
    assert ker == again and ker.pivots == again.pivots
    assert ker.dim == mat.cols - rank(mat)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is counted in the returned list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_kernel_basis_eliminates_once(monkeypatch):
    import infker.prime_linalg as pl
    calls = count_calls(monkeypatch, pl, "_rref_rows")
    mat = Matrix(5, [[1, 2, 3, 4, 0], [0, 1, 4, 4, 2], [1, 3, 2, 3, 2]])
    ker = kernel_basis(mat)
    assert len(calls) == 1
    assert ker == two_elimination_kernel(mat)


@given(matrices, st.data())
def test_solve_residual(mat, data):
    """solve() must return an exact preimage whenever one exists, with
    zeros in the free coordinates."""
    x = data.draw(st.lists(st.integers(0, mat.p - 1),
                           min_size=mat.cols, max_size=mat.cols))
    b = mat.matvec(x)
    sol = solve(mat, b)
    assert sol is not None
    assert mat.matvec(sol) == tuple(b)
    pivots = set(rref(mat)[1])
    assert all(sol[c] == 0 for c in range(mat.cols) if c not in pivots)


def test_solve_inconsistent():
    mat = Matrix(3, [[1, 0], [0, 0]])
    assert solve(mat, [0, 1]) is None


def solve_by_matrix(mat, rhs):
    """solve() as written before it handed the augmented rows straight to
    the elimination: through a Matrix, reduced there and again in rref."""
    aug = Matrix(mat.p, (list(row) + [b] for row, b in zip(mat.entries, rhs)),
                 cols=mat.cols + 1)
    red, pivots, _ = rref(aug)
    if mat.cols in pivots:
        return None
    x = [0] * mat.cols
    for i, col in enumerate(pivots):
        x[col] = red.entries[i][mat.cols]
    return tuple(x)


@given(matrices, st.data())
def test_solve_matches_matrix_oracle(mat, data):
    # right-hand sides of any integers, consistent or not
    rhs = data.draw(st.lists(st.integers(-3 * mat.p, 3 * mat.p),
                             min_size=mat.rows, max_size=mat.rows))
    assert solve(mat, rhs) == solve_by_matrix(mat, rhs)


@given(matrices)
@settings(max_examples=300)
def test_rank_matches_rref_oracle(mat):
    """rank eliminates without reading a reduced matrix back; its count is
    the list-based rref's."""
    assert rank(mat) == rref_oracle(mat.entries, mat.cols, mat.p)[2] == rref(mat)[2]


@st.composite
def augmented_systems(draw):
    """A Matrix up to 6 x 7 and a right-hand side: random, with a zero row
    and zero right-hand side there, or with a zero row and a nonzero one
    there, which no x solves."""
    p = draw(primes)
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.integers(0, p - 1)
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    rhs = [draw(entry) for _ in range(r)]
    kind = draw(st.sampled_from(("random", "zero_row", "inconsistent")))
    if kind != "random" and r:
        i = draw(st.integers(0, r - 1))
        rows[i] = [0] * c
        rhs[i] = 0 if kind == "zero_row" else draw(st.integers(1, p - 1))
    return Matrix(p, rows, cols=c), rhs


@given(augmented_systems())
@settings(max_examples=300)
def test_solve_rows_matches_solve(case):
    """solve_rows on augmented rows, packed by hand at p = 2, against solve
    and against the solution read off the list-based rref."""
    mat, rhs = case
    p, n = mat.p, mat.cols
    if p == 2:
        rows = [sum(v << c for c, v in enumerate(row + (b,)))
                for row, b in zip(mat.entries, rhs)]
    else:
        rows = [list(row) + [b] for row, b in zip(mat.entries, rhs)]
    want = solve_oracle(mat, rhs)
    assert solve_rows(p, rows, n) == solve(mat, rhs) == want
    if any(b and not any(row) for row, b in zip(mat.entries, rhs)):
        assert want is None


def column_dot_product(a, b):
    """Entries of a @ b as computed before zero entries were skipped: each
    one the dot product of a row of ``a`` with a column of ``b``."""
    cols_b = list(zip(*b.entries)) if b.rows else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % a.p for col in cols_b)
        if cols_b else (0,) * b.cols
        for row in a.entries)


@st.composite
def mostly_zero_products(draw):
    p = draw(primes)
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    # an entry is nonzero about a third of the time
    entry = st.integers(0, 3 * p - 1).map(lambda v: v if v < p else 0)

    def matrix(r, c):
        return Matrix(p, [[draw(entry) for _ in range(c)] for _ in range(r)], cols=c)
    return matrix(rows, inner), matrix(inner, cols)


@given(mostly_zero_products())
@settings(max_examples=200)
def test_matmul_matches_column_dot_product(pair):
    a, b = pair
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == column_dot_product(a, b)


@pytest.mark.parametrize("rows,inner,cols", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_matmul_empty_shapes(rows, inner, cols):
    a = Matrix(5, [[1] * inner for _ in range(rows)], cols=inner)
    b = Matrix(5, [[2] * cols for _ in range(inner)], cols=cols)
    prod = a @ b
    assert (prod.rows, prod.cols) == (rows, cols)
    assert prod.entries == column_dot_product(a, b)


def test_matrix_algebra_basics():
    a = Matrix(7, [[1, 2], [3, 4]])
    b = Matrix(7, [[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert (a + b - b) == a
    assert a.scale(2).entries == ((2, 4), (6, 1))
    assert a.matvec([1, 1]) == (3, 0)
    with pytest.raises(DimensionMismatchError):
        a @ Matrix(7, [[1, 2, 3]])
    with pytest.raises(FieldMismatchError):
        a @ Matrix(5, [[1, 2], [3, 4]])


@st.composite
def sparse_cases(draw):
    """Dense a (r x k), a2 (r x k, often equal to a), b (k x c), an
    unreduced vector of length k and an unreduced scalar, mostly zeros."""
    p = draw(primes)
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))

    def mat(rows, cols):
        return Matrix(p, draw(st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)), cols=cols)
    a = mat(r, k)
    a2 = a if draw(st.booleans()) else mat(r, k)
    vec = draw(st.lists(st.integers(-p, 2 * p), min_size=k, max_size=k))
    return a, a2, mat(k, c), vec, draw(st.integers(-2 * p, 2 * p))


@given(sparse_cases())
def test_sparse_matrix_matches_dense(case):
    a, a2, b, vec, c = case
    sparse = sparse_from_dense
    sa, sa2, sb = sparse(a), sparse(a2), sparse(b)
    assert sa.to_dense() == a
    # results compare equal to the canonical form of the dense answer,
    # so no operation leaves a stored zero or an unsorted column
    assert sa @ sb == sparse(a @ b)
    assert sa - sa2 == sparse(a - a2)
    assert sa.scale(c) == sparse(a.scale(c))
    assert sa.matvec(vec) == a.matvec(vec)
    assert (sa == sa2) == (a == a2)
    assert sa - sa == sparse(Matrix.zero(a.p, a.rows, a.cols))
    assert not any((sa - sa).columns)


def test_sparse_matrix_canonical_form():
    # repeated rows add up, values reduce mod p, zero sums disappear
    built = SparseMatrix(3, 2, [[(1, 2), (0, 4), (1, 1)], [(1, 5), (1, -2)], []])
    assert built.columns == (((0, 1),), (), ())
    assert built == sparse_from_dense(Matrix(3, [[1, 0, 0], [0, 0, 0]]))
    assert built != SparseMatrix(3, 3, built.columns)
    assert SparseMatrix.diagonal(5, 2, 7) == sparse_from_dense(
        Matrix.identity(5, 2).scale(2))
    assert SparseMatrix.diagonal(5, 2, 5).columns == ((), ())
    with pytest.raises(DimensionMismatchError):
        SparseMatrix(3, 2, [[(2, 1)]])
    with pytest.raises(DimensionMismatchError):
        built @ built
    with pytest.raises(DimensionMismatchError):
        built - SparseMatrix(3, 3, built.columns)
    with pytest.raises(DimensionMismatchError):
        built.matvec([1, 2])
    with pytest.raises(FieldMismatchError):
        built - SparseMatrix(5, 2, [[], [], []])
    with pytest.raises(AttributeError):
        built.rows = 4


def test_matrix_json_roundtrip():
    mat = Matrix(5, [[1, 2, 3], [4, 0, 1]])
    assert Matrix.from_json(mat.to_json()) == mat


def test_subspace_member_and_canonical_form():
    sub = Subspace.from_rows(5, 4, [[1, 2, 3, 4], [0, 1, 2, 1], [1, 3, 5, 5]])
    assert sub.dim == 2  # third row is the sum of the first two
    assert sub.pivots == (0, 1)
    coeffs = sub.member([0, 0, 0, 0])
    assert coeffs is not None and not any(coeffs)
    row0 = sub.basis.entries[0]
    tripled = [(3 * v) % 5 for v in row0]
    coeffs = sub.member(tripled)
    assert coeffs is not None
    assert coeffs[0] == 3


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", range(7))
def test_full_is_the_reduced_identity(p, n):
    full = Subspace.full(p, n)
    oracle = Subspace.from_rows(p, n, Matrix.identity(p, n).entries)
    assert full == oracle
    assert full.pivots == oracle.pivots == tuple(range(n))
    assert (full.basis.rows, full.basis.cols) == (n, n)


@given(primes, st.data())
def test_from_rows_reduces_any_integers(p, data):
    n = data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(
        st.lists(st.integers(-3 * p, 3 * p), min_size=n, max_size=n),
        max_size=4))
    sub = Subspace.from_rows(p, n, rows)
    red, pivots, rk = rref(Matrix(p, rows, cols=n))
    assert sub.basis == Matrix(p, red.entries[:rk], cols=n)
    assert sub.pivots == pivots
    assert sub == Subspace.from_rows(p, n, [[v % p for v in row] for row in rows])


def test_from_rows_errors():
    with pytest.raises(DimensionMismatchError):
        Subspace.from_rows(3, 3, [[1, 0, 0], [0, 1]])
    with pytest.raises(NotPrimeError):
        Subspace.from_rows(4, 2, [[1, 0]])
    with pytest.raises(NotPrimeError):
        Subspace.full(4, 2)


@given(primes, st.data())
def test_subspace_membership_closed_under_addition(p, data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=0, max_size=4))
    sub = Subspace.from_rows(p, n, rows)
    for u in rows:
        assert sub.member(u) is not None
    if len(rows) >= 2:
        summed = [(a + b) % p for a, b in zip(rows[0], rows[1])]
        assert sub.member(summed) is not None


def test_subspace_vectors_and_budget():
    sub = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    vecs = list(sub.vectors())
    assert len(vecs) == 4
    assert all(sub.member(v) is not None for v in vecs)
    big = Subspace.full(31, 5)
    with pytest.raises(CatalogTooLargeError, match="28629151 vectors"):
        list(big.vectors())


def test_zassenhaus_hand_example():
    u = Subspace.from_rows(2, 3, [[1, 0, 0], [0, 1, 0]])
    w = Subspace.from_rows(2, 3, [[0, 1, 0], [0, 0, 1]])
    total, inter = sum_and_intersection(u, w)
    assert total == Subspace.full(2, 3)
    assert inter.dim == 1
    assert inter.member([0, 1, 0]) is not None


@given(primes, st.data())
def test_zassenhaus_modular_law(p, data):
    n = data.draw(st.integers(1, 4))
    mk = lambda: data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=0, max_size=3))
    u = Subspace.from_rows(p, n, mk())
    w = Subspace.from_rows(p, n, mk())
    total, inter = sum_and_intersection(u, w)
    assert total.dim + inter.dim == u.dim + w.dim
    for row in inter.basis.entries:
        assert u.member(row) is not None
        assert w.member(row) is not None
    for row in u.basis.entries:
        assert total.member(row) is not None


def two_elimination_zassenhaus(u, w):
    """Reference: U + W and U intersect W as they were read off the
    Zassenhaus rref before it was split in place, each half eliminated
    again by from_rows."""
    p, n = u.p, u.ambient_dim
    rows = [list(r) + list(r) for r in u.basis.entries]
    rows += [list(r) + [0] * n for r in w.basis.entries]
    red, pivots, rk = rref(Matrix(p, rows, cols=2 * n))
    total = Subspace.from_rows(p, n, (row[:n] for row in red.entries[:rk]))
    inter = Subspace.from_rows(
        p, n, [row[n:] for i, row in enumerate(red.entries[:rk]) if pivots[i] >= n])
    return total, inter


@given(primes, st.data())
@settings(max_examples=200)
def test_zassenhaus_matches_two_elimination_oracle(p, data):
    n = data.draw(st.integers(0, 6))
    mk = lambda: data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=5))
    u = Subspace.from_rows(p, n, mk())
    w = Subspace.from_rows(p, n, mk())
    got = sum_and_intersection(u, w)
    for sub, oracle in zip(got, two_elimination_zassenhaus(u, w)):
        assert sub == oracle and sub.pivots == oracle.pivots
        again = Subspace.from_rows(p, n, sub.basis.entries)
        assert sub == again and sub.pivots == again.pivots
        assert (sub.basis.rows, sub.basis.cols) == (sub.dim, n)


def test_zassenhaus_eliminates_once(monkeypatch):
    import infker.prime_linalg as pl
    u = Subspace.from_rows(3, 4, [[1, 2, 0, 1], [0, 0, 1, 2]])
    w = Subspace.from_rows(3, 4, [[1, 2, 1, 0], [0, 1, 0, 0]])
    calls = count_calls(monkeypatch, pl, "_rref_rows")
    total, inter = sum_and_intersection(u, w)
    assert len(calls) == 1
    assert (total, inter) == two_elimination_zassenhaus(u, w)
    assert inter.basis.entries == ((1, 2, 1, 0),)  # the sum of u's rows
    assert inter.pivots == (0,)


def test_image_basis_is_column_space():
    mat = Matrix(3, [[1, 2], [0, 1], [2, 1]])
    img = image_basis(mat)
    assert img.dim == 2
    assert img.member([1, 0, 2]) is not None
    assert img.member([2, 1, 1]) is not None
    assert img.member([0, 0, 1]) is None


def test_image_of_dependent_columns():
    # second column is twice the first over F_3
    mat = Matrix(3, [[1, 2], [0, 0], [2, 1]])
    img = image_basis(mat)
    assert img.dim == 1
    assert img.member([2, 0, 1]) is not None


def test_count_subspaces_small_table():
    # Gaussian binomials for F_2^4, textbook values
    assert [count_subspaces(2, 4, k) for k in range(5)] == [1, 15, 35, 15, 1]
    assert sum(count_subspaces(2, 4, k) for k in range(5)) == 67
    assert count_subspaces(3, 2, 1) == 4


@pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)])
def test_iter_subspaces_complete_and_distinct(p, n, k):
    subs = list(iter_subspaces(p, n, k))
    assert len(subs) == count_subspaces(p, n, k)
    assert len(set(subs)) == len(subs)
    assert all(s.dim == k for s in subs)
