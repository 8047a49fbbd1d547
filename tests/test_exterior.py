"""Monomial ranking, wedge signs, minors, and the text grammar.

The oracles here are deliberately independent of the implementation:
ranking is cross-checked against a full sort, signs against brute-force
inversion counts, and minors (which the module computes as wedge
coordinates) against a test-local Gaussian-elimination determinant and
the permutation expansion.
"""

import itertools
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from infker.errors import DimensionMismatchError, HomogeneityError, ParseError
from infker.exterior import (
    _wedge_table,
    Multivector,
    VariableOrder,
    hyperplane_restriction,
    mono_rank,
    monomials,
    parse,
    pullback_coords,
    pure_wedge_coords,
    sort_to_monomial,
    wedge_coords,
    wedge_monomials,
)
from infker.prime_linalg import Matrix
from oracles import compound_matrix, hyperplane_wedge

primes = st.sampled_from((2, 3, 5, 7))


def brute_sign(seq):
    """Permutation sign by counting inversions, or 0 on a repeat."""
    if len(set(seq)) != len(seq):
        return 0
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


@pytest.mark.parametrize("nvars,r", [(4, 0), (4, 1), (4, 2), (6, 3), (6, 4), (7, 3)])
def test_monomials_are_colex_sorted(nvars, r):
    monos = monomials(nvars, r)
    assert len(monos) == len(set(monos))
    resorted = sorted(monos, key=lambda t: tuple(reversed(t)))
    assert list(monos) == resorted
    assert all(len(m) == r and all(0 <= c < nvars for c in m) for m in monos)
    assert all(tuple(sorted(m)) == m for m in monos)


@pytest.mark.parametrize("nvars,r", [(4, 2), (6, 3), (8, 4)])
def test_rank_unrank_roundtrip(nvars, r):
    # the colex list is the unranking: rank is the index into it
    for idx, mono in enumerate(monomials(nvars, r)):
        assert mono_rank(mono) == idx


def test_rank_closed_form():
    # rank is the sum of C(position, slot+1), checked on a worked case:
    # (1, 3, 4) -> C(1,1) + C(3,2) + C(4,3) = 1 + 3 + 4 = 8
    assert mono_rank((1, 3, 4)) == 8
    assert monomials(6, 3)[8] == (1, 3, 4)


@given(st.data())
def test_wedge_monomials_sign_oracle(data):
    nvars = data.draw(st.integers(2, 7))
    ra = data.draw(st.integers(1, min(3, nvars)))
    rb = data.draw(st.integers(1, min(3, nvars)))
    a = tuple(sorted(data.draw(
        st.lists(st.integers(0, nvars - 1), min_size=ra, max_size=ra,
                 unique=True))))
    b = tuple(sorted(data.draw(
        st.lists(st.integers(0, nvars - 1), min_size=rb, max_size=rb,
                 unique=True))))
    merged = wedge_monomials(a, b)
    expected_sign = brute_sign(a + b)
    if expected_sign == 0:
        assert merged is None
    else:
        sign, mono = merged
        assert mono == tuple(sorted(a + b))
        assert sign == expected_sign


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_sort_to_monomial_matches_brute_sign(positions):
    result = sort_to_monomial(positions)
    expected = brute_sign(positions)
    if expected == 0:
        assert result is None
    else:
        sign, mono = result
        assert sign == expected
        assert mono == tuple(sorted(positions))


def det_oracle(rows, p):
    """Determinant of a small square matrix over F_p by elimination; it
    shares no code with the wedge product."""
    n = len(rows)
    mat = [[v % p for v in row] for row in rows]
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        lead = mat[col][col]
        det = det * lead % p
        inv = pow(lead, p - 2, p)
        for i in range(col + 1, n):
            if mat[i][col]:
                f = mat[i][col] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[col])]
    return det % p


def leibniz(rows):
    """Determinant as the signed sum over permutations, over the integers."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = brute_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@given(primes, st.data())
def test_pure_wedge_permutation_expansion(p, data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=n, max_size=n))
    assert pure_wedge_coords(rows, n, p) == (leibniz(rows) % p,)


@given(primes, st.data())
@settings(max_examples=60)
def test_minors_match_determinant_oracle(p, data):
    """Every entry of the compound, and every coordinate of a pure wedge,
    is the determinant of its square submatrix, on rectangular shapes up
    to 5 x 6 and for every r up to one past the smaller side."""
    rows = data.draw(st.integers(0, 5))
    cols = data.draw(st.integers(0, 6))
    entries = [[data.draw(st.integers(0, p - 1)) for _ in range(cols)]
               for _ in range(rows)]
    f = Matrix(p, entries, cols=cols)
    for r in range(min(rows, cols) + 2):
        comp = compound_matrix(f, r)
        assert (comp.rows, comp.cols) == (comb(rows, r), comb(cols, r))
        for i, mi in enumerate(monomials(rows, r)):
            for j, mj in enumerate(monomials(cols, r)):
                assert comp.entries[i][j] == det_oracle(
                    [[entries[a][b] for b in mj] for a in mi], p)
    for r in range(rows + 1):
        wedge = pure_wedge_coords(entries[:r], cols, p)
        assert wedge == tuple(
            det_oracle([[row[b] for b in mono] for row in entries[:r]], p)
            for mono in monomials(cols, r))


def test_minor_edge_shapes():
    f = Matrix(5, [[1, 2, 3, 4], [0, 1, 4, 2]])
    assert compound_matrix(f, 0) == Matrix(5, [[1]])
    too_many = compound_matrix(f, 3)
    assert (too_many.rows, too_many.cols) == (0, comb(4, 3))
    assert pure_wedge_coords([], 4, 5) == (1,)
    assert pure_wedge_coords([[1, 0], [0, 1], [1, 1]], 2, 5) == ()


@given(primes, st.data())
@settings(max_examples=40)
def test_compound_is_multiplicative(p, data):
    n = data.draw(st.integers(2, 4))
    r = data.draw(st.integers(1, n))
    mk = lambda: Matrix(p, [
        [data.draw(st.integers(0, p - 1)) for _ in range(n)]
        for _ in range(n)])
    a, b = mk(), mk()
    assert compound_matrix(a @ b, r) == compound_matrix(a, r) @ compound_matrix(b, r)


def test_compound_degree_one_is_identity_functor():
    mat = Matrix(5, [[1, 2], [3, 4]])
    assert compound_matrix(mat, 1) == mat


def pullback_matrix(f, r):
    """Matrix of the degree-r pullback of functionals along ``f``: with
    ``f`` the n x k matrix of a map A -> V (columns are the images of A's
    basis), entry (J, I) is the minor of ``f`` with rows I and columns J,
    so the pullback is the transposed compound and composes
    contravariantly.  The reference for :func:`pullback_coords`."""
    return compound_matrix(f, r).transpose()


@given(primes, st.data())
@settings(max_examples=40)
def test_pullback_contravariant(p, data):
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, k))
    f = Matrix(p, [[data.draw(st.integers(0, p - 1)) for _ in range(k)]
                   for _ in range(n)])
    g = Matrix(p, [[data.draw(st.integers(0, p - 1)) for _ in range(n)]
                   for _ in range(n)])
    assert pullback_matrix(g @ f, r) == pullback_matrix(f, r) @ pullback_matrix(g, r)


@given(primes, st.data())
@settings(max_examples=40)
def test_pullback_coords_matches_pullback_matrix(p, data):
    """Pulling a class back through its own terms agrees with the full
    pullback matrix, in every degree and for any k <= n."""
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n))
    f = Matrix(p, [[data.draw(st.integers(0, p - 1)) for _ in range(k)]
                   for _ in range(n)], cols=k)
    for r in range(n + 1):
        monos = monomials(n, r)
        coords = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=len(monos), max_size=len(monos)))
        terms = {mono: c for mono, c in zip(monos, coords) if c}
        assert pullback_coords(f, r, terms) == pullback_matrix(f, r).matvec(coords)


def test_pullback_coords_rejects_other_degrees():
    with pytest.raises(DimensionMismatchError):
        pullback_coords(Matrix.identity(3, 4), 2, {(0,): 1})


@given(primes, st.data())
@settings(max_examples=120)
def test_hyperplane_closed_forms_match_minors(p, data):
    """The wedges of the rows e_u + t_b e_f of a nonzero functional's
    kernel, and the restriction of a class to that kernel, agree with the
    minors of ``pure_wedge_coords`` and ``pullback_coords`` in every
    degree, with f anywhere, first and last included.  f is the
    functional's last nonzero position (the rref rows) or any nonzero
    position of it (t_b nonzero past f too)."""
    n = data.draw(st.integers(1, 8))
    f = data.draw(st.sampled_from(sorted({0, n - 1, data.draw(st.integers(0, n - 1))})))
    anywhere = data.draw(st.booleans())
    phi = [data.draw(st.integers(0, p - 1)) if j < f or anywhere else 0 for j in range(n)]
    phi[f] = data.draw(st.integers(1, p - 1))
    t = [-c * pow(phi[f], p - 2, p) % p for j, c in enumerate(phi) if j != f]
    rows = [[t[b] if j == f else int(j == b + (b >= f)) for j in range(n)]
            for b in range(n - 1)]
    f_t = Matrix(p, [[row[j] for row in rows] for j in range(n)], cols=n - 1)
    for r in range(n + 1):
        subsets = list(itertools.combinations(range(n - 1), r))
        for subset in data.draw(st.lists(st.sampled_from(subsets), max_size=4)
                                if subsets else st.just([])):
            assert hyperplane_wedge(n, p, f, t, subset) == pure_wedge_coords(
                [rows[b] for b in subset], n, p)
        monos = monomials(n, r)
        coords = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=len(monos), max_size=len(monos)))
        terms = {mono: c for mono, c in zip(monos, coords) if c}
        assert hyperplane_restriction(n, p, f, t, r, terms) == pullback_coords(f_t, r, terms)


def test_hyperplane_restriction_rejects_other_degrees():
    with pytest.raises(DimensionMismatchError):
        hyperplane_restriction(4, 3, 1, (1, 2, 0), 2, {(0,): 1})


@given(primes, st.data())
@settings(max_examples=40)
def test_pure_wedge_matches_multivector_product(p, data):
    m = data.draw(st.integers(1, 3))
    nvars = 2 * m
    r = data.draw(st.integers(1, min(3, nvars)))
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(nvars)]
            for _ in range(r)]
    coords = pure_wedge_coords(rows, nvars, p)
    order = VariableOrder(m)
    acc = Multivector.one(p, m)
    for row in rows:
        vec = Multivector.zero(p, m)
        for pos, c in enumerate(row):
            if c:
                var = Multivector.variable(p, m, order.name(pos))
                vec = vec + var.scale(c)
        acc = acc.wedge(vec)
    assert acc.coords(r) == coords


@given(primes, st.data())
def test_wedge_coords_agrees_with_multivector_wedge(p, data):
    m = data.draw(st.integers(1, 3))
    n = 2 * m
    da = data.draw(st.integers(0, min(2, n)))
    db = data.draw(st.integers(0, min(2, n)))
    if da + db > n:
        return
    va = [data.draw(st.integers(0, p - 1)) for _ in range(comb(n, da))]
    vb = [data.draw(st.integers(0, p - 1)) for _ in range(comb(n, db))]
    got = wedge_coords(n, p, da, va, db, vb)
    mva = Multivector.from_coords(p, m, da, va)
    mvb = Multivector.from_coords(p, m, db, vb)
    assert mva.wedge(mvb).coords(da + db) == got


@given(primes, st.data())
@settings(max_examples=80)
def test_sparse_wedge_coords_agrees_with_multivector_wedge(p, data):
    # factors with a handful of nonzero coordinates, every degree pair
    m = data.draw(st.integers(1, 3))
    n = 2 * m
    da = data.draw(st.integers(0, n))
    db = data.draw(st.integers(0, n - da))

    def sparse(r):
        vec = [0] * comb(n, r)
        for i in data.draw(st.lists(st.integers(0, len(vec) - 1), max_size=3)):
            vec[i] = data.draw(st.integers(1, p - 1))
        return vec

    va, vb = sparse(da), sparse(db)
    mva = Multivector(p, m, dict(zip(monomials(n, da), va)))
    mvb = Multivector(p, m, dict(zip(monomials(n, db), vb)))
    assert wedge_coords(n, p, da, va, db, vb) == mva.wedge(mvb).coords(da + db)
    assert wedge_coords(n, p, db, vb, da, va) == mvb.wedge(mva).coords(da + db)


@pytest.mark.parametrize("nvars", range(7))
def test_wedge_table_matches_sorted_concatenation(nvars):
    # every entry: the sign and colex position of the concatenated factors
    # sorted by insertion, or None on a shared position
    for da, db in itertools.product(range(nvars + 1), repeat=2):
        ranks = {mono: i for i, mono in enumerate(monomials(nvars, da + db))}
        expected = []
        for ma in monomials(nvars, da):
            row = []
            for mb in monomials(nvars, db):
                merged = sort_to_monomial(ma + mb)
                row.append(None if merged is None else (merged[0], ranks[merged[1]]))
            expected.append(tuple(row))
        assert _wedge_table(nvars, da, db) == tuple(expected)


def test_variable_order_naming():
    order = VariableOrder(3)
    assert [order.name(i) for i in range(6)] == ["x1", "x2", "x3", "y1", "y2", "y3"]
    assert order.position("y2") == 4
    assert order.mono_name((1, 2, 4, 5)) == "x2^x3^y2^y3"
    assert order.mono_name(()) == "1"
    with pytest.raises(ValueError):
        order.position("x4")
    with pytest.raises(ValueError):
        order.position("z1")


class TestGrammar:
    def test_single_monomial(self):
        mv = parse("x1^y1", 5, 2)
        assert str(mv) == "x1^y1"
        assert mv.coords(2)[mono_rank((0, 2))] == 1

    def test_coefficients_and_sums(self):
        mv = parse("2*x1^y1 + 3*x2^y2", 5, 2)
        assert str(mv) == "2*x1^y1 + 3*x2^y2"

    def test_subtraction_normalizes(self):
        mv = parse("x1^x2 - y1^y2", 3, 2)
        assert str(mv) == "x1^x2 + 2*y1^y2"

    def test_bare_coefficient_is_degree_zero(self):
        mv = parse("4", 7, 2)
        assert mv.degrees() == (0,)
        assert str(mv) == "4"

    def test_one_is_printed_for_degree_zero_only(self):
        assert str(parse("1", 5, 2)) == "1"
        assert str(parse("1*x1", 5, 2)) == "x1"

    def test_repeated_variable_collapses_to_zero(self):
        assert parse("x1^x1", 5, 2).is_zero()

    def test_unsorted_variables_pick_up_the_sign(self):
        assert parse("y1^x1", 5, 2) == parse("4*x1^y1", 5, 2)

    def test_cancellation(self):
        assert parse("x1^y1 - x1^y1", 5, 2).is_zero()

    def test_whitespace_tolerated(self):
        assert parse("  2*x1^y1+ 3 ", 5, 2) == parse("2*x1^y1 + 3", 5, 2)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("x1^^y1", 5, 2)
        assert exc.value.position == 3
        with pytest.raises(ParseError):
            parse("x9", 5, 2)
        with pytest.raises(ParseError):
            parse("", 5, 2)
        with pytest.raises(ParseError):
            parse("x1 +", 5, 2)
        with pytest.raises(ParseError):
            parse("2**x1", 5, 2)


def random_multivector(p, m, data):
    from math import comb
    n = 2 * m
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        r = data.draw(st.integers(0, n))
        mono = tuple(sorted(data.draw(st.lists(
            st.integers(0, n - 1), min_size=r, max_size=r, unique=True))))
        coeff = data.draw(st.integers(1, p - 1))
        terms[mono] = coeff
    mv = Multivector.zero(p, m)
    for mono, coeff in terms.items():
        piece = Multivector.one(p, m) if not mono else None
        if piece is None:
            order = VariableOrder(m)
            piece = Multivector.one(p, m)
            for pos in mono:
                piece = piece.wedge(Multivector.variable(p, m, order.name(pos)))
        mv = mv + piece.scale(coeff)
    return mv


@given(primes, st.integers(1, 3), st.data())
def test_print_parse_roundtrip(p, m, data):
    mv = random_multivector(p, m, data)
    if mv.is_zero():
        return
    assert parse(str(mv), p, m) == mv


@given(primes, st.integers(1, 3), st.data())
def test_json_roundtrip(p, m, data):
    mv = random_multivector(p, m, data)
    blob = json.dumps(mv.to_json(), sort_keys=True)
    assert Multivector.from_json(json.loads(blob)) == mv


@given(primes, st.integers(1, 2), st.data())
@settings(max_examples=60)
def test_wedge_graded_anticommutative(p, m, data):
    a = random_multivector(p, m, data)
    b = random_multivector(p, m, data)
    if not (a.is_homogeneous() and b.is_homogeneous()):
        return
    if a.is_zero() or b.is_zero():
        return
    da, db = a.degree(), b.degree()
    lhs = a.wedge(b)
    rhs = b.wedge(a).scale((-1) ** (da * db))
    assert lhs == rhs


@given(primes, st.integers(1, 2), st.data())
@settings(max_examples=60)
def test_wedge_associative(p, m, data):
    a = random_multivector(p, m, data)
    b = random_multivector(p, m, data)
    c = random_multivector(p, m, data)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_homogeneity_guard():
    mv = parse("x1 + x1^x2", 5, 2)
    assert not mv.is_homogeneous()
    with pytest.raises(HomogeneityError):
        mv.degree()
    assert mv.component(1) == parse("x1", 5, 2)
    assert mv.component(2) == parse("x1^x2", 5, 2)


def test_str_orders_terms_by_degree_then_colex():
    mv = parse("x2^y2 + x1 + 3", 5, 2)
    assert str(mv) == "3 + x1 + x2^y2"
