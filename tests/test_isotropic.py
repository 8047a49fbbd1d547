"""Isotropic subspace catalogs and the perp chart of a vector.

The enumeration is cross-checked two independent ways: against the
closed-form count, and for small spaces against a filter over every
subspace of the right dimension.  The chart, written down in closed
form, is checked field by field against the general subspace machinery
it replaced, kept here as oracles: the perp as a kernel, the radical
split of any subspace through the kernel of its Gram matrix, and the
annihilator as a kernel.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from infker import isotropic
from infker.errors import CatalogTooLargeError, DimensionMismatchError, InvariantError
from infker.isotropic import (
    SCAN_LIMIT,
    count_isotropic,
    enumerate_isotropic,
    iter_isotropic,
    perp_chart,
)
from infker.prime_linalg import (
    Matrix,
    Subspace,
    inv_mod,
    iter_subspaces,
    kernel_basis,
    rref,
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
    assert tuple(cat) == tuple(iter_isotropic(space, 2))
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
    assert count_isotropic(31, 3, 3) > SCAN_LIMIT
    with pytest.raises(CatalogTooLargeError) as exc:
        enumerate_isotropic(space, 3)
    assert exc.value.count == 917_116_928


def test_count_bits_is_a_lower_bound():
    """The bit length read from p^E, E = r(4m - 3r + 1)/2, is at most two
    short of the count's, and exact at p = 2, r = 1."""
    for p in (2, 3, 5, 31):
        for m in range(1, 16):
            for r in range(m + 1):
                bits = count_isotropic(p, m, r).bit_length()
                assert bits - 2 <= isotropic._count_bits(p, m, r) <= bits
            assert isotropic._count_bits(2, m, 1) == (2 ** (2 * m) - 1).bit_length()


def test_lagrangian_catalog_under_limit():
    assert count_isotropic(7, 3, 3) == 137_600
    assert count_isotropic(7, 3, 3) < SCAN_LIMIT


def kernel_perp(space, g):
    """The set of vectors pairing to zero with ``g``: the kernel of the one
    row g^T J, as production computed it before the perp chart."""
    p, n = space.p, space.n
    return kernel_basis(Matrix(p, [g], cols=n) @ space.gram)


def kernel_radical_split(space, sub):
    """Split any subspace into the radical of the restricted form and a
    complement, as production did before the perp chart: the radical is
    the kernel of the k x k restricted Gram matrix, the complement the
    basis rows at the kernel's non-pivot positions.  Returns (rad, a,
    gram, gram_a)."""
    p, n = space.p, space.n
    b, bt = sub.basis, sub.basis.transpose()
    gram = b @ space.gram @ bt
    kernel = kernel_basis(gram)
    rad = Subspace(p, n, Matrix._make(p, tuple(bt.matvec(c) for c in kernel.basis.entries), n),
                   tuple(sub.pivots[f] for f in kernel.pivots))
    kept = [i for i in range(sub.dim) if i not in set(kernel.pivots)]
    a = Subspace(p, n, Matrix._make(p, tuple(b.entries[i] for i in kept), n),
                 tuple(sub.pivots[i] for i in kept))
    gram_a = Matrix._make(p, tuple(tuple(gram.entries[i][j] for j in kept) for i in kept),
                        len(kept))
    return rad, a, gram, gram_a


def kernel_annihilator(sub, g):
    """Functionals on ``sub`` (in the dual of its rref basis) killing ``g``:
    the kernel of g's coordinate row.  Raises when ``g`` lies outside."""
    coeffs = sub.member(g)
    if coeffs is None:
        raise ValueError("vector lies outside the subspace")
    return kernel_basis(Matrix._make(sub.p, (coeffs,), sub.dim))


def chart_radical(chart):
    """The radical <g> of the chart's perp, scaled to 1 at the pivot of
    row ``lead``, where g's coordinates on the rows are led."""
    p, g, u = chart.p, chart.g, chart.sub.pivots[chart.lead]
    inv = inv_mod(g[u], p)
    return Subspace(p, len(g), Matrix._make(p, (tuple(x * inv % p for x in g),), len(g)), (u,))


def chart_complement(chart):
    """The complement of the radical: the perp's rows other than ``lead``."""
    sub = chart.sub
    kept = [b for b in range(sub.dim) if b != chart.lead]
    return Subspace(chart.p, sub.ambient_dim,
                    Matrix._make(chart.p, tuple(sub.basis.entries[b] for b in kept),
                               sub.ambient_dim),
                    tuple(sub.pivots[b] for b in kept))


def assert_chart_matches_oracles(space, g):
    chart = perp_chart(space, g)
    chart_rad, chart_a = chart_radical(chart), chart_complement(chart)
    sub = kernel_perp(space, g)
    rad, a, gram, gram_a = kernel_radical_split(space, sub)
    ann = kernel_annihilator(sub, g)
    for got, want in ((chart.sub, sub), (chart_rad, rad), (chart_a, a), (chart.ann, ann)):
        assert got == want and got.pivots == want.pivots
    assert chart.gram == gram.entries and len(chart.gram) == gram.rows == gram.cols
    assert chart.gram_a == gram_a and (chart.gram_a.rows, chart.gram_a.cols) == (
        gram_a.rows, gram_a.cols)
    # the chart's data is the perp's column at f and the annihilator's at f_ann
    assert chart.c == tuple(row[chart.f] for row in sub.basis.entries)
    assert chart.t == tuple(row[chart.f_ann] for row in ann.basis.entries)
    assert rad.pivots == (sub.pivots[chart.lead],)
    greedy_rad, greedy_a = greedy_radical_split(space, sub)
    assert chart_rad == greedy_rad and chart_a.dim == greedy_a.dim
    assert (chart.sub.dim, chart_rad.dim, chart_a.dim, chart.ann.dim) == (
        space.n - 1, 1, space.n - 2, space.n - 2)


@given(st.data())
@settings(max_examples=150)
def test_perp_chart_matches_oracles(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 3))
    g = [data.draw(st.integers(0, p - 1)) for _ in range(2 * m)]
    if any(g):
        assert_chart_matches_oracles(SymplecticSpace(p, m), g)


@pytest.mark.parametrize("p,m", [(3, 2), (2, 3), (2, 4)])
def test_perp_chart_matches_oracles_everywhere(p, m):
    space = SymplecticSpace(p, m)
    for g in itertools.product(range(p), repeat=2 * m):
        if any(g):
            assert_chart_matches_oracles(space, g)


def test_perp_chart_refuses_zero_and_wrong_length():
    space = SymplecticSpace(3, 2)
    with pytest.raises(ValueError):
        perp_chart(space, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        perp_chart(space, [3, 0, 6, 0])  # zero mod 3
    with pytest.raises(DimensionMismatchError):
        perp_chart(space, [1, 0, 0])


def corrupt_chart(monkeypatch, change):
    """Have ``perp_chart`` check a chart whose data ``change`` rewrites
    (a function of the chart's fields) before its checks run."""
    real = isotropic.PerpChart

    def corrupted(*values):
        fields = dict(zip(real.__slots__, values))
        return real(**{**fields, **change(fields)})
    monkeypatch.setattr(isotropic, "PerpChart", corrupted)


def test_perp_chart_rejects_a_complement_row_as_radical(monkeypatch):
    """A chart whose radical is led at one of the complement's rows fails
    the split check."""
    corrupt_chart(monkeypatch, lambda fields: {"lead": 0 if fields["lead"] else 1})
    for p, m, g in ((2, 2, [1, 0, 0, 0]), (3, 2, [0, 1, 2, 0]), (5, 3, [1, 2, 3, 4, 0, 1])):
        with pytest.raises(InvariantError, match="do not split"):
            perp_chart(SymplecticSpace(p, m), g)


def degenerate(fields):
    """The chart's Gram rows with the complement's top row zeroed."""
    gram, top = fields["gram"], 0 if fields["lead"] else 1
    return {"gram": tuple((0,) * len(row) if b == top else row
                          for b, row in enumerate(gram))}


def test_perp_chart_rejects_a_degenerate_complement(monkeypatch):
    """A complement form that has lost its top row fails the rank check."""
    corrupt_chart(monkeypatch, degenerate)
    for p, m, g in ((3, 2, [0, 0, 1, 0]), (2, 3, [1, 1, 0, 0, 1, 0])):
        with pytest.raises(InvariantError, match="degenerate"):
            perp_chart(SymplecticSpace(p, m), g)


def test_warm_rank_memo_still_rejects_a_degenerate_complement(monkeypatch):
    """The complement ranks are kept per space by the form's entries, so
    once every point's true form is ranked, a corrupted form is still its
    own key: eliminated, and refused, at every point."""
    space = SymplecticSpace(3, 2)
    points = [g for g in itertools.product(range(3), repeat=4) if any(g)]
    forms = {perp_chart(space, g).gram_a.entries for g in points}
    assert sum(key[0] == "complement_rank" for key in space._cache) == len(forms)
    corrupt_chart(monkeypatch, degenerate)
    for g in points:
        with pytest.raises(InvariantError, match="degenerate"):
            perp_chart(space, g)


@pytest.mark.parametrize("b", [0, -1])
def test_perp_chart_rejects_a_wrong_perp_row(monkeypatch, b):
    """A perp row off by e_f no longer pairs to zero with g: one wrong
    entry of c fails the radical-pairing check."""
    def shifted(fields):
        c = list(fields["c"])
        c[b] = (c[b] + 1) % fields["p"]
        return {"c": tuple(c)}
    corrupt_chart(monkeypatch, shifted)
    for p, m, g in ((2, 2, [1, 0, 0, 0]), (3, 2, [0, 1, 2, 0]), (7, 3, [1, 2, 3, 4, 0, 1])):
        with pytest.raises(InvariantError, match="pairs nontrivially"):
            perp_chart(SymplecticSpace(p, m), g)


def test_perp_dimensions():
    space = SymplecticSpace(2, 3)
    assert perp_chart(space, [1, 0, 0, 0, 0, 0]).sub.dim == 5
    with pytest.raises(ValueError):
        perp_chart(space, [0, 0, 0, 0, 0, 0])
    assert kernel_perp(space, [0, 0, 0, 0, 0, 0]).dim == 6
    for g in itertools.product(range(2), repeat=6):
        if not any(g):
            continue
        pp = perp_chart(space, g).sub
        assert pp.dim == 5
        assert pp.member(g) is not None


@given(st.data())
@settings(max_examples=60)
def test_perp_is_pairing_kernel(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    g = [data.draw(st.integers(0, p - 1)) for _ in range(2 * m)]
    if not any(g):
        with pytest.raises(ValueError):
            perp_chart(space, g)
        return
    pp = perp_chart(space, g).sub
    for row in pp.basis.entries:
        assert space.pairing(g, row) == 0
    assert pp.dim == 2 * m - 1


def greedy_radical_split(space, sub):
    """The radical and a complement by greedy hyperbolic-pair extraction
    over the rref basis, lowest-index vectors first: the split computed
    before the radical was read off the kernel of the restricted Gram
    matrix.  Returns (rad, a)."""
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
    rad, a, _, ga = kernel_radical_split(space, sub)
    assert rad.dim + a.dim == sub.dim
    # the radical pairs to zero against the whole subspace
    for u in rad.basis.entries:
        for v in sub.basis.entries:
            assert space.pairing(u, v) == 0
    # the complement carries a nondegenerate restriction
    ab = a.basis
    assert ga == ab @ space.gram @ ab.transpose()
    assert rref(ga)[2] == a.dim
    # and sits inside the subspace
    for row in a.basis.entries:
        assert sub.member(row) is not None
    # its basis is already canonical, pivots included
    again = Subspace.from_rows(p, 2 * m, a.basis.entries)
    assert a == again
    assert a.pivots == again.pivots


@given(st.data())
@settings(max_examples=150)
def test_radical_split_matches_greedy_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    sub = random_subspace(data, p, 2 * m)
    greedy_rad, greedy_a = greedy_radical_split(space, sub)
    rad, a, _, _ = kernel_radical_split(space, sub)
    assert rad == greedy_rad
    assert a.dim == greedy_a.dim


@given(st.data())
@settings(max_examples=150)
def test_radical_split_rad_matches_two_elimination_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 3))
    space = SymplecticSpace(p, m)
    sub = random_subspace(data, p, 2 * m)
    rad = kernel_radical_split(space, sub)[0]
    b = sub.basis
    kernel = two_elimination_kernel(b @ space.gram @ b.transpose())
    oracle = Subspace.from_rows(
        p, 2 * m, [b.transpose().matvec(c) for c in kernel.basis.entries])
    assert rad == oracle and rad.pivots == oracle.pivots
    again = Subspace.from_rows(p, 2 * m, rad.basis.entries)
    assert rad == again and rad.pivots == again.pivots


def test_perp_chart_eliminates_once(monkeypatch):
    """The complement's rank is the chart's one elimination; the perp, the
    Gram matrix, the radical and the annihilator are written down, with
    no matrix product or matrix-vector product."""
    import infker.prime_linalg as pl

    def refuse(*args):
        raise AssertionError("the chart multiplied matrices")
    space = SymplecticSpace(3, 2)
    assert space.gram.rows == 4  # the form's one-time checks, before counting
    calls = count_calls(monkeypatch, pl, "_eliminate")
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "matvec", refuse)
    chart = perp_chart(space, [0, 0, 1, 0])
    assert len(calls) == 1
    assert chart.sub.basis.entries == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert chart_radical(chart).basis.entries == ((0, 0, 1, 0),)
    assert chart_radical(chart).pivots == (2,)


def test_radical_split_frozen_cases():
    space = SymplecticSpace(3, 2)
    degenerate = Subspace.from_rows(
        3, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rad, a, _, _ = kernel_radical_split(space, degenerate)
    assert rad.dim == 1
    assert a.dim == 2
    assert rad.basis.entries == ((0, 0, 1, 0),)
    # the same hyperplane is the perp of y1, and the chart agrees
    chart = perp_chart(space, [0, 0, 1, 0])
    assert (chart.sub, chart_radical(chart), chart_complement(chart)) == (degenerate, rad, a)

    plane = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    rad, a, _, _ = kernel_radical_split(space, plane)
    assert rad.dim == 0
    assert a.dim == 2

    lagrangian = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    rad, a, _, _ = kernel_radical_split(space, lagrangian)
    assert rad.dim == 2
    assert a.dim == 0


def test_radical_of_isotropic_is_everything():
    space = SymplecticSpace(2, 3)
    for sub in iter_isotropic(space, 2):
        rad, a, _, _ = kernel_radical_split(space, sub)
        assert rad == sub
        assert a.dim == 0


def test_annihilator_dimensions():
    space = SymplecticSpace(3, 2)
    sub = Subspace.from_rows(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    inside = kernel_annihilator(sub, [1, 2, 0, 0])
    assert inside.dim == 2
    assert inside.ambient_dim == 3
    zero = kernel_annihilator(sub, [0, 0, 0, 0])
    assert zero.dim == 3
    with pytest.raises(ValueError):
        kernel_annihilator(sub, [0, 0, 0, 1])
    # that sub is the perp of x2, whose chart's annihilator is a hyperplane
    chart = perp_chart(space, [0, 1, 0, 0])
    assert chart.sub == sub
    assert chart.ann == kernel_annihilator(sub, [0, 1, 0, 0])
    assert (chart.ann.dim, chart.ann.ambient_dim) == (2, 3)


def test_annihilator_rows_kill_the_vector():
    space = SymplecticSpace(5, 2)
    for g in itertools.product(range(5), repeat=4):
        if not any(g):
            continue
        chart = perp_chart(space, g)
        coords = chart.sub.member(g)
        for row in chart.ann.basis.entries:
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
