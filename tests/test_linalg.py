from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsuper import linalg
from compsuper.constructions import super_split_cayley, tau_nst, tau_omega
from compsuper.fields import GF, QQ

FIELDS = [GF(2), GF(3), GF(4), GF(9), QQ]


def _scalar(F):
    if F.order is None:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.sampled_from(list(F.elements()))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 4), st.data())
def test_lincomb_equals_naive_sum(F, n, k, data):
    """lincomb against a sum that adds every product, zeros included; the
    empty vector list and all-zero coefficients are drawn too."""
    elt = _scalar(F)
    coeffs = data.draw(st.lists(st.one_of(st.just(F.zero), elt), min_size=k, max_size=k))
    vectors = data.draw(st.lists(st.tuples(*[elt] * n), min_size=k, max_size=k))
    want = [F.zero] * n
    for c, v in zip(coeffs, vectors):
        want = [F.add(w, F.mul(c, a)) for w, a in zip(want, v)]
    assert linalg.lincomb(F, coeffs, vectors, n) == tuple(want)


def test_lincomb_skips_vectors_with_zero_coefficient():
    F = GF(3)
    assert linalg.lincomb(F, (0, 2), (None, (1, 2)), 2) == (2, 1)
    assert linalg.lincomb(QQ, (), (), 3) == (QQ.zero,) * 3


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.data())
def test_basis_inverse_agrees_with_coords_in_basis(F, n, data):
    """basis_inverse against one coords_in_basis solve per vector: its
    columns on every standard basis vector, mat_vec with it on random
    vectors.  A drawn basis that is dependent raises, and so does one made
    dependent by replacing a vector with a combination of the others."""
    elt = _scalar(F)
    vectors = st.tuples(*[elt] * n)
    basis = data.draw(st.lists(vectors, min_size=n, max_size=n))
    if linalg.rank(F, basis) < n:
        with pytest.raises(ValueError):
            linalg.basis_inverse(F, basis)
        return
    inverse = linalg.basis_inverse(F, basis)
    for i, column in enumerate(zip(*inverse)):
        e_i = tuple(F.one if j == i else F.zero for j in range(n))
        assert column == linalg.coords_in_basis(F, basis, e_i)
    for v in data.draw(st.lists(vectors, max_size=3)):
        assert linalg.mat_vec(F, inverse, v) == linalg.coords_in_basis(F, basis, v)
    if n:
        k = data.draw(st.integers(0, n - 1))
        coeffs = data.draw(st.lists(elt, min_size=n - 1, max_size=n - 1))
        others = basis[:k] + basis[k + 1:]
        dependent = others[:k] + [linalg.lincomb(F, coeffs, others, n)] + others[k:]
        with pytest.raises(ValueError):
            linalg.basis_inverse(F, dependent)


def test_basis_inverse_rejects_a_non_square_basis():
    with pytest.raises(ValueError):
        linalg.basis_inverse(GF(3), [(1, 0, 0), (0, 1, 0)])


def _spaces(C, cb):
    """Independent vector lists of the split Cayley superalgebra: none, the
    odd and the even coordinates, a mixed span and the zero space."""
    v = cb.vectors
    return [None, [C.basis_vector(i) for i in C.odd_indices()],
            [C.basis_vector(i) for i in C.even_indices()], [v["u1"], v["u2"], v["v1"]], []]


@pytest.mark.parametrize("q, tau", [(2, tau_nst), (4, tau_nst), (4, tau_omega)],
                         ids=["nst/GF(2)", "nst/GF(4)", "omega/GF(4)"])
def test_eigenspace_matches_a_scan_of_every_vector(q, tau):
    """For every scalar, the eigenspace of the twist alone and inside each
    space is a basis whose nonzero span is exactly the scanned eigenvectors
    (GF(2) has no primitive cube root, so no tau_omega)."""
    F = GF(q)
    C, cb = super_split_cayley(F)
    phi = tau(cb)
    scan = {x: phi.apply(x) for x in linalg.nonzero_vectors(F, C.dim)}
    for lam in F.elements():
        eigen = {x for x, fx in scan.items() if fx == linalg.vec_scale(F, lam, x)}
        for space in _spaces(C, cb):
            got = linalg.eigenspace(F, phi.images, lam, space)
            if space is not None:
                rr, piv = linalg.rref(F, space)
                eigen_in = {x for x in eigen if linalg.in_span(F, rr, piv, x)}
            assert linalg.rank(F, got) == len(got)
            assert set(linalg.span_vectors(F, got, C.dim)) == (eigen if space is None else eigen_in)


@pytest.mark.parametrize("q", [2, 4])
def test_span_vectors_match_a_scan_of_every_vector(q):
    """span_vectors lists each nonzero vector of the span once, in the
    `nonzero_vectors` order of its coefficients."""
    F = GF(q)
    C, cb = super_split_cayley(F)
    n = C.dim
    everything = list(linalg.nonzero_vectors(F, n))
    assert list(linalg.span_vectors(F, C.basis(), n)) == everything
    for basis in _spaces(C, cb)[1:]:
        got = list(linalg.span_vectors(F, basis, n))
        assert got == [linalg.lincomb(F, c, basis, n) for c in linalg.nonzero_vectors(F, len(basis))]
        rr, piv = linalg.rref(F, basis)
        assert sorted(got) == [x for x in everything if linalg.in_span(F, rr, piv, x)]


def _listed_rref_profiles(field, k, d):
    """Reference: the rref profiles with the free entries drawn from
    `itertools.product` over a list of the whole field."""
    from itertools import combinations, product

    elts = list(field.elements())
    for pivots in combinations(range(d), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, d) if j not in pivots]
        for vals in product(elts, repeat=len(free)):
            M = [[field.zero] * d for _ in range(k)]
            for i, p in enumerate(pivots):
                M[i][p] = field.one
            for (i, j), val in zip(free, vals):
                M[i][j] = val
            yield tuple(tuple(row) for row in M)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_profiles_keep_the_order_of_a_listed_field(q):
    F = GF(q)
    for d in range(5):
        for k in range(d + 1):
            assert list(linalg.rref_profiles(F, k, d)) == list(_listed_rref_profiles(F, k, d))


def test_first_rref_profile_draws_few_elements(monkeypatch):
    """Over GF(1000003) the first profile comes after a few elements are
    drawn from `elements()`, not after a list of the whole field."""
    F = GF(1000003)
    drawn = []
    elements = F.elements

    def counted():
        for a in elements():
            drawn.append(a)
            yield a

    monkeypatch.setattr(F, "elements", counted)
    first = next(linalg.rref_profiles(F, 1, 2))
    assert first == ((1, 0),) and len(drawn) == 1
    drawn.clear()
    first = next(linalg.rref_profiles(F, 2, 4))
    assert first == ((1, 0, 0, 0), (0, 1, 0, 0)) and len(drawn) == 4


# Scalar references for the functions that run on the field's row
# kernels: the same algorithms with one `add`/`sub`/`mul` call per entry.

def _rref_ref(F, rows):
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for col in range(n):
        pr = next((i for i in range(r, m) if rows[i][col] != F.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][col])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(m):
            c = rows[i][col]
            if i != r and c != F.zero:
                rows[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def _reduce_ref(F, rr, pivots, v):
    v = list(v)
    for row, p in zip(rr, pivots):
        c = v[p]
        v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
    return tuple(v)


def _lincomb_ref(F, coeffs, vectors, n):
    acc = [F.zero] * n
    for c, v in zip(coeffs, vectors):
        for i, a in enumerate(v):
            acc[i] = F.add(acc[i], F.mul(c, a))
    return tuple(acc)


KERNEL_FIELDS = [GF(2), GF(3), GF(4), GF(8), GF(9), GF(16), GF(256), GF(1000003), QQ]


def _entry(F):
    """A scalar of F, zero half the time so that rows are often dependent."""
    if F.order is None:
        nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        nonzero = st.integers(0, F.order - 1)
    return st.one_of(st.just(F.zero), nonzero)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 5), st.integers(1, 6), st.data())
def test_row_kernel_functions_match_the_scalar_references(F, m, n, data):
    """rref, reduce_mod, in_span, lincomb, vec_scale and vec_is_zero equal
    their per-entry scalar references on drawn matrices, and return
    tuples (rref: a list of tuple rows and a list of pivots), so no kernel
    list reaches a comparison or a hash."""
    elt = _entry(F)
    vec = st.tuples(*[elt] * n)
    rows = data.draw(st.lists(vec, min_size=m, max_size=m))
    rr, piv = linalg.rref(F, rows)
    assert (rr, piv) == _rref_ref(F, rows)
    assert type(rr) is list and type(piv) is list and all(type(r) is tuple for r in rr)
    spanned = linalg.lincomb(F, data.draw(st.lists(elt, min_size=m, max_size=m)), rows, n)
    for v in data.draw(st.lists(vec, max_size=3)) + [spanned, (F.zero,) * n]:
        got = linalg.reduce_mod(F, rr, piv, v)
        assert type(got) is tuple and got == _reduce_ref(F, rr, piv, v)
        assert linalg.in_span(F, rr, piv, v) is all(a == F.zero for a in got)
        assert linalg.in_span(F, rr, piv, list(v)) is linalg.in_span(F, rr, piv, v)
        c = data.draw(elt)
        scaled = linalg.vec_scale(F, c, v)
        assert type(scaled) is tuple and scaled == tuple(F.mul(c, a) for a in v)
        assert linalg.vec_is_zero(F, v) is linalg.vec_is_zero(F, list(v)) is all(a == F.zero for a in v)
    assert linalg.in_span(F, rr, piv, spanned)
    coeffs = data.draw(st.lists(elt, min_size=m, max_size=m))
    got = linalg.lincomb(F, coeffs, rows, n)
    assert type(got) is tuple and got == _lincomb_ref(F, coeffs, rows, n)
