from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsuper import linalg
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
