from fractions import Fraction

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
