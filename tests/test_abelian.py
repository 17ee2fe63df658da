import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsuper.abelian import (
    AbGroup,
    AbHom,
    WrongGroup,
    _det_int,
    group_from_string,
    invariant_factors_by_minors,
    presentation_to_group,
    smith_normal_form,
)


def check_snf(M):
    D, U, V = smith_normal_form(M)
    m, n = len(M), len(M[0])
    # D = U M V by integer multiplication
    UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    assert [list(r) for r in D] == UMV
    assert abs(_det_int(U)) == 1
    assert abs(_det_int(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)
    return diag


def test_snf_diag_2_3():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]
    assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_and_identity():
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_snf_random_matrices(m, n, data):
    M = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(m)]
    check_snf(M)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_matches_minor_gcd_oracle(m, n, data):
    M = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(m)]
    diag = check_snf(M)
    oracle = invariant_factors_by_minors(M)
    nonzero = [d for d in diag if d != 0]
    assert nonzero == oracle


def _presentation_with_row_transform(n, relations):
    """Test-local copy of `presentation_to_group` on the U-tracking
    `smith_normal_form`, checking D = U*M*V first."""
    relations = [tuple(r) for r in relations]
    if not relations:
        G = AbGroup(n, ())
        return G, G.generators()
    check_snf(relations)
    D, _, V = smith_normal_form(relations)
    factors = [D[j][j] if j < len(relations) else 0 for j in range(n)]
    cols = [j for j in range(n) if factors[j] == 0] + [j for j in range(n) if factors[j] >= 2]
    G = AbGroup(factors.count(0), tuple(f for f in factors if f >= 2))
    return G, [G.element(tuple(V[i][j] for j in cols)) for i in range(n)]


def _catalog_relation_sets():
    """The universal-group relations of every catalog entry over GF(2),
    GF(3), GF(4) and GF(9), as (generators, rows)."""
    from compsuper.catalog import FieldConditionUnmet, build_entry, catalog_ids
    from compsuper.fields import GF

    for q in (2, 3, 4, 9):
        for id in catalog_ids():
            try:
                _, g = build_entry(id, GF(q))
            except FieldConditionUnmet:
                continue
            n = len(g.comps)
            yield n, g.builder.relations([(i,) for i in range(n)], g.table)


def test_presentation_without_row_transform_matches_the_tracking_form():
    """The Smith form behind `presentation_to_group` builds no row
    transform, and gives the group and projection of the U-tracking form,
    whose D = U*M*V holds, on seeded random relation matrices and on
    every catalog relation set."""
    import random

    rng = random.Random(30)
    cases = [(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
             for m in range(1, 8) for n in range(1, 7) for _ in range(6)]
    cases += list(_catalog_relation_sets())
    assert len(cases) > 300
    for n, rels in cases:
        assert presentation_to_group(n, rels) == _presentation_with_row_transform(n, rels), rels


def test_presentation_elementary():
    G, proj = presentation_to_group(2, [(2, 0), (0, 2)])
    assert str(G) == "Z2^2"
    assert sorted(p.coords for p in proj) == [(0, 1), (1, 0)]


def test_presentation_b42_five_grading_support():
    # generators (s0, s1, s-1, s2, s-2) with the product relations of the
    # 5-grading: s0 idempotent, s1+s-1 = s0, s1+s1 = s2, etc.
    rels = [
        (1, 0, 0, 0, 0),          # s0 + s0 = s0
        (-1, 1, 1, 0, 0),         # s1 + s-1 = s0
        (0, 2, 0, -1, 0),         # s1 + s1 = s2
        (0, 0, 2, 0, -1),         # s-1 + s-1 = s-2
        (-1, 0, 0, 1, 1),         # s2 + s-2 = s0
    ]
    G, proj = presentation_to_group(5, rels)
    assert str(G) == "Z"
    assert len({p.coords for p in proj}) == 5


def test_presentation_z3_grading_support():
    # generators (s0, s1, s2): s0 zero, s1+s1 = s2, s1+s2 = s0, s2+s2 = s1
    rels = [
        (1, 0, 0),
        (0, 2, -1),
        (-1, 1, 1),
        (0, -1, 2),
    ]
    G, proj = presentation_to_group(3, rels)
    assert str(G) == "Z3"
    assert len({p.coords for p in proj}) == 3


def test_presentation_round_trip():
    # defining relations of Z2 x Z4 x Z reproduce the same canonical form
    G, proj = presentation_to_group(3, [(2, 0, 0), (0, 4, 0)])
    assert str(G) == "Z x Z2 x Z4"
    assert G == AbGroup(1, (2, 4))


def test_group_strings():
    assert str(AbGroup(0, ())) == "0"
    assert str(AbGroup(1)) == "Z"
    assert str(AbGroup(2)) == "Z^2"
    assert str(AbGroup(0, (4,))) == "Z4"
    assert str(AbGroup(0, (2, 2))) == "Z2^2"
    assert str(AbGroup(1, (2,))) == "Z x Z2"
    assert str(AbGroup(0, (2, 4))) == "Z2 x Z4"
    for s in ("0", "Z", "Z^2", "Z4", "Z2^2", "Z x Z2", "Z2 x Z4"):
        assert str(group_from_string(s)) == s


def test_element_arithmetic_and_order():
    Z3 = AbGroup(0, (3,))
    one = Z3.element(1)
    assert (one + one + one).is_zero()
    assert one.order() == 3
    Z = AbGroup(1)
    assert Z.element(2).order() == 0
    Z24 = AbGroup(0, (2, 4))
    assert Z24.element(1, 2).order() == 2
    assert Z24.element(0, 3).order() == 4
    assert (-Z3.element(1)).coords == (2,)


def test_element_rejects_wrong_coordinate_count():
    with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
        AbGroup(1, (2,)).element((1,))
    with pytest.raises(ValueError):
        AbGroup(0, (4,)).element(())


ELEMENT_GROUPS = [(r, t) for r in range(3) for t in ((), (2,), (6,), (2, 4), (3, 3))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ELEMENT_GROUPS), st.integers(-7, 7), st.data())
def test_element_values_match_the_validating_constructor(shape, n, data):
    G = AbGroup(*shape)
    raw = st.lists(st.integers(-50, 50), min_size=G.ngens, max_size=G.ngens)
    a, b = data.draw(raw), data.draw(raw)
    x, y = G.element(a), G.element(b)
    assert x + y == G.element([p + q for p, q in zip(a, b)])
    assert x - y == G.element([p - q for p, q in zip(a, b)])
    assert -x == G.element([-p for p in a])
    assert n * x == G.element([n * p for p in a])
    assert hash(x) == hash(G.element(x.coords))
    # an equal but distinct group object: equal elements, shared arithmetic
    H = AbGroup(*shape)
    assert H is not G
    assert x == H.element(a) and hash(x) == hash(H.element(a))
    assert x + H.element(b) == x + y
    assert (-x) is (-x)
    assert -(-x) == x
    assert repr(x) == f"AbElement(group={G!r}, coords={x.coords!r})"
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
    with pytest.raises(AttributeError):
        x.coords = (0,) * G.ngens
    with pytest.raises(AttributeError):
        x.group = H


def test_elements_of_different_groups_differ():
    a, b = AbGroup(0, (4,)).element(1), AbGroup(0, (6,)).element(1)
    assert a.coords == b.coords
    assert a != b
    assert len({a, b}) == 2
    with pytest.raises(WrongGroup):
        a + b
    assert repr(a) == "AbElement(group=AbGroup(rank=0, torsion=(4,)), coords=(1,))"


def test_hom_apply():
    Z = AbGroup(1)
    Z4 = AbGroup(0, (4,))
    alpha = AbHom(Z, Z4, (Z4.element(1),))
    assert alpha(Z.element(2)) == Z4.element(2)
    Z2grp = AbGroup(2)
    add = AbHom(Z2grp, Z, (Z.element(1), Z.element(1)))
    assert add(Z2grp.element(1, 1)) == Z.element(2)
    with pytest.raises(WrongGroup):
        alpha(Z4.element(1))
    with pytest.raises(WrongGroup):
        # image of an order-2 generator must have order dividing 2
        AbHom(AbGroup(0, (2,)), Z4, (Z4.element(1),))


def test_invariant_chain_enforced():
    with pytest.raises(ValueError, match="divisibility chain"):
        AbGroup(0, (2, 3))
    with pytest.raises(ValueError, match="at least 2"):
        AbGroup(0, (1,))


def test_negative_rank_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        AbGroup(-1)


def test_hom_needs_one_image_per_generator():
    Z4 = AbGroup(0, (4,))
    with pytest.raises(WrongGroup, match="one image per generator"):
        AbHom(AbGroup(2), Z4, (Z4.element(1),))


def test_presentation_relation_length_checked():
    with pytest.raises(ValueError, match="3 generators"):
        presentation_to_group(3, [(2, 0)])
