import pytest

from compsuper import linalg
from compsuper.catalog import build_entry
from compsuper.constructions import (
    b12,
    cayley_dickson_super,
    okubo_super,
    split_hurwitz,
    super_split_cayley,
    tau_nst,
    tau_omega,
    tau_st,
)
from compsuper.fields import GF, QQ
from compsuper.search import enumerate_automorphisms
from compsuper.superalgebra import (
    KNOWN_CHECKS,
    CheckFailed,
    MixedAlgebras,
    Morphism,
    NoUnit,
    OddArgument,
    SuperAlgebra,
    identity_morphism,
    is_morphism,
    is_regular_superform,
)

F2, F3, F4 = GF(2), GF(3), GF(4)


def _named(A, nm):
    return A.basis_vector(A.basis_names.index(nm))


def test_split_cayley_products():
    C, _ = split_hurwitz(8, F3)
    u1, u2, v1, v3 = (_named(C, n) for n in ("u1", "u2", "v1", "v3"))
    assert C.mul(u1, u2) == v3
    e1 = _named(C, "e1")
    assert C.mul(u1, v1) == linalg.vec_scale(F3, F3.neg(F3.one), e1)
    assert C.mul(C.zero(), u2) == C.zero()


def test_polar_and_q0_values():
    C, _ = split_hurwitz(8, F2)
    e1, e2, u1 = (_named(C, n) for n in ("e1", "e2", "u1"))
    assert C.eval_b(e1, e2) == F2.one
    assert C.eval_q0(u1) == F2.zero
    assert C.eval_q0(C.zero()) == F2.zero


def test_q0_rejects_odd_argument():
    B = b12(F3)
    with pytest.raises(OddArgument):
        B.eval_q0(B.basis_vector(1))


def test_isometry_fails_on_an_even_image_with_an_odd_part():
    # 1 -> 1 + u keeps b(1, 1), but q0 is not defined on 1 + u
    one = F3.one
    K = SuperAlgebra(F3, (0,), [[[one]]], [one], [[F3.from_int(2)]], basis_names=("1",))
    B = b12(F3)
    f = Morphism(K, B, ((one, one, F3.zero),))
    with pytest.raises(CheckFailed) as exc:
        is_morphism(f, ("isometry",))
    assert (exc.value.flag, exc.value.witness) == ("isometry", ("1",))


def test_conjugation():
    C, _ = split_hurwitz(8, F3)
    e1, e2, u1 = (_named(C, n) for n in ("e1", "e2", "u1"))
    assert C.conj(e1) == e2
    assert C.conj(C.unit()) == C.unit()
    # b(u1, 1) = 0 follows from the stored polar form, so conj(u1) = -u1
    assert C.eval_b(u1, C.unit()) == F3.zero
    assert C.conj(u1) == linalg.vec_scale(F3, F3.neg(F3.one), u1)
    assert C.conj(C.conj(u1)) == u1  # involution


def test_regularity():
    assert is_regular_superform(b12(F3))
    Q, _ = split_hurwitz(4, F2)
    assert is_regular_superform(cayley_dickson_super(Q, F2.one))
    # zero polar form on a 2-dimensional even part is not regular
    z = F2.zero
    A = SuperAlgebra(
        F2,
        (0, 0),
        [[[F2.one, z], [z, z]], [[z, z], [z, F2.one]]],
        [z, z],
        [[z, z], [z, z]],
    )
    assert not is_regular_superform(A)


def test_hurwitz_norm_identities_on_even_part():
    for F, dim in ((F2, 8), (F3, 4), (F4, 2)):
        C, _ = split_hurwitz(dim, F)
        one = C.unit()
        for x in linalg.all_vectors(F, dim):
            cx = C.conj(x)
            q = C.eval_q0(x)
            want = linalg.vec_scale(F, q, one)
            assert C.mul(x, cx) == want
            assert C.mul(cx, x) == want
        basis = C.basis()
        for x in basis:
            for y in basis:
                for zv in basis:
                    lhs = C.eval_b(C.mul(x, y), zv)
                    assert lhs == C.eval_b(y, C.mul(C.conj(x), zv))
                    assert lhs == C.eval_b(x, C.mul(zv, C.conj(y)))


def test_conjugation_norm_identity_on_super_constructions():
    """x.conj(x) = q0(x) 1 on the even part, and b(xy,z) = b(y, conj(x) z)
    = b(x, z conj(y)) on even basis triples (the sign-free identity is an
    identity of the even Hurwitz algebra; odd entries pick up signs)."""
    from compsuper.constructions import b42, cayley_dickson_super

    Q, _ = split_hurwitz(4, F2)
    cases = [b12(F3), b42(F3), cayley_dickson_super(Q, F2.one), super_split_cayley(F4)[0]]
    for C in cases:
        F = C.field
        one = C.unit()
        ev = C.even_indices()
        for coords in linalg.all_vectors(F, len(ev)):
            x = [F.zero] * C.dim
            for c, i in zip(coords, ev):
                x[i] = c
            x = tuple(x)
            want = linalg.vec_scale(F, C.eval_q0(x), one)
            assert C.mul(x, C.conj(x)) == want
            assert C.mul(C.conj(x), x) == want
        even_basis = [C.basis_vector(i) for i in ev]
        for x in even_basis:
            cx = C.conj(x)
            for y in even_basis:
                cy = C.conj(y)
                for z in even_basis:
                    lhs = C.eval_b(C.mul(x, y), z)
                    assert lhs == C.eval_b(y, C.mul(cx, z))
                    assert lhs == C.eval_b(x, C.mul(z, cy))


def test_parity_compatibility_enforced():
    C, _ = super_split_cayley(F2)
    table = [[list(C.table[i][j]) for j in range(8)] for i in range(8)]
    # u1*u2 lands in v3 (even); corrupt it into the odd vector v2
    i, j = 2, 3
    table[i][j] = list(C.zero())
    table[i][j][6] = F2.one
    with pytest.raises(ValueError):
        SuperAlgebra(F2, C.parity, table, C.q0, C.polar)


def test_polar_invariants_enforced():
    B = b12(F3)
    polar = [list(r) for r in B.polar]
    polar[1][2] = F3.one
    polar[2][1] = F3.one  # odd block must be skew: b(v,u) = -b(u,v)
    with pytest.raises(ValueError):
        SuperAlgebra(F3, B.parity, B.table, B.q0, polar)


def test_is_morphism_identity_and_tau():
    C, cb = super_split_cayley(F4)
    ident = is_morphism(identity_morphism(C))
    assert {"algebra-hom", "isometry", "parity-preserving"} <= ident.attrs
    # the omega twist automorphism is an isometry commuting with conjugation
    tw = is_morphism(tau_omega(cb))
    assert {"algebra-hom", "isometry", "parity-preserving", "involution-commuting"} <= tw.attrs
    from compsuper.constructions import tau_nst

    tn = is_morphism(tau_nst(cb))
    assert "involution-commuting" in tn.attrs


def test_conjugation_norm_identity_over_q_polarized():
    # over Q: basis vectors and pairwise sums, per the polarized scheme
    C, _ = split_hurwitz(8, QQ)
    one = C.unit()
    pool = list(C.basis())
    for i in range(C.dim):
        for j in range(i + 1, C.dim):
            pool.append(linalg.vec_add(QQ, C.basis_vector(i), C.basis_vector(j)))
    for x in pool:
        want = linalg.vec_scale(QQ, C.eval_q0(x), one)
        assert C.mul(x, C.conj(x)) == want
        assert C.mul(C.conj(x), x) == want


def test_is_morphism_rejects_basis_swap():
    C, _ = split_hurwitz(8, F2)
    images = list(C.basis())
    i, j = 0, 2  # swap e1 and u1: e1*e1 = e1 breaks multiplicativity
    images[i], images[j] = images[j], images[i]
    with pytest.raises(CheckFailed):
        is_morphism(Morphism(C, C, tuple(images)), ("algebra-hom",))


def test_morphism_compose_power_inverse():
    C, cb = super_split_cayley(F4)
    t = tau_omega(cb)
    assert t.power(3).is_identity()
    assert not t.power(1).is_identity()
    assert t.compose(t.power(2)).is_identity()


def test_morphism_misuse_raises():
    C, cb = super_split_cayley(F4)
    D, _ = super_split_cayley(F4)
    t = tau_omega(cb)
    across = Morphism(C, D, identity_morphism(C).images)
    with pytest.raises(MixedAlgebras):
        t.compose(across)  # across lands in D, t starts in C
    with pytest.raises(MixedAlgebras):
        across.power(2)
    K, _ = super_split_cayley(F2)
    with pytest.raises(MixedAlgebras):
        is_morphism(Morphism(K, C, identity_morphism(C).images))


def _reference_is_morphism(f, checks):
    """is_morphism before it read the product table and the Gram matrix:
    the generic product of basis vectors and one eval_b per basis pair."""
    A, B = f.source, f.target
    F = B.field
    verified = []
    for flag in checks:
        if flag == "algebra-hom":
            for i in range(A.dim):
                for j in range(A.dim):
                    lhs = f.apply(A.mul(A.basis_vector(i), A.basis_vector(j)))
                    if lhs != B.mul(f.images[i], f.images[j]):
                        raise CheckFailed(flag, (A.basis_names[i], A.basis_names[j]))
        elif flag == "parity-preserving":
            for i in range(A.dim):
                p = B.parity_of(f.images[i])
                if p is None or (not linalg.vec_is_zero(F, f.images[i]) and p != A.parity[i]):
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "isometry":
            for i in range(A.dim):
                for j in range(A.dim):
                    if B.eval_b(f.images[i], f.images[j]) != A.polar[i][j]:
                        raise CheckFailed(flag, (A.basis_names[i], A.basis_names[j]))
            for i in A.even_indices():
                if B.parity_of(f.images[i]) != 0 or B.eval_q0(f.images[i]) != A.q0[i]:
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "involution-commuting":
            for i in range(A.dim):
                if f.apply(A.conj(A.basis_vector(i))) != B.conj(f.images[i]):
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "bijective":
            if A.dim != B.dim or f.rank() != A.dim:
                raise CheckFailed(flag, ())
        verified.append(flag)
    return f.with_attrs(*verified)


def _outcome(check, f, checks):
    try:
        return "passed", check(f, checks).attrs
    except CheckFailed as exc:
        return "failed", exc.flag, exc.witness
    except NoUnit as exc:  # no unit to conjugate with
        return type(exc).__name__


def _corrupted(f):
    """Maps near f that break it: the first and last images swapped, the
    last one scaled by 2 (by 0 in characteristic 2), an odd image added to
    an even one, and one even image added to another."""
    A, B = f.source, f.target
    F = B.field
    images = list(f.images)
    ev, od = A.even_indices(), A.odd_indices()
    edits = [{0: images[-1], A.dim - 1: images[0]},
             {A.dim - 1: linalg.vec_scale(F, F.from_int(2), images[-1])},
             {ev[0]: linalg.vec_add(F, images[ev[0]], images[ev[-1]])}]
    if od:
        edits.append({ev[-1]: linalg.vec_add(F, images[ev[-1]], images[od[0]])})
    return [Morphism(A, B, tuple(edit.get(i, v) for i, v in enumerate(images)))
            for edit in edits]


def _found_dim8_maps():
    """Graded maps that find_graded_map finds between gamma gradings of the
    dim-8 Cayley and Okubo superalgebras over GF(4): the first six pairs
    of equal census per test group of criterion 6, where a map exists."""
    from compsuper.catalog import _family_algebra, iso_test_groups
    from compsuper.gradings import gamma_grading_dim8, zero_sum_triples
    from compsuper.search import find_graded_map

    maps = []
    for family in ("cd8", "okubo-omega"):
        ctx = _family_algebra(family, F4)
        A = ctx["algebra"]
        for G in iso_test_groups():
            gs = [gamma_grading_dim8(A, ctx["cb"], G, t) for t in zero_sum_triples(G, max_order=4)]
            pairs = [(g1, g2) for g1 in gs for g2 in gs if g1 is not g2 and g1.census == g2.census]
            found = (find_graded_map(A, g1, A, g2) for g1, g2 in pairs[:6])
            maps.extend(f for f in found if f is not None)
    return maps


def test_is_morphism_matches_reference():
    """is_morphism, which reads each image's nonzero entries, against the
    per-pair reference: the same attrs, or the same failed flag and
    witness, under every check alone and all of them in order, on
    identities (one over Q), the tau maps, found automorphisms, the whole
    groups of okuboeq4/GF(4) and cor1eq3/GF(2), graded maps found between
    dim-8 Cayley and Okubo gradings over GF(4), and corrupted copies of
    each."""
    maps = []
    for A in (b12(F3), split_hurwitz(4, QQ)[0], okubo_super(F4, "nst")[0]):
        maps.append(identity_morphism(A))
    for F in (F2, F4):
        _, cb = super_split_cayley(F)
        maps.extend([tau_st(cb), tau_nst(cb)])
    _, cb = super_split_cayley(F4)
    maps.append(tau_omega(cb))
    for id, F in (("eq1", F3), ("eq6", F2), ("okuboeq1", F2)):
        A, g = build_entry(id, F)
        maps.extend(enumerate_automorphisms(A, constraints=g)[:3])
    groups = [enumerate_automorphisms(*build_entry(id, F)) for id, F in (("okuboeq4", F4), ("cor1eq3", F2))]
    assert [len(G) for G in groups] == [180, 18]
    maps.extend(f for G in groups for f in G)
    found = _found_dim8_maps()
    assert len(found) == 47
    maps.extend(found)
    maps.extend([bad for f in list(maps) for bad in _corrupted(f)])
    failed = set()
    for f in maps:
        for checks in [KNOWN_CHECKS] + [(flag,) for flag in KNOWN_CHECKS]:
            want = _outcome(_reference_is_morphism, f, checks)
            assert _outcome(is_morphism, f, checks) == want
            if want[0] == "failed":
                failed.add(want[1])
    # the corrupted maps reach every kind of failure
    assert failed == set(KNOWN_CHECKS)


def test_is_morphism_refuses_a_malformed_map():
    """A map needs source.dim images of length target.dim: one image too
    many, one too few or one of the wrong length is a ValueError, even
    when no check is asked for; the field check still comes first."""
    B = b12(F3)
    images = identity_morphism(B).images
    C, _ = super_split_cayley(F4)
    for bad in (images + (B.zero(),), images[:-1], images[:-1] + (images[-1][:-1],)):
        for checks in (KNOWN_CHECKS, ()):
            with pytest.raises(ValueError) as exc:
                is_morphism(Morphism(B, B, bad), checks)
            assert type(exc.value) is ValueError
        with pytest.raises(MixedAlgebras):
            is_morphism(Morphism(B, C, bad))


def test_is_morphism_refuses_an_unknown_flag_before_any_check(monkeypatch):
    """The whole flag list is read first: an unknown flag after a check
    that would fail, or pass, is a plain ValueError, and no check runs."""
    C, _ = split_hurwitz(8, F2)
    images = list(C.basis())
    images[0], images[2] = images[2], images[0]  # not an algebra map
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(a) or real(*a))
    for f, checks in ((Morphism(C, C, tuple(images)), ("algebra-hom", "bogus")),
                      (identity_morphism(C), ("bijective", "bogus"))):
        with pytest.raises(ValueError) as exc:
            is_morphism(f, checks)
        assert type(exc.value) is ValueError and "bogus" in str(exc.value)
    assert calls == []  # the bijective check never ran


def test_power_refuses_a_negative_exponent():
    """power(k) composes k copies; k < 0 is a ValueError, not the identity
    that an empty loop gives, since the inverse of a nontrivial
    automorphism is not the identity."""
    A, g = build_entry("eq1", F3)
    f = next(f for f in enumerate_automorphisms(A, constraints=g) if not f.is_identity())
    assert f.power(0).is_identity()
    with pytest.raises(ValueError):
        f.power(-1)


def test_verifying_the_okuboeq4_group_makes_no_dense_product(monkeypatch):
    """Work-count guard: try_verify_graded on each of the 180 graded
    automorphisms of okuboeq4/GF(4) reads the images' nonzero entries and
    makes no SuperAlgebra.mul or linalg.mat_vec call."""
    from compsuper.search import try_verify_graded

    A, g = build_entry("okuboeq4", F4)
    group = enumerate_automorphisms(A, constraints=g)
    calls = []
    for owner, name in ((SuperAlgebra, "mul"), (linalg, "mat_vec")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    verified = [try_verify_graded(f, g, g) for f in group]
    assert len(verified) == 180 and None not in verified
    assert calls == []


def test_serialization_round_trip():
    for A in (b12(F3), split_hurwitz(4, QQ)[0], super_split_cayley(F4)[0]):
        data = A.to_json()
        B = SuperAlgebra.from_json(data)
        assert B.table == A.table
        assert B.polar == A.polar
        assert B.q0 == A.q0
        assert B.parity == A.parity


def test_unit_detection():
    C, _ = split_hurwitz(2, QQ)
    from fractions import Fraction

    assert C.unit() == (Fraction(1), Fraction(1))
    z = F2.zero
    # a nonunital algebra: 2-dim with all products zero except b0*b0 = b1
    table = [[[z, F2.one], [z, z]], [[z, z], [z, z]]]
    A = SuperAlgebra(F2, (0, 0), table, [z, z], [[z, z], [z, z]])
    assert A.unit() is None
