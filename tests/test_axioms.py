import pytest

from compsuper import linalg
from compsuper.axioms import (
    check_composition_super,
    check_hurwitz,
    check_orthogonality,
    check_remark_identities,
    check_symmetric,
    find_para_units,
)
from compsuper.constructions import (
    b12,
    b12_lambda,
    b42,
    cayley_dickson_super,
    nonsplit_quadratic,
    okubo_super,
    para_hurwitz,
    split_hurwitz,
    super_split_cayley,
)
from compsuper.fields import GF, QQ
from compsuper.superalgebra import SuperAlgebra

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)


# --- brute-force oracles over the whole even part ---------------------------


def _even_vectors(S):
    F = S.field
    ev = S.even_indices()
    for coords in linalg.all_vectors(F, len(ev)):
        v = [F.zero] * S.dim
        for c, i in zip(coords, ev):
            v[i] = c
        yield tuple(v)


def _norm_pairs(S):
    """(pairs checked, pairs with q0(xy) != q0(x)q0(y)) over all even x, y."""
    F = S.field
    evens = list(_even_vectors(S))
    q = [S.eval_q0(x) for x in evens]
    bad = sum(
        S.eval_q0(S.mul(x, y)) != F.mul(qx, qy)
        for x, qx in zip(evens, q)
        for y, qy in zip(evens, q)
    )
    return len(evens) ** 2, bad


def _first_failing_identity(S):
    """The first of the identities (i), (ii), (iii) of a composition
    superalgebra that fails, with x, y in (i) and x0 in (ii) running over
    the whole even part; None when all three hold."""
    F = S.field
    if _norm_pairs(S)[1]:
        return "i"
    basis = S.basis()
    for x0 in _even_vectors(S):
        qx = S.eval_q0(x0)
        for y in basis:
            for z in basis:
                mid = F.mul(qx, S.eval_b(y, z))
                if S.eval_b(S.mul(x0, y), S.mul(x0, z)) != mid:
                    return "ii"
                if S.eval_b(S.mul(y, x0), S.mul(z, x0)) != mid:
                    return "ii"
    p = S.parity
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                for l, t in enumerate(basis):
                    swap = S.eval_b(S.mul(z, y), S.mul(x, t))
                    if (p[i] * p[j] + p[i] * p[k] + p[j] * p[k]) % 2:
                        swap = F.neg(swap)
                    rhs = F.mul(S.eval_b(x, z), S.eval_b(y, t))
                    if p[j] * p[k]:
                        rhs = F.neg(rhs)
                    if F.add(S.eval_b(S.mul(x, y), S.mul(z, t)), swap) != rhs:
                        return "iii"
    return None


def _scan_para_units(S):
    """Every even e != 0 with e*e = e and e*x = x*e = b(e,x)e - x on the basis."""
    F = S.field
    out = []
    for e in _even_vectors(S):
        if linalg.vec_is_zero(F, e) or S.mul(e, e) != e:
            continue
        ok = True
        for x in S.basis():
            c = S.eval_b(e, x)
            want = tuple(F.sub(F.mul(c, a), b) for a, b in zip(e, x))
            ok = ok and S.mul(e, x) == want and S.mul(x, e) == want
        if ok:
            out.append(e)
    return out


def _with_products(S, changes):
    """S with the products b_i * b_j in changes replaced by the given vectors."""
    table = [[list(S.table[i][j]) for j in range(S.dim)] for i in range(S.dim)]
    for (i, j), v in changes.items():
        table[i][j] = list(v)
    return SuperAlgebra(S.field, S.parity, table, S.q0, S.polar, basis_names=S.basis_names)


def _split8_corrupted():
    C, _ = split_hurwitz(8, F2)
    # redirect u1*u2 from v3 to v2: multiplicativity of the norm must break
    v2 = C.basis_vector(6)
    return _with_products(C, {(2, 3): v2})


def test_check_hurwitz_split_cayley_exhaustive():
    C, _ = split_hurwitz(8, F2)
    r = check_hurwitz(C)
    assert r.passed and r.mode == "polarized" and r.detail["pairs"] == 36 * 36
    assert _norm_pairs(C) == (256 * 256, 0)
    bad = _split8_corrupted()
    assert not check_hurwitz(bad).passed
    assert _norm_pairs(bad)[1] > 0


def test_check_hurwitz_b12_even_part():
    assert check_hurwitz(b12(F3)).passed
    assert check_hurwitz(b12(F9)).passed


def test_check_hurwitz_over_q_polarized():
    C, _ = split_hurwitz(8, QQ)
    r = check_hurwitz(C)
    assert r.passed and r.mode == "polarized"


def test_check_hurwitz_detects_corruption():
    r = check_hurwitz(_split8_corrupted())
    assert not r.passed and r.witness is not None


def test_check_composition_cases():
    assert check_composition_super(b42(F3)).passed
    S, _, _, _ = okubo_super(F2, "nst")
    assert check_composition_super(S).passed
    P = para_hurwitz(b12(F3))
    assert check_composition_super(P).passed


def test_check_composition_fails_at_the_oracle_identity():
    S = cayley_dickson_super(split_hurwitz(2, F2)[0], F2.one)  # e1, e2 | e1u, e2u
    zero = S.zero()
    cases = [
        (_split8_corrupted(), "i"),
        (_with_products(S, {(0, 2): zero}), "ii"),  # even x odd: e1 * e1u
        (_with_products(S, {(2, 1): zero}), "ii"),  # odd x even: e1u * e2
        (_with_products(S, {(2, 3): zero}), "iii"),  # odd x odd: e1u * e2u
    ]
    for bad, tag in cases:
        r = check_composition_super(bad)
        assert not r.passed and r.witness[0] == tag
        assert _first_failing_identity(bad) == tag


def test_small_criterion_1_constructions_agree_with_oracle():
    from compsuper.acceptance import _hurwitz_suite_instances

    checked = 0
    for label, A in _hurwitz_suite_instances():
        if (A.field.order ** len(A.even_indices())) ** 2 > 2**16:
            continue
        checked += 1
        assert check_hurwitz(A).passed, label
        assert check_composition_super(A).passed, label
        assert _norm_pairs(A)[1] == 0, label
        assert _first_failing_identity(A) is None, label
    assert checked == 22


def test_check_symmetric():
    C, _ = split_hurwitz(8, F2)
    assert check_symmetric(para_hurwitz(C)).passed
    r = check_symmetric(C)
    assert not r.passed and r.witness is not None
    S1, _, _ = b12_lambda(F3, 1)
    assert check_symmetric(S1).passed


def test_para_units_unique_on_para_cayley():
    C, _ = split_hurwitz(8, F3)
    P = para_hurwitz(C)
    units = find_para_units(P)
    assert units == [C.unit()]


def test_para_units_absent_on_okubo():
    S, _, _, _ = okubo_super(F2, "nst")
    assert find_para_units(S) == []


def test_para_units_dimension_two_exception():
    # uniqueness needs dim >= 3: the anisotropic 2-dimensional algebra over
    # GF(2) and the split one over GF(4) both carry three para-units
    P = para_hurwitz(nonsplit_quadratic(F2))
    assert len(find_para_units(P)) == 3
    P4 = para_hurwitz(split_hurwitz(2, F4)[0])
    assert len(find_para_units(P4)) == 3
    # over GF(3) the split 2-dimensional case happens to have exactly one
    P3 = para_hurwitz(split_hurwitz(2, F3)[0])
    assert len(find_para_units(P3)) == 1


def test_para_units_solve_mode_agrees_with_scan():
    for A in (
        para_hurwitz(split_hurwitz(4, F3)[0]),
        para_hurwitz(split_hurwitz(8, F3)[0]),
        para_hurwitz(split_hurwitz(2, F4)[0]),
        para_hurwitz(cayley_dickson_super(split_hurwitz(2, F2)[0], F2.one)),
    ):
        assert find_para_units(A) == _scan_para_units(A)


def test_para_units_over_q():
    C, _ = split_hurwitz(8, QQ)
    P = para_hurwitz(C)
    assert find_para_units(P) == [C.unit()]


def test_remark_identities_and_phi_square_fails():
    S, phi, cb, C = okubo_super(F4, "omega")
    assert check_remark_identities(S, phi, C).passed
    assert not check_remark_identities(S, phi.compose(phi), C).passed


def test_orthogonality_on_catalog_grading():
    from compsuper.catalog import build_entry

    _, g = build_entry("eq2", F3)
    assert check_orthogonality(g).passed
    _, g6 = build_entry("eq6", F2)
    assert check_orthogonality(g6).passed
