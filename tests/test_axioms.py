from collections import Counter
from itertools import combinations, product

import pytest

from compsuper import linalg
from compsuper.axioms import (
    MODE,
    CheckReport,
    check_composition_super,
    check_hurwitz,
    check_orthogonality,
    check_remark_identities,
    check_symmetric,
    find_para_units,
    line_idempotent,
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
    super_split_quaternion,
)
from compsuper.fields import GF, QQ, InfiniteField
from compsuper.superalgebra import SuperAlgebra, is_regular_superform

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


def _one_identity_corruptions():
    """Corrupted tables that fail only (i), only (ii) or only (iii)."""
    S = cayley_dickson_super(split_hurwitz(2, F2)[0], F2.one)  # e1, e2 | e1u, e2u
    zero = S.zero()
    return [
        ("i", _split8_corrupted()),
        ("ii", _with_products(S, {(0, 2): zero})),  # even x odd: e1 * e1u
        ("ii", _with_products(S, {(2, 1): zero})),  # odd x even: e1u * e2
        ("iii", _with_products(S, {(2, 3): zero})),  # odd x odd: e1u * e2u
    ]


def test_check_composition_fails_at_the_oracle_identity():
    for tag, bad in _one_identity_corruptions():
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


# --- reference checks on dense products and eval_b ----------------------------


def _even_test_set(S):
    """Even basis vectors and their pairwise sums."""
    F = S.field
    vecs = [S.basis_vector(i) for i in S.even_indices()]
    return vecs + [linalg.vec_add(F, a, b) for a, b in combinations(vecs, 2)]


def _reference_norm_failure(S, pool):
    F = S.field
    for x in pool:
        qx = S.eval_q0(x)
        for y in pool:
            if S.eval_q0(S.mul(x, y)) != F.mul(qx, S.eval_q0(y)):
                return x, y
    return None


def _reference_hurwitz(S):
    if S.unit() is None:
        return CheckReport("hurwitz", False, witness=("no unit",))
    if not is_regular_superform(S):
        return CheckReport("hurwitz", False, witness=("superform not regular",))
    pool = _even_test_set(S)
    bad = _reference_norm_failure(S, pool)
    if bad is not None:
        return CheckReport("hurwitz", False, MODE, tuple(S.fmt(v) for v in bad))
    return CheckReport("hurwitz", True, MODE, detail={"pairs": len(pool) ** 2})


def _reference_composition(S):
    """check_composition_super with every b value a dense eval_b of
    products made by S.mul."""
    F = S.field
    if not is_regular_superform(S):
        return CheckReport("composition", False, witness=("superform not regular",))
    pool = _even_test_set(S)
    bad = _reference_norm_failure(S, pool)
    if bad is not None:
        return CheckReport("composition", False, MODE, ("i",) + tuple(S.fmt(v) for v in bad))
    n = S.dim
    basis = S.basis()
    polar = S.polar
    for x0 in pool:
        qx = S.eval_q0(x0)
        left = [S.mul(x0, y) for y in basis]
        right = [S.mul(y, x0) for y in basis]
        for j in range(n):
            for k in range(n):
                mid = F.mul(qx, polar[j][k])
                if S.eval_b(left[j], left[k]) != mid or S.eval_b(right[j], right[k]) != mid:
                    return CheckReport(
                        "composition", False, MODE,
                        ("ii", S.fmt(x0), S.basis_names[j], S.basis_names[k]),
                    )
    prod = [[S.mul(x, y) for y in basis] for x in basis]
    par = S.parity
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    sgn1 = (par[i] * par[j] + par[i] * par[k] + par[j] * par[k]) % 2
                    sgn2 = (par[j] * par[k]) % 2
                    lhs = S.eval_b(prod[i][j], prod[k][l])
                    second = S.eval_b(prod[k][j], prod[i][l])
                    if sgn1:
                        second = F.neg(second)
                    rhs = F.mul(polar[i][k], polar[j][l])
                    if sgn2:
                        rhs = F.neg(rhs)
                    if F.add(lhs, second) != rhs:
                        return CheckReport(
                            "composition", False, MODE,
                            ("iii",) + tuple(S.basis_names[m] for m in (i, j, k, l)),
                        )
    return CheckReport("composition", True, MODE)


def _reference_symmetric(S):
    basis = S.basis()
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                if S.eval_b(S.mul(x, y), z) != S.eval_b(x, S.mul(y, z)):
                    return CheckReport(
                        "symmetric", False, witness=tuple(S.basis_names[m] for m in (i, j, k)))
    return CheckReport("symmetric", True)


def _swap_first_multiterm_product(S):
    """S with b_i b_j and b_j b_i exchanged for the first i < j whose
    product has two or more terms and differs from b_j b_i; None when
    there is no such pair."""
    n = S.dim
    for i in range(n):
        for j in range(i + 1, n):
            if len(S._sparse[i][j]) > 1 and S.table[i][j] != S.table[j][i]:
                return _with_products(S, {(i, j): S.table[j][i], (j, i): S.table[i][j]})
    return None


def _compare_with_reference(cases):
    """Asserts that every report of the three checks, witness included,
    equals the dense reference's on each (label, algebra); returns the set
    of (check name, first witness entry) of the failing reports."""
    failed = set()
    for label, S in cases:
        for check, reference in (
            (check_hurwitz, _reference_hurwitz),
            (check_composition_super, _reference_composition),
            (check_symmetric, _reference_symmetric),
        ):
            got = check(S).as_dict()
            assert got == reference(S).as_dict(), (label, check.__name__)
            if not got["pass"]:
                failed.add((check.__name__, got["witness"][0]))
    return failed


def _other_field_instances():
    """split8 over GF(8), GF(16), GF(27) and Q, and super-cayley over
    GF(8) and GF(16), the characteristic-2 fields it needs."""
    out = [(f"split8/{F}", split_hurwitz(8, F)[0]) for F in (GF(8), GF(16), GF(27), QQ)]
    out += [(f"super-cayley/{F}", super_split_cayley(F)[0]) for F in (GF(8), GF(16))]
    return out


def test_checks_match_dense_reference():
    """Every report of the three checks, witness included, equals the dense
    reference's on the criterion 1 and 7 constructions, on split8 over
    GF(8), GF(16), GF(27) and Q and super-cayley over GF(8) and GF(16),
    on the one-identity
    corruptions, and on each construction with a many-term product after
    swapping that product with its opposite."""
    from compsuper.acceptance import _hurwitz_suite_instances, _symmetric_suite_instances

    cases = _hurwitz_suite_instances() + _symmetric_suite_instances() + _other_field_instances()
    cases += [(f"swapped {label}", _swap_first_multiterm_product(S)) for label, S in cases]
    cases += [(f"corrupt {tag}", S) for tag, S in _one_identity_corruptions()]
    failed = _compare_with_reference([(label, S) for label, S in cases if S is not None])
    # every witness kind is compared at least once
    assert {w for name, w in failed if name == "check_composition_super"} >= {"i", "ii", "iii"}
    assert "check_symmetric" in {name for name, _ in failed}


# --- single-entry corruption sweep ---------------------------------------------


def _entry_corruptions(S, step=1):
    """S with one structure constant changed, for every step-th entry
    (i, j, k) of the table, in index order, whose b_k has the parity of
    b_i b_j: that coefficient of b_i b_j gains one, so every corrupted
    table keeps the parity invariant.  Yields ((i, j, k), algebra)."""
    F = S.field
    n = S.dim
    p = S.parity
    entries = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if p[k] == (p[i] + p[j]) % 2]
    for i, j, k in entries[::step]:
        v = list(S.table[i][j])
        v[k] = F.add(v[k], F.one)
        yield (i, j, k), _with_products(S, {(i, j): v})


def _sweep_cases():
    """(label, corrupted entry, algebra) for every entry of B(1,2)/GF(3),
    super-quaternion/GF(2), CD(K,1)/GF(4) and CD(split2,1)/GF(2), and
    every eighth entry of super-cayley/GF(2)."""
    bases = [
        ("B(1,2)/GF(3)", b12(F3), 1),
        ("super-quaternion/GF(2)", super_split_quaternion(F2)[0], 1),
        ("CD(K,1)/GF(4)", cayley_dickson_super(nonsplit_quadratic(F4), F4.one), 1),
        ("CD(split2,1)/GF(2)", cayley_dickson_super(split_hurwitz(2, F2)[0], F2.one), 1),
        ("super-cayley/GF(2)", super_split_cayley(F2)[0], 8),
    ]
    return [(f"{label} entry {entry}", entry, S)
            for label, base, step in bases for entry, S in _entry_corruptions(base, step)]


def _skipped_class(identity, p, idx):
    """The class of a case that the checks skip, or None for a case they
    read: idx is (j, k) for (ii), (i, j, k, l) for (iii) and (i, j, k)
    for the symmetric identity."""
    if identity == "ii":
        j, k = idx
        if p[j] != p[k]:
            return "mixed parity"
        if p[j] == 0:
            return "both even"
        return "mirror" if j > k else "odd diagonal" if j == k else None
    if sum(p[m] for m in idx) % 2:
        return "odd total"
    if identity == "symmetric":
        return None
    i, _, k, _ = idx
    if p[i] == p[k] == 0:
        return "both even"
    return "mirror" if i > k else "odd diagonal" if i == k else None


def _dense_cases(S):
    """Every case of (ii), (iii) and the symmetric identity under dense
    evaluation, as (identity, index tuple, products read, holds): x0 runs
    over the test set in (ii), and `products read` names the basis
    products (a, b), for b_a b_b, that the case's value depends on."""
    F = S.field
    basis = S.basis()
    ev = S.even_indices()
    p = S.parity
    slots = [(a,) for a in ev] + list(combinations(ev, 2))
    out = []
    for X in slots:
        x0 = tuple(F.one if m in X else F.zero for m in range(S.dim))
        qx = S.eval_q0(x0)
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                mid = F.mul(qx, S.eval_b(y, z))
                holds = (S.eval_b(S.mul(x0, y), S.mul(x0, z)) == mid
                         and S.eval_b(S.mul(y, x0), S.mul(z, x0)) == mid)
                read = {(a, m) for a in X for m in (j, k)} | {(m, a) for a in X for m in (j, k)}
                out.append(("ii", (j, k), read, holds))
    n = S.dim
    for i, j, k, l in product(range(n), repeat=4):
        swap = S.eval_b(S.mul(basis[k], basis[j]), S.mul(basis[i], basis[l]))
        if (p[i] * p[j] + p[i] * p[k] + p[j] * p[k]) % 2:
            swap = F.neg(swap)
        rhs = F.mul(S.eval_b(basis[i], basis[k]), S.eval_b(basis[j], basis[l]))
        if p[j] * p[k]:
            rhs = F.neg(rhs)
        lhs = S.eval_b(S.mul(basis[i], basis[j]), S.mul(basis[k], basis[l]))
        out.append(("iii", (i, j, k, l), {(i, j), (k, l), (k, j), (i, l)},
                    F.add(lhs, swap) == rhs))
    for i, j, k in product(range(n), repeat=3):
        holds = (S.eval_b(S.mul(basis[i], basis[j]), basis[k])
                 == S.eval_b(basis[i], S.mul(basis[j], basis[k])))
        out.append(("symmetric", (i, j, k), {(i, j), (j, k)}, holds))
    return out


def test_single_entry_corruptions_match_dense_reference():
    """Each check's report, witness included, equals the dense reference's
    on every single-entry corruption of the sweep, and the sweep reaches
    each class of skipped cases.

    The classes of `_skipped_class` come in two kinds.  A mirror or a
    both-even case fails only together with a case the scan meets first,
    and the sweep makes such cases fail: the checks skip them and still
    report the reference's witness.  An odd-total or mixed-parity case
    can never fail: the sweep corrupts products those cases read, on
    tables whose check fails, and none of those cases fails."""
    cases = _sweep_cases()
    assert len(cases) == 13 + 32 + 32 + 32 + 32
    failed = _compare_with_reference([(label, S) for label, _, S in cases])
    assert {w for name, w in failed if name == "check_composition_super"} == {"i", "ii", "iii"}
    assert "check_symmetric" in {name for name, _ in failed}
    failing = Counter()  # (identity, class) -> failing cases over the sweep
    reached = set()  # (identity, class) whose cases read a corrupted product of a failing table
    for _, (i0, j0, _), S in cases:
        composition_fails = not check_composition_super(S).passed
        rejected = {"ii": composition_fails, "iii": composition_fails,
                    "symmetric": not check_symmetric(S).passed}
        for identity, idx, read, holds in _dense_cases(S):
            cls = _skipped_class(identity, S.parity, idx)
            if cls is None:
                continue
            failing[identity, cls] += not holds
            if rejected[identity] and (i0, j0) in read:
                reached.add((identity, cls))
    implied = [("ii", "both even"), ("ii", "mirror"), ("iii", "both even"), ("iii", "mirror")]
    vanishing = [("ii", "mixed parity"), ("ii", "odd diagonal"), ("iii", "odd total"),
                 ("iii", "odd diagonal"), ("symmetric", "odd total")]
    assert all(failing[key] > 0 for key in implied), failing
    assert all(failing[key] == 0 for key in vanishing), failing
    assert set(implied + vanishing) <= reached


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
    """On every para-Hurwitz algebra, both Okubo twists, every B(1,2)
    twist and P8 over GF(2), GF(3) and GF(4) whose even part has at most
    2^16 vectors, the answer equals the scan of the whole even part."""
    from compsuper.acceptance import _hurwitz_suite_instances, _symmetric_suite_instances

    cases = [(f"para-{label}", para_hurwitz(A)) for label, A in _hurwitz_suite_instances()]
    cases += [(label, S) for label, S in _symmetric_suite_instances()
              if not label.startswith("para-")]
    cases += [("para-K/GF(2)", para_hurwitz(nonsplit_quadratic(F2))),
              ("para-K/GF(4)", para_hurwitz(nonsplit_quadratic(F4)))]
    ran = set()
    for label, A in cases:
        q = A.field.order
        if q > 4 or q ** len(A.even_indices()) > 2 ** 16:
            continue
        assert find_para_units(A) == _scan_para_units(A), label
        ran.add(label.split("/")[0].split("_")[0])
    assert {"para-split8", "para-super-cayley", "para-B(4,2)", "okubo-nst", "okubo-omega",
            "B(1,2)", "P8"} <= ran


def test_para_units_over_q():
    """Exact over Q when the commutant is a line; a plane needs a finite
    field, and the answer says so instead of guessing."""
    for d in (4, 8):
        C, _ = split_hurwitz(d, QQ)
        assert find_para_units(para_hurwitz(C)) == [C.unit()]
    C2, _ = split_hurwitz(2, QQ)
    for A in (C2, para_hurwitz(C2), para_hurwitz(nonsplit_quadratic(QQ))):
        with pytest.raises(InfiniteField):
            find_para_units(A)


def test_line_idempotent():
    C, _ = split_hurwitz(4, F3)
    e1, e2, u1, _ = C.basis()
    two = F3.add(F3.one, F3.one)
    assert line_idempotent(C, linalg.vec_scale(F3, two, e1)) == e1
    assert linalg.vec_is_zero(F3, C.mul(u1, u1))  # z*z = 0
    assert line_idempotent(C, u1) is None
    z = linalg.vec_add(F3, C.unit(), u1)  # z*z = 1 + 2 u1, off the line F z
    assert linalg.coords_in_basis(F3, [z], C.mul(z, z)) is None
    assert line_idempotent(C, z) is None


def test_remark_identities_and_phi_square_fails():
    S, phi, cb, C = okubo_super(F4, "omega")
    assert check_remark_identities(S, phi, C).passed
    assert not check_remark_identities(S, phi.compose(phi), C).passed


def _reference_orthogonality(grading):
    """check_orthogonality with a dense eval_b for every pair."""
    A = grading.algebra
    F = A.field
    for g, vg in grading.comps:
        for h, vh in grading.comps:
            if (g + h).is_zero():
                continue
            for x in vg:
                for y in vh:
                    if A.eval_b(x, y) != F.zero:
                        return CheckReport(
                            "orthogonality", False, witness=(str(g), str(h), A.fmt(x), A.fmt(y)))
    for g, vg in grading.comps:
        k = grading.index.get(-g)
        vh = None if k is None else grading.comps[k][1]
        if vh is None or len(vh) != len(vg):
            return CheckReport("orthogonality", False, witness=(str(g), "missing opposite"))
        gram = [[A.eval_b(x, y) for y in vh] for x in vg]
        if linalg.rank(F, gram) < len(gram):
            return CheckReport("orthogonality", False, witness=(str(g), "degenerate pairing"))
    return CheckReport("orthogonality", True)


def test_orthogonality_matches_dense_reference_on_every_catalog_grading():
    """On every catalog entry over GF(2), GF(3), GF(4), GF(8), GF(9),
    GF(16) and GF(27) that meets its conditions, the report equals the
    dense reference's, as it does on three broken copies of it: the
    degrees shifted by a nonzero degree and the first vector of each
    component replaced by the sum of the first two, a component of
    degree g != -g
    left out, and the second vector of a component replaced by its
    first."""
    from compsuper.catalog import FieldConditionUnmet, build_entry, catalog_ids
    from compsuper.gradings import Grading

    built = 0
    failed = set()
    for F in (F2, F3, F4, GF(8), F9, GF(16), GF(27)):
        for id in catalog_ids():
            try:
                _, g = build_entry(id, F)
            except FieldConditionUnmet:
                continue
            built += 1
            comps = g.comps
            variants = [comps]
            shift = next((d for d, _ in comps if not d.is_zero()), None)
            if shift is not None:
                # the first vector replaced by the sum of the first two, so
                # that one x meets several y with b(x, y) != 0
                variants.append(tuple(
                    (d + shift, (linalg.vec_add(F, *vs[:2]),) + vs[1:] if len(vs) > 1 else vs)
                    for d, vs in comps))
            t = next((t for t, (d, _) in enumerate(comps) if d != -d), None)
            if t is not None:
                variants.append(comps[:t] + comps[t + 1:])
            t = next((t for t, (_, vs) in enumerate(comps) if len(vs) > 1), None)
            if t is not None:
                d, vs = comps[t]
                variants.append(comps[:t] + ((d, (vs[0], vs[0]) + vs[2:]),) + comps[t + 1:])
            for variant in variants:
                h = Grading(g.algebra, g.group, tuple(variant))
                got = check_orthogonality(h).as_dict()
                assert got == _reference_orthogonality(h).as_dict(), (id, F)
                if not got["pass"]:
                    w = got["witness"]
                    failed.add(w[1] if len(w) == 2 else "pair")
    assert built == 138
    assert failed == {"pair", "missing opposite", "degenerate pairing"}


def _pair_sum_orthogonality(grading):
    """check_orthogonality as it was with g + h formed and tested for 0
    on every ordered pair of components."""
    A = grading.algebra
    F = A.field
    z = F.zero
    covs = [[A.polar_row(x) for x in vg] for _, vg in grading.comps]
    for (g, vg), cg in zip(grading.comps, covs):
        for h, vh in grading.comps:
            if (g + h).is_zero():
                continue
            for x, cov in zip(vg, cg):
                for y, value in zip(vh, linalg.mat_vec(F, vh, cov)):
                    if value != z:
                        return CheckReport(
                            "orthogonality", False, witness=(str(g), str(h), A.fmt(x), A.fmt(y)))
    for (g, vg), cg in zip(grading.comps, covs):
        k = grading.index.get(-g)
        vh = None if k is None else grading.comps[k][1]
        if vh is None or len(vh) != len(vg):
            return CheckReport("orthogonality", False, witness=(str(g), "missing opposite"))
        gram = [linalg.mat_vec(F, vh, cov) for cov in cg]
        if linalg.rank(F, gram) < len(gram):
            return CheckReport("orthogonality", False, witness=(str(g), "degenerate pairing"))
    return CheckReport("orthogonality", True)


def _with_polar(A, polar):
    return SuperAlgebra(A.field, A.parity, A.table, A.q0, polar, A.basis_names, A.name)


def test_orthogonality_by_negated_degrees_matches_the_pair_sums(monkeypatch):
    """Testing h == -g, with -g formed once per component, gives the
    report of forming g + h for every ordered pair: on every catalog
    grading over GF(2), GF(3), GF(4) and GF(9), and on the same
    components in copies of the algebra with a corrupted polar form: a
    seeded nonzero entry added between two basis vectors of one parity
    (symmetric on the even block, skew on the odd one), and every
    off-diagonal entry set to 0.  The corruptions make the check fail
    both on a pair of components and on a degenerate pairing.  No degree
    sum is formed."""
    import random

    from compsuper.abelian import AbElement
    from compsuper.catalog import FieldConditionUnmet, build_entry, catalog_ids
    from compsuper.gradings import Grading

    rng = random.Random(31)
    sums = []
    real_add = AbElement.__add__
    built = 0
    failed = set()
    for F in (F2, F3, F4, F9):
        nonzero = [c for c in F.elements() if c != F.zero]
        for id in catalog_ids():
            try:
                A, g = build_entry(id, F)
            except FieldConditionUnmet:
                continue
            built += 1
            n = A.dim
            algebras = [A]
            for _ in range(2):
                i, j = rng.sample(range(n), 2)
                while A.parity[i] != A.parity[j]:
                    i, j = rng.sample(range(n), 2)
                polar = [list(row) for row in A.polar]
                c = rng.choice(nonzero)
                polar[i][j] = F.add(polar[i][j], c)
                polar[j][i] = F.add(polar[j][i], c if A.parity[i] == 0 else F.neg(c))
                algebras.append(_with_polar(A, polar))
            algebras.append(_with_polar(A, [[A.polar[i][j] if i == j else F.zero for j in range(n)]
                                            for i in range(n)]))
            for B in algebras:
                h = Grading(B, g.group, g.comps)
                want = _pair_sum_orthogonality(h).as_dict()
                monkeypatch.setattr(AbElement, "__add__",
                                    lambda x, y: sums.append(1) or real_add(x, y))
                got = check_orthogonality(h).as_dict()
                monkeypatch.undo()
                assert got == want, (id, F)
                if not got["pass"]:
                    w = got["witness"]
                    failed.add(w[1] if len(w) == 2 else "pair")
    assert built == 73
    assert failed == {"pair", "degenerate pairing"}
    assert sums == []


def test_orthogonality_on_catalog_grading():
    from compsuper.catalog import build_entry

    _, g = build_entry("eq2", F3)
    assert check_orthogonality(g).passed
    _, g6 = build_entry("eq6", F2)
    assert check_orthogonality(g6).passed
