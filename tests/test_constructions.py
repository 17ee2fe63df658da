import pytest

from compsuper import constructions, linalg
from compsuper.constructions import (
    BadAutomorphism,
    NoCubeRoot,
    NotHurwitz,
    NotIsotropic,
    NotSplit,
    WrongCharacteristic,
    ZeroAlpha,
    b12,
    b12_lambda,
    b42,
    canonical_basis_find,
    cayley_dickson,
    cayley_dickson_super,
    nonsplit_quadratic,
    okubo_super,
    para_hurwitz,
    peirce_decomposition,
    petersson_twist,
    pseudo_octonion,
    split_hurwitz,
    super_split_cayley,
    super_split_quaternion,
    tau_nst,
    tau_omega,
    tau_st,
)
from compsuper.fields import GF, QQ
from compsuper.search import find_graded_map
from compsuper.superalgebra import Morphism, identity_morphism, is_morphism

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)


def _named(A, nm):
    return A.basis_vector(A.basis_names.index(nm))


def test_split_table_values():
    C, _ = split_hurwitz(8, F2)
    assert C.mul(_named(C, "v1"), _named(C, "v2")) == _named(C, "u3")
    Q, _ = split_hurwitz(4, F3)
    m_e1 = linalg.vec_scale(F3, F3.from_int(2), _named(Q, "e1"))
    assert Q.mul(_named(Q, "u1"), _named(Q, "v1")) == m_e1
    K, _ = split_hurwitz(2, F9)
    assert K.mul(_named(K, "e1"), _named(K, "e2")) == K.zero()


def test_canonical_basis_verify_all_dims_and_fields():
    for F in (F2, F3, F4, F9, QQ):
        for d in (2, 4, 8):
            _, cb = split_hurwitz(d, F)
            assert cb.verify()


def test_cayley_dickson_formula_against_direct_evaluation():
    """Independent oracle: multiply arbitrary pairs through the doubling
    formula evaluated directly on components, compare with the table."""
    Q, _ = split_hurwitz(2, F2)
    C = cayley_dickson_super(Q, F2.one)
    n = Q.dim
    for x in linalg.all_vectors(F2, 2 * n):
        a, b = x[:n], x[n:]
        for y in linalg.all_vectors(F2, 2 * n):
            c, d = y[:n], y[n:]
            even = linalg.vec_sub(
                F2,
                Q.mul(a, c),
                linalg.vec_scale(F2, F2.one, Q.mul(Q.conj(d), b)),
            )
            odd = linalg.vec_add(F2, Q.mul(d, a), Q.mul(b, Q.conj(c)))
            assert C.mul(x, y) == even + odd


def test_doubling_generator_square():
    # u = (e1+e2)u; with alpha = 1 in characteristic 2, u.u = -alpha*1 = 1
    Q, _ = split_hurwitz(2, F2)
    C = cayley_dickson_super(Q, F2.one)
    u = tuple(list(C.zero()[:2]) + [F2.one, F2.one])
    assert C.mul(u, u) == tuple(list(C.unit()[:2]) + [F2.zero, F2.zero])


def test_cd_subalgebra_embedding():
    Q, _ = split_hurwitz(4, F4)
    C = cayley_dickson_super(Q, F4.one)
    for i in range(4):
        for j in range(4):
            emb = C.mul(C.basis_vector(i), C.basis_vector(j))
            assert emb[:4] == Q.mul(Q.basis_vector(i), Q.basis_vector(j))
            assert all(c == F4.zero for c in emb[4:])


def test_cd_guards():
    Q, _ = split_hurwitz(2, F2)
    with pytest.raises(ZeroAlpha):
        cayley_dickson_super(Q, F2.zero)
    with pytest.raises(WrongCharacteristic):
        cayley_dickson_super(split_hurwitz(2, F3)[0], F3.one)
    B = b12(F3)
    with pytest.raises(NotHurwitz):
        cayley_dickson(B, F3.one, super_grading=False)
    C8, _ = split_hurwitz(8, F2)
    with pytest.raises(NotHurwitz):
        cayley_dickson(C8, F2.one, super_grading=False)


def test_cd_of_split4_is_the_split_cayley_algebra():
    """Doubling the split quaternions gives the dimension-8 split algebra."""
    from compsuper.gradings import trivial_grading

    Q, _ = split_hurwitz(4, F2)
    C = cayley_dickson(Q, F2.one, super_grading=False)
    C8, _ = split_hurwitz(8, F2)
    f = find_graded_map(C, trivial_grading(C), C8, trivial_grading(C8), mode="isomorphism")
    assert f is not None and "algebra-hom" in f.attrs


def test_b12_products():
    B = b12(F3)
    u, v = _named(B, "u"), _named(B, "v")
    assert B.mul(u, v) == B.unit()
    assert B.mul(v, u) == linalg.vec_scale(F3, F3.neg(F3.one), B.unit())
    assert B.mul(u, u) == B.zero()
    with pytest.raises(WrongCharacteristic):
        b12(F2)


def test_b42_products():
    B = b42(F9)
    u, v, e1, e2, x = (_named(B, n) for n in ("u", "v", "e1", "e2", "x"))
    assert B.mul(u, v) == linalg.vec_scale(F9, F9.neg(F9.one), e2)
    assert B.mul(e1, x) == x
    assert B.mul(x, e2) == x
    assert B.mul(v, u) == e1
    with pytest.raises(WrongCharacteristic):
        b42(F4)


def test_para_hurwitz():
    C, _ = split_hurwitz(2, F3)
    P = para_hurwitz(C)
    one = C.unit()
    assert P.mul(one, one) == one
    e1, e2 = _named(C, "e1"), _named(C, "e2")
    # conj(e1) = e2, so e1*e1 = e2.e2 = e2
    assert P.mul(e1, e1) == e2
    basis = P.basis()
    for x in basis:
        for y in basis:
            for z in basis:
                assert P.eval_b(P.mul(x, y), z) == P.eval_b(x, P.mul(y, z))


def test_petersson_identity_twist_is_para():
    C, _ = split_hurwitz(4, F3)
    P1 = petersson_twist(C, identity_morphism(C))
    P2 = para_hurwitz(C)
    assert P1.table == P2.table


def test_taus():
    C, cb = super_split_cayley(F2)
    t = tau_nst(cb)
    v1, v2 = _named(C, "v1"), _named(C, "v2")
    # -v1 + v2 over characteristic 2
    assert t.apply(v1) == linalg.vec_add(F2, v1, v2)
    Co, cbo = super_split_cayley(F4)
    w = F4.primitive_cube_root_raw()
    to = tau_omega(cbo)
    assert to.apply(_named(Co, "v2")) == linalg.vec_scale(F4, w, _named(Co, "v2"))
    C8, cb8 = split_hurwitz(8, F3)
    ts = tau_st(cb8)
    assert ts.power(3).is_identity() and not ts.is_identity()
    assert is_morphism(ts).attrs >= {"algebra-hom", "isometry"}
    with pytest.raises(NoCubeRoot):
        tau_omega(cb8)


def test_b12_lambda():
    S0, phi0, B = b12_lambda(F3, 0)
    assert phi0.is_identity()
    assert S0.table == para_hurwitz(B).table
    S1, phi1, B = b12_lambda(F3, 1)
    assert phi1.power(3).is_identity()
    u, v = B.basis_vector(1), B.basis_vector(2)
    # direct evaluation of the twist product on u and v
    lam = F3.one
    phiu = u
    minus_phiu = linalg.vec_scale(F3, F3.neg(F3.one), phiu)
    uu = B.mul(minus_phiu, minus_phiu)
    assert S1.mul(u, u) == uu == S1.zero()
    vv_expected = linalg.vec_scale(F3, F3.neg(lam), B.unit())
    assert S1.mul(v, v) == vv_expected


def test_okubo_super():
    S, phi, cb, C = okubo_super(F2, "nst")
    assert S.parity == C.parity
    assert S.polar == C.polar
    with pytest.raises(NoCubeRoot):
        okubo_super(F2, "omega")
    with pytest.raises(WrongCharacteristic):
        okubo_super(F3, "nst")
    S4, phi4, cb4, C4 = okubo_super(F4, "omega")
    assert phi4.power(3).is_identity()


def test_pseudo_octonion():
    P, phi, cb, C = pseudo_octonion(F3)
    from compsuper.axioms import check_symmetric

    assert check_symmetric(P).passed


def test_peirce_decomposition():
    C, cb = split_hurwitz(8, F9)
    pd = peirce_decomposition(C, cb.vectors["e1"])
    assert len(pd.U) == 3 and len(pd.V) == 3
    # U and V are isotropic and multiply into each other's span
    for x in pd.U:
        assert C.eval_q0(x) == F9.zero
    rrV, pivV = linalg.rref(F9, pd.V)
    for x in pd.U:
        for y in pd.U:
            p = C.mul(x, y)
            assert linalg.in_span(F9, rrV, pivV, p)


def _reference_peirce(C, e1):
    """Reference Peirce decomposition that builds each operator matrix
    entry by entry, C.mul(a, b_j)[i], and anew for U and for V."""
    F = C.field
    e2 = linalg.vec_sub(F, C.unit(), e1)
    n = C.dim
    basis = C.basis()

    def solve_space(conds):
        rows = []
        for mat in conds:
            rows.extend(mat)
        return linalg.nullspace(F, rows)

    def left_mul(a):
        return [tuple(C.mul(a, basis[j])[i] for j in range(n)) for i in range(n)]

    def right_mul(a):
        return [tuple(C.mul(basis[j], a)[i] for j in range(n)) for i in range(n)]

    ident = linalg.identity_matrix(F, n)

    def minus(Mat):
        return [tuple(F.sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(Mat, ident)]

    U = solve_space([minus(left_mul(e1)), minus(right_mul(e2)), left_mul(e2), right_mul(e1)])
    V = solve_space([minus(left_mul(e2)), minus(right_mul(e1)), left_mul(e1), right_mul(e2)])
    return constructions.PeirceDecomposition(
        e1=tuple(e1), e2=tuple(e2), K=[tuple(e1), tuple(e2)], U=U, V=V)


def _isotropic_seeds(C):
    F = C.field
    return [v for v in linalg.nonzero_vectors(F, C.dim) if C.eval_q0(v) == F.zero]


@pytest.mark.parametrize("q, step", [(2, 1), (3, 61)])
def test_peirce_and_canonical_basis_match_reference(q, step, monkeypatch):
    C, _ = split_hurwitz(8, GF(q))
    seeds = _isotropic_seeds(C)
    if q == 2:
        assert len(seeds) == 135
    seeds = seeds[::step]
    found = [canonical_basis_find(C, a) for a in seeds]
    for cb in found:
        e1 = cb.vectors["e1"]
        assert peirce_decomposition(C, e1) == _reference_peirce(C, e1)
    # canonical_basis_find reads its Peirce spaces through the module name
    monkeypatch.setattr(constructions, "peirce_decomposition", _reference_peirce)
    for a, cb in zip(seeds, found):
        assert canonical_basis_find(C, a).vectors == cb.vectors


def test_canonical_basis_find_needs_dimension_8():
    C, _ = split_hurwitz(4, F3)
    with pytest.raises(ValueError, match="dimension 8, got 4"):
        canonical_basis_find(C, _named(C, "u1"))


@pytest.mark.parametrize("dim", [1, 3, 16])
def test_split_hurwitz_rejects_other_dimensions(dim):
    with pytest.raises(ValueError, match="2, 4 or 8"):
        split_hurwitz(dim, F2)


def test_canonical_basis_find():
    C, cb = split_hurwitz(8, F3)
    got = canonical_basis_find(C, cb.vectors["u1"])
    assert got.verify()
    with pytest.raises(NotIsotropic):
        canonical_basis_find(C, C.unit())  # q(1) = 1
    with pytest.raises(NotIsotropic):
        canonical_basis_find(C, C.zero())


def _corrupted(cb, **vectors):
    return constructions.CanonicalBasis(cb.algebra, {**cb.vectors, **vectors})


def test_verify_rejects_corrupted_bases():
    C, cb = split_hurwitz(8, F3)
    v = cb.vectors
    changed = linalg.vec_add(F3, v["u3"], v["e1"])  # one coordinate changed
    # the first failing table pair, in the order of names()
    with pytest.raises(NotSplit, match=r"'algebra-hom' failed at \('u3', 'e1'\)"):
        _corrupted(cb, u3=changed).verify()
    with pytest.raises(NotSplit, match=r"'algebra-hom' failed at \('e1', 'u1'\)"):
        _corrupted(cb, u1=v["v1"], v1=v["u1"]).verify()  # two names swapped
    # the split table with the norm negated: an algebra map, not an isometry
    minus = {pair: -1 for pair in constructions.CAYLEY_POLAR_PAIRS}
    N = constructions._table_algebra(F3, constructions.CAYLEY_NAMES, (0,) * 8,
                                     constructions.CAYLEY_TABLE, minus)
    with pytest.raises(NotSplit, match=r"'isometry' failed at \('e1', 'e2'\)"):
        constructions.CanonicalBasis(N, {nm: N.basis_vector(i)
                                         for i, nm in enumerate(constructions.CAYLEY_NAMES)}
                                     ).verify()
    S, scb = super_split_cayley(F2)
    w = scb.vectors
    with pytest.raises(NotSplit, match="u1 is not parity-homogeneous"):
        _corrupted(scb, u1=linalg.vec_add(F2, w["u1"], w["e1"])).verify()
    # u1 (odd) and u3 (even) swapped: the parities break the table's grading
    with pytest.raises(NotSplit, match="violates parity"):
        _corrupted(scb, u1=w["u3"], u3=w["u1"]).verify()
    assert cb.verify() is True and scb.verify() is True


def _scan_canonical_basis(C, a):
    """Reference: the vectors of `canonical_basis_find` with the partner b
    and u3 found by scanning F^8 and the nonzero combinations of U for the
    first solution."""
    F = C.field
    b = next(x for x in linalg.all_vectors(F, 8) if C.eval_b(a, C.conj(x)) == F.one)
    e1 = C.mul(a, b)
    pd = peirce_decomposition(C, e1)
    u1, u2 = pd.U[0], pd.U[1]
    w = C.mul(u1, u2)
    u3 = next(x for x in linalg.span_vectors(F, pd.U, 8) if C.eval_b(w, x) == F.one)
    return {"e1": e1, "e2": pd.e2, "u1": u1, "u2": u2, "u3": u3,
            "v1": C.mul(u2, u3), "v2": C.mul(u3, u1), "v3": C.mul(u1, u2)}


@pytest.mark.parametrize("q, step", [(2, 1), (3, 7), (4, 53)])
def test_closed_forms_give_the_first_basis_a_scan_finds(q, step):
    """b = e_J / c_J and u3 = U_J / d_J are the first solutions in the
    lexicographic order of the scans: every GF(2) seed, and every step-th
    isotropic seed over GF(3) and GF(4)."""
    C, _ = split_hurwitz(8, GF(q))
    seeds = _isotropic_seeds(C)[::step]
    assert len(seeds) > 60
    for a in seeds:
        assert canonical_basis_find(C, a).vectors == _scan_canonical_basis(C, a)


def test_canonical_basis_find_over_q():
    C, cb = split_hurwitz(8, QQ)
    v = cb.vectors
    half = QQ.parse_elt("1/2")
    seeds = [v["u1"], linalg.vec_add(QQ, v["e1"], v["u2"]),
             linalg.lincomb(QQ, (half, QQ.from_int(-3)), (v["u1"], v["v2"]), 8),
             linalg.lincomb(QQ, (QQ.one, QQ.one, QQ.from_int(-1)), (v["e2"], v["v1"], v["u3"]), 8)]
    for a in seeds:
        assert C.eval_q0(a) == QQ.zero
        got = canonical_basis_find(C, a)
        assert got.verify() is True
        assert linalg.rank(QQ, [got.vectors[nm] for nm in got.names()]) == 8


def test_nonsplit_quadratic_is_anisotropic_over_gf2():
    K = nonsplit_quadratic(F2)
    for v in linalg.nonzero_vectors(F2, 2):
        assert K.eval_q0(v) != F2.zero
    # over GF(4) the same algebra is split: x^2+x+1 has roots
    K4 = nonsplit_quadratic(F4)
    isotropic = [v for v in linalg.nonzero_vectors(F4, 2) if K4.eval_q0(v) == F4.zero]
    assert isotropic


def test_super_split_quaternion_parity():
    A, cb = super_split_quaternion(F2)
    assert A.parity == (0, 0, 1, 1)
    assert cb.verify()
    with pytest.raises(WrongCharacteristic):
        super_split_quaternion(F3)


def _on_every_name(A, vectors, assignment):
    """The map sending vectors[name] to assignment[name], for an
    assignment that lists every name of `vectors`, fixed ones included."""
    F = A.field
    inverse = linalg.basis_inverse(F, [vectors[nm] for nm in assignment])
    targets = list(assignment.values())
    return Morphism(A, A, tuple(linalg.lincomb(F, coeffs, targets, A.dim)
                                for coeffs in zip(*inverse)))


def _tau_on_every_name(kind, cb):
    """tau_st, tau_nst or tau_omega with every basis name listed."""
    A = cb.algebra
    F = A.field
    v = cb.vectors
    o, m = F.one, F.neg(F.one)
    if kind == "st":
        images = {"e1": v["e1"], "e2": v["e2"], "u1": v["u2"], "u2": v["u3"], "u3": v["u1"],
                  "v1": v["v2"], "v2": v["v3"], "v3": v["v1"]}
    elif kind == "nst":
        images = {"e1": v["e1"], "e2": v["e2"], "u1": v["u2"],
                  "u2": linalg.lincomb(F, (m, m), (v["u1"], v["u2"]), A.dim), "u3": v["u3"],
                  "v1": linalg.lincomb(F, (m, o), (v["v1"], v["v2"]), A.dim),
                  "v2": linalg.vec_scale(F, m, v["v1"]), "v3": v["v3"]}
    else:
        w1 = F.primitive_cube_root_raw()
        w2 = F.mul(w1, w1)
        images = {"e1": v["e1"], "e2": v["e2"], "u1": linalg.vec_scale(F, w1, v["u1"]),
                  "u2": linalg.vec_scale(F, w2, v["u2"]), "u3": v["u3"],
                  "v1": linalg.vec_scale(F, w2, v["v1"]),
                  "v2": linalg.vec_scale(F, w1, v["v2"]), "v3": v["v3"]}
    return _on_every_name(A, v, images)


def _signed_on_every_name(A, vectors, table):
    """`catalog._signed_permutation` with every name listed."""
    F = A.field
    minus = F.neg(F.one)
    images = {}
    for nm in vectors:
        img, sign = table.get(nm, (nm, 1))
        images[nm] = vectors[img] if sign == 1 else linalg.vec_scale(F, minus, vectors[img])
    return _on_every_name(A, vectors, images)


def _dim8_bases(F):
    """The standard canonical basis of split8 over F, two found from
    isotropic seeds, and over characteristic 2 the super-Cayley one."""
    C, cb = split_hurwitz(8, F)
    v = cb.vectors
    seeds = (v["v1"], linalg.vec_add(F, v["u1"], v["v2"]))
    out = [cb] + [canonical_basis_find(C, a) for a in seeds]
    return out + [super_split_cayley(F)[1]] if F.char == 2 else out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_basis_maps_that_name_only_what_moves_fix_the_rest(q):
    """The tau maps and the catalog's signed permutations, which name
    only the basis vectors they move, equal the maps that list every
    basis name, on standard and found canonical bases."""
    from compsuper.catalog import (
        _B12_FLIP, _B42_FLIP, _DIM8_CROSS, _DIM8_FLIP, _DIM8_SWAP, _signed_permutation)

    F = GF(q)
    bases = _dim8_bases(F)
    assert len({tuple(cb.vectors.values()) for cb in bases}) >= 3
    maps = 0
    for cb in bases:
        kinds = [("st", tau_st), ("nst", tau_nst)]
        if F.primitive_cube_root_raw() is not None:
            kinds.append(("omega", tau_omega))
        for kind, tau in kinds:
            assert tau(cb).images == _tau_on_every_name(kind, cb).images, (kind, cb.vectors)
            maps += 1
        for table in (_DIM8_SWAP, _DIM8_FLIP, _DIM8_CROSS):
            assert (_signed_permutation(cb.algebra, cb.vectors, table).images
                    == _signed_on_every_name(cb.algebra, cb.vectors, table).images)
            maps += 1
    if F.char == 3:
        for A, table in ((b12(F), _B12_FLIP), (b42(F), _B42_FLIP)):
            vectors = {nm: A.basis_vector(i) for i, nm in enumerate(A.basis_names)}
            assert (_signed_permutation(A, vectors, table).images
                    == _signed_on_every_name(A, vectors, table).images)
            maps += 1
    assert maps == {2: 20, 3: 17, 4: 24, 9: 17}[q]
    cb = bases[0]
    with pytest.raises(ValueError, match="not basis names"):
        constructions._morphism_on_basis(cb.algebra, cb.vectors, {"u4": cb.vectors["u1"]})
