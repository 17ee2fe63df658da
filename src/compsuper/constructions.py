"""Constructors for the named algebras and order-3 automorphisms.

Sign conventions follow the split Cayley multiplication table literally
(u_i v_i = -e_1, etc.); in characteristic 2 the signs collapse but the
same data drives every characteristic.
"""

from dataclasses import dataclass

from . import linalg
from .superalgebra import (
    SuperAlgebra,
    Morphism,
    identity_morphism,
    is_morphism,
    is_regular_superform,
    CheckFailed,
)


class WrongCharacteristic(ValueError):
    pass


class ZeroAlpha(ValueError):
    pass


class NotHurwitz(ValueError):
    pass


class BadAutomorphism(ValueError):
    pass


class NoCubeRoot(ValueError):
    pass


class NotIsotropic(ValueError):
    pass


class NotSplit(ValueError):
    pass


CAYLEY_NAMES = ("e1", "e2", "u1", "u2", "u3", "v1", "v2", "v3")

# (left, right) -> list of (result, integer sign)
CAYLEY_TABLE = {
    ("e1", "e1"): [("e1", 1)],
    ("e2", "e2"): [("e2", 1)],
    ("e1", "u1"): [("u1", 1)],
    ("e1", "u2"): [("u2", 1)],
    ("e1", "u3"): [("u3", 1)],
    ("e2", "v1"): [("v1", 1)],
    ("e2", "v2"): [("v2", 1)],
    ("e2", "v3"): [("v3", 1)],
    ("u1", "e2"): [("u1", 1)],
    ("u2", "e2"): [("u2", 1)],
    ("u3", "e2"): [("u3", 1)],
    ("v1", "e1"): [("v1", 1)],
    ("v2", "e1"): [("v2", 1)],
    ("v3", "e1"): [("v3", 1)],
    ("u1", "u2"): [("v3", 1)],
    ("u2", "u1"): [("v3", -1)],
    ("u2", "u3"): [("v1", 1)],
    ("u3", "u2"): [("v1", -1)],
    ("u3", "u1"): [("v2", 1)],
    ("u1", "u3"): [("v2", -1)],
    ("v1", "v2"): [("u3", 1)],
    ("v2", "v1"): [("u3", -1)],
    ("v2", "v3"): [("u1", 1)],
    ("v3", "v2"): [("u1", -1)],
    ("v3", "v1"): [("u2", 1)],
    ("v1", "v3"): [("u2", -1)],
    ("u1", "v1"): [("e1", -1)],
    ("u2", "v2"): [("e1", -1)],
    ("u3", "v3"): [("e1", -1)],
    ("v1", "u1"): [("e2", -1)],
    ("v2", "u2"): [("e2", -1)],
    ("v3", "u3"): [("e2", -1)],
}

# polar form, (a, b) -> sign of b(a, b): b(e1,e2)=1, b(u_i,v_i)=1 (dual bases), else 0
CAYLEY_POLAR_PAIRS = {("e1", "e2"): 1, ("u1", "v1"): 1, ("u2", "v2"): 1, ("u3", "v3"): 1}

SUPER_CAYLEY_PARITY = {"e1": 0, "e2": 0, "u1": 1, "u2": 1, "u3": 0, "v1": 1, "v2": 1, "v3": 0}


@dataclass
class CanonicalBasis:
    """Distinguished vectors realizing the split multiplication table."""

    algebra: SuperAlgebra
    vectors: dict  # name -> coordinate tuple; dims 2/4 carry a subset

    def names(self):
        if "u2" in self.vectors:
            return CAYLEY_NAMES
        if "u1" in self.vectors:
            return ("e1", "e2", "u1", "v1")
        return ("e1", "e2")

    def verify(self):
        """Exact table and norm check; raises NotSplit on mismatch."""
        A = self.algebra
        F = A.field
        names = self.names()
        vecs = self.vectors
        for a in names:
            for b in names:
                terms = CAYLEY_TABLE.get((a, b), [])
                want = linalg.lincomb(
                    F, [F.from_int(sgn) for _, sgn in terms], [vecs[res] for res, _ in terms], A.dim
                )
                if A.mul(vecs[a], vecs[b]) != want:
                    raise NotSplit(f"table mismatch at {a}*{b}")
        for a in names:
            pa = A.parity_of(vecs[a])
            if pa is None:
                raise NotSplit(f"{a} is not parity-homogeneous")
            if A.parity_of(vecs[a]) == 0 and A.eval_q0(vecs[a]) != F.zero:
                raise NotSplit(f"{a} is not isotropic")
        for a in names:
            for b in names:
                want = F.zero
                if (a, b) in CAYLEY_POLAR_PAIRS:
                    want = F.one
                elif (b, a) in CAYLEY_POLAR_PAIRS:
                    both_odd = A.parity_of(vecs[a]) and A.parity_of(vecs[b])
                    want = F.neg(F.one) if both_odd else F.one
                if A.eval_b(vecs[a], vecs[b]) != want:
                    raise NotSplit(f"norm mismatch at b({a},{b})")
        return True


@dataclass
class PeirceDecomposition:
    """C = K + U + V for the idempotent e1; U, V are isotropic."""

    e1: tuple
    e2: tuple
    K: list
    U: list
    V: list


def _table_algebra(field, names, parity, table_pairs, polar_pairs, q0_names=(), name=""):
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    z = field.zero
    sign = {1: field.one, -1: field.neg(field.one)}
    table = [[[z] * n for _ in range(n)] for _ in range(n)]
    for (a, b), terms in table_pairs.items():
        if a not in idx or b not in idx:
            continue
        for res, sgn in terms:
            if res not in idx:
                raise ValueError(f"product {a}*{b} leaves the chosen basis")
            table[idx[a]][idx[b]][idx[res]] = field.add(
                table[idx[a]][idx[b]][idx[res]], sign[sgn]
            )
    polar = [[z] * n for _ in range(n)]
    for (a, b), sgn in polar_pairs.items():
        if a in idx and b in idx:
            i, j = idx[a], idx[b]
            polar[i][j] = sign[sgn]
            if parity[i] == 1 and parity[j] == 1:
                polar[j][i] = field.neg(sign[sgn])
            else:
                polar[j][i] = sign[sgn]
    q0 = [z] * n
    for nm, val in q0_names:
        q0[idx[nm]] = field.from_int(val) if isinstance(val, int) else val
    for i in range(n):
        if parity[i] == 0:
            polar[i][i] = field.add(q0[i], q0[i])
    return SuperAlgebra(field, parity, table, q0, polar, basis_names=names, name=name)


def split_hurwitz(dim, field):
    """Split Hurwitz algebra of dimension 2, 4 or 8 on its canonical basis
    (trivial odd part); works over any field."""
    if dim not in (2, 4, 8):
        raise ValueError(f"split Hurwitz algebras have dimension 2, 4 or 8, got {dim!r}")
    names = {2: CAYLEY_NAMES[:2], 4: ("e1", "e2", "u1", "v1"), 8: CAYLEY_NAMES}[dim]
    A = _table_algebra(
        field,
        names,
        (0,) * dim,
        CAYLEY_TABLE,
        CAYLEY_POLAR_PAIRS,
        name=f"split{dim}",
    )
    cb = CanonicalBasis(A, {nm: A.basis_vector(i) for i, nm in enumerate(names)})
    return A, cb


def super_split_cayley(field):
    """The split Cayley algebra as a superalgebra: even part spanned by
    e1, e2, u3, v3.  Only defined in characteristic 2."""
    if field.char != 2:
        raise WrongCharacteristic("the split Cayley superalgebra needs characteristic 2")
    parity = tuple(SUPER_CAYLEY_PARITY[nm] for nm in CAYLEY_NAMES)
    A = _table_algebra(
        field, CAYLEY_NAMES, parity, CAYLEY_TABLE, CAYLEY_POLAR_PAIRS, name="super-cayley"
    )
    cb = CanonicalBasis(A, {nm: A.basis_vector(i) for i, nm in enumerate(CAYLEY_NAMES)})
    return A, cb


def super_split_quaternion(field):
    """The split quaternion algebra as a superalgebra on (e1, e2, u1, v1),
    odd part spanned by u1, v1; char 2 only."""
    if field.char != 2:
        raise WrongCharacteristic("the split quaternion superalgebra needs characteristic 2")
    names = ("e1", "e2", "u1", "v1")
    A = _table_algebra(
        field, names, (0, 0, 1, 1), CAYLEY_TABLE, CAYLEY_POLAR_PAIRS, name="super-quaternion"
    )
    cb = CanonicalBasis(A, {nm: A.basis_vector(i) for i, nm in enumerate(names)})
    return A, cb


def nonsplit_quadratic(field):
    """The 2-dimensional Hurwitz algebra F[w]/(w^2+w+1) with the norm form;
    anisotropic exactly when x^2+x+1 has no root in F."""
    table = {
        ("1", "1"): [("1", 1)],
        ("1", "w"): [("w", 1)],
        ("w", "1"): [("w", 1)],
        ("w", "w"): [("1", -1), ("w", -1)],
    }
    # q(1) = q(w) = 1 and b(1, w) = -1, from w^2 + w + 1 = 0
    return _table_algebra(field, ("1", "w"), (0, 0), table, {("1", "w"): -1},
                          q0_names=[("1", 1), ("w", 1)], name="K(w^2+w+1)")


def cayley_dickson(Q, alpha, super_grading):
    """Double Q along a new vector u with q(u) = alpha.

    (a+bu)(c+du) = (ac - alpha*conj(d)b) + (da + b*conj(c))u, and the norm
    extends by q(xu) = -alpha*q(x).  With super_grading=True the new part
    Qu is odd, which yields a superalgebra only in characteristic 2.
    """
    F = Q.field
    if alpha == F.zero:
        raise ZeroAlpha("alpha must be nonzero")
    if any(p == 1 for p in Q.parity):
        raise NotHurwitz("the doubled algebra must have trivial odd part")
    if Q.dim not in (1, 2, 4):
        raise NotHurwitz("doubling beyond dimension 4 leaves the Hurwitz class")
    if Q.unit() is None or not is_regular_superform(Q):
        raise NotHurwitz("base of the doubling must be a Hurwitz algebra")
    if super_grading and F.char != 2:
        raise WrongCharacteristic("the doubling is a superalgebra only in characteristic 2")
    n = Q.dim
    z = F.zero
    dim = 2 * n
    names = Q.basis_names + tuple(f"{nm}u" for nm in Q.basis_names)
    parity = (0,) * n + ((1,) * n if super_grading else (0,) * n)
    table = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    conj_basis = [Q.conj(Q.basis_vector(i)) for i in range(n)]
    neg_alpha = F.neg(alpha)
    for i in range(n):
        bi = Q.basis_vector(i)
        for j in range(n):
            bj = Q.basis_vector(j)
            prod = Q.mul(bi, bj)  # a*c
            for k, c in enumerate(prod):
                table[i][j][k] = c
            prod = Q.mul(bj, bi)  # d*a -> (a)(du) = (da)u
            for k, c in enumerate(prod):
                table[i][n + j][n + k] = c
            prod = Q.mul(bi, conj_basis[j])  # b*conj(c) -> (bu)(c) = (b conj(c))u
            for k, c in enumerate(prod):
                table[n + i][j][n + k] = c
            prod = Q.mul(conj_basis[j], bi)  # -alpha*conj(d)*b
            for k, c in enumerate(prod):
                table[n + i][n + j][k] = F.mul(neg_alpha, c)
    polar = [[z] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            polar[i][j] = Q.polar[i][j]
            polar[n + i][n + j] = F.mul(neg_alpha, Q.polar[i][j])
    q0 = list(Q.q0) + ([z] * n if super_grading else [F.mul(neg_alpha, c) for c in Q.q0])
    return SuperAlgebra(
        F,
        parity,
        table,
        q0,
        polar,
        basis_names=names,
        name=f"CD({Q.name or 'Q'},{F.fmt(alpha)})" + ("" if super_grading else "-plain"),
    )


def cayley_dickson_super(Q, alpha):
    """The doubling as a superalgebra (even part Q, odd part Qu); char 2."""
    return cayley_dickson(Q, alpha, super_grading=True)


def b12(field):
    """F1 + V with uv = (u,v)1 on a 2-dimensional symplectic V; char 3."""
    if field.char != 3:
        raise WrongCharacteristic("B(1,2) requires characteristic 3")
    names = ("1", "u", "v")
    table = {
        ("1", "1"): [("1", 1)],
        ("1", "u"): [("u", 1)],
        ("1", "v"): [("v", 1)],
        ("u", "1"): [("u", 1)],
        ("v", "1"): [("v", 1)],
        ("u", "v"): [("1", 1)],
        ("v", "u"): [("1", -1)],
    }
    A = _table_algebra(
        field,
        names,
        (0, 1, 1),
        table,
        {("u", "v"): 1},
        q0_names=[("1", 1)],
        name="B(1,2)",
    )
    return A


def b42(field):
    """End(V) + V on the basis (e1, e2, x, y, u, v); char 3.

    e1, e2, x, y are the matrix units of End(V) in the basis (u, v);
    the odd products are u.u = -x, v.v = y, u.v = -e2, v.u = e1.
    """
    if field.char != 3:
        raise WrongCharacteristic("B(4,2) requires characteristic 3")
    names = ("e1", "e2", "x", "y", "u", "v")
    table = {
        ("e1", "e1"): [("e1", 1)],
        ("e2", "e2"): [("e2", 1)],
        ("e1", "x"): [("x", 1)],
        ("x", "e2"): [("x", 1)],
        ("e2", "y"): [("y", 1)],
        ("y", "e1"): [("y", 1)],
        ("x", "y"): [("e1", 1)],
        ("y", "x"): [("e2", 1)],
        # phi . w = conj(phi)(w) for even phi, odd w
        ("e1", "v"): [("v", 1)],
        ("e2", "u"): [("u", 1)],
        ("x", "v"): [("u", -1)],
        ("y", "u"): [("v", -1)],
        # w . phi = phi(w)
        ("u", "e1"): [("u", 1)],
        ("u", "y"): [("v", 1)],
        ("v", "e2"): [("v", 1)],
        ("v", "x"): [("u", 1)],
        # odd times odd
        ("u", "u"): [("x", -1)],
        ("v", "v"): [("y", 1)],
        ("u", "v"): [("e2", -1)],
        ("v", "u"): [("e1", 1)],
    }
    # b(x,y) = det(x+y) - det x - det y = -1
    polar_pairs = {("e1", "e2"): 1, ("u", "v"): 1, ("x", "y"): -1}
    return _table_algebra(field, names, (0, 0, 0, 0, 1, 1), table, polar_pairs, name="B(4,2)")


def para_hurwitz(C):
    """Same space and norm, new product x*y = conj(x).conj(y)."""
    if C.unit() is None:
        raise NotHurwitz("para-Hurwitz twist needs a unital Hurwitz algebra")
    return petersson_twist(C, identity_morphism(C), name=f"para-{C.name or 'C'}")


def petersson_twist(C, phi, name=None):
    """New product x*y = phi(conj(x)).phi^2(conj(y)) on the same space/norm."""
    if C.unit() is None:
        raise NotHurwitz("Petersson twist needs a unital Hurwitz algebra")
    try:
        phi = is_morphism(phi, ("algebra-hom", "parity-preserving", "bijective"))
    except CheckFailed as exc:
        raise BadAutomorphism(str(exc)) from exc
    if not phi.power(3).is_identity():
        raise BadAutomorphism("twisting automorphism must satisfy phi^3 = 1")
    phi2 = phi.compose(phi)
    n = C.dim
    left = [phi.apply(C.conj(C.basis_vector(i))) for i in range(n)]
    right = [phi2.apply(C.conj(C.basis_vector(j))) for j in range(n)]
    table = [[C.mul(left[i], right[j]) for j in range(n)] for i in range(n)]
    return SuperAlgebra(
        C.field,
        C.parity,
        table,
        C.q0,
        C.polar,
        basis_names=C.basis_names,
        name=name or f"petersson-{C.name or 'C'}",
    )


def _morphism_on_basis(A, vectors, assignment):
    """The linear map A -> A sending each basis vector `vectors[name]` to
    `assignment[name]` (both name -> coordinate tuple in A).

    Each standard basis vector of A is written in the basis `vectors` (a
    column of the basis inverse) and sent to the same combination of the
    images.  A is passed in rather than read from a canonical basis's
    `algebra` because a Petersson twist keeps the space of the algebra it
    twists: its maps are given on the canonical basis of that algebra.
    """
    F = A.field
    basis = [vectors[nm] for nm in assignment]
    inverse = linalg.basis_inverse(F, basis)
    targets = list(assignment.values())
    return Morphism(A, A, tuple(linalg.lincomb(F, coeffs, targets, A.dim)
                                for coeffs in zip(*inverse)))


def tau_st(cb):
    """e_i fixed, u_i -> u_{i+1}, v_i -> v_{i+1} (indices mod 3); order 3."""
    v = cb.vectors
    assignment = {
        "e1": v["e1"],
        "e2": v["e2"],
        "u1": v["u2"],
        "u2": v["u3"],
        "u3": v["u1"],
        "v1": v["v2"],
        "v2": v["v3"],
        "v3": v["v1"],
    }
    return _morphism_on_basis(cb.algebra, cb.vectors, assignment)


def tau_nst(cb):
    """e_i, u3, v3 fixed; u1 -> u2 -> -u1-u2, v1 -> -v1+v2, v2 -> -v1."""
    A = cb.algebra
    F = A.field
    v = cb.vectors
    o, m = F.one, F.neg(F.one)
    assignment = {
        "e1": v["e1"],
        "e2": v["e2"],
        "u1": v["u2"],
        "u2": linalg.lincomb(F, (m, m), (v["u1"], v["u2"]), A.dim),
        "u3": v["u3"],
        "v1": linalg.lincomb(F, (m, o), (v["v1"], v["v2"]), A.dim),
        "v2": linalg.vec_scale(F, m, v["v1"]),
        "v3": v["v3"],
    }
    return _morphism_on_basis(cb.algebra, cb.vectors, assignment)


def tau_omega(cb):
    """u_i -> w^i u_i, v_i -> w^-i v_i for the field's primitive cube root w."""
    A = cb.algebra
    F = A.field
    omega = F.primitive_cube_root_raw()
    if omega is None:
        raise NoCubeRoot(f"{F.name} has no primitive cube root of 1")
    w1 = omega
    w2 = F.mul(omega, omega)
    v = cb.vectors
    assignment = {
        "e1": v["e1"],
        "e2": v["e2"],
        "u1": linalg.vec_scale(F, w1, v["u1"]),
        "u2": linalg.vec_scale(F, w2, v["u2"]),
        "u3": v["u3"],
        "v1": linalg.vec_scale(F, w2, v["v1"]),
        "v2": linalg.vec_scale(F, w1, v["v2"]),
        "v3": v["v3"],
    }
    return _morphism_on_basis(cb.algebra, cb.vectors, assignment)


def b12_lambda(field, lam):
    """Twist of B(1,2) by phi: u -> u, v -> lam*u + v; char 3.

    lam = 0 gives the para-Hurwitz twist.
    """
    B = b12(field)
    if isinstance(lam, int):
        lam = field.from_int(lam)
    F = field
    images = (
        B.basis_vector(0),
        B.basis_vector(1),
        linalg.lincomb(F, (lam, F.one), (B.basis_vector(1), B.basis_vector(2)), B.dim),
    )
    phi = Morphism(B, B, images)
    S = petersson_twist(B, phi, name=f"B(1,2)_{F.fmt(lam)}")
    return S, phi, B


def okubo_super(field, variant):
    """Petersson twist of the split Cayley superalgebra by tau_nst or
    tau_omega; char 2.  Returns (S, phi, cb, C)."""
    if field.char != 2:
        raise WrongCharacteristic("Okubo superalgebras require characteristic 2")
    C, cb = super_split_cayley(field)
    if variant == "nst":
        phi = tau_nst(cb)
    elif variant == "omega":
        phi = tau_omega(cb)
    else:
        raise ValueError(f"unknown Okubo variant {variant!r}")
    S = petersson_twist(C, phi, name=f"okubo-{variant}")
    return S, phi, cb, C


def pseudo_octonion(field):
    """P8(F): twist of the (all-even) split Cayley algebra by tau_st."""
    C, cb = split_hurwitz(8, field)
    phi = tau_st(cb)
    return petersson_twist(C, phi, name="P8"), phi, cb, C


def peirce_decomposition(C, e1):
    """Peirce spaces of a nontrivial idempotent: U = (e1 C)e2, V = (e2 C)e1.

    U and V are the nullspaces of conditions on the multiplication
    operators L_e1, L_e2, R_e1 and R_e2.  Each operator is built once, from
    its n products with the basis (column j of L_e is e*b_j, of R_e is
    b_j*e), and both spaces read the same four matrices.
    """
    F = C.field
    one = C.unit()
    e2 = linalg.vec_sub(F, one, e1)
    n = C.dim
    basis = C.basis()

    def solve_space(conds):
        rows = []
        for mat in conds:
            rows.extend(mat)
        return linalg.nullspace(F, rows)

    def rows_of(columns):
        return list(zip(*columns))

    L1 = rows_of([C.mul(e1, b) for b in basis])
    L2 = rows_of([C.mul(e2, b) for b in basis])
    R1 = rows_of([C.mul(b, e1) for b in basis])
    R2 = rows_of([C.mul(b, e2) for b in basis])
    ident = linalg.identity_matrix(F, n)

    def minus(Mat):
        return [tuple(F.sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(Mat, ident)]

    U = solve_space([minus(L1), minus(R2), L2, R1])
    V = solve_space([minus(L2), minus(R1), L1, R2])
    return PeirceDecomposition(e1=tuple(e1), e2=tuple(e2), K=[tuple(e1), tuple(e2)], U=U, V=V)


def canonical_basis_find(C, a):
    """Canonical basis of a split Cayley algebra from a nonzero isotropic seed.

    Follows the classical procedure: pick b with q(a, conj(b)) = 1, set
    e1 = ab, build the Peirce spaces, then choose u3 with q(u1 u2, u3) = 1
    and take the dual v's.  Deterministic: the lexicographically first
    valid b and u3 are used.
    """
    F = C.field
    if C.dim != 8:
        raise ValueError(f"canonical basis search is for dimension 8, got {C.dim}")
    a = tuple(a)
    if linalg.vec_is_zero(F, a):
        raise NotIsotropic("seed must be nonzero")
    if C.eval_q0(a) != F.zero:
        raise NotIsotropic("seed must be isotropic")
    bvec = None
    for cand in linalg.all_vectors(F, C.dim):
        if C.eval_b(a, C.conj(cand)) == F.one:
            bvec = cand
            break
    if bvec is None:
        raise NotSplit("no partner with q(a, conj(b)) = 1; form is degenerate")
    e1 = C.mul(a, bvec)
    one = C.unit()
    if C.mul(e1, e1) != e1 or e1 == one or linalg.vec_is_zero(F, e1):
        raise NotSplit("seed did not produce a proper idempotent")
    pd = peirce_decomposition(C, e1)
    if len(pd.U) != 3 or len(pd.V) != 3:
        raise NotSplit("Peirce spaces do not have dimension 3")
    u1, u2 = pd.U[0], pd.U[1]
    w = C.mul(u1, u2)
    u3 = next((c for c in linalg.span_vectors(F, pd.U, C.dim) if C.eval_b(w, c) == F.one), None)
    if u3 is None:
        raise NotSplit("no u3 with q(u1 u2, u3) = 1")
    v1 = C.mul(u2, u3)
    v2 = C.mul(u3, u1)
    v3 = C.mul(u1, u2)
    cb = CanonicalBasis(
        C,
        {
            "e1": tuple(e1),
            "e2": pd.e2,
            "u1": u1,
            "u2": u2,
            "u3": u3,
            "v1": v1,
            "v2": v2,
            "v3": v3,
        },
    )
    cb.verify()
    return cb
