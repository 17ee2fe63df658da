"""Decision procedures for the defining identities.

Each identity is proved one way, by evaluation on a finite set that
determines it in every characteristic:

- Norm multiplicativity, q0(xy) = q0(x)q0(y) on the even part, is
  checked on T x T, where T is the even basis plus all pairwise sums.
  A quadratic form Q is fixed by its values on T (diagonal coefficients
  from Q(b_i), cross coefficients from Q(b_i + b_j) - Q(b_i) - Q(b_j)).
  For fixed y, f(x, y) = q0(xy) - q0(x)q0(y) is a quadratic form in x,
  and for fixed x it is one in y.  So f = 0 on T x T gives f(x, .) = 0
  for every x in T, hence f(., y) vanishes on T for every y, hence f = 0.
- Identity (ii), b(x0 y, x0 z) = q0(x0) b(y, z) = b(y x0, z x0), is
  quadratic in the even x0 and bilinear in y, z: it is checked for x0
  in T and y, z in the basis.
- Identity (iii) is multilinear and is checked on basis tuples.
"""

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import linalg
from .fields import InfiniteField
from .superalgebra import is_regular_superform

MODE = "polarized"  # how the quadratic identities are proved, see above


@dataclass
class CheckReport:
    name: str
    passed: bool
    mode: str = ""
    witness: tuple = None
    detail: dict = dc_field(default_factory=dict)

    def as_dict(self):
        out = {"check": self.name, "pass": self.passed}
        if self.mode:
            out["mode"] = self.mode
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        out.update(self.detail)
        return out


def _even_test_set(S):
    """Even basis vectors and their pairwise sums."""
    F = S.field
    vecs = [S.basis_vector(i) for i in S.even_indices()]
    return vecs + [linalg.vec_add(F, a, b) for a, b in combinations(vecs, 2)]


def _norm_failure(S, pool):
    """First (x, y) in pool x pool with q0(xy) != q0(x)q0(y), or None."""
    F = S.field
    q = [S.eval_q0(y) for y in pool]
    for x, qx in zip(pool, q):
        for y, qy in zip(pool, q):
            if S.eval_q0(S.mul(x, y)) != F.mul(qx, qy):
                return x, y
    return None


def _terms(F, v):
    """The nonzero coordinates of v as (index, coefficient) pairs."""
    z = F.zero
    return tuple((a, c) for a, c in enumerate(v) if c != z)


def _polar_value(F, polar, xs, ys):
    """b(x, y) for x and y given as (index, coefficient) term lists: the
    sum of c*d*b(b_a, b_b) over the terms, which is the value eval_b
    computes from the dense vectors."""
    z = F.zero
    add, mul = F.add, F.mul
    acc = z
    for a, c in xs:
        row = polar[a]
        for b, d in ys:
            p = row[b]
            if p != z:
                acc = add(acc, mul(mul(c, d), p))
    return acc


def check_hurwitz(S):
    """Unit, regular superform, and q0(xy) = q0(x)q0(y) on the even part."""
    if S.unit() is None:
        return CheckReport("hurwitz", False, witness=("no unit",))
    if not is_regular_superform(S):
        return CheckReport("hurwitz", False, witness=("superform not regular",))
    pool = _even_test_set(S)
    bad = _norm_failure(S, pool)
    if bad is not None:
        return CheckReport("hurwitz", False, MODE, tuple(S.fmt(v) for v in bad))
    return CheckReport("hurwitz", True, MODE, detail={"pairs": len(pool) ** 2})


def check_composition_super(S):
    """The three norm-compatibility identities of a composition superalgebra.

    Identities (ii) and (iii) read b from the polar matrix and sparse term
    lists: the products x0*b_j and b_j*x0, made once per x0, in (ii), and
    the structure table's terms S._sparse[i][j] = b_i*b_j in (iii).  No
    dense eval_b runs, and the loops keep their order, so the first
    failing tuple, the witness, is the one a dense evaluation finds.
    """
    F = S.field
    if not is_regular_superform(S):
        return CheckReport("composition", False, witness=("superform not regular",))
    pool = _even_test_set(S)
    bad = _norm_failure(S, pool)
    if bad is not None:
        return CheckReport("composition", False, MODE, ("i",) + tuple(S.fmt(v) for v in bad))
    n = S.dim
    basis = S.basis()
    polar = S.polar
    for x0 in pool:
        qx = S.eval_q0(x0)
        left = [_terms(F, S.mul(x0, y)) for y in basis]
        right = [_terms(F, S.mul(y, x0)) for y in basis]
        for j in range(n):
            for k in range(n):
                mid = F.mul(qx, polar[j][k])
                if (_polar_value(F, polar, left[j], left[k]) != mid
                        or _polar_value(F, polar, right[j], right[k]) != mid):
                    return CheckReport(
                        "composition", False, MODE,
                        ("ii", S.fmt(x0), S.basis_names[j], S.basis_names[k]),
                    )
    prod = S._sparse
    par = S.parity
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    sgn1 = (par[i] * par[j] + par[i] * par[k] + par[j] * par[k]) % 2
                    sgn2 = (par[j] * par[k]) % 2
                    lhs = _polar_value(F, polar, prod[i][j], prod[k][l])
                    second = _polar_value(F, polar, prod[k][j], prod[i][l])
                    if sgn1:
                        second = F.neg(second)
                    rhs = F.mul(polar[i][k], polar[j][l])
                    if sgn2:
                        rhs = F.neg(rhs)
                    if F.add(lhs, second) != rhs:
                        return CheckReport(
                            "composition",
                            False,
                            MODE,
                            ("iii",) + tuple(S.basis_names[m] for m in (i, j, k, l)),
                        )
    return CheckReport("composition", True, MODE)


def check_symmetric(S):
    """Associativity of the bilinear form: b(xy, z) = b(x, yz) on basis
    triples, read from the polar matrix and the structure table's sparse
    terms."""
    F = S.field
    n = S.dim
    basis = [((i, F.one),) for i in range(n)]  # b_i as a term list
    prod = S._sparse
    polar = S.polar
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _polar_value(F, polar, prod[i][j], basis[k])
                rhs = _polar_value(F, polar, basis[i], prod[j][k])
                if lhs != rhs:
                    return CheckReport(
                        "symmetric",
                        False,
                        witness=tuple(S.basis_names[m] for m in (i, j, k)),
                    )
    return CheckReport("symmetric", True)


def _is_para_unit(S, e):
    F = S.field
    if S.parity_of(e) != 0 or linalg.vec_is_zero(F, e):
        return False
    if S.mul(e, e) != e:
        return False
    for i in range(S.dim):
        x = S.basis_vector(i)
        c = S.eval_b(e, x)
        want = tuple(F.sub(F.mul(c, a), b) for a, b in zip(e, x))
        if S.mul(e, x) != want or S.mul(x, e) != want:
            return False
    return True


def even_commutant(S, others):
    """Basis of {z in S_0 : z*w = w*z for every w in `others`}, in S's
    coordinates.

    The unknowns are the coefficients of z over the even basis; each w
    gives one row per coordinate of z*w - w*z, and the basis is the
    nullspace of these rows, embedded into the even coordinates.
    """
    F = S.field
    ev = S.even_indices()
    even = [S.basis_vector(i) for i in ev]
    rows = []
    for w in others:
        cols = [linalg.vec_sub(F, S.mul(x, w), S.mul(w, x)) for x in even]
        rows.extend(tuple(c[r] for c in cols) for r in range(S.dim))
    out = []
    for coeffs in linalg.nullspace(F, rows):
        z = [F.zero] * S.dim
        for i, c in zip(ev, coeffs):
            z[i] = c
        out.append(tuple(z))
    return out


def line_idempotent(S, z):
    """The nonzero idempotent of the line F*z, or None when it has none.

    Proof: (t z)*(t z) = t^2 (z*z).  If z*z = c z with c != 0, then
    t^2 c z = t z with t != 0 forces t = 1/c, so z/c is the one nonzero
    idempotent; if z*z is 0 or off the line, t^2 (z*z) = t z has no
    solution with t != 0.
    """
    F = S.field
    c = linalg.coords_in_basis(F, [z], S.mul(z, z))
    if c is None or c[0] == F.zero:
        return None
    return linalg.vec_scale(F, F.inv(c[0]), z)


def find_para_units(S):
    """All even idempotents e with e*x = x*e = b(e,x)e - x, sorted.

    Every para-unit commutes with every x, so it lies in the even
    commutant of the whole basis.  When that commutant is a line, its one
    nonzero idempotent (`line_idempotent`) is the only candidate, on every
    field.  A larger commutant is scanned vector by vector over a finite
    field; over an infinite field that raises InfiniteField.
    """
    F = S.field
    kvecs = even_commutant(S, S.basis())
    if len(kvecs) == 1:
        e = line_idempotent(S, kvecs[0])
        return [e] if e is not None and _is_para_unit(S, e) else []
    if not kvecs:
        return []
    if F.order is None:
        raise InfiniteField(
            f"para-units in a {len(kvecs)}-dimensional commutant need a finite field, got {F}")
    return sorted(e for e in linalg.span_vectors(F, kvecs, S.dim) if _is_para_unit(S, e))


def check_remark_identities(S, phi, C):
    """x.y = (1*x)*(y*1) and phi(x) = conj(x)*1 on the twist S of C by phi."""
    F = S.field
    one = C.unit()
    basis = S.basis()
    for i, x in enumerate(basis):
        lhs = phi.apply(x)
        rhs = S.mul(C.conj(x), one)
        if lhs != rhs:
            return CheckReport("remark-identities", False, witness=("phi", S.basis_names[i]))
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            lhs = C.mul(x, y)
            rhs = S.mul(S.mul(one, x), S.mul(y, one))
            if lhs != rhs:
                return CheckReport(
                    "remark-identities", False, witness=("dot", S.basis_names[i], S.basis_names[j])
                )
    return CheckReport("remark-identities", True)


def check_orthogonality(grading):
    """b(C^g, C^h) = 0 for g + h != 0, and C^g is paired nondegenerately
    with C^{-g}."""
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
                            "orthogonality", False, witness=(str(g), str(h), A.fmt(x), A.fmt(y))
                        )
    for g, vg in grading.comps:
        k = grading.index.get(-g)
        vh = None if k is None else grading.comps[k][1]
        if vh is None or len(vh) != len(vg):
            return CheckReport("orthogonality", False, witness=(str(g), "missing opposite"))
        gram = [[A.eval_b(x, y) for y in vh] for x in vg]
        if linalg.rank(F, gram) < len(gram):
            return CheckReport("orthogonality", False, witness=(str(g), "degenerate pairing"))
    return CheckReport("orthogonality", True)


def _invariance(name, grading, f):
    """Whether the linear map f sends every component into itself; the
    witness is the first basis vector whose image leaves its component."""
    A = grading.algebra
    for (g, vs), (rr, piv) in zip(grading.comps, grading.spans):
        for v in vs:
            if not linalg.in_span(A.field, rr, piv, f(v)):
                return CheckReport(name, False, witness=(str(g), A.fmt(v)))
    return CheckReport(name, True)


def check_conjugation_invariance(grading):
    """conj(C^g) = C^g for every component of a grading on a unital algebra."""
    return _invariance("conjugation-invariance", grading, grading.algebra.conj)


def check_phi_invariance(grading, phi):
    """phi(C^g) = C^g for every component."""
    return _invariance("phi-invariance", grading, phi.apply)
