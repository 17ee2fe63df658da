"""Decision procedures for the defining identities.

Each identity is proved one way, by evaluation on a finite set that
determines it in every characteristic, and each check evaluates only the
cases that this proof leaves open.  The skips rest on the invariants
that `SuperAlgebra._check_invariants` enforces on every algebra:

- a product b_i b_j lies in the span of the basis vectors of parity
  |i| + |j|;
- b vanishes on even x odd, is symmetric on the even block, and skew
  and alternating on the odd block;
- b(e, e) = 2 q0(e) on the even basis.

So b(x, y) = 0 for homogeneous x, y of different parities, b(y, x) =
(-1)^{|x||y|} b(x, y) and b(x, x) = 0 for odd x, and q0 is a quadratic
form on the even part with polar form b.

T, the test set, is the even basis e_a followed by the sums e_a + e_b,
a < b, in `combinations` order.  A quadratic form Q on the even part is
fixed by its values on T, since Q(sum y_c e_c) = sum y_c^2 Q(e_c) +
sum_{c<d} y_c y_d (Q(e_c + e_d) - Q(e_c) - Q(e_d)).

Each check runs in the order of the full scan it replaces: T x T for
(i), T x basis x basis for (ii), basis^4 for (iii) and basis^3 for the
symmetric identity.  A skipped case either can never fail or fails only
when some earlier case of the scan fails too, so the verdict and the
witness are those of the full scan.  In brief:

- (i), q0(xy) = q0(x)q0(y) on the even part: every pair of T, each read
  as a coefficient of q0(xy) - q0(x)q0(y) from the structure table, so
  that no product is formed (`_norm_failure`).
- (ii), b(x0 y, x0 z) = q0(x0) b(y, z) = b(y x0, z x0): x0 in T, y and
  z odd basis vectors with y before z (`_second_failure`).
- (iii), the graded identity: basis tuples (i, j, k, l) of even total
  parity with i < k and i, k not both even (`_third_failure`).
- the symmetric identity b(xy, z) = b(x, yz): basis triples of even
  total parity (`check_symmetric`).
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


def _test_slots(S):
    """The test set T as index tuples: (a,) for e_a over the even basis,
    then (a, b) for e_a + e_b in `combinations` order."""
    ev = S.even_indices()
    return [(a,) for a in ev] + list(combinations(ev, 2))


def _slot_vector(S, X):
    """The vector of T that the slot X names, for a witness."""
    o = S.field.one
    return tuple(o if i in X else S.field.zero for i in range(S.dim))


def _slot_value(S, X):
    """q0(e_a) for the slot (a,), b(e_a, e_b) for (a, b): the factor that
    the right-hand side of each identity takes from the slot."""
    return S.q0[X[0]] if len(X) == 1 else S.polar[X[0]][X[1]]


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


def _q0_value(F, S, xs):
    """q0(x) for an even x given as a term list in index order: the sum
    of c^2 q0(b_a) over the terms and of c d b(b_a, b_b) over pairs of
    terms, which is the value eval_q0 computes from the dense vector."""
    z = F.zero
    add, mul = F.add, F.mul
    acc = z
    for t, (a, c) in enumerate(xs):
        acc = add(acc, mul(mul(c, c), S.q0[a]))
        row = S.polar[a]
        for b, d in xs[t + 1:]:
            if row[b] != z:
                acc = add(acc, mul(mul(c, d), row[b]))
    return acc


def _norm_failure(S, slots):
    """The first pair (X, Y) of slots of T, in the order of the T x T
    scan, with q0(xy) != q0(x)q0(y) for the vectors x, y they name, or
    None; the identity then holds on the whole even part.

    f(x, y) = q0(xy) - q0(x)q0(y) is a quadratic form in each argument.
    Each pair is read as a coefficient C(X, Y) of f, from products of
    basis vectors, which the structure table lists (no product is
    formed):

    - C(e_a, e_c) = q0(e_a e_c) - q0(e_a)q0(e_c), which is f(e_a, e_c);
    - C(e_a, e_c + e_d) = b(e_a e_c, e_a e_d) - q0(e_a) b(e_c, e_d), the
      polar form of f(e_a, -) at (e_c, e_d);
    - C(e_a + e_b, e_c) = b(e_a e_c, e_b e_c) - b(e_a, e_b) q0(e_c), the
      polar form of f(-, e_c) at (e_a, e_b);
    - C(e_a + e_b, e_c + e_d) = b(e_a e_c, e_b e_d) + b(e_a e_d, e_b e_c)
      - b(e_a, e_b) b(e_c, e_d), both polar forms at once.

    Claim: when f vanishes on every pair before (x, y) in the scan,
    f(x, y) = C(x, y), so the first failing pair is the scan's.  For
    x = e_a, f(e_a, -) is quadratic, and f(e_a, e_c + e_d) is f(e_a, e_c)
    + f(e_a, e_d) plus the polar form, where e_c and e_d come earlier in
    x's row.  For x = e_a + e_b, the rows of e_a and e_b came earlier and
    passed, so f(e_a, -) and f(e_b, -) vanish on T and hence everywhere.
    Expanding q0(e_a y + e_b y) and q0(e_a + e_b) then gives
    f(e_a + e_b, y) = P(y) = b(e_a y, e_b y) - b(e_a, e_b) q0(y), which
    is quadratic in y, and the step for e_a turns P(e_c + e_d) into its
    polar form.  When no pair fails, f(x, -) vanishes for every x in T,
    so for every y, f(-, y) vanishes on T, hence everywhere.
    """
    F = S.field
    mul, add = F.mul, F.add
    prod, polar = S._sparse, S.polar
    values = [_slot_value(S, X) for X in slots]
    for X, vx in zip(slots, values):
        for Y, vy in zip(slots, values):
            if len(X) == 1:
                a = X[0]
                if len(Y) == 1:
                    lhs = _q0_value(F, S, prod[a][Y[0]])
                else:
                    lhs = _polar_value(F, polar, prod[a][Y[0]], prod[a][Y[1]])
            else:
                a, b = X
                if len(Y) == 1:
                    lhs = _polar_value(F, polar, prod[a][Y[0]], prod[b][Y[0]])
                else:
                    c, d = Y
                    lhs = add(_polar_value(F, polar, prod[a][c], prod[b][d]),
                              _polar_value(F, polar, prod[a][d], prod[b][c]))
            if lhs != mul(vx, vy):
                return X, Y
    return None


def _second_failure(S, slots):
    """The first (X, j, k) of the scan over slots X of T and basis pairs
    (j, k), in that order, where identity (ii) fails, or None; called once
    (i) holds on the whole even part.  (ii) then holds for every even x0.

    For an even x0 let L(x0; j, k) = b(x0 b_j, x0 b_k) - q0(x0) b(b_j, b_k)
    and R(x0; j, k) the same with b_j x0 and b_k x0; the scan fails where
    L or R is nonzero.  Only odd j < k are read:

    - j, k of different parities: x0 b_j and x0 b_k (and b_j x0, b_k x0)
      have different parities, so L and R are 0 - 0.
    - j, k both even: g(y) = q0(x0 y) - q0(x0)q0(y) and g'(y) =
      q0(y x0) - q0(y)q0(x0) are zero, since (i) holds everywhere; L and
      R are their polar forms at (b_j, b_k), or 2 g(b_j) and 2 g'(b_j)
      for j = k, so both are 0.
    - j > k: L(x0; k, j) = (-1)^{|j||k|} L(x0; j, k) by supersymmetry,
      and the same for R, so (j, k) fails only together with (k, j),
      which the scan reaches first.
    - j = k odd: b is alternating on odd vectors, so L and R are 0 - 0.

    L and R are quadratic in x0.  For x0 = e_a + e_b, the rows of e_a
    and e_b came earlier and passed, so L and R are read as their polar
    forms in x0: b(e_a b_j, e_b b_k) + b(e_b b_j, e_a b_k) -
    b(e_a, e_b) b(b_j, b_k), and the same with the products reversed.
    Every value comes from products of basis vectors, so no product is
    formed.  When no case fails, L and R vanish on T, hence everywhere.
    """
    F = S.field
    mul, add = F.mul, F.add
    prod, polar = S._sparse, S.polar
    pairs = list(combinations(S.odd_indices(), 2))
    for X in slots:
        vx = _slot_value(S, X)
        for j, k in pairs:
            mid = mul(vx, polar[j][k])
            if len(X) == 1:
                a = X[0]
                left = _polar_value(F, polar, prod[a][j], prod[a][k])
                right = _polar_value(F, polar, prod[j][a], prod[k][a])
            else:
                a, b = X
                left = add(_polar_value(F, polar, prod[a][j], prod[b][k]),
                           _polar_value(F, polar, prod[b][j], prod[a][k]))
                right = add(_polar_value(F, polar, prod[j][a], prod[k][b]),
                            _polar_value(F, polar, prod[j][b], prod[k][a]))
            if left != mid or right != mid:
                return X, j, k
    return None


def _third_failure(S):
    """The first basis tuple (i, j, k, l), in the order of the basis^4
    scan, where identity (iii) fails, or None; called once (ii) holds for
    every even x0.

    (iii) reads D(i, j, k, l) = b(b_i b_j, b_k b_l) + s b(b_k b_j, b_i b_l)
    - t b(b_i, b_k) b(b_j, b_l) = 0, with s = (-1)^{|i||j| + |i||k| +
    |j||k|} and t = (-1)^{|j||k|}.  Only tuples of even total parity
    with i < k, and i and k not both even, are read:

    - odd total parity: each b pairs vectors of different parities, so
      all three terms are 0.
    - i > k: s is symmetric in i and k, and where b(b_i, b_k) != 0,
      |i| = |k|, b(b_k, b_i) = (-1)^{|i|} b(b_i, b_k) and s = (-1)^{|i|}.
      So D(k, j, i, l) = s D(i, j, k, l), and the scan meets the tuple
      with the smaller first index first.
    - i = k odd: s = -1 cancels the first two terms, and b(b_i, b_i) = 0.
    - i and k both even: s = t = 1, and D is the polar form at
      (b_i, b_k) of x0 -> b(x0 b_j, x0 b_l) - q0(x0) b(b_j, b_l), which
      is zero for every even x0 once (ii) holds.
    """
    F = S.field
    n = S.dim
    prod, polar, par = S._sparse, S.polar, S.parity
    by_parity = (S.even_indices(), S.odd_indices())
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                if par[i] == par[k] == 0:
                    continue
                sgn1 = (par[i] * par[j] + par[i] * par[k] + par[j] * par[k]) % 2
                sgn2 = (par[j] * par[k]) % 2
                for l in by_parity[(par[i] + par[j] + par[k]) % 2]:
                    lhs = _polar_value(F, polar, prod[i][j], prod[k][l])
                    second = _polar_value(F, polar, prod[k][j], prod[i][l])
                    if sgn1:
                        second = F.neg(second)
                    rhs = F.mul(polar[i][k], polar[j][l])
                    if sgn2:
                        rhs = F.neg(rhs)
                    if F.add(lhs, second) != rhs:
                        return i, j, k, l
    return None


def check_hurwitz(S):
    """Unit, regular superform, and q0(xy) = q0(x)q0(y) on the even part."""
    if S.unit() is None:
        return CheckReport("hurwitz", False, witness=("no unit",))
    if not is_regular_superform(S):
        return CheckReport("hurwitz", False, witness=("superform not regular",))
    slots = _test_slots(S)
    bad = _norm_failure(S, slots)
    if bad is not None:
        return CheckReport("hurwitz", False, MODE, tuple(S.fmt(_slot_vector(S, X)) for X in bad))
    return CheckReport("hurwitz", True, MODE, detail={"pairs": len(slots) ** 2})


def check_composition_super(S):
    """The three norm-compatibility identities of a composition
    superalgebra, in order: (i) on the even part, (ii) for even x0 and
    (iii); the witness names the first identity that fails and its
    first failing case (see the module docstring)."""
    if not is_regular_superform(S):
        return CheckReport("composition", False, witness=("superform not regular",))
    slots = _test_slots(S)
    bad = _norm_failure(S, slots)
    if bad is not None:
        return CheckReport(
            "composition", False, MODE, ("i",) + tuple(S.fmt(_slot_vector(S, X)) for X in bad))
    names = S.basis_names
    bad = _second_failure(S, slots)
    if bad is not None:
        X, j, k = bad
        return CheckReport(
            "composition", False, MODE, ("ii", S.fmt(_slot_vector(S, X)), names[j], names[k]))
    bad = _third_failure(S)
    if bad is not None:
        return CheckReport("composition", False, MODE, ("iii",) + tuple(names[m] for m in bad))
    return CheckReport("composition", True, MODE)


def check_symmetric(S):
    """Associativity of the bilinear form: b(xy, z) = b(x, yz) on basis
    triples, read from the polar matrix and the structure table's sparse
    terms.  A triple of odd total parity is skipped: there b_i b_j and
    b_k, and b_i and b_j b_k, have different parities, so both sides
    are 0."""
    F = S.field
    n = S.dim
    basis = [((i, F.one),) for i in range(n)]  # b_i as a term list
    prod, polar, par = S._sparse, S.polar, S.parity
    by_parity = (S.even_indices(), S.odd_indices())
    for i in range(n):
        for j in range(n):
            for k in by_parity[(par[i] + par[j]) % 2]:
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
    with C^{-g}.

    b is read through one covector b(x, -) (`SuperAlgebra.polar_row`) per
    basis vector x of a component: `linalg.mat_vec` of the vectors of C^h
    against it gives b(x, y) for every y in C^h, in order, so the first
    nonzero value is the pair a dense scan over x, then y, finds first.
    """
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
                            "orthogonality", False, witness=(str(g), str(h), A.fmt(x), A.fmt(y))
                        )
    for (g, vg), cg in zip(grading.comps, covs):
        k = grading.index.get(-g)
        vh = None if k is None else grading.comps[k][1]
        if vh is None or len(vh) != len(vg):
            return CheckReport("orthogonality", False, witness=(str(g), "missing opposite"))
        gram = [linalg.mat_vec(F, vh, cov) for cov in cg]
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
