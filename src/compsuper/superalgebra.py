"""Finite-dimensional superalgebras with a quadratic superform.

A SuperAlgebra stores a parity flag per basis vector, the structure
constants b_i b_j = sum_k c[i][j][k] b_k, the values q0(b_i) on the even
basis, and the full polar form b.  q0 values are stored separately from
the polar form because quadratic forms in characteristic 2 are not
determined by their polarization.
"""

from dataclasses import dataclass, field as dc_field

from . import linalg
from .fields import FieldError, field_from_string


class MixedAlgebras(ValueError):
    pass


class OddArgument(ValueError):
    pass


class NoUnit(ValueError):
    pass


class CheckFailed(ValueError):
    def __init__(self, flag, witness):
        super().__init__(f"check {flag!r} failed at {witness}")
        self.flag = flag
        self.witness = witness


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_member(obj, key, kind, where):
    """obj[key] from parsed JSON, checked to be of type `kind`; raises
    ValueError naming `where.key` when obj is not an object, lacks the key
    or holds another type there."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where}.{key} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def json_scalar(field, value, where):
    """`field.parse_elt(value)` for a scalar read from JSON; raises
    FieldError naming `where` when the value is not one of the field."""
    try:
        return field.parse_elt(value)
    except FieldError as exc:
        raise FieldError(f"{where}: {exc}") from None


class SuperAlgebra:
    """Immutable after construction; all operations are pure."""

    def __init__(self, field, parity, table, q0, polar, basis_names=None, name=""):
        self.field = field
        self.parity = tuple(parity)
        self.dim = len(self.parity)
        n = self.dim
        z = field.zero
        self.table = tuple(tuple(tuple(row) for row in trow) for trow in table)
        self.q0 = tuple(q0)
        self.polar = tuple(tuple(row) for row in polar)
        self.basis_names = tuple(basis_names) if basis_names else tuple(f"b{i}" for i in range(n))
        self.name = name
        if any(isinstance(p, bool) or p not in (0, 1) for p in self.parity):
            raise ValueError("parity flags must be 0 or 1")
        if len(self.table) != n or any(
            len(t) != n or any(len(c) != n for c in t) for t in self.table
        ):
            raise ValueError(f"structure table must be {n} x {n} x {n}")
        if len(self.q0) != n:
            raise ValueError(f"q0 needs {n} values, got {len(self.q0)}")
        if len(self.polar) != n or not all(len(row) == n for row in self.polar):
            raise ValueError(f"polar form must be {n} x {n}")
        if len(self.basis_names) != n:
            raise ValueError(f"basis needs {n} names, got {len(self.basis_names)}")
        self._even = tuple(i for i in range(n) if self.parity[i] == 0)
        self._odd = tuple(i for i in range(n) if self.parity[i] == 1)
        self._sparse = tuple(
            tuple(tuple((k, c) for k, c in enumerate(self.table[i][j]) if c != z) for j in range(n))
            for i in range(n)
        )
        self._check_invariants()
        self._unit = -1  # not computed yet

    def _check_invariants(self):
        F = self.field
        z = F.zero
        n = self.dim
        for i in range(n):
            for j in range(n):
                want = (self.parity[i] + self.parity[j]) % 2
                for k, c in self._sparse[i][j]:
                    if self.parity[k] != want:
                        raise ValueError(
                            f"product {self.basis_names[i]}*{self.basis_names[j]} violates parity"
                        )
        for i in range(n):
            for j in range(n):
                bij, bji = self.polar[i][j], self.polar[j][i]
                if self.parity[i] != self.parity[j]:
                    if bij != z:
                        raise ValueError("polar form must vanish on even x odd")
                elif self.parity[i] == 0:
                    if bij != bji:
                        raise ValueError("even block of the polar form must be symmetric")
                else:
                    if bij != F.neg(bji):
                        raise ValueError("odd block of the polar form must be skew")
                    if i == j and bij != z:
                        raise ValueError("odd block of the polar form must be alternating")
        for i in range(n):
            if self.parity[i] == 0:
                two_q = F.add(self.q0[i], self.q0[i])
                if self.polar[i][i] != two_q:
                    raise ValueError("b(x,x) must equal 2*q0(x) on the even basis")
            elif self.q0[i] != z:
                raise ValueError("q0 is only defined on the even part")

    # --- raw-tuple operations ---------------------------------------

    def zero(self):
        return (self.field.zero,) * self.dim

    def basis_vector(self, i):
        z, o = self.field.zero, self.field.one
        return tuple(o if j == i else z for j in range(self.dim))

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def even_indices(self):
        return self._even

    def odd_indices(self):
        return self._odd

    def mul(self, x, y):
        F = self.field
        z = F.zero
        add, mul = F.add, F.mul
        acc = [z] * self.dim
        sparse = self._sparse
        for i, xi in enumerate(x):
            if xi == z:
                continue
            row = sparse[i]
            for j, yj in enumerate(y):
                terms = row[j]
                if terms and yj != z:
                    c = mul(xi, yj)
                    for k, ck in terms:
                        acc[k] = add(acc[k], mul(c, ck))
        return tuple(acc)

    def mul_entries(self, xs, ys):
        """x*y, as `mul` gives it, from the nonzero entries of the two
        factors: xs lists the (i, x_i) with x_i != 0, ys the (j, y_j).

        As in `mul`, a basis pair whose product e_i e_j is 0 costs no
        scalar multiplication.  Listing the entries pays when the caller
        lists each vector's entries once and multiplies it many times, as
        the graded-map search does with its slot vectors and accepted
        images.  `mul` stays dense: its other callers mostly multiply a
        vector once, and `mul` rewritten to list both factors' entries per
        call and call this kernel made the `fineness` benchmark's wall
        time 10-15% longer."""
        F = self.field
        add, mul = F.add, F.mul
        acc = [F.zero] * self.dim
        sparse = self._sparse
        for i, xi in xs:
            row = sparse[i]
            for j, yj in ys:
                terms = row[j]
                if terms:
                    c = mul(xi, yj)
                    for k, ck in terms:
                        acc[k] = add(acc[k], mul(c, ck))
        return tuple(acc)

    def eval_b(self, x, y):
        F = self.field
        z = F.zero
        acc = z
        polar = self.polar
        for i, xi in enumerate(x):
            if xi == z:
                continue
            row = polar[i]
            for j, yj in enumerate(y):
                if yj != z and row[j] != z:
                    acc = F.add(acc, F.mul(F.mul(xi, yj), row[j]))
        return acc

    def polar_row(self, x):
        """The covector b(x, -): the tuple of b(x, e_j) over the basis, so
        that b(x, y) is the sum of its entries times y's."""
        F = self.field
        z = F.zero
        add, mul = F.add, F.mul
        acc = [z] * self.dim
        for i, xi in enumerate(x):
            if xi == z:
                continue
            for j, p in enumerate(self.polar[i]):
                if p != z:
                    acc[j] = add(acc[j], mul(xi, p))
        return tuple(acc)

    def eval_q0(self, x):
        F = self.field
        z = F.zero
        for i in self._odd:
            if x[i] != z:
                raise OddArgument("q0 is only defined on even elements")
        acc = z
        ev = self._even
        for a, i in enumerate(ev):
            xi = x[i]
            if xi == z:
                continue
            acc = F.add(acc, F.mul(F.mul(xi, xi), self.q0[i]))
            for j in ev[a + 1:]:
                xj = x[j]
                if xj != z and self.polar[i][j] != z:
                    acc = F.add(acc, F.mul(F.mul(xi, xj), self.polar[i][j]))
        return acc

    def unit(self):
        """The two-sided unit, or None."""
        if self._unit != -1:
            return self._unit
        F = self.field
        n = self.dim
        rows = []
        rhs = []
        for j in range(n):
            for k in range(n):
                rows.append(tuple(self.table[i][j][k] for i in range(n)))
                rhs.append(F.one if k == j else F.zero)
                rows.append(tuple(self.table[j][i][k] for i in range(n)))
                rhs.append(F.one if k == j else F.zero)
        self._unit = linalg.solve(F, rows, tuple(rhs))
        return self._unit

    def conj(self, x):
        """Canonical involution b(x,1)1 - x; needs a unit."""
        e = self.unit()
        if e is None:
            raise NoUnit(f"{self.name or 'algebra'} has no unit")
        c = self.eval_b(x, e)
        F = self.field
        return tuple(F.sub(F.mul(c, ei), xi) for ei, xi in zip(e, x))

    def parity_of(self, v):
        """0, 1 for parity-homogeneous nonzero v, None for mixed, 0 for zero."""
        z = self.field.zero
        has_even = any(v[i] != z for i in self._even)
        has_odd = any(v[i] != z for i in self._odd)
        if has_even and has_odd:
            return None
        return 1 if has_odd else 0

    def fmt(self, v):
        F = self.field
        terms = []
        for c, nm in zip(v, self.basis_names):
            if c == F.zero:
                continue
            terms.append(nm if c == F.one else f"({F.fmt(c)})*{nm}")
        return " + ".join(terms) if terms else "0"

    # --- serialization ----------------------------------------------

    def to_json(self):
        F = self.field
        struct = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self._sparse[i][j]:
                    struct.append([i, j, k, F.fmt(c)])
        return {
            "field": F.name,
            "dim": self.dim,
            "name": self.name,
            "basis": list(self.basis_names),
            "parity": list(self.parity),
            "structure": struct,
            "q0_values": [F.fmt(c) for c in self.q0],
            "polar": [[F.fmt(c) for c in row] for row in self.polar],
        }

    @staticmethod
    def from_json(data):
        """The algebra that `to_json` wrote.  Raises ValueError naming the
        field when `data` lacks a key or holds a value of the wrong shape."""
        F = field_from_string(json_member(data, "field", str, "algebra"))
        n = json_member(data, "dim", int, "algebra")
        parity = json_member(data, "parity", list, "algebra")
        q0 = json_member(data, "q0_values", list, "algebra")
        polar = json_member(data, "polar", list, "algebra")
        # the shapes that n fixes are checked before the n x n x n table is allocated
        if len(parity) != n or len(q0) != n:
            raise ValueError(f"algebra.dim is {n}, but algebra.parity has {len(parity)} entries "
                             f"and algebra.q0_values {len(q0)}")
        if len(polar) != n or not all(isinstance(row, list) and len(row) == n for row in polar):
            raise ValueError(f"algebra.polar must be {n} rows of {n} entries")
        z = F.zero
        table = [[[z] * n for _ in range(n)] for _ in range(n)]
        for entry in json_member(data, "structure", list, "algebra"):
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(f"structure entry {entry} must be [i, j, k, coefficient]")
            i, j, k, c = entry
            if not all(type(t) is int and 0 <= t < n for t in (i, j, k)):
                raise ValueError(f"structure entry {entry} has an index outside 0..{n - 1}")
            table[i][j][k] = json_scalar(F, c, "algebra.structure")
        names = json_member(data, "basis", list, "algebra") if "basis" in data else None
        if names is not None and not all(isinstance(nm, str) for nm in names):
            raise ValueError("algebra.basis must be a list of strings")
        return SuperAlgebra(
            F,
            parity,
            table,
            [json_scalar(F, c, "algebra.q0_values") for c in q0],
            [[json_scalar(F, c, "algebra.polar") for c in row] for row in polar],
            basis_names=names,
            name=data.get("name", ""),
        )

    def __repr__(self):
        return f"<{self.name or 'SuperAlgebra'} dim={self.dim} over {self.field.name}>"


@dataclass(frozen=True)
class Morphism:
    """Linear map recorded by the images of the source basis vectors."""

    source: SuperAlgebra
    target: SuperAlgebra
    images: tuple  # images[j] = f(b_j), a coordinate tuple in the target
    attrs: frozenset = dc_field(default_factory=frozenset)

    def apply(self, x):
        return linalg.lincomb(self.target.field, x, self.images, self.target.dim)

    def __call__(self, x):
        return self.apply(x)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise MixedAlgebras("compose needs other's target to be this map's source")
        return Morphism(other.source, self.target, tuple(self.apply(v) for v in other.images))

    def power(self, k):
        """This map composed with itself k times, the identity for k = 0;
        raises ValueError for k < 0."""
        if k < 0:
            raise ValueError(f"power needs k >= 0, got {k}")
        if self.source is not self.target:
            raise MixedAlgebras("only a map of an algebra to itself has powers")
        f = identity_morphism(self.source)
        for _ in range(k):
            f = self.compose(f)
        return f

    def is_identity(self):
        if self.source is not self.target:
            return False
        return all(self.images[j] == self.source.basis_vector(j) for j in range(self.source.dim))

    def rank(self):
        return linalg.rank(self.target.field, list(self.images))

    def with_attrs(self, *flags):
        return Morphism(self.source, self.target, self.images, self.attrs | set(flags))


def identity_morphism(A):
    return Morphism(A, A, tuple(A.basis_vector(i) for i in range(A.dim)))


KNOWN_CHECKS = ("algebra-hom", "parity-preserving", "isometry", "involution-commuting", "bijective")


def is_morphism(f, checks=KNOWN_CHECKS):
    """Verify the requested flags on all basis pairs; returns a tagged Morphism.

    Bilinearity makes basis checking sufficient for multiplicativity and
    the polar form; q0 additionally needs pairwise sums, which the
    stored q0/polar split already accounts for.

    Raises MixedAlgebras when f's algebras lie over two fields, then
    ValueError, before any check runs, when f has not `source.dim`
    images of length `target.dim` or a flag is not in KNOWN_CHECKS.
    CheckFailed names the first flag that fails and its first failing
    basis pair or vector.

    The checks read the nonzero entries (k, c) of each image, listed
    once per call.  algebra-hom compares f(e_i e_j), the sum of c f(e_k)
    over the terms of `A._sparse[i][j]`, with f(e_i) f(e_j), summed over
    pairs of entries through `B._sparse` as `B.mul_entries` sums them,
    skipping a basis pair whose product is 0 before multiplying.  The sum
    stays inline rather than calling `B.mul_entries`: it reuses the rows
    `B._sparse[a]` of f(e_i)'s entries across every j, and a call per
    pair made the algebra-hom check of the 180 graded automorphisms of
    okuboeq4/GF(4) 7-13% slower.  isometry reads b(f(e_i), f(e_j)) off the
    entries of f(e_j) and the covector b(f(e_i), -) of `B.polar_row`, the
    kernel that the graded-map search reads its target polar values from
    too.  parity-preserving asks every entry of f(e_i) to have the parity
    of e_i.  Each list is read in 2 dim products, which is where the time
    is saved.
    """
    A, B = f.source, f.target
    F = B.field
    if A.field != F:
        raise MixedAlgebras(f"a morphism needs one field, got {A.field} and {F}")
    images = f.images
    n = B.dim
    if len(images) != A.dim or any(len(v) != n for v in images):
        raise ValueError(f"a map from dimension {A.dim} to {n} needs {A.dim} images "
                         f"of length {n}, got lengths {[len(v) for v in images]}")
    for flag in checks:
        if flag not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {flag!r}")
    z, add, mul = F.zero, F.add, F.mul
    supports = [tuple((k, c) for k, c in enumerate(v) if c != z) for v in images]
    verified = []
    for flag in checks:
        if flag == "algebra-hom":
            for i in range(A.dim):
                rows = [(B._sparse[a], x) for a, x in supports[i]]
                for j in range(A.dim):
                    lhs = [z] * n  # f(e_i e_j), e_i e_j = sum of c e_k
                    for k, c in A._sparse[i][j]:
                        for m, d in supports[k]:
                            lhs[m] = add(lhs[m], mul(c, d))
                    rhs = [z] * n  # f(e_i) f(e_j)
                    for row, x in rows:
                        for b, y in supports[j]:
                            terms = row[b]
                            if terms:
                                xy = mul(x, y)
                                for m, c in terms:
                                    rhs[m] = add(rhs[m], mul(xy, c))
                    if lhs != rhs:
                        raise CheckFailed(flag, (A.basis_names[i], A.basis_names[j]))
        elif flag == "parity-preserving":
            for i in range(A.dim):
                if {B.parity[k] for k, _ in supports[i]} - {A.parity[i]}:
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "isometry":
            for i in range(A.dim):
                form = B.polar_row(images[i])  # form[b] = b(f(e_i), e_b)
                for j in range(A.dim):
                    acc = z
                    for b, y in supports[j]:
                        if form[b] != z:
                            acc = add(acc, mul(form[b], y))
                    if acc != A.polar[i][j]:
                        raise CheckFailed(flag, (A.basis_names[i], A.basis_names[j]))
            for i in A.even_indices():
                # q0 is defined on even vectors only, so an odd part fails
                if B.parity_of(images[i]) != 0 or B.eval_q0(images[i]) != A.q0[i]:
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "involution-commuting":
            for i in range(A.dim):
                lhs = f.apply(A.conj(A.basis_vector(i)))
                rhs = B.conj(f.images[i])
                if lhs != rhs:
                    raise CheckFailed(flag, (A.basis_names[i],))
        elif flag == "bijective":
            if A.dim != B.dim or f.rank() != A.dim:
                raise CheckFailed(flag, ())
        verified.append(flag)
    return f.with_attrs(*verified)


def is_regular_superform(S):
    """Regularity of (q0, b): nondegenerate odd block, and q0 regular in the
    radical sense (radical of the even polar block has dimension at most 1
    and q0 does not vanish on it)."""
    F = S.field
    ev = S.even_indices()
    od = S.odd_indices()
    if od:
        odd_block = [[S.polar[i][j] for j in od] for i in od]
        if linalg.rank(F, odd_block) < len(odd_block):
            return False
    if ev:
        even_block = [[S.polar[i][j] for j in ev] for i in ev]
        rad = linalg.nullspace(F, even_block)
        if len(rad) > 1:
            return False
        if len(rad) == 1:
            r = rad[0]
            full = [F.zero] * S.dim
            for c, i in zip(r, ev):
                full[i] = c
            if S.eval_q0(tuple(full)) == F.zero:
                return False
    return True
