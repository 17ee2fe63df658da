"""Finitely generated abelian groups in invariant factor form.

Groups are Z^rank x Z/d1 x ... x Z/dk with d1 | d2 | ... and each di >= 2.
Element coordinates list the free part first, then each torsion part
reduced mod di.  Presented groups are canonicalized with an integer
Smith normal form that tracks its unimodular transforms.
"""

import re
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, lcm


class WrongGroup(ValueError):
    pass


class GroupNotFinite(ValueError):
    pass


def _det_int(M):
    """Exact integer determinant (fraction-free Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def smith_normal_form(M):
    """(D, U, V) with D = U*M*V diagonal, d1 | d2 | ..., U and V unimodular."""
    return _smith_form(M, True)


def _smith_form(M, track_rows):
    """(D, U, V) of `smith_normal_form`, with U None when `track_rows` is
    false: the row transform is then neither built nor updated.  Every
    step chooses its pivot and quotients from A alone, so D and V are the
    same either way."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(map(int, row)) for row in M]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track_rows else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, c):  # row_i += c * row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        if U is not None:
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for row in A:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]

    t = 0
    while True:
        # locate smallest nonzero entry in A[t:, t:]
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                row_op(i, t, -q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                col_op(j, t, -q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot divides everything below-right? if not, fold the offender in
        piv = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if A[t][t] < 0:
            row_negate(t)
        t += 1
        if t == min(m, n):
            break
    D = tuple(tuple(row) for row in A)
    if U is not None:
        U = tuple(tuple(r) for r in U)
    return D, U, tuple(tuple(r) for r in V)


def invariant_factors_by_minors(M):
    """gcd-of-minors oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = len(M)
    n = len(M[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det_int([[M[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


@dataclass(frozen=True)
class AbGroup:
    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factors must be at least 2, got {d}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {a}, {b}")

    @property
    def ngens(self):
        return self.rank + len(self.torsion)

    def is_finite(self):
        return self.rank == 0

    def normalize(self, coords):
        coords = tuple(coords)
        if len(coords) != self.ngens:
            raise ValueError(
                f"an element of {self} needs {self.ngens} coordinates, got {len(coords)}"
            )
        return self._reduce(coords)

    def _reduce(self, coords):
        """`coords`, a tuple of the right count, with each torsion
        coordinate reduced mod its factor."""
        r = self.rank
        return coords[:r] + tuple(c % d for c, d in zip(coords[r:], self.torsion))

    def element(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        return AbElement(self, self.normalize(coords))

    def zero(self):
        return self.element((0,) * self.ngens)

    def generators(self):
        n = self.ngens
        return [self.element(tuple(1 if i == j else 0 for j in range(n))) for i in range(n)]

    def elements(self):
        if not self.is_finite():
            raise GroupNotFinite(f"{self} is infinite")
        for coords in product(*[range(d) for d in self.torsion]):
            yield self.element(coords)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        i = 0
        tor = self.torsion
        while i < len(tor):
            j = i
            while j < len(tor) and tor[j] == tor[i]:
                j += 1
            cnt = j - i
            parts.append(f"Z{tor[i]}" if cnt == 1 else f"Z{tor[i]}^{cnt}")
            i = j
        return " x ".join(parts) if parts else "0"


class AbElement:
    """An element of an AbGroup, used as an immutable value.

    `AbGroup.element` is the only constructor that validates: it checks
    the coordinate count and reduces each torsion coordinate mod its
    factor.  The arithmetic checks that its operands share a group and
    then only reduces the torsion coordinates.  The hash is computed
    once, from the coordinates, so equal elements hash equal.  `-x` is
    computed on first use and kept on x, so repeated negation returns
    one object; the negative does not point back, so no reference cycle
    forms.
    """

    __slots__ = ("group", "coords", "_hash", "_neg")

    def __init__(self, group, coords):
        _set = object.__setattr__
        _set(self, "group", group)
        _set(self, "coords", coords)
        _set(self, "_hash", hash(coords))
        _set(self, "_neg", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AbElement, (self.group, self.coords)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not AbElement:
            return NotImplemented
        return self.coords == other.coords and (
            self.group is other.group or self.group == other.group)

    def __repr__(self):
        return f"AbElement(group={self.group!r}, coords={self.coords!r})"

    def _check(self, other):
        if not isinstance(other, AbElement) or (
                other.group is not self.group and other.group != self.group):
            raise WrongGroup(f"elements of {self.group} expected")

    def __add__(self, other):
        self._check(other)
        g = self.group
        return AbElement(g, g._reduce(tuple(a + b for a, b in zip(self.coords, other.coords))))

    def __sub__(self, other):
        self._check(other)
        g = self.group
        return AbElement(g, g._reduce(tuple(a - b for a, b in zip(self.coords, other.coords))))

    def __neg__(self):
        n = self._neg
        if n is None:
            g = self.group
            n = AbElement(g, g._reduce(tuple(-a for a in self.coords)))
            object.__setattr__(self, "_neg", n)
        return n

    def __rmul__(self, n):
        g = self.group
        return AbElement(g, g._reduce(tuple(n * a for a in self.coords)))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def order(self):
        """Additive order; 0 means infinite."""
        g = self.group
        if any(c != 0 for c in self.coords[: g.rank]):
            return 0
        o = 1
        for c, d in zip(self.coords[g.rank:], g.torsion):
            if c % d:
                o = lcm(o, d // gcd(c, d))
        return o

    def __str__(self):
        g = self.group
        bits = [str(c) for c in self.coords[: g.rank]]
        bits += [f"{c} mod {d}" for c, d in zip(self.coords[g.rank:], g.torsion)]
        if not bits:
            return "0"
        if len(bits) == 1:
            return bits[0]
        return "(" + ", ".join(bits) + ")"


@dataclass(frozen=True)
class AbHom:
    source: AbGroup
    target: AbGroup
    images: tuple  # image of each canonical generator of the source

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise WrongGroup(
                f"a hom needs one image per generator: {self.source.ngens}, got {len(self.images)}")
        for img in self.images:
            if img.group != self.target:
                raise WrongGroup("hom images must lie in the target group")
        r = self.source.rank
        for d, img in zip(self.source.torsion, self.images[r:]):
            if not (d * img).is_zero():
                raise WrongGroup(f"image of an order-{d} generator must have order dividing {d}")

    def __call__(self, x):
        if x.group != self.source:
            raise WrongGroup("argument lies in the wrong group")
        acc = self.target.zero()
        for c, img in zip(x.coords, self.images):
            if c:
                acc = acc + c * img
        return acc


def presentation_to_group(n_generators, relations):
    """Z^n modulo the given relation rows, canonicalized.

    Returns (group, projection) where projection[i] is the image of the
    i-th generator.  With D = U*M*V the Smith form of the relation
    matrix M, x -> x*V sends the row space of M onto that of D, so
    generator i maps to row i of V, read in the coordinates of D's
    nonunit diagonal entries.  U is never read, so the Smith form here
    neither builds nor updates it (`_smith_form`); D and V come from the
    same steps as in `smith_normal_form`.
    """
    relations = [tuple(r) for r in relations]
    for r in relations:
        if len(r) != n_generators:
            raise ValueError(
                f"relation {r} has {len(r)} coefficients for {n_generators} generators")
    if not relations:
        G = AbGroup(n_generators, ())
        return G, G.generators()
    D, _, V = _smith_form(relations, False)
    m = len(relations)
    factors = []
    for j in range(n_generators):
        factors.append(D[j][j] if j < m else 0)
    free_cols = [j for j in range(n_generators) if factors[j] == 0]
    tor_cols = [j for j in range(n_generators) if factors[j] >= 2]
    G = AbGroup(len(free_cols), tuple(factors[j] for j in tor_cols))
    proj = []
    for i in range(n_generators):
        coords = tuple(V[i][j] for j in free_cols) + tuple(V[i][j] for j in tor_cols)
        proj.append(G.element(coords))
    return G, proj


_GROUP_PART = re.compile(r"Z([0-9]*)(?:\^(-?[0-9]+))?")


def _group_parts(s):
    """(rank, [(d, k), ...]) of a group name such as "Z^2 x Z2 x Z4^3":
    its torsion parts Zd^k, read without expanding them.  A name is "0"
    or parts Z, Z^k, Zd and Zd^k, in ASCII digits, joined by " x ", as
    str(AbGroup) prints them; anything else raises ValueError."""
    rank, parts = 0, []
    for part in s.split(" x ") if s != "0" else ():
        m = _GROUP_PART.fullmatch(part)
        if m is None:
            raise ValueError(f"{part!r} is not a group part Z, Z^k, Zd or Zd^k")
        d, k = m.group(1), int(m.group(2) or 1)
        if k < 0:
            raise ValueError(f"{part!r} has a negative exponent")
        if d:
            parts.append((int(d), k))
        else:
            rank += k
    return rank, parts


def group_ngens(s):
    """The generator count of `group_from_string(s)`, read without building
    the group, whose list of invariant factors a name such as
    "Z2^100000000" makes long."""
    rank, parts = _group_parts(s)
    return rank + sum(k for _, k in parts)


def group_from_string(s):
    """Inverse of str(AbGroup) for names like "Z^2 x Z2 x Z4"."""
    rank, parts = _group_parts(s)
    return AbGroup(rank, tuple(sorted(d for d, k in parts for _ in range(k))))
