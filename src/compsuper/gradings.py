"""Group gradings on superalgebras: validation, universal groups,
induced gradings, coarsenings, and the degree-triple gradings of the
canonical bases.

Component bases are stored with parity-homogeneous vectors, so
compatibility with the main grading holds by construction.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from . import linalg
from .abelian import AbGroup, AbHom, WrongGroup, presentation_to_group


class SupportTooLarge(ValueError):
    pass


class TripleNotZeroSum(ValueError):
    pass


class NotSetGrading(ValueError):
    pass


@dataclass(frozen=True)
class Grading:
    """A decomposition of `algebra` into components, each with a degree.

    Seven read-only lookups are computed on first use and kept for the
    life of the grading; validation, universal groups, coarsenings, the
    graded-map searches, `fine_check` and the grading checks in `axioms`
    read them instead of rebuilding them per call:

    - `index`: degree -> position of its component in `comps` (the last
      one, should a degree repeat; `validate` rejects repeats);
    - `spans`: per component, in the order of `comps`, its rref rows and
      pivot columns, as tuples;
    - `parities`: per component, in the order of `comps`, the parity of
      each basis vector (`parity_of`: 0, 1, or None for mixed parity), as
      tuples;
    - `mixed`: (degree, vector) of the first basis vector of mixed
      parity, or None when there is none;
    - `census`: degree -> (even dim, odd dim) of its component, read from
      `parities`, where a vector that is not even counts as odd;
    - `landing`: `landing[a][b]` is the position of the component of
      degree deg(a) + deg(b), or None when there is none;
    - `independent`: whether the basis vectors of all components are
      linearly independent;
    - `builder`: the `_RelationBuilder` whose pieces are the components,
      in the order of `comps`, with `spans` as their rref and `landing`
      as the piece each pair is expected to land in, and the one memo of
      their products: `builder.products(a, b)` gives the nonzero products
      x*y, x over component a and y over component b, x-then-y order, as
      a tuple, each ordered pair computed on its first call;
    - `table`: the builder's landing table over all components
      (`_RelationBuilder.table`), read with the expected landing first
      when the components are independent.  `validate`,
      `universal_group` and `coarsenings_enum` read it, so each pair's
      landing is proved once per grading.
    """

    algebra: object
    group: AbGroup
    comps: tuple  # ((AbElement, (vector, ...)), ...)

    def __post_init__(self):
        if not all(vs for _, vs in self.comps):
            raise ValueError("grading components must be nonzero")

    @cached_property
    def index(self):
        return MappingProxyType({d: i for i, (d, _) in enumerate(self.comps)})

    @cached_property
    def spans(self):
        F = self.algebra.field
        out = []
        for _, vs in self.comps:
            rr, piv = linalg.rref(F, vs)
            out.append((tuple(rr), tuple(piv)))
        return tuple(out)

    @cached_property
    def parities(self):
        A = self.algebra
        return tuple(tuple(A.parity_of(v) for v in vs) for _, vs in self.comps)

    @cached_property
    def mixed(self):
        return next(((d, vs[ps.index(None)]) for (d, vs), ps in zip(self.comps, self.parities)
                     if None in ps), None)

    @cached_property
    def census(self):
        out = {}
        for (d, _), ps in zip(self.comps, self.parities):
            ev = ps.count(0)
            out[d] = (ev, len(ps) - ev)
        return MappingProxyType(out)

    @cached_property
    def landing(self):
        index = self.index
        return tuple(tuple(index.get(da + db) for db, _ in self.comps) for da, _ in self.comps)

    @cached_property
    def independent(self):
        vecs = [v for _, vs in self.comps for v in vs]
        return linalg.rank(self.algebra.field, vecs) == len(vecs)

    @cached_property
    def builder(self):
        n = len(self.comps)
        hints = {a * n + b: k for a, row in enumerate(self.landing)
                 for b, k in enumerate(row) if k is not None}
        return _RelationBuilder(self.algebra, [vs for _, vs in self.comps], self.spans, hints)

    @cached_property
    def table(self):
        return self.builder.table(range(len(self.comps)), self.independent)

    def degrees(self):
        return [d for d, _ in self.comps]

    def component_keys(self):
        return frozenset(rr for rr, _ in self.spans)

    def dims(self):
        return [len(vs) for _, vs in self.comps]

    def to_json(self):
        A = self.algebra
        F = A.field
        return {
            "group": str(self.group),
            "components": [
                {
                    "degree": str(d),
                    "coords": list(d.coords),
                    "parity": [A.parity_of(v) for v in vs],
                    "basis": [[F.fmt(c) for c in v] for v in vs],
                }
                for d, vs in self.comps
            ],
        }


def grading_from_components(algebra, group, comps):
    """comps: iterable of (AbElement, [vectors]).  Zero vectors are dropped,
    then components left empty; the remaining vectors are kept as given,
    in order, as the component's basis (they are not put in echelon form)."""
    F = algebra.field
    out = []
    for deg, vs in comps:
        vs = [v for v in map(tuple, vs) if not linalg.vec_is_zero(F, v)]
        if not vs:
            continue
        out.append((deg, tuple(vs)))
    return Grading(algebra, group, tuple(out))


def grading_from_degrees(algebra, group, degree_by_index):
    """Grading whose components group the standard basis vectors by degree."""
    comps = {}
    for i, d in enumerate(degree_by_index):
        comps.setdefault(d, []).append(algebra.basis_vector(i))
    return grading_from_components(algebra, group, comps.items())


def trivial_grading(algebra):
    G = AbGroup(0, ())
    return grading_from_components(algebra, G, [(G.zero(), algebra.basis())])


def main_grading(algebra):
    """The parity decomposition as a Z2-grading."""
    G = AbGroup(0, (2,))
    ev = [algebra.basis_vector(i) for i in algebra.even_indices()]
    od = [algebra.basis_vector(i) for i in algebra.odd_indices()]
    return grading_from_components(algebra, G, [(G.element(0), ev), (G.element(1), od)])


def validate(grading):
    """Exact check of all grading invariants; returns (ok, witness).

    Once the components are known to be independent, each pair's
    landing is read off the grading's `table`, which is kept, so a later
    `universal_group`, `coarsenings_enum` or `fine_check` of the same
    grading proves no landing again.  A pair of components a, b with
    nonzero products is graded iff those products lie in the component
    k = `landing[a][b]` of degree deg(a) + deg(b).  As the components are
    independent, at most one component holds all of them, and the table
    tries k first, so its entry is k iff the pair is graded; otherwise
    the witness is the first product outside span(C_k)."""
    A = grading.algebra
    F = A.field
    allvecs = []
    for d, vs in grading.comps:
        if d.group != grading.group:
            return False, ("degree in wrong group", str(d))
        for v in vs:
            if A.parity_of(v) is None:
                return False, ("component basis vector not parity-homogeneous", str(d))
            if linalg.vec_is_zero(F, v):
                return False, ("zero basis vector", str(d))
        allvecs.extend(vs)
    if len(allvecs) != A.dim or not grading.independent:
        return False, ("components do not decompose the algebra",)
    if len(grading.index) != len(grading.comps):
        return False, ("duplicate degrees",)
    n = len(grading.comps)
    table = grading.table
    for a, (gi, _) in enumerate(grading.comps):
        for b, (gj, _) in enumerate(grading.comps):
            k = grading.landing[a][b]
            if table.get(a * n + b, k) == k:
                continue
            for p in grading.builder.products(a, b):
                if k is None or not linalg.in_span(F, *grading.spans[k], p):
                    return False, (str(gi), str(gj), A.fmt(p))
    return True, None


def _products(algebra, xs, ys):
    """The nonzero products x*y, x in xs, y in ys."""
    F = algebra.field
    out = []
    for x in xs:
        for y in ys:
            p = algebra.mul(x, y)
            if not linalg.vec_is_zero(F, p):
                out.append(p)
    return out


def _relation_row(n, i, j, k):
    """The relation i+j=k among n generators, as an integer row."""
    row = [0] * n
    row[i] += 1
    row[j] += 1
    row[k] -= 1
    return tuple(row)


STRADDLES = -1  # the landing of a piece pair whose products no single piece holds


class _RelationBuilder:
    """Relations of component lists whose components are sums of fixed
    pieces, for the life of one enumeration or of one grading.

    `pieces` is a list of vector lists, and a component is a tuple of
    piece indices spanning the sum of those pieces.  Piece pairs (a, b)
    are keyed by the pair index `a * len(pieces) + b`.  Three things are
    memoized for the builder's life:

    - the nonzero products of each ordered pair of pieces
      (`products(a, b)`);
    - the rref of each piece (`spans`, when given, holds them already);
    - whether the products of a pair lie in a piece, under
      `pair index * len(pieces) + piece`.

    Both sides of the last question are fixed, so its answer stands for
    every later table.

    The landing table (`table(ids, independent)`) maps each ordered pair
    of pieces of `ids` with nonzero products to the piece of `ids` that
    holds all of them, or to STRADDLES when none does.  It tries first
    the piece the pair is expected to land in: the one given in `hints`
    (for a grading, the component of degree deg(a) + deg(b)), later the
    one the pair last landed in.  This is sound only when the pieces of
    `ids` are independent: a nonzero product then lies in at most one of
    them, so the first piece found is the only one.  Otherwise the pieces
    are tried in the order of `ids`, and the landing is the first piece
    that holds the products.

    `relations(comps, table)` reads the relations i+j=k of a component
    list off the table.  It needs the components to be single pieces, or
    their pieces to be independent, and the table to be over their
    pieces.  Why the rows are exact.  The products of components i and j
    are those of their piece pairs, and k must be the first component
    whose span holds all of them.  For single pieces, a component is its
    piece and the table's landing is that first one (in the order of
    `ids`); a straddling pair lies in no component.  For independent
    pieces, a nonzero product inside piece c lies in span(C_k) iff c is a
    piece of C_k, since span(C_k) meets c only in 0 otherwise.  So a pair
    that lands in c is held by the component of c and by no other: two
    landing pairs in different components give None, and one component
    holds them all otherwise.  A pair that straddles lies in no single
    piece, yet may lie in the span of a component of several pieces; it
    gets the span test against that component (the only candidate when
    some pair landed), or against each component of several pieces in
    order (`_straddling`).  No component of several pieces is rref'd on
    the other paths.
    """

    def __init__(self, algebra, pieces, spans=None, hints=None):
        self.algebra = algebra
        self.pieces = pieces
        self._np = len(pieces)
        self._products = {}  # pair index -> nonzero products of the piece pair
        self._spans = list(spans) if spans is not None else [None] * len(pieces)
        self._inside = {}  # pair index * len(pieces) + piece -> bool
        self._hints = dict(hints or ())  # pair index -> piece to try first

    def products(self, a, b):
        """The nonzero products x*y, x over piece a and y over piece b,
        x-then-y order, as a tuple; computed on the first call for the
        pair."""
        pair = a * self._np + b
        got = self._products.get(pair)
        if got is None:
            got = tuple(_products(self.algebra, self.pieces[a], self.pieces[b]))
            self._products[pair] = got
        return got

    def _holds(self, pair, c):
        """Whether the products of piece pair `pair` lie in piece c."""
        key = pair * self._np + c
        got = self._inside.get(key)
        if got is None:
            F = self.algebra.field
            span = self._spans[c]
            if span is None:
                span = self._spans[c] = linalg.rref(F, self.pieces[c])
            got = True
            for p in self._products[pair]:
                if not linalg.in_span(F, *span, p):
                    got = False
                    break
            self._inside[key] = got
        return got

    def table(self, ids, independent, straddles=True):
        """The landing table over the pieces `ids`: pair index -> the
        piece of `ids` holding every product of the pair, or STRADDLES,
        for each ordered pair of pieces of `ids` with nonzero products.
        `independent` says that the pieces of `ids` are independent, so
        that the expected piece may be tried first (see the class).  With
        `straddles` false, None is returned at the first pair that
        straddles."""
        np, hints = self._np, self._hints
        members = set(ids) if independent else ()
        out = {}
        for a in ids:
            for b in ids:
                if not self.products(a, b):
                    continue
                pair = a * np + b
                c = hints.get(pair)
                if c not in members or not self._holds(pair, c):
                    c = next((c for c in ids if self._holds(pair, c)), STRADDLES)
                    if c == STRADDLES:
                        if not straddles:
                            return None
                    elif independent:
                        hints[pair] = c
                out[pair] = c
        return out

    def vectors(self, comp):
        """The concatenated vectors of a component's pieces."""
        return [v for a in comp for v in self.pieces[a]]

    def relations(self, comps, table):
        """Relations i+j=k of the components `comps` (tuples of piece
        indices, partitioning the pieces of `table`), or None if some
        product does not land inside a single component.  The rows are
        ordered by (i, j), and k is the first component holding every
        product of components i and j (see the class)."""
        n = len(comps)
        np = self._np
        where = {a: k for k, comp in enumerate(comps) for a in comp}
        rels = []
        for i, ci in enumerate(comps):
            for j, cj in enumerate(comps):
                k = None
                straddling = []
                for a in ci:
                    for b in cj:
                        c = table.get(a * np + b)
                        if c is None:
                            continue
                        if c == STRADDLES:
                            straddling.append(a * np + b)
                        elif k is None:
                            k = where[c]
                        elif where[c] != k:
                            return None
                if straddling:
                    k = self._straddling(comps, straddling, k)
                    if k is None:
                        return None
                if k is not None:
                    rels.append(_relation_row(n, i, j, k))
        return rels

    def _straddling(self, comps, pairs, k):
        """The first component of several pieces whose span holds every
        product of the straddling piece pairs `pairs`, among component k
        alone when k is not None; None when there is none."""
        F = self.algebra.field
        prods = [p for pair in pairs for p in self._products[pair]]
        for c in range(len(comps)) if k is None else (k,):
            if len(comps[c]) > 1:
                rr, piv = linalg.rref(F, self.vectors(comps[c]))
                if all(linalg.in_span(F, rr, piv, p) for p in prods):
                    return c
        return None

    def distinct_gradings(self, candidates):
        """The gradings that the candidates (component list, relations)
        of `candidates` separate, in order: a candidate is skipped when
        its relations are None (some product lies in no single
        component), or when its group gives two components one degree.
        The callers list no two candidates with the same components (see
        `enumerate_all_gradings` and `coarsenings_enum`), so the gradings
        are distinct.  Each distinct presentation is turned into a group
        once per call.  Lazy, so a caller's budget stops it after the
        gradings already given."""
        groups = {}  # (generators, rows) -> presentation_to_group, for this call
        for comps, rels in candidates:
            if rels is None:
                continue
            key = (len(comps), tuple(rels))
            if key not in groups:
                groups[key] = presentation_to_group(*key)
            cand = _separating_grading(self.algebra, *groups[key],
                                       [self.vectors(c) for c in comps])
            if cand is not None:
                yield cand


def universal_group(grading):
    """(group, reassignment, injective): the abelian group presented by the
    support with one relation per nonzero component product.

    Each component is its own piece of the grading's builder, so the
    relations are read off the grading's `table`: i+j=k, with k the
    first component that holds every product of components i and j.  On
    a grading that `validate` accepted, the table is already built and
    no product is tested again."""
    n = len(grading.comps)
    rels = grading.builder.relations([(i,) for i in range(n)], grading.table)
    if rels is None:
        raise NotSetGrading("component products straddle several components")
    G, proj = presentation_to_group(n, rels)
    injective = len(set(proj)) == len(proj)
    return G, proj, injective


def _separating_grading(algebra, G, proj, comps):
    """The components `comps` (vector lists) graded by G, component i in
    degree proj[i], or None when two components get one degree."""
    if len(set(proj)) != len(proj):
        return None
    return grading_from_components(algebra, G, list(zip(proj, comps)))


def induce(grading, hom):
    """Coarsening along a group homomorphism; equal images merge."""
    if not isinstance(hom, AbHom):
        raise ValueError(f"induce needs an AbHom, got {type(hom).__name__}")
    if hom.source != grading.group:
        raise WrongGroup(f"hom source {hom.source} is not the grading group {grading.group}")
    merged = {}
    order = []
    for d, vs in grading.comps:
        nd = hom(d)
        if nd not in merged:
            merged[nd] = []
            order.append(nd)
        merged[nd].extend(vs)
    return grading_from_components(grading.algebra, hom.target, [(d, merged[d]) for d in order])


def is_refinement(fine, coarse):
    """True when every component of `fine` sits inside a component of `coarse`."""
    if fine.algebra is not coarse.algebra:
        raise ValueError("is_refinement compares gradings of one algebra")
    F = fine.algebra.field
    for _, vs in fine.comps:
        if not any(
            all(linalg.in_span(F, rr, piv, v) for v in vs) for rr, piv in coarse.spans
        ):
            return False
    return True


def _partitions(n, triples):
    """Set partitions of range(n), as lists of blocks, in restricted-growth
    order, skipping every partition that splits a triple: a partition is
    skipped when two triples (a, b, c) and (a2, b2, c2) have a ~ a2 and
    b ~ b2 but c and c2 in different blocks.  A partial partition is
    dropped as soon as such two triples are assigned, so no completion
    of it is made.  The partitions that are kept come in the order of
    the unpruned listing."""
    due = [[] for _ in range(n)]  # item -> the triples whose last item it is
    for t in triples:
        due[max(t)].append(t)
    label = [0] * n  # item -> its block
    target = {}  # (block of a, block of b) -> block of c, for assigned triples

    def rec(i, nblocks):
        if i == n:
            blocks = [[] for _ in range(nblocks)]
            for item, lab in enumerate(label):
                blocks[lab].append(item)
            yield blocks
            return
        for lab in range(nblocks + 1):
            label[i] = lab
            added = []
            for a, b, c in due[i]:
                key = (label[a], label[b])
                if key not in target:
                    target[key] = label[c]
                    added.append(key)
                elif target[key] != label[c]:
                    break
            else:
                yield from rec(i + 1, max(nblocks, lab + 1))
            for key in added:
                del target[key]

    yield from rec(0, 0)


def coarsenings_enum(grading):
    """All coarsenings obtained by merging components, each over its
    universal grading group, each once.

    Includes the grading itself (over its universal group).  Merges whose
    decomposition is not a set grading, or whose universal group does not
    separate the merged components, are discarded.  Raises ValueError
    when the components are not independent.

    The grading's own `builder` and landing `table` serve every
    partition: a merged component is the tuple of its block's indices,
    and its relations are read off the table (`_RelationBuilder.relations`),
    so each pair of original components is multiplied and landed once
    per grading rather than once per partition.  Each distinct
    presentation is turned into a group once per call.

    No two partitions give the same coarsening, so none is checked for
    one.  The components are independent, so a nonzero component C_a lies
    in span(block L) iff a is in L: the merged subspaces determine their
    partition, and `_partitions` lists each partition once.

    Partitions are pruned before `relations` sees them.  The landing of
    an ordered pair (a, b) of components is the single component c that
    holds every product of C_a and C_b (the table's entry; for a grading,
    `Grading.landing[a][b]`); pairs whose products are zero or lie in no
    single component have none.  Why the prune is sound: the components
    form a direct sum, so a nonzero P_ab inside C_c lies in span(block L)
    iff c is in L (if c is not in L, span(L) meets C_c only in 0).
    `relations` needs one block that holds the products of every pair of
    original components across two merged blocks I and J.  If pairs
    (a, b) and (a2, b2) of I x J land in components that sit in different
    blocks, no block holds both products, and `relations` gives None.  So
    `_partitions` drops such a partition, and every partial one that
    already splits two such pairs, and the partitions left reach
    `relations` in their old order: the coarsenings and their order are
    those of trying every partition.
    """
    n = len(grading.comps)
    if n > 8:
        raise SupportTooLarge(f"support of size {n} exceeds 8")
    if not grading.independent:
        raise ValueError("coarsenings_enum needs independent components")
    builder, table = grading.builder, grading.table
    triples = [(*divmod(pair, n), c) for pair, c in table.items() if c != STRADDLES]
    merged = ([tuple(b) for b in p] for p in _partitions(n, triples))
    return list(builder.distinct_gradings((c, builder.relations(c, table)) for c in merged))


def gamma_grading_b12(algebra, G, g):
    """deg(1)=0, deg(u)=g, deg(v)=-g on the 3-dimensional superalgebra."""
    if algebra.dim != 3:
        raise ValueError(f"gamma_grading_b12 needs dimension 3, got {algebra.dim}")
    return grading_from_degrees(algebra, G, [G.zero(), g, -g])


def gamma_grading_b42(algebra, G, g):
    """deg(e_j)=0, deg(u)=g, deg(v)=-g, deg(x)=2g, deg(y)=-2g."""
    if algebra.dim != 6:
        raise ValueError(f"gamma_grading_b42 needs dimension 6, got {algebra.dim}")
    z = G.zero()
    return grading_from_degrees(algebra, G, [z, z, 2 * g, -(2 * g), g, -g])


def gamma_grading_dim8(algebra, cb, G, gamma):
    """deg(e_j)=0, deg(u_i)=g_i, deg(v_i)=-g_i for a zero-sum triple."""
    g1, g2, g3 = gamma
    if not (g1 + g2 + g3).is_zero():
        raise TripleNotZeroSum(f"{g1} + {g2} + {g3} != 0")
    z = G.zero()
    comps = {}
    for nm, d in (
        ("e1", z),
        ("e2", z),
        ("u1", g1),
        ("u2", g2),
        ("u3", g3),
        ("v1", -g1),
        ("v2", -g2),
        ("v3", -g3),
    ):
        comps.setdefault(d, []).append(cb.vectors[nm])
    return grading_from_components(algebra, G, comps.items())


def gamma_equiv(gamma, gamma2):
    """Triples are equivalent under swapping the first two entries and a
    global sign: g3' = e*g3 and g_i' = e*g_sigma(i)."""
    g1, g2, g3 = gamma
    h1, h2, h3 = gamma2
    for a, b in ((g1, g2), (g2, g1)):
        if (h1, h2, h3) == (a, b, g3):
            return True
        if (h1, h2, h3) == (-a, -b, -g3):
            return True
    return False


def zero_sum_triples(G, max_order=None):
    """All (g1, g2, g1+g2 inverted) triples, optionally capped by element order."""
    els = list(G.elements())
    canon = {g: g for g in els}  # sums resolve to the listed objects
    # elements of a finite group have nonzero order
    small = {g for g in els if max_order is None or g.order() <= max_order}
    out = []
    for g1 in els:
        if g1 not in small:
            continue
        for g2 in els:
            s = canon[g1 + g2]
            if g2 in small and s in small:
                out.append((g1, g2, -s))
    return out
