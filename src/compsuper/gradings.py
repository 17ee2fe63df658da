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
    - `builder`: the `_RelationBuilder` whose pieces are the components,
      in the order of `comps`, and the one memo of their products:
      `builder.products(a, b)` gives the nonzero products x*y, x over
      component a and y over component b, x-then-y order, as a tuple,
      each ordered pair computed on its first call.  `universal_group`
      and `coarsenings_enum` read their relations off it.
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
    def builder(self):
        return _RelationBuilder(self.algebra, [vs for _, vs in self.comps])

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

    The component products come from the grading's `landing` and
    `builder`, which are kept, so a later `universal_group`,
    `coarsenings_enum` or `fine_check` of the same grading does not
    compute them again."""
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
    if len(allvecs) != A.dim or linalg.rank(F, allvecs) != A.dim:
        return False, ("components do not decompose the algebra",)
    if len(grading.index) != len(grading.comps):
        return False, ("duplicate degrees",)
    products = grading.builder.products
    for a, (gi, _) in enumerate(grading.comps):
        for b, (gj, _) in enumerate(grading.comps):
            k = grading.landing[a][b]
            for p in products(a, b):
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


class _RelationBuilder:
    """Relations of component lists whose components are sums of fixed
    pieces, for the life of one enumeration or of one grading.

    `pieces` is a list of vector lists; a component is a tuple of piece
    indices and spans the sum of those pieces.  `relations(comps)` returns
    the relations i+j=k of the components, or None.  Components are
    numbered as they are first met, and three things are memoized under
    integer keys:

    - the nonzero products of each ordered pair of pieces (a, b), under
      the pair index `a * len(pieces) + b` (`products(a, b)`);
    - the rref of each component, under its number;
    - whether the products of a piece pair lie in a component, under
      `component number * len(pieces)**2 + pair index`.

    The products of two components are the products of their piece pairs,
    so "every product lies in span(C_k)" holds iff it holds for each piece
    pair.  Whether it holds for one pair depends only on that pair's
    products and on span(C_k), and both are fixed for the builder's life,
    so the memoized answer stands for every later component list.
    """

    def __init__(self, algebra, pieces):
        self.algebra = algebra
        self.pieces = pieces
        self._npairs = len(pieces) ** 2
        self._products = {}  # pair index -> nonzero products of the piece pair
        self._comp_ids = {}  # component -> its number
        self._spans = []  # component number -> (rref rows, pivots), or None
        self._inside = {}  # component number * npairs + pair index -> bool

    def _comp_id(self, comp):
        cid = self._comp_ids.get(comp)
        if cid is None:
            cid = self._comp_ids[comp] = len(self._spans)
            self._spans.append(None)
        return cid

    def products(self, a, b):
        """The nonzero products x*y, x over piece a and y over piece b,
        x-then-y order, as a tuple; computed on the first call for the
        pair."""
        pair = a * len(self.pieces) + b
        got = self._products.get(pair)
        if got is None:
            got = tuple(_products(self.algebra, self.pieces[a], self.pieces[b]))
            self._products[pair] = got
        return got

    def _pair_products(self, ci, cj):
        """Indices of the piece pairs of ci x cj with a nonzero product."""
        np = len(self.pieces)
        return [a * np + b for a in ci for b in cj if self.products(a, b)]

    def _holds(self, pair, comp, cid):
        """Whether the products of piece pair `pair` lie in component
        `comp`, whose number is `cid`; computed on a miss of the memo that
        `relations` reads."""
        F = self.algebra.field
        span = self._spans[cid]
        if span is None:
            span = self._spans[cid] = linalg.rref(F, self.vectors(comp))
        rr, piv = span
        got = all(linalg.in_span(F, rr, piv, p) for p in self._products[pair])
        self._inside[cid * self._npairs + pair] = got
        return got

    def landing(self, a, b):
        """The first piece c whose span holds every product of pieces a
        and b, or None when those products are zero or no single piece
        holds them; read from and kept in the memo that `relations`
        reads, with c as the component (c,)."""
        pair = a * len(self.pieces) + b
        if not self._pair_products((a,), (b,)):
            return None
        for c in range(len(self.pieces)):
            cid = self._comp_id((c,))
            got = self._inside.get(cid * self._npairs + pair)
            if got is None:
                got = self._holds(pair, (c,), cid)
            if got:
                return c
        return None

    def vectors(self, comp):
        """The concatenated vectors of a component's pieces."""
        return [v for a in comp for v in self.pieces[a]]

    def relations(self, comps):
        """Relations i+j=k of the components `comps` (tuples of piece
        indices), or None if some product does not land inside a single
        component.  The rows are ordered by (i, j), and k is the first
        component holding every product of components i and j."""
        n = len(comps)
        cids = [self._comp_id(c) for c in comps]
        inside = self._inside
        npairs = self._npairs
        rels = []
        for i in range(n):
            for j in range(n):
                pairs = self._pair_products(comps[i], comps[j])
                if not pairs:
                    continue
                for k in range(n):
                    base = cids[k] * npairs
                    for pair in pairs:
                        got = inside.get(base + pair)
                        if got is None:
                            got = self._holds(pair, comps[k], cids[k])
                        if not got:
                            break
                    else:
                        rels.append(_relation_row(n, i, j, k))
                        break
                else:
                    return None
        return rels

    def distinct_gradings(self, comp_lists):
        """The gradings that the component lists of `comp_lists` separate,
        in order, each once.  A list is skipped when some product lies in
        no single component (`relations` gives None), when its group gives
        two components one degree, or when an earlier list gave a grading
        with the same components.  Lazy, so a caller's budget stops it
        after the gradings already given."""
        seen = set()
        for comps in comp_lists:
            rels = self.relations(comps)
            if rels is None:
                continue
            cand = _separating_grading(self.algebra, rels, [self.vectors(c) for c in comps])
            if cand is None:
                continue
            key = cand.component_keys()
            if key not in seen:
                seen.add(key)
                yield cand


def universal_group(grading):
    """(group, reassignment, injective): the abelian group presented by the
    support with one relation per nonzero component product."""
    n = len(grading.comps)
    rels = grading.builder.relations([(i,) for i in range(n)])
    if rels is None:
        raise NotSetGrading("component products straddle several components")
    G, proj = presentation_to_group(n, rels)
    injective = len(set(proj)) == len(proj)
    return G, proj, injective


def _separating_grading(algebra, rels, comps):
    """The components `comps` (vector lists) graded by the group that the
    relation rows `rels` present, or None when that group gives two
    components one degree."""
    G, proj = presentation_to_group(len(comps), rels)
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
    universal grading group, deduplicated by component subspaces.

    Includes the grading itself (over its universal group).  Merges whose
    decomposition is not a set grading, or whose universal group does not
    separate the merged components, are discarded.  Raises ValueError
    when the components are not independent.

    The grading's own `builder` serves every partition: a merged
    component is the tuple of its block's indices, so the products of
    each pair of original components, the rref of each block and each
    "products of a pair lie in a block" test are computed once per
    grading rather than once per partition.

    Partitions are pruned before `relations` sees them.  The landing of
    an ordered pair (a, b) of components is the single component c that
    holds every product of C_a and C_b (`_RelationBuilder.landing`; for
    a grading, `Grading.landing[a][b]`); pairs whose products are zero or
    lie in no single component have none.  Why the prune is sound: the
    components form a direct sum, so a nonzero P_ab inside C_c lies in
    span(block L) iff c is in L (if c is not in L, span(L) meets C_c only
    in 0).  `relations` needs one block that holds the products of every
    pair of original components across two merged blocks I and J.  If
    pairs (a, b) and (a2, b2) of I x J land in components that sit in
    different blocks, no block holds both products, and `relations`
    gives None.  So `_partitions` drops such a partition, and every
    partial one that already splits two such pairs, and the partitions
    left reach `relations` in their old order: the coarsenings and their
    order are those of trying every partition.
    """
    n = len(grading.comps)
    if n > 8:
        raise SupportTooLarge(f"support of size {n} exceeds 8")
    vecs = [v for _, vs in grading.comps for v in vs]
    if linalg.rank(grading.algebra.field, vecs) != len(vecs):
        raise ValueError("coarsenings_enum needs independent components")
    builder = grading.builder
    triples = []
    for a in range(n):
        for b in range(n):
            c = builder.landing(a, b)
            if c is not None:
                triples.append((a, b, c))
    partitions = _partitions(n, triples)
    return list(builder.distinct_gradings([tuple(b) for b in p] for p in partitions))


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
