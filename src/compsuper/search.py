"""Backtracking searches over finite fields: graded isomorphisms and
automorphisms, exhaustive grading enumeration in small dimension, and
single-split fineness checks.

Proven-none and budget-exhausted are distinct outcomes: searches return
None only after exhausting the space; running out of budget raises
BudgetExhausted.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from . import linalg
from .abelian import presentation_to_group
from .gradings import _RelationBuilder, _products, _relation_row, _separating_grading, validate
from .fields import InfiniteField
from .superalgebra import CheckFailed, MixedAlgebras, Morphism, identity_morphism, is_morphism


class BudgetExhausted(RuntimeError):
    def __init__(self, nodes):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


class DimensionTooLarge(ValueError):
    pass


@dataclass
class SearchBudget:
    max_nodes: int = 2_000_000

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError(f"search budget must be positive, got {self.max_nodes}")


@dataclass
class EnumResult:
    gradings: list
    complete: bool
    nodes: int


def _parities(g):
    """The parity of each basis vector of the grading g, component by
    component, read from `g.parities`.  Raises ValueError naming the
    component when one is not parity-homogeneous (`g.mixed`): no graded
    map preserves its parity."""
    if g.mixed is not None:
        d, v = g.mixed
        raise ValueError(f"the component of degree {d} has a basis vector "
                         f"of mixed parity, {g.algebra.fmt(v)}")
    return [p for ps in g.parities for p in ps]


class _GradedMapSearch:
    """DFS for superalgebra isomorphisms mapping components onto components.

    Source basis = concatenated component bases; the image of each basis
    vector is confined to an assigned target component.  Pruning: parity,
    norm preservation, linear independence, and multiplicativity on every
    product already expressible in assigned vectors.  Products that force
    the next image are used directly instead of enumerating candidates.

    `_prepare` builds the source tables once per search, for every `run`:
    the source basis is inverted with one rref, and the inverse's columns
    write each standard basis vector in the source basis.  Each source
    product is formed by `mul_entries` from the nonzero entries of the
    two slot vectors, each vector's entries listed once, then written in
    the source basis as the `lincomb` of those columns over the product's
    nonzero entries and listed under the slot that checks it, and the
    same columns turn a solution's images into the images of the standard
    basis.  Slots are ordered by the size of their source component, then
    by parity.  Every caller assigns each component a target component of
    the same census, so this puts the smallest candidate sets first for
    every assignment.  The target rrefs are `gb.spans`.  The nonzero
    vectors of each target component are drawn on demand (`_targets`),
    from one `linalg.span_vectors` generator per component and search, so
    a search that ends early builds only the vectors it has tried.

    The source vectors never change during a search, so `consistent`
    reads their values from three more tables, in slot order: the parity
    of each slot vector, q0 of each even one, and the Gram matrix
    b(src_k, src_t) under [k][t], the covector b(src_k, -) of `polar_row`
    summed over the nonzero entries of src_t.  The last two are built
    only for an isometry search.  Each entry is the value `parity_of`,
    `eval_q0` or `eval_b` gives on the source vectors, so every check
    decides as it would on the vectors themselves.

    The target side keeps O(m n) state per depth k, set when `consistent`
    accepts images[k] and read by every deeper candidate: the nonzero
    entries (j, c) of images[k], the covector b(images[k], -) of
    `polar_row` (isometry searches only), and an echelon row, the residue
    of images[k] by the rows of depths 0..k-1 scaled to 1 at its pivot,
    its first nonzero entry.  Each product images[i] images[j] that checks
    a candidate or forces one is formed by `mul_entries` from the entries
    of depths i and j, so a basis pair with product 0 costs nothing.

    Polar check: a candidate v at slot t checks b(images[k], v) =
    src_gram[k][t], summed over v's nonzero entries, only for the k < t
    of its slot's parity.  That decides as checking b(images[k], v) and
    b(v, images[k]) for every k <= t.  `_check_invariants` makes the
    polar form of both algebras 0 on even x odd, symmetric on the even
    block, skew and alternating on the odd one, and every image has its
    slot's parity.  So b(y, x) = +-b(x, y) on vectors of one parity, with
    one sign on source and target (skew is symmetric in characteristic
    2), and both sides are 0 across parities.  On the diagonal, b(v, v) =
    2 q0(v) for even v, which the q0 check fixes, and b(v, v) = 0 for odd
    v: its diagonal terms vanish (alternating) and its cross terms cancel
    in pairs (skew).

    Rank check: v is reduced by the echelon rows of depths 0..t-1 in order
    (`linalg.reduce_mod`), and is dependent on images[0..t-1] iff the
    residue is 0.  One pass is exact because each stored row is 0 at
    every earlier pivot, so reducing by row k clears pivot k for good.
    The residue is then 0 at every pivot, while a nonzero combination of
    the rows is not (at the pivot of its first row with a nonzero
    coefficient), so it is 0 iff v lies in their span.

    `parity_of`, `eval_q0` and `in_span` are still evaluated per
    candidate, and the products per candidate from its entries.

    `run`'s `fixed` gives the candidates of the first slots: slot t <
    len(fixed) tries exactly fixed[t], each ticked and checked by
    `consistent` like any other candidate.  With `collect`, a solution
    sends the search back to the last fixed slot, which goes on with its
    next candidate: so `collect` gets the first solution under each
    candidate of that slot, and with no fixed slots every solution, one
    leaf per map (the exhaustive reference).
    """

    def __init__(self, A, ga, B, gb, budget, isometry=True):
        self.A, self.B = A, B
        self.ga, self.gb = ga, gb
        self.budget = budget
        self.isometry = isometry
        self.nodes = 0
        F = A.field
        self.F = F
        if F.order is None:
            raise InfiniteField(f"graded map search needs a finite field, got {F}")
        self.tables = self._prepare()
        self._span_vectors = {}  # target component -> (vectors drawn so far, their generator)

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExhausted(self.nodes)

    def _targets(self, ci):
        """The nonzero vectors of target component ci in the order of
        `linalg.span_vectors`, drawn from one generator per component and
        search as the caller asks for them.  Each vector drawn is kept, and
        each call walks the kept list by index before drawing more, so
        every call sees the whole sequence even while another call on the
        same component is part-way through it (two depths of one run
        share a component)."""
        memo = self._span_vectors.get(ci)
        if memo is None:
            source = linalg.span_vectors(self.F, self.gb.comps[ci][1], self.B.dim)
            memo = self._span_vectors[ci] = ([], source)
        drawn, source = memo
        k = 0
        while True:
            if k == len(drawn):
                v = next(source, None)
                if v is None:
                    return
                drawn.append(v)
            yield drawn[k]
            k += 1

    def _prepare(self):
        """(source vectors in slot order, their component indices, source
        products by depth, standard basis vectors in the source basis,
        slot parities, slot q0 values, source Gram matrix).

        Raises ValueError naming the component when a source basis vector
        is not parity-homogeneous (`_parities`)."""
        A, F = self.A, self.F
        src_parity = _parities(self.ga)
        src_vecs = [v for _, vs in self.ga.comps for v in vs]
        src_comp = [ci for ci, (_, vs) in enumerate(self.ga.comps) for _ in vs]
        sizes = self.ga.dims()
        order = sorted(range(len(src_vecs)), key=lambda t: (sizes[src_comp[t]], src_parity[t], t))
        src_vecs = [src_vecs[t] for t in order]
        src_comp = [src_comp[t] for t in order]
        src_parity = [src_parity[t] for t in order]
        # products of source vectors expanded in the source-vector basis,
        # listed (in (i, j) order) under their depth: the largest index of
        # a source vector they involve, the slot at which they are checked
        m = len(src_vecs)
        # the inverse's columns: each standard basis vector in the source basis
        std_coords = tuple(zip(*linalg.basis_inverse(F, src_vecs)))
        by_depth = [[] for _ in range(m)]
        z, add, mul = F.zero, F.add, F.mul
        entries = [[(k, c) for k, c in enumerate(v) if c != z] for v in src_vecs]
        for i in range(m):
            for j in range(m):
                coeffs = linalg.lincomb(F, A.mul_entries(entries[i], entries[j]), std_coords, m)
                support = [k for k, c in enumerate(coeffs) if c != z]
                by_depth[max([i, j] + support)].append((i, j, coeffs, support))
        src_q0 = src_gram = None
        if self.isometry:
            # q0 of the even slots (None on the odd ones), and b(src_k, src_t)
            # under [k][t]: the covector b(src_k, -) summed over src_t's entries
            src_q0 = [A.eval_q0(v) if p == 0 else None for v, p in zip(src_vecs, src_parity)]
            src_gram = []
            for v in src_vecs:
                cov, row = A.polar_row(v), []
                for es in entries:
                    acc = z
                    for j, c in es:
                        acc = add(acc, mul(cov[j], c))
                    row.append(acc)
                src_gram.append(tuple(row))
        return src_vecs, src_comp, by_depth, std_coords, src_parity, src_q0, src_gram

    def run(self, comp_target, collect=None, fixed=()):
        """Search with a fixed component assignment; returns a Morphism or None.

        comp_target: index of the target component for each source
        component, whose census must match.  fixed: the candidates of the
        first len(fixed) slots, one iterable per slot, walked once.  With
        collect (a list), solutions are appended and None returned: the
        first under each candidate of the last fixed slot, or every
        solution when nothing is fixed.
        """
        A, B, F = self.A, self.B, self.F
        src_vecs, src_comp, by_depth, std_coords, src_parity, src_q0, src_gram = self.tables
        tgt_spans = self.gb.spans
        m = len(src_vecs)
        n = B.dim
        images = [None] * m
        # per depth k, set when images[k] is accepted: its nonzero entries
        # (j, c), b(images[k], -), and images[k] reduced by the rows of
        # depths 0..k-1, 1 at its pivot
        ents, covs, echelon, pivots = [None] * m, [None] * m, [None] * m, [None] * m
        z, add, mul = F.zero, F.add, F.mul
        last = len(fixed) - 1 if fixed else m - 1  # a collected solution backs up to here

        def candidates(t):
            if t < len(fixed):
                return fixed[t]
            # a product of two assigned vectors may force the image
            for i, j, coeffs, support in by_depth[t]:
                if i == t or j == t or coeffs[t] == z:
                    continue
                lhs = B.mul_entries(ents[i], ents[j])
                rest = [k for k in support if k != t]
                known = linalg.lincomb(F, [coeffs[k] for k in rest], [images[k] for k in rest], n)
                return [linalg.vec_scale(F, F.inv(coeffs[t]), linalg.vec_sub(F, lhs, known))]
            return self._targets(comp_target[src_comp[t]])

        def consistent(t):
            v = images[t]
            parity = src_parity[t]
            entries = [(j, c) for j, c in enumerate(v) if c != z]
            if parity != B.parity_of(v) or not entries:
                return False
            rr, piv = tgt_spans[comp_target[src_comp[t]]]
            if not linalg.in_span(F, rr, piv, v):
                return False
            if self.isometry:
                if parity == 0 and B.eval_q0(v) != src_q0[t]:
                    return False
                for k in range(t):
                    if src_parity[k] != parity:
                        continue
                    row, acc = covs[k], z
                    for j, c in entries:
                        acc = add(acc, mul(row[j], c))
                    if acc != src_gram[k][t]:
                        return False
            residue = linalg.reduce_mod(F, echelon[:t], pivots[:t], v)
            pivot = next((j for j, c in enumerate(residue) if c != z), None)
            if pivot is None:
                return False
            ents[t] = entries
            for i, j, coeffs, _ in by_depth[t]:
                if B.mul_entries(ents[i], ents[j]) != linalg.lincomb(F, coeffs, images, n):
                    return False
            if self.isometry:
                covs[t] = B.polar_row(v)
            echelon[t] = linalg.vec_scale(F, F.inv(residue[pivot]), residue)
            pivots[t] = pivot
            return True

        def dfs(t):
            if t == m:
                imgs = tuple(linalg.lincomb(F, coeffs, images, n) for coeffs in std_coords)
                f = _checked_map(Morphism(A, B, imgs), self.isometry)
                if f is not None and collect is not None:
                    collect.append(f)
                return f
            for cand in candidates(t):
                self._tick()
                images[t] = cand
                if consistent(t):
                    got = dfs(t + 1)
                    if got is not None and (collect is None or t > last):
                        return got
                images[t] = None
            return None

        return dfs(0)


def _checked_map(f, isometry):
    """f tagged as a bijective, parity-preserving algebra map (and an
    isometry when asked), or None when a check fails."""
    checks = ("algebra-hom", "parity-preserving", "bijective") + (("isometry",) if isometry else ())
    try:
        return is_morphism(f, checks)
    except CheckFailed:
        return None


def _degree_preserving(f, ga, gb):
    """True when f sends every component of ga into the component of gb of
    the same degree, which must have the same dimension."""
    F = f.target.field
    for d, vs in ga.comps:
        k = gb.index.get(d)
        if k is None or len(vs) != len(gb.comps[k][1]):
            return False
        rr, piv = gb.spans[k]
        for v in vs:
            if not linalg.in_span(F, rr, piv, f.apply(v)):
                return False
    return True


def try_verify_graded(f, ga, gb, isometry=True):
    """Verify a candidate map as a degree-preserving graded isomorphism;
    returns the tagged Morphism or None.

    The checks run in order of cost.  First the gradings must belong to
    f's source and target (ValueError otherwise) and the two algebras to
    one field (MixedAlgebras otherwise, as `is_morphism` raises).  Then
    the degree test (`_degree_preserving`: one `apply` and one `in_span`
    per component vector), and only if it passes `_checked_map`, the
    algebra-map, parity, bijectivity and isometry checks of
    `is_morphism`.  Neither test has side effects and each only says yes
    or no, so the answer is the one either order gives: None when one of
    them fails, the tagged map when both pass.  A map that moves degrees,
    such as the identity between two gradings of one algebra, is
    rejected without a call to `is_morphism`.
    """
    if ga.algebra is not f.source or gb.algebra is not f.target:
        raise ValueError("try_verify_graded needs gradings of the map's source and target")
    if f.source.field != f.target.field:
        raise MixedAlgebras(f"a morphism needs one field, got {f.source.field} and {f.target.field}")
    if not _degree_preserving(f, ga, gb):
        return None
    return _checked_map(f, isometry)


def find_graded_map(A, ga, B, gb, mode="isomorphism", budget=None, isometry=True):
    """Graded superalgebra isomorphism between (A, ga) and (B, gb).

    mode "isomorphism": degree-preserving (same ambient group required).
    mode "equivalence": components map onto components, degrees free.
    Returns a verified Morphism, or None when the search space is
    exhausted (proven none).  Raises BudgetExhausted when the node budget
    runs out, and ValueError, before any other answer, when ga does not
    grade A or gb does not grade B, on an unknown mode, when A and B lie
    over different fields, or, in both modes, when a basis vector of ga or
    gb has mixed parity (`_parities`).  That check reads each grading's
    cached `mixed`, so the census test that settles most pairs stays as
    cheap as without it.  Then in isomorphism mode with A is B the
    identity is tried before any search, so a grading the identity
    verifies needs no finite field.  Only assignments between components
    of one census are searched, all of them by one `_GradedMapSearch`.
    """
    if ga.algebra is not A or gb.algebra is not B:
        raise ValueError("find_graded_map needs a grading of A and a grading of B")
    if mode not in ("isomorphism", "equivalence"):
        raise ValueError(f"unknown mode {mode!r}")
    if A.field != B.field:
        raise ValueError(f"graded maps need one field, got {A.field} and {B.field}")
    if ga.mixed or gb.mixed:
        _parities(ga)
        _parities(gb)
    if A.dim != B.dim:
        return None
    budget = budget or SearchBudget()
    ca, cb = ga.census, gb.census
    if mode == "isomorphism":
        if ca != cb:
            return None
        comp_target = [gb.index[d] for d, _ in ga.comps]  # equal censuses: equal degrees
        if A is B:
            ident = try_verify_graded(identity_morphism(A), ga, gb, isometry=isometry)
            if ident is not None:
                return ident
        return _GradedMapSearch(A, ga, B, gb, budget, isometry=isometry).run(comp_target)
    if sorted(ca.values()) != sorted(cb.values()):
        return None
    search = _GradedMapSearch(A, ga, B, gb, budget, isometry=isometry)
    for perm in permutations(range(len(gb.comps))):
        if any(ca[d] != cb[gb.comps[k][0]] for (d, _), k in zip(ga.comps, perm)):
            continue
        got = search.run(list(perm))
        if got is not None:
            return got
    return None


def enumerate_automorphisms(S, constraints, budget=None):
    """The graded isometric superalgebra automorphisms of S under the
    grading `constraints`, sorted by their images; `trivial_grading(S)`
    gives every isometric automorphism.  Raises ValueError when
    `constraints` grades another algebra, or naming the component when a
    basis vector of `constraints` is not parity-homogeneous.

    The group G is built from its stabilizer chain, by one
    `_GradedMapSearch` and one `run` per slot instead of one search leaf
    per automorphism.

    Let v_0..v_{m-1} be the search's slot vectors and G_t the elements of G
    that fix v_0..v_{t-1}, so G_0 = G and G_m = {id}.  For t = m-1 down to
    0, one run fixes slots 0..t-1 to v_0..v_{t-1}, so it ticks and checks
    that prefix once, and gives slot t the candidates c != v_t of its
    component in the search's order.  The run collects r_c, the first
    solution whose slot t holds c, and then goes on with the next
    candidate; a c that no solution extends gets no r_c.  With r_{v_t} =
    id, G_t is the disjoint union of the cosets r_c G_{t+1}.  Proof: r_c
    G_{t+1} lies in G_t and sends v_t to c, so the cosets are disjoint;
    and any g in G_t with g(v_t) = c agrees with r_c on v_0..v_t, so r_c^-1
    g fixes v_0..v_t and g lies in r_c G_{t+1}.  Which element of the coset
    the run finds first does not matter, so one run per slot gives the
    same cosets as one run per candidate.  A slot that a product of
    earlier slots forces has the single candidate v_t, so it leaves the
    group unchanged and costs no run.

    Each returned map is verified exactly once.  The identity goes through
    `try_verify_graded`.  A coset representative r_c has passed
    `_checked_map` at its search leaf, so it only takes the degree test
    (`_degree_preserving`) on top.  Every other element is a composite
    r_c h with h != id in G_{t+1}, and goes through `try_verify_graded`.
    So `is_morphism` runs |G| times, and no map is taken on the strength
    of the coset argument alone.
    """
    if constraints.algebra is not S:
        raise ValueError("enumerate_automorphisms needs a grading of S")
    budget = budget or SearchBudget()
    F = S.field
    if F.order is None:
        raise InfiniteField(f"automorphism search needs a finite field, got {F}")
    g = constraints

    def verified(f):
        f = try_verify_graded(f, g, g)
        if f is None:
            raise RuntimeError("a graded automorphism failed verification")
        return f

    search = _GradedMapSearch(S, g, S, g, budget)
    comp_target = [g.index[d] for d, _ in g.comps]
    slots, slot_comp, by_depth, *_ = search.tables
    z = F.zero
    group = [verified(identity_morphism(S))]  # G_m
    for t in reversed(range(len(slots))):
        if any(i != t and j != t and coeffs[t] != z for i, j, coeffs, _ in by_depth[t]):
            continue  # forced slot
        cands = (c for c in search._targets(comp_target[slot_comp[t]]) if c != slots[t])
        reps = []
        search.run(comp_target, collect=reps, fixed=tuple((v,) for v in slots[:t]) + (cands,))
        if not all(_degree_preserving(r, g, g) for r in reps):
            raise RuntimeError("a coset representative moved a degree")
        # G_t: G_{t+1} (c = v_t) and the cosets r_c G_{t+1}, as r_c after h
        group += reps + [verified(r.compose(h)) for r in reps for h in group[1:]]
    return sorted(group, key=lambda f: tuple(f.images))


class _BlockLines:
    """The subspaces of a block as line masks, with no rank computation.

    `keys` are the span keys of every subspace of the block, smallest
    dimension first, so the lines are the subspaces 0..nl-1 and their
    indices are their ids.  A subspace of dimension k is held as (k, x):
    x is the line's id when k is 1, the int whose bit l is set iff line l
    lies in it when 2 <= k < d, and -1, whose every bit is set, for the
    whole block when d >= 2.  Masks are made by folding one line at a
    time (`fold`); `_decompositions_of_block` says why the fold, the line
    products and the tests are right.
    """

    OUT = -1  # the line of a product outside the block

    def __init__(self, S, keys, index):
        self.S = S
        self.keys = keys
        self.index = index  # span key -> subspace; (row,) is a line
        self.d = len(keys[-1])
        self.nl = next((t for t, key in enumerate(keys) if len(key) > 1), len(keys))
        self.planes = {}  # m * nl + l, m < l -> lines of the plane of lines m and l
        self.masks = {}  # subspace of dimension 2 or more -> its lines
        self.line_products = {}  # x * nl + y -> line of x*y, None when zero, or OUT
        self.products = {}  # a * ns + b, a or b not a line -> (dim, lines) of P_ab, or None

    def line_of(self, v):
        """The line of the nonzero vector v, OUT when it is not in the block."""
        F = self.S.field
        c = next(c for c in v if c != F.zero)
        if c != F.one:
            v = F.scaled(F.inv(c), v)
        return self.index.get((tuple(v),), self.OUT)

    def rows(self, t):
        """The lines of the rref rows of subspace t."""
        index = self.index
        return [index[(row,)] for row in self.keys[t]]

    def plane(self, m, l):
        """The lines of the plane of the distinct lines m and l."""
        if m > l:
            m, l = l, m
        key = m * self.nl + l
        got = self.planes.get(key)
        if got is None:
            F = self.S.field
            u, w = self.keys[m][0], self.keys[l][0]
            got = 1 << m | 1 << l
            for c in F.elements():
                if c != F.zero:
                    got |= 1 << self.line_of(F.add_scaled(u, c, w))
            self.planes[key] = got
        return got

    def fold(self, k, x, l):
        """(k + 1, lines of W + l) for W = (k, x) and a line l outside W."""
        if k == 0:
            return 1, l
        if k + 1 == self.d:
            return self.d, -1
        if k == 1:
            return 2, self.plane(x, l)
        get, plane, nl = self.planes.get, self.plane, self.nl
        out = 0
        while x:
            low = x & -x
            m = low.bit_length() - 1
            x ^= low
            out |= get(m * nl + l if m < l else l * nl + m) or plane(m, l)
        return k + 1, out

    def lines(self, t):
        """The x of subspace t: its id for a line, else its mask."""
        if t < self.nl:
            return t
        got = self.masks.get(t)
        if got is None:
            got = self.masks[t] = self.direct_sum(0, 0, t)[1]
        return got

    def direct_sum(self, k, x, t):
        """(dim, lines) of W + t for W = (k, x) meeting subspace t in 0."""
        if k and k + len(self.keys[t]) == self.d:
            return self.d, -1
        for l in self.rows(t):
            k, x = self.fold(k, x, l)
        return k, x

    @staticmethod
    def has(k, x, l):
        """Whether line l lies in the subspace (k, x)."""
        return x == l if k == 1 else x >> l & 1

    def meets(self, k, x, kc, c):
        """Whether the nonzero subspaces (k, x) and (kc, c) meet beyond 0."""
        if k + kc > self.d:
            return True
        if k == 1:
            return self.has(kc, c, x)
        return self.has(k, x, c) if kc == 1 else x & c

    def inside(self, k, x, c):
        """Whether the nonzero subspace (k, x) lies in subspace c."""
        kc = len(self.keys[c])
        if k > kc:
            return False
        if kc == self.d:
            return True
        if kc == 1:
            return x == c
        m = self.lines(c)
        return m >> x & 1 if k == 1 else x & m == x

    def line_product(self, x, y):
        """The line of x*y for lines x and y, None when it is zero, or OUT."""
        key = x * self.nl + y
        got = self.line_products.get(key, False)
        if got is False:
            keys = self.keys
            v = self.S.mul(keys[x][0], keys[y][0])
            got = None if linalg.vec_is_zero(self.S.field, v) else self.line_of(v)
            self.line_products[key] = got
        return got

    def product(self, a, b):
        """(dim, lines) of P_ab, None when it is zero or not in the block."""
        nl = self.nl
        if a < nl and b < nl:
            p = self.line_product(a, b)
            return None if p is None or p == self.OUT else (1, p)
        key = a * len(self.keys) + b
        got = self.products.get(key, False)
        if got is False:
            k = x = 0
            for u in self.rows(a):
                for w in self.rows(b):
                    p = self.line_product(u, w)
                    if p == self.OUT:
                        self.products[key] = None
                        return None
                    if p is not None and not self.has(k, x, p):
                        k, x = self.fold(k, x, p)
            got = self.products[key] = (k, x) if k else None
        return got


def _decompositions_of_block(S, block_basis, tick):
    """The closed unordered direct-sum decompositions of span(block_basis),
    the even or the odd part of S.  A decomposition is closed when, for
    every ordered pair of its pieces (a, b), the product space
    P_ab = span(a*b) meets the block only in 0 or lies inside one piece.
    `tick()` is called once per subspace of the block as it is listed,
    before its span key is computed, and once per piece pushed onto the
    search stack, before its closure test, so the caller's budget bounds
    the whole listing.

    Why only closed decompositions matter, and why the prune is sound.  A
    candidate that `_RelationBuilder.relations` accepts has components
    e + o, one even and one odd piece (either may be absent), and sends
    the products of each pair of components into one component.  Even x
    even products are even, so for even pieces a and b, P_ab lies in the
    even part of one component, which is its even piece.  So every even
    decomposition that is not closed gets None from `relations` for every
    odd decomposition and every matching.  Now let the chosen pieces of a
    partial decomposition span V.  A piece added later meets V only in 0,
    so a nonzero P_ab that meets V nontrivially must lie in a chosen
    piece; if it lies in none, no completion is closed, and the branch is
    pruned.  The rule holds in either block.  In the odd block it never
    fires, because odd x odd products are even and meet V only in 0, so
    every odd decomposition is listed.  There every P_ab would be zero or
    outside the block, which the test skips as zero, so no product is
    formed and the test passes at once: the same pushes, ticks and
    listing, with no `mul`.

    The subspace questions are answered with line masks (`_BlockLines`).
    Every line of the block is a listed 1-dimensional subspace, and its
    index is the line's id; a subspace of dimension 2 or more is held as
    the int whose bit l is set iff line l lies in it.  Two subspaces meet
    only in 0 iff they share no line.  A lone line is held by its id and
    never as a mask: a line is tested by its bit in the other operand
    (`m >> l & 1`), and masks are built only for subspaces of dimension
    2 or more, when first touched.  A mask has about one bit per line
    of the block, so a mask kept for each line touched would cost memory
    growing with the field order per line.  The whole block is held as
    -1, whose every bit is set.  Masks are made by folding one line at a time: for a
    line l outside a nonzero subspace W,

        lines(W + l) = lines(W) | {l} | the union over m in W of
                       lines(plane(m, l)),

    since a vector of W + l is w + c*l with w in W: it lies on l when
    w = 0 and in the plane of l and the line of w otherwise, and both
    sides lie in W + l.  A plane is made once, from the lines m, l and
    m + c*l for c in F*, and memoized under its pair of lines.  A fold
    that reaches dimension d gives the whole block with no plane.  So:
    - a piece t is independent of the span V of the chosen pieces iff
      they share no line, and then V + t is V folded with the lines of
      the rref rows of t (a rref row has its leading entry 1, so it is
      its line's rref basis), one at a time: V and t meet only in 0, so
      each row lies outside what has been folded so far.  When dim V +
      dim t = d, V + t is the whole block, with no fold;
    - P_ab is, by bilinearity, the span of the products x*y of the rref
      rows x of a and y of b.  Each product of two lines is one `mul`,
      memoized under the pair of lines.  It is zero, a line of the
      block, or outside the block; then P_ab is not in the block and is
      skipped, as when it is zero.  The product lines are folded like a
      sum (a line already in the fold is passed over), and each P_ab
      with a piece of dimension 2 or more is memoized under the pair;
    - P_ab lies in piece c iff dim P_ab <= dim c and its lines lie in c;
    - P_ab meets V iff dim P_ab + dim V exceeds d or they share a line.

    So the listing's span keys are its only rank computations.

    The closure test is incremental.  Each search frame keeps the open
    products of its chosen pieces C: the P_ab, a and b in C, that are
    nonzero, in the block and meet their span V only in 0.  Every other
    nonzero P_ab in the block lies in a piece of C, or the frame would
    have been pruned.  Push t, and let V' = V + t and C' = C + {t}.  The
    full scan of C' x C' fails iff some nonzero P_ab in the block lies in
    no piece of C' and meets V'.  A P_ab that lies in a piece of C never
    fails.  An open one lies in no piece of C, so it lies in a piece of
    C' iff it lies in t.  The push drops it if it lies in t, fails if it
    meets V' otherwise, and keeps it open if it does not meet V' (then it
    cannot lie in t, which is inside V').  Only the pairs that involve t
    are new, and each gets the full test: the push fails if it meets V'
    and lies in no piece of C', and keeps it open if it does not meet V'
    (then it lies in no piece of C').  So a push reaches the full scan's
    verdict, and the open products of C' are those it keeps.

    A push that leaves V of dimension d - 1 is followed by the lines that
    complete it (`last_lines`): the candidates left have dimension at
    most 1, and are pushed in the search order as the frame would push
    them (lines come last in it, by id), with one tick each.  Each open product meets the whole block,
    so it must lie in the line pushed, that is, be that line; so the
    open products allow one line at most, found once for all candidates,
    and the new pairs of each allowed line get the full test.

    The search tries pieces largest first, which fills V early so that
    the rule fires sooner, and picks each set of pieces once, in
    increasing search position.

    The survivors are sorted back into the order of the unpruned listing:
    subspaces are indexed by dimension, smallest first, a decomposition
    lists its pieces in increasing order of their span keys, and
    decompositions are sorted lexicographically by their piece indices.
    """
    F = S.field
    d = len(block_basis)
    if d == 0:
        return [()]
    subspaces = []
    for k in range(1, d + 1):
        for sub in linalg.subspaces_of_span(F, block_basis, k):
            tick()
            subspaces.append(sub)
    keys = [linalg.span_key(F, s) for s in subspaces]
    ns = len(subspaces)
    order = sorted(range(ns), key=lambda t: -len(subspaces[t]))  # search position -> subspace
    # first search position of a subspace of dimension <= k, for k = 0..d
    first = [next((p for p, t in enumerate(order) if len(subspaces[t]) <= k), ns)
             for k in range(d + 1)]
    block = _BlockLines(S, keys, {key: t for t, key in enumerate(keys)})
    odd = S.parity_of(block_basis[0]) == 1
    lines, product, direct_sum = block.lines, block.product, block.direct_sum
    has, meets, inside = block.has, block.meets, block.inside

    def new_products(t):
        """P_at and P_ta for each piece a of `chosen`, t the last one;
        none in the odd block, where they all lie outside it."""
        if odd:
            return
        for a in chosen:
            yield product(a, t)
            if a != t:
                yield product(t, a)

    def covered(k, x):
        return any(inside(k, x, c) for c in chosen)

    def closed(open_products, t, kv, xv):
        """The open products after t, the last of `chosen`, was pushed and
        made the span (kv, xv); None when the push breaks closure."""
        kept = []
        for P in open_products:
            if meets(*P, kv, xv):
                if not inside(*P, t):
                    return None
            else:
                kept.append(P)
        for P in new_products(t):
            if P is not None:
                if meets(*P, kv, xv):
                    if not covered(*P):
                        return None
                else:
                    kept.append(P)
        return kept

    def last_lines(open_products, xv, start):
        """Push, in search order, each line from search position `start`
        on that completes the span (d - 1, xv) of `chosen`, and keep the
        closed decompositions: each open product must be the line pushed."""
        need = None
        for k, x in open_products:
            if k > 1 or need not in (None, x):
                need = -1  # no line
                break
            need = x
        for t in range(start - (ns - block.nl), block.nl):
            if has(d - 1, xv, t):
                continue
            tick()
            if need is not None and t != need:
                continue
            chosen.append(t)
            if all(P is None or covered(*P) for P in new_products(t)):
                out.append(sorted(chosen, key=keys.__getitem__))
            chosen.pop()

    out = []
    chosen = []  # subspace indices of the current partial decomposition
    # per depth: [dim and lines of the chosen sum, next search position, open products]
    stack = [[0, 0, 0, []]]
    while stack:
        frame = stack[-1]
        k, x, p, open_products = frame
        if p == ns:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[2] = p + 1
        t = order[p]
        if not k:
            kv, xv = len(keys[t]), lines(t)
        elif k + len(keys[t]) > d or meets(len(keys[t]), lines(t), k, x):
            continue
        else:
            kv, xv = direct_sum(k, x, t)
        tick()
        chosen.append(t)
        got = closed(open_products, t, kv, xv)
        if got is None:
            chosen.pop()
        elif kv == d:
            out.append(sorted(chosen, key=keys.__getitem__))
            chosen.pop()
        elif kv == d - 1:
            last_lines(got, xv, max(p + 1, first[1]))
            chosen.pop()
        else:
            stack.append([kv, xv, max(p + 1, first[d - kv]), got])
    out.sort()
    return [tuple(subspaces[t] for t in dec) for dec in out]


def _partial_matchings(na, nb):
    """All partial injections {0..na-1} -> {0..nb-1} as dicts."""
    out = []
    for k in range(min(na, nb) + 1):
        for rows in combinations(range(na), k):
            for cols in permutations(range(nb), k):
                out.append(dict(zip(rows, cols)))
    return out


def enumerate_all_gradings(S, budget=None):
    """Every grading of S over its universal group, for dim(S) <= 4.

    Lists the closed decompositions of the even and of the odd block
    (`_decompositions_of_block`, which also gives the closure rule and
    its proof), joins them into parity-split candidates, and keeps the
    valid set gradings whose universal group separates components.
    Every candidate built from an even decomposition that is not closed
    gets None from `relations`, so listing only closed ones returns the
    same gradings in the same order as the Cartesian product of all
    decompositions.  The result is complete unless the budget is
    exhausted.

    `nodes` counts the subspaces listed and the pieces pushed by both
    block listings plus the candidates tried, and each one is charged to
    the budget, so the budget bounds the listing as well as the candidate
    loop.

    The subspaces of the even and odd decompositions are the pieces of one
    `_RelationBuilder` per call, and a candidate component is (even
    piece,), (even piece, matched odd piece) or (odd piece,).  So the
    products of each pair of pieces and each "products of a pair lie in a
    piece" test are computed once per call rather than once per
    candidate, and each distinct presentation is turned into a group once
    per call.

    One landing table per block.  The pieces of an even decomposition de
    and an odd one do are independent, so the builder's table over them
    gives, for each pair of pieces with nonzero products, the one piece
    holding the products, or says that none does, and every matching of
    the block reads its relations off that table.  If some pair (a, b)
    straddles, every matching of the block gets None.  Why: a and b are
    parity-pure, so P_ab is homogeneous, say of parity p.  A candidate
    component is e + o with e even and o odd, and a vector of parity p in
    e + o lies in its part of parity p, which is a piece of the block.  So
    P_ab lies in no component of any matching, while a and b lie in some
    components of each, and `relations` gives None.  The block's
    candidates are still listed and ticked, with None as their relations,
    so `nodes` and the budget are those of trying each one.

    No two candidates give the same grading, so none is checked for one.
    A component e + o determines e and o as its even and odd parts, so a
    candidate's components determine its even decomposition, its odd
    decomposition and its matching, and each of those is listed once.
    """
    if S.dim > 4:
        raise DimensionTooLarge("exhaustive grading enumeration is limited to dim <= 4")
    budget = budget or SearchBudget()
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExhausted(nodes)

    ev = [S.basis_vector(i) for i in S.even_indices()]
    od = [S.basis_vector(i) for i in S.odd_indices()]
    out = []
    try:
        blocks = (_decompositions_of_block(S, ev, tick), _decompositions_of_block(S, od, tick))
        pieces = list(dict.fromkeys(sub for block in blocks for dec in block for sub in dec))
        piece_ids = {sub: i for i, sub in enumerate(pieces)}
        even_decomps, odd_decomps = (
            [tuple(piece_ids[sub] for sub in dec) for dec in block] for block in blocks
        )
        del blocks  # the index tuples replace the subspace tuples
        builder = _RelationBuilder(S, pieces)

        def candidates():
            for de in even_decomps:
                for do in odd_decomps:
                    table = builder.table(de + do, True, straddles=False)
                    for matching in _partial_matchings(len(de), len(do)):
                        tick()
                        comps = []
                        used_odd = set(matching.values())
                        for i, e in enumerate(de):
                            comps.append((e, do[matching[i]]) if i in matching else (e,))
                        for j, o in enumerate(do):
                            if j not in used_odd:
                                comps.append((o,))
                        yield comps, None if table is None else builder.relations(comps, table)

        for cand in builder.distinct_gradings(candidates()):
            out.append(cand)
    except BudgetExhausted:
        return EnumResult(out, complete=False, nodes=nodes)
    return EnumResult(out, complete=True, nodes=nodes)


def _halves(F, block):
    """Ordered (X1, X2) with X1 + X2 = span(block), zero parts allowed, in
    swapped pairs: half 2i+1 is half 2i with its parts exchanged.  An empty
    block has the single half ([], [])."""
    if not block:
        yield [], []
        return
    yield list(block), []
    yield [], list(block)
    for w1, w2 in linalg.complementary_pairs(F, block):
        yield w1, w2
        yield w2, w1


def _parity_splits(S, comp_vectors):
    """Unordered pairs (W1, W2) of nonzero parity-split subspaces with
    W1 + W2 = span(comp_vectors).

    Split (a, b) joins even half a and odd half b.  Even halves are
    generated lazily; odd halves are generated once, on demand, and
    replayed for every even half.

    Each unordered pair is yielded once, at its first ordered split.  A
    split determines its halves: W1 meets the even and odd parts in the
    halves' first parts, W2 in their second parts.  The halves of a block
    are pairwise distinct, because `complementary_pairs` yields each
    unordered pair once.  So the only other split with the same unordered
    pair {W1, W2} is the swapped one, (a^1, b^1), where the single half of
    an empty block is its own partner.  Splits run in lexicographic order
    of (a, b), so (a, b) comes first iff (a, b) <= (a^1, b^1): the same
    pairs, in the same order, as deduplicating by the spans of W1 and W2.
    """
    F = S.field
    ev = [v for v in comp_vectors if S.parity_of(v) == 0]
    od = [v for v in comp_vectors if S.parity_of(v) == 1]
    odd_cache = []
    odd_rest = _halves(F, od)

    def odd_halves():
        yield from odd_cache
        for half in odd_rest:
            odd_cache.append(half)
            yield half

    for a, (e1, e2) in enumerate(_halves(F, ev)):
        pa = a ^ 1 if ev else a
        if a > pa:
            continue  # every split of this half is the swap of one of half pa
        for b, (o1, o2) in enumerate(odd_halves()):
            if (a, b) > (pa, b ^ 1 if od else b):
                continue
            w1 = e1 + o1
            w2 = e2 + o2
            if w1 and w2:
                yield w1, w2


def _split_relations(grading, ci, w1, w2):
    """`_RelationBuilder.relations` of the components of a grading with
    component ci replaced by the parts w1 and w2, listed last after the
    untouched components, each its own piece, or None.

    The nonzero products of components a and b lie in the component of
    degree deg(a) + deg(b) and, as the components are independent, in no
    other; so do those of a part with b, since the part lies in ci.  So a
    pair whose products land outside ci gets its row from the grading's
    table (`Grading.landing`) alone, and only products landing in ci are
    tested, against the two parts: k is the first part holding all of
    them, as in `_RelationBuilder.relations`, and None is returned when
    neither does.  Untouched pairs read their products from the
    grading's builder (`Grading.builder.products`); the products that
    involve a part are computed per split.  The rows come in the order
    of `_RelationBuilder.relations`, so `presentation_to_group` returns
    the same reassignment.
    """
    S = grading.algebra
    F = S.field
    m = len(grading.comps) - 1
    n = m + 2
    src = [k for k in range(m + 1) if k != ci] + [ci, ci]  # candidate -> component
    cand = [grading.comps[k][1] for k in src[:m]] + [w1, w2]
    landing = grading.landing
    products = grading.builder.products
    parts = None
    rels = []
    for i in range(n):
        for j in range(n):
            k = landing[src[i]][src[j]]
            if k is None:
                continue  # in a grading these products are all zero
            if i < m and j < m:
                prods = products(src[i], src[j])
            else:
                prods = _products(S, cand[i], cand[j])
            if not prods:
                continue
            if k != ci:
                rels.append(_relation_row(n, i, j, k - (k > ci)))
                continue
            if parts is None:
                parts = [linalg.rref(F, w1), linalg.rref(F, w2)]
            for t, (rr, piv) in enumerate(parts, m):
                if all(linalg.in_span(F, rr, piv, p) for p in prods):
                    rels.append(_relation_row(n, i, j, t))
                    break
            else:
                return None
    return rels


def fine_check(grading, budget=None):
    """("fine", None) or ("refinable", witness) under single-component splits.

    `grading` must be a grading (`validate` accepts it): the relations
    below read where products land off its degrees.  A "refinable"
    answer is still validated.

    Tries every split of one component into two nonzero parity-split
    subspaces and accepts a split when the refined decomposition is a
    valid set grading whose universal group separates components.  Only
    single splits are explored, so "fine" means fine under this search.

    The splits of a component are streamed by `_parity_splits`, so a
    component whose first splits succeed never pays for the rest.  Where
    each pair of components lands and its products are read from the
    grading's table (`Grading.landing` and `Grading.builder.products`),
    which outlives the call; every split reads it (`_split_relations`) and pays
    only for the products that involve its parts and for checking that
    the products landing in the split component fit inside one part.

    A component is skipped when the nonzero products of untouched pairs
    landing in it already span it.  The rule assumes that those products
    must all fit inside one part, which holds for a single pair but not in
    general: two pairs may land in different parts.  The rule is unsound:
    it makes this search answer "fine" on 15 catalog gradings that a
    single split refines (eq3 over GF(3) and GF(9); cor1eq10 to cor1eq13
    and okuboeq9 over GF(2) and GF(4); okuboeq10 to okuboeq12 over GF(4)).
    The sound per-pair rule (skip when the products of one pair span the
    component) makes eq2, eq5, eq7, okuboeq3 and okuboeq6 search their
    splits, 3-22x slower (eq7/GF(4): 0.27 to 2.3 ms).
    """
    budget = budget or SearchBudget()
    S = grading.algebra
    F = S.field
    nodes = 0
    comps = [vs for _, vs in grading.comps]
    landing = grading.landing
    products = grading.builder.products
    for ci, comp in enumerate(comps):
        if len(comp) < 2:
            continue
        # products of the untouched components that land in this component
        # must fit inside one of the two parts; if they already span the
        # whole component, no split can succeed (see above)
        untouched = [k for k in range(len(comps)) if k != ci]
        incoming = [p for j in untouched for k in untouched
                    if landing[j][k] == ci for p in products(j, k)]
        if incoming and linalg.rank(F, incoming) == len(comp):
            continue
        others = [comps[k] for k in untouched]
        for w1, w2 in _parity_splits(S, comp):
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExhausted(nodes)
            rels = _split_relations(grading, ci, w1, w2)
            if rels is None:
                continue
            witness = _separating_grading(S, *presentation_to_group(len(comps) + 1, rels),
                                          others + [w1, w2])
            if witness is None:
                continue
            ok, _ = validate(witness)
            if ok:
                return "refinable", witness
    return "fine", None
