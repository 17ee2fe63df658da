import itertools

import pytest

from compsuper import catalog, linalg
from compsuper.abelian import AbGroup, presentation_to_group
from compsuper.catalog import build_entry
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
    tau_nst,
)
from compsuper.fields import GF, QQ, InfiniteField
from compsuper.gradings import (
    _RelationBuilder,
    _separating_grading,
    coarsenings_enum,
    _products,
    gamma_grading_b12,
    grading_from_components,
    grading_from_degrees,
    main_grading,
    trivial_grading,
    is_refinement,
    universal_group,
    validate,
)
from compsuper import gradings, search
from compsuper.search import (
    BudgetExhausted,
    _decompositions_of_block,
    _parity_splits,
    _split_relations,
    SearchBudget,
    enumerate_all_gradings,
    enumerate_automorphisms,
    find_graded_map,
    fine_check,
)
from compsuper.superalgebra import (
    CheckFailed,
    Morphism,
    SuperAlgebra,
    identity_morphism,
    is_morphism,
)

F2, F3, F4 = GF(2), GF(3), GF(4)
Z = AbGroup(1)
Z6 = AbGroup(0, (6,))


def test_find_graded_map_b12():
    B = b12(F3)
    g1 = gamma_grading_b12(B, Z6, Z6.element(1))
    g5 = gamma_grading_b12(B, Z6, Z6.element(5))
    g2 = gamma_grading_b12(B, Z6, Z6.element(2))
    f = find_graded_map(B, g1, B, g5)
    assert f is not None
    # the map exchanges the two odd lines: u -> v, v -> -u up to scalars
    assert f.apply(B.basis_vector(1))[2] != F3.zero
    assert find_graded_map(B, g1, B, g2) is None
    ident = find_graded_map(B, g1, B, g1)
    assert ident is not None


def test_found_map_inverts():
    B = b12(F3)
    g1 = gamma_grading_b12(B, Z6, Z6.element(1))
    g5 = gamma_grading_b12(B, Z6, Z6.element(5))
    f = find_graded_map(B, g1, B, g5)
    # column i of the inverse image matrix is the image of basis vector i
    inv = Morphism(B, B, tuple(zip(*linalg.basis_inverse(F3, f.images))))
    checked = is_morphism(inv, ("algebra-hom", "parity-preserving", "bijective"))
    from compsuper.search import try_verify_graded

    assert try_verify_graded(checked, g5, g1) is not None


def test_equivalence_mode():
    from compsuper.catalog import build_entry

    _, eq3 = build_entry("eq3", F3)
    _, eq4 = build_entry("eq4", F3)
    _, eq2 = build_entry("eq2", F3)
    assert find_graded_map(eq2.algebra, eq3, eq3.algebra, eq4, mode="equivalence") is None
    assert find_graded_map(eq2.algebra, eq2, eq2.algebra, eq2, mode="equivalence") is not None


def test_equivalence_mode_across_groups():
    # same components, different ambient groups: equivalent via the identity
    B = b12(F3)
    g_z = gamma_grading_b12(B, Z, Z.element(1))
    g_z6 = gamma_grading_b12(B, Z6, Z6.element(1))
    assert find_graded_map(B, g_z, B, g_z6, mode="equivalence") is not None
    # isomorphism mode requires the same group, hence the same degrees
    assert find_graded_map(B, g_z, B, g_z6, mode="isomorphism") is None


def test_enumerate_automorphisms_unconstrained():
    A, _ = split_hurwitz(2, F2)
    autos = enumerate_automorphisms(A, trivial_grading(A))
    images = sorted(tuple(f.images) for f in autos)
    ident = (A.basis_vector(0), A.basis_vector(1))
    swap = (A.basis_vector(1), A.basis_vector(0))
    assert images == sorted([ident, swap])


def test_enumerate_automorphisms_budget():
    C, _ = super_split_cayley(F2)
    with pytest.raises(BudgetExhausted):
        enumerate_automorphisms(C, trivial_grading(C), budget=SearchBudget(10))


def _brute_force_automorphisms(S):
    """Every bijective, parity-preserving algebra map S -> S, from a scan of
    all F^(n*n) matrices, sorted by their images."""
    F, n = S.field, S.dim
    out = []
    for flat in itertools.product(F.elements(), repeat=n * n):
        images = tuple(tuple(flat[j * n + i] for i in range(n)) for j in range(n))
        try:
            out.append(is_morphism(Morphism(S, S, images),
                                   ("bijective", "algebra-hom", "parity-preserving")))
        except CheckFailed:
            continue
    return out


_SMALL_ALGEBRAS = {
    "split2/GF(2)": lambda: split_hurwitz(2, F2)[0],
    "split2/GF(3)": lambda: split_hurwitz(2, F3)[0],
    "split2/GF(4)": lambda: split_hurwitz(2, F4)[0],
    "K/GF(2)": lambda: nonsplit_quadratic(F2),
    "para-split2/GF(3)": lambda: para_hurwitz(split_hurwitz(2, F3)[0]),
    "B(1,2)/GF(3)": lambda: b12(F3),
}


@pytest.mark.parametrize("label", list(_SMALL_ALGEBRAS))
def test_trivial_grading_automorphisms_match_a_scan_of_every_matrix(label):
    """With the trivial grading the stabilizer chain lists every
    automorphism the scan finds, in the same order; each is an isometry."""
    S = _SMALL_ALGEBRAS[label]()
    got = enumerate_automorphisms(S, trivial_grading(S))
    assert [f.images for f in got] == [f.images for f in _brute_force_automorphisms(S)]
    assert all("isometry" in f.attrs for f in got)


def test_graded_automorphisms_of_b12():
    B = b12(F3)
    eq1 = gamma_grading_b12(B, Z, Z.element(1))
    autos = enumerate_automorphisms(B, constraints=eq1)
    # u -> c u, v -> c^{-1} v for c in GF(3)^*
    assert len(autos) == 2
    for f in autos:
        c = f.images[1][1]
        assert f.images[2][2] == F3.inv(c)


def test_tau_nst_is_a_graded_automorphism_of_the_five_grading():
    C, cb = super_split_cayley(F2)
    g = grading_from_degrees(
        C,
        Z,
        [Z.element(0), Z.element(0), Z.element(1), Z.element(1),
         Z.element(-2), Z.element(-1), Z.element(-1), Z.element(2)],
    )
    ok, _ = validate(g)
    assert ok
    autos = enumerate_automorphisms(C, constraints=g)
    t = tau_nst(cb)
    assert any(f.images == t.images for f in autos)


def test_okubo_nst_and_omega_are_isomorphic_over_gf4():
    """Over GF(4), where tau_nst is diagonalizable, twisting by tau_nst or
    by tau_omega gives one superalgebra: the search finds a map between
    the main gradings in each direction, and each map passes
    try_verify_graded."""
    nst, omega = okubo_super(F4, "nst")[0], okubo_super(F4, "omega")[0]
    for A, B in ((nst, omega), (omega, nst)):
        ga, gb = main_grading(A), main_grading(B)
        f = find_graded_map(A, ga, B, gb)
        assert f is not None
        assert search.try_verify_graded(f, ga, gb) is not None


def test_identity_is_found_over_q_without_a_search():
    A, _ = split_hurwitz(4, QQ)
    g = main_grading(A)
    f = find_graded_map(A, g, A, g)
    assert f.is_identity()
    assert {"algebra-hom", "parity-preserving", "bijective", "isometry"} <= f.attrs


def test_search_over_q_raises_infinite_field():
    A, _ = split_hurwitz(4, QQ)
    B, _ = split_hurwitz(4, QQ)  # another object: the identity is not tried
    with pytest.raises(InfiniteField):
        find_graded_map(A, main_grading(A), B, main_grading(B))
    with pytest.raises(InfiniteField):
        enumerate_automorphisms(A, constraints=main_grading(A))


class _SolvedCoordinatesSearch(search._GradedMapSearch):
    """The search with the tables built as before the basis inverse: one
    coords_in_basis solve per source product and per standard basis
    vector, in the same slot order."""

    def _prepare(self):
        src_vecs, src_comp, _, _, *source_values = super()._prepare()
        A, F = self.A, self.F
        m = len(src_vecs)
        by_depth = [[] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                p = A.mul(src_vecs[i], src_vecs[j])
                coeffs = linalg.coords_in_basis(F, src_vecs, p)
                support = [k for k, c in enumerate(coeffs) if c != F.zero]
                by_depth[max([i, j] + support)].append((i, j, coeffs, support))
        std_coords = [linalg.coords_in_basis(F, src_vecs, A.basis_vector(i))
                      for i in range(A.dim)]
        return src_vecs, src_comp, by_depth, std_coords, *source_values


@pytest.mark.parametrize("id, q", [("eq1", 3), ("eq6", 2), ("okuboeq4", 4)])
def test_enumerate_automorphisms_match_solved_coordinates(id, q):
    A, g = build_entry(id, GF(q))
    got = enumerate_automorphisms(A, constraints=g)
    ref = _SolvedCoordinatesSearch(A, g, A, g, SearchBudget())
    want = []
    ref.run(list(range(len(g.comps))), collect=want)
    want.sort(key=lambda f: tuple(f.images))
    assert [(f.images, f.attrs) for f in got] == [(f.images, f.attrs) for f in want]
    new = search._GradedMapSearch(A, g, A, g, SearchBudget())
    new.run(list(range(len(g.comps))), collect=[])
    assert new.nodes == ref.nodes


_SEARCH = search._GradedMapSearch


def _smallest_field(entry):
    if entry.char == 3:
        return GF(3)
    return GF(4) if entry.needs_omega else GF(2)


@pytest.mark.parametrize("id", catalog.LABELLED_IDS)
def test_coset_automorphisms_match_exhaustive_search(id):
    """The stabilizer-chain group equals the exhaustive search's list, one
    leaf per automorphism: the same maps, attrs and order, on every
    labelled grading."""
    A, g = build_entry(id, _smallest_field(catalog.ENTRIES[id]))
    got = enumerate_automorphisms(A, constraints=g)
    want = []
    search._GradedMapSearch(A, g, A, g, SearchBudget()).run(list(range(len(g.comps))),
                                                              collect=want)
    want.sort(key=lambda f: tuple(f.images))
    assert [(f.images, f.attrs) for f in got] == [(f.images, f.attrs) for f in want]


def test_coset_automorphisms_of_okuboeq4_form_a_group(monkeypatch):
    A, g = build_entry("okuboeq4", F4)
    got, nodes = _searches(monkeypatch, _SEARCH, lambda: enumerate_automorphisms(A, constraints=g))
    autos = [Morphism(A, A, images) for images, _ in got]
    images = {f.images for f in autos}
    assert len(autos) == len(images) == 180
    assert identity_morphism(A).images in images
    assert all(f.compose(h).images in images for f in autos for h in autos)
    # one search, one run per unforced slot (550 nodes with one run per
    # candidate); the exhaustive search visits 6,360 nodes
    assert nodes == [472]


def _per_candidate_cosets(S, g):
    """The coset loop as it was with one run per candidate: run r_c
    fixes slots 0..t-1 to v_0..v_{t-1} and slot t to c.  Returns the
    representatives of each unforced slot, from t = m-1 down, and the
    group built from them, each composite verified by try_verify_graded."""
    F = S.field
    s = _SEARCH(S, g, S, g, SearchBudget())
    comp_target = [g.index[d] for d, _ in g.comps]
    slots, slot_comp, by_depth, *_ = s.tables
    group = [tuple(S.basis_vector(i) for i in range(S.dim))]
    reps_by_slot = []
    for t in reversed(range(len(slots))):
        if any(i != t and j != t and coeffs[t] != F.zero for i, j, coeffs, _ in by_depth[t]):
            continue
        reps = []
        for c in linalg.span_vectors(F, g.comps[comp_target[slot_comp[t]]][1], S.dim):
            if c != slots[t]:
                r = s.run(comp_target, fixed=tuple((v,) for v in slots[:t]) + ((c,),))
                if r is not None:
                    reps.append(r)
        reps_by_slot.append([(r.images, r.attrs) for r in reps])
        group += [tuple(r.apply(v) for v in h) for r in reps for h in group]
    out = [search.try_verify_graded(Morphism(S, S, images), g, g) for images in group]
    return reps_by_slot, sorted(out, key=lambda f: tuple(f.images))


class _RecordedRuns(_SEARCH):
    """The search with what each collecting run collected recorded."""

    collected = []

    def run(self, comp_target, collect=None, fixed=()):
        got = super().run(comp_target, collect, fixed)
        if collect is not None:
            self.collected.append([(f.images, f.attrs) for f in collect])
        return got


_COSET_CASES = (
    [("labelled", id) for id in catalog.LABELLED_IDS]
    + [("trivial", label) for label in _SMALL_ALGEBRAS]
)


@pytest.mark.parametrize("kind, label", _COSET_CASES)
def test_one_run_per_slot_matches_one_run_per_candidate(monkeypatch, kind, label):
    """One run per slot finds the same coset representatives, in the same
    order, and the same group as one run per candidate; and is_morphism
    runs once per returned map."""
    if kind == "labelled":
        S, g = build_entry(label, _smallest_field(catalog.ENTRIES[label]))
    else:
        S = _SMALL_ALGEBRAS[label]()
        g = trivial_grading(S)
    want_reps, want = _per_candidate_cosets(S, g)
    calls = []
    real = search.is_morphism
    monkeypatch.setattr(search, "is_morphism", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(_RecordedRuns, "collected", [])
    monkeypatch.setattr(search, "_GradedMapSearch", _RecordedRuns)
    got = enumerate_automorphisms(S, g)
    assert _RecordedRuns.collected == want_reps
    assert [(f.images, f.attrs) for f in got] == [(f.images, f.attrs) for f in want]
    assert len(calls) == len(got)


def test_a_rejected_identity_try_makes_no_morphism_check(monkeypatch):
    """The degree test comes first: the identity between two gradings of
    B(1,2) with different degrees is rejected without is_morphism, and
    the verdicts on every ordered pair are those of the morphism checks
    run first."""
    B = b12(F3)
    gs = [gamma_grading_b12(B, Z6, Z6.element(k)) for k in (1, 2, 3, 5)]
    ident = identity_morphism(B)

    def morphism_first(f, ga, gb):
        f = search._checked_map(f, True)
        return f if f is not None and search._degree_preserving(f, ga, gb) else None

    want = [morphism_first(ident, g1, g2) for g1 in gs for g2 in gs]
    calls = []
    real = search.is_morphism
    monkeypatch.setattr(search, "is_morphism", lambda *a: calls.append(1) or real(*a))
    got = [search.try_verify_graded(ident, g1, g2) for g1 in gs for g2 in gs]
    assert got == want
    assert [f is not None for f in got] == [g1 is g2 for g1 in gs for g2 in gs]
    assert len(calls) == len(gs)


def test_gradings_of_another_algebra_are_refused():
    """find_graded_map, try_verify_graded and enumerate_automorphisms raise
    ValueError, as is_refinement does, for a grading of another algebra."""
    A, _ = split_hurwitz(4, F2)
    P = para_hurwitz(A)
    with pytest.raises(ValueError):
        enumerate_automorphisms(A, main_grading(P))
    S1, S2 = b12(F3), b12(F3)
    g1 = gamma_grading_b12(S1, Z6, Z6.element(1))
    g2 = gamma_grading_b12(S2, Z6, Z6.element(5))
    with pytest.raises(ValueError):
        find_graded_map(S1, g2, S1, g1)
    with pytest.raises(ValueError):
        find_graded_map(S1, g1, S1, g2)
    with pytest.raises(ValueError):
        search.try_verify_graded(identity_morphism(S1), g1, g2)
    with pytest.raises(ValueError):
        search.try_verify_graded(identity_morphism(S1), g2, g1)


def test_find_graded_map_refuses_bad_input_before_comparing_dimensions():
    """An unknown mode or two fields is a ValueError, never None, the
    proven-none answer, even when the dimensions already differ."""
    A2, A4 = split_hurwitz(2, F2)[0], split_hurwitz(4, F2)[0]
    for A, B in ((A2, A4), (A4, A4)):
        with pytest.raises(ValueError, match="unknown mode"):
            find_graded_map(A, main_grading(A), B, main_grading(B), mode="bogus")
    B3, B5 = split_hurwitz(2, F3)[0], split_hurwitz(4, GF(5))[0]
    for mode in ("isomorphism", "equivalence"):
        with pytest.raises(ValueError, match="one field"):
            find_graded_map(B3, main_grading(B3), B5, main_grading(B5), mode=mode)


def _per_run_tables(search_, comp_target):
    """The source tables as each `run` built them before they were built
    once per search: slots ordered by the size of their assigned target
    component, then by parity.  The slot parities, q0 values and Gram
    matrix are evaluated by the algebra's own `parity_of`, `eval_q0` and
    `eval_b`."""
    A, F = search_.A, search_.F
    src_vecs, src_comp = [], []
    for ci, (_, vs) in enumerate(search_.ga.comps):
        for v in vs:
            src_vecs.append(v)
            src_comp.append(ci)
    tgt_sizes = [len(vs) for _, vs in search_.gb.comps]
    order = sorted(range(len(src_vecs)),
                   key=lambda t: (tgt_sizes[comp_target[src_comp[t]]], A.parity_of(src_vecs[t]), t))
    src_vecs = [src_vecs[t] for t in order]
    src_comp = [src_comp[t] for t in order]
    m = len(src_vecs)
    inverse = linalg.basis_inverse(F, src_vecs)
    by_depth = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            coeffs = linalg.mat_vec(F, inverse, A.mul(src_vecs[i], src_vecs[j]))
            support = [k for k, c in enumerate(coeffs) if c != F.zero]
            by_depth[max([i, j] + support)].append((i, j, coeffs, support))
    parity = [A.parity_of(v) for v in src_vecs]
    q0 = [A.eval_q0(v) if p == 0 else None for v, p in zip(src_vecs, parity)]
    gram = [[A.eval_b(x, y) for y in src_vecs] for x in src_vecs]
    return src_vecs, src_comp, by_depth, tuple(zip(*inverse)), parity, q0, gram



class _PerRunSearch(_SEARCH):
    """The search with its tables and target span vectors rebuilt for
    every assignment."""

    def run(self, comp_target, collect=None, fixed=()):
        self.tables = _per_run_tables(self, comp_target)
        self._span_vectors = {}
        return super().run(comp_target, collect, fixed)


def _searches(monkeypatch, cls, call):
    """(result of call(), node count of each search it made) with
    `search._GradedMapSearch` replaced by `cls`."""
    made = []

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(search, "_GradedMapSearch", Recorded)
    got = call()
    maps = got if isinstance(got, list) else [got]
    return [None if f is None else (f.images, f.attrs) for f in maps], [s.nodes for s in made]


def _table_cases():
    """Calls that search: criterion 6's Cayley and Okubo pairs over GF(4)
    (every 5th pair of one census), equivalence between eq2, eq3 and eq4
    over GF(3), and four automorphism groups."""
    from compsuper.catalog import _family_algebra, iso_test_groups
    from compsuper.gradings import gamma_grading_dim8, zero_sum_triples

    cases = []
    for family in ("cd8", "okubo-omega"):
        # criterion 6: every 5th of its pairs that reach a search
        ctx = _family_algebra(family, F4)
        A = ctx["algebra"]
        for G in iso_test_groups():
            gs = [gamma_grading_dim8(A, ctx["cb"], G, t) for t in zero_sum_triples(G, max_order=4)]
            pairs = [(g1, g2) for g1 in gs for g2 in gs if g1 is not g2 and g1.census == g2.census]
            cases += [lambda A=A, g1=g1, g2=g2: find_graded_map(A, g1, A, g2)
                      for g1, g2 in pairs[::5]]
    equiv = {id: build_entry(id, F3) for id in ("eq2", "eq3", "eq4")}
    for (A, ga) in equiv.values():
        for (B, gb) in equiv.values():
            cases.append(lambda A=A, ga=ga, B=B, gb=gb:
                         find_graded_map(A, ga, B, gb, mode="equivalence"))
    for id, q in (("eq1", 3), ("eq6", 2), ("okuboeq4", 4), ("eq3", 3)):
        A, g = build_entry(id, GF(q))
        cases.append(lambda A=A, g=g: enumerate_automorphisms(A, constraints=g))
    return cases


def test_tables_once_per_search_match_per_run_tables(monkeypatch):
    """find_graded_map in both modes and enumerate_automorphisms give the
    same maps and node counts with the tables built once per search as with
    the tables rebuilt, in the target-keyed slot order, for each run."""
    cases = _table_cases()
    searched = found = 0
    for call in cases:
        got = _searches(monkeypatch, _SEARCH, call)
        assert got == _searches(monkeypatch, _PerRunSearch, call)
        searched += bool(got[1])
        found += any(f is not None for f in got[0])
    assert (len(cases), searched, found) == (179, 173, 129)


class _PerCandidateSearch(_SEARCH):
    """The search with `consistent` as it was before any search tables:
    for every candidate, the parity, q0 and polar values of the fixed
    source vectors are evaluated by the source algebra, the polar values
    of the target by `eval_b` both ways against every earlier image, the
    diagonal included, the rank of the images from scratch, and every
    product by the dense `B.mul`.  Its target vectors come from the
    search's own `_targets`, as the coset loop's do."""

    def run(self, comp_target, collect=None, fixed=()):
        A, B, F = self.A, self.B, self.F
        src_vecs, src_comp, by_depth, std_coords = self.tables[:4]
        tgt_spans = self.gb.spans
        m = len(src_vecs)
        n = B.dim
        images = [None] * m
        z = F.zero
        last = len(fixed) - 1 if fixed else m - 1

        def candidates(t):
            if t < len(fixed):
                return fixed[t]
            for i, j, coeffs, support in by_depth[t]:
                if i == t or j == t or coeffs[t] == z:
                    continue
                lhs = B.mul(images[i], images[j])
                rest = [k for k in support if k != t]
                known = linalg.lincomb(F, [coeffs[k] for k in rest], [images[k] for k in rest], n)
                return [linalg.vec_scale(F, F.inv(coeffs[t]), linalg.vec_sub(F, lhs, known))]
            return self._targets(comp_target[src_comp[t]])

        def consistent(t):
            v = images[t]
            if A.parity_of(src_vecs[t]) != B.parity_of(v) or linalg.vec_is_zero(F, v):
                return False
            rr, piv = tgt_spans[comp_target[src_comp[t]]]
            if not linalg.in_span(F, rr, piv, v):
                return False
            if self.isometry:
                if A.parity_of(src_vecs[t]) == 0:
                    if B.eval_q0(v) != A.eval_q0(src_vecs[t]):
                        return False
                for k in range(t + 1):
                    if B.eval_b(images[k], v) != A.eval_b(src_vecs[k], src_vecs[t]):
                        return False
                    if B.eval_b(v, images[k]) != A.eval_b(src_vecs[t], src_vecs[k]):
                        return False
            if linalg.rank(F, [im for im in images[: t + 1]]) != t + 1:
                return False
            for i, j, coeffs, _ in by_depth[t]:
                if B.mul(images[i], images[j]) != linalg.lincomb(F, coeffs, images, n):
                    return False
            return True

        def dfs(t):
            if t == m:
                imgs = tuple(linalg.lincomb(F, coeffs, images, n) for coeffs in std_coords)
                f = search._checked_map(Morphism(A, B, imgs), self.isometry)
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


def _okubo_pairs():
    """Criterion 6's Okubo algebra (okubo-omega over GF(4)) and its pairs
    of gradings, as (stated condition holds, corrected condition holds,
    ga, gb)."""
    from compsuper.catalog import _family_algebra, iso_test_groups, okubo_gamma_equiv
    from compsuper.gradings import gamma_equiv, gamma_grading_dim8, zero_sum_triples

    ctx = _family_algebra("okubo-omega", F4)
    A = ctx["algebra"]
    pairs = []
    for G in iso_test_groups():
        triples = zero_sum_triples(G, max_order=4)
        gs = {t: gamma_grading_dim8(A, ctx["cb"], G, t) for t in triples}
        pairs += [(gamma_equiv(t1, t2), okubo_gamma_equiv(t1, t2), gs[t1], gs[t2])
                  for t1 in triples for t2 in triples]
    return A, pairs


def _target_side_cases():
    """Isometry searches the Okubo cases do not reach: criterion 6's
    B(1,2) and B(4,2) pairs over GF(9) whose censuses agree (every test
    group, deg(u) = g against deg(u) = h), and, over GF(2), the super
    Cayley catalog pairs in equivalence mode whose sorted censuses agree
    and the automorphism groups of eq7 and main-cd8."""
    from compsuper.catalog import ENTRIES, _family_algebra, iso_test_groups
    from compsuper.gradings import gamma_grading_b42

    cases = []
    for family, gamma in (("b12", gamma_grading_b12), ("b42", gamma_grading_b42)):
        A = _family_algebra(family, GF(9))["algebra"]
        for G in iso_test_groups():
            gs = [gamma(A, G, g) for g in G.elements()]
            cases += [lambda A=A, g1=g1, g2=g2: find_graded_map(A, g1, A, g2)
                      for g1 in gs for g2 in gs if g1 is not g2 and g1.census == g2.census]
    cayley = [build_entry(id, F2) for id, e in ENTRIES.items() if e.family == "cd8"]
    cases += [lambda A=A, ga=ga, B=B, gb=gb: find_graded_map(A, ga, B, gb, mode="equivalence")
              for A, ga in cayley for B, gb in cayley
              if sorted(ga.census.values()) == sorted(gb.census.values())]
    for id in ("eq7", "main-cd8"):
        A, g = build_entry(id, F2)
        cases.append(lambda A=A, g=g: enumerate_automorphisms(A, constraints=g))
    return cases


def test_search_tables_match_per_candidate_evaluation(monkeypatch):
    """The search's tables, the source tables built once per search and
    the target covectors and echelon rows kept per depth, give the same
    maps, Nones and node counts as evaluating both algebras per
    candidate: on every 4th hard Okubo pair of criterion 6 (the stated
    condition says isomorphic, the search proves none), on the table
    cases above, on isometry searches over GF(9) (odd characteristic) and
    over GF(2), where the one-way polar check rests on skew being
    symmetric and the skipped diagonal on the odd block being
    alternating, and on searches without the isometry checks."""
    A, pairs = _okubo_pairs()
    hard = [(ga, gb) for stated, corrected, ga, gb in pairs if stated and not corrected]
    assert len(hard) == 248
    cases = [lambda ga=ga, gb=gb: find_graded_map(A, ga, A, gb) for ga, gb in hard[::4]]
    cases += _table_cases()
    cases += _target_side_cases()
    mixed = [(ga, gb) for _, _, ga, gb in pairs if ga is not gb and ga.census == gb.census]
    cases += [lambda ga=ga, gb=gb: find_graded_map(A, ga, A, gb, isometry=False)
              for ga, gb in mixed[::20]]
    equiv = [build_entry(id, F3) for id in ("eq2", "eq3", "eq4")]
    cases += [lambda A=A, ga=ga, B=B, gb=gb:
              find_graded_map(A, ga, B, gb, mode="equivalence", isometry=False)
              for A, ga in equiv for B, gb in equiv]
    searched = found = 0
    for call in cases:
        got = _searches(monkeypatch, _SEARCH, call)
        assert got == _searches(monkeypatch, _PerCandidateSearch, call)
        searched += bool(got[1])
        found += any(f is not None for f in got[0])
    assert (len(cases), searched, found) == (325, 313, 192)


class _EagerTargetSearch(_SEARCH):
    """The search with each target component's nonzero vectors listed in
    full on first use, once per search, as before they were drawn on
    demand."""

    def _targets(self, ci):
        got = self._span_vectors.get(ci)
        if got is None:
            basis = self.gb.comps[ci][1]
            got = self._span_vectors[ci] = list(linalg.span_vectors(self.F, basis, self.B.dim))
        return got


def test_two_draws_from_one_component_each_see_the_whole_sequence():
    """Two walks over one target component's drawn vectors, interleaved
    as two depths of one run interleave them, each give the whole
    `span_vectors` sequence, whichever of them draws a vector first.  One
    generator shared without the kept list and the per-walk index would
    hand each vector to one walk only."""
    S = split_hurwitz(4, F3)[0]
    g = trivial_grading(S)
    want = list(linalg.span_vectors(F3, g.comps[0][1], S.dim))
    s = _SEARCH(S, g, S, g, SearchBudget())
    first, second = s._targets(0), s._targets(0)
    got1 = [next(first) for _ in range(5)]
    got2 = [next(second) for _ in range(12)]  # 5 kept, 7 drawn
    got1 += [next(first) for _ in range(10)]  # 7 kept, 3 drawn
    assert len(s._span_vectors[0][0]) == 15
    got2 += list(second)
    got1 += list(first)
    assert got1 == got2 == want and len(want) == 80
    assert list(s._targets(0)) == want  # a later walk reads the kept list


def _criterion_6_pairs(step):
    """Every step-th same-census ordered pair of distinct gradings of
    criterion 6's four kinds: B(1,2) and B(4,2) over GF(9), Cayley and
    Okubo (okubo-omega) over GF(4), over every test group."""
    from compsuper.catalog import _family_algebra, iso_test_groups
    from compsuper.gradings import gamma_grading_b42, gamma_grading_dim8, zero_sum_triples

    out = []
    for family, F in (("b12", GF(9)), ("b42", GF(9)), ("cd8", F4), ("okubo-omega", F4)):
        ctx = _family_algebra(family, F)
        A = ctx["algebra"]
        pairs = []
        for G in iso_test_groups():
            if family == "b12":
                gs = [gamma_grading_b12(A, G, x) for x in G.elements()]
            elif family == "b42":
                gs = [gamma_grading_b42(A, G, x) for x in G.elements()]
            else:
                gs = [gamma_grading_dim8(A, ctx["cb"], G, t) for t in zero_sum_triples(G, max_order=4)]
            pairs += [(A, ga, gb) for ga in gs for gb in gs if ga is not gb and ga.census == gb.census]
        out += pairs[::step]
    return out


def test_drawn_targets_match_listing_every_target_first(monkeypatch):
    """Drawing target vectors on demand gives the same maps, Nones and
    node counts as listing every nonzero vector of a component on first
    use: on the automorphism group of every labelled grading and on every
    3rd same-census pair of criterion 6's four kinds."""
    cases = []
    for id in catalog.LABELLED_IDS:
        A, g = build_entry(id, _smallest_field(catalog.ENTRIES[id]))
        cases.append(lambda A=A, g=g: enumerate_automorphisms(A, constraints=g))
    cases += [lambda A=A, ga=ga, gb=gb: find_graded_map(A, ga, A, gb)
              for A, ga, gb in _criterion_6_pairs(3)]
    searched = found = 0
    for call in cases:
        got = _searches(monkeypatch, _SEARCH, call)
        assert got == _searches(monkeypatch, _EagerTargetSearch, call)
        searched += bool(got[1])
        found += any(f is not None for f in got[0])
    assert (len(cases), searched, found) == (313, 313, 231)


def test_a_found_map_draws_only_the_target_vectors_it_tries(monkeypatch):
    """Work-count guard: between eq7/GF(4) and the same components with
    every degree negated, the search finds a map in 8 nodes and draws 4
    target vectors, one per 1-dimensional component it reaches; listing
    every target first builds 12."""
    from compsuper.gradings import Grading

    A, g = build_entry("eq7", F4)
    negated = Grading(A, g.group, tuple((-d, vs) for d, vs in g.comps))
    built = []
    real = linalg.span_vectors

    def counted(*args):
        for v in real(*args):
            built.append(v)
            yield v

    monkeypatch.setattr(linalg, "span_vectors", counted)
    results = []
    for cls in (_SEARCH, _EagerTargetSearch):
        built.clear()
        got, nodes = _searches(monkeypatch, cls, lambda: find_graded_map(A, g, A, negated))
        results.append((got, nodes, len(built)))
    (got, nodes, drawn), (eager_got, eager_nodes, listed) = results
    assert got == eager_got and got[0] is not None
    assert nodes == eager_nodes == [8]
    assert (drawn, listed) == (4, 12)


def test_a_hard_okubo_search_makes_no_dense_polar_value_or_rank(monkeypatch):
    """Work-count guard: the hard Okubo pair of criterion 6 that costs the
    most nodes (5,820; the stated condition says isomorphic, the search
    proves none) makes no SuperAlgebra.eval_b and no linalg.rank call:
    the target's polar values come from the covectors and its rank from
    the echelon rows kept per depth."""
    A, pairs = _okubo_pairs()
    hard = [(ga, gb) for stated, corrected, ga, gb in pairs if stated and not corrected]
    ga, gb = hard[157]
    calls = []
    for owner, name in ((SuperAlgebra, "eval_b"), (linalg, "rank")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    got, nodes = _searches(monkeypatch, _SEARCH, lambda: find_graded_map(A, ga, A, gb))
    assert (got, nodes) == ([None], [5820])
    assert calls == []


def test_the_search_reads_the_source_algebra_only_while_preparing(monkeypatch):
    """Between the main gradings of okubo-nst and okubo-omega over GF(4),
    two algebra objects, the search evaluates the source algebra's
    eval_b, eval_q0 and parity_of only before it starts: eval_q0 in
    `_prepare`, parity_of once per basis vector for the grading's cached
    `parities`, which `find_graded_map` reads first.  Every candidate
    reads the source tables instead."""
    nst, omega = okubo_super(F4, "nst")[0], okubo_super(F4, "omega")[0]
    phase = ["before"]
    real_prepare = _SEARCH._prepare

    def prepare(self):
        phase[0] = "prepare"
        tables = real_prepare(self)
        phase[0] = "search"
        return tables

    monkeypatch.setattr(_SEARCH, "_prepare", prepare)
    calls = []
    for A in (nst, omega):
        for name in ("eval_b", "eval_q0", "parity_of"):
            real = getattr(A, name)
            monkeypatch.setattr(A, name, lambda *a, A=A, name=name, real=real:
                                calls.append((A, phase[0], name)) or real(*a))
    for A, B in ((nst, omega), (omega, nst)):
        calls.clear()
        phase[0] = "before"
        f = find_graded_map(A, main_grading(A), B, main_grading(B))
        assert f is not None
        assert {n for a, p, n in calls if a is A and p == "prepare"} >= {"eval_q0"}
        assert [n for a, p, n in calls if a is A and n == "parity_of"] == ["parity_of"] * A.dim
        assert [n for a, p, n in calls if a is A and p == "search"] == []
        assert [n for a, p, n in calls if a is B and p == "search"]  # the target side


def test_mixed_parity_target_vector_is_refused_in_both_modes():
    """A target grading gb of B(1,2)/GF(3) whose one component has the
    basis 1 + u, 1, v, which `validate` rejects, is refused with a
    ValueError in equivalence mode as in isomorphism mode, though the
    source grading is the trivial one and has no such vector."""
    B = b12(F3)
    G = AbGroup(0, ())
    one, u, v = B.basis()
    gb = grading_from_components(B, G, [(G.zero(), [linalg.vec_add(F3, one, u), one, v])])
    assert not validate(gb)[0]
    for mode in ("isomorphism", "equivalence"):
        with pytest.raises(ValueError, match="degree 0 has a basis vector of mixed parity, 1 \\+ u"):
            find_graded_map(B, trivial_grading(B), B, gb, mode=mode)


def test_mixed_parity_source_vector_is_refused():
    """A grading whose basis vector 1 + u of B(1,2)/GF(3) has no parity,
    which `validate` rejects, is refused by the search with a ValueError
    naming its component: between two copies of B, and between B and
    itself before the identity is tried."""
    B = b12(F3)
    G = AbGroup(0, ())
    one, u, v = B.basis()
    g = grading_from_components(B, G, [(G.zero(), [linalg.vec_add(F3, one, u), u, v])])
    assert not validate(g)[0]
    with pytest.raises(ValueError, match="degree 0 has a basis vector of mixed parity, 1 \\+ u"):
        enumerate_automorphisms(B, g)
    with pytest.raises(ValueError, match="degree 0 has a basis vector of mixed parity, 1 \\+ u"):
        find_graded_map(B, g, B, g)
    C = b12(F3)
    gc = grading_from_components(C, G, [(G.zero(), [linalg.vec_add(F3, one, u), u, v])])
    with pytest.raises(ValueError, match="mixed parity"):
        find_graded_map(B, g, C, gc)


def test_mixed_parity_is_refused_before_the_census_test():
    """A grading gc of B(1,2)/GF(3) with the one component 1 + u, u, v
    has another census than the trivial grading (it counts 1 + u as odd),
    yet a graded map from or to it is refused with a ValueError naming the
    vector in both modes, not answered None; so is a pair of algebras of
    different dimensions."""
    B = b12(F3)
    G = AbGroup(0, ())
    one, u, v = B.basis()
    gc = grading_from_components(B, G, [(G.zero(), [linalg.vec_add(F3, one, u), u, v])])
    assert gc.census != trivial_grading(B).census
    assert gc.mixed == (G.zero(), linalg.vec_add(F3, one, u))
    assert trivial_grading(B).mixed is None
    C = b42(F3)
    for mode in ("isomorphism", "equivalence"):
        for args in ((B, trivial_grading(B), B, gc), (B, gc, B, trivial_grading(B)),
                     (B, gc, C, trivial_grading(C)), (C, trivial_grading(C), B, gc)):
            with pytest.raises(ValueError, match="degree 0 has a basis vector of mixed parity, 1 \\+ u"):
                find_graded_map(*args, mode=mode)


def test_enumerate_all_gradings_b12_lambda():
    S, _, _ = b12_lambda(F3, 1)
    res = enumerate_all_gradings(S)
    assert res.complete
    keys = {g.component_keys() for g in res.gradings}
    assert keys == {main_grading(S).component_keys(), trivial_grading(S).component_keys()}


def test_enumerate_all_gradings_b12_closure():
    B = b12(F3)
    res = enumerate_all_gradings(B)
    assert res.complete
    found = {g.component_keys() for g in res.gradings}
    # closed under coarsening
    for g in res.gradings:
        for c in coarsenings_enum(g):
            assert c.component_keys() in found
    # equals the coarsening closure of the degree gradings over all
    # symplectic bases of the odd part
    closure = set()
    lines = [(1, 0), (0, 1), (1, 1), (1, 2)]
    for i, (a, b) in enumerate(lines):
        for j, (c, d) in enumerate(lines):
            if i == j:
                continue
            u = (F3.zero, F3.from_int(a), F3.from_int(b))
            v = (F3.zero, F3.from_int(c), F3.from_int(d))
            g = grading_from_components(
                B, Z,
                [(Z.element(0), [B.basis_vector(0)]), (Z.element(1), [u]), (Z.element(-1), [v])],
            )
            ok, _ = validate(g)
            if not ok:
                continue
            for cg in coarsenings_enum(g):
                closure.add(cg.component_keys())
    assert found == closure


def test_enumerate_all_gradings_one_dimensional():
    F = F3
    A = SuperAlgebra(F, (0,), [[[F.one]]], [F.one], [[F.from_int(2)]], name="F")
    res = enumerate_all_gradings(A)
    assert res.complete and len(res.gradings) == 1
    assert res.gradings[0].component_keys() == trivial_grading(A).component_keys()


def test_fine_check_cartan_and_eq5():
    from compsuper.catalog import build_entry

    for id, f in (("eq7", F2), ("eq5", F4)):
        _, g = build_entry(id, f)
        status, _ = fine_check(g)
        assert status == "fine"


def test_fine_check_main_dim8_refinable():
    C, _ = super_split_cayley(F2)
    status, witness = fine_check(main_grading(C))
    assert status == "refinable"
    ok, _ = validate(witness)
    assert ok
    # the witness splits the odd part into two paired 2-dimensional pieces
    assert sorted(witness.dims()) == [2, 2, 4]


def test_fine_check_trivial_b12():
    B = b12(F3)
    status, witness = fine_check(trivial_grading(B))
    assert status == "refinable"
    assert witness.component_keys() == main_grading(B).component_keys()


def test_fine_check_budget():
    C, _ = super_split_cayley(F4)
    with pytest.raises(BudgetExhausted):
        fine_check(main_grading(C), budget=SearchBudget(3))


def _span_dedup_parity_splits(S, comp_vectors):
    """Reference for `_parity_splits`: every ordered pair of halves of the
    two blocks, unordered pairs deduplicated by the spans of W1, W2.  The
    even halves are generated as they are needed and the odd halves listed
    once, so splits stream out without every half held first."""
    F = S.field
    ev = [v for v in comp_vectors if S.parity_of(v) == 0]
    od = [v for v in comp_vectors if S.parity_of(v) == 1]

    def halves(block):
        if not block:
            yield [], []
            return
        yield list(block), []
        yield [], list(block)
        for w1, w2 in linalg.complementary_pairs(F, block):
            yield w1, w2
            yield w2, w1

    odd = list(halves(od))
    seen = set()
    for e1, e2 in halves(ev):
        for o1, o2 in odd:
            w1 = e1 + o1
            w2 = e2 + o2
            if not w1 or not w2:
                continue
            key = frozenset((linalg.span_key(F, w1), linalg.span_key(F, w2)))
            if key not in seen:
                seen.add(key)
                yield w1, w2


def _singleton_relations(S, comps):
    """`_RelationBuilder.relations` of `comps`, each component its own
    piece of a fresh builder, read off a table that tries the pieces in
    order."""
    builder = _RelationBuilder(S, comps)
    return builder.relations([(i,) for i in range(len(comps))],
                             builder.table(range(len(comps)), False))


def _reference_fine_check(grading, prune=True):
    """Reference for `fine_check`: the relations of every candidate are
    recomputed by a fresh `_RelationBuilder`; `prune=False` drops the
    "incoming products span the component" rule."""
    S = grading.algebra
    F = S.field
    comps = [list(vs) for _, vs in grading.comps]
    degs = [d for d, _ in grading.comps]
    deg_to_idx = {d: i for i, d in enumerate(degs)}
    for ci, comp in enumerate(comps):
        if len(comp) < 2:
            continue
        incoming = []
        for j in range(len(comps)):
            for k in range(len(comps)):
                if j == ci or k == ci or deg_to_idx.get(degs[j] + degs[k]) != ci:
                    continue
                for x in comps[j]:
                    for y in comps[k]:
                        p = S.mul(x, y)
                        if not linalg.vec_is_zero(F, p):
                            incoming.append(p)
        if prune and incoming and linalg.rank(F, incoming) == len(comp):
            continue
        for w1, w2 in _span_dedup_parity_splits(S, comp):
            cand = comps[:ci] + comps[ci + 1:] + [w1, w2]
            rels = _singleton_relations(S, cand)
            if rels is None:
                continue
            G, proj = presentation_to_group(len(cand), rels)
            if len(set(proj)) != len(proj):
                continue
            witness = grading_from_components(S, G, list(zip(proj, cand)))
            if validate(witness)[0]:
                return "refinable", witness
    return "fine", None


# the GF(2) and GF(3) cases of the benchmark's fineness workload
FINENESS_SMALL_CASES = (
    [("eq1", 3), ("eq2", 3), ("eq5", 2), ("eq6", 2), ("eq7", 2), ("okuboeq1", 2),
     ("okuboeq6", 2), ("main-okubo-nst", 2)]
    + [("main-cd8", 2), ("main-b12", 3), ("main-cd4", 2), ("trivial-b12", 3),
       ("trivial-b42", 3), ("trivial-cd4", 2), ("trivial-cd8", 2), ("trivial-okubo-nst", 2)]
)


def test_parity_splits_match_span_dedup():
    """The index rule yields the same splits, in the same order, as
    deduplicating every ordered split by its spans."""
    for id, q in (("main-okubo-nst", 2), ("main-cd8", 2), ("trivial-cd4", 4),
                  ("trivial-b12", 3), ("eq7", 4)):
        _, g = build_entry(id, GF(q))
        for _, comp in g.comps:
            got = list(_parity_splits(g.algebra, comp))
            assert got == list(_span_dedup_parity_splits(g.algebra, comp)), (id, q)


def test_split_relations_match_set_grading_relations():
    """Reading the untouched pairs and every landing off the grading's
    table gives the relations computed from scratch, split by split,
    including pairs whose products must fit inside one part (eq7/GF(4)
    has pairs landing in each part)."""
    for id, q in (("eq7", 4), ("main-cd4", 4), ("main-cd8", 2)):
        _, g = build_entry(id, GF(q))
        S = g.algebra
        comps = [list(vs) for _, vs in g.comps]
        for ci, comp in enumerate(comps):
            others = comps[:ci] + comps[ci + 1:]
            for w1, w2 in _parity_splits(S, comp):
                cand = others + [w1, w2]
                want = _singleton_relations(S, cand)
                assert _split_relations(g, ci, w1, w2) == want, (id, q, ci)


def test_fine_check_builds_each_component_pair_products_once(monkeypatch):
    """`validate`, `fine_check`, `universal_group`, `coarsenings_enum`
    and `fine_check` again on one grading compute the products of each
    ordered pair of whole components at most once between them,
    whichever components are split: all of them read the grading's
    builder.  The first three gradings have two components whose splits
    are tried, eq7 skips all of its components on their incoming
    products, and eq2 is over a field of characteristic 3."""
    for id, q in (("cor1eq5", 2), ("cor1eq6", 4), ("okuboeq4", 4), ("eq7", 4), ("eq2", 3)):
        _, g = build_entry(id, GF(q))
        whole = {tuple(vs): k for k, (_, vs) in enumerate(g.comps)}
        built = []

        def counting(algebra, xs, ys, built=built):
            a, b = whole.get(tuple(xs)), whole.get(tuple(ys))
            if a is not None and b is not None:
                built.append((a, b))
            return _products(algebra, xs, ys)

        monkeypatch.setattr(gradings, "_products", counting)
        monkeypatch.setattr(search, "_products", counting)
        assert validate(g) == (True, None), (id, q)
        fine_check(g)
        universal_group(g)
        coarsenings_enum(g)
        fine_check(g)
        monkeypatch.undo()
        assert built, (id, q)
        assert len(built) == len(set(built)), (id, q)


# (entry, field) pairs that a single split refines although the
# "incoming products span the component" rule skips the component that
# the split needs
SINGLE_SPLIT_REFINABLE = (
    [("eq3", 3), ("eq3", 9)]
    + [(f"cor1eq{i}", q) for i in (10, 11, 12, 13) for q in (2, 4)]
    + [("okuboeq9", 2), ("okuboeq9", 4)]
    + [(f"okuboeq{i}", 4) for i in (10, 11, 12)]
)


@pytest.mark.parametrize("id,q", SINGLE_SPLIT_REFINABLE)
def test_single_split_refines_gradings_that_the_incoming_rule_skips(id, q):
    """The reference search without the "incoming" rule finds a
    validated single-split refinement of each of these gradings, so a
    "fine" verdict on them is false.  This asserts nothing about
    `fine_check`, whose rule makes it answer "fine" here today."""
    _, g = build_entry(id, GF(q))
    status, witness = _reference_fine_check(g, prune=False)
    assert status == "refinable", (id, q)
    assert validate(witness)[0], (id, q)
    assert is_refinement(witness, g), (id, q)
    assert len(witness.comps) == len(g.comps) + 1, (id, q)


def test_fine_check_matches_reference_with_and_without_prune():
    """Same status and witness as the from-scratch reference on every
    small case of the fineness workload.  Without the "incoming products
    span the component" rule the reference reaches the same verdicts on
    these cases; the rule is unsound elsewhere (see
    `test_single_split_refines_gradings_that_the_incoming_rule_skips`)."""
    for id, q in FINENESS_SMALL_CASES:
        _, g = build_entry(id, GF(q))
        status, witness = fine_check(g)
        ref_status, ref_witness = _reference_fine_check(g)
        assert status == ref_status, (id, q)
        assert (witness and witness.to_json()) == (ref_witness and ref_witness.to_json()), (id, q)
        assert _reference_fine_check(g, prune=False)[0] == status, (id, q)


def test_complement_enumeration_matches_scan_oracle():
    """The graph-of-linear-maps complement enumeration agrees with the
    brute-force subspace-pair scan."""
    from compsuper import linalg
    from compsuper.fields import GF, QQ, InfiniteField

    for q, d in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 4)):
        F = GF(q)
        basis = [tuple(F.one if i == j else F.zero for i in range(d)) for j in range(d)]
        got = set()
        for w1, w2 in linalg.complementary_pairs(F, basis):
            assert linalg.rank(F, list(w1) + list(w2)) == d
            key = frozenset((linalg.span_key(F, w1), linalg.span_key(F, w2)))
            assert key not in got
            got.add(key)
        oracle = set()
        for k in range(1, d):
            for w1 in linalg.subspaces_of_span(F, basis, k):
                for w2 in linalg.subspaces_of_span(F, basis, d - k):
                    if linalg.rank(F, list(w1) + list(w2)) == d:
                        oracle.add(frozenset((linalg.span_key(F, w1), linalg.span_key(F, w2))))
        assert got == oracle


def _reference_decompositions_of_block(F, block_basis):
    """Reference for `_decompositions_of_block`: a rank check of the
    stacked vectors for every candidate subspace."""
    d = len(block_basis)
    if d == 0:
        return [()]
    subspaces = []
    for k in range(1, d + 1):
        subspaces.extend(linalg.subspaces_of_span(F, block_basis, k))
    keys = {s: linalg.span_key(F, s) for s in subspaces}
    out = []

    def rec(chosen, dim_used, min_key):
        if dim_used == d:
            out.append(tuple(chosen))
            return
        for s in subspaces:
            k = keys[s]
            if min_key is not None and k <= min_key:
                continue
            if dim_used + len(s) > d:
                continue
            stacked = [v for c in chosen for v in c] + list(s)
            if linalg.rank(F, stacked) != dim_used + len(s):
                continue
            chosen.append(s)
            rec(chosen, dim_used + len(s), k)
            chosen.pop()

    rec([], 0, None)
    return out


def _zero_algebra(F, n):
    """The all-even n-dimensional algebra with zero multiplication and a
    zero form: every decomposition of a block of it is closed."""
    z = F.zero
    zeros = [[z] * n for _ in range(n)]
    return SuperAlgebra(F, (0,) * n, [zeros] * n, [z] * n, zeros)


def _no_budget():
    pass


def test_decompositions_of_block_match_rank_check():
    """On an algebra with zero multiplication, which prunes nothing, the
    closure-pruned listing gives every decomposition, in the order of a
    rank check per candidate, on whole spaces and on a block spanned by
    some coordinates of a larger space."""
    def unit(F, n, i):
        return tuple(F.one if j == i else F.zero for j in range(n))

    counts = {}
    for q, d in ((2, 4), (3, 2), (4, 2), (9, 2), (2, 1), (2, 0)):
        F = GF(q)
        block = [unit(F, d, i) for i in range(d)]
        got = _decompositions_of_block(_zero_algebra(F, d), block, _no_budget)
        assert got == _reference_decompositions_of_block(F, block), (q, d)
        counts[q, d] = len(got)
    assert counts == {(2, 4): 2921, (3, 2): 7, (4, 2): 11, (9, 2): 46, (2, 1): 1, (2, 0): 1}
    F = GF(3)
    block = [unit(F, 5, 1), unit(F, 5, 3), unit(F, 5, 4)]
    got = _decompositions_of_block(_zero_algebra(F, 5), block, _no_budget)
    assert got == _reference_decompositions_of_block(F, block)


@pytest.fixture(scope="module")
def reference_blocks():
    """The reference listings of the blocks met in this module, kept
    across tests: split4/GF(3) has 132,706 even decompositions."""
    return {}


def _reference_blocks(S, cache):
    """The reference listings of S's even and odd blocks."""
    out = []
    for idx in (S.even_indices(), S.odd_indices()):
        block = tuple(S.basis_vector(i) for i in idx)
        if (S.field, block) not in cache:
            cache[S.field, block] = _reference_decompositions_of_block(S.field, list(block))
        out.append(cache[S.field, block])
    return out


def _closed_under_products(S, block, dec, memo):
    """Whether the products of each ordered pair of pieces of `dec`, a
    decomposition of span(block), lie in a single piece whenever they lie
    in the block, by a rank test per pair and piece.  Products of two
    odd pieces are even, so every decomposition of the odd block passes.
    `memo` keeps the products and the tests under the subspaces."""
    F = S.field
    for a in dec:
        for b in dec:
            if (a, b) not in memo:
                prods = [S.mul(x, y) for x in a for y in b]
                memo[a, b] = prods if linalg.rank(F, block + prods) == len(block) else None
            prods = memo[a, b]
            if prods is None:
                continue
            for c in dec:
                if (a, b, c) not in memo:
                    memo[a, b, c] = linalg.rank(F, list(c) + prods) == len(c)
                if memo[a, b, c]:
                    break
            else:
                return False
    return True


# the algebras of the brute-force cross-checks of the grading enumeration
CROSS_CHECK_ALGEBRAS = {
    "split4/GF(2)": lambda: split_hurwitz(4, F2)[0],
    "para-split4/GF(2)": lambda: para_hurwitz(split_hurwitz(4, F2)[0]),
    "split4/GF(3)": lambda: split_hurwitz(4, F3)[0],
    "CD(split2,1)/GF(4)": lambda: cayley_dickson_super(split_hurwitz(2, F4)[0], F4.one),
    "K/GF(4)": lambda: nonsplit_quadratic(F4),
    "B(1,2)/GF(9)": lambda: b12(GF(9)),
}


# the cross-check algebras, one algebra of each catalog family, and two over Q
MUL_ENTRIES_ALGEBRAS = {
    **CROSS_CHECK_ALGEBRAS,
    "b12/GF(3)": lambda: catalog._family_algebra("b12", F3)["algebra"],
    "b42/GF(9)": lambda: catalog._family_algebra("b42", GF(9))["algebra"],
    "cd4/GF(2)": lambda: catalog._family_algebra("cd4", F2)["algebra"],
    "cd8/GF(4)": lambda: catalog._family_algebra("cd8", F4)["algebra"],
    "okubo-nst/GF(2)": lambda: catalog._family_algebra("okubo-nst", F2)["algebra"],
    "okubo-omega/GF(4)": lambda: catalog._family_algebra("okubo-omega", F4)["algebra"],
    "split8/Q": lambda: split_hurwitz(8, QQ)[0],
    "para-split4/Q": lambda: para_hurwitz(split_hurwitz(4, QQ)[0]),
}


@pytest.mark.parametrize("label", sorted(MUL_ENTRIES_ALGEBRAS))
def test_mul_entries_matches_mul(label):
    """`mul_entries` on the nonzero entries of two vectors gives `mul` of
    the vectors: on every basis pair, and on 200 seeded random pairs
    whose entries are 0 half the time, zero vectors included."""
    import random

    S = MUL_ENTRIES_ALGEBRAS[label]()
    F = S.field
    z = F.zero

    def entries(v):
        return [(k, c) for k, c in enumerate(v) if c != z]

    basis = S.basis()
    for x in basis:
        for y in basis:
            assert S.mul_entries(entries(x), entries(y)) == S.mul(x, y), label
    if F.order is None:
        scalars = [F.mul(F.from_int(a), F.inv(F.from_int(b))) for a in (-2, -1, 1, 3) for b in (1, 2)]
    else:
        scalars = [c for c in F.elements() if c != z]
    rng = random.Random(31)
    vectors = [S.zero()] + [tuple(rng.choice(scalars) if rng.random() < 0.5 else z
                                  for _ in range(S.dim)) for _ in range(40)]
    for _ in range(200):
        x, y = rng.choice(vectors), rng.choice(vectors)
        assert S.mul_entries(entries(x), entries(y)) == S.mul(x, y), label
    assert S.mul_entries([], entries(vectors[1])) == S.zero()


@pytest.mark.parametrize("label", sorted(CROSS_CHECK_ALGEBRAS))
def test_closed_decompositions_match_the_filtered_rank_check(label, reference_blocks):
    """The closure-pruned listing of each block is the rank-check
    listing filtered by "every pair product lies in one piece", in the
    same order."""
    S = CROSS_CHECK_ALGEBRAS[label]()
    refs = _reference_blocks(S, reference_blocks)
    for idx, ref in zip((S.even_indices(), S.odd_indices()), refs):
        block = [S.basis_vector(i) for i in idx]
        got = _decompositions_of_block(S, block, _no_budget)
        memo = {}
        assert got == [dec for dec in ref if _closed_under_products(S, block, dec, memo)], label


def test_the_block_listing_computes_no_rank_after_its_span_keys(monkeypatch):
    """The listing's span keys are its only rref calls: 66 on the even
    block of split4/GF(2), one per subspace, where a rank test per direct
    sum and per product span made 1,358."""
    calls = []
    rref = linalg.rref

    def counting(field, rows):
        calls.append(rows)
        return rref(field, rows)

    S = CROSS_CHECK_ALGEBRAS["split4/GF(2)"]()
    block = [S.basis_vector(i) for i in S.even_indices()]
    monkeypatch.setattr(linalg, "rref", counting)
    got = _decompositions_of_block(S, block, _no_budget)
    assert (len(got), len(calls)) == (23, 66)


def test_the_odd_block_listing_forms_no_product(monkeypatch):
    """Odd x odd products are even, so the odd block's closure test can
    never fail and forms none of them: 0 `mul` calls, where testing every
    pair of lines met made 100 on B(1,2)/GF(9) and 25 on
    CD(split2,1)/GF(4).  The decompositions and ticks (67 and 22) are
    those of the full test."""
    calls = []
    mul = SuperAlgebra.mul

    def counting(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(SuperAlgebra, "mul", counting)
    for label, want in (("B(1,2)/GF(9)", (46, 67)), ("CD(split2,1)/GF(4)", (11, 22))):
        S = CROSS_CHECK_ALGEBRAS[label]()
        calls.clear()
        ticks = []
        got = _decompositions_of_block(S, [S.basis_vector(i) for i in S.odd_indices()],
                                       lambda: ticks.append(1))
        assert (len(got), len(ticks), len(calls)) == (*want, 0), label


def test_listed_gradings_and_coarsenings_are_pairwise_distinct():
    """Neither listing checks for repeats, and none occurs: the component
    subspaces of the listed gradings of each cross-check algebra, and of
    the coarsenings of catalog gradings, are pairwise distinct."""
    for label, build in CROSS_CHECK_ALGEBRAS.items():
        keys = [g.component_keys() for g in enumerate_all_gradings(build()).gradings]
        assert len(set(keys)) == len(keys), label
    for id, q in (("eq7", 2), ("okuboeq3", 4), ("eq2", 3), ("cor1eq5", 2)):
        keys = [g.component_keys() for g in coarsenings_enum(build_entry(id, GF(q))[1])]
        assert len(set(keys)) == len(keys) > 1, (id, q)


def test_each_presentation_is_turned_into_a_group_once_per_call(monkeypatch):
    """One Smith form per distinct presentation within a listing, kept
    for that call only: B(1,2)/GF(9)'s 47 gradings come from 3
    presentations, and a second listing computes them again."""
    from compsuper import abelian

    calls = []
    smith = abelian._smith_form

    def counting(M, track_rows):
        calls.append(tuple(map(tuple, M)))
        return smith(M, track_rows)

    monkeypatch.setattr(abelian, "_smith_form", counting)
    S = CROSS_CHECK_ALGEBRAS["B(1,2)/GF(9)"]()
    for _ in range(2):
        calls.clear()
        assert len(enumerate_all_gradings(S).gradings) == 47
        assert len(calls) == len(set(calls)) == 3
    calls.clear()
    assert len(coarsenings_enum(build_entry("eq7", F2)[1])) == 19
    assert len(calls) == len(set(calls))


def _block_lines(S, idx):
    """`_BlockLines` over the listed subspaces of the block of S spanned
    by the basis vectors `idx`, with the subspaces' rref bases."""
    F = S.field
    block = [S.basis_vector(i) for i in idx]
    keys = [linalg.span_key(F, sub) for k in range(1, len(block) + 1)
            for sub in linalg.subspaces_of_span(F, block, k)]
    return search._BlockLines(S, keys, {key: t for t, key in enumerate(keys)})


def _reference_lines(lat, rows):
    """(dim, lines) of span(rows) in `_BlockLines`' form, from its rref
    key and the rref key of each of its nonzero vectors; None when the
    span is zero or not in the block."""
    F = lat.S.field
    key = linalg.span_key(F, rows)
    if not key or key not in lat.index:
        return None
    k = len(key)
    if k == lat.d > 1:
        return k, -1
    ids = {lat.index[linalg.span_key(F, [v])]
           for v in linalg.span_vectors(F, key, len(key[0]))}
    return (k, ids.pop()) if k == 1 else (k, sum(1 << i for i in ids))


@pytest.mark.parametrize("label", ["split4/GF(2)", "para-split4/GF(2)", "CD(split2,1)/GF(4)",
                                   "B(1,2)/GF(9)"])
def test_folded_sums_and_products_match_rref_spans(label):
    """In both blocks, the lines of each listed subspace, each folded
    direct sum of two listed subspaces that meet only in 0, and each
    folded P_ab are those of the rref span of the stacked rows and of
    `gradings._products`."""
    S = CROSS_CHECK_ALGEBRAS[label]()
    F = S.field
    sums = products = 0
    for idx in (S.even_indices(), S.odd_indices()):
        if not idx:
            continue
        lat = _block_lines(S, idx)
        ref = [_reference_lines(lat, key) for key in lat.keys]
        assert [(len(key), lat.lines(t)) for t, key in enumerate(lat.keys)] == ref
        for a, ka in enumerate(lat.keys):
            for b, kb in enumerate(lat.keys):
                stacked = list(ka) + list(kb)
                if linalg.rank(F, stacked) == len(stacked):
                    assert lat.direct_sum(*ref[a], b) == _reference_lines(lat, stacked), (a, b)
                    sums += 1
                want = _reference_lines(lat, _products(S, ka, kb))
                assert lat.product(a, b) == want, (a, b)
                products += 1 if want else 0
    assert sums and products, label


def test_a_product_span_partly_outside_the_block_is_not_in_it():
    """P_ab is None as soon as one product of rref rows leaves the block,
    even when the others span the block: on span(e0, e1) of a 3-dim
    algebra with e0*e0 = e0, e0*e1 = e2 and e1*e1 = e1."""
    F = F3
    o, z = F.one, F.zero
    e = [tuple(o if j == i else z for j in range(3)) for i in range(3)]
    table = [[(z,) * 3] * 3 for _ in range(3)]
    table[0][0], table[0][1], table[1][1] = e[0], e[2], e[1]
    zeros = [[z] * 3 for _ in range(3)]
    S = SuperAlgebra(F, (0, 0, 0), table, [z] * 3, zeros)
    lat = _block_lines(S, [0, 1])
    whole = len(lat.keys) - 1
    assert _reference_lines(lat, _products(S, lat.keys[whole], lat.keys[whole])) is None
    assert lat.product(whole, whole) is None
    assert lat.product(lat.index[(e[0],)], lat.index[(e[1],)]) is None
    assert lat.product(lat.index[(e[1],)], lat.index[(e[1],)]) == (1, lat.index[(e[1],)])


def _cartesian_gradings(S, blocks):
    """Test-local copy of the grading enumeration over every pair of
    block decompositions `blocks` (even, odd), closed or not, with no
    budget.  It reads each block's relations off a table that tries the
    pieces in order, rules out no block, deduplicates by component
    subspaces and presents each group afresh."""
    pieces = list(dict.fromkeys(sub for block in blocks for dec in block for sub in dec))
    piece_ids = {sub: i for i, sub in enumerate(pieces)}
    even_decomps, odd_decomps = (
        [tuple(piece_ids[sub] for sub in dec) for dec in block] for block in blocks
    )
    builder = _RelationBuilder(S, pieces)
    out = []
    seen = set()
    for de in even_decomps:
        for do in odd_decomps:
            table = builder.table(de + do, False)
            for matching in search._partial_matchings(len(de), len(do)):
                used_odd = set(matching.values())
                comps = [(e, do[matching[i]]) if i in matching else (e,)
                         for i, e in enumerate(de)]
                comps += [(o,) for j, o in enumerate(do) if j not in used_odd]
                rels = builder.relations(comps, table)
                if rels is None:
                    continue
                cand = _separating_grading(S, *presentation_to_group(len(comps), rels),
                                           [builder.vectors(c) for c in comps])
                if cand is None or cand.component_keys() in seen:
                    continue
                seen.add(cand.component_keys())
                out.append(cand)
    return out


@pytest.mark.parametrize("label", ["split4/GF(2)", "para-split4/GF(2)", "split4/GF(3)",
                                   "CD(split2,1)/GF(4)", "B(1,2)/GF(9)"])
def test_enumerate_all_gradings_matches_the_cartesian_listing(label, reference_blocks):
    """Listing only closed even decompositions returns the gradings of
    the Cartesian listing, in the same order."""
    S = CROSS_CHECK_ALGEBRAS[label]()
    res = enumerate_all_gradings(S)
    want = _cartesian_gradings(S, _reference_blocks(S, reference_blocks))
    assert res.complete
    assert [g.to_json() for g in res.gradings] == [g.to_json() for g in want], label
    if label == "split4/GF(3)":
        assert len(want) == 20


# (nodes, groups, sha256 of the gradings' `to_json` list dumped with sorted
# keys) of `enumerate_all_gradings`, computed before the listing answered
# its subspace questions with line sets (split4 over GF(3) and GF(4): before
# it answered them with line masks)
PINNED_LISTINGS = {
    "split4/GF(2)": (1341, ["Z", "Z", "Z", "Z2", "Z2", "Z2", "Z2", "0"],
                     "1c53f2684c86674d621f4b7294ca71cbb8df90743aec9ffcfffca66a01881f01"),
    "para-split4/GF(2)": (912, ["Z", "Z", "Z", "Z2", "Z2", "Z2", "Z2", "0"],
                          "1c53f2684c86674d621f4b7294ca71cbb8df90743aec9ffcfffca66a01881f01"),
    "split2/GF(101)": (5362, ["Z2", "0"],
                       "5b6f9aeb22b162e7b666bd4c9fe3f1719daf28648ae3e6eb742d1e323e69775f"),
    "split4/GF(3)": (26515, ["Z2^2", "Z2^2", "Z", "Z", "Z2^2", "Z2^2", "Z", "Z", "Z", "Z2", "Z2",
                             "Z2", "Z2", "Z2", "Z2", "Z2", "Z", "Z2", "Z2", "0"],
                     "445a5eebcab82239658e2aec5bbb98090087d8fab53b3975f11013e07176a97f"),
    "split4/GF(4)": (527308, ["Z", "Z", "Z", "Z", "Z", "Z", "Z", "Z2", "Z2", "Z2", "Z2", "Z",
                              "Z2", "Z2", "Z2", "Z2", "Z2", "Z2", "Z", "Z2", "Z2", "Z2", "Z",
                              "Z2", "Z2", "Z2", "0"],
                     "32f80a359e46da637ddb9d55cf8d368188d6e309f7972254970ece2755c941d5"),
}


@pytest.mark.parametrize("label", sorted(PINNED_LISTINGS))
def test_grading_listing_keeps_its_nodes_and_gradings(label):
    import hashlib
    import json

    S = {**CROSS_CHECK_ALGEBRAS, "split2/GF(101)": lambda: split_hurwitz(2, GF(101))[0],
         "split4/GF(4)": lambda: split_hurwitz(4, F4)[0]}[label]()
    res = enumerate_all_gradings(S)
    data = [g.to_json() for g in res.gradings]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert (res.complete, res.nodes, [g["group"] for g in data], digest) == (True, *PINNED_LISTINGS[label])


def test_budget_bounds_the_decomposition_listing():
    """A budget of 10 nodes stops split4/GF(4) inside its even-block
    listing (2,488,257 decompositions unpruned): the eleventh charged
    node ends the search with no grading."""
    class CountingBudget(SearchBudget):
        def __init__(self):
            self.charged = 0

        @property
        def max_nodes(self):
            self.charged += 1
            return 10

    budget = CountingBudget()
    res = enumerate_all_gradings(split_hurwitz(4, F4)[0], budget=budget)
    assert (res.complete, res.gradings, res.nodes) == (False, [], 11)
    assert budget.charged == 11


def test_budget_bounds_the_subspace_listing(monkeypatch):
    """Each subspace listed is charged before the next is made: the even
    block of split2/GF(1000003) has 1,000,005 subspaces, and a budget of
    1000 nodes stops the listing at the 1001st."""
    listed = []
    subspaces_of_span = linalg.subspaces_of_span

    def counting(field, basis, k):
        for sub in subspaces_of_span(field, basis, k):
            listed.append(sub)
            yield sub

    S = split_hurwitz(2, GF(1000003))[0]
    monkeypatch.setattr(linalg, "subspaces_of_span", counting)
    res = enumerate_all_gradings(S, budget=SearchBudget(1000))
    assert (res.complete, res.gradings, res.nodes) == (False, [], 1001)
    assert len(listed) == 1001


def test_dimension_guard():
    from compsuper.search import DimensionTooLarge

    C, _ = super_split_cayley(F2)
    with pytest.raises(DimensionTooLarge):
        enumerate_all_gradings(C)


def test_find_graded_map_budget_exhaustion_is_distinct_from_none():
    C, cb = super_split_cayley(F4)
    from compsuper.abelian import AbGroup
    from compsuper.gradings import gamma_grading_dim8

    G = AbGroup(0, (4,))
    t = (G.element(1), G.element(2), G.element(1))
    g = gamma_grading_dim8(C, cb, G, t)
    # force the search past the identity fast path with two distinct
    # gradings, and give it almost no budget
    t2 = (G.element(2), G.element(1), G.element(1))
    g2 = gamma_grading_dim8(C, cb, G, t2)
    with pytest.raises(BudgetExhausted):
        find_graded_map(C, g, C, g2, budget=SearchBudget(2))


def test_induced_coarsenings_of_the_cartan_grading_always_validate():
    """Property: any homomorphic relabelling of the Cartan grading is a
    valid grading whose universal group separates components."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from compsuper.abelian import AbGroup, AbHom
    from compsuper.gradings import gamma_grading_dim8, induce

    C, cb = super_split_cayley(F2)
    ZZ = AbGroup(2)
    cartan = gamma_grading_dim8(
        C, cb, ZZ, (ZZ.element(1, 0), ZZ.element(0, 1), ZZ.element(-1, -1))
    )
    targets = [AbGroup(0, (4,)), AbGroup(0, (2, 2)), AbGroup(0, (6,)), AbGroup(1)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.data())
    def run(ti, data):
        G = targets[ti]
        gens = list(G.elements()) if G.is_finite() else [G.element(k) for k in range(-3, 4)]
        a = data.draw(st.sampled_from(gens))
        b = data.draw(st.sampled_from(gens))
        hom = AbHom(ZZ, G, (a, b))
        g = induce(cartan, hom)
        ok, _ = validate(g)
        assert ok
        _, _, injective = universal_group(g)
        assert injective

    run()
