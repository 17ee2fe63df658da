import pytest

from compsuper import linalg
from compsuper.abelian import AbGroup, AbHom, WrongGroup, presentation_to_group
from compsuper.constructions import (
    b12,
    b42,
    cayley_dickson_super,
    split_hurwitz,
    super_split_cayley,
    super_split_quaternion,
)
from compsuper.fields import GF
from compsuper.gradings import (
    Grading,
    TripleNotZeroSum,
    _RelationBuilder,
    coarsenings_enum,
    gamma_equiv,
    gamma_grading_b12,
    gamma_grading_b42,
    gamma_grading_dim8,
    grading_from_components,
    grading_from_degrees,
    induce,
    is_refinement,
    main_grading,
    trivial_grading,
    universal_group,
    validate,
)

F2, F3, F4 = GF(2), GF(3), GF(4)
Z = AbGroup(1)
Z2 = AbGroup(0, (2,))
ZZ = AbGroup(2)


def _cartan(C, cb):
    gam = (ZZ.element(1, 0), ZZ.element(0, 1), ZZ.element(-1, -1))
    return gamma_grading_dim8(C, cb, ZZ, gam)


def test_validate_cartan_and_eq1():
    C, cb = super_split_cayley(F2)
    ok, _ = validate(_cartan(C, cb))
    assert ok
    B = b12(F3)
    ok, _ = validate(gamma_grading_b12(B, Z, Z.element(1)))
    assert ok


def test_validate_rejects_bad_degrees():
    """The witness is the first product, pair by pair in component order,
    that lies outside the component of its degree."""
    for algebra, degrees, witness in (
        # u and v both in degree 1: u.v = 1 would have to land in degree 2
        (b12, [0, 1, 1], ("1", "1", "1")),
        # 1 and v in degree 0, u in degree 1: v.u = 2 lands in degree 1, outside span(u)
        (b12, [0, 1, 0], ("0", "1", "(2)*1")),
        # x in degree 2, v in degree 1: x.v = 2u would land in degree 3, which is absent
        (b42, [0, 0, 2, -2, -1, 1], ("2", "1", "(2)*u")),
    ):
        bad = grading_from_degrees(algebra(F3), Z, [Z.element(d) for d in degrees])
        assert validate(bad) == (False, witness), (algebra.__name__, degrees)


def test_support():
    B4 = b42(F3)
    g = gamma_grading_b42(B4, Z, Z.element(1))
    assert sorted(d.coords[0] for d in g.degrees()) == [-2, -1, 0, 1, 2]
    assert [d.coords for d in trivial_grading(B4).degrees()] == [()]
    mg = main_grading(B4)
    assert sorted(d.coords[0] for d in mg.degrees()) == [0, 1]


def test_universal_groups():
    B4 = b42(F3)
    g2 = gamma_grading_b42(B4, Z, Z.element(1))
    G, proj, inj = universal_group(g2)
    assert str(G) == "Z" and inj
    from compsuper.catalog import build_entry

    _, g4 = build_entry("eq4", F3)
    G, _, inj = universal_group(g4)
    assert str(G) == "Z3" and inj
    _, g6 = build_entry("eq6", F2)
    G, _, inj = universal_group(g6)
    assert str(G) == "Z2^2" and inj


def test_universal_group_noninjective_flag():
    # set-decomposition {Fe1, Fe2} of the split 2-dimensional algebra: both
    # parts are idempotent, so both degrees die in the universal group
    A, _ = split_hurwitz(2, F2)
    g = grading_from_degrees(A, Z2, [Z2.element(0), Z2.element(1)])
    ok, _ = validate(g)
    assert not ok  # e2.e2 = e2 cannot land in the degree-0 component
    G, proj, inj = universal_group(g)  # as a set grading it still presents
    assert not inj and str(G) == "0"


def test_induce():
    C, cb = super_split_cayley(F2)
    cartan = _cartan(C, cb)
    add = AbHom(ZZ, Z, (Z.element(1), Z.element(1)))
    five = induce(cartan, add)
    ok, _ = validate(five)
    assert ok
    assert sorted(d.coords[0] for d in five.degrees()) == [-2, -1, 0, 1, 2]
    from compsuper.catalog import build_entry

    _, cor1eq7 = build_entry("cor1eq7", F2)
    assert five.component_keys() == cor1eq7.component_keys()
    # zero map gives the trivial grading
    zero = AbHom(ZZ, Z, (Z.element(0), Z.element(0)))
    assert induce(cartan, zero).component_keys() == trivial_grading(C).component_keys()
    # eq1 through Z -> Z2 gives the main grading
    B = b12(F3)
    eq1 = gamma_grading_b12(B, Z, Z.element(1))
    to2 = AbHom(Z, Z2, (Z2.element(1),))
    assert induce(eq1, to2).component_keys() == main_grading(B).component_keys()


def test_induce_identity_is_identity():
    B = b12(F3)
    eq1 = gamma_grading_b12(B, Z, Z.element(1))
    ident = AbHom(Z, Z, (Z.element(1),))
    assert induce(eq1, ident).comps == eq1.comps


def _eq1():
    return gamma_grading_b12(b12(F3), Z, Z.element(1))


@pytest.mark.parametrize("call, exc", [
    (lambda: Grading(b12(F3), Z, ((Z.element(0), ()),)), ValueError),
    (lambda: induce(_eq1(), "not a hom"), ValueError),
    (lambda: induce(_eq1(), AbHom(Z2, Z2, (Z2.element(1),))), WrongGroup),
    (lambda: is_refinement(main_grading(b12(F3)), main_grading(b12(F3))), ValueError),
    (lambda: gamma_grading_b12(b42(F3), Z, Z.element(1)), ValueError),
    (lambda: gamma_grading_b42(b12(F3), Z, Z.element(1)), ValueError),
], ids=["empty-component", "induce-not-a-hom", "induce-wrong-source",
        "refinement-of-two-algebras", "b12-wrong-dimension", "b42-wrong-dimension"])
def test_bad_caller_data_raises(call, exc):
    with pytest.raises(exc):
        call()


def test_is_refinement():
    from compsuper.catalog import build_entry

    _, eq2 = build_entry("eq2", F3)
    _, eq3 = build_entry("eq3", F3)
    _, eq4 = build_entry("eq4", F3)
    assert is_refinement(eq2, eq3)
    assert is_refinement(eq2, trivial_grading(eq2.algebra))
    assert not is_refinement(eq3, eq4)


def test_coarsenings_eq2():
    from compsuper.catalog import build_entry

    _, eq2 = build_entry("eq2", F3)
    got = {g.component_keys(): str(g.group) for g in coarsenings_enum(eq2)}
    assert len(got) == 5
    assert sorted(got.values()) == ["0", "Z", "Z2", "Z3", "Z4"]


def test_coarsenings_eq1_and_trivial():
    B = b12(F3)
    eq1 = gamma_grading_b12(B, Z, Z.element(1))
    got = {str(g.group) for g in coarsenings_enum(eq1)}
    assert got == {"Z", "Z2", "0"}
    t = trivial_grading(B)
    assert [g.component_keys() for g in coarsenings_enum(t)] == [t.component_keys()]


def test_universal_of_induced_never_grows():
    """Inducing and recomputing gives a group the original universal group
    surjects onto (checked on the support generators)."""
    C, cb = super_split_cayley(F2)
    cartan = _cartan(C, cb)
    add = AbHom(ZZ, Z, (Z.element(1), Z.element(1)))
    five = induce(cartan, add)
    G5, proj5, _ = universal_group(five)
    # the degree map of the coarsening factors through the original one
    G2, proj2, _ = universal_group(cartan)
    assert str(G2) == "Z^2" and str(G5) == "Z"


def test_gamma_grading_dim8():
    C, cb = super_split_cayley(F2)
    G = AbGroup(0, (2, 2))
    gam = (G.element(1, 0), G.element(0, 1), G.element(1, 1))
    g = gamma_grading_dim8(C, cb, G, gam)
    ok, _ = validate(g)
    assert ok
    zero_triple = (G.zero(), G.zero(), G.zero())
    t = gamma_grading_dim8(C, cb, G, zero_triple)
    assert t.component_keys() == trivial_grading(C).component_keys()
    with pytest.raises(TripleNotZeroSum):
        gamma_grading_dim8(C, cb, G, (G.element(1, 0), G.element(0, 1), G.element(0, 1)))


def test_gamma_equiv():
    g1, g2, g3 = Z.element(1), Z.element(2), Z.element(-3)
    assert gamma_equiv((g1, g2, g3), (g2, g1, g3))
    assert gamma_equiv((g1, g2, g3), (-g1, -g2, -g3))
    a, b, c = Z.element(1), Z.element(1), Z.element(-2)
    assert not gamma_equiv((a, b, c), (a, c, b))


def test_grading_json_round_trip_fields():
    from compsuper.catalog import build_entry

    _, g = build_entry("cor1eq12", F2)
    data = g.to_json()
    assert data["group"] == "Z x Z2"
    assert all(len(c["coords"]) == 2 for c in data["components"])


def _reference_relations(algebra, comps):
    """Reference for the relation builder: the relations of a component
    list computed from scratch, every product and in-span test redone for
    each candidate."""
    F = algebra.field
    spans = [linalg.rref(F, list(vs)) for vs in comps]
    n = len(comps)
    rels = []
    for i in range(n):
        for j in range(n):
            prods = [algebra.mul(x, y) for x in comps[i] for y in comps[j]]
            prods = [p for p in prods if not linalg.vec_is_zero(F, p)]
            if not prods:
                continue
            for k, (rr, piv) in enumerate(spans):
                if all(linalg.in_span(F, rr, piv, p) for p in prods):
                    row = [0] * n
                    row[i] += 1
                    row[j] += 1
                    row[k] -= 1
                    rels.append(tuple(row))
                    break
            else:
                return None
    return rels


def _recorded_candidates(monkeypatch, run):
    """Run `run()` and return (builder, comps, relations) for every
    candidate that reaches `_RelationBuilder.distinct_gradings`, with the
    relations that decided it."""
    calls = []
    original = _RelationBuilder.distinct_gradings

    def recording(self, candidates):
        def seen():
            for comps, rels in candidates:
                calls.append((self, list(comps), rels))
                yield comps, rels
        return original(self, seen())

    monkeypatch.setattr(_RelationBuilder, "distinct_gradings", recording)
    run()
    monkeypatch.undo()
    return calls


def _assert_matches_reference(calls):
    for builder, comps, got in calls:
        vectors = [[v for a in c for v in builder.pieces[a]] for c in comps]
        assert got == _reference_relations(builder.algebra, vectors), comps


def _singleton_relations(algebra, comps):
    """The relations of the component list `comps`, each component its
    own piece of a fresh builder, read off a table that tries the pieces
    in order."""
    builder = _RelationBuilder(algebra, comps)
    return builder.relations([(i,) for i in range(len(comps))],
                             builder.table(range(len(comps)), False))


def test_set_grading_relations_match_reference():
    from compsuper.catalog import build_entry

    for id, q in (("eq1", 3), ("eq2", 3), ("eq5", 2), ("eq7", 4), ("okuboeq3", 4),
                  ("main-cd8", 2), ("trivial-b42", 3)):
        _, g = build_entry(id, GF(q))
        comps = [list(vs) for _, vs in g.comps]
        assert _singleton_relations(g.algebra, comps) == _reference_relations(g.algebra, comps)
        # and a refinement candidate, whose products may straddle components
        split = comps[:-1] + [comps[-1][:1], comps[-1][1:]] if len(comps[-1]) > 1 else comps
        assert _singleton_relations(g.algebra, split) == _reference_relations(g.algebra, split)


def test_each_pair_lands_once_per_grading(monkeypatch):
    """`validate` proves where each component pair lands with one in-span
    test per nonzero product, against the component of the expected
    degree, and `universal_group` and `coarsenings_enum` read the
    grading's landing table after it: no `in_span` and no `rref` call
    (`universal_group` alone re-tested them with 116 `in_span` and 7
    `rref` calls on eq7/GF(4), and 57 and 5 on eq2/GF(3))."""
    from compsuper.catalog import build_entry

    calls = {"rref": 0, "in_span": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for id, q, group in (("eq7", 4, "Z^2"), ("eq2", 3, "Z")):
        _, built = build_entry(id, GF(q))
        g = Grading(built.algebra, built.group, built.comps)  # a copy no one has read yet
        monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
        monkeypatch.setattr(linalg, "in_span", counted("in_span", linalg.in_span))
        calls.update(rref=0, in_span=0)
        assert validate(g) == (True, None), id
        n = len(g.comps)
        nonzero = sum(len(g.builder.products(a, b)) for a in range(n) for b in range(n))
        assert calls == {"rref": n + 1, "in_span": nonzero}, id  # spans, independence
        calls.update(rref=0, in_span=0)
        assert str(universal_group(g)[0]) == group, id
        coarsenings_enum(g)
        assert calls == {"rref": 0, "in_span": 0}, id
        monkeypatch.undo()


def _all_partitions(n):
    """Every set partition of range(n), as tuples of blocks, each block a
    tuple: item i joins each block of a partition of range(i), in order,
    or opens a new one."""
    parts = [()]
    for i in range(n):
        parts = [p[:k] + (p[k] + (i,),) + p[k + 1:] for p in parts for k in range(len(p))] + \
            [p + ((i,),) for p in parts]
    return parts


def _growth(partition):
    """The restricted-growth string of a partition: item -> its block."""
    return tuple(k for _, k in sorted((i, k) for k, block in enumerate(partition) for i in block))


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}  # set partitions of n items


def _read_partitions(monkeypatch, g):
    """The partitions whose relations `coarsenings_enum(g)` read, after
    checking that those relations are the from-scratch ones, that they
    came once each in restricted-growth order, and that every other
    partition's from-scratch relations are None."""
    calls = _recorded_candidates(monkeypatch, lambda: coarsenings_enum(g))
    _assert_matches_reference(calls)
    tried = [tuple(comps) for _, comps, _ in calls]
    comps = [list(vs) for _, vs in g.comps]
    everything = sorted(_all_partitions(len(comps)), key=_growth)
    assert len(everything) == BELL[len(comps)]
    assert tried == [p for p in everything if p in set(tried)]
    for partition in set(everything) - set(tried):
        merged = [[v for a in block for v in comps[a]] for block in partition]
        assert _reference_relations(g.algebra, merged) is None, partition
    return calls


def test_coarsening_relations_match_reference_or_are_pruned(monkeypatch):
    """On every partition of the components, `coarsenings_enum` either
    read relations equal to the from-scratch ones off the grading's
    table, or pruned the partition, whose from-scratch relations are then
    None.  The partitions that were read came once each, in
    restricted-growth order."""
    from compsuper.catalog import build_entry

    for id, q in (("eq7", 2), ("eq2", 3), ("okuboeq3", 4)):
        _, g = build_entry(id, GF(q))
        tried = _read_partitions(monkeypatch, g)
        if (id, q) == ("eq7", 2):
            assert len(tried) == 19  # of 877: every partition left gives a coarsening


def test_straddling_pairs_get_the_span_test_of_merged_components(monkeypatch):
    """On independent decompositions that are not gradings, a piece
    pair's products may lie in no single piece and yet in a merged
    component.  On seeded random decompositions of split4 over GF(2) and
    GF(3), every partition's relations still match the from-scratch ones,
    and some partition with a straddling pair gets relations: on
    {e1}, {e2}, {u1, v1} the products e1, e2 of u1 and v1 straddle, and
    merging e1 and e2 gives the Cartan Z2-grading."""
    import random

    from compsuper.gradings import STRADDLES

    rng = random.Random(30)
    straddled = 0
    for q in (2, 3):
        A, cb = split_hurwitz(4, GF(q))
        F = A.field
        v = cb.vectors
        cases = [[[v["e1"]], [v["e2"]], [v["u1"], v["v1"]]]]
        while len(cases) < 25:
            rows = [tuple(rng.choice(F.elements()) for _ in range(4)) for _ in range(4)]
            if linalg.rank(F, rows) < 4:
                continue
            cut = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
            cases.append([rows[a:b] for a, b in zip([0] + cut, cut + [4])])
        for pieces in cases:
            g = grading_from_components(A, Z, [(Z.element(k), vs) for k, vs in enumerate(pieces)])
            calls = _read_partitions(monkeypatch, g)
            if STRADDLES in g.table.values():
                straddled += any(rels is not None and len(comps) < len(pieces)
                                 for _, comps, rels in calls)
        cartan = coarsenings_enum(grading_from_components(
            A, Z, [(Z.element(k), vs) for k, vs in enumerate(cases[0])]))
        assert [(str(c.group), c.dims()) for c in cartan] == [("0", [4]), ("Z2", [2, 2])]
    assert straddled > 2
    # on split8/GF(2), the piece pairs (0, 1) and (0, 2) land in piece 0
    # and (0, 3) straddles into the span of pieces 1 to 3: of the
    # components (0,) and (1, 2, 3), only (0,) may hold all three products,
    # and it does not
    A, cb = split_hurwitz(8, F2)
    v = cb.vectors
    pieces = [[v["v3"], v["u2"]], [v["v1"], v["u1"], v["e2"]], [v["e1"]], [v["v2"], v["u3"]]]
    g = grading_from_components(A, Z, [(Z.element(k), vs) for k, vs in enumerate(pieces)])
    _read_partitions(monkeypatch, g)
    merged = [pieces[0], pieces[1] + pieces[2] + pieces[3]]
    assert g.builder.relations([(0,), (1, 2, 3)], g.table) is None
    assert _reference_relations(A, merged) is None


def test_universal_group_of_dependent_components_reads_the_first_component():
    """On components that are not independent, a product may lie in
    several of them, and its row names the first: here e1 = e1*e1 lies in
    both components, so the pair (0, 1) gives 0+1=0, although its degree
    table expects component 1."""
    A = split_hurwitz(2, F2)[0]
    e1, e2 = A.basis_vector(0), A.basis_vector(1)
    g = Grading(A, Z2, ((Z2.element(0), (e1,)), (Z2.element(1), (e1, e2))))
    assert not g.independent
    rels = g.builder.relations([(0,), (1,)], g.table)
    assert rels == _reference_relations(A, [[e1], [e1, e2]]) == [(1, 0), (0, 1), (0, 1), (0, 1)]
    assert universal_group(g) == (*presentation_to_group(2, rels), False)


def test_coarsenings_need_independent_components():
    A = split_hurwitz(2, F2)[0]
    e1, e2 = A.basis_vector(0), A.basis_vector(1)
    g = Grading(A, Z2, ((Z2.element(0), (e1,)), (Z2.element(1), (e1, e2))))
    with pytest.raises(ValueError, match="independent"):
        coarsenings_enum(g)


def test_coarsenings_of_a_decomposition_that_is_not_a_grading():
    """On split4/GF(2) with {e1, u1} in degree 0 and {e2, v1} in degree 1
    of Z2, where u1 e2 = u1 lies in degree 0, the only coarsening is the
    trivial grading (the output computed before partitions were pruned)."""
    A, cb = split_hurwitz(4, F2)
    v = cb.vectors
    g = grading_from_components(A, Z2, [(Z2.element(0), [v["e1"], v["u1"]]),
                                        (Z2.element(1), [v["e2"], v["v1"]])])
    assert [c.to_json() for c in coarsenings_enum(g)] == [{
        "group": "0",
        "components": [{
            "degree": "0", "coords": [], "parity": [0, 0, 0, 0],
            "basis": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                      ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
        }],
    }]


# (candidates, candidates whose relations are read off their block's
# table) of `enumerate_all_gradings`; the others lie in blocks with a
# straddling piece pair
ENUMERATION_CANDIDATES = {"split4/GF(2)": (23, 23), "B(1,2)/GF(3)": (20, 20),
                          "CD(split2,1)/GF(4)": (251, 12), "super-quaternion/GF(2)": (83, 12)}


def test_grading_enumeration_relations_match_reference(monkeypatch):
    """Every candidate that `enumerate_all_gradings` builds reaches the
    gradings with the from-scratch relations, or None.  The candidates
    are all those of the closed even and odd decompositions and their
    matchings, including those of blocks that a straddling piece pair
    rules out: those get None without a `relations` call.  An all-even
    algebra's candidates are its closed decompositions, so none of them
    gets None; with odd parts, some candidates get None and some
    component joins an even and an odd piece."""
    from compsuper.search import _decompositions_of_block, _partial_matchings, enumerate_all_gradings

    for label, S in (("split4/GF(2)", split_hurwitz(4, F2)[0]), ("B(1,2)/GF(3)", b12(F3)),
                     ("CD(split2,1)/GF(4)",
                      cayley_dickson_super(split_hurwitz(2, F4)[0], F4.one)),
                     ("super-quaternion/GF(2)", super_split_quaternion(F2)[0])):
        read = []
        original = _RelationBuilder.relations
        monkeypatch.setattr(_RelationBuilder, "relations",
                            lambda self, comps, table: read.append(comps) or original(self, comps, table))
        calls = _recorded_candidates(monkeypatch, lambda: enumerate_all_gradings(S))
        blocks = [_decompositions_of_block(S, [S.basis_vector(i) for i in idx], lambda: None)
                  for idx in (S.even_indices(), S.odd_indices())]
        assert len(calls) == sum(len(_partial_matchings(len(de), len(do)))
                                 for de in blocks[0] for do in blocks[1]), label
        assert (len(calls), len(read)) == ENUMERATION_CANDIDATES[label], label
        if S.odd_indices():
            assert any(got is None for _, _, got in calls), label
            assert any(len(c) == 2 for _, comps, _ in calls for c in comps), label
        else:
            assert all(got is not None for _, _, got in calls), label
        _assert_matches_reference(calls)


def test_lookups_match_a_fresh_computation_and_are_computed_once(monkeypatch):
    """`index`, `spans`, `parities`, `mixed` and `census` equal a fresh
    computation on every catalog entry over its primary fields, and the
    first reads compute them: the rrefs and parities are not taken again
    on later reads."""
    from compsuper import superalgebra
    from compsuper.catalog import ENTRIES, FieldConditionUnmet, build_entry, catalog_ids

    calls = {"rref": 0, "parity_of": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(superalgebra.SuperAlgebra, "parity_of",
                        counted("parity_of", superalgebra.SuperAlgebra.parity_of))
    built = 0
    for id in catalog_ids():
        for F in ((GF(3), GF(9)) if ENTRIES[id].char == 3 else (GF(2), GF(4))):
            try:
                A, built_g = build_entry(id, F)
            except FieldConditionUnmet:
                continue
            g = Grading(A, built_g.group, built_g.comps)  # a copy no one has read yet
            degrees = g.degrees()
            even = set(A.even_indices())
            before = dict(calls)
            index, spans, census, parities = g.index, g.spans, g.census, g.parities
            assert g.mixed is None, id
            assert calls["rref"] - before["rref"] == len(g.comps), id
            assert calls["parity_of"] - before["parity_of"] == A.dim, id
            before = dict(calls)
            assert (g.index, g.spans, g.census, g.parities) == (index, spans, census, parities), id
            assert g.index is index and g.spans is spans and g.census is census, id
            assert g.parities is parities and g.mixed is None, id
            g.component_keys()
            assert calls == before, id
            # degree -> position of its component
            assert dict(index) == {d: max(i for i, e in enumerate(degrees) if e == d)
                                   for d in degrees}, id
            for k, ((d, vs), (rows, pivots)) in enumerate(zip(g.comps, spans)):
                # the reduced echelon basis of the component's span
                assert rows == linalg.span_key(F, vs), (id, str(d))
                assert pivots == tuple(next(c for c, x in enumerate(r) if x != F.zero)
                                       for r in rows), (id, str(d))
                assert all(r[p] == F.one for r, p in zip(rows, pivots)), (id, str(d))
                is_even = [all(i in even for i, x in enumerate(v) if x != F.zero) for v in vs]
                n_even = sum(is_even)
                assert census[d] == (n_even, len(vs) - n_even), (id, str(d))
                assert parities[k] == tuple(0 if e else 1 for e in is_even), (id, str(d))
            with pytest.raises(TypeError):
                index[degrees[0]] = 0
            with pytest.raises(TypeError):
                census[degrees[0]] = (0, 0)
            built += 1
    assert built == 73  # 41 entries over two fields, 9 of them need a cube root
    # a vector with an even and an odd part counts as odd
    B = b12(F3)
    mixed = linalg.vec_add(F3, B.basis_vector(0), B.basis_vector(1))
    g = grading_from_components(
        B, Z, [(Z.element(0), [mixed]), (Z.element(1), [B.basis_vector(2)])])
    assert dict(g.census) == {Z.element(0): (0, 1), Z.element(1): (0, 1)}
    assert g.parities == ((None,), (1,)) and g.mixed == (Z.element(0), mixed)
