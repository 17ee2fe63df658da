import pytest

from compsuper.abelian import AbGroup
from compsuper.catalog import (
    ENTRIES,
    LABELLED_IDS,
    FieldConditionUnmet,
    build_entry,
    catalog_ids,
    iso_condition,
    iso_test_groups,
    okubo_gamma_equiv,
    verify_entry,
    _DIM8_CROSS,
    _DIM8_FLIP,
    _DIM8_SWAP,
    _ISO_KINDS,
    _explicit_maps,
    _family_algebra,
    _offered,
    _signed_permutation,
)
from compsuper.fields import GF
from compsuper.gradings import (
    gamma_equiv,
    gamma_grading_dim8,
    universal_group,
    validate,
    zero_sum_triples,
)
from compsuper.search import find_graded_map, try_verify_graded
from compsuper.superalgebra import identity_morphism

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)

EXPECTED_LABELLED = [
    "eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7",
    "cor1eq3", "cor1eq5", "cor1eq6", "cor1eq7", "cor1eq8", "cor1eq9",
    "cor1eq10", "cor1eq11", "cor1eq12", "cor1eq13",
    "okuboeq1", "okuboeq2", "okuboeq3", "okuboeq4", "okuboeq5", "okuboeq6",
    "okuboeq7", "okuboeq8", "okuboeq9", "okuboeq10", "okuboeq11", "okuboeq12",
]


def test_catalog_id_list_is_exactly_the_labelled_displays():
    assert LABELLED_IDS == EXPECTED_LABELLED
    mains = [i for i in catalog_ids() if i.startswith("main-")]
    trivials = [i for i in catalog_ids() if i.startswith("trivial-")]
    assert len(mains) == len(trivials) == 6
    assert len(catalog_ids()) == 29 + 12


def test_build_entry_examples():
    A, g = build_entry("eq2", F3)
    G, _, inj = universal_group(g)
    assert str(G) == "Z" and inj
    A, g = build_entry("okuboeq1", F2)
    ok, _ = validate(g)
    assert ok
    with pytest.raises(FieldConditionUnmet):
        build_entry("eq1", F2)
    with pytest.raises(FieldConditionUnmet):
        build_entry("okuboeq3", F2)  # needs a cube root of unity


def test_verify_entry_eq4():
    r = verify_entry("eq4", F3)
    assert r["pass"]
    assert r["checks"]["universal-group"]["computed"] == "Z3"
    assert r["checks"]["coarsening-of"]["holds"]


def test_verify_entry_okuboeq6_phi_invariance():
    r = verify_entry("okuboeq6", F2)
    assert r["pass"] and r["checks"]["phi-invariance"]


def test_verify_entry_detects_wrong_claimed_group():
    import dataclasses

    from compsuper import catalog as cat

    good = ENTRIES["eq4"]
    try:
        ENTRIES["eq4"] = dataclasses.replace(good, claimed_group="Z4")
        r = verify_entry("eq4", F3)
        assert not r["pass"]
        assert not r["checks"]["universal-group"]["match"]
    finally:
        ENTRIES["eq4"] = good


def test_k_is_nonsplit_over_gf2_and_split_over_gf4():
    r2 = verify_entry("eq6", F2)
    r4 = verify_entry("eq6", F4)
    assert r2["pass"] and r4["pass"]
    assert r2["checks"]["K-split"] is False
    assert r4["checks"]["K-split"] is True
    assert r2["checks"]["w^2+w+1=0"] and r4["checks"]["w^2+w+1=0"]


@pytest.mark.parametrize("q, base", [(8, 2), (16, 4), (27, 3)])
def test_verdicts_depend_only_on_the_field_invariants(q, base):
    """GF(8) has no primitive cube root of 1, like GF(2); GF(16) has one,
    like GF(4); GF(27) has no square root of -1, like GF(3).  So every
    entry's report, `K-split` and each field-condition skip included,
    equals the one over the smaller field once the field's name is
    taken out."""
    import json

    F, E = GF(q), GF(base)
    assert (F.primitive_cube_root_raw() is None) == (E.primitive_cube_root_raw() is None)
    for id in catalog_ids():
        r, s = verify_entry(id, F), verify_entry(id, E)
        assert json.dumps(r).replace(F.name, "F") == json.dumps(s).replace(E.name, "F"), id


def test_all_entries_verify_or_flag():
    for id in catalog_ids():
        e = ENTRIES[id]
        fields = (F3, F9) if e.char == 3 else (F2, F4)
        built_somewhere = False
        for f in fields:
            r = verify_entry(id, f)
            if r.get("status") == "field-condition-unmet":
                assert e.needs_omega and f.primitive_cube_root_raw() is None
                continue
            built_somewhere = True
            assert r["pass"], (id, f.name, r["checks"])
        assert built_somewhere, id


@pytest.mark.parametrize("kind", ["b12", "b42"])
def test_iso_condition_gf3(kind):
    r = iso_condition(kind, F3)
    assert r["mismatches"] == []


def test_every_offered_explicit_map_verifies_on_b12():
    """On B(1,2) over GF(3) the explicit maps alone prove every positive
    pair: each one iso_condition offers is a graded isomorphism."""
    kind = _ISO_KINDS["b12"]
    ctx = _family_algebra("b12", F3)
    maps = _explicit_maps("b12", ctx)
    offered = 0
    for G in iso_test_groups():
        labels = kind.labels(G)
        gradings = {t: kind.grading(ctx, G, t) for t in labels}
        for t1 in labels:
            for t2 in labels:
                for f in _offered(maps, t1, t2):
                    offered += 1
                    assert try_verify_graded(f, gradings[t1], gradings[t2]) is not None, (G, t1, t2)
    assert offered > 0


@pytest.mark.parametrize("family", ["cd8", "okubo-omega"])
def test_flip_after_swap_is_cross_in_characteristic_2(family):
    """Why iso_condition does not try flip after swap next to cross: over
    characteristic 2 the signs vanish and the two maps agree."""
    ctx = _family_algebra(family, F4)
    A, vectors = ctx["algebra"], ctx["cb"].vectors
    flip, swap, cross = (_signed_permutation(A, vectors, t)
                         for t in (_DIM8_FLIP, _DIM8_SWAP, _DIM8_CROSS))
    assert flip.compose(swap).images == cross.images


def test_okubo_triple_equivalence_is_strictly_finer():
    """A pair of Sym(2)-equivalent triples on the omega twist with no
    degree-preserving isomorphism: the twisted product remembers the
    eigenspaces of the twisting automorphism."""
    ctx = _family_algebra("okubo-omega", F4)
    A, cb = ctx["algebra"], ctx["cb"]
    Z4 = AbGroup(0, (4,))
    t1 = (Z4.element(0), Z4.element(1), Z4.element(3))
    t2 = (Z4.element(0), Z4.element(3), Z4.element(1))
    assert gamma_equiv(t1, t2)
    assert not okubo_gamma_equiv(t1, t2)
    g1 = gamma_grading_dim8(A, cb, Z4, t1)
    g2 = gamma_grading_dim8(A, cb, Z4, t2)
    assert find_graded_map(A, g1, A, g2) is None  # proven, not budgeted
    # the same layouts on the untwisted algebra are isomorphic
    hur = _family_algebra("cd8", F4)
    H, hcb = hur["algebra"], hur["cb"]
    h1 = gamma_grading_dim8(H, hcb, Z4, t1)
    h2 = gamma_grading_dim8(H, hcb, Z4, t2)
    assert find_graded_map(H, h1, H, h2) is not None


def test_okubo_cross_map_realizes_the_swap_negate_class():
    ctx = _family_algebra("okubo-omega", F4)
    A, cb = ctx["algebra"], ctx["cb"]
    cross = _signed_permutation(A, cb.vectors, _DIM8_CROSS)
    Z4 = AbGroup(0, (4,))
    t1 = (Z4.element(1), Z4.element(2), Z4.element(1))
    t2 = (Z4.element(2), Z4.element(3), Z4.element(3))  # (-g2, -g1, -g3)
    assert okubo_gamma_equiv(t1, t2)
    g1 = gamma_grading_dim8(A, cb, Z4, t1)
    g2 = gamma_grading_dim8(A, cb, Z4, t2)
    assert try_verify_graded(cross, g1, g2) is not None


def test_para_transfer_recorded_for_hurwitz_entries():
    r = verify_entry("eq7", F2)
    assert r["checks"]["para-transfer"]


def test_proven_none_is_not_an_artifact_of_isometry_pruning():
    """The searches that prove the claimed Okubo equivalences wrong reach
    the same verdict with norm-preservation pruning disabled, i.e. over a
    strictly larger candidate space."""
    ctx = _family_algebra("okubo-omega", F4)
    A, cb = ctx["algebra"], ctx["cb"]
    Z4 = AbGroup(0, (4,))
    for c1, c2, expect in (
        ((0, 1, 3), (0, 3, 1), False),
        ((1, 2, 1), (2, 1, 1), False),
        ((1, 2, 1), (3, 2, 3), False),  # plain negation alone is not enough
        ((1, 2, 1), (2, 3, 3), True),   # the swap-and-negate class
    ):
        t1 = tuple(Z4.element(c) for c in c1)
        t2 = tuple(Z4.element(c) for c in c2)
        g1 = gamma_grading_dim8(A, cb, Z4, t1)
        g2 = gamma_grading_dim8(A, cb, Z4, t2)
        pruned = find_graded_map(A, g1, A, g2, isometry=True) is not None
        unpruned = find_graded_map(A, g1, A, g2, isometry=False) is not None
        assert pruned == unpruned == expect


def test_okubo_entry_gradings_also_grade_the_untwisted_product():
    """The twisted-product gradings coincide with the phi-invariant
    gradings of the underlying multiplication: every Okubo entry's
    components also validate on the Hurwitz product."""
    from compsuper.gradings import grading_from_components

    for id in ("okuboeq1", "okuboeq2", "okuboeq6", "okuboeq8", "okuboeq9"):
        _, g = build_entry(id, F2)
        ctx = _family_algebra(ENTRIES[id].family, F2)
        hur = ctx["hurwitz"]
        g_dot = grading_from_components(hur, g.group, list(g.comps))
        ok, _ = validate(g_dot)
        assert ok, id


def test_catalog_verify_output_is_deterministic():
    import json

    a = json.dumps(verify_entry("okuboeq9", F2), sort_keys=False)
    b = json.dumps(verify_entry("okuboeq9", F2), sort_keys=False)
    assert a == b
