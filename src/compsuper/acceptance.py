"""The acceptance suite: one callable per criterion, exact checks only.

Each criterion returns a dict with "id", "title", "passed" and enough
detail to diff failures; run_all() executes all ten in order.  These are
the same functions the test suite asserts on and the command line
`report` subcommand serializes.
"""


from . import catalog, linalg
from .axioms import (
    check_composition_super,
    check_hurwitz,
    check_orthogonality,
    check_remark_identities,
    check_symmetric,
    find_para_units,
)
from .constructions import (
    b12,
    b42,
    b12_lambda,
    canonical_basis_find,
    cayley_dickson_super,
    nonsplit_quadratic,
    okubo_super,
    para_hurwitz,
    pseudo_octonion,
    split_hurwitz,
    super_split_cayley,
    super_split_quaternion,
)
from .fields import GF
from .gradings import coarsenings_enum, main_grading, trivial_grading, validate
from .search import enumerate_all_gradings, fine_check
from .superalgebra import identity_morphism


def _hurwitz_suite_instances():
    """(label, algebra) pairs for the Hurwitz-side axiom checks."""
    out = []
    for q in (2, 3, 4, 9):
        for d in (2, 4, 8):
            A, _ = split_hurwitz(d, GF(q))
            out.append((f"split{d}/GF({q})", A))
    for q in (2, 4):
        F = GF(q)
        s2, _ = split_hurwitz(2, F)
        s4, _ = split_hurwitz(4, F)
        out.append((f"CD(split2,1)/GF({q})", cayley_dickson_super(s2, F.one)))
        out.append((f"CD(split4,1)/GF({q})", cayley_dickson_super(s4, F.one)))
        out.append((f"CD(K,1)/GF({q})", cayley_dickson_super(nonsplit_quadratic(F), F.one)))
        out.append((f"super-quaternion/GF({q})", super_split_quaternion(F)[0]))
        out.append((f"super-cayley/GF({q})", super_split_cayley(F)[0]))
    F = GF(4)
    s4, _ = split_hurwitz(4, F)
    out.append(("CD(split4,w)/GF(4)", cayley_dickson_super(s4, F.primitive_cube_root_raw())))
    for q in (3, 9):
        out.append((f"B(1,2)/GF({q})", b12(GF(q))))
        out.append((f"B(4,2)/GF({q})", b42(GF(q))))
    return out


# (label, label of its Hurwitz algebra in _hurwitz_suite_instances) for
# each para-Hurwitz algebra of the suites
_PARA_HURWITZ = (
    *((f"para-split{d}/GF({q})", f"split{d}/GF({q})") for q in (2, 3) for d in (2, 4, 8)),
    *((f"para-CD{2 * d}/GF({q})", f"CD(split{d},1)/GF({q})") for q in (2, 4) for d in (2, 4)),
    *((f"para-{b}/GF({q})", f"{b}/GF({q})") for q in (3, 9) for b in ("B(1,2)", "B(4,2)")),
)


def _symmetric_suite_instances():
    """(label, algebra) pairs expected to be symmetric composition."""
    hurwitz = dict(_hurwitz_suite_instances())
    out = [(label, para_hurwitz(hurwitz[base])) for label, base in _PARA_HURWITZ]
    for q in (3, 9):
        F = GF(q)
        for lam in F.elements():
            S, _, _ = b12_lambda(F, lam)
            out.append((f"B(1,2)_{F.fmt(lam)}/GF({q})", S))
    out.append(("okubo-nst/GF(2)", okubo_super(GF(2), "nst")[0]))
    out.append(("okubo-nst/GF(4)", okubo_super(GF(4), "nst")[0]))
    out.append(("okubo-omega/GF(4)", okubo_super(GF(4), "omega")[0]))
    out.append(("P8/GF(2)", pseudo_octonion(GF(2))[0]))
    out.append(("P8/GF(3)", pseudo_octonion(GF(3))[0]))
    return out


def criterion_1():
    """Axiom suite for every catalogued construction."""
    failures = []
    hurwitz = _hurwitz_suite_instances()
    symmetric = _symmetric_suite_instances()
    for label, A in hurwitz:
        r1 = check_hurwitz(A)
        r2 = check_composition_super(A)
        if not r1.passed:
            failures.append((label, "hurwitz", r1.witness))
        if not r2.passed:
            failures.append((label, "composition", r2.witness))
    for label, S in symmetric:
        r = check_symmetric(S)
        if not r.passed:
            failures.append((label, "symmetric", r.witness))
    return {
        "id": 1,
        "title": "axiom suite (Hurwitz, composition, symmetric)",
        "passed": not failures,
        "instances": len(hurwitz) + len(symmetric),
        "failures": failures,
    }


def criterion_2():
    """Canonical basis from every nonzero isotropic seed over GF(2)."""
    F = GF(2)
    C, _ = split_hurwitz(8, F)
    seeds = 0
    failures = []
    for v in linalg.nonzero_vectors(F, 8):
        if C.eval_q0(v) != F.zero:
            continue
        seeds += 1
        try:
            canonical_basis_find(C, v)  # verifies the table internally
        except Exception as exc:
            failures.append((C.fmt(v), str(exc)))
    return {
        "id": 2,
        "title": "canonical basis search from every isotropic seed (GF(2), dim 8)",
        "passed": seeds > 0 and not failures,
        "seeds": seeds,
        "failures": failures,
    }


def criterion_3():
    """All labelled catalog entries build, validate and match their groups."""
    expected_labelled = 29
    failures = []
    built = {}
    for id in catalog.catalog_ids():
        e = catalog.ENTRIES[id]
        fields = (GF(3), GF(9)) if e.char == 3 else (GF(2), GF(4))
        statuses = []
        for f in fields:
            r = catalog.verify_entry(id, f)
            statuses.append(r.get("status"))
            if r.get("status") == "field-condition-unmet":
                if not e.needs_omega:
                    failures.append((id, f.name, "unexpected field rejection"))
                continue
            if not r["pass"]:
                failures.append((id, f.name, r["checks"]))
        if "built" not in statuses:
            failures.append((id, "-", "not buildable on any primary field"))
        built[id] = statuses
    if len(catalog.LABELLED_IDS) != expected_labelled:
        failures.append(("catalog", "-", f"labelled id count {len(catalog.LABELLED_IDS)}"))
    return {
        "id": 3,
        "title": "catalog completeness and universal groups",
        "passed": not failures,
        "labelled": len(catalog.LABELLED_IDS),
        "entries": len(built),
        "failures": failures,
    }


def criterion_4():
    """Coarsening lattices of the fine gradings on B(4,2) and B(1,2)."""
    F = GF(3)
    failures = []
    _, eq2 = catalog.build_entry("eq2", F)
    expect = {catalog.build_entry(id, F)[1].component_keys()
              for id in ("eq2", "eq3", "eq4", "main-b42", "trivial-b42")}
    got = {g.component_keys() for g in coarsenings_enum(eq2)}
    if got != expect:
        failures.append(("eq2", "coarsening set mismatch"))
    _, eq1 = catalog.build_entry("eq1", F)
    expect1 = {catalog.build_entry(id, F)[1].component_keys()
               for id in ("eq1", "main-b12", "trivial-b12")}
    got1 = {g.component_keys() for g in coarsenings_enum(eq1)}
    if got1 != expect1:
        failures.append(("eq1", "coarsening set mismatch"))
    return {
        "id": 4,
        "title": "coarsening lattices of the 5-grading and the 3-grading",
        "passed": not failures,
        "failures": failures,
    }


def criterion_5():
    """Nonzero twists of B(1,2) admit only the trivial and main gradings."""
    F = GF(3)
    failures = []
    for lam in F.elements():
        if lam == F.zero:
            continue
        S, _, _ = b12_lambda(F, lam)
        res = enumerate_all_gradings(S)
        if not res.complete:
            failures.append((F.fmt(lam), "enumeration not complete"))
            continue
        want = {main_grading(S).component_keys(), trivial_grading(S).component_keys()}
        got = {g.component_keys() for g in res.gradings}
        if got != want:
            failures.append((F.fmt(lam), f"{len(res.gradings)} gradings found"))
    return {
        "id": 5,
        "title": "twisted B(1,2) has exactly the trivial and main gradings",
        "passed": not failures,
        "failures": failures,
    }


def criterion_6():
    """Isomorphism conditions for degree gradings, explicit maps + search.

    B(1,2) and B(4,2) must match g = +-h, and the split Cayley
    superalgebra the Sym(2)-and-sign triple condition, on every pair.  On
    the Okubo superalgebra the triple condition is false; there the
    searches must match okubo_gamma_equiv (identity or swap-and-negate) on
    every pair, and each pair the triple condition wrongly calls
    isomorphic must be certified absent by the phi-census.  The Okubo
    mismatch count stays in the payload as the record that the triple
    condition is false there.
    """
    reports = catalog.verify_iso_theorems(GF(9), GF(4))
    okubo = reports["okubo"]
    failures = {k: reports[k]["mismatches"] for k in ("b12", "b42", "cayley") if reports[k]["mismatches"]}
    if okubo["corrected_mismatches"]:
        failures["okubo-corrected"] = okubo["corrected_mismatches"]
    uncertified = [m for m in okubo["mismatches"] if not m["certified"]]
    if uncertified:
        failures["okubo-uncertified"] = uncertified
    return {
        "id": 6,
        "title": "graded-isomorphism conditions (g = +-h; triple equivalence; "
        "Okubo: identity or swap-and-negate, certified)",
        "passed": not failures,
        "pairs": {k: r["pairs"] for k, r in reports.items()},
        "mismatch_counts": {k: len(r["mismatches"]) for k, r in reports.items()},
        "okubo_corrected_mismatches": len(okubo["corrected_mismatches"]),
        "okubo_certified": len(okubo["mismatches"]) - len(uncertified),
        "okubo_certificate": okubo["certificate"],
        "failures": {k: v[:10] for k, v in failures.items()},
    }


def criterion_7():
    """Structure facts of the twisting automorphism on Okubo superalgebras."""
    failures = []
    for field, variant in ((GF(2), "nst"), (GF(4), "nst"), (GF(4), "omega")):
        label = f"okubo-{variant}/{field.name}"
        S, phi, cb, C = okubo_super(field, variant)
        F = field
        if not phi.power(3).is_identity():
            failures.append((label, "phi^3 != 1"))
        for i in S.even_indices():
            if phi.images[i] != S.basis_vector(i):
                failures.append((label, "phi does not fix the even part"))
                break
        odd = S.odd_indices()
        if linalg.eigenspace(F, phi.images, F.one, [S.basis_vector(i) for i in odd]):
            failures.append((label, "phi has fixed points on the odd part"))
        phi2 = phi.compose(phi)
        for i in odd:
            v = S.basis_vector(i)
            acc = tuple(
                F.add(F.add(a, b), c)
                for a, b, c in zip(phi2.apply(v), phi.apply(v), v)
            )
            if not linalg.vec_is_zero(F, acc):
                failures.append((label, "X^2+X+1 does not annihilate phi on the odd part"))
                break
        scalars = [phi.images[odd[0]][odd[0]]]
        if all(phi.images[i] == linalg.vec_scale(F, scalars[0], S.basis_vector(i)) for i in odd):
            failures.append((label, "phi acts as a scalar on the odd part"))
        r = check_remark_identities(S, phi, C)
        if not r.passed:
            failures.append((label, ("remark identities", r.witness)))
        wrong = check_remark_identities(S, phi2, C)
        if wrong.passed:
            failures.append((label, "phi^2 also satisfies the twist identities"))
    return {
        "id": 7,
        "title": "Okubo twisting automorphism: order, fixed points, identities",
        "passed": not failures,
        "failures": failures,
    }


def criterion_8():
    """Unique para-unit on para-Hurwitz superalgebras of dim >= 3, and the
    recovery of the Hurwitz product from it."""
    failures = []
    hurwitz = dict(_hurwitz_suite_instances())
    base = dict(_PARA_HURWITZ)
    cases = [(label, hurwitz[base[label]]) for label in (
        "para-split4/GF(2)", "para-split8/GF(2)", "para-split4/GF(3)", "para-split8/GF(3)",
        "para-CD4/GF(2)", "para-CD8/GF(2)", "para-B(1,2)/GF(3)", "para-B(4,2)/GF(3)",
    )]
    for label, C in cases:
        S = para_hurwitz(C)
        units = find_para_units(S)
        if len(units) != 1:
            failures.append((label, f"{len(units)} para-units"))
            continue
        e = units[0]
        if e != C.unit():
            failures.append((label, "para-unit is not the original unit"))
        # S twists C by the identity: x.y = (1*x)*(y*1), and e = 1 is checked above
        if not check_remark_identities(S, identity_morphism(S), C).passed:
            failures.append((label, "x.y != (e*x)*(y*e)"))
    return {
        "id": 8,
        "title": "para-unit uniqueness and Hurwitz-product recovery",
        "passed": not failures,
        "cases": len(cases),
        "failures": failures,
    }


def criterion_9():
    """Single-split fineness: the fine gradings stay fine, the main gradings
    of the dimension-8 Hurwitz and omega-twisted algebras split."""
    failures = []
    fine_ids = [
        ("eq7", GF(2)), ("eq7", GF(4)),
        ("eq5", GF(2)), ("eq5", GF(4)),
        ("eq6", GF(2)), ("eq6", GF(4)),
        ("okuboeq1", GF(2)), ("okuboeq1", GF(4)),
        ("okuboeq6", GF(2)),
    ]
    for id, f in fine_ids:
        _, g = catalog.build_entry(id, f)
        status, _ = fine_check(g)
        if status != "fine":
            failures.append((id, f.name, "expected fine"))
    refinable_ids = [("main-cd8", GF(2)), ("main-cd8", GF(4)), ("main-okubo-omega", GF(4))]
    for id, f in refinable_ids:
        _, g = catalog.build_entry(id, f)
        status, witness = fine_check(g)
        if status != "refinable" or witness is None:
            failures.append((id, f.name, "expected refinable"))
        else:
            ok, _ = validate(witness)
            if not ok:
                failures.append((id, f.name, "witness does not validate"))
    # tau_nst leaves no room: the main grading of the nst twist admits no
    # single-split refinement (recorded, not a failure)
    _, g = catalog.build_entry("main-okubo-nst", GF(2))
    nst_main_status, _ = fine_check(g)
    return {
        "id": 9,
        "title": "single-split fineness reports",
        "passed": not failures,
        "main_okubo_nst": nst_main_status,
        "failures": failures,
    }


def criterion_10():
    """Orthogonality of components for every buildable catalog grading."""
    failures = []
    count = 0
    for id in catalog.catalog_ids():
        e = catalog.ENTRIES[id]
        fields = (GF(3), GF(9)) if e.char == 3 else (GF(2), GF(4))
        for f in fields:
            try:
                _, g = catalog.build_entry(id, f)
            except catalog.FieldConditionUnmet:
                continue
            count += 1
            r = check_orthogonality(g)
            if not r.passed:
                failures.append((id, f.name, r.witness))
    return {
        "id": 10,
        "title": "orthogonality and nondegenerate pairing of opposite components",
        "passed": not failures,
        "gradings": count,
        "failures": failures,
    }


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all():
    return [fn() for fn in CRITERIA]
