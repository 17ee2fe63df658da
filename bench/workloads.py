"""The four workloads of the verdict benchmark: set-up, jobs and oracles.

A workload's `setup(cs)` receives a freshly imported `compsuper` package
and builds every algebra, catalog entry and grading its jobs use, so the
timed jobs start from warm caches.  `jobs(inputs, rng)` returns one
pass: the seed-ordered list of `Job`s.  A job is one question a user
would ask; its `check` is the oracle for the answer.

Jobs look library functions up through the module at call time
(`cs.search.fine_check(...)`, never a name bound earlier), so a tracer
installed after set-up sees every call.  The oracles do not reuse the
predicates under test: isomorphism conditions are re-derived here from
group coordinates, refinable witnesses are re-checked, and counts are
pinned to the values the seed commit computed.
"""

from dataclasses import dataclass
from typing import Callable


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def counting_budget(search):
    """A SearchBudget with the library's default node limit that counts
    every node a search charges to it (each charge reads `max_nodes`)."""
    limit = search.SearchBudget().max_nodes

    class CountingBudget(search.SearchBudget):
        def __init__(self):
            self.charged = 0

        @property
        def max_nodes(self):
            self.charged += 1
            return limit

    return CountingBudget()


def _ctx(cs, entry_id, q):
    """Catalog context (algebra, canonical basis, twist) of an entry's
    family; fills catalog._ALGEBRA_CACHE and the lazy unit."""
    ctx = cs.catalog.entry_context(entry_id, cs.fields.GF(q))
    ctx["algebra"].unit()
    return ctx


def _entry(cs, entry_id, q):
    A, g = cs.catalog.build_entry(entry_id, cs.fields.GF(q))
    A.unit()
    return g


# --- group-coordinate predicates (oracle side) -------------------------


def _neg(x):
    """Coordinates of -x, normalized like AbGroup.normalize."""
    G = x.group
    free = tuple(-c for c in x.coords[: G.rank])
    tor = tuple(-c % d for c, d in zip(x.coords[G.rank:], G.torsion))
    return free + tor


def _plus_minus(g, h):
    return h.coords in (g.coords, _neg(g))


def _triple_equiv(t1, t2):
    """Sym(2) on the first two entries times a global sign."""
    g1, g2, g3 = (x.coords for x in t1)
    n1, n2, n3 = (_neg(x) for x in t1)
    got = tuple(x.coords for x in t2)
    return got in ((g1, g2, g3), (g2, g1, g3), (n1, n2, n3), (n2, n1, n3))


def _okubo_equiv(t1, t2):
    """The condition the Okubo searches reproduce: identity or
    (g1, g2, g3) -> (-g2, -g1, -g3)."""
    g1, g2, g3 = (x.coords for x in t1)
    n1, n2, n3 = (_neg(x) for x in t1)
    got = tuple(x.coords for x in t2)
    return got in ((g1, g2, g3), (n2, n1, n3))


# --- explicit maps of criterion 6, rebuilt from the canonical basis -----


def _map_on_names(cs, A, cb, assignment):
    """Linear map sending each canonical-basis vector named nm to
    assignment[nm] (a coordinate tuple)."""
    F = A.field
    la = cs.linalg
    names = cb.names()
    basis = [cb.vectors[nm] for nm in names]
    images = []
    for i in range(A.dim):
        coeffs = la.coords_in_basis(F, basis, A.basis_vector(i))
        acc = A.zero()
        for c, nm in zip(coeffs, names):
            acc = la.vec_add(F, acc, la.vec_scale(F, c, assignment[nm]))
        images.append(acc)
    return cs.superalgebra.Morphism(A, A, tuple(images))


def _small_flip(cs, A):
    """u -> v, v -> -u; on B(4,2) also e1 <-> e2, x -> -y, y -> -x."""
    F = A.field
    m = F.neg(F.one)
    idx = {n: i for i, n in enumerate(A.basis_names)}

    swap = {"u": ("v", F.one), "v": ("u", m), "e1": ("e2", F.one), "e2": ("e1", F.one),
            "x": ("y", m), "y": ("x", m)}
    images = []
    for i, n in enumerate(A.basis_names):
        to, c = swap.get(n, (n, F.one))
        images.append(cs.linalg.vec_scale(F, c, A.basis_vector(idx[to])))
    return cs.superalgebra.Morphism(A, A, tuple(images))


def _dim8_maps(cs, A, cb):
    v = cb.vectors
    F = A.field
    m = F.neg(F.one)
    neg = {nm: cs.linalg.vec_scale(F, m, v[nm]) for nm in ("u3", "v3")}
    swap = _map_on_names(cs, A, cb, {
        "e1": v["e1"], "e2": v["e2"], "u1": v["u2"], "u2": v["u1"], "u3": neg["u3"],
        "v1": v["v2"], "v2": v["v1"], "v3": neg["v3"]})
    flip = _map_on_names(cs, A, cb, {
        "e1": v["e2"], "e2": v["e1"], "u1": v["v1"], "u2": v["v2"], "u3": v["v3"],
        "v1": v["u1"], "v2": v["u2"], "v3": v["u3"]})
    cross = _map_on_names(cs, A, cb, {
        "e1": v["e2"], "e2": v["e1"], "u1": v["v2"], "v2": v["u1"], "u2": v["v1"],
        "v1": v["u2"], "u3": v["v3"], "v3": v["u3"]})
    return {"identity": cs.superalgebra.identity_morphism(A), "swap": swap,
            "flip": flip, "cross": cross, "flip-swap": flip.compose(swap)}


def _dim8_gradings(cs, kind):
    """Degree-triple gradings of criterion 6 over GF(4): kind is
    "cayley" (super split Cayley) or "okubo" (tau_omega twist)."""
    ctx = _ctx(cs, "eq7" if kind == "cayley" else "okuboeq3", 4)
    A, cb = ctx["algebra"], ctx["cb"]
    out = []
    for gi, G in enumerate(cs.catalog.iso_test_groups()):
        triples = cs.gradings.zero_sum_triples(G, max_order=4)
        gr = {t: cs.gradings.gamma_grading_dim8(A, cb, G, t) for t in triples}
        out.append((gi, triples, gr))
    return A, cb, out


def _sample(rng, strata, fraction):
    """A seeded sample with a fixed share of every stratum, shuffled."""
    out = []
    for key in sorted(strata):
        items = strata[key]
        out.extend(rng.sample(items, max(1, round(fraction * len(items)))))
    rng.shuffle(out)
    return out


def _verified(cs, f, ga, gb):
    return f is not None and cs.search.try_verify_graded(f, ga, gb) is not None


# --- axioms --------------------------------------------------------------

# Constructions of criterion 1 whose exhaustive checks take over a second
# each; super-cayley/GF(4) stays in as the exhaustive-mode representative.
AXIOMS_LEFT_OUT = ("split8/GF(2)", "split4/GF(4)", "CD(split4,1)/GF(4)", "CD(split4,w)/GF(4)")


def setup_axioms(cs):
    C = cs.constructions
    GF = cs.fields.GF
    hurwitz, symmetric = [], []
    split = {}
    for q in (2, 3, 4, 9):
        for d in (2, 4, 8):
            split[d, q] = C.split_hurwitz(d, GF(q))[0]
            hurwitz.append((f"split{d}/GF({q})", split[d, q]))
    for q in (2, 4):
        F = GF(q)
        hurwitz.append((f"CD(split2,1)/GF({q})", C.cayley_dickson_super(split[2, q], F.one)))
        hurwitz.append((f"CD(split4,1)/GF({q})", C.cayley_dickson_super(split[4, q], F.one)))
        hurwitz.append((f"CD(K,1)/GF({q})",
                        C.cayley_dickson_super(C.nonsplit_quadratic(F), F.one)))
        hurwitz.append((f"super-quaternion/GF({q})", _ctx(cs, "eq5", q)["algebra"]))
        hurwitz.append((f"super-cayley/GF({q})", _ctx(cs, "eq7", q)["algebra"]))
    F4 = GF(4)
    hurwitz.append(("CD(split4,w)/GF(4)",
                    C.cayley_dickson_super(split[4, 4], F4.primitive_cube_root_raw())))
    for q in (3, 9):
        hurwitz.append((f"B(1,2)/GF({q})", _ctx(cs, "eq1", q)["algebra"]))
        hurwitz.append((f"B(4,2)/GF({q})", _ctx(cs, "eq2", q)["algebra"]))
    by_label = dict(hurwitz)

    for q in (2, 3):
        for d in (2, 4, 8):
            symmetric.append((f"para-split{d}/GF({q})", C.para_hurwitz(split[d, q])))
    for q in (2, 4):
        symmetric.append((f"para-CD4/GF({q})", C.para_hurwitz(by_label[f"CD(split2,1)/GF({q})"])))
        symmetric.append((f"para-CD8/GF({q})", C.para_hurwitz(by_label[f"CD(split4,1)/GF({q})"])))
    for q in (3, 9):
        symmetric.append((f"para-B(1,2)/GF({q})", C.para_hurwitz(by_label[f"B(1,2)/GF({q})"])))
        symmetric.append((f"para-B(4,2)/GF({q})", C.para_hurwitz(by_label[f"B(4,2)/GF({q})"])))
        F = GF(q)
        for lam in F.elements():
            symmetric.append((f"B(1,2)_{F.fmt(lam)}/GF({q})", C.b12_lambda(F, lam)[0]))
    twists = []
    for entry_id, q in (("okuboeq1", 2), ("okuboeq1", 4), ("okuboeq3", 4)):
        ctx = _ctx(cs, entry_id, q)
        S, phi, Ch = ctx["algebra"], ctx["phi"], ctx["hurwitz"]
        Ch.unit()
        symmetric.append((f"{S.name}/GF({q})", S))
        twists.append((f"{S.name}/GF({q})", S, phi, phi.compose(phi), Ch))
    for q in (2, 3):
        symmetric.append((f"P8/GF({q})", C.pseudo_octonion(GF(q))[0]))

    para = []  # criterion 8: (label, para-Hurwitz S, unit of the Hurwitz C)
    for label in ("split4/GF(2)", "split8/GF(2)", "split4/GF(3)", "split8/GF(3)",
                  "CD(split2,1)/GF(2)", "CD(split4,1)/GF(2)", "B(1,2)/GF(3)", "B(4,2)/GF(3)"):
        Ch = by_label[label]
        para.append((label, C.para_hurwitz(Ch), Ch.unit()))

    C8 = split[8, 2]  # criterion 2: every nonzero isotropic seed
    seeds = [v for v in cs.linalg.nonzero_vectors(C8.field, 8) if C8.eval_q0(v) == C8.field.zero]

    for _, A in hurwitz + symmetric:
        A.unit()
    for _, S, _ in para:
        S.unit()
    hurwitz = [(label, A) for label, A in hurwitz if label not in AXIOMS_LEFT_OUT]
    return {"cs": cs, "hurwitz": hurwitz, "symmetric": symmetric, "twists": twists,
            "para": para, "C8": C8, "seeds": seeds}


def jobs_axioms(inp, rng):
    cs = inp["cs"]
    ax = cs.axioms

    def passed(r):
        return r.passed is True

    jobs = []
    for label, A in inp["hurwitz"]:
        jobs.append(Job(f"hurwitz {label}", lambda A=A: ax.check_hurwitz(A), passed))
        jobs.append(Job(f"composition {label}",
                        lambda A=A: ax.check_composition_super(A), passed))
    for label, S in inp["symmetric"]:
        jobs.append(Job(f"symmetric {label}", lambda S=S: ax.check_symmetric(S), passed))
    for label, S, unit in inp["para"]:
        jobs.append(Job(f"para-unit {label}", lambda S=S: ax.find_para_units(S),
                        lambda units, unit=unit: list(units) == [unit]))
    for label, S, phi, phi2, Ch in inp["twists"]:
        jobs.append(Job(f"twist {label}",
                        lambda S=S, phi=phi, Ch=Ch: ax.check_remark_identities(S, phi, Ch),
                        passed))
        jobs.append(Job(f"twist-squared {label}",
                        lambda S=S, phi2=phi2, Ch=Ch: ax.check_remark_identities(S, phi2, Ch),
                        lambda r: r.passed is False))
    C8 = inp["C8"]

    def canonical_ok(cb):
        F = C8.field
        basis = [cb.vectors[nm] for nm in cb.names()]
        return len(basis) == 8 and cs.linalg.rank(F, basis) == 8 and cb.verify()

    for v in inp["seeds"]:
        jobs.append(Job(f"canonical-basis {C8.fmt(v)}",
                        lambda v=v: cs.constructions.canonical_basis_find(C8, v), canonical_ok))
    rng.shuffle(jobs)
    return jobs


# --- isomorphism ---------------------------------------------------------

# Every pass decides all 248 "hard" Okubo pairs (their cost varies
# tenfold from pair to pair, so a sample of them would make a pass's cost
# depend on the seed) and this share of every other stratum.
ISO_FRACTION = 0.2


def setup_isomorphism(cs):
    groups = cs.catalog.iso_test_groups()
    # (kind, group index, class) -> [(ga, gb, explicit maps, search after them, expected)]
    strata = {}
    budget = counting_budget(cs.search)
    algebras = {}
    for kind, entry_id, gamma in (("b12", "eq1", cs.gradings.gamma_grading_b12),
                                  ("b42", "eq2", cs.gradings.gamma_grading_b42)):
        A = _ctx(cs, entry_id, 9)["algebra"]
        algebras[kind] = A
        ident, flip = cs.superalgebra.identity_morphism(A), _small_flip(cs, A)
        for gi, G in enumerate(groups):
            els = list(G.elements())
            gr = {g: gamma(A, G, g) for g in els}
            for g in els:
                for h in els:
                    expected = _plus_minus(g, h)
                    # the report settles positives with explicit maps only
                    # and negatives with search only
                    cands = []
                    if expected:
                        cands = [ident, flip] if g == h and g == -g else [ident if g == h else flip]
                    cls = "iso" if expected else "none"
                    strata.setdefault((kind, gi, cls), []).append(
                        (gr[g], gr[h], cands, not expected, expected))
    for kind in ("cayley", "okubo"):
        A, cb, per_group = _dim8_gradings(cs, kind)
        algebras[kind] = A
        maps = _dim8_maps(cs, A, cb)
        for gi, triples, gr in per_group:
            for t1 in triples:
                g1, g2, g3 = t1
                for t2 in triples:
                    cands = []
                    if t2 == t1:
                        cands.append(maps["identity"])
                    if t2 == (g2, g1, g3):
                        cands.append(maps["swap"])
                    if t2 == (-g1, -g2, -g3):
                        cands.append(maps["flip"])
                    if t2 == (-g2, -g1, -g3):
                        cands.extend([maps["cross"], maps["flip-swap"]])
                    stated = _triple_equiv(t1, t2)
                    expected = stated if kind == "cayley" else _okubo_equiv(t1, t2)
                    # "hard": the stated condition says isomorphic, search proves none
                    cls = "hard" if stated and not expected else ("iso" if expected else "none")
                    strata.setdefault((kind, gi, cls), []).append(
                        (gr[t1], gr[t2], cands, True, expected))
    return {"cs": cs, "strata": strata, "algebras": algebras, "budget": budget}


def jobs_isomorphism(inp, rng):
    cs = inp["cs"]
    budget = inp["budget"]
    jobs = []
    strata = inp["strata"]
    sampled = _sample(rng, {k: v for k, v in strata.items() if k[2] != "hard"}, ISO_FRACTION)
    hard = [p for k in sorted(strata) if k[2] == "hard" for p in strata[k]]
    pairs = sampled + hard
    rng.shuffle(pairs)
    for n, (ga, gb, cands, search, expected) in enumerate(pairs):

        def decide(ga=ga, gb=gb, cands=cands, search=search):
            for f in cands:
                got = cs.search.try_verify_graded(f, ga, gb)
                if got is not None:
                    return got
            if not search:
                return None
            A = ga.algebra
            return cs.search.find_graded_map(A, ga, A, gb, budget=budget)

        def check(f, ga=ga, gb=gb, expected=expected):
            return _verified(cs, f, ga, gb) if expected else f is None

        jobs.append(Job(f"iso {ga.algebra.name} #{n}", decide, check))
    return jobs


# --- fineness ------------------------------------------------------------

# (catalog id, field order, expected single-split verdict).  "fine": the
# paper's fine gradings, and main-okubo-nst/GF(2) as criterion 9 records
# it.  "refinable": criterion 9's main-cd8/GF(2); every trivial grading
# (the parity split refines it); main-b12 and main-cd4 (splitting the odd
# part gives eq1 and eq5).
FINENESS_CASES = (
    [(i, q, "fine") for i, qs in (("eq1", (3, 9)), ("eq2", (3, 9)), ("eq5", (2, 4)),
                                  ("eq6", (2, 4)), ("eq7", (2, 4)), ("okuboeq1", (2, 4)),
                                  ("okuboeq3", (4,)), ("okuboeq6", (2, 4)),
                                  ("main-okubo-nst", (2,))) for q in qs]
    + [(i, q, "refinable") for i, qs in (("main-cd8", (2,)), ("main-b12", (3, 9)),
                                         ("main-cd4", (2, 4)), ("trivial-b12", (3, 9)),
                                         ("trivial-b42", (3,)), ("trivial-cd4", (2, 4)),
                                         ("trivial-cd8", (2,)), ("trivial-okubo-nst", (2,)))
       for q in qs]
)
# criterion 9 also checks main-cd8/GF(4) and main-okubo-omega/GF(4); each
# takes 10-12 s, longer than two passes of any workload, so they are left out.


def setup_fineness(cs):
    cases = [(f"{i}/GF({q})", _entry(cs, i, q), want) for i, q, want in FINENESS_CASES]
    return {"cs": cs, "cases": cases, "budget": counting_budget(cs.search)}


def jobs_fineness(inp, rng):
    cs = inp["cs"]
    budget = inp["budget"]

    def check(result, g, want):
        status, witness = result
        if status != want:
            return False
        if want == "fine":
            return witness is None
        ok, _ = cs.gradings.validate(witness)
        degrees = witness.degrees()
        return (ok and len(witness.comps) == len(g.comps) + 1
                and len(set(degrees)) == len(degrees)
                and cs.gradings.is_refinement(witness, g))

    jobs = [Job(f"fine {label}", lambda g=g: cs.search.fine_check(g, budget=budget),
                lambda r, g=g, want=want: check(r, g, want))
            for label, g, want in inp["cases"]]
    rng.shuffle(jobs)
    return jobs


# --- enumeration ---------------------------------------------------------

# Counts computed at the seed commit.
PINNED_GRADINGS = {  # enumerate_all_gradings: number of gradings found
    "split2/GF(2)": 1, "split2/GF(3)": 2, "split2/GF(4)": 1, "split2/GF(9)": 2,
    "split4/GF(2)": 8, "para-split4/GF(2)": 8,
    "B(1,2)/GF(3)": 8, "B(1,2)_0/GF(3)": 8, "B(1,2)_1/GF(3)": 2, "B(1,2)_2/GF(3)": 2,
    "B(1,2)/GF(9)": 47, "B(1,2)_0/GF(9)": 47, "B(1,2)_1/GF(9)": 2, "B(1,2)_2/GF(9)": 2,
    "B(1,2)_x/GF(9)": 47, "B(1,2)_x+1/GF(9)": 2, "B(1,2)_x+2/GF(9)": 2,
    "B(1,2)_2x/GF(9)": 47, "B(1,2)_2x+1/GF(9)": 2, "B(1,2)_2x+2/GF(9)": 2,
    "K/GF(2)": 1, "CD(split2,1)/GF(2)": 3, "CD(K,1)/GF(2)": 2, "super-quaternion/GF(2)": 3,
    "K/GF(4)": 1, "CD(split2,1)/GF(4)": 3, "CD(K,1)/GF(4)": 3, "super-quaternion/GF(4)": 3,
}
PINNED_COARSENINGS = {  # coarsenings_enum: number of coarsenings
    "eq7/GF(2)": 19, "eq7/GF(4)": 19, "okuboeq3/GF(4)": 19, "eq6/GF(2)": 5,
    "okuboeq1/GF(2)": 5, "okuboeq6/GF(2)": 5, "eq2/GF(3)": 5, "eq2/GF(9)": 5,
    "eq1/GF(3)": 3, "eq1/GF(9)": 3, "eq5/GF(2)": 3,
}
PINNED_AUTOMORPHISMS = {  # enumerate_automorphisms on a catalog grading
    "eq1/GF(3)": 2, "eq2/GF(3)": 2, "eq3/GF(3)": 2, "eq4/GF(3)": 2, "eq5/GF(2)": 1,
    "eq6/GF(2)": 18, "eq7/GF(2)": 1, "cor1eq3/GF(2)": 18, "cor1eq5/GF(2)": 6,
    "cor1eq6/GF(2)": 1, "cor1eq7/GF(2)": 6, "cor1eq8/GF(2)": 1, "cor1eq9/GF(2)": 6,
    "cor1eq10/GF(2)": 6, "cor1eq11/GF(2)": 1, "cor1eq12/GF(2)": 1, "cor1eq13/GF(2)": 1,
    "okuboeq1/GF(2)": 9, "okuboeq2/GF(2)": 9, "okuboeq3/GF(4)": 9, "okuboeq4/GF(4)": 180,
    "okuboeq5/GF(4)": 9, "okuboeq6/GF(2)": 3, "okuboeq7/GF(4)": 9, "okuboeq8/GF(2)": 3,
    "okuboeq9/GF(2)": 3, "okuboeq10/GF(4)": 9, "okuboeq11/GF(4)": 9, "okuboeq12/GF(4)": 9,
}
MAPS_FRACTION = 0.15  # share of the 408 + 160 isomorphic dim-8 pairs searched per pass


def _small_algebras(cs):
    C = cs.constructions
    GF = cs.fields.GF
    out = []
    for q in (2, 3, 4, 9):
        out.append((f"split2/GF({q})", C.split_hurwitz(2, GF(q))[0]))
    out.append(("split4/GF(2)", C.split_hurwitz(4, GF(2))[0]))
    out.append(("para-split4/GF(2)", C.para_hurwitz(C.split_hurwitz(4, GF(2))[0])))
    for q in (3, 9):
        F = GF(q)
        out.append((f"B(1,2)/GF({q})", _ctx(cs, "eq1", q)["algebra"]))
        for lam in F.elements():
            out.append((f"B(1,2)_{F.fmt(lam)}/GF({q})", C.b12_lambda(F, lam)[0]))
    for q in (2, 4):
        F = GF(q)
        out.append((f"K/GF({q})", C.nonsplit_quadratic(F)))
        out.append((f"CD(split2,1)/GF({q})",
                    C.cayley_dickson_super(C.split_hurwitz(2, F)[0], F.one)))
        out.append((f"CD(K,1)/GF({q})", C.cayley_dickson_super(C.nonsplit_quadratic(F), F.one)))
        out.append((f"super-quaternion/GF({q})", _ctx(cs, "eq5", q)["algebra"]))
    for _, A in out:
        A.unit()
    return out


COARSENING_CASES = (("eq7", 2), ("eq7", 4), ("okuboeq3", 4), ("eq6", 2), ("okuboeq1", 2),
                    ("okuboeq6", 2), ("eq2", 3), ("eq2", 9), ("eq1", 3), ("eq1", 9), ("eq5", 2))
# criterion 4: the coarsening lattices of eq2 and eq1 over GF(3)
LATTICES = {("eq2", 3): ("eq2", "eq3", "eq4", "main-b42", "trivial-b42"),
            ("eq1", 3): ("eq1", "main-b12", "trivial-b12")}


def _smallest_field(entry):
    if entry.char == 3:
        return 3
    return 4 if entry.needs_omega else 2


def setup_enumeration(cs):
    cat = cs.catalog
    GF = cs.fields.GF
    small = _small_algebras(cs)
    twisted = {}  # criterion 5: nonzero twists of B(1,2)/GF(3) -> {main, trivial} keys
    for label, S in small:
        if label.startswith("B(1,2)_") and label.endswith("/GF(3)") and not label.startswith("B(1,2)_0"):
            twisted[label] = {cs.gradings.main_grading(S).component_keys(),
                              cs.gradings.trivial_grading(S).component_keys()}
    coarsen = []
    for i, q in COARSENING_CASES:
        g = _entry(cs, i, q)
        want = None
        if (i, q) in LATTICES:
            want = {_entry(cs, j, q).component_keys() for j in LATTICES[i, q]}
        coarsen.append((f"{i}/GF({q})", g, want))
    autos = []
    for i in cat.LABELLED_IDS:
        q = _smallest_field(cat.ENTRIES[i])
        autos.append((f"{i}/GF({q})", _entry(cs, i, q)))
    pairs = {}  # (kind, group index) -> [(ga, gb)]: isomorphic, distinct triples
    for kind in ("cayley", "okubo"):
        A, cb, per_group = _dim8_gradings(cs, kind)
        equiv = _triple_equiv if kind == "cayley" else _okubo_equiv
        for gi, triples, gr in per_group:
            pairs[kind, gi] = [(gr[t1], gr[t2]) for t1 in triples for t2 in triples
                               if t1 != t2 and equiv(t1, t2)]
    verify = []
    for i in cat.catalog_ids():
        e = cat.ENTRIES[i]
        for q in ((3, 9) if e.char == 3 else (2, 4)):
            F = GF(q)
            unmet = e.needs_omega and F.primitive_cube_root_raw() is None
            if not unmet:
                _entry(cs, i, q)
            verify.append((f"{i}/GF({q})", i, F, unmet))
    return {"cs": cs, "small": small, "twisted": twisted, "coarsen": coarsen,
            "autos": autos, "pairs": pairs, "verify": verify,
            "budget": counting_budget(cs.search)}


def jobs_enumeration(inp, rng):
    cs = inp["cs"]
    se = cs.search
    budget = inp["budget"]
    jobs = []

    def gradings_ok(res, label):
        if not res.complete or len(res.gradings) != PINNED_GRADINGS[label]:
            return False
        if label in inp["twisted"]:
            return {g.component_keys() for g in res.gradings} == inp["twisted"][label]
        return all(cs.gradings.validate(g)[0] for g in res.gradings)

    for label, S in inp["small"]:
        jobs.append(Job(f"gradings {label}",
                        lambda S=S: se.enumerate_all_gradings(S, budget=budget),
                        lambda r, label=label: gradings_ok(r, label)))

    def coarsenings_ok(out, label, want):
        if len(out) != PINNED_COARSENINGS[label]:
            return False
        return want is None or {g.component_keys() for g in out} == want

    for label, g, want in inp["coarsen"]:
        jobs.append(Job(f"coarsenings {label}", lambda g=g: cs.gradings.coarsenings_enum(g),
                        lambda r, label=label, want=want: coarsenings_ok(r, label, want)))

    def autos_ok(out, label, g):
        return (len(out) == PINNED_AUTOMORPHISMS[label]
                and all(_verified(cs, f, g, g) for f in out))

    for label, g in inp["autos"]:
        jobs.append(Job(f"automorphisms {label}",
                        lambda g=g: se.enumerate_automorphisms(g.algebra, g, budget=budget),
                        lambda r, label=label, g=g: autos_ok(r, label, g)))
    for n, (ga, gb) in enumerate(_sample(rng, inp["pairs"], MAPS_FRACTION)):
        A = ga.algebra
        jobs.append(Job(f"graded-map #{n}",
                        lambda A=A, ga=ga, gb=gb: se.find_graded_map(A, ga, A, gb, budget=budget),
                        lambda f, ga=ga, gb=gb: _verified(cs, f, ga, gb)))

    def verify_ok(report, unmet):
        if unmet:
            return report.get("status") == "field-condition-unmet"
        return report.get("status") == "built" and report["pass"] is True

    for label, i, F, unmet in inp["verify"]:
        jobs.append(Job(f"verify {label}", lambda i=i, F=F: cs.catalog.verify_entry(i, F),
                        lambda r, unmet=unmet: verify_ok(r, unmet)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "axioms": (setup_axioms, jobs_axioms),
    "isomorphism": (setup_isomorphism, jobs_isomorphism),
    "fineness": (setup_fineness, jobs_fineness),
    "enumeration": (setup_enumeration, jobs_enumeration),
}
