"""Command-line front end: builds constructions, runs axiom checks,
verifies catalog entries and emits deterministic JSON reports.

Exit codes: 0 all checks passed, 1 verification failure (witnesses in
the JSON), 2 usage or field errors.
"""

import argparse
import json
import os
import sys

from . import acceptance, catalog
from .abelian import group_from_string
from .axioms import (
    check_composition_super,
    check_hurwitz,
    check_remark_identities,
    check_symmetric,
)
from .constructions import (
    b12,
    b42,
    b12_lambda,
    cayley_dickson_super,
    nonsplit_quadratic,
    okubo_super,
    para_hurwitz,
    pseudo_octonion,
    split_hurwitz,
)
from .fields import field_from_string
from .gradings import grading_from_components, universal_group, validate
from .search import (
    BudgetExhausted,
    SearchBudget,
    enumerate_all_gradings,
    enumerate_automorphisms,
    find_graded_map,
    fine_check,
)
from .superalgebra import SuperAlgebra, json_member, json_scalar

CONSTRUCTIONS = (
    "split2", "split4", "split8", "cd", "b12", "b42", "para",
    "b12lambda", "okubo-nst", "okubo-omega", "p8",
)
CD_BASES = ("split2", "split4", "nonsplit2")
PARA_BASES = ("split2", "split4", "split8", "nonsplit2")
# the construction options each construction reads; the others refuse them
READS = {"cd": ("--alpha", "--base"), "para": ("--base",), "b12lambda": ("--lambda",)}


class UsageError(ValueError):
    pass


class NotAGrading(Exception):
    """A decomposition that `validate` rejects; `run` prints the witness
    as {"valid": false, "witness": [...]} and exits 1."""

    def __init__(self, witness):
        super().__init__(witness)
        self.witness = witness


def build_construction(name, field, alpha=None, lam=None, base=None):
    """Returns (algebra, context dict); context may carry phi/cb/hurwitz.

    Raises UsageError for an unknown construction, or for a given
    `alpha`, `lam` or `base` that the construction does not read (see
    READS); cd and para take split4 when `base` is None."""
    if name not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {name!r}; choose from {CONSTRUCTIONS}")
    given = {"--alpha": alpha, "--lambda": lam, "--base": base}
    unread = [opt for opt, value in given.items()
              if value is not None and opt not in READS.get(name, ())]
    if unread:
        raise UsageError(f"construction {name} does not read {', '.join(unread)}")
    base = "split4" if base is None else base
    if name in ("split2", "split4", "split8"):
        A, cb = split_hurwitz(int(name[-1]), field)
        return A, {"cb": cb}
    if name == "cd":
        a = field.one if alpha is None else field.parse_elt(alpha)
        return cayley_dickson_super(_hurwitz_base(name, base, CD_BASES, field), a), {}
    if name == "b12":
        return b12(field), {}
    if name == "b42":
        return b42(field), {}
    if name == "para":
        A = _hurwitz_base(name, base, PARA_BASES, field)
        return para_hurwitz(A), {"hurwitz": A}
    if name == "b12lambda":
        l = field.zero if lam is None else field.parse_elt(lam)
        S, phi, C = b12_lambda(field, l)
        return S, {"phi": phi, "hurwitz": C}
    if name in ("okubo-nst", "okubo-omega"):
        S, phi, cb, C = okubo_super(field, name.split("-")[1])
        return S, {"phi": phi, "cb": cb, "hurwitz": C}
    S, phi, cb, C = pseudo_octonion(field)  # p8, the last of CONSTRUCTIONS
    return S, {"phi": phi, "cb": cb, "hurwitz": C}


def _hurwitz_base(name, base, allowed, field):
    """The Hurwitz algebra named by --base for construction `name`."""
    if base not in allowed:
        raise UsageError(f"--base for {name} must be one of {', '.join(allowed)}, got {base!r}")
    if base == "nonsplit2":
        return nonsplit_quadratic(field)
    return split_hurwitz(int(base[-1]), field)[0]


def _emit(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_build(args):
    field = field_from_string(args.field)
    A, _ = build_construction(
        args.construction, field, alpha=args.alpha, lam=args.lam, base=args.base,
    )
    _emit(A.to_json(), args.out)
    return 0


def cmd_check(args):
    field = field_from_string(args.field)
    A, ctx = build_construction(
        args.construction, field, alpha=args.alpha, lam=args.lam, base=args.base,
    )
    hurwitz_like = args.construction in ("split2", "split4", "split8", "cd", "b12", "b42")
    reports = []
    if hurwitz_like:
        reports.append(check_hurwitz(A))
        reports.append(check_composition_super(A))
    else:
        reports.append(check_symmetric(A))
        if "phi" in ctx and "hurwitz" in ctx and args.construction.startswith("okubo"):
            reports.append(check_remark_identities(A, ctx["phi"], ctx["hurwitz"]))
    payload = {
        "construction": args.construction,
        "field": field.name,
        "axioms": [r.as_dict() for r in reports],
    }
    _emit(payload, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_catalog(args):
    field = field_from_string(args.field) if args.field else None
    if args.action == "list":
        rows = []
        for id in catalog.catalog_ids():
            e = catalog.ENTRIES[id]
            rows.append({
                "id": id,
                "family": e.family,
                "characteristic": e.char,
                "needs_cube_root": e.needs_omega,
                "group": e.claimed_group,
                "coarsening_of": e.coarsening_of or None,
                "fine": e.claimed_fine,
                "display": e.display,
            })
        _emit({"entries": rows}, args.out)
        return 0
    if field is None:
        raise UsageError("catalog verify needs --field")
    ids = catalog.catalog_ids() if args.id == "all" else [args.id]
    for id in ids:
        if id not in catalog.ENTRIES:
            raise UsageError(f"unknown catalog id {id!r}")
    reports = catalog.verify_catalog(field, ids)
    _emit({"reports": reports}, args.out)
    if args.id != "all" and reports[0].get("status") == "field-condition-unmet":
        raise UsageError(reports[0]["reason"])
    ok = all(r["pass"] or r.get("status") == "field-condition-unmet" for r in reports)
    return 0 if ok else 1


def _catalog_entry(id, field):
    """(algebra, grading) of a catalog entry; UsageError for an unknown id."""
    if id not in catalog.ENTRIES:
        raise UsageError(f"unknown catalog id {id!r}")
    return catalog.build_entry(id, field)


def _grading_from_args(args):
    """(algebra, grading) from --catalog over --field, or from --grading-file
    over the file's field, which a given --field must name.  Raises
    NotAGrading when `validate` rejects the decomposition."""
    if args.catalog:
        A, g = _catalog_entry(args.catalog, field_from_string(args.field or "GF(2)"))
    elif args.grading_file:
        A, g = _grading_file(args.grading_file, args.field)
    else:
        raise UsageError("need --catalog ID or --grading-file FILE")
    ok, witness = validate(g)
    if not ok:
        raise NotAGrading(witness)
    return A, g


def _grading_file(path, field_name):
    """(algebra, decomposition) read from a grading file; a given
    field_name must name the file's field."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    A = SuperAlgebra.from_json(json_member(data, "algebra", dict, "grading file"))
    if field_name is not None and field_from_string(field_name) != A.field:
        raise UsageError(
            f"--field {field_name} does not match the grading file's field {A.field.name}")
    grading = json_member(data, "grading", dict, "grading file")
    G = group_from_string(json_member(grading, "group", str, "grading"))
    comps = []
    for n, comp in enumerate(json_member(grading, "components", list, "grading")):
        where = f"grading.components[{n}]"
        coords = json_member(comp, "coords", list, where)
        if len(coords) != G.ngens or not all(type(c) is int for c in coords):
            raise ValueError(f"{where}.coords must hold {G.ngens} integers for {G}")
        deg = G.element(tuple(coords))
        vs = []
        for v in json_member(comp, "basis", list, where):
            if not isinstance(v, list) or len(v) != A.dim:
                raise ValueError(f"{where}.basis vector {v} must have {A.dim} entries")
            vs.append(tuple(json_scalar(A.field, c, f"{where}.basis") for c in v))
        comps.append((deg, vs))
    return A, grading_from_components(A, G, comps)


def cmd_universal_group(args):
    A, g = _grading_from_args(args)
    G, proj, injective = universal_group(g)
    print(str(G))
    if args.out:
        _emit({
            "group": str(G),
            "injective": injective,
            "degrees": [str(d) for d in proj],
        }, args.out)
    return 0


def cmd_equiv(args):
    if args.grading_file:
        raise UsageError("equiv compares two catalog entries; it takes no --grading-file")
    if not args.catalog:
        raise UsageError("equiv needs --catalog ID and --catalog2 ID")
    field = field_from_string(args.field or "GF(2)")
    A, ga = _catalog_entry(args.catalog, field)
    B, gb = _catalog_entry(args.catalog2, field)
    f = find_graded_map(A, ga, B, gb, mode=args.mode, budget=SearchBudget(args.budget))
    payload = {
        "mode": args.mode,
        "a": args.catalog,
        "b": args.catalog2,
        "field": field.name,
        "result": "found" if f else "proven-none",
    }
    if f:
        payload["map"] = [[A.field.fmt(c) for c in img] for img in f.images]
    _emit(payload, args.out)
    return 0


def cmd_autos(args):
    A, g = _grading_from_args(args)
    autos = enumerate_automorphisms(A, constraints=g, budget=SearchBudget(args.budget))
    payload = {
        "count": len(autos),
        "maps": [[[A.field.fmt(c) for c in img] for img in f.images] for f in autos],
    }
    _emit(payload, args.out)
    return 0


def cmd_enumerate(args):
    field = field_from_string(args.field)
    A, _ = build_construction(
        args.construction, field, alpha=args.alpha, lam=args.lam, base=args.base,
    )
    res = enumerate_all_gradings(A, budget=SearchBudget(args.budget))
    payload = {
        "construction": args.construction,
        "field": field.name,
        "complete": res.complete,
        "count": len(res.gradings),
        "gradings": [g.to_json() for g in res.gradings],
    }
    _emit(payload, args.out)
    return 0 if res.complete else 1


def cmd_fine(args):
    A, g = _grading_from_args(args)
    status, witness = fine_check(g, budget=SearchBudget(args.budget))
    payload = {"result": status}
    if witness is not None:
        payload["witness"] = witness.to_json()
    _emit(payload, args.out)
    return 0


def cmd_report(args):
    results = acceptance.run_all()
    payload = {"criteria": results, "all_passed": all(r["passed"] for r in results)}
    _emit(payload, args.out)
    return 0 if payload["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line,
    `error: <message>`, and exit 2; `add_subparsers` makes the
    subcommand parsers of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def make_parser():
    p = _Parser(
        prog="compsuper",
        description="Exact constructions and grading verification for composition superalgebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, construction=False, grading=False, two=False, budget=False):
        fields = '"Q", or "GF(q)" for q a prime, or a prime power up to 256'
        if grading:
            sp.add_argument("--field", default=None,
                            help=fields + "; default GF(2), or the grading file's field")
        else:
            sp.add_argument("--field", default="GF(2)", help=fields)
        sp.add_argument("--out", default=None, help="write JSON to this path")
        if budget:
            sp.add_argument("--budget", type=int, default=2_000_000)
        if construction:
            sp.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
            sp.add_argument("--alpha", default=None, help="doubling scalar")
            sp.add_argument("--lambda", dest="lam", default=None, help="twist parameter")
            sp.add_argument("--base", default=None,
                            help=f"Hurwitz base for cd: {'|'.join(CD_BASES)}; "
                                 f"for para: {'|'.join(PARA_BASES)} (default split4)")
        if grading:
            sp.add_argument("--catalog", default=None, help="catalog entry id")
            sp.add_argument("--grading-file", default=None)
        if two:
            sp.add_argument("--catalog2", required=True)
            sp.add_argument("--mode", default="isomorphism", choices=("isomorphism", "equivalence"))

    sp = sub.add_parser("build", help="emit a construction as JSON")
    common(sp, construction=True)
    sp.set_defaults(fn=cmd_build)
    sp = sub.add_parser("check", help="run the axiom suite for a construction")
    common(sp, construction=True)
    sp.set_defaults(fn=cmd_check)
    sp = sub.add_parser("catalog", help="list or verify catalog entries")
    sp.add_argument("action", choices=("list", "verify"))
    sp.add_argument("id", nargs="?", default="all")
    sp.add_argument("--field", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_catalog)
    sp = sub.add_parser("universal-group", help="print the universal grading group")
    common(sp, grading=True)
    sp.set_defaults(fn=cmd_universal_group)
    sp = sub.add_parser("equiv", help="search for a graded isomorphism between two entries")
    common(sp, grading=True, two=True, budget=True)
    sp.set_defaults(fn=cmd_equiv)
    sp = sub.add_parser("autos", help="enumerate graded automorphisms")
    common(sp, grading=True, budget=True)
    sp.set_defaults(fn=cmd_autos)
    sp = sub.add_parser("enumerate", help="enumerate all gradings (dim <= 4)")
    common(sp, construction=True, budget=True)
    sp.set_defaults(fn=cmd_enumerate)
    sp = sub.add_parser("fine", help="single-split fineness check")
    common(sp, grading=True, budget=True)
    sp.set_defaults(fn=cmd_fine)
    sp = sub.add_parser("report", help="run the full acceptance suite")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_report)
    return p


def run(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        try:
            code = args.fn(args)
        except NotAGrading as exc:
            _emit({"valid": False, "witness": [str(w) for w in exc.witness]}, args.out)
            code = 1
        except BudgetExhausted as exc:
            _emit({"result": "budget-exhausted", "nodes": exc.nodes}, args.out)
            code = 1
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`compsuper ... | head`), which is
        # not malformed input.  Send what is left to devnull, as the Python
        # `signal` docs advise, so that shutdown prints no traceback, and
        # exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
