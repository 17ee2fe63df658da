import json

import pytest

from compsuper.cli import run


def test_build_emits_algebra_json(capsys, tmp_path):
    out = tmp_path / "alg.json"
    code = run(["build", "--construction", "split8", "--field", "GF(2)", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 8 and data["field"] == "GF(2)"
    assert len(data["structure"]) > 0


def test_check_okubo_passes(capsys):
    code = run(["check", "--construction", "okubo-nst", "--field", "GF(2)"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert all(r["pass"] for r in payload["axioms"])


def test_check_reports_deterministic_output(capsys):
    run(["check", "--construction", "b12", "--field", "GF(3)"])
    first = capsys.readouterr().out
    run(["check", "--construction", "b12", "--field", "GF(3)"])
    second = capsys.readouterr().out
    assert first == second


def test_catalog_verify_wrong_characteristic_exits_2(capsys):
    code = run(["catalog", "verify", "eq1", "--field", "GF(2)"])
    assert code == 2


def test_catalog_verify_all_over_gf16(capsys):
    """Every entry over GF(16) passes or is skipped for its field condition."""
    assert run(["catalog", "verify", "all", "--field", "GF(16)"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert sum(r["pass"] for r in reports) == 33


def test_catalog_list(capsys):
    code = run(["catalog", "list"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [e["id"] for e in payload["entries"]]
    assert "eq1" in ids and "okuboeq12" in ids and len(ids) == 41


def test_universal_group_prints_group_string(capsys):
    code = run(["universal-group", "--catalog", "eq4", "--field", "GF(3)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Z3"


def test_equiv_subcommand(capsys):
    code = run([
        "equiv", "--catalog", "eq3", "--catalog2", "eq4",
        "--field", "GF(3)", "--mode", "equivalence",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == "proven-none"
    code = run([
        "equiv", "--catalog", "eq2", "--catalog2", "eq2", "--field", "GF(3)",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == "found"


@pytest.mark.parametrize("argv, needle", [
    (["equiv", "--catalog2", "eq2", "--field", "GF(3)"], "--catalog"),
    (["equiv", "--grading-file", "g.json", "--catalog2", "eq2"], "--grading-file"),
    (["equiv", "--grading-file", "g.json", "--catalog", "eq2", "--catalog2", "eq2"],
     "--grading-file"),
    (["equiv", "--catalog", "eq99", "--catalog2", "eq2"], "unknown catalog id 'eq99'"),
    (["fine", "--catalog", "eq99"], "unknown catalog id 'eq99'"),
], ids=["equiv-no-catalog", "equiv-grading-file", "equiv-grading-file-and-catalog",
        "equiv-unknown-id", "fine-unknown-id"])
def test_catalog_arguments_exit_2(capsys, argv, needle):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert needle in err


def test_autos_subcommand(capsys):
    code = run(["autos", "--catalog", "eq1", "--field", "GF(3)"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


@pytest.mark.parametrize("argv", [
    ["autos", "--catalog", "okuboeq4", "--field", "GF(4)"],
    ["equiv", "--catalog", "eq6", "--catalog2", "okuboeq1", "--field", "GF(4)"],
    ["fine", "--catalog", "main-cd8", "--field", "GF(2)"],
], ids=["autos", "equiv", "fine"])
def test_autos_budget_exhausted_exits_1(capsys, argv):
    """Every search command reports an exhausted budget the same way."""
    code = run(argv + ["--budget", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"result": "budget-exhausted", "nodes": 11}


@pytest.mark.parametrize("argv", [
    ["build", "--construction", "nope"],
    ["fine", "--budget", "x"],
    ["equiv", "--catalog", "eq2"],
    [],
    ["build", "--construction", "split2", "--budget", "10"],
], ids=["bad-choice", "bad-int", "missing-catalog2", "no-command", "unknown-option"])
def test_usage_errors_print_one_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_enumerate_subcommand(capsys):
    code = run([
        "enumerate", "--construction", "b12lambda", "--lambda", "1", "--field", "GF(3)",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] and payload["count"] == 2


def test_enumerate_budget_exhausted_exits_1(capsys):
    """The budget bounds the decomposition listing: split4/GF(4) stops
    inside its even block with no grading."""
    code = run(["enumerate", "--construction", "split4", "--field", "GF(4)", "--budget", "10"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["complete"], payload["count"]) == (False, 0)


def test_budget_bounds_the_subspace_listing(capsys):
    """The even block of split2/GF(1000003) has 1,000,005 subspaces; each
    one listed is charged, so a small budget stops the listing itself."""
    code = run(["enumerate", "--construction", "split2", "--field", "GF(1000003)",
                "--budget", "1000"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["complete"], payload["count"]) == (False, 0)


def test_fine_subcommand(capsys):
    code = run(["fine", "--catalog", "eq7", "--field", "GF(2)"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == "fine"
    code = run(["fine", "--catalog", "main-cd8", "--field", "GF(2)"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "refinable" and "witness" in payload


def test_grading_file_round_trip(capsys, tmp_path):
    # export an algebra plus its own grading, reload through the file path
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": A.to_json(), "grading": g.to_json()}))
    code = run(["universal-group", "--grading-file", str(path), "--field", "GF(3)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Z4"


@pytest.mark.parametrize("command", ["universal-group", "fine", "autos"])
def test_decomposition_that_is_not_a_grading_exits_1(capsys, tmp_path, command):
    """Every command that reads a grading prints `validate`'s witness for a
    decomposition that is not a grading: split4/GF(2) with {e1, u1} in
    degree 0 and {e2, v1} in degree 1 of Z2, where u1 e2 = u1 lies in
    degree 0, not 1."""
    from compsuper.abelian import AbGroup
    from compsuper.constructions import split_hurwitz
    from compsuper.fields import GF
    from compsuper.gradings import grading_from_components

    A, cb = split_hurwitz(4, GF(2))
    G = AbGroup(0, (2,))
    v = cb.vectors
    g = grading_from_components(A, G, [(G.element(0), [v["e1"], v["u1"]]),
                                       (G.element(1), [v["e2"], v["v1"]])])
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": A.to_json(), "grading": g.to_json()}))
    code = run([command, "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"valid": False, "witness": ["0 mod 2", "1 mod 2", "u1"]}


def test_basis_names_must_be_strings(capsys, tmp_path):
    """Names that are not strings exit 2 with one line, before `fine` would
    print the witness of a decomposition that is not a grading through
    them (split4/GF(3), the Z2 decomposition above)."""
    from compsuper.abelian import AbGroup
    from compsuper.constructions import split_hurwitz
    from compsuper.fields import GF
    from compsuper.gradings import grading_from_components

    A, cb = split_hurwitz(4, GF(3))
    G = AbGroup(0, (2,))
    v = cb.vectors
    g = grading_from_components(A, G, [(G.element(0), [v["e1"], v["u1"]]),
                                       (G.element(1), [v["e2"], v["v1"]])])
    algebra = A.to_json()
    algebra["basis"] = [1, 2, 3, 4]
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": algebra, "grading": g.to_json()}))
    code = run(["fine", "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert "algebra.basis" in captured.err


def test_grading_file_field_must_match_field_option(capsys, tmp_path):
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": A.to_json(), "grading": g.to_json()}))
    code = run(["universal-group", "--grading-file", str(path), "--field", "GF(2)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "GF(2)" in err and "GF(3)" in err
    # without --field the file's own field is used
    assert run(["universal-group", "--grading-file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "Z4"


def test_catalog_field_defaults_to_gf2(capsys):
    assert run(["universal-group", "--catalog", "eq7"]) == 0
    default = capsys.readouterr().out
    assert run(["universal-group", "--catalog", "eq7", "--field", "GF(2)"]) == 0
    assert capsys.readouterr().out == default


def test_malformed_algebra_json_exits_2(capsys, tmp_path):
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    algebra = A.to_json()
    algebra["q0_values"] = algebra["q0_values"][:-1]
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": algebra, "grading": g.to_json()}))
    code = run(["universal-group", "--grading-file", str(path), "--field", "GF(3)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_unknown_construction_exits_2(capsys):
    assert run(["check", "--construction", "b12", "--field", "GF(7)"]) == 2
    assert run(["build", "--construction", "cd", "--base", "bogus", "--field", "GF(2)"]) == 2


def test_construction_options_are_refused_where_unread(capsys):
    """--alpha, --lambda and --base exit 2 with a one-line error on a
    construction that does not read them; cd and para still default to
    split4."""
    refused = [
        (["build", "--construction", "split8", "--alpha", "1", "--lambda", "2",
          "--base", "nonsplit2"], "--alpha, --lambda, --base"),
        (["check", "--construction", "b12", "--lambda", "1", "--field", "GF(3)"], "--lambda"),
        (["check", "--construction", "para", "--alpha", "1"], "--alpha"),
        (["build", "--construction", "cd", "--lambda", "1"], "--lambda"),
        (["build", "--construction", "b12lambda", "--base", "split4", "--field", "GF(3)"],
         "--base"),
        (["enumerate", "--construction", "split2", "--base", "split2"], "--base"),
    ]
    for argv, options in refused:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.strip().splitlines() == [
            f"error: construction {argv[2]} does not read {options}"], argv
    for construction in ("cd", "para"):
        assert run(["build", "--construction", construction]) == 0
        default = capsys.readouterr().out
        assert run(["build", "--construction", construction, "--base", "split4"]) == 0
        assert capsys.readouterr().out == default
    accepted = [["check", "--construction", "cd", "--alpha", "1", "--base", "split2"],
                ["check", "--construction", "b12lambda", "--lambda", "1", "--field", "GF(3)"]]
    for argv in accepted:
        assert run(argv) == 0, argv
        capsys.readouterr()


def test_base_choices_match_the_help(capsys):
    """cd and para accept exactly the bases the help names for each; para
    over nonsplit2 is para-K."""
    assert run(["build", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "cd: split2|split4|nonsplit2;" in help_text
    assert "para: split2|split4|split8|nonsplit2" in help_text
    accepted = {"cd": ("split2", "split4", "nonsplit2"),
                "para": ("split2", "split4", "split8", "nonsplit2")}
    for construction, bases in accepted.items():
        for base in ("split2", "split4", "split8", "nonsplit2", "b12", "cd"):
            argv = ["check", "--construction", construction, "--base", base]
            code = run(argv)
            captured = capsys.readouterr()
            if base not in bases:
                assert code == 2, argv
                assert captured.err.startswith("error:"), argv
                assert len(captured.err.strip().splitlines()) == 1, argv
                assert "|".join(bases) in captured.err.replace(", ", "|"), argv
                continue
            assert code == 0, argv
            if construction == "para" and base == "nonsplit2":
                axioms = json.loads(captured.out)["axioms"]
                assert [(r["check"], r["pass"]) for r in axioms] == [("symmetric", True)]
    assert run(["build", "--construction", "para", "--base", "nonsplit2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["dim"], data["name"]) == (2, "para-K(w^2+w+1)")


def test_nonpositive_budget_exits_2(capsys):
    code = run(["fine", "--catalog", "eq7", "--field", "GF(2)", "--budget", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", [[99, 0, 0, "1"], [0, -1, 0, "1"]])
def test_structure_index_out_of_range_exits_2(capsys, tmp_path, bad):
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    algebra = A.to_json()
    algebra["structure"].append(bad)
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": algebra, "grading": g.to_json()}))
    code = run(["universal-group", "--grading-file", str(path), "--field", "GF(3)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert str(bad) in err



@pytest.mark.parametrize("argv", [
    ["build", "--construction", "split2"],
    ["check", "--construction", "split2"],
    ["universal-group", "--catalog", "eq7"],
], ids=["build", "check", "universal-group"])
def test_budget_is_refused_where_nothing_searches(capsys, argv):
    assert run(argv + ["--budget", "10"]) == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["equiv", "--catalog", "eq2", "--catalog2", "eq2", "--field", "GF(3)"],
    ["autos", "--catalog", "eq7"],
    ["enumerate", "--construction", "split2"],
    ["fine", "--catalog", "eq7"],
], ids=["equiv", "autos", "enumerate", "fine"])
def test_searching_subcommands_read_the_budget(capsys, argv):
    assert run(argv + ["--budget", "0"]) == 2
    assert "search budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "GF(1000000000000000003)", "GF(1_1)", "GF(\u0663)", "GF( 3)",
], ids=["huge-order", "underscore", "arabic-indic-digit", "inner-space"])
def test_bad_field_names_exit_2(capsys, tmp_path, name):
    """On the command line and in a grading file, a field order of 2**31 or
    more exits 2 at once (trial division would take 10**9 steps on this
    prime), and the order must be spelled in ASCII digits."""
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    code = run(["check", "--construction", "split2", "--field", name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    A, g = build_entry("eq3", GF(3))
    algebra = A.to_json()
    algebra["field"] = name
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": algebra, "grading": g.to_json()}))
    code = run(["universal-group", "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["GF(6)", "GF(512)"])
def test_field_orders_without_a_field_exit_2(capsys, name):
    """6 is no prime power, and 512 = 2^9 is above the table limit."""
    assert run(["check", "--construction", "b12", "--field", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_deeply_nested_grading_file_exits_2(capsys, tmp_path):
    """json.load raises RecursionError on 200,000 nested lists; the CLI
    reports it as malformed input, not as a failed verification."""
    path = tmp_path / "grading.json"
    path.write_text("[" * 200_000)
    code = run(["fine", "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert "nested too deeply" in captured.err


def _first_component(data):
    return data["grading"]["components"][0]


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["algebra"].pop("structure"), "structure"),
    (lambda d: d.pop("grading"), "grading"),
    (lambda d: d["grading"].pop("group"), "group"),
    (lambda d: _first_component(d).pop("basis"), "basis"),
    (lambda d: _first_component(d).update(coords=[]), "coords"),
    (lambda d: d.update(algebra=3), "algebra"),
    (lambda d: _first_component(d)["basis"][0].__delitem__(slice(1, None)), "basis"),
    (lambda d: d["algebra"]["q0_values"].__setitem__(0, ["1"]), "q0_values"),
    (lambda d: d["algebra"]["structure"][0].__setitem__(3, 1.5), "structure"),
    (lambda d: d["algebra"].update(basis=5), "basis"),
    (lambda d: d["algebra"]["q0_values"].__setitem__(0, "1_0"), "'1_0'"),
    (lambda d: d["algebra"]["structure"][0].__setitem__(3, "\u0661"), "structure"),
    (lambda d: _first_component(d)["basis"][0].__setitem__(0, " 1"), "basis"),
    (lambda d: d["grading"].update(group="Q4"), "'Q4' is not a group part"),
    (lambda d: d["grading"].update(group="Z 4"), "'Z 4' is not a group part"),
    (lambda d: d["grading"].update(group="Z0_4"), "'Z0_4' is not a group part"),
], ids=["no-structure", "no-grading", "no-group", "no-basis", "empty-coords",
        "algebra-not-object", "one-entry-basis-vector", "list-q0-value",
        "float-structure-coefficient", "basis-names-not-list", "underscore-q0-value",
        "arabic-indic-structure-coefficient", "spaced-basis-entry", "misspelt-group",
        "spaced-group", "underscore-group"])
def test_malformed_grading_file_exits_2(capsys, tmp_path, edit, field):
    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    data = {"algebra": A.to_json(), "grading": g.to_json()}
    edit(data)
    path = tmp_path / "grading.json"
    path.write_text(json.dumps(data))
    code = run(["universal-group", "--grading-file", str(path), "--field", "GF(3)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert field in err


# GF(3) as a 1-dimensional even algebra, graded by Z2 with the unit in
# degree 0; `universal-group` accepts it and prints 0
ONE_DIM_GRADING_FILE = {
    "algebra": {"field": "GF(3)", "dim": 1, "parity": [0], "structure": [[0, 0, 0, "1"]],
                "q0_values": ["1"], "polar": [["2"]]},
    "grading": {"group": "Z2", "components": [{"coords": [0], "basis": [["1"]]}]},
}


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["algebra"].update(dim=True), "dim"),
    (lambda d: d["algebra"].update(parity=[False]), "parity"),
    (lambda d: d["algebra"].update(structure=[[False, False, False, "1"]]), "structure"),
    (lambda d: _first_component(d).update(coords=[False]), "coords"),
], ids=["dim", "parity", "structure", "coords"])
def test_json_booleans_are_not_integers(capsys, tmp_path, edit, field):
    """JSON false reads as the Python bool False, which is an int equal to
    0; each of these edits still names an integer by a boolean, so the
    file is malformed."""
    path = tmp_path / "grading.json"
    path.write_text(json.dumps(ONE_DIM_GRADING_FILE))
    assert run(["universal-group", "--grading-file", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"
    data = json.loads(json.dumps(ONE_DIM_GRADING_FILE))
    edit(data)
    path.write_text(json.dumps(data))
    code = run(["universal-group", "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert field in captured.err


def _mutations(data, draw):
    """Edit `data`, an eq3/GF(3) grading file, so that the CLI must reject
    it; returns a description of the edit."""
    from hypothesis import strategies as st

    alg, grading = data["algebra"], data["grading"]
    comps = grading["components"]
    n = alg["dim"]
    not_scalar = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                           st.lists(st.integers(), max_size=2), st.just({"1": 1}))
    not_int = st.one_of(st.none(), st.floats(allow_nan=False), st.text(max_size=3),
                        st.lists(st.integers(), max_size=2), st.just({}))
    not_str = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                        st.lists(st.text(max_size=2), max_size=2), st.just({}))
    not_list = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=3), st.just({}))
    kind = draw(st.sampled_from([
        "drop-key", "wrong-type", "bad-scalar", "bad-index", "short-list", "bad-dim", "polar-entry",
    ]))
    members = [(data, "algebra"), (data, "grading")] + [(alg, k) for k in (
        "field", "dim", "structure", "parity", "q0_values", "polar")] + [
        (grading, "group"), (grading, "components")] + [
        (c, k) for c in comps for k in ("coords", "basis")]
    if kind == "drop-key":
        obj, key = draw(st.sampled_from(members))
        del obj[key]
        return kind, key
    if kind == "wrong-type":
        obj, key = draw(st.sampled_from(members))
        value = obj[key]
        obj[key] = draw(not_str if isinstance(value, str) else
                        not_int if isinstance(value, int) else not_list)
        return kind, key
    if kind == "bad-scalar":  # a structure coefficient, q0 value, polar or basis entry
        rows = [alg["q0_values"]] + alg["polar"] + [v for c in comps for v in c["basis"]]
        row, j = draw(st.one_of(
            st.sampled_from(alg["structure"]).map(lambda entry: (entry, 3)),
            st.sampled_from(rows).flatmap(
                lambda row: st.integers(0, len(row) - 1).map(lambda j: (row, j)))))
        row[j] = draw(not_scalar)
        return kind, j
    if kind == "bad-index":
        entry = draw(st.sampled_from(alg["structure"]))
        j = draw(st.integers(0, 2))
        entry[j] = draw(st.one_of(not_int, st.integers(n, n + 3), st.integers(-3, -1)))
        return kind, j
    if kind == "short-list":
        lists = (alg["structure"] + [alg["q0_values"], alg["parity"]] + alg["polar"]
                 + [c["coords"] for c in comps] + [v for c in comps for v in c["basis"]])
        lst = draw(st.sampled_from(lists))
        del lst[draw(st.integers(0, len(lst) - 1))]
        return kind, len(lst)
    if kind == "bad-dim":
        alg["dim"] = draw(st.integers(-3, 40).filter(lambda d: d != n))
        return kind, alg["dim"]
    # any other value of a polar entry breaks the symmetry (even block),
    # the skew symmetry (odd block), b(x,x) = 2 q0(x) (even diagonal), the
    # zero diagonal of the odd block, or the zero even x odd block
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    alg["polar"][i][j] = draw(st.sampled_from([c for c in ("0", "1", "2")
                                               if c != alg["polar"][i][j]]))
    return kind, (i, j)


def test_malformed_grading_files_exit_2_without_traceback(tmp_path):
    """Property: every malformed grading file, and every truncation of a
    valid one, exits 2 with one `error:` line on stderr and nothing on
    stdout."""
    import contextlib
    import io

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    text = json.dumps({"algebra": A.to_json(), "grading": g.to_json()})
    path = tmp_path / "grading.json"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            bad = text[:data.draw(st.integers(0, len(text) - 1))]
            what = ("truncated", len(bad))
        else:
            edited = json.loads(text)
            what = _mutations(edited, data.draw)
            bad = json.dumps(edited)
        path.write_text(bad)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["universal-group", "--grading-file", str(path)])
        assert code == 2, (what, out.getvalue())
        assert out.getvalue() == "", what
        assert err.getvalue().startswith("error:"), what
        assert len(err.getvalue().strip().splitlines()) == 1, what

    check()


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("parity_too", [False, True], ids=["dim", "dim-and-parity"])
def test_grading_file_dim_is_checked_before_the_table(tmp_path, parity_too):
    """A "dim" that disagrees with "parity", "q0_values" or "polar" exits 2
    before the algebra's dim x dim x dim table is allocated.  The CLI runs
    in a child process under a 1 GiB address-space limit, where a 2000^3
    table would raise MemoryError (a traceback and exit 1)."""
    import subprocess
    import sys

    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    algebra = A.to_json()
    algebra["dim"] = 2000
    if parity_too:
        algebra["parity"] = [0] * 2000
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": algebra, "grading": g.to_json()}))
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from compsuper.cli import run; sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", child, "universal-group", "--grading-file",
                           str(path)], capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1
    assert "algebra.dim" in proc.stderr and proc.stdout == ""


def test_group_generators_are_checked_before_the_group_is_built(tmp_path):
    """A group name of 10^8 generators against coords of one exits 2
    before the list of its invariant factors is built, in a child process
    under a 1 GiB address-space limit and a time limit."""
    import subprocess
    import sys

    from compsuper.catalog import build_entry
    from compsuper.fields import GF

    A, g = build_entry("eq3", GF(3))
    grading = g.to_json()
    grading["group"] = "Z2^100000000"
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": A.to_json(), "grading": grading}))
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from compsuper.cli import run; sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", child, "universal-group", "--grading-file",
                           str(path)], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1
    assert "coords must hold 100000000 integers" in proc.stderr and proc.stdout == ""


def test_a_grading_file_needs_a_component(capsys, tmp_path):
    data = json.loads(json.dumps(ONE_DIM_GRADING_FILE))
    data["grading"]["components"] = []
    path = tmp_path / "grading.json"
    path.write_text(json.dumps(data))
    code = run(["universal-group", "--grading-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: grading.components must not be empty\n"


def test_autos_over_q_exits_2(capsys, tmp_path):
    from compsuper.constructions import split_hurwitz
    from compsuper.fields import QQ
    from compsuper.gradings import main_grading

    A, _ = split_hurwitz(4, QQ)
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"algebra": A.to_json(), "grading": main_grading(A).to_json()}))
    code = run(["autos", "--grading-file", str(path), "--field", "Q"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "finite field" in err


def test_python_m_compsuper_runs():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "compsuper", "catalog", "list"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"]


@pytest.mark.parametrize("stderr_too", [False, True], ids=["stdout", "stdout-and-stderr"])
def test_a_closed_stdout_exits_141_without_an_error_line(stderr_too):
    """A reader that has gone, as in `compsuper enumerate ... | head -c 400`,
    is not malformed input: no `error:` line, no traceback, exit 141 (128 +
    SIGPIPE), also when stderr goes into the same pipe.  The child writes
    into a pipe whose read end is closed before it starts."""
    import os
    import subprocess
    import sys

    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "compsuper", "enumerate", "--construction",
                               "split4", "--field", "GF(2)"], stdout=w,
                              stderr=w if stderr_too else subprocess.PIPE, env=_src_env(),
                              timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert stderr_too or proc.stderr == b""
