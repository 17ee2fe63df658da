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


def test_enumerate_subcommand(capsys):
    code = run([
        "enumerate", "--construction", "b12lambda", "--lambda", "1", "--field", "GF(3)",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] and payload["count"] == 2


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
], ids=["no-structure", "no-grading", "no-group", "no-basis", "empty-coords",
        "algebra-not-object", "one-entry-basis-vector", "list-q0-value",
        "float-structure-coefficient", "basis-names-not-list"])
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
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "compsuper", "catalog", "list"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"]
