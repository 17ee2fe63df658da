"""Checks of the benchmark itself; run with `python -m pytest bench/`.

They are not part of the tier-1 suite (pytest's testpaths is `tests/`).
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_for_a_fixed_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "fineness", "--seed", "7", "--seconds", "1", "--trace", "1"]
    first, second = _result(_run(args)), _result(_run(args))
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")
              and m["name"] != "trace.overhead_ratio"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["search.nodes"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _result(_run(["--workload", "fineness", "--seed", "3", "--seconds", "1"]))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3 * 28
    assert sorted(res["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_wrong_verdicts_count_as_failed():
    setup_fn, jobs_fn = WORKLOADS["fineness"]
    _, inputs = run.setup(WORKLOADS["fineness"])
    jobs = jobs_fn(inputs, random.Random(1))
    cs = inputs["cs"]
    refinable = next(j for j in jobs if j.name.startswith("fine trivial-cd4"))
    fine = next(j for j in jobs if j.name.startswith("fine eq7"))
    refinable.run = lambda: ("fine", None)  # a wrong verdict

    def exhausted():
        raise cs.search.BudgetExhausted(1)

    fine.run = exhausted
    tally = run.Tally(jobs)
    tally.run_pass()
    assert tally.attempted == len(jobs)
    assert tally.failed == 2
    assert tally.failed / tally.attempted > 0


def test_isomorphism_oracle_rejects_a_map_where_none_exists():
    _, inputs = run.setup(WORKLOADS["isomorphism"])
    jobs = WORKLOADS["isomorphism"][1](inputs, random.Random(2))
    job = next(j for j in jobs if j.name.startswith("iso okubo") and j.check(None))
    assert job.run() is None  # a pair proved non-isomorphic
    cs = inputs["cs"]
    A = inputs["algebras"]["okubo"]
    job.run = lambda: cs.superalgebra.identity_morphism(A)  # claims a map
    tally = run.Tally([job])
    tally.run_pass()
    assert tally.failed == 1


def test_latencies_scale_with_the_probes_nearest_them():
    probe = run.SpeedProbe()
    near = run.PROBE_NEAR
    # a phase at nominal speed, then one twice as slow
    probe.times = [float(t) for t in range(4 * near)]
    probe.durations = [run.REF_S] * (2 * near) + [2 * run.REF_S] * (2 * near)
    assert probe.scale(0.5) == 1.0 and probe.scale(near - 0.5) == 1.0
    assert probe.scale(3 * near + 0.5) == 0.5 and probe.scale(1e9) == 0.5
    tally = run.Tally([None, None], probe)
    tally.samples = [(1, 1.0, 0.2), (0, 3.0 * near, 0.4), (1, 3.0 * near, 0.6)]
    assert tally.scaled() == [[0.2], [0.2, 0.3]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_library_sources(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "axioms", "--seed", "1", "--seconds", "1", "--trace", trace],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
