"""One pass of every workload of the verdict benchmark (bench/workloads.py),
each answer checked by the workload's own oracle.

bench/test_bench.py checks the benchmark harness outside this suite; this
test keeps every job's oracle in the tier-1 suite, so a change that turns
a benchmark verdict wrong fails here and not only when the benchmark runs.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import compsuper

_SPEC = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_of_one_pass_meets_its_oracle(name):
    setup, jobs = workloads.WORKLOADS[name]
    one_pass = jobs(setup(compsuper), random.Random(1))
    assert one_pass
    assert [job.name for job in one_pass if job.check(job.run()) is not True] == []
