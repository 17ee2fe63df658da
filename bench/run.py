#!/usr/bin/env python3
"""Verdict benchmark for compsuper.

    python3 bench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each verdict job starts when the
previous one has finished.  The run imports the library from `src/` and
builds its inputs several times (set-up, median reported as `setup_s`).
The seed then fixes the run's jobs; passes over them, each in a new
seeded order, repeat until `--seconds` have passed (at least MIN_PASSES
passes).  Every answer is checked by the workload's oracle.

Every timing is scaled to a nominal speed of the host (see SpeedProbe):
a fixed pure-Python routine is timed between jobs, and each latency is
multiplied by REF_S over the routine's duration around it.  On a shared
host whose speed moves by up to 1.7x in phases of seconds to minutes,
the scaled times stay put while the raw ones follow the phase a run
happened to meet.  A job's latency is the median of its scaled latencies
over the passes; `wall_s` sums them over the jobs, `verdict_p50_ms` and
`verdict_tail_ms` are percentiles of them.  The raw pass time and job
median are printed on the `notes:` line.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the run makes one untraced pass, then sets up and runs the
same pass again with every layer wrapped (see layertrace.py), and reports
the per-layer metrics; the aggregated spans go to
`bench/out/trace-<workload>-<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 7  # set-ups per run; setup_s is their median
MIN_PASSES = 5  # passes per run, however short --seconds is
PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10  # job runs a run must have beyond the tail percentile
REF_STEPS = 1500  # loop steps of one call of reference()
REF_S = 300e-6  # nominal seconds of one reference() call (its median on a quiet 2-core VM)
PROBE_EVERY = 0.02  # seconds between speed probes during a pass
PROBE_NEAR = 33  # probes whose median sets the speed at a moment
SETUP_PROBES = 5  # probes just before and just after each set-up


def _import_fresh():
    """Import compsuper from scratch: a new copy of every module, so each
    set-up pays the import and starts from empty caches."""
    for name in [m for m in sys.modules if m == "compsuper" or m.startswith("compsuper.")]:
        del sys.modules[name]
    return importlib.import_module("compsuper")


def _mix(a, b):
    return (a * 31 + b) % 1000003


_REF_TABLE = [i * i % 101 for i in range(97)]


def reference():
    """Fixed pure-Python work (calls, dict and list access, integer
    arithmetic, the mix the library's loops are made of).  Its duration
    measures the speed the host gives the process at that moment."""
    d = {}
    acc = 0
    for i in range(REF_STEPS):
        k = i % 97
        d[k] = d.get(k, 0) + _REF_TABLE[k]
        acc = _mix(acc, k)
    return acc


class SpeedProbe:
    """Timed calls of reference(), taken between jobs.

    A shared 2-core virtual machine runs a process at between 1x and
    1/1.7x of its fastest speed, in phases of ten seconds to minutes.  A job's
    latency divided by the reference duration measured around it, times
    REF_S, is the latency at the nominal speed: the phase cancels, a
    change to the library does not."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.last = -math.inf

    def probe(self, n=1):
        perf = time.perf_counter
        for _ in range(n):
            t0 = perf()
            reference()
            t1 = perf()
            self.times.append(t0)
            self.durations.append(t1 - t0)
        self.last = t1

    def due(self, now):
        if now - self.last >= PROBE_EVERY:
            self.probe()

    def scale(self, t):
        """REF_S over the median duration of the PROBE_NEAR probes
        nearest to time t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - PROBE_NEAR // 2, len(self.times) - PROBE_NEAR))
        return REF_S / statistics.median(self.durations[lo:lo + PROBE_NEAR])


def setup(workload, trace_installer=None, probe=None):
    """(seconds, inputs): fresh import plus the workload's set-up.  The
    caller drops earlier inputs first, so every set-up starts, like a new
    process, from a heap without them.  A probe, if given, is run just
    before and just after, outside the timing."""
    gc.collect()
    if probe is not None:
        probe.probe(SETUP_PROBES)
    t0 = time.perf_counter()
    cs = _import_fresh()
    if trace_installer is not None:
        trace_installer(cs)
    inputs = workload[0](cs)
    dt = time.perf_counter() - t0
    if probe is not None:
        probe.probe(SETUP_PROBES)
    return dt, inputs


class Tally:
    """Latencies and oracle outcomes of one fixed list of jobs, run in
    passes."""

    def __init__(self, jobs, probe=None):
        self.jobs = jobs
        self.probe = probe
        self.samples = []  # (job index, start, latency) of every job run
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, order=None):
        """Run every job once, in `order` (job indices; default: list
        order); returns the summed job latency.  Garbage left by earlier
        passes is collected first, and the speed probes run between
        jobs, both outside the timing."""
        gc.collect()
        perf = time.perf_counter
        total = 0.0
        for i in range(len(self.jobs)) if order is None else order:
            job = self.jobs[i]
            if self.probe is not None:
                self.probe.due(perf())
            t0 = perf()
            try:
                answer = job.run()
                error = None
            except Exception as exc:  # a raising job (BudgetExhausted too) is a failed job
                answer, error = None, exc
            dt = perf() - t0
            total += dt
            self.samples.append((i, t0, dt))
            self.attempted += 1
            ok = False
            if error is None:
                try:
                    ok = job.check(answer) is True
                except Exception as exc:  # an answer the oracle cannot read is wrong
                    error = exc
            if not ok:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{job.name}: {error!r}" if error else job.name)
        return total

    def scaled(self):
        """Per job, its latencies so far scaled to the nominal speed."""
        scale = self.probe.scale
        per_job = [[] for _ in self.jobs]
        for i, t0, dt in self.samples:
            per_job[i].append(dt * scale(t0))
        return per_job


def tail_percentile(jobs):
    """Highest listed percentile of the job latencies with at least
    TAIL_BEYOND job runs beyond it: every job beyond it runs in at least
    MIN_PASSES passes.  It depends only on the number of jobs, so it does
    not change with the number of passes a run manages."""
    for p in PERCENTILES:
        if (jobs - math.ceil(p / 100.0 * jobs)) * MIN_PASSES >= TAIL_BEYOND:
            return p
    return PERCENTILES[-1]


def quantile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def machine_info():
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                commit = path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref[5:]):
                            commit = line.split()[0]
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run_untraced(workload, seed, seconds):
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUPS):
        inputs = None
        t0 = time.perf_counter()
        dt, inputs = setup(workload, probe=probe)
        setups.append((t0, dt))
    rng = random.Random(seed)
    tally = Tally(workload[1](inputs, rng), probe)
    n = len(tally.jobs)
    order = list(range(n))
    raw_passes = []
    t_start = time.perf_counter()
    while len(raw_passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        rng.shuffle(order)
        raw_passes.append(tally.run_pass(order))
    probe.probe(SETUP_PROBES)  # probes after the last jobs too
    lat = sorted(statistics.median(v) for v in tally.scaled())
    pct = tail_percentile(n)
    tail = quantile(lat, pct)
    metrics = {
        "setup_s": (statistics.median(dt * probe.scale(t0) for t0, dt in setups), "s"),
        "wall_s": (sum(lat), "s"),
        "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "verdict_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = sorted(dt for _, _, dt in tally.samples)
    beyond = sum(1 for x in lat if x > tail)
    notes = {
        "passes": len(raw_passes),
        "jobs_per_pass": n,
        "tail": f"p{pct:g} of {n} job latencies, {beyond} jobs ({beyond * len(raw_passes)} job "
                "runs) beyond it",
        "probes": len(probe.durations),
        "probe_median_us": round(statistics.median(probe.durations) * 1e6, 1),
        "unscaled_wall_s": round(statistics.median(raw_passes), 4),
        "unscaled_p50_ms": round(statistics.median(raw) * 1e3, 4),
        "failed_ratio": tally.failed / tally.attempted,
    }
    return tally, metrics, notes


def run_traced(workload, seed, workload_name):
    from layertrace import Tracer

    # untraced pass to compare with; both passes are scaled to the nominal speed
    probe = SpeedProbe()
    _, inputs = setup(workload)
    tally = Tally(workload[1](inputs, random.Random(seed)), probe)
    tally.run_pass()
    probe.probe(SETUP_PROBES)
    untraced = sum(map(sum, tally.scaled()))

    setup_tracer, pass_tracer = Tracer(), Tracer()
    inputs = None
    try:
        _, inputs = setup(workload, setup_tracer.install)
    finally:
        setup_tracer.uninstall()
    budget = inputs.get("budget")
    charged0 = budget.charged if budget is not None else 0
    traced_tally = Tally(workload[1](inputs, random.Random(seed)), probe)
    pass_tracer.install(inputs["cs"])
    try:
        traced_tally.run_pass()
    finally:
        pass_tracer.uninstall()
    probe.probe(SETUP_PROBES)
    traced = sum(map(sum, traced_tally.scaled()))
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.failures += traced_tally.failures
    nodes = (budget.charged if budget is not None else 0) - charged0

    t = pass_tracer
    self_s = t.self_seconds()
    setup_self_s = setup_tracer.self_seconds()
    decisions = t.decisions
    relations = t.count("gradings._set_grading_relations")
    metrics = {
        "fields.ops": (t.field_ops(), "count"),
        "fields.self_s": (self_s["fields"], "s"),
        "superalgebra.mul_calls": (t.count("superalgebra.SuperAlgebra.mul"), "count"),
        "superalgebra.eval_q0_calls": (t.count("superalgebra.SuperAlgebra.eval_q0"), "count"),
        "superalgebra.eval_b_calls": (t.count("superalgebra.SuperAlgebra.eval_b"), "count"),
        "superalgebra.parity_of_calls": (t.count("superalgebra.SuperAlgebra.parity_of"), "count"),
        "superalgebra.self_s": (self_s["superalgebra"], "s"),
        "axioms.pairs": (t.axiom_pairs, "count"),
        "axioms.self_s": (self_s["axioms"], "s"),
        "linalg.rref_calls": (t.count("linalg.rref"), "count"),
        "linalg.in_span_calls": (t.count("linalg.in_span"), "count"),
        "linalg.self_s": (self_s["linalg"], "s"),
        "gradings.relations_calls": (relations, "count"),
        "gradings.set_grading_ratio": (t.relations_found / relations if relations else 0.0,
                                       "ratio"),
        "gradings.validate_calls": (t.count("gradings.validate"), "count"),
        "gradings.self_s": (self_s["gradings"], "s"),
        "search.decisions": (decisions, "count"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_decision": (nodes / decisions if decisions else 0.0, "count"),
        "search.found_ratio": (t.found / decisions if decisions else 0.0, "ratio"),
        "search.self_s": (self_s["search"], "s"),
        "abelian.snf_calls": (t.count("abelian.smith_normal_form"), "count"),
        "abelian.element_calls": (
            sum(n for k, n in t.calls.items() if k.startswith("abelian.AbElement.")), "count"),
        "abelian.self_s": (self_s["abelian"], "s"),
        "constructions.self_s": (setup_self_s["constructions"], "s"),
        "catalog.self_s": (setup_self_s["catalog"], "s"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload_name}-{seed}.json"
    path.write_text(json.dumps({"setup": setup_tracer.summary(), "pass": pass_tracer.summary(),
                                "untraced_pass_s": untraced, "traced_pass_s": traced,
                                "search_nodes": nodes}, indent=1))
    notes = {"untraced_pass_s": round(untraced, 4), "traced_pass_s": round(traced, 4),
             "spans": str(path.relative_to(ROOT)),
             "failed_ratio": tally.failed / tally.attempted}
    return tally, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "compsuper" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'compsuper'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = machine_info()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        tally, metrics, notes = run_traced(workload, args.seed, args.workload)
    else:
        tally, metrics, notes = run_untraced(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print("notes: " + " ".join(f"{k}={v}" for k, v in notes.items()))
    correct = tally.failed == 0
    print(f"oracle: {'all verdicts correct' if correct else 'WRONG VERDICTS'} "
          f"({tally.attempted - tally.failed}/{tally.attempted} jobs)")
    for line in tally.failures:
        print(f"  failed: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
