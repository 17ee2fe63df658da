#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py --workloads axioms fineness --seeds 1 2 3 4 5

Runs `bench/run.py` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median, the quartiles and the
spread: (Q3 - Q1) / median, with the quartiles from
`statistics.quantiles(values, n=4)`.  Each spread is compared with the
metric's bound in BENCHMARK.json; the benchmark is steady when every
spread except that of `setup_s` is below a third of its bound.  `--out`
keeps every run's result line and `notes:` line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = next((ln for ln in lines if ln.startswith("notes: ")), "")
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    steady = True
    for w in args.workloads:
        results = []
        for seed in args.seeds:
            r = run_once(w, seed, args.seconds)
            if not r["correct"]:
                print(f"{w} seed {seed}: wrong verdicts ({r['failed']}/{r['attempted']})")
                steady = False
            results.append(r)
        raw[w] = results
        elapsed = [r["elapsed_s"] for r in results]
        print(f"{w:12s} run seconds: median {statistics.median(elapsed):.1f}, max {max(elapsed):.1f}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = spread < bound / 3
            steady &= ok or name == "setup_s"
            print(f"{w:12s} {name:16s} median {statistics.median(values):12.6g}  "
                  f"q1 {q1:12.6g} q3 {q3:12.6g}  spread {spread:7.4f}  "
                  f"bound/3 {bound / 3:.4f} {'ok' if ok else 'WIDE'}")
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
