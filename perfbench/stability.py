"""Stability set: repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/stability.py [--first-seed 1]

It runs every workload RUNS times, with seeds first-seed, first-seed + 1, ....
Each run is one ``run.py --workload ... --trace 0`` process with its own seed.
The spread of a metric is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
each end-to-end bound in BENCHMARK.json is set against.  The table goes to
stdout and the raw values to perfbench/out/stability-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(HERE, "out", f"{workload}.timed.result.json")) as fh:
                detail = json.load(fh)
            ops = detail["ops"]
            run["setup_samples"] = detail["setup_samples"]
            run["setup_uncalibrated"] = detail["setup_uncalibrated"]
            run["uncalibrated_solve_s"] = statistics.median(op["program_s"] for op in ops)
            run["errors"] = [op["errors"] for op in ops]
            runs.append(run)
        record["workloads"][workload] = runs
        print(f"{workload}: failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            print(f"  {m['name']:<14} median {statistics.median(vals):>12.6g} {m['unit']:<6} "
                  f"spread {spread(vals):7.2%}  bound {m['bound']:.0%}  "
                  f"min {min(vals):.6g} max {max(vals):.6g}", flush=True)
        for key in ("uncalibrated_solve_s", "setup_uncalibrated"):
            raw = [r[key] if key.endswith("_s") else statistics.median(r[key]) for r in runs]
            print(f"  {key} median {statistics.median(raw):.6g} s spread {spread(raw):7.2%}")
        errors = [e for r in runs for e in r["errors"]]
        for key in sorted(errors[0]):
            vals = [e[key] for e in errors if key in e]
            print(f"  check {key:<28} min {min(vals):.3e} max {max(vals):.3e}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"stability-{record['started']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"raw values: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
