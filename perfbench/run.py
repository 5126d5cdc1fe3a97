"""archemo recovery benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--seconds <s>] [--trace <0|1>]

With ``--workload`` it runs one workload and prints, as its last stdout line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Without ``--workload`` it runs every workload, each
in its own processes, timed and then traced (or only the one ``--trace``
names), and prints a table.  Exit code 0 means every output checked out.

The timed run starts 2 * SETUP_PAIRS processes that stop at the first timed
call, then one that times whole operations for ``--seconds``.  Before the
probes and after every pair of them it times a reference start, a bare
``import numpy, scipy.fft`` process, which drifts with the host as set-up does.
Each probe's set-up time is rescaled by REF_START_NOMINAL_S over the mean of
the two reference starts around its pair, and ``setup_s`` is the median of the
rescaled times.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PAIRS = 4           # set-up times spread about 9 % within a run
REF_START = [sys.executable, "-c", "import numpy, scipy.fft"]
REF_START_NOMINAL_S = 0.5
DEADLINE_S = 170.0          # one --workload invocation ends within this
REQUIRED = ("BENCHMARK.json", os.path.join("src", "archemo", "__init__.py"),
            os.path.join("configs", "identcheck.cfg"))


class BenchError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run worker.py to completion (killed at the deadline) and parse its last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} {args[3]} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def reference_start(deadline):
    t0 = time.monotonic()
    subprocess.run(REF_START, cwd=ROOT, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.monotonic() - t0


def run_workload(bench, workload, seed, seconds, trace):
    """One benchmark run; returns the result object the last stdout line carries."""
    deadline = time.monotonic() + DEADLINE_S
    setups, raw = [], []
    if trace:
        rec = spawn([workload, seed, seconds, "traced"], deadline)
        metrics = {m["name"]: {"value": rec["layers"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        with open(os.path.join(OUT, f"{workload}.layers.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics}, fh, indent=1)
    else:
        ref = reference_start(deadline)
        for _ in range(SETUP_PAIRS):
            pair = []
            for _ in range(2):
                t0 = time.monotonic()
                pair.append(spawn([workload, seed, seconds, "setup"], deadline)["first_call"] - t0)
            ref_next = reference_start(deadline)
            raw += pair
            setups += [x * 2.0 * REF_START_NOMINAL_S / (ref + ref_next) for x in pair]
            ref = ref_next
        rec = spawn([workload, seed, seconds, "timed"], deadline)
        if rec["solve_s"] is None:
            raise BenchError(f"{workload}: every operation raised, so there is no time to report")
        values = {"solve_s": rec["solve_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": rec["peak_rss_mb"], "forward_runs": rec["forward_runs"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    ops = rec["ops"]
    result = {"correct": not any(op["failures"] for op in ops),
              "attempted": len(ops),
              "failed": sum(1 for op in ops if op["failures"]),
              "metrics": metrics}
    with open(os.path.join(OUT, f"{workload}.{'trace' if trace else 'timed'}.result.json"),
              "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "setup_samples": setups,
                   "setup_uncalibrated": raw, "ops": ops, **result}, fh, indent=1)
    if not trace:
        print(f"{workload}: uncalibrated solve_s "
              f"{statistics.median(op['program_s'] for op in ops):.6g} s, "
              f"setup_s {statistics.median(raw):.6g} s")
    return result


def print_table(workload, result):
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an archemo checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.workload:
            result = run_workload(bench, args.workload, args.seed, args.seconds,
                                  args.trace or 0)
            print_table(args.workload, result)
            print(json.dumps(result))
            return 0
        ok = True
        for workload in workloads:
            for trace in ((0, 1) if args.trace is None else (args.trace,)):
                result = run_workload(bench, workload, args.seed, args.seconds, trace)
                print_table(workload + (" (traced)" if trace else ""), result)
                ok = ok and result["correct"]
        return 0 if ok else 1
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
