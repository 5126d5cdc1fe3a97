"""One benchmark process: set up a workload, time its operation, check every output.

    python3 perfbench/worker.py <workload> <seed> <seconds> <setup|timed|traced>

``setup`` stops at the first timed call; ``timed`` repeats whole operations
until their summed program time reaches ``seconds``; ``traced`` does the same
with every layer function wrapped in a span.  The last stdout line is a JSON
object.  run.py starts these processes; the parent's clock before the start
and ``first_call`` (CLOCK_MONOTONIC, shared by all processes) give set-up time.
"""

import contextlib
import gzip
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MB = float(2 ** 20)


def layer_metrics(tracer, counter, ops):
    """Per-operation averages of the traced quantities, keyed as in BENCHMARK.json."""
    per_name, nested = tracer.summary()
    n = len(ops)

    def q(name, quantity):
        return per_name.get(name, {}).get(quantity, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("helmholtz_solve", "spectral_helmholtz", "laplacian_neumann",
               "advective_flux_div", "advective_flux_div_patterned", "max_face_speed"):
        m[f"grid.{fn}.calls"] = q(f"grid.{fn}", "calls")
        m[f"grid.{fn}.self_s"] = q(f"grid.{fn}", "self_s")
    helm = per_name.get("grid.helmholtz_solve", {}).get("calls", 0)
    m["grid.helmholtz_solve.laplacians_per_call"] = ratio(
        nested.get(("grid.helmholtz_solve", "grid.laplacian_neumann"), 0), helm)
    m["forward.solve_forward.calls"] = q("forward.solve_forward", "calls")
    m["forward.solve_forward.s"] = q("forward.solve_forward", "s")
    steps = per_name.get("forward.step", {}).get("calls", 0)
    m["forward.step.calls"] = q("forward.step", "calls")
    m["forward.step.self_s"] = q("forward.step", "self_s")
    m["forward.step.us"] = 1e6 * ratio(per_name.get("forward.step", {}).get("s", 0.0), steps)
    m["forward.step.elliptic_solves"] = ratio(
        nested.get(("forward.step", "grid.helmholtz_solve"), 0), steps)
    m["forward.stored_mb"] = counter.stored_bytes / n / MB
    m["variation.extract_variation_fd.calls"] = q("variation.extract_variation_fd", "calls")
    m["variation.extract_variation_fd.self_s"] = q("variation.extract_variation_fd", "self_s")
    queries = sum(op["oracle_queries"] for op in ops)
    runs = sum(op["oracle_runs"] for op in ops)
    m["recover.oracle.queries"] = queries / n
    m["recover.oracle.runs"] = runs / n
    m["recover.oracle.hit_ratio"] = 1.0 - ratio(runs, queries) if queries else 0.0
    for stage in ("r", "linear_kinetics", "chi_xi_mu", "second_kinetics"):
        m[f"recover.stage.{stage}.s"] = q(f"recover.stage.{stage}", "s")
        m[f"recover.stage.{stage}.self_s"] = q(f"recover.stage.{stage}", "self_s")
    for fn in ("modal_amplitude", "transform_samples", "moment_recover"):
        m[f"probes.{fn}.self_s"] = q(f"probes.{fn}", "self_s")
    for fn in ("measure_match_tol", "identifiability_sweep", "identifiability_experiment"):
        m[f"harness.{fn}.s"] = q(f"harness.{fn}", "s")
    m["harness.measurement_distance.self_s"] = q("harness.measurement_distance", "self_s")
    m["setup.import.s"] = per_name["setup.import"]["s"]
    m["setup.construct.s"] = per_name["setup.construct"]["s"]
    m["trace.op.s"] = q("op", "s")
    return m


def main(argv):
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    if mode not in ("setup", "timed", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    from calibrate import Speedometer
    from tracer import ForwardCounter, Rebinder, Tracer
    from workloads import WORKLOADS
    t_built = time.perf_counter()
    wl = WORKLOADS[workload]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(OUT, "tmp")) as tmp, Rebinder() as rebinder:
        state = wl.build(seed, ROOT, tmp)
        t_ready = time.perf_counter()
        first_call = time.monotonic()
        if mode == "setup":
            print(json.dumps({"first_call": first_call}))
            return 0
        counter = ForwardCounter()
        counter.install(rebinder)
        tracer = None
        if mode == "traced":
            tracer = Tracer()
            tracer.record("setup.import", t_import, t_built)
            tracer.record("setup.construct", t_built, t_ready)
            tracer.install(rebinder)
        ops, measured = [], 0.0
        while True:
            runs0 = counter.runs
            speed = None if tracer else Speedometer()
            span = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            try:
                with speed or contextlib.nullcontext():
                    result, error = wl.run(state), None
            except Exception:   # a failed operation is counted, and the run goes on
                result, error = None, traceback.format_exc()
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            elapsed = speed.program_s if speed else wall
            failures = [error] if error else wl.check(state, result)
            oracle = state.get("oracle")
            ops.append({"s": speed.calibrated_s if speed else wall, "program_s": elapsed,
                        "wall_s": wall, "ref_samples": len(speed.samples) if speed else 0,
                        "forward_runs": counter.runs - runs0,
                        "raised": error is not None, "failures": failures,
                        "errors": state["errors"],
                        "oracle_queries": oracle.query_count if oracle else 0,
                        "oracle_runs": oracle.run_count if oracle else 0})
            for f in failures:
                print(f"{workload} seed {seed}: FAILED {f}", file=sys.stderr)
            measured += elapsed
            if measured >= seconds:
                break
            state = wl.build(seed, ROOT, tmp)
    # an operation that raised stopped early, so its time and runs say nothing
    whole = [op for op in ops if not op["raised"]]
    out = {"first_call": first_call, "ops": ops,
           "solve_s": statistics.median(op["s"] for op in whole) if whole else None,
           "forward_runs": statistics.median(op["forward_runs"] for op in whole) if whole else None,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["layers"] = layer_metrics(tracer, counter, ops)
        with gzip.open(os.path.join(OUT, f"{workload}.trace.json.gz"), "wt") as fh:
            json.dump({"workload": workload, "seed": seed, "ops": len(ops),
                       "spans": tracer.to_json()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
