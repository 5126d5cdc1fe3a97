"""Self-test of the benchmark's tracer on small, fast configurations.

It checks that self times add up, that every rebound function is put back,
and that the traced call count of ``solve_forward`` matches the oracle's own
count and the untraced counter, through the by-name imports in ``recover``,
``variation`` and ``harness``.
"""

import itertools

import numpy as np
import pytest

from archemo.forward import KineticsSpec, ParameterSet, SolverConfig
from archemo.grid import Domain
from archemo.harness import cli
from archemo.recover import Oracle, PipelineOptions, run_full_pipeline
from tracer import TRACED, ForwardCounter, Rebinder, Tracer, package_modules
from worker import layer_metrics

TRUTH = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)


def bindings():
    return {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()
            if callable(v)}


def small_oracle(tau):
    domain = Domain(1.0, 33)
    return Oracle(domain, TRUTH, KineticsSpec.from_parameters(TRUTH),
                  SolverConfig(tau=tau, dt=2e-3, t_final=0.1))


def test_self_times_sum_to_root():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    root = tr.open("op")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    c = tr.open("c")
    tr.close(c)
    tr.close(root)
    self_t = tr.self_times()
    assert self_t.sum() == tr.end[root] - tr.start[root]
    per_name, nested = tr.summary()
    assert per_name["op"]["calls"] == 1
    assert nested == {("op", "a"): 1, ("a", "b"): 1, ("op", "c"): 1}


def test_closing_out_of_order_raises():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


@pytest.mark.parametrize("tau", [0, 1])
def test_traced_recovery_counts_every_oracle_solve(tau):
    before = bindings()
    untraced = ForwardCounter()
    with Rebinder() as rb:
        untraced.install(rb)
        run_full_pipeline(small_oracle(tau), PipelineOptions(recover_fields=False))
    assert bindings() == before

    oracle = small_oracle(tau)
    counter, tracer = ForwardCounter(), Tracer()
    with Rebinder() as rb:
        counter.install(rb)
        tracer.install(rb)
        root = tracer.open("op")
        run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
        tracer.close(root)
    assert bindings() == before

    per_name, _ = tracer.summary()
    assert oracle.run_count > 0
    assert per_name["forward.solve_forward"]["calls"] == oracle.run_count == untraced.runs
    assert per_name["variation.extract_variation_fd"]["calls"] > 0
    assert per_name["forward.step"]["calls"] == oracle.run_count * 50
    self_t = tracer.self_times()
    assert np.isclose(self_t.sum(), tracer.end[root] - tracer.start[root], rtol=1e-9)
    assert np.all(self_t >= -1e-9)

    tracer.record("setup.import", 0.0, 1.0)
    tracer.record("setup.construct", 1.0, 1.5)
    ops = [{"oracle_queries": oracle.query_count, "oracle_runs": oracle.run_count}]
    m = layer_metrics(tracer, counter, ops)
    assert m["forward.solve_forward.calls"] == oracle.run_count
    assert m["recover.oracle.runs"] == oracle.run_count
    assert m["forward.step.elliptic_solves"] == (2.0 if tau == 0 else 0.0)
    assert m["forward.stored_mb"] > 0


def test_traced_identcheck_counts_harness_solves(tmp_path):
    cfg = tmp_path / "ident.cfg"
    cfg.write_text("domain.cells = 17\nsolver.dt = 0.01\nsolver.t_final = 0.1\n"
                   "ident.trials = 2\nident.seed = 3\n")
    before = bindings()
    counter, tracer = ForwardCounter(), Tracer()
    with Rebinder() as rb:
        counter.install(rb)
        tracer.install(rb, [t for t in TRACED if t[0] in ("forward", "harness")])
        code = cli(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                    "identcheck"])
    assert code == 0
    assert bindings() == before
    per_name, nested = tracer.summary()
    # match tol (2 solves), sweep reference + 2 trials, self experiment (2 solves)
    assert per_name["forward.solve_forward"]["calls"] == counter.runs == 7
    assert nested[("harness.identifiability_sweep", "harness.measure_match_tol")] == 1
