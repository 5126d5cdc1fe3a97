"""End-to-end parameter recovery from measurement-map queries.

Builds an oracle with hidden truth parameters, runs the staged pipeline
(growth rate -> linear kinetics -> sensitivities and competition ->
second-order kinetics), and compares estimates with the truth.

Run:  python demos/05_full_recovery.py
"""

import time

from archemo.forward import KineticsSpec, ParameterSet, SolverConfig
from archemo.grid import Domain
from archemo.recover import Oracle, PipelineOptions, run_full_pipeline

domain = Domain(1.0, 129)
truth = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0,
                     alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)
kinetics = KineticsSpec.from_parameters(truth, second_order_g={(2, 0): 0.2})
cfg = SolverConfig(tau=0, dt=5e-4, t_final=1.0)

oracle = Oracle(domain, truth, kinetics, cfg)
t0 = time.time()
report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
elapsed = time.time() - t0

print(f"pipeline finished in {elapsed:.1f} s with {report.oracle_runs} forward solves\n")
print(f"{'parameter':<10s} {'estimate':>12s} {'truth':>8s} {'rel error':>10s}")
truth_map = {**truth.as_dict(), "a20": 0.2}
for key in ("chi", "xi", "r", "mu", "alpha", "beta", "gamma", "delta", "a20"):
    est = report.estimates[key]
    rel = abs(est - truth_map[key]) / abs(truth_map[key])
    print(f"{key:<10s} {est:12.6f} {truth_map[key]:8.3f} {rel:10.2e}")

print("\nzero-truth second-order entries vs their noise floors:")
for key in ("a11", "a02", "b11", "b20", "b02"):
    floor = report.residuals[f"second_kinetics.{key}_noise_floor"]
    print(f"  {key}: estimate {report.estimates[key]: .2e}, floor {floor:.2e}")

print("\nstage conditioning:", {k: f"{v:.2e}" for k, v in report.conditioning.items()})
for note in report.notes:
    print("note:", note)
