"""Identifiability experiments: do distinct parameters leave distinct data?

The falsifiable shadow of unique identifiability: random parameter pairs at a
declared separation must produce measurement gaps well above the solver's
discretization floor, while identical parameters stay below it.  The demo
also exhibits the one genuine blind spot of the instantaneous-equilibrium
model: when the two chemical balance laws coincide, shifting both
sensitivities together is invisible.

Run:  python demos/06_identifiability.py
"""

import math

import numpy as np

from archemo.forward import ParameterSet, SolverConfig
from archemo.grid import Domain
from archemo.harness import (
    identifiability_experiment,
    identifiability_sweep,
)

domain = Domain(1.0, 65)
b1 = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0)
f = 0.5 + 0.2 * np.cos(math.pi * domain.axes[0])
cfg = SolverConfig(tau=0, dt=5e-4, t_final=1.0, store_every=10)

match_tol, reports = identifiability_sweep(domain, b1, (f, f, f), cfg, n_trials=10, seed=7)
print(f"match tolerance (10x dt self-convergence): {match_tol:.3e}\n")
print(f"{'trial':>5s} {'param dist':>11s} {'meas dist':>11s} {'ratio':>7s}  verdict")
for i, rep in enumerate(reports):
    print(f"{i:5d} {rep.parameter_distance:11.3e} {rep.measurement_distance:11.3e} "
          f"{rep.measurement_distance / match_tol:7.1f}  {rep.verdict}")

self_rep = identifiability_experiment(domain, b1, b1, (f, f, f), cfg, match_tol)
print(f"\nidentical parameters: distance {self_rep.measurement_distance:.1e} "
      f"-> {self_rep.verdict}")

shifted = ParameterSet(chi=b1.chi + 0.05, xi=b1.xi + 0.05, r=b1.r, mu=b1.mu)
rep = identifiability_experiment(domain, b1, shifted, (f, f, f), cfg, match_tol)
print(f"\nengineered blind direction (chi, xi shifted together, balance laws equal):")
print(f"  parameter distance {rep.parameter_distance:.2f}, measurement distance "
      f"{rep.measurement_distance:.1e} -> verdict: {rep.verdict}")
print("  (the instantaneous-equilibrium map sees only chi - xi in this case)")
