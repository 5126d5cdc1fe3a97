"""High-order linearization: the direct variation solver vs finite differences.

The solution map is differentiated in the perturbation amplitude around the
trivial equilibrium.  One-sided differences of nonlinear runs converge to the
direct first/second variation solutions at first order in the amplitude, and
Richardson extrapolation across the ladder sharpens them by several digits.

Run:  python demos/03_linearization_ladder.py
"""

import math

import numpy as np

from archemo.forward import KineticsSpec, ParameterSet, SolverConfig
from archemo.grid import Domain
from archemo.variation import (
    ForwardHandle,
    PerturbationFamily,
    consistency_report,
    extract_variation_fd,
    solve_variations,
)

d = Domain(1.0, 65)
p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, beta=1.0, delta=1.6, gamma=0.8)
kin = KineticsSpec.from_parameters(p)
cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.4)

fam = PerturbationFamily(f1=1.0 + 0.9 * np.cos(math.pi * d.axes[0]),
                         epsilons=(1e-2, 5e-3, 2.5e-3))
direct = solve_variations(d, p, kin, fam, cfg)

handle = ForwardHandle.from_model(d, p, kin, cfg)
fd, ladder = extract_variation_fd(handle, fam, first_direct=direct.order1,
                                  return_ladder=True)

rep = consistency_report(d, direct, ladder)
print(rep.to_text())

err1 = np.max(np.abs(fd.order1.u - direct.order1.u))
err2 = np.max(np.abs(fd.order2.u - direct.order2.u))
print(f"\nafter Richardson extrapolation over the ladder:")
print(f"  order-1 gap {err1:.3e},  order-2 gap {err2:.3e}")
print(f"  extrapolation corrections: {fd.diagnostics['order1_corrections']}")
