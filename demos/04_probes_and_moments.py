"""Probe gallery: exponential solutions and the separable-factor moment route.

Run:  python demos/04_probes_and_moments.py
"""

import math

import numpy as np

from archemo.grid import Domain
from archemo.probes import (
    cgo_elliptic,
    cgo_parabolic,
    moment_recover,
    neumann_eigenmode,
    separability_misfit,
    separable_probe_set,
    transform_samples,
    weighted_integral,
)

d2 = Domain((1.0, 1.0), (65, 65))

print("== eigenmodes ==")
for idx in ((0, 0), (1, 0), (2, 3)):
    m = neumann_eigenmode(d2, idx)
    print(f"  k={idx}: lambda={m.lam:9.4f}  discrete lambda={m.lam_h:9.4f}")

print("\n== parabolic probes: exact solutions of -dw/dt - Lap w - c w = 0 ==")
for zeta, rate in (([0.0], 0.5), ([math.pi], 0.5), ([2.0, 1.0], -1.3)):
    probe = cgo_parabolic(np.array(zeta), rate)
    print(f"  zeta={zeta}, c={rate}: closed-form residual coefficient = "
          f"{probe.pde_coefficient()}")

print("\n== elliptic probes: harmonic exponentials, zeta.zeta = 0 ==")
for xi in (math.pi, 2 * math.pi):
    probe = cgo_elliptic(np.array([xi]), sign=+1)
    zz = complex(np.sum(probe.space_exponent * probe.space_exponent))
    print(f"  |xi'|={xi:.4f}: zeta.zeta = {zz}, interior Laplacian residual "
          f"{probe.discrete_laplacian_residual(d2):.2e}")

print("\n== weighted space-time integral against a matching probe ==")
d1 = Domain(1.0, 257)
r, T = 0.5, 0.8
times = np.arange(0, T + 5e-4, 1e-3)
field = np.exp((r - math.pi ** 2) * times)[:, None] * np.cos(math.pi * d1.axes[0])[None, :]
probe = cgo_parabolic(np.array([math.pi]), rate=r)
val = weighted_integral(d1, times, field, probe)
print(f"  integral = {val:.6f}   (closed form: T/2 = {T / 2})")

print("\n== moment recovery of a separable coefficient ==")
X, Y = d2.meshgrid()
f = np.cos(math.pi * X) * (1.0 + Y)
w_ax = np.full(65, d2.spacing[1]); w_ax[0] = w_ax[-1] = d2.spacing[1] / 2
gamma0 = float(np.sum(w_ax * (1.0 + d2.axes[1])))
samples = transform_samples(d2, f, separable_probe_set(d2))
rec = moment_recover(d2, samples, gamma0=gamma0)
print(f"  moments Gamma_0..Gamma_6: {np.array2string(rec.moments.gammas, precision=5)}")
print(f"  factor-product misfit: {separability_misfit(d2, f, rec):.3e}")
print(f"  diagnostics: anchor={rec.diagnostics['anchor']}, "
      f"scan condition={rec.diagnostics['moment_fit_condition']:.1f}")
