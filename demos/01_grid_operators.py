"""Grid operators at a glance: eigenmodes, self-adjointness, conservation.

Run:  python demos/01_grid_operators.py
"""

import math

import numpy as np

from archemo.grid import (
    Domain,
    advective_flux_div,
    inner_product,
    laplacian_neumann,
    quadrature,
)

print("== Neumann Laplacian on [0, 1] ==")
for n in (33, 65, 129):
    d = Domain(1.0, n)
    mode = np.cos(2 * math.pi * d.axes[0])
    lam = (2 * math.pi) ** 2
    err = np.max(np.abs(laplacian_neumann(d, mode) + lam * mode))
    print(f"  N={n:4d}  cos(2 pi x) residual {err:.3e}  (h^2 = {d.spacing[0] ** 2:.3e})")

d = Domain((1.0, 1.0), (65, 65))
rng = np.random.default_rng(0)
f = rng.standard_normal(d.shape)
g = rng.standard_normal(d.shape)
gap = abs(inner_product(d, laplacian_neumann(d, f), g)
          - inner_product(d, f, laplacian_neumann(d, g)))
print(f"\n2D self-adjointness gap on random fields: {gap:.3e}")

u = rng.random(d.shape)
p = rng.standard_normal(d.shape)
total = quadrature(d, advective_flux_div(d, u, 0.7 * p))
print(f"advective flux divergence integrates to:  {total:.3e} (conservative form)")

print("\nupwind order for a varying density (interior max error):")
for n in (65, 129, 257):
    d1 = Domain(1.0, n)
    x = d1.axes[0]
    u = 2.0 + np.sin(math.pi * x)
    p = np.cos(math.pi * x)
    out = advective_flux_div(d1, u, p)
    exact = -2.0 * math.pi ** 2 * np.cos(math.pi * x) * (1.0 + np.sin(math.pi * x))
    print(f"  N={n:4d}  err {np.max(np.abs(out[1:-1] - exact[1:-1])):.3e}")
