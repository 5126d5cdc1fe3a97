"""Analytic test functions and the moment route to separable coefficients.

Three probe families drive the coefficient identification:

* Neumann eigenmodes cos(k1 pi x1/L1) * cos(k2 pi x2/L2), exact discrete
  eigenvectors of the grid Laplacian;
* parabolic complex exponentials  w = exp((|z|^2 - c) t - i z.x)  solving the
  backward equation -dw/dt - Lap w - c w = 0 identically;
* elliptic (harmonic) exponentials  w = exp(zeta.x)  with
  zeta = (i xi', 0) + (0, .., 0, +-|xi'|), so zeta.zeta = 0.

Weighting a separable function A1(x') A2(x_n) by the harmonic family and
separating variables turns the axial direction into a moment-generating
factor: samples at small transverse frequency encode the scaled moments
Gamma_j = (1/j!) int A2(x_n) x_n^j dx_n, from which the axial factor is
rebuilt by regularized least squares in a Legendre basis, while +/- frequency
pairs at the grid's half-integer cosine frequencies invert the transverse
factor exactly on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .grid import Domain

__all__ = [
    "EigenMode",
    "neumann_eigenmode",
    "CGOProbe",
    "cgo_parabolic",
    "cgo_elliptic",
    "weighted_integral",
    "slice_projections",
    "MomentVector",
    "TransformSample",
    "transform_samples",
    "moment_probe_descriptors",
    "cosine_probe_descriptors",
    "separable_probe_set",
    "moment_recover",
    "MomentRecovery",
    "separability_misfit",
]

# moment scans keep |axial rate| * diameter within this cap, the validity range of
# the small-exponent expansion; moment_recover fits only the rates within it
MOMENT_CAP = 0.4
# nonzero axial rates of a moment scan, half of each sign
MOMENT_SAMPLES = 24
# moments fitted beyond Gamma_0, and the Tikhonov weight of the axial factor's fit
MOMENT_ORDER = 6
MOMENT_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# eigenmodes


@dataclass(frozen=True)
class EigenMode:
    """Product-cosine Neumann eigenmode with continuum and grid eigenvalues."""

    index: tuple
    lam: float          # continuum eigenvalue sum (k_i pi / L_i)^2
    lam_h: float        # eigenvalue of the discrete Laplacian on this grid
    values: np.ndarray


def neumann_eigenmode(domain: Domain, index) -> EigenMode:
    index = tuple(int(k) for k in np.atleast_1d(index))
    if len(index) != domain.dim:
        raise ValueError(f"mode index {index} does not match dimension {domain.dim}")
    if any(k < 0 for k in index):
        raise ValueError("mode indices must be non-negative")
    lam = sum((k * math.pi / L) ** 2 for k, L in zip(index, domain.lengths))
    lam_h = float(domain.neumann_eigenvalues[index])
    vals = None
    for axis, (k, L) in enumerate(zip(index, domain.lengths)):
        axis_vals = np.cos(k * math.pi * domain.axes[axis] / L)
        if vals is None:
            vals = axis_vals
        else:
            vals = np.multiply.outer(vals, axis_vals)
    vals.setflags(write=False)
    return EigenMode(index=index, lam=lam, lam_h=lam_h, values=vals)


def slice_projections(values, weight):
    """sum over nodes of values[t] * weight for each slice t of a stack.

    Each slice is contracted against the real and imaginary parts of the one
    flattened (complex) ``weight``, so a real stack is never cast to complex.
    """
    values = np.asarray(values)
    if values.shape[1:] != weight.shape:
        raise ValueError(f"slices of shape {values.shape[1:]} do not match the weight's "
                         f"shape {weight.shape}")
    flat, weight = values.reshape(len(values), -1), weight.ravel()
    return flat @ weight.real + 1j * (flat @ weight.imag)


def modal_amplitude(domain: Domain, values, mode: EigenMode):
    """Projection coefficients of each slice of a time stack onto one eigenmode."""
    values = np.asarray(values)
    norm = float(np.sum(domain.weights * mode.values * mode.values))
    flat = (values * mode.values).reshape(values.shape[0], -1)
    return (flat @ domain.weights.ravel()) / norm


# ---------------------------------------------------------------------------
# complex geometric optics probes


@dataclass(frozen=True)
class CGOProbe:
    """Exact exponential solution used as an integration weight.

    The sampled function is exp(time_exponent * t) * exp(space_exponent . x);
    ``rate`` is the zeroth-order coefficient of the backward equation the
    parabolic kind annihilates.
    """

    rate: float
    space_exponent: np.ndarray
    time_exponent: float

    def sample_space(self, domain: Domain) -> np.ndarray:
        coords = domain.meshgrid()
        expo = sum(s * c for s, c in zip(self.space_exponent, coords))
        return np.exp(expo)

    def sample(self, domain: Domain, times) -> np.ndarray:
        space = self.sample_space(domain)
        tfac = np.exp(self.time_exponent * np.asarray(times, dtype=float))
        return tfac.reshape((-1,) + (1,) * domain.dim) * space

    def grad_space(self, domain: Domain):
        space = self.sample_space(domain)
        return [s * space for s in self.space_exponent]

    def weighted_normal_derivative(self, domain: Domain):
        """Surface-quadrature-weighted d(omega)/d(nu), summed per axis.

        Pairing a field f against this array and summing over the grid yields
        the surface integral of f * d(omega)/d(nu) over the whole boundary.
        """
        grads = self.grad_space(domain)
        weights = g.boundary_line_weight_arrays(domain)
        out = np.zeros(domain.shape, dtype=complex)
        for axis, (grad, w) in enumerate(zip(grads, weights)):
            sign = np.zeros(domain.shape)
            first = tuple(0 if a == axis else slice(None) for a in range(domain.dim))
            last = tuple(-1 if a == axis else slice(None) for a in range(domain.dim))
            sign[first] = -1.0
            sign[last] = 1.0
            out += sign * w * grad
        return out

    def pde_coefficient(self) -> complex:
        """Coefficient c such that (-d/dt - Lap - rate) omega = c * omega.

        Zero as an identity for the parabolic kind (grouped so that the
        cancellation is exact in floating point); the elliptic kind is
        harmonic, so there c = -rate.
        """
        zz = complex(np.sum(self.space_exponent * self.space_exponent))
        return (-zz - self.rate) - self.time_exponent

    def discrete_laplacian_residual(self, domain: Domain) -> float:
        """Max interior norm of (Lap_h - zeta.zeta) omega.

        Restricted to interior nodes: the probes do not satisfy the Neumann
        condition, so the reflecting boundary rows do not approximate their
        Laplacian there.
        """
        space = self.sample_space(domain)
        zz = complex(np.sum(self.space_exponent * self.space_exponent))
        res = g.laplacian_neumann(domain, space) - zz * space
        interior = ~domain.boundary_mask()
        return float(np.max(np.abs(res[interior])))


def cgo_parabolic(zeta, rate: float) -> CGOProbe:
    """omega = exp((|zeta|^2 - rate) t - i zeta.x), killing -d/dt - Lap - rate."""
    zeta = np.asarray(np.atleast_1d(zeta), dtype=float)
    abs2 = float(zeta @ zeta)
    return CGOProbe(
        rate=float(rate),
        space_exponent=-1j * zeta,
        time_exponent=abs2 - float(rate),
    )


def cgo_elliptic(xi_prime, sign: int = +1) -> CGOProbe:
    """Harmonic exponential exp(zeta.x), zeta = (i xi', 0) + (0,..,0, sign |xi'|).

    The axial rate equals the transverse frequency magnitude, so
    zeta.zeta = 0 exactly.  Requires a transverse direction (dimension >= 2).
    """
    xi_prime = np.asarray(np.atleast_1d(xi_prime), dtype=float)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    d = len(xi_prime) + 1
    if d < 2:
        raise ValueError("elliptic probes need at least one transverse direction")
    if len(xi_prime) == 1:
        axial = abs(float(xi_prime[0]))       # exact: |xi'|^2 reproduces xi1^2 bitwise
    else:
        axial = math.sqrt(float(xi_prime @ xi_prime))
    expo = np.zeros(d, dtype=complex)
    expo[:-1] = 1j * xi_prime
    expo[-1] = sign * axial
    return CGOProbe(rate=0.0, space_exponent=expo, time_exponent=0.0)


def weighted_integral(domain: Domain, times, values, probe: CGOProbe) -> complex:
    """Trapezoidal space-time integral of values * probe over the cylinder.

    The probe is e^{a t} phi(x), so the integral is a time sum of the slices'
    projections against the weighted phi.
    """
    values = np.asarray(values)
    times = np.asarray(times, dtype=float)
    if values.shape != (len(times),) + domain.shape:
        raise ValueError(
            f"space-time data of shape {values.shape} does not match "
            f"{len(times)} times on grid {domain.shape}")
    per_time = slice_projections(values, probe.sample_space(domain) * domain.weights)
    per_time = per_time * np.exp(probe.time_exponent * times)
    return complex(np.sum(g.time_weights(times) * per_time))


# ---------------------------------------------------------------------------
# transform samples of separable coefficients


@dataclass(frozen=True)
class MomentVector:
    """Scaled axial moments Gamma_j = (1/j!) int beta(x_n) x_n^j dx_n."""

    gammas: np.ndarray

    def __post_init__(self):
        if abs(self.gammas[0]) < 1e-14:
            raise ValueError("Gamma_0 must be nonzero for the moment inversion")


@dataclass(frozen=True)
class TransformSample:
    """One probe integral: xi' the transverse frequency, rate the axial exponent."""

    xi_prime: tuple
    axial_rate: float
    value: complex


def transform_samples(domain: Domain, values, descriptors) -> list:
    """Quadrature transforms of a gridded function against the probe family: per
    descriptor (xi', rate) the :class:`CGOProbe` exp(i xi'.x' + rate x_n), harmonic exactly
    when |rate| = |xi'| (the elliptic cone), which the moment scans deliberately leave to
    scan the axial moment-generating factor at fixed transverse content."""
    if domain.dim < 2:
        raise ValueError("separable probes need a transverse direction")
    values = domain.check_field(np.asarray(values, dtype=float), "transform input")
    out = []
    for xi_prime, rate in descriptors:
        xi_prime = np.atleast_1d(np.asarray(xi_prime, dtype=float))
        phi = CGOProbe(0.0, np.append(1j * xi_prime, rate), 0.0).sample_space(domain)
        val = complex(np.sum(domain.weights * values * phi))
        out.append(TransformSample(xi_prime=tuple(float(x) for x in xi_prime),
                                   axial_rate=float(rate), value=val))
    return out


def moment_probe_descriptors(domain: Domain, anchor_mode: int = 1):
    """Axial-rate scan of MOMENT_SAMPLES nonzero rates at a fixed transverse anchor frequency.

    Rates satisfy |rate| * diam <= MOMENT_CAP, the validity range of the
    small-exponent expansion whose coefficients are the scaled moments.  The
    anchor is a cosine frequency of the transverse axis; rate = 0 is included
    to normalize away the (unknown) transverse transform value.
    """
    if domain.dim < 2:
        raise ValueError("moment probes need a transverse direction")
    anchor = anchor_mode * math.pi / domain.lengths[0]
    xi = (anchor,) + (0.0,) * (domain.dim - 2)
    tmax = MOMENT_CAP / domain.diameter
    descriptors = [(xi, 0.0)]
    half = MOMENT_SAMPLES // 2
    for i in range(1, half + 1):
        t = tmax * i / half
        descriptors.append((xi, +t))
        descriptors.append((xi, -t))
    return descriptors


def cosine_probe_descriptors(domain: Domain):
    """Harmonic +/- pairs at the transverse cosine frequencies pi*m/L1.

    Averaging the pair gives cosine moments of the transverse factor, which
    invert exactly on the node-centered grid (no periodicity assumption).
    """
    if domain.dim < 2:
        raise ValueError("cosine probes need a transverse direction")
    L1, n1 = domain.lengths[0], domain.cells[0]
    descriptors = []
    for m in range(n1):
        s = math.pi * m / L1
        tail = (0.0,) * (domain.dim - 2)
        descriptors.append(((s,) + tail, s))
        if m > 0:
            descriptors.append(((-s,) + tail, s))
    return descriptors


def separable_probe_set(domain: Domain, anchor_mode: int = 1):
    return (moment_probe_descriptors(domain, anchor_mode)
            + cosine_probe_descriptors(domain))


# ---------------------------------------------------------------------------
# moment-based recovery of separable factors


@dataclass
class MomentRecovery:
    transverse: np.ndarray
    axial: np.ndarray
    moments: MomentVector
    diagnostics: dict = field(default_factory=dict)


def _fit_moments_from_scan(scan, gamma0: float):
    """Least-squares moments from an axial-rate scan at one anchor frequency.

    With q(t) = alpha_hat(anchor) * M(t) and M(0) = Gamma_0 declared, the
    normalized samples Gamma_0 * q(t)/q(0) equal M(t) = sum_j Gamma_j t^j;
    fitting the polynomial with Gamma_0 pinned is a plain Vandermonde solve.
    """
    base = scan[0.0]
    if abs(base) < 1e-300:
        raise ValueError("anchor transform vanishes at rate zero; moment gauge unavailable")
    ts, ms = [], []
    for t, val in sorted(scan.items()):
        if t == 0.0:
            continue
        ts.append(t)
        ms.append(gamma0 * val / base)
    ts = np.asarray(ts)
    ms = np.asarray(ms)
    tmax = float(np.max(np.abs(ts)))
    # two guard coefficients absorb the truncation tail of the generating
    # function, which would otherwise bias the kept moments systematically
    n_fit = min(MOMENT_ORDER + 2, len(ts) - 1)
    V = np.vander(ts / tmax, n_fit + 1, increasing=True)[:, 1:]
    rhs = ms - gamma0
    sol, _, _, sv = np.linalg.lstsq(V, rhs.real, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    imag_leak = float(np.max(np.abs(rhs.imag))) / (float(np.max(np.abs(rhs.real))) + 1e-300)
    # per-moment uncertainty from the fit residual, for downstream weighting
    resid = rhs.real - V @ sol
    dof = max(len(ts) - n_fit, 1)
    sigma2 = float(resid @ resid) / dof
    cov_diag = np.diagonal(np.linalg.inv(V.T @ V))
    scale_back = tmax ** np.arange(1, n_fit + 1)
    sigmas_all = np.sqrt(np.maximum(sigma2 * cov_diag, 0.0)) / scale_back
    sol = sol[:MOMENT_ORDER] / scale_back[:MOMENT_ORDER]
    sigmas = np.maximum(sigmas_all[:MOMENT_ORDER], 1e-14 * abs(gamma0))
    gammas = np.concatenate([[gamma0], sol])
    sigmas = np.concatenate([[1e-14 * abs(gamma0)], sigmas])
    return gammas, sigmas, cond, imag_leak


def _axial_from_moments(domain: Domain, gammas, sigmas):
    """Axial factor from scaled moments by Tikhonov least squares in Legendre form.

    Raw monomial moments are catastrophically conditioned for more than a
    handful of orders; re-expressing the unknown in (shifted) Legendre
    polynomials keeps the normal matrix tame.  Rows are weighted by the
    inverse moment uncertainties so that the poorly determined high moments
    cannot steer the ill-conditioned directions.
    """
    x = domain.axes[-1]
    L = domain.lengths[-1]
    w = domain.axis_weights[-1]
    J = len(gammas) - 1
    s = 2.0 * x / L - 1.0
    basis = np.polynomial.legendre.legvander(s, J)      # (n, J+1)
    # q[j, k] = (1/j!) int x^j P_k dx, same trapezoid rule as the sample quadrature
    q = np.empty((J + 1, J + 1))
    for j in range(J + 1):
        q[j] = (w * x ** j / math.factorial(j)) @ basis
    sigmas = np.asarray(sigmas, dtype=float)
    weight = 1.0 / np.maximum(sigmas, 1e-14 * max(abs(gammas[0]), 1e-300))
    weight = weight / np.max(weight)        # relative reliability only
    A = q * weight[:, None]
    b = np.asarray(gammas) * weight
    # Tikhonov directly on the Legendre coefficients: stack sqrt(MOMENT_RIDGE) rows
    A_aug = np.vstack([A, math.sqrt(MOMENT_RIDGE) * np.eye(J + 1)])
    b_aug = np.concatenate([b, np.zeros(J + 1)])
    coeffs, _, _, sv = np.linalg.lstsq(A_aug, b_aug, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return basis @ coeffs, cond


def moment_recover(domain: Domain, samples, gamma0: float) -> MomentRecovery:
    """Factor a separable function from its transform samples.

    ``samples`` are :class:`TransformSample` records over the union of the
    moment descriptors (an axial-rate scan at a fixed transverse anchor, rates
    within :data:`MOMENT_CAP`) and the cosine descriptors (harmonic +/- pairs
    at pi*m/L1).  ``gamma0`` declares the axial integral, fixing the
    multiplicative gauge of the factor pair.  The moments are fitted on the
    scan anchor with the largest rate-0 transform (the probe set has one).
    """
    if domain.dim < 2:
        raise ValueError("separable recovery needs at least two dimensions")
    if abs(gamma0) < 1e-14:
        raise ValueError("declared Gamma_0 is below tolerance; gauge not fixed")
    by_key = {}
    scans = {}
    tmax = MOMENT_CAP / domain.diameter
    for rec in samples:
        by_key[(rec.xi_prime, rec.axial_rate)] = rec.value
        on_cone = abs(abs(rec.axial_rate) - math.sqrt(sum(c * c for c in rec.xi_prime))) < 1e-12
        if not on_cone or rec.axial_rate == 0.0:
            if abs(rec.axial_rate) <= tmax * (1 + 1e-12):
                scans.setdefault(rec.xi_prime, {})[rec.axial_rate] = rec.value

    anchors = [xi for xi, scan in scans.items()
               if 0.0 in scan and len(scan) > MOMENT_ORDER]
    if not anchors:
        raise ValueError("no usable moment scan in the sample set (need a rate-0 anchor)")
    chosen = max(anchors, key=lambda xi: abs(scans[xi][0.0]))
    gammas, sigmas, cond_m, leak = _fit_moments_from_scan(scans[chosen], gamma0)
    moments = MomentVector(gammas=gammas)

    axial, cond_a = _axial_from_moments(domain, gammas, sigmas)

    # transverse factor: cosine moments divided by the recovered axial transform
    x_n = domain.axes[-1]
    w_n, w1 = domain.axis_weights[-1], domain.axis_weights[0]
    L1, n1 = domain.lengths[0], domain.cells[0]
    x1 = domain.axes[0]
    transverse = np.zeros(n1)
    imag_leak = leak
    dropped = []
    for m in range(n1):
        s = math.pi * m / L1
        tail = (0.0,) * (domain.dim - 2)
        plus = by_key.get(((s,) + tail, s))
        if plus is None:
            raise ValueError(f"missing cosine sample for transverse mode {m}")
        if m == 0:
            cosmom = plus
        else:
            minus = by_key.get(((-s,) + tail, s))
            if minus is None:
                raise ValueError(f"missing -xi' cosine sample for transverse mode {m}")
            cosmom = 0.5 * (plus + minus)
        m_rec = float(np.sum(w_n * axial * np.exp(s * x_n)))
        if abs(m_rec) < 1e-12 * max(1.0, float(np.max(np.abs(axial)))):
            dropped.append(m)
            continue
        coeff = cosmom / m_rec
        imag_leak = max(imag_leak, abs(coeff.imag))
        basis = np.cos(m * math.pi * x1 / L1)
        norm = float(np.sum(w1 * basis * basis))
        transverse += coeff.real / norm * basis
    diag = {
        "moment_fit_condition": cond_m,
        "axial_fit_condition": cond_a,
        "imag_leak": imag_leak,
        "dropped_transverse_modes": dropped,
        "anchor": chosen,
        "moment_sigmas": sigmas,
    }
    return MomentRecovery(transverse=transverse, axial=axial, moments=moments, diagnostics=diag)


def separability_misfit(domain: Domain, values, rec: MomentRecovery) -> float:
    """Relative L2 gap between a field and the recovered factor product."""
    product = np.multiply.outer(rec.transverse, rec.axial)
    num = g.norm_l2(domain, np.asarray(values) - product)
    den = g.norm_l2(domain, values)
    return num / den if den > 0 else num
