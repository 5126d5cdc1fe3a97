"""Rectangular grids with homogeneous Neumann boundaries and their discrete operators.

The domain is an axis-aligned box in one or two dimensions, discretized with a
node-centered grid that includes both endpoints of every axis.  Neumann
conditions are imposed by ghost-node reflection, which makes the sampled
cosines cos(k*pi*x/L) exact eigenvectors of the discrete Laplacian.  That
fact is exploited throughout: the screened operator (-Lap + decay) is
diagonal in the DCT-I basis, so one forward and one inverse transform solve
the screened-Poisson problem directly.  Each domain keeps its eigenvalue grid
and, per scalar decay, the denominators (eigenvalues + decay) of the solve.
The transform pair takes one of two paths.  A 2D grid with at most
:data:`DCT_MATRIX_MAX_NODES` nodes per axis keeps the DCT-I matrix of each axis
and transforms by matrix products, which at 65 x 65 cost about half of
pocketfft's FFT-based DCT-I.  Every other grid, 1D grids included, calls
pocketfft's DCT-I without ``scipy.fft``'s backend dispatch, which costs several
times the transform on 1D grids.

Fields are plain numpy arrays whose shape equals ``domain.shape`` (axis order
x1[, x2], the last axis playing the role of the distinguished coordinate in
separable-coefficient work).  The differential operators also accept a stack
of fields, acting on the trailing ``domain.dim`` axes with the same values as
a loop over the slices, so time loops can become array expressions.  Every
upwind drift runs a :class:`Drift`, which the forward step binds once per run.
"""

from __future__ import annotations

import math

import numpy as np
# the DCT-I behind scipy.fft.dct/idct/dctn/idctn, called without their dispatch;
# a scipy that moves this private entry point fails here, not with other values
from scipy.fft._pocketfft.pypocketfft import dct as _pocketfft_dct

from .errors import EllipticSolveError

__all__ = [
    "Domain",
    "laplacian_neumann",
    "advective_flux_div",
    "advective_flux_div_patterned",
    "max_face_speed",
    "Drift",
    "quadrature",
    "inner_product",
    "time_weights",
    "helmholtz_solve",
    "spectral_helmholtz",
    "mode_eigenvalues_1d",
]


class Domain:
    """Axis-aligned box [0, L1] x ... with N_i nodes per axis (endpoints included)."""

    def __init__(self, lengths, cells):
        lengths = tuple(float(L) for L in np.atleast_1d(lengths))
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        if len(lengths) != len(cells):
            raise ValueError("lengths and cells must have the same number of axes")
        if len(lengths) not in (1, 2):
            raise ValueError(f"only 1D and 2D boxes are supported, got dim={len(lengths)}")
        if any(L <= 0 for L in lengths):
            raise ValueError(f"axis lengths must be positive, got {lengths}")
        if any(n < 8 for n in cells):
            raise ValueError(f"need at least 8 nodes per axis, got {cells}")
        self.lengths = lengths
        self.cells = cells
        self.dim = len(lengths)
        self.spacing = tuple(L / (n - 1) for L, n in zip(lengths, cells))
        self.shape = cells
        self.axes = [np.linspace(0.0, L, n) for L, n in zip(lengths, cells)]
        # trapezoid weights: h at interior nodes, h/2 at the two boundary nodes;
        # shared by every quadrature, so they are read-only
        per_axis = []
        for h, n in zip(self.spacing, cells):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            w.setflags(write=False)
            per_axis.append(w)
        self.axis_weights = per_axis
        if self.dim == 1:
            self.weights = per_axis[0]
        else:
            self.weights = np.multiply.outer(per_axis[0], per_axis[1])
            self.weights.setflags(write=False)
        self.node_count = int(np.prod(cells))
        self.diameter = math.sqrt(sum(L * L for L in lengths))
        # eigenvalues of the negative discrete Laplacian per DCT-I mode, shared
        # by every spectral solve on this grid
        lams = [mode_eigenvalues_1d(n, h) for n, h in zip(cells, self.spacing)]
        lam = lams[0] if self.dim == 1 else lams[0][:, None] + lams[1][None, :]
        self.neumann_eigenvalues = lam
        # the stencil's diagonal sum of 2/h^2, which the residual check adds to decay
        self.stencil_diagonal = sum(2.0 / (h * h) for h in self.spacing)
        # the factors (C0, C1^T) of the matrix transform path, C_i the DCT-I matrix
        # of axis i, or None on grids that transform through pocketfft.  C1^T is
        # stored contiguous: a product with a transposed view costs ~1.5x as much
        self.dct_matrices = None
        if self.dim == 2 and max(cells) <= DCT_MATRIX_MAX_NODES:
            left, right = _dct1_matrix(cells[0]), np.ascontiguousarray(_dct1_matrix(cells[1]).T)
            left.setflags(write=False)
            right.setflags(write=False)
            self.dct_matrices = (left, right)

    @property
    def neumann_eigenvalues(self):
        return self._eigenvalues

    @neumann_eigenvalues.setter
    def neumann_eigenvalues(self, lam):
        # new eigenvalues drop the denominators built from the old ones
        lam.setflags(write=False)
        self._eigenvalues, self._denominators = lam, {}

    def denominators(self, decay):
        """neumann_eigenvalues + decay, read-only, kept per scalar decay for reuse;
        past DENOMINATORS_KEPT decays a new one drops the oldest."""
        denom = self._denominators.get(decay)
        if denom is None:
            if len(self._denominators) >= DENOMINATORS_KEPT:
                del self._denominators[next(iter(self._denominators))]
            denom = self._denominators[decay] = self._eigenvalues + decay
            denom.setflags(write=False)
        return denom

    def __eq__(self, other):
        return (
            isinstance(other, Domain)
            and self.lengths == other.lengths
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.lengths, self.cells))

    def __repr__(self):
        return f"Domain(lengths={self.lengths}, cells={self.cells})"

    def meshgrid(self):
        """Coordinate arrays of shape ``self.shape`` (ij indexing)."""
        if self.dim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def boundary_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            mask[0] = mask[-1] = True
        else:
            mask[0, :] = mask[-1, :] = True
            mask[:, 0] = mask[:, -1] = True
        return mask

    def boundary_indices(self):
        """Flat indices of boundary nodes, in deterministic row-major order."""
        return np.flatnonzero(self.boundary_mask().ravel())

    def zeros(self, dtype=float):
        return np.zeros(self.shape, dtype=dtype)

    def constant(self, value, dtype=float):
        return np.full(self.shape, value, dtype=dtype)

    def check_field(self, f, name="field", allow_complex=False, stacked=False):
        """Validate a field; ``stacked`` accepts any leading axes before ``self.shape``."""
        f = np.asarray(f)
        shape = f.shape[f.ndim - self.dim:] if stacked else f.shape
        if shape != self.shape:
            expected = f"(..., {', '.join(map(str, self.shape))})" if stacked else f"{self.shape}"
            raise ValueError(f"{name} has shape {f.shape}, expected {expected}")
        if not allow_complex and np.iscomplexobj(f):
            raise ValueError(f"{name} must be real-valued")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{name} contains non-finite entries")
        return f

    def is_real_field(self, f):
        """Whether f is a float64 array of exactly this shape, as the package's own fields are.

        A finite sum over such a field proves it holds no NaN or infinity, so
        the hot paths screen with a reduction they need anyway and run
        :meth:`check_field`'s full scan only when that screen fails.
        """
        return type(f) is np.ndarray and f.dtype == np.float64 and f.shape == self.shape


# ---------------------------------------------------------------------------
# differential operators


def _moveaxis(a, source, destination):
    # np.moveaxis costs microseconds even when it moves nothing, as on every 1D field
    return a if source == destination else np.moveaxis(a, source, destination)


def _second_diff_axis(f, h, axis):
    g = _moveaxis(f, axis, 0)
    out = np.empty_like(g)
    out[1:-1] = g[:-2] - 2.0 * g[1:-1] + g[2:]
    # ghost reflection: f[-1] == f[1], so the one-sided stencil collapses
    out[0] = 2.0 * (g[1] - g[0])
    out[-1] = 2.0 * (g[-2] - g[-1])
    out /= h * h
    return _moveaxis(out, 0, axis)


def _laplacian(domain, f):
    lead = f.ndim - domain.dim
    out = _second_diff_axis(f, domain.spacing[0], lead)
    for axis in range(1, domain.dim):
        out = out + _second_diff_axis(f, domain.spacing[axis], lead + axis)
    return out


def laplacian_neumann(domain, f):
    """Second-order discrete Laplacian with zero normal derivative at the boundary.

    Exact on constants; cos(k*pi*x/L) samples are exact eigenvectors with
    eigenvalue -(2 - 2cos(k*pi/(N-1)))/h^2.  A stack of fields (any leading
    axes) is transformed slice by slice, with the same values as a loop.
    """
    f = domain.check_field(f, "laplacian input", allow_complex=True, stacked=True)
    return _laplacian(domain, f)


class _NodeIndex(dict):
    """Index tuples along array axis ``axis`` of an array with ``ndim`` axes, keyed by
    (ndim, axis): the lower and upper node of every face, the inner nodes and their
    left and right neighbours, the first and last node and their inner neighbours.
    Without an Ellipsis the end nodes of a 1D field index as scalars, which numpy
    handles several times faster than 0-d arrays."""

    def __missing__(self, key):
        ndim, axis = key
        lead = (slice(None),) * axis
        self[key] = tuple(lead + (i,) for i in (slice(None, -1), slice(1, None), slice(1, -1),
                                                 slice(None, -2), slice(2, None), 0, -1, 1, -2))
        return self[key]


_NODE_INDEX = _NodeIndex()


class Drift:
    """The upwind drift operator div(u grad P) on a field, or a stack of them, of ``shape``.

    Its face buffers are bound once: per axis the velocities dP/dx, their upwind mask and
    the fluxes, padded with the zero outer fluxes (+0 before the first face, -0 after the
    last, which keeps the signs of zero of -flux / (h/2)) and differenced over the cell
    widths ``Domain.axis_weights``, which conserves the weighted total exactly.  Both
    methods return buffers that the next call overwrites."""

    def __init__(self, domain, shape):
        self.zero, self.div, self.axes = np.array(0.0), np.empty(shape), []
        for axis, h in enumerate(domain.spacing):
            at = len(shape) - domain.dim + axis
            lo, hi, inner, _, _, _, last, _, _ = _NODE_INDEX[len(shape), at]
            padded = np.zeros(shape[:at] + (shape[at] + 1,) + shape[at + 1:])
            padded[last] = -0.0
            flux = padded[inner]
            self.axes.append((
                np.array(h), lo, hi, np.empty(flux.shape), np.empty(flux.shape, bool), flux,
                padded[hi], padded[lo],
                domain.axis_weights[axis].reshape((-1,) + (1,) * (domain.dim - 1 - axis)),
                self.div if axis == 0 else np.empty(shape)))
        self.velocities = [faces[3] for faces in self.axes]

    def load(self, potential):
        """Fill the face velocities dP/dx; returns the largest |dP/dx| (the CFL numerator)."""
        speed = 0.0
        for h, lo, hi, vel, _, flux, *_ in self.axes:
            np.divide(np.subtract(potential[hi], potential[lo], out=vel), h, out=vel)
            speed = max(speed, float(np.maximum.reduce(np.absolute(vel, out=flux), None)))
        return speed

    def divergence(self, u, patterns=None):
        """div(u grad P) of the loaded potential, u upwinded by the sign of each face
        velocity or by frozen ``patterns`` (per axis, True takes the lower node)."""
        for k, (_, lo, hi, vel, mask, flux, right, left, width, out) in enumerate(self.axes):
            donor = np.greater(vel, self.zero, out=mask) if patterns is None else patterns[k]
            np.multiply(vel, np.where(donor, u[lo], u[hi]), out=flux)
            np.divide(np.subtract(right, left, out=out), width, out=out)
            if out is not self.div:
                self.div += out
        return self.div


def advective_flux_div(domain, u, potential):
    """Divergence of the advective flux u * grad(potential), upwinded on u; u and the
    potential may be stacks with the same leading axes."""
    u = domain.check_field(u, "density", stacked=True)
    potential = domain.check_field(potential, "potential", stacked=True)
    drift = Drift(domain, potential.shape)
    drift.load(potential)
    return drift.divergence(u)


def advective_flux_div_patterned(domain, u, potential, patterns):
    """Like :func:`advective_flux_div`, upwinded by frozen patterns (per axis, True takes
    the lower node); the result is then linear in the potential, which the recovery
    regression relies on."""
    u = domain.check_field(u, "density", stacked=True)
    potential = domain.check_field(potential, "potential", stacked=True)
    drift = Drift(domain, potential.shape)
    drift.load(potential)
    return drift.divergence(u, patterns)


def max_face_speed(domain, potential):
    """Largest |dP/dx| over all faces and axes (CFL numerator)."""
    return Drift(domain, potential.shape).load(potential)


# ---------------------------------------------------------------------------
# quadrature


def boundary_line_weight_arrays(domain):
    """Per-axis surface quadrature weights (nonzero only on that axis's two faces).

    Keeping the axes separate avoids spurious corner cross-terms when pairing
    a field with direction-dependent normal data.
    """
    if domain.dim == 1:
        w = np.zeros(domain.shape)
        w[0] = w[-1] = 1.0
        return [w]
    w0 = np.zeros(domain.shape)
    w0[0, :] = w0[-1, :] = domain.axis_weights[1]
    w1 = np.zeros(domain.shape)
    w1[:, 0] = w1[:, -1] = domain.axis_weights[0]
    return [w0, w1]


def quadrature(domain, f):
    """Trapezoidal integral of f over the box."""
    f = domain.check_field(f, "integrand", allow_complex=True)
    return np.sum(domain.weights * f)


def inner_product(domain, f, g):
    """Trapezoidal L2 inner product (no conjugation; callers conjugate probes)."""
    f = domain.check_field(f, "first factor", allow_complex=True)
    g = domain.check_field(g, "second factor", allow_complex=True)
    return np.sum(domain.weights * f * g)


def norm_l2(domain, f):
    return math.sqrt(abs(np.sum(domain.weights * np.abs(np.asarray(f)) ** 2)))


def time_weights(times):
    """Trapezoid weights over the (possibly uneven) stored times; 1 for a single time."""
    times = np.asarray(times, dtype=float)
    wt = np.empty(len(times))
    if len(times) == 1:
        wt[0] = 1.0
        return wt
    dt = np.diff(times)
    wt[0] = dt[0] / 2
    wt[-1] = dt[-1] / 2
    wt[1:-1] = (dt[:-1] + dt[1:]) / 2
    return wt


# ---------------------------------------------------------------------------
# spectral helpers and the screened-Poisson solver


# relative residual, in the weighted norm, that every elliptic solve must reach
ELLIPTIC_TOL = 1e-10
# Over 1D and 2D grids of 33-1025 nodes per axis and sides 0.1-3, decays
# 1e-6-1e4 and random, smooth, offset and checkerboard sources, the residual of
# the exact spectral solution, as helmholtz_solve evaluates it (dot-product
# norms), reached at most 1.47 * eps * (largest eigenvalue + decay) * |v|
# through pocketfft, from a checkerboard source at decay 1 on a 50 x 77 grid on
# [0, 0.1] x [0, 3] (random sources at decay 1e4 reached 1.17), and at most
# 2.39 * eps * (largest eigenvalue + decay) * |v| through the DCT-I matrices of
# 2D grids with 33-65 nodes per axis.
RESIDUAL_ROUNDING_SLACK = 8.0
# The largest axis, in nodes, of a 2D grid that transforms by DCT-I matrix
# products.  Median time per solve, pocketfft against the matrices, on a
# 2-core VM with OpenBLAS 0.3.31: 33^2 47 -> 28 us, 33 x 65 55 -> 32 us,
# 65^2 110-150 -> 60-80 us.  Larger grids stay on pocketfft: from 81^2 on
# OpenBLAS threads its products and their rounding then depends on the
# thread count, and at 129^2 (570 against 490-640 us) and 257^2 (2 400
# against 3 100 us) the matrices gain nothing.  In 1D the matrix-vector
# products lose too (129 nodes: 12 against 9 us).
DCT_MATRIX_MAX_NODES = 65
# scalar decays whose denominators a domain keeps; a run uses three (1/dt, beta, delta)
DENOMINATORS_KEPT = 8


def mode_eigenvalues_1d(n, h):
    """Eigenvalues of -d^2/dx^2 (Neumann, ghost reflection) for DCT-I modes."""
    k = np.arange(n)
    return (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / (h * h)


def _dct1_matrix(n):
    """The unnormalised DCT-I of n points as an n x n matrix C.

    ``C @ x`` equals ``scipy.fft.dct(x, type=1)`` up to rounding, and C is its
    own inverse up to a factor: ``C @ C == 2 (n - 1) I``.
    """
    k = np.arange(n)
    # k j reduced modulo 2 (n - 1): every cosine is taken of an angle in [0, 2 pi)
    c = np.cos(np.pi * (np.multiply.outer(k, k) % (2 * (n - 1))) / (n - 1))
    c[:, 1:-1] *= 2.0
    return c


# the trailing field axes of a field or a stack, by grid dimension, for pocketfft
_FIELD_AXES = {1: (-1,), 2: (-2, -1)}


def _spectral_solve(domain, source, decay):
    # The unnormalised DCT-I forward and, scaled by 1 / prod(2 (n - 1)), the same
    # transform back: the pair scipy.fft's dct and idct run.  2D grids of at most
    # DCT_MATRIX_MAX_NODES per axis apply the axis matrices C0 and C1 as C0 @ S @ C1^T,
    # which matmul broadcasts over a stack one gemm per slice; the values agree with
    # pocketfft's to a few eps relative and do not depend on the BLAS thread count.
    # Every other grid calls pocketfft, whose inverse runs in place on the forward
    # result.  Either path transforms a stack slice by slice with the values of
    # single fields, and decay may be an array of per-slice values that broadcasts
    # against the stack.  A scalar decay reads the domain's kept denominators
    denom = (domain.neumann_eigenvalues + decay if isinstance(decay, np.ndarray)
             else domain.denominators(decay))
    return _dct_solve(domain, source, denom)


def _dct_solve(domain, source, denom):
    # the transform pair of _spectral_solve around a division by the given
    # denominators, which a forward run binds once per run
    if domain.dct_matrices is None:
        axes = _FIELD_AXES[domain.dim]
        coeffs = _pocketfft_dct(source, 1, axes, 0, None, 1)
        coeffs /= denom
        return _pocketfft_dct(coeffs, 1, axes, 2, coeffs, 1)
    left, right = domain.dct_matrices
    coeffs = left @ source @ right
    coeffs /= denom
    out = left @ coeffs @ right
    out *= 1.0 / (4 * (left.shape[0] - 1) * (right.shape[0] - 1))
    return out


def _screened_apply(domain, x, decay):
    # (-Lap + decay) x of a single field as (decay + sum 2/h^2) x minus the neighbour
    # sums over h^2, with ghost reflection doubling the inner neighbour of each end
    # node; it differs from -_laplacian(x) + decay * x only in rounding
    out = np.multiply(x, decay + domain.stencil_diagonal, order="C")
    for axis, h in enumerate(domain.spacing):
        _, _, inner, left, right, first, last, second, penult = _NODE_INDEX[domain.dim, axis]
        s = 1.0 / (h * h)
        if 0 < axis == domain.dim - 1:
            # the last axis runs over the flat field, which is faster than the strided
            # slices; the end columns it wraps across are then put back
            ends = out[first].copy(), out[last].copy()
            flat = x.reshape(-1)
            out.reshape(-1)[1:-1] -= s * (flat[:-2] + flat[2:])
            out[first], out[last] = ends
        else:
            out[inner] -= s * (x[left] + x[right])
        out[first] -= (2.0 * s) * x[second]
        out[last] -= (2.0 * s) * x[penult]
    return out


def spectral_helmholtz(domain, source, decay):
    """Direct solve of (-Lap + decay) v = source by DCT-I diagonalization.

    The source is a real field of the domain's shape, or a stack of them; for
    a stack, decay may hold one value per slice, shaped to broadcast against it
    (leading axes, then a 1 per grid axis).
    """
    source = np.asarray(source)
    if source.dtype.kind == "c":
        raise ValueError("source must be real-valued")
    return _spectral_solve(domain, source.astype(float, copy=False), decay)


def helmholtz_solve(domain, source, decay, tol=ELLIPTIC_TOL):
    """Solve (-Lap + decay) v = source under Neumann conditions, with a residual check.

    The operator is symmetric positive definite in the trapezoid-weighted
    inner product for decay > 0, and diagonal in the DCT-I basis, so one
    transform pair solves it.  The residual of that solution, in the weighted
    norm, must not exceed tol times the source's, or else the rounding error
    of evaluating the residual (:data:`RESIDUAL_ROUNDING_SLACK` * eps *
    (largest eigenvalue + decay) * |v|), which sets the floor for small decay
    on fine grids.  :class:`EllipticSolveError` is raised otherwise, and for
    decay <= 0.
    """
    if decay <= 0:
        raise EllipticSolveError(
            f"screened operator needs decay > 0 to be positive definite, got {decay}"
        )
    if not domain.is_real_field(source):
        source = np.asarray(domain.check_field(source, "source"), dtype=float)
    w = domain.weights
    bsq = float(np.vdot(w * source, source))
    if not math.isfinite(bsq):
        # NaN or infinity in the source, or only an overflowing norm, which the scan accepts
        domain.check_field(source, "source")
    bnorm = math.sqrt(bsq)
    if bnorm == 0.0:
        return np.zeros_like(source)
    x = _dct_solve(domain, source, domain.denominators(decay))
    r = _screened_apply(domain, x, decay)
    np.subtract(source, r, out=r)
    rnorm = math.sqrt(float(np.vdot(w * r, r)))
    if rnorm <= tol * bnorm:
        return x
    lam_max = float(np.max(domain.neumann_eigenvalues))
    floor = (RESIDUAL_ROUNDING_SLACK * np.finfo(float).eps * (lam_max + decay)
             * math.sqrt(float(np.vdot(w * x, x))))
    if rnorm <= floor:
        return x
    raise EllipticSolveError(
        f"spectral solve left relative residual {rnorm / bnorm:.3e} "
        f"(target {tol:.1e}, rounding floor {floor / bnorm:.1e}, decay={decay})"
    )
