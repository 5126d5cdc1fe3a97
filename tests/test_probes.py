import math

import numpy as np
import pytest

from archemo.forward import KineticsSpec, ParameterSet, SolverConfig, solve_forward
from archemo.grid import Domain
from archemo.probes import (
    cgo_elliptic,
    cgo_parabolic,
    cosine_probe_descriptors,
    moment_probe_descriptors,
    moment_recover,
    neumann_eigenmode,
    separability_misfit,
    separable_probe_set,
    transform_samples,
    weighted_integral,
)


def _axis_weights(domain, axis=0):
    w = np.full(domain.cells[axis], domain.spacing[axis])
    w[0] = w[-1] = domain.spacing[axis] / 2
    return w


def rel_l2_1d(domain, a, b, axis=0):
    w = _axis_weights(domain, axis)
    return math.sqrt(np.sum(w * (np.asarray(a) - np.asarray(b)) ** 2)) / \
        math.sqrt(np.sum(w * np.asarray(b) ** 2))


# -- eigenmodes ---------------------------------------------------------------

def test_eigenmode_constant():
    d = Domain(1.0, 33)
    mode = neumann_eigenmode(d, (0,))
    assert mode.lam == 0.0
    assert np.all(mode.values == 1.0)


def test_eigenmode_values_and_eigenvalue():
    d = Domain(1.0, 65)
    mode = neumann_eigenmode(d, (1,))
    assert mode.lam == pytest.approx(math.pi ** 2)
    assert np.allclose(mode.values, np.cos(math.pi * d.axes[0]))
    d2 = Domain((1.0, 2.0), (33, 33))
    m2 = neumann_eigenmode(d2, (2, 3))
    assert m2.lam == pytest.approx(4 * math.pi ** 2 + 9 * math.pi ** 2 / 4)


def test_eigenmode_discrete_residual():
    from archemo.grid import laplacian_neumann
    d = Domain(1.0, 65)
    mode = neumann_eigenmode(d, (2,))
    resid = laplacian_neumann(d, mode.values) + mode.lam_h * mode.values
    assert np.max(np.abs(resid)) < 1e-11


def test_eigenmode_theta():
    d = Domain(1.0, 33)
    mode = neumann_eigenmode(d, (1,), r=0.5)
    assert mode.theta == pytest.approx(0.5 - math.pi ** 2)


def test_eigenmode_rejects_negative_index():
    with pytest.raises(ValueError):
        neumann_eigenmode(Domain(1.0, 33), (-1,))


# -- parabolic probes -----------------------------------------------------------

def test_parabolic_cgo_zero_frequency():
    probe = cgo_parabolic(np.zeros(1), rate=0.7)
    assert probe.pde_coefficient() == 0.0
    d = Domain(1.0, 33)
    vals = probe.sample(d, np.array([0.0, 1.0]))
    assert np.allclose(vals[0], 1.0)
    assert np.allclose(vals[1], math.exp(-0.7))


def test_parabolic_cgo_identity():
    # -dw/dt - Lap w - r w = 0 as a closed-form identity
    probe = cgo_parabolic(np.array([math.pi]), rate=0.5)
    assert probe.pde_coefficient() == 0.0
    # tau=1 chemical variant: rate = -beta gives exp((|z|^2+beta)t - i z.x)
    beta = 1.3
    probe_b = cgo_parabolic(np.array([2.0]), rate=-beta)
    assert probe_b.pde_coefficient() == 0.0
    assert probe_b.time_exponent == pytest.approx(4.0 + beta)


def test_parabolic_cgo_discrete_residual_order():
    errs = []
    for n in (33, 65, 129):
        d = Domain(1.0, n)
        probe = cgo_parabolic(np.array([2 * math.pi]), rate=0.5)
        errs.append(probe.discrete_laplacian_residual(d))
    for i in range(2):
        assert abs(math.log2(errs[i] / errs[i + 1]) - 2.0) < 0.2


# -- elliptic probes ------------------------------------------------------------

def test_elliptic_cgo_null_exponent_exact():
    for xi in (0.0, math.pi, 2.7, 13.9):
        for sign in (+1, -1):
            probe = cgo_elliptic(np.array([xi]), sign=sign)
            zz = complex(np.sum(probe.space_exponent * probe.space_exponent))
            assert zz == 0.0


def test_elliptic_cgo_zero_frequency_is_one():
    d = Domain((1.0, 1.0), (17, 17))
    probe = cgo_elliptic(np.array([0.0]))
    assert np.allclose(probe.sample_space(d), 1.0)


def test_elliptic_cgo_rejects_1d():
    with pytest.raises(ValueError):
        cgo_elliptic(np.zeros(0))


def test_elliptic_cgo_quadrature_closed_form():
    # transverse factor integrates to zero for a full period, so the 2D
    # integral vanishes despite the exponentially large axial factor
    d = Domain((1.0, 1.0), (65, 65))
    probe = cgo_elliptic(np.array([2 * math.pi]), sign=+1)
    total = np.sum(d.weights * probe.sample_space(d))
    axial_factor = (math.exp(2 * math.pi) - 1) / (2 * math.pi)
    assert abs(total) <= 1e-12 * axial_factor


def test_elliptic_cgo_discrete_harmonic():
    d = Domain((1.0, 1.0), (33, 33))
    probe = cgo_elliptic(np.array([math.pi]), sign=+1)
    assert probe.discrete_laplacian_residual(d) < 0.05 * math.pi ** 2


# -- weighted integrals ----------------------------------------------------------

def test_weighted_integral_zero_field():
    d = Domain(1.0, 33)
    times = np.linspace(0, 1, 11)
    vals = np.zeros((11,) + d.shape)
    probe = cgo_parabolic(np.array([1.0]), rate=0.3)
    assert weighted_integral(d, times, vals, probe) == 0.0


def test_weighted_integral_closed_form():
    # field e^{theta t} cos(pi x) against the matching probe: the time factors
    # cancel and the space integral is int cos(pi x) e^{-i pi x} dx = 1/2,
    # giving exactly T/2
    r, T = 0.5, 0.8
    d = Domain(1.0, 257)
    dt = 1e-3
    times = np.arange(0, T + dt / 2, dt)
    theta = r - math.pi ** 2
    field = np.exp(theta * times)[:, None] * np.cos(math.pi * d.axes[0])[None, :]
    probe = cgo_parabolic(np.array([math.pi]), rate=r)
    val = weighted_integral(d, times, field, probe)
    assert val.real == pytest.approx(T / 2, rel=1e-3)
    assert abs(val.imag) < 2e-3


def test_weighted_integral_identical_runs_cancel():
    d = Domain(1.0, 65)
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0)
    kin = KineticsSpec.from_parameters(p)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.1)
    f = 0.5 + 0.2 * np.cos(math.pi * d.axes[0])
    t1 = solve_forward(d, (f, f, f), p, kin, cfg)
    t2 = solve_forward(d, (f, f, f), p, kin, cfg)
    probe = cgo_parabolic(np.array([math.pi]), rate=p.r)
    gap = weighted_integral(d, t1.times, t1.u - t2.u, probe)
    assert gap == 0.0


def test_weighted_integral_grid_mismatch():
    d = Domain(1.0, 33)
    probe = cgo_parabolic(np.array([1.0]), rate=0.0)
    with pytest.raises(ValueError):
        weighted_integral(d, np.linspace(0, 1, 5), np.zeros((4, 33)), probe)


# -- moment recovery ---------------------------------------------------------------

def test_moment_round_trip_reference_case(square65):
    # forward quadrature oracle generates the samples; the acceptance target
    # is 5% relative L2 on both factors at N=65, J=6
    X, Y = square65.meshgrid()
    f = np.cos(math.pi * X) * (1.0 + Y)
    gamma0 = float(np.sum(_axis_weights(square65, 1) * (1.0 + square65.axes[1])))
    samples = transform_samples(square65, f, separable_probe_set(square65))
    rec = moment_recover(square65, samples, J=6, gamma0=gamma0)
    assert rel_l2_1d(square65, rec.axial, 1.0 + square65.axes[1], axis=1) <= 0.05
    assert rel_l2_1d(square65, rec.transverse, np.cos(math.pi * square65.axes[0])) <= 0.05
    assert separability_misfit(square65, f, rec) <= 0.05


def test_moment_constant_axial(square65):
    alpha = 0.7 + 0.2 * np.sin(2 * math.pi * square65.axes[0])
    f = np.multiply.outer(alpha, np.ones(65))
    samples = transform_samples(square65, f, separable_probe_set(square65))
    rec = moment_recover(square65, samples, J=6, gamma0=1.0)
    assert np.max(np.abs(rec.axial - 1.0)) <= 1e-2
    assert rel_l2_1d(square65, rec.transverse, alpha) <= 1e-3


def test_moment_gauge_fixing(square65):
    # rescaled factor pairs with the same product recover identically; the
    # declared gamma0 fixes the gauge
    X, Y = square65.meshgrid()
    f = (2.0 * np.cos(math.pi * X)) * ((1.0 + Y) / 2.0)
    gamma0 = float(np.sum(_axis_weights(square65, 1) * (1.0 + square65.axes[1])))
    samples = transform_samples(square65, f, separable_probe_set(square65))
    rec = moment_recover(square65, samples, J=6, gamma0=gamma0)
    # with the gauge of the unscaled pair the original factors come back
    assert rel_l2_1d(square65, rec.axial, 1.0 + square65.axes[1], axis=1) <= 0.05
    assert rel_l2_1d(square65, rec.transverse, np.cos(math.pi * square65.axes[0])) <= 0.05


def test_moment_anchor_invariance(square65):
    X, Y = square65.meshgrid()
    f = np.cos(math.pi * X) * (1.0 + Y)
    gamma0 = float(np.sum(_axis_weights(square65, 1) * (1.0 + square65.axes[1])))
    recs = []
    for anchor in (1, 2):
        samples = transform_samples(square65, f, separable_probe_set(square65, anchor_mode=anchor))
        recs.append(moment_recover(square65, samples, J=6, gamma0=gamma0))
    gap = rel_l2_1d(square65, recs[0].axial, recs[1].axial, axis=1)
    assert gap <= 1e-3


def test_moment_rejects_zero_gamma0(square65):
    X, Y = square65.meshgrid()
    f = np.cos(math.pi * X) * (1.0 + Y)
    samples = transform_samples(square65, f, separable_probe_set(square65))
    with pytest.raises(ValueError):
        moment_recover(square65, samples, J=6, gamma0=0.0)


def test_moment_needs_scan(square65):
    X, Y = square65.meshgrid()
    f = np.cos(math.pi * X) * (1.0 + Y)
    samples = transform_samples(square65, f, cosine_probe_descriptors(square65))
    with pytest.raises(ValueError):
        moment_recover(square65, samples, J=6, gamma0=1.5)


def test_moment_probe_descriptor_caps(square65):
    descs = moment_probe_descriptors(square65, n_samples=20)
    for _, rate in descs:
        assert abs(rate) * square65.diameter <= 0.4 * (1 + 1e-12)


def test_probes_reject_1d_for_separable_work():
    d = Domain(1.0, 33)
    with pytest.raises(ValueError):
        moment_probe_descriptors(d)
    with pytest.raises(ValueError):
        cosine_probe_descriptors(d)
