import math
import re
import weakref

import numpy as np
import pytest

from archemo.forward import (
    EquilibriumState,
    ParameterSet,
    SeparableField,
    SolverConfig,
    Trajectory,
    coefficient_on_grid,
    solve_forward,
    steady_state,
)
from archemo.grid import (
    ELLIPTIC_TOL,
    Domain,
    advective_flux_div,
    helmholtz_solve,
    laplacian_neumann,
    norm_l2,
    spectral_helmholtz,
)
from archemo.recover import Oracle
from archemo.variation import (
    ForwardHandle,
    PerturbationFamily,
    _weights_at_zero,
    consistency_report,
    extract_variation_fd,
    solve_variations,
    space_time_norm,
)

from conftest import make_kinetics, replay, traced_peak


def _fd_setup(domain, params, tau=0, dt=1e-3, t_final=0.3, **fam_kw):
    kin = make_kinetics(params)
    cfg = SolverConfig(tau=tau, dt=dt, t_final=t_final)
    fam = PerturbationFamily(**fam_kw)
    handle = ForwardHandle.from_model(domain, params, kin, cfg)
    return kin, cfg, fam, handle


def test_zero_perturbation_gives_zero_variations(line65, applied_params):
    kin, cfg, fam, handle = _fd_setup(line65, applied_params)
    direct = solve_variations(line65, applied_params, kin, fam, cfg)
    assert np.max(np.abs(direct.order1.u)) == 0.0
    assert np.max(np.abs(direct.order1.v)) == 0.0
    fd = extract_variation_fd(handle, fam)
    assert np.max(np.abs(fd.order1.u)) < 1e-14


def test_first_variation_single_mode(line129):
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0, beta=1.5, delta=1.5)
    kin = make_kinetics(p)
    dt, T = 1e-3, 0.3
    cfg = SolverConfig(tau=0, dt=dt, t_final=T)
    x = line129.axes[0]
    fam = PerturbationFamily(f1=np.cos(math.pi * x))
    stack = solve_variations(line129, p, kin, fam, cfg)
    t = stack.order1.times.reshape(-1, 1)
    exact = np.exp((p.r - math.pi ** 2) * t) * np.cos(math.pi * x)
    err = np.max(np.abs(stack.order1.u - exact))
    assert err <= 5 * (dt + line129.spacing[0] ** 2) * math.pi ** 4 * T

    # forced-mode algebra for the slaved attractant: v1 = [alpha/(pi^2+beta)] u1
    expected_v = exact / (math.pi ** 2 + p.beta)
    err_v = np.max(np.abs(stack.order1.v - expected_v))
    assert err_v <= 5 * (dt + line129.spacing[0] ** 2) * math.pi ** 4 * T


def test_first_variation_linearity(line65, applied_params, rng):
    kin, cfg, _, _ = _fd_setup(line65, applied_params)
    f1a = rng.random(line65.shape)
    f1b = rng.random(line65.shape)
    sa = solve_variations(line65, applied_params, kin, PerturbationFamily(f1=f1a), cfg)
    sb = solve_variations(line65, applied_params, kin, PerturbationFamily(f1=f1b), cfg)
    sab = solve_variations(line65, applied_params, kin, PerturbationFamily(f1=f1a + f1b), cfg)
    gap = np.max(np.abs(sab.order1.u - sa.order1.u - sb.order1.u))
    assert gap <= 1e-10


def test_second_variation_initial_condition_only(line129):
    # sources vanish when f1 = 0; order2.u evolves 2*f2 by the heat semigroup
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0)
    kin = make_kinetics(p)
    dt, T = 1e-3, 0.2
    cfg = SolverConfig(tau=0, dt=dt, t_final=T)
    x = line129.axes[0]
    fam = PerturbationFamily(f2=np.cos(math.pi * x))
    second = solve_variations(line129, p, kin, fam, cfg)
    t = second.order2.times.reshape(-1, 1)
    exact = 2.0 * np.exp((p.r - math.pi ** 2) * t) * np.cos(math.pi * x)
    assert np.max(np.abs(second.order2.u - exact)) <= 5 * (dt + line129.spacing[0] ** 2) * math.pi ** 4


def test_second_variation_undetermined_coefficients(line129):
    # chi = xi = 0: u2 solves a heat equation forced by -2 mu e^{2 theta t} cos^2(pi x);
    # modal split gives closed-form amplitudes (independent oracle)
    r, mu = 0.5, 1.0
    p = ParameterSet(chi=0.0, xi=0.0, r=r, mu=mu, beta=1.5, delta=1.5)
    kin = make_kinetics(p)
    dt, T = 1e-3, 0.3
    cfg = SolverConfig(tau=0, dt=dt, t_final=T)
    x = line129.axes[0]
    fam = PerturbationFamily(f1=np.cos(math.pi * x))
    second = solve_variations(line129, p, kin, fam, cfg)
    theta = r - math.pi ** 2
    lam2 = (2 * math.pi) ** 2
    t = second.order2.times.reshape(-1, 1)
    a_t = mu * (np.exp(r * t) - np.exp(2 * theta * t)) / (2 * theta - r)
    b_t = mu * (np.exp((r - lam2) * t) - np.exp(2 * theta * t)) / (2 * theta - (r - lam2))
    exact = a_t + b_t * np.cos(2 * math.pi * x)
    rel = space_time_norm(line129, second.order2.times, second.order2.u - exact) / \
        space_time_norm(line129, second.order2.times, exact)
    assert rel <= 0.05
    cfg2 = SolverConfig(tau=0, dt=dt / 2, t_final=T)
    second2 = solve_variations(line129, p, kin, fam, cfg2)
    t2 = second2.order2.times.reshape(-1, 1)
    exact2 = (mu * (np.exp(r * t2) - np.exp(2 * theta * t2)) / (2 * theta - r)
              + mu * (np.exp((r - lam2) * t2) - np.exp(2 * theta * t2))
              / (2 * theta - (r - lam2)) * np.cos(2 * math.pi * x))
    rel2 = space_time_norm(line129, second2.order2.times, second2.order2.u - exact2) / \
        space_time_norm(line129, second2.order2.times, exact2)
    assert rel / rel2 >= 1.5      # first order in dt


def test_second_variation_superposition(line65):
    # all second-order kinetic coefficients zero and chi = xi = mu ~ 0:
    # v2 is the linear elliptic response to u2 alone
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1e-12)
    kin = make_kinetics(p)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.1)
    x = line65.axes[0]
    fam = PerturbationFamily(f1=1.0 + 0.5 * np.cos(math.pi * x),
                             f2=0.5 + 0.5 * np.cos(2 * math.pi * x))
    second = solve_variations(line65, p, kin, fam, cfg)
    for n in (0, len(second.order2.times) // 2, -1):
        expected = helmholtz_solve(line65, 1.0 * second.order2.u[n], p.beta)
        assert np.max(np.abs(second.order2.v[n] - expected)) < 1e-9


def test_fd_matches_direct_for_affine_map(line65):
    # with mu ~ 0 and chi = xi = 0 the solution map is affine in eps
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1e-12)
    kin, cfg, fam, handle = _fd_setup(line65, p, f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))
    direct = solve_variations(line65, p, kin, fam, cfg)
    fd = extract_variation_fd(handle, fam)
    assert np.max(np.abs(fd.order1.u - direct.order1.u)) <= 1e-8


def test_fd_slope_full_nonlinear(line65, nondegenerate_params):
    kin, cfg, fam, handle = _fd_setup(
        line65, nondegenerate_params,
        f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))
    direct = solve_variations(line65, nondegenerate_params, kin, fam, cfg)
    _, ladder = extract_variation_fd(handle, fam, first_direct=direct.order1,
                                     return_ladder=True)
    rep = consistency_report(line65, direct, ladder)
    assert rep.slopes[1] >= 0.8
    assert rep.slopes[2] >= 0.8
    assert "slope" in rep.to_text()


def test_fd_rejects_zero_epsilon(line65, applied_params):
    kin, cfg, _, handle = _fd_setup(line65, applied_params)
    fam = PerturbationFamily(f1=np.ones(65), epsilons=(1e-2, 0.0))
    with pytest.raises(ValueError):
        extract_variation_fd(handle, fam)


def test_family_validation(line65):
    with pytest.raises(ValueError):
        PerturbationFamily(epsilons=(1e-3, 1e-2)).validate(line65)
    # a ladder needs two nodes for a slope
    for eps in ((), (1e-2,)):
        with pytest.raises(ValueError, match="at least two"):
            PerturbationFamily(f1=np.ones(65), epsilons=eps).validate(line65)
    fam = PerturbationFamily(f1=np.ones(65), epsilons=(1e-2, 5e-3))
    fam.validate(line65)
    f, g, h = fam.initial_data(line65, (0.0, 0.0, 0.0), 1e-2)
    assert np.allclose(f, 1e-2)


def test_probe_signs_are_checked_on_the_realized_initial_data(line65, nondegenerate_params,
                                                              monkeypatch):
    # a family's profiles take either sign: an oracle run rejects negative realized
    # initial data before its first step, the linear systems take a signed profile, and
    # at a populated equilibrium a signed profile with non-negative realized data runs
    import archemo.forward as fw
    steps, step = [], fw.step

    def counting(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(fw, "step", counting)
    cfg = SolverConfig(dt=1e-3, t_final=0.01)
    kin = make_kinetics(nondegenerate_params)
    oracle = Oracle(line65, nondegenerate_params, kin, cfg)
    with pytest.raises(ValueError, match="initial data f must be non-negative"):
        extract_variation_fd(oracle.handle(), PerturbationFamily(f1=-np.ones(65)))
    assert oracle.run_count == 1 and not steps
    cos = PerturbationFamily(f1=np.cos(math.pi * line65.axes[0]))
    stack = solve_variations(line65, nondegenerate_params, kin, cos, cfg)
    assert np.array_equal(stack.order1.u[0], cos.f1) and np.min(stack.order1.u[-1]) < 0
    populated = Oracle(line65, nondegenerate_params, make_kinetics(
        nondegenerate_params, expansion_point=steady_state(nondegenerate_params)), cfg)
    fd = extract_variation_fd(populated.handle(), cos)
    assert populated.run_count == 4 and np.all(np.isfinite(fd.order1.u))


def test_slope_nan_at_floor(line65):
    # affine map: discrepancies at solver floor, slope flagged as NaN
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1e-12)
    kin, cfg, fam, handle = _fd_setup(line65, p, f1=np.ones(65))
    direct = solve_variations(line65, p, kin, fam, cfg)
    _, ladder = extract_variation_fd(handle, fam, return_ladder=True)
    rep = consistency_report(line65, direct, ladder, floor=1e-10)
    assert math.isnan(rep.slopes[1])
    assert "not meaningful" in rep.to_text()


def test_elliptic_residual_invariant(line65, nondegenerate_params):
    # tau=0 slaved first variation satisfies the discrete chemical balance
    kin, cfg, fam, _ = _fd_setup(line65, nondegenerate_params,
                                 f1=1.0 + 0.5 * np.cos(math.pi * line65.axes[0]))
    stack = solve_variations(line65, nondegenerate_params, kin, fam, cfg)
    for n in (0, len(stack.order1.times) // 2, -1):
        resid = (laplacian_neumann(line65, stack.order1.v[n])
                 + 1.0 * stack.order1.u[n] - nondegenerate_params.beta * stack.order1.v[n])
        assert norm_l2(line65, resid) <= 10 * ELLIPTIC_TOL * max(1.0, norm_l2(line65, stack.order1.u[n]))


def test_tau1_first_variation_uses_initial_chemicals(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=1, dt=1e-3, t_final=0.1)
    g1 = 1.0 + 0.5 * np.cos(math.pi * line65.axes[0])
    fam = PerturbationFamily(g1=g1)
    stack = solve_variations(line65, applied_params, kin, fam, cfg)
    assert np.max(np.abs(stack.order1.v[0] - g1)) == 0.0
    assert np.max(np.abs(stack.order1.u)) == 0.0
    # pure decay of the attractant modes
    end = stack.order1.v[-1]
    assert 0 < np.max(end) < np.max(g1)


# -- the joint direct solver against separate first- and second-order solvers ------


def _reference_first_variation(domain, p, kin, fam, cfg):
    """First variation stepped on its own, stored at every step."""
    eq = kin.expansion_point
    dt = cfg.dt
    a10, b10 = (coefficient_on_grid(table.get((1, 0), 0.0), domain)
                for table in (kin.g_coeffs, kin.h_coeffs))
    beta, delta = kin.beta_decay, kin.delta_decay
    r_eff = p.r - 2.0 * p.mu * eq.u0
    u1 = fam.profile("f1", domain)
    if cfg.tau == 0:
        v1 = helmholtz_solve(domain, a10 * u1, beta, tol=ELLIPTIC_TOL)
        w1 = helmholtz_solve(domain, b10 * u1, delta, tol=ELLIPTIC_TOL)
    else:
        v1 = fam.profile("g1", domain)
        w1 = fam.profile("h1", domain)
    n_steps = cfg.n_steps
    us, vs, ws = ([None] * (n_steps + 1) for _ in range(3))
    us[0], vs[0], ws[0] = u1, v1, w1
    s = cfg.relaxation_speedup
    for n in range(1, n_steps + 1):
        coupling = 0.0
        if eq.u0 != 0.0 and (p.chi or p.xi):
            coupling = eq.u0 * (p.chi * laplacian_neumann(domain, v1)
                                - p.xi * laplacian_neumann(domain, w1))
        rhs = u1 + dt * (r_eff * u1 - coupling)
        u1 = spectral_helmholtz(domain, rhs / dt, 1.0 / dt)
        if cfg.tau == 0:
            v1 = helmholtz_solve(domain, a10 * u1, beta, tol=ELLIPTIC_TOL)
            w1 = helmholtz_solve(domain, b10 * u1, delta, tol=ELLIPTIC_TOL)
        else:
            v1 = spectral_helmholtz(
                domain, (v1 + s * dt * (a10 * us[n - 1] - beta * v1)) / (s * dt), 1.0 / (s * dt))
            w1 = spectral_helmholtz(
                domain, (w1 + s * dt * (b10 * us[n - 1] - delta * w1)) / (s * dt), 1.0 / (s * dt))
        us[n], vs[n], ws[n] = u1, v1, w1
    times = np.arange(n_steps + 1) * dt
    return Trajectory(domain, times, np.stack(us), np.stack(vs), np.stack(ws))


def _second_order_sources(domain, table, u1, c1):
    """a11*u1*c1 + 2*a20*u1^2 + 2*a02*c1^2 from the raw coefficient table, skipping
    absent entries."""
    out = np.zeros(domain.shape)
    if (1, 1) in table:
        out += coefficient_on_grid(table[(1, 1)], domain) * u1 * c1
    if (2, 0) in table:
        out += 2.0 * coefficient_on_grid(table[(2, 0)], domain) * u1 * u1
    if (0, 2) in table:
        out += 2.0 * coefficient_on_grid(table[(0, 2)], domain) * c1 * c1
    return out


def _reference_second_variation(domain, p, kin, fam, o1, cfg):
    """Second variation stepped on its own from the stride-1 first variation ``o1``."""
    eq = kin.expansion_point
    dt = cfg.dt
    n_steps = cfg.n_steps
    a10, b10 = (coefficient_on_grid(table.get((1, 0), 0.0), domain)
                for table in (kin.g_coeffs, kin.h_coeffs))
    beta, delta = kin.beta_decay, kin.delta_decay
    r_eff = p.r - 2.0 * p.mu * eq.u0
    s = cfg.relaxation_speedup

    def slave_v2(u2, n):
        src = _second_order_sources(domain, kin.g_coeffs, o1.u[n], o1.v[n])
        return helmholtz_solve(domain, a10 * u2 + src, beta, tol=ELLIPTIC_TOL)

    def slave_w2(u2, n):
        src = _second_order_sources(domain, kin.h_coeffs, o1.u[n], o1.w[n])
        return helmholtz_solve(domain, b10 * u2 + src, delta, tol=ELLIPTIC_TOL)

    u2 = 2.0 * fam.profile("f2", domain)
    if cfg.tau == 0:
        v2, w2 = slave_v2(u2, 0), slave_w2(u2, 0)
    else:
        v2, w2 = 2.0 * fam.profile("g2", domain), 2.0 * fam.profile("h2", domain)
    us, vs, ws = ([None] * (n_steps + 1) for _ in range(3))
    us[0], vs[0], ws[0] = u2, v2, w2
    for n in range(1, n_steps + 1):
        m = n - 1
        pot1 = p.chi * o1.v[m] - p.xi * o1.w[m]
        source = -2.0 * p.mu * o1.u[m] * o1.u[m]
        if p.chi or p.xi:
            source = source - 2.0 * advective_flux_div(domain, o1.u[m], pot1)
            if eq.u0 != 0.0:
                source = source - eq.u0 * (p.chi * laplacian_neumann(domain, vs[m])
                                           - p.xi * laplacian_neumann(domain, ws[m]))
        rhs = u2 + dt * (r_eff * u2 + source)
        u2 = spectral_helmholtz(domain, rhs / dt, 1.0 / dt)
        if cfg.tau == 0:
            v2, w2 = slave_v2(u2, n), slave_w2(u2, n)
        else:
            src_v = _second_order_sources(domain, kin.g_coeffs, o1.u[m], o1.v[m])
            src_w = _second_order_sources(domain, kin.h_coeffs, o1.u[m], o1.w[m])
            v2 = spectral_helmholtz(
                domain, (v2 + s * dt * (a10 * us[m] - beta * v2 + src_v)) / (s * dt), 1.0 / (s * dt))
            w2 = spectral_helmholtz(
                domain, (w2 + s * dt * (b10 * us[m] - delta * w2 + src_w)) / (s * dt), 1.0 / (s * dt))
        us[n], vs[n], ws[n] = u2, v2, w2
    times = np.arange(n_steps + 1) * dt
    return Trajectory(domain, times, np.stack(us), np.stack(vs), np.stack(ws))


def _joint_case(dim, tau, populated, store_every=1, n_steps=30):
    """A model with all six second-order entries and a family with all six profiles."""
    domain = Domain(1.0, 33) if dim == 1 else Domain((1.0, 1.0), (17, 17))
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)
    a02 = 0.15
    if dim == 2:
        a02 = SeparableField(transverse=1.0 + 0.5 * np.cos(math.pi * domain.axes[0]),
                             axial=(1.0 + domain.axes[1]) / 4.0)
    kin = make_kinetics(p, second_order_g={(1, 1): 0.3, (2, 0): 0.2, (0, 2): a02},
                        second_order_h={(1, 1): -0.1, (2, 0): 0.25, (0, 2): 0.1},
                        expansion_point=steady_state(p) if populated else None)
    cfg = SolverConfig(tau=tau, dt=1e-3, t_final=n_steps * 1e-3, store_every=store_every,
                       relaxation_speedup=1.7 if tau == 1 else 1.0)
    grids = domain.meshgrid()
    x, y = grids[-1], grids[0]
    fam = PerturbationFamily(f1=1.0 + 0.5 * np.cos(math.pi * x) * np.cos(math.pi * y),
                             g1=0.5 + 0.3 * np.cos(2 * math.pi * x), h1=0.4 + 0.2 * np.cos(math.pi * y),
                             f2=0.3 + 0.2 * np.cos(math.pi * x), g2=0.2 + 0.1 * np.cos(math.pi * y),
                             h2=0.1 + 0.05 * np.cos(2 * math.pi * x))
    return domain, p, kin, fam, cfg


@pytest.mark.parametrize("populated", [False, True], ids=["u0=0", "u0>0"])
@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_joint_solver_matches_separate_solvers(dim, tau, populated):
    domain, p, kin, fam, cfg = _joint_case(dim, tau, populated)
    assert (kin.expansion_point.u0 != 0.0) == populated
    stack = solve_variations(domain, p, kin, fam, cfg)
    first = _reference_first_variation(domain, p, kin, fam, cfg)
    second = _reference_second_variation(domain, p, kin, fam, first, cfg)
    assert stack.provenance == "direct"
    assert np.array_equal(stack.order1.times, first.times)
    assert np.array_equal(stack.order2.times, second.times)
    _assert_traj_equal(stack.order1, first)
    _assert_traj_equal(stack.order2, second)
    assert np.max(np.abs(second.u[-1])) > 0.0


@pytest.mark.parametrize("tau", [0, 1])
def test_variation_step_is_one_stacked_solve(tau, monkeypatch):
    # both orders step as one StepPlan.implicit (one transform solve outside
    # helmholtz_solve, each of which makes one) per step; at tau=0 the four
    # chemicals are then slaved, and the coefficient grids are built once per run,
    # not per step
    import archemo.forward as fw
    import archemo.grid as gr
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(gr, "_dct_solve")
    counting(gr, "helmholtz_solve")
    counting(fw, "coefficient_on_grid")
    grids_built = []
    for n_steps in (10, 20):
        domain, p, kin, fam, cfg = _joint_case(1, tau, True, n_steps=n_steps)
        calls.clear()
        solve_variations(domain, p, kin, fam, cfg)
        assert calls.get("_dct_solve", 0) - calls.get("helmholtz_solve", 0) == n_steps
        assert calls.get("helmholtz_solve", 0) == (4 * (n_steps + 1) if tau == 0 else 0)
        grids_built.append(calls.get("coefficient_on_grid", 0))
    assert grids_built[0] == grids_built[1] > 0


@pytest.mark.parametrize("tau", [0, 1])
def test_strided_variations_keep_the_stride_one_slices(tau):
    # 10 steps at stride 4 store steps 0, 4, 8 and the last one, like solve_forward
    domain, p, kin, fam, cfg = _joint_case(1, tau, False, n_steps=10)
    every = solve_variations(domain, p, kin, fam, cfg)
    _, _, _, _, cfg4 = _joint_case(1, tau, False, store_every=4, n_steps=10)
    strided = solve_variations(domain, p, kin, fam, cfg4)
    kept = [0, 4, 8, 10]
    for full, part in ((every.order1, strided.order1), (every.order2, strided.order2)):
        assert np.array_equal(part.times, full.times[kept])
        for name in ("u", "v", "w"):
            assert np.array_equal(part.component(name), full.component(name)[kept])


# -- finite-difference extraction against the out-of-place reference --------------


def _traj_linear_comb(domain, terms):
    """Sum of (coeff, Trajectory) pairs as a new Trajectory."""
    times = terms[0][1].times
    u = sum(c * t.u for c, t in terms)
    v = sum(c * t.v for c, t in terms)
    w = sum(c * t.w for c, t in terms)
    return Trajectory(domain, times, u, v, w)


def _neville_to_zero(domain, nodes, values):
    """Out-of-place Neville tableau at eps -> 0; returns (best, corrections)."""
    m = len(nodes)
    column = list(values)
    corrections = []
    for j in range(1, m):
        new_column = []
        for i in range(m - j):
            e_lo, e_hi = nodes[i + j], nodes[i]
            new_column.append(_traj_linear_comb(domain, [
                (e_hi / (e_hi - e_lo), column[i + 1]),
                (-e_lo / (e_hi - e_lo), column[i]),
            ]))
        corrections.append(float(np.max(np.abs(new_column[-1].u - column[-1].u))))
        column = new_column
    return column[0], corrections


def _reference_fd(handle, fam, first_direct=None):
    """Difference quotients and extrapolations of both orders, built out of place.

    The order-2 quotients are returned as a function of the u1 they difference
    against, so they can be rebuilt against another first variation.
    """
    domain, eq = handle.domain, handle.equilibrium
    eps = tuple(float(e) for e in fam.epsilons)
    base = handle.run(domain.constant(eq.u0), domain.constant(eq.v0), domain.constant(eq.w0))
    runs = [handle.run(*fam.initial_data(domain, eq, e)) for e in eps]

    def quotients2(u1):
        return [_traj_linear_comb(domain, [(2.0 / (e * e), r), (-2.0 / (e * e), base),
                                           (-2.0 / e, u1)])
                for e, r in zip(eps, runs)]

    d1 = [_traj_linear_comb(domain, [(1.0 / e, r), (-1.0 / e, base)]) for e, r in zip(eps, runs)]
    order1, corr1 = _neville_to_zero(domain, eps, d1)
    u1 = first_direct if first_direct is not None else order1
    order2, corr2 = _neville_to_zero(domain, eps, quotients2(u1))
    return d1, order1, corr1, quotients2, order2, corr2


def _caching_handle(domain, params, t_final=0.2):
    # repeated probing returns the stored run, so no solver work happens after the first
    kin = make_kinetics(params)
    handle = ForwardHandle.from_model(domain, params, kin, SolverConfig(dt=1e-3, t_final=t_final))
    cache = {}

    def run(f, gg, h, store=None):
        key = (f.tobytes(), gg.tobytes(), h.tobytes())
        if key not in cache:
            cache[key] = handle.run(f, gg, h)
        return replay(cache[key], store)
    return ForwardHandle(domain=domain, equilibrium=handle.equilibrium, run=run, cfg=handle.cfg)


def _assert_traj_equal(a, b):
    for name in ("u", "v", "w"):
        assert np.array_equal(a.component(name), b.component(name))


# the streamed sums differ from the tableau in rounding only: order 1 within 64 eps
# of each component's largest |.|, order 2 within 1e-10 of it (3.3e-12 measured),
# and the corrections, which are differences on u, within 1e-10 of the largest |u|
ORDER1_REL = 64 * np.finfo(float).eps
ORDER2_REL = 1e-10


def _assert_traj_close(a, b, rel):
    for name in ("u", "v", "w"):
        ref = b.component(name)
        assert np.max(np.abs(a.component(name) - ref)) <= rel * np.max(np.abs(ref))


def _assert_matches_reference(stack, order1, corr1, order2, corr2):
    _assert_traj_close(stack.order1, order1, ORDER1_REL)
    _assert_traj_close(stack.order2, order2, ORDER2_REL)
    for name, ref, traj in (("order1_corrections", corr1, order1),
                            ("order2_corrections", corr2, order2)):
        got = stack.diagnostics[name]
        assert len(got) == len(ref)
        assert np.max(np.abs(np.subtract(got, ref))) <= ORDER2_REL * np.max(np.abs(traj.u))


# every extraction reaches order 2; the ids keep naming that order
@pytest.mark.parametrize("use_direct", [False, True], ids=["False-2", "True-2"])
def test_fd_matches_out_of_place_reference(line65, nondegenerate_params, use_direct):
    handle = _caching_handle(line65, nondegenerate_params)
    fam = PerturbationFamily(f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))
    direct = None
    if use_direct:
        kin = make_kinetics(nondegenerate_params)
        direct = solve_variations(line65, nondegenerate_params, kin, fam, handle.cfg).order1
    d1, order1, corr1, quotients2, order2, corr2 = _reference_fd(handle, fam, direct)
    stack, ladder = extract_variation_fd(handle, fam, first_direct=direct, return_ladder=True)
    _assert_matches_reference(stack, order1, corr1, order2, corr2)
    # the ladder's quotients are bitwise the reference's, the order-2 ones taken
    # against the u1 the extraction used
    d2 = quotients2(direct if use_direct else stack.order1)
    assert [e for e, _ in ladder] == list(fam.epsilons)
    for (_, entry), ref1, ref2 in zip(ladder, d1, d2):
        _assert_traj_equal(entry.order1, ref1)
        _assert_traj_equal(entry.order2, ref2)
    # the stack without the ladder is the same extraction
    plain = extract_variation_fd(handle, fam, first_direct=direct)
    _assert_traj_equal(plain.order1, stack.order1)
    _assert_traj_equal(plain.order2, stack.order2)
    assert plain.diagnostics == stack.diagnostics


# every extraction reaches order 2; the id keeps naming that order
@pytest.mark.parametrize("bound", [3.0], ids=["2"])
def test_fd_extraction_peak_memory(line65, nondegenerate_params, bound):
    # peak allocation of one extraction, in units of one stored trajectory (u, v, w):
    # its six result fields, the inner node's u-difference and one block of the cached
    # run replayed into its store, 2.51 measured (3.68 while cached runs were folded
    # whole, as one block each)
    handle = _caching_handle(line65, nondegenerate_params, t_final=0.3)
    fam = PerturbationFamily(f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))
    extract_variation_fd(handle, fam)
    base = handle.run(*(line65.constant(c) for c in handle.equilibrium))
    traj_bytes = base.u.nbytes + base.v.nbytes + base.w.nbytes
    stack, peak = traced_peak(lambda: extract_variation_fd(handle, fam), traj_bytes)
    assert stack.order1 is not None
    assert peak <= bound


def test_fd_extraction_peak_memory_while_solving(line65, nondegenerate_params):
    # peak of one extraction that solves its ladder, in trajectories (u, v, w): its six
    # result fields, the u-difference of the inner node and one block of the run being
    # solved with the fold's block temporaries, 7.6 components or 2.53 (3.69 while it
    # held the run in hand and a scratch field, 11 components; 5.0 when it kept a full
    # tail on u of every node and a fresh array for every product).  The base run is
    # taken first, since it belongs to the handle (at the trivial equilibrium it is
    # known, with no solve).
    _, _, fam, handle = _fd_setup(line65, nondegenerate_params,
                                  f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))
    base = handle.base()
    traj_bytes = sum(base.component(name).nbytes for name in ("u", "v", "w"))
    _, peak = traced_peak(lambda: extract_variation_fd(handle, fam), traj_bytes)
    assert peak <= 2.7


def test_fd_extraction_holds_one_ladder_run(line65, nondegenerate_params):
    _, _, fam, model = _fd_setup(line65, nondegenerate_params, t_final=0.05,
                                 f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]),
                                 epsilons=(1e-2, 5e-3, 2.5e-3, 1.25e-3))
    refs = []

    def run(f, gg, h, store=None):
        # each earlier ladder run is gone before the next one is solved
        assert all(ref() is None for ref in refs)
        traj = model.run(f, gg, h)
        refs.append(weakref.ref(traj))
        return replay(traj, store)
    handle = ForwardHandle(domain=line65, equilibrium=model.equilibrium, run=run, cfg=model.cfg)
    handle.base()
    # with the ladder's quotients too, each is formed while its run is in hand
    for return_ladder in (False, True):
        refs.clear()        # the base run stays with the handle
        extract_variation_fd(handle, fam, return_ladder=return_ladder)
        assert len(refs) == 4
        assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("case, message", [
    # a run on half the handle's t_final fills 26 of the base run's 51 slices
    ("short", r"ladder node 0 \(eps = {eps}\) folded 26 stored slices, not the base run's 51"),
    ("ignores_store", r"ladder node 0 \(eps = {eps}\) folded 0 stored slices"),
    # 101 slices in blocks of 7: the block 49:56 reaches past the base run's 51
    ("long", r"ladder node 0 \(eps = {eps}\) folded slices 49:56 after 49 of 51"),
    ("twice", r"ladder node 0 \(eps = {eps}\) folded slices 0:4 after 51 of 51"),
], ids=["short", "ignores_store", "long", "twice"])
def test_fd_extraction_rejects_a_run_that_does_not_fill_its_store(line65, nondegenerate_params,
                                                                  case, message):
    # every ladder run must fold exactly the base run's stored slices, in order; the
    # base of this trivial-equilibrium handle is known on the handle's 51 stored times
    kin, cfg, fam, handle = _fd_setup(line65, nondegenerate_params, t_final=0.05,
                                      f1=1.0 + 0.9 * np.cos(math.pi * line65.axes[0]))

    def run(f, gg, h, store=None):
        def solve(t_final, into):
            return solve_forward(line65, (f, gg, h), nondegenerate_params, kin,
                                 SolverConfig(dt=cfg.dt, t_final=t_final), store=into)
        if case == "twice":
            solve(cfg.t_final, store)
        return solve({"short": 0.025, "long": 0.1}.get(case, cfg.t_final),
                     None if case == "ignores_store" else store)
    handle.run = run
    with pytest.raises(ValueError, match=message.format(eps=re.escape(repr(fam.epsilons[0])))):
        extract_variation_fd(handle, fam)


def _synthetic_handle(domain, scale):
    """A handle whose runs are known smooth functions of eps, read off the initial
    density (u0 = 0, f1 = 1): S(eps) = S(0) + (expm1(x) A, expm1(x)^2 B, sin(x) C)
    with x = eps / scale.  Also returns the first variation (A, 0, C) / scale."""
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 0.1, 6)
    shape = times.shape + domain.shape
    base, modes = ([rng.random(shape) for _ in range(3)] for _ in range(2))

    def run(f, gg, h, store=None):
        x = float(f[0]) / scale
        factors = (math.expm1(x), math.expm1(x) ** 2, math.sin(x))
        return replay(Trajectory(domain, times, *(b + c * a for b, c, a in
                                                  zip(base, factors, modes))), store)
    handle = ForwardHandle(domain=domain, equilibrium=EquilibriumState(0.0, 0.0, 0.0), run=run,
                           cfg=SolverConfig(dt=1e-3, t_final=0.1))
    first = Trajectory(domain, times, modes[0] / scale, 0.0 * modes[1], modes[2] / scale)
    return handle, first


@pytest.mark.parametrize("epsilons, warned", [
    ((0.4, 0.2, 0.1), True),               # x = 8, 4, 2: each larger eps moves it more
    ((1e-2, 5e-3, 2.5e-3), False),         # the default ladder, x <= 0.2
])
def test_ladder_warning_flags_a_coarse_ladder(line65, epsilons, warned):
    handle, _ = _synthetic_handle(line65, scale=0.05)
    fam = PerturbationFamily(f1=np.ones(65), epsilons=epsilons)
    stack = extract_variation_fd(handle, fam)
    corr = stack.diagnostics["order1_corrections"]
    assert len(corr) == 2
    assert ("ladder_warning" in stack.diagnostics) == warned
    assert (corr[-1] > 4.0 * corr[-2]) == warned


@pytest.mark.parametrize("use_direct", [False, True])
def test_four_node_corrections_match_the_reference(line65, use_direct):
    handle, first = _synthetic_handle(line65, scale=0.05)
    fam = PerturbationFamily(f1=np.ones(65), epsilons=(0.2, 0.1, 0.05, 0.025))
    direct = first if use_direct else None
    _, order1, corr1, _, order2, corr2 = _reference_fd(handle, fam, direct)
    stack = extract_variation_fd(handle, fam, first_direct=direct)
    assert len(stack.diagnostics["order1_corrections"]) == 3
    # every correction is far above rounding but the last one of order 2 against
    # its own order 1: with u1 = P_0(0) of the order-1 quotients, the order-2
    # quotients at all m nodes lie on one polynomial of degree m - 2, which P_0
    # and P_1 both reproduce
    assert min(corr1 + corr2[:-1]) > 1e-3
    assert (corr2[-1] > 1e-3) == use_direct
    _assert_matches_reference(stack, order1, corr1, order2, corr2)


def _known_base_twin(handle, domain):
    """A handle at the trivial equilibrium whose runs are those of ``handle`` less its
    solved base, and whose base is the known zero of :func:`variation.known_base`; it
    records a weak reference to every component of every run it returns."""
    base, refs = handle.base(), []

    def run(f, gg, h, store=None):
        traj = handle.run(f, gg, h)
        traj = Trajectory(domain, traj.times,
                          *(traj.component(n) - base.component(n) for n in "uvw"))
        refs.append({n: weakref.ref(traj.component(n)) for n in "uvw"})
        return replay(traj, store)
    # six stored times, as the synthetic runs have
    twin = ForwardHandle.of_solver(domain, handle.equilibrium, run,
                                   SolverConfig(dt=0.02, t_final=0.1))
    return twin, refs


def test_a_solved_base_is_subtracted_even_at_the_trivial_equilibrium(line65):
    # a handle built directly at the trivial equilibrium solves its base, which need not
    # be zero; only the known zero base skips the subtraction, so both handles fold the
    # same differences and return the same bits
    handle, _ = _synthetic_handle(line65, scale=0.05)
    assert np.min(np.abs(handle.base().u)) > 0
    twin, _ = _known_base_twin(handle, line65)
    assert not any(twin.base().u.strides)
    fam = PerturbationFamily(f1=np.ones(65), epsilons=(0.2, 0.1, 0.05, 0.025))
    got, want = extract_variation_fd(handle, fam), extract_variation_fd(twin, fam)
    _assert_traj_equal(got.order1, want.order1)
    _assert_traj_equal(got.order2, want.order2)
    assert got.diagnostics == want.diagnostics


def test_four_node_ladder_holds_its_inner_u_differences(line65):
    # with the known zero base each u-difference is its run's own u: the extraction
    # copies the u of the inner nodes 1..m-2 into its own buffers block by block, as
    # the store feeds it, so no array of an earlier run is alive while a run is solved
    handle, _ = _synthetic_handle(line65, scale=0.05)
    twin, refs = _known_base_twin(handle, line65)
    eps = (0.2, 0.1, 0.05, 0.025)
    alive = []

    def run(f, gg, h, store=None):
        alive.append([[n for n in "uvw" if ref[n]() is not None] for ref in refs])
        return twin_run(f, gg, h, store)
    twin_run, twin.run = twin.run, run
    stack = extract_variation_fd(twin, PerturbationFamily(f1=np.ones(65), epsilons=eps))
    assert alive == [[], [[]], [[], []], [[], [], []]]
    assert all(ref[n]() is None for ref in refs for n in "uvw")
    # the tails are rebuilt from those differences term by term in node order, as
    # running sums over the ladder would have summed them, so the corrections are
    # bitwise those of the sums
    diffs = [twin_run(*PerturbationFamily(f1=np.ones(65)).initial_data(
        line65, twin.equilibrium, e)).u for e in eps]
    weights = [_weights_at_zero(eps[a:]) for a in range(4)]
    for order in (1, 2):
        tails = []
        for a in range(4):
            coeffs = [w / e if order == 1 else 2.0 * w / (e * e)
                      for w, e in zip(weights[a], eps[a:])]
            acc = coeffs[0] * diffs[a]
            for c, d in zip(coeffs[1:], diffs[a + 1:]):
                acc += c * d
            if order == 2:
                acc -= 2.0 * sum(w / e for w, e in zip(weights[a], eps[a:])) * stack.order1.u
            tails.append(acc)
        assert np.array_equal(tails[0], getattr(stack, f"order{order}").u)
        assert stack.diagnostics[f"order{order}_corrections"] == [
            float(np.max(np.abs(tails[a] - tails[a + 1]))) for a in (2, 1, 0)]
