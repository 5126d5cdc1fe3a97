import math
import re
from dataclasses import replace

import numpy as np
import pytest

from archemo import forward, grid
from archemo.errors import CFLViolation, NumericsError
from archemo.forward import (
    KineticsSpec,
    ParameterSet,
    SeparableField,
    SolverConfig,
    measure,
    solve_forward,
    StepPlan,
    steady_state,
    step,
)
from archemo.grid import (
    Domain,
    advective_flux_div,
    helmholtz_solve,
    laplacian_neumann,
    max_face_speed,
    quadrature,
    spectral_helmholtz,
)
from archemo.variation import PerturbationFamily, solve_variations

from conftest import make_kinetics


# -- steady states -----------------------------------------------------------

def test_steady_state_algebra():
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
    assert steady_state(p) == (0.5, 0.5, 0.5)
    p0 = ParameterSet(chi=0.0, xi=0.0, r=0.0, mu=1.0)
    assert steady_state(p0) == (0.0, 0.0, 0.0)
    p2 = ParameterSet(chi=0.0, xi=0.0, r=1.0, mu=2.0, alpha=3.0, beta=1.5, gamma=1.0, delta=4.0)
    u0, v0, w0 = steady_state(p2)
    assert (u0, v0, w0) == pytest.approx((0.5, 1.0, 0.125))


def test_steady_state_rejects_spatial_alpha():
    d = Domain(1.0, 33)
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0,
                     alpha=1.0 + 0.3 * np.cos(np.pi * d.axes[0]))
    with pytest.raises(ValueError):
        steady_state(p, domain=d)
    assert steady_state(p, trivial=True, domain=d) == (0.0, 0.0, 0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParameterSet(chi=0.1, xi=0.0, r=0.5, mu=0.0).validate()
    with pytest.raises(ValueError):
        ParameterSet(chi=0.1, xi=0.0, r=0.5, mu=1.0, beta=-1.0).validate()
    with pytest.raises(ValueError):
        ParameterSet(chi=-0.1, xi=0.0, r=0.5, mu=1.0).validate()


def test_kinetics_validation(square33):
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0)
    kin = make_kinetics(p)
    kin.validate(square33)
    # (0,1) must be a negative constant
    bad = KineticsSpec(g_coeffs={(1, 0): 1.0, (0, 1): 0.5},
                       h_coeffs={(1, 0): 1.0, (0, 1): -1.0})
    with pytest.raises(ValueError):
        bad.validate()
    # (1,0) must not vary along the last coordinate
    X, Y = square33.meshgrid()
    bad2 = KineticsSpec(g_coeffs={(1, 0): 1.0 + 0.1 * Y, (0, 1): -1.0},
                        h_coeffs={(1, 0): 1.0, (0, 1): -1.0})
    with pytest.raises(ValueError):
        bad2.validate(square33)
    # order-2 entries must be constants or separable
    bad3 = KineticsSpec(g_coeffs={(1, 0): 1.0, (0, 1): -1.0, (2, 0): X},
                        h_coeffs={(1, 0): 1.0, (0, 1): -1.0})
    with pytest.raises(ValueError):
        bad3.validate(square33)


def test_separable_field_requires_nonzero_axial(square33):
    axial = np.cos(math.pi * square33.axes[1])       # integrates to zero
    sf = SeparableField(transverse=np.ones(33), axial=axial)
    with pytest.raises(ValueError):
        sf.validate(square33)


# -- elliptic solve -----------------------------------------------------------

def test_elliptic_solve_examples(line65, rng):
    c = helmholtz_solve(line65, line65.constant(1.5 * 4.0), decay=1.5)
    assert np.max(np.abs(c - 4.0)) < 1e-9
    beta = 1.5
    f = np.cos(math.pi * line65.axes[0])
    sol = helmholtz_solve(line65, (math.pi ** 2 + beta) * f, decay=beta)
    assert np.max(np.abs(sol - f)) < 5 * line65.spacing[0] ** 2 * math.pi ** 2
    src = rng.standard_normal(line65.shape)
    v = helmholtz_solve(line65, src, decay=1.0)
    resid = -laplacian_neumann(line65, v) + v - src
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(src)


def test_elliptic_solve_rejects_nonpositive_decay(line65):
    with pytest.raises(NumericsError):
        helmholtz_solve(line65, line65.constant(1.0), decay=-0.5)


# -- stepping ------------------------------------------------------------------

def test_step_fixed_point(line65, applied_params):
    eq = steady_state(applied_params)
    kin = make_kinetics(applied_params, expansion_point=eq)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=1.0)
    state = (line65.constant(eq.u0), line65.constant(eq.v0), line65.constant(eq.w0))
    plan = StepPlan(line65, applied_params, kin, cfg)
    for _ in range(100):
        new = step(plan, state)
        drift = max(float(np.max(np.abs(a - b))) for a, b in zip(new, state))
        assert drift <= 1e-12
        state = new


def test_heat_mode_decay(line129):
    p = ParameterSet(chi=0.0, xi=0.0, r=0.0, mu=1e-12)
    kin = make_kinetics(p)
    dt, T = 1e-3, 0.3
    cfg = SolverConfig(tau=0, dt=dt, t_final=T, require_nonnegative=False)
    f = np.cos(math.pi * line129.axes[0])
    traj = solve_forward(line129, (f, line129.zeros(), line129.zeros()), p, kin, cfg)
    exact = math.exp(-math.pi ** 2 * T) * f
    err = np.max(np.abs(traj.u[-1] - exact))
    bound = (dt * math.pi ** 4 * T + line129.spacing[0] ** 2 * math.pi ** 4 * T) * math.exp(-math.pi ** 2 * T)
    assert err <= 2 * bound
    # halving dt roughly halves the error (first order in time)
    cfg2 = SolverConfig(tau=0, dt=dt / 2, t_final=T, require_nonnegative=False)
    traj2 = solve_forward(line129, (f, line129.zeros(), line129.zeros()), p, kin, cfg2)
    err2 = np.max(np.abs(traj2.u[-1] - exact))
    assert 1.5 <= err / err2 <= 2.5


def test_mass_identity_per_step(line65, applied_params):
    # d/dt int u equals int(r u - mu u^2) exactly for this discretization:
    # advective and diffusive fluxes telescope, the implicit solve preserves mass
    p = applied_params
    kin = make_kinetics(p)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.05)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    traj = solve_forward(line65, (f, f, f), p, kin, cfg)
    for n in range(len(traj.times) - 1):
        du = (quadrature(line65, traj.u[n + 1]) - quadrature(line65, traj.u[n])) / cfg.dt
        reaction = quadrature(line65, p.r * traj.u[n] - p.mu * traj.u[n] ** 2)
        assert abs(du - reaction) <= 1e-10 * max(1.0, abs(reaction))


def test_nonnegativity_under_cfl(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=1.0)
    f = 1.0 + 0.9 * np.cos(2 * math.pi * line65.axes[0])
    traj = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
    assert float(np.min(traj.u)) >= -1e-9


def test_cfl_violation_detected(line65):
    p = ParameterSet(chi=50.0, xi=0.0, r=0.5, mu=1.0)
    kin = make_kinetics(p)
    cfg = SolverConfig(tau=0, dt=5e-2, t_final=0.5)
    f = 1.0 + 0.9 * np.cos(math.pi * line65.axes[0])
    with pytest.raises(CFLViolation):
        solve_forward(line65, (f, line65.zeros(), line65.zeros()), p, kin, cfg)


def test_step_density_matches_unfused_drift(applied_params, rng):
    # one face-velocity build feeds both the CFL speed and the upwind flux; the
    # density update equals the one built from the two separate grid operators, at
    # tau 1 and 0, and the tau=0 chemicals are c0 + the screened solve of G(u_new, c0)
    p = applied_params
    eq = steady_state(p)
    for d in (Domain(1.0, 65), Domain((1.0, 1.0), (17, 17))):
        u, v, w = (0.5 + 0.1 * rng.random(d.shape) for _ in range(3))
        potential = p.chi * v - p.xi * w
        for tau, kin in ((1, make_kinetics(p)), (0, make_kinetics(p, expansion_point=eq))):
            cfg = SolverConfig(tau=tau, dt=1e-3, t_final=1.0)
            assert cfg.dt <= forward.CFL_SAFETY * min(d.spacing) / max_face_speed(d, potential)
            rhs = u + cfg.dt * (p.r * u - p.mu * u * u - advective_flux_div(d, u, potential))
            expected = spectral_helmholtz(d, rhs / cfg.dt, 1.0 / cfg.dt)
            plan = StepPlan(d, p, kin, cfg)
            u_new, v_new, w_new = step(plan, (u, v, w))
            assert np.array_equal(u_new, expected)
            if tau == 0:
                for c_new, c0, which, decay in ((v_new, eq.v0, "g", p.beta),
                                                (w_new, eq.w0, "h", p.delta)):
                    source = plan.kinetics(which, u_new - eq.u0, d.constant(c0))
                    assert np.array_equal(c_new, helmholtz_solve(d, source, decay) + c0)


def test_plan_drift_gives_the_grid_drift_bitwise(applied_params, rng):
    # the step's drift and the grid's functions are one operator: the same bytes, signs
    # of zero included, from potentials with flat and signed-zero stretches and
    # densities with zeros, through one plan reused across calls
    for d in (Domain(1.0, 65), Domain((1.0, 1.0), (17, 17))):
        drift = StepPlan(d, applied_params, make_kinetics(applied_params),
                         SolverConfig(tau=0, dt=1e-3, t_final=1.0)).drift
        signed_zeros = 0
        for _ in range(4):
            pot = np.round(rng.standard_normal(d.shape), 1) * (rng.random(d.shape) < 0.5)
            u = np.where(rng.random(d.shape) < 0.3, 0.0, rng.random(d.shape))
            assert drift.load(pot) == max_face_speed(d, pot)
            div = drift.divergence(u)
            assert div.tobytes() == advective_flux_div(d, u, pot).tobytes()
            signed_zeros += int(np.sum(np.signbit(div) & (div == 0)))
        assert signed_zeros


def test_step_rejects_nonfinite_and_negative_states(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=1.0)
    good = line65.constant(0.5)
    for which in range(3):
        state = [good.copy(), good.copy(), good.copy()]
        state[which][7] = np.nan
        with pytest.raises(ValueError):
            step(StepPlan(line65, applied_params, kin, cfg), tuple(state))
    with pytest.raises(NumericsError):
        step(StepPlan(line65, applied_params, kin, cfg), (line65.constant(-0.5), good, good))


def test_step_screen_rejects_infinities(line65, applied_params):
    # the sums that screen u and the potential catch +inf as the full scan did
    kin = make_kinetics(applied_params)
    good = line65.constant(0.5)
    for tau in (0, 1):
        plan = StepPlan(line65, applied_params, kin, SolverConfig(tau=tau, dt=1e-3, t_final=1.0))
        bad_u = good.copy()
        bad_u[7] = np.inf
        with pytest.raises(ValueError, match="^density contains non-finite entries$"):
            step(plan, (bad_u, good, good))
        # an infinite potential everywhere has no finite face speed to trip the CFL check
        with pytest.raises(ValueError, match="^potential contains non-finite entries$"), \
                np.errstate(invalid="ignore"):
            step(plan, (good, line65.constant(np.inf), good))
        # a single infinite node makes the drift speed infinite first
        bad_w = good.copy()
        bad_w[7] = np.inf
        with pytest.raises(CFLViolation):
            step(plan, (good, good, bad_w))


def test_plan_kinetics_grids_stay_its_own(line65, rng):
    # specs built in a loop, each with its own plan: no plan is served another spec's
    # grids, and a plan's grids stay its own after later edits to the spec
    u, v = rng.random(line65.shape), rng.random(line65.shape)
    for i in range(50):
        alpha = 0.5 + 0.01 * i
        p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=alpha, beta=1.3)
        kin = KineticsSpec.from_parameters(p)
        expected = alpha * u - 1.3 * v
        plan = StepPlan(line65, p, kin, SolverConfig())
        assert np.array_equal(plan.kinetics("g", u, v), expected)
        kin.g_coeffs[(1, 0)] = 2.0 * alpha
        assert np.array_equal(plan.kinetics("g", u, v), expected)
        assert not np.array_equal(StepPlan(line65, p, kin, SolverConfig()).kinetics("g", u, v),
                                  expected)


def test_negative_initial_data_rejected(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.01)
    f = np.cos(math.pi * line65.axes[0])      # signed
    with pytest.raises(ValueError):
        solve_forward(line65, (f, line65.zeros(), line65.zeros()), applied_params, kin, cfg)


def test_perturbation_decay_matches_linearization(line129):
    # f = u0 + 0.01 cos(pi x): the gap to u0 decays at the linearized rate
    # around the carrying-capacity state, here r_eff = r - 2 mu u0 = -r
    p = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0)
    eq = steady_state(p)
    kin = make_kinetics(p, expansion_point=eq)
    cfg = SolverConfig(tau=0, dt=5e-4, t_final=0.2)
    x = line129.axes[0]
    f = eq.u0 + 0.01 * np.cos(math.pi * x)
    traj = solve_forward(line129, (f, line129.constant(eq.v0), line129.constant(eq.w0)), p, kin, cfg)
    fam = PerturbationFamily(f1=np.cos(math.pi * x))
    direct = solve_variations(line129, p, kin, fam, cfg)
    gap = (traj.u - eq.u0) / 0.01
    rel = np.max(np.abs(gap - direct.order1.u)) / np.max(np.abs(direct.order1.u))
    assert rel < 5e-2       # agreement up to the quadratic remainder O(eps)
    # and the observed modal rate matches (r - pi^2) - 2 mu u0
    amp_T = float(np.sum(line129.weights * gap[-1] * np.cos(math.pi * x))) / \
        float(np.sum(line129.weights * np.cos(math.pi * x) ** 2))
    rate = math.log(amp_T) / cfg.t_final
    assert rate == pytest.approx(p.r - math.pi ** 2 - 2 * p.mu * eq.u0, rel=2e-2)


def test_richardson_self_convergence(line65, applied_params):
    kin = make_kinetics(applied_params)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    results = []
    for dt, stride in ((2e-3, 1), (1e-3, 2), (5e-4, 4)):
        cfg = SolverConfig(tau=0, dt=dt, t_final=0.4, store_every=stride)
        traj = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
        results.append(traj.u[-1])
    e1 = np.linalg.norm(results[0] - results[1])
    e2 = np.linalg.norm(results[1] - results[2])
    assert 1.8 <= e1 / e2 <= 2.2


def test_tau_consistency_speedup(line65, applied_params):
    # faster chemical relaxation drives tau=1 measurements toward tau=0
    kin = make_kinetics(applied_params)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    g0 = line65.constant(0.4)
    cfg0 = SolverConfig(tau=0, dt=5e-4, t_final=0.3, store_every=30)
    ref = solve_forward(line65, (f, g0, g0), applied_params, kin, cfg0)
    gaps = []
    for s in (1.0, 4.0, 16.0):
        cfg1 = SolverConfig(tau=1, dt=5e-4, t_final=0.3, store_every=30,
                            relaxation_speedup=s)
        traj = solve_forward(line65, (f, g0, g0), applied_params, kin, cfg1)
        gaps.append(float(np.max(np.abs(traj.v[-1] - ref.v[-1]))
                          + np.max(np.abs(traj.w[-1] - ref.w[-1]))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_stride_keeps_the_final_step(line65, applied_params):
    # a stride that does not divide the step count still stores the last step
    kin = make_kinetics(applied_params)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    dt = 1e-3
    every = solve_forward(line65, (f, f, f), applied_params, kin,
                          SolverConfig(tau=0, dt=dt, t_final=10 * dt))
    strided = solve_forward(line65, (f, f, f), applied_params, kin,
                            SolverConfig(tau=0, dt=dt, t_final=10 * dt, store_every=4))
    kept = [0, 4, 8, 10]
    assert np.array_equal(strided.times, np.array(kept) * dt)
    for name in ("u", "v", "w"):
        assert np.array_equal(strided.component(name), every.component(name)[kept])


def test_determinism(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.1)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    t1 = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
    t2 = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
    assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.v, t2.v) and np.array_equal(t1.w, t2.w)


# -- measurement ---------------------------------------------------------------

def test_measure_constant_trajectory(line65, applied_params):
    eq = steady_state(applied_params)
    kin = make_kinetics(applied_params, expansion_point=eq)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.02)
    init = tuple(line65.constant(v) for v in eq)
    rec = measure(solve_forward(line65, init, applied_params, kin, cfg))
    assert np.max(np.abs(rec.boundary_u - eq.u0)) < 1e-12
    assert np.max(np.abs(rec.boundary_v - eq.v0)) < 1e-12


def test_measure_record_sizes(applied_params):
    # counting oracle: 1D N=65 has 2 boundary nodes; finals carry all nodes
    d = Domain(1.0, 65)
    kin = make_kinetics(applied_params)
    n_steps = 20
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=n_steps * 1e-3)
    f = 0.5 + 0.2 * np.cos(math.pi * d.axes[0])
    rec = measure(solve_forward(d, (f, f, f), applied_params, kin, cfg))
    assert rec.boundary_u.shape == (n_steps + 1, 2)
    assert rec.boundary_v.shape == (n_steps + 1, 2)
    assert rec.boundary_w.shape == (n_steps + 1, 2)
    trace_values = 3 * rec.boundary_u.size
    assert trace_values == 2 * (n_steps + 1) * 3
    assert rec.final_u.shape == (65,)


def test_measure_determinism_bitwise(line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.05)
    f = 0.5 + 0.1 * np.cos(math.pi * line65.axes[0])
    r1 = measure(solve_forward(line65, (f, f, f), applied_params, kin, cfg))
    r2 = measure(solve_forward(line65, (f, f, f), applied_params, kin, cfg))
    assert np.array_equal(r1.boundary_u, r2.boundary_u)
    assert np.array_equal(r1.final_w, r2.final_w)


def test_2d_boundary_measurement(square33, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=2e-3, t_final=0.02)
    X, Y = square33.meshgrid()
    f = 0.5 + 0.1 * np.cos(math.pi * X) * np.cos(math.pi * Y)
    rec = measure(solve_forward(square33, (f, f, f), applied_params, kin, cfg))
    n_boundary = 4 * 33 - 4
    assert rec.boundary_u.shape[1] == n_boundary


# -- slaved chemicals: Picard seed, hoisted kinetics, linear path ----------------------


def _reference_kinetics(domain, kin, which, u, c):
    """G (``which="g"``, c = v) or H (``"h"``, c = w) summed into zeros term by term from
    the coefficient table, as the kinetics were evaluated before they accumulated into
    their first term.  Kept as the reference that StepPlan.kinetics must match bitwise."""
    eq = kin.expansion_point
    table, du, dc = ((kin.g_coeffs, u - eq.u0, c - eq.v0) if which == "g"
                     else (kin.h_coeffs, u - eq.u0, c - eq.w0))
    out = np.zeros(domain.shape)
    for (p, q), val in table.items():
        term = forward.coefficient_on_grid(val, domain) * forward._monomial_weight(p, q)
        if p:
            term = term * du**p
        if q:
            term = term * dc**q
        out += term
    return out


def _reference_slave_chemical(domain, kin, which, u, previous=None):
    """The slave solve before the Picard seed was extrapolated and the kinetics hoisted.

    Kept as the reference for kinetics linear in the chemical, which solved
    G(u, previous) + decay (previous - c0): the present solve must stay within
    rounding of it.
    """
    eq = kin.expansion_point
    if which == "g":
        decay, base, table = kin.beta_decay, eq.v0, kin.g_coeffs
    else:
        decay, base, table = kin.delta_decay, eq.w0, kin.h_coeffs
    nonlinear = any(q >= 1 and (p, q) != (0, 1) for (p, q) in table)
    v = previous if previous is not None else domain.constant(base)
    for _ in range(forward.PICARD_MAXITER):
        rhs = _reference_kinetics(domain, kin, which, u, v) + decay * (v - base)
        v_new = base + helmholtz_solve(domain, rhs, decay, tol=grid.ELLIPTIC_TOL)
        if not nonlinear:
            return v_new
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= forward.PICARD_TOL * (1.0 + float(np.max(np.abs(v)))):
            return v
    raise NumericsError("Picard iteration for the slaved chemical field did not converge")


def _reference_linear_slave(domain, kin, which, u):
    """c0 + the screened solve of G(u, c0): the balance of kinetics linear in the
    chemical, which the present solve must return bitwise."""
    eq = kin.expansion_point
    decay, base = (kin.beta_decay, eq.v0) if which == "g" else (kin.delta_decay, eq.w0)
    source = _reference_kinetics(domain, kin, which, u, domain.constant(base))
    return base + helmholtz_solve(domain, source, decay, tol=grid.ELLIPTIC_TOL)


def _separable_a02_run(amplitude):
    # 33 x 33, tau 0, the benchmark's separable a02 = cos(pi x1)(1 + x2)/4, stride 4
    d = Domain((1.0, 1.0), (33, 33))
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)
    a02 = SeparableField(np.cos(math.pi * d.axes[0]), (1.0 + d.axes[1]) / 4.0)
    kin = KineticsSpec.from_parameters(p, second_order_g={(0, 2): a02})
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=4)
    X, Y = d.meshgrid()
    f = amplitude * (1.2 + np.cos(math.pi * X) * np.cos(2.0 * math.pi * Y))
    return lambda: solve_forward(d, (f, f, f), p, kin, cfg), cfg


@pytest.mark.parametrize("amplitude", [0.3, 1.0])
def test_picard_meets_its_tolerance_against_a_tight_reference(monkeypatch, amplitude):
    # the seed and the hoist change rounding only: each slaved v stays within the
    # Picard tolerance of a run iterated to 1e-15
    run, _ = _separable_a02_run(amplitude)
    traj = run()
    bound = forward.PICARD_TOL * (1.0 + float(np.max(np.abs(traj.v))))
    monkeypatch.setattr(forward, "PICARD_TOL", 1e-15)
    ref = run()
    assert float(np.max(np.abs(traj.v - ref.v))) <= bound


@pytest.mark.parametrize("amplitude, per_step", [(1e-2, 2.25), (0.3, 2.75), (1.0, 3.3)])
def test_picard_solves_per_step(monkeypatch, amplitude, per_step):
    # seeding Picard from the extrapolation through the last PICARD_SEED_DEPTH = 5
    # fields takes 2.19, 2.70 and 3.25 solves per step, the linear w included (4.01,
    # 6.03 and 10.06 from 2 v_n - v_{n-1}, 5.01 and 9.02 at 1e-2 and 0.3 from v_n)
    calls = []
    solve = grid.helmholtz_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(grid, "helmholtz_solve", counting)
    run, cfg = _separable_a02_run(amplitude)
    run()
    assert len(calls) / cfg.n_steps <= per_step


def test_seed_weights_extrapolate_polynomials_exactly():
    # k fields, newest first, give the value one step on of every polynomial of
    # degree < k through them
    for k, weights in forward._SEED_WEIGHTS.items():
        assert len(weights) == k
        for degree in range(k):
            seeded = sum(w * (10 - j) ** degree for j, w in enumerate(weights))
            assert seeded == 11 ** degree


def _nonlinear_1d_run(n_steps):
    # 65 nodes, tau 0, (0, 2) entries in both g and h about the nonzero steady state
    d = Domain((1.0,), (65,))
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)
    kin = KineticsSpec.from_parameters(p, second_order_g={(0, 2): 0.4, (1, 1): 0.2},
                                       second_order_h={(0, 2): -0.3},
                                       expansion_point=steady_state(p))
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=n_steps * 1e-3)
    x = d.axes[0]
    f = 0.6 + 0.3 * np.cos(math.pi * x) + 0.15 * np.cos(3.0 * math.pi * x)
    return lambda: solve_forward(d, (f, f, f), p, kin, cfg)


@pytest.mark.parametrize("n_steps", [forward.PICARD_SEED_DEPTH - 2, 400])
def test_seeded_picard_meets_its_tolerance_in_both_chemicals(monkeypatch, n_steps):
    # before the history fills (fewer steps than the seed depth) and after, both
    # slaved chemicals stay within the Picard tolerance of a run iterated to 1e-15
    run = _nonlinear_1d_run(n_steps)
    traj = run()
    tol = forward.PICARD_TOL
    monkeypatch.setattr(forward, "PICARD_TOL", 1e-15)
    ref = run()
    for name in ("v", "w"):
        c, c_ref = traj.component(name), ref.component(name)
        assert float(np.max(np.abs(c - c_ref))) <= tol * (1.0 + float(np.max(np.abs(c))))


def _reference_picard_slave(plan, which, u, previous=None, earlier=()):
    """The Picard loop before it ran in preallocated buffers, each iteration building
    v - c0, the products, the rhs, c0 + solve and |v_new - v| as new arrays.  Kept as
    the reference that the buffered loop must match bitwise; kinetics linear in the
    chemical go to the present solve."""
    domain, kin = plan.domain, plan.kin
    eq = kin.expansion_point
    decay, base = (kin.beta_decay, eq.v0) if which == "g" else (kin.delta_decay, eq.w0)
    fixed, factors = plan.slaved_terms(which, u)
    if not factors:
        return _present_slave_chemical(plan, which, u, previous, earlier)
    v = previous if previous is not None else domain.constant(base)
    if earlier:
        earlier = earlier[:forward.PICARD_SEED_DEPTH - 1]
        first, *rest = forward._SEED_WEIGHTS[len(earlier) + 1]
        v = first * previous
        for weight, c in zip(rest, earlier):
            v += weight * c
    for _ in range(forward.PICARD_MAXITER):
        dv = v - base
        rhs = fixed
        for q, factor in factors:
            rhs = rhs + factor * dv**q
        v_new = base + helmholtz_solve(domain, rhs, decay)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta <= forward.PICARD_TOL * (1.0 + float(np.abs(v).max())):
            return v
    raise NumericsError("Picard iteration for the slaved chemical field did not converge")


_present_slave_chemical = forward.StepPlan.slave


@pytest.mark.parametrize("case", ["separable 33^2", "1D about a steady state"])
def test_buffered_picard_matches_the_unbuffered_loop(monkeypatch, case):
    # the buffered loop takes the same operations in the same order: the 33^2
    # separable a02 run (c0 = 0) and a 1D table nonlinear in both chemicals about a
    # nonzero steady state (c0 != 0) return the reference trajectories bitwise
    run = _separable_a02_run(0.3)[0] if case == "separable 33^2" else _nonlinear_1d_run(200)
    present = run()
    monkeypatch.setattr(forward.StepPlan, "slave", _reference_picard_slave)
    reference = run()
    for name in ("u", "v", "w"):
        assert np.array_equal(present.component(name), reference.component(name))


def test_linear_kinetics_never_read_the_seed(line129, nondegenerate_params):
    # a tau=0 step with kinetics linear in the chemical returns the same arrays with
    # and without the earlier states, and those of the run, which keeps none
    d, p = line129, nondegenerate_params
    f = 0.5 + 0.3 * np.cos(math.pi * d.axes[0])
    cfg = SolverConfig(tau=0, dt=5e-4, t_final=0.01)
    kin = make_kinetics(p, second_order_g={(2, 0): 0.3},
                        expansion_point=steady_state(p))
    traj = solve_forward(d, (f, f, f), p, kin, cfg)
    states = list(zip(traj.u, traj.v, traj.w))
    depth = forward.PICARD_SEED_DEPTH - 1
    plan = StepPlan(d, p, kin, cfg)
    for n in range(depth, len(states) - 1):
        seeded = step(plan, states[n], states[n - 1::-1][:depth])
        unseeded = step(plan, states[n])
        for a, b, stored in zip(seeded, unseeded, states[n + 1]):
            assert np.array_equal(a, b) and np.array_equal(a, stored)


def test_picard_failure_names_chemical_change_and_target(monkeypatch):
    # one Picard iteration cannot meet the tolerance on a nonlinear run; the error
    # names the chemical, the last change, the target it missed and the iterations
    monkeypatch.setattr(forward, "PICARD_MAXITER", 1)
    with pytest.raises(NumericsError) as info:
        _nonlinear_1d_run(3)()
    message = str(info.value)
    match = re.search(r"chemical v did not converge in 1 iterations: last change (\S+) "
                      r"between iterates, target (\S+) = PICARD_TOL \* \(1 \+ max\|v\|\)",
                      message)
    assert match, message
    change, target = (float(x) for x in match.groups())
    assert change > target >= forward.PICARD_TOL


def test_linear_slave_solve_matches_reference(monkeypatch, line129, nondegenerate_params):
    # kinetics linear in the chemical take one solve of G(u, c0): the runs are bitwise
    # those of c = c0 + helmholtz_solve(G(u, c0), decay), and within 64 eps of the
    # solve of G(u, previous) + decay (previous - c0) that it replaced, whose decay
    # terms cancel (measured <= 20 eps).  The third table is linear in the chemical
    # but holds (2, 0) entries, about the nonzero steady state, which pins the
    # (u - u0)^2 power and the offset base
    x = line129.axes[0]
    square = Domain((1.0, 1.0), (33, 33))
    X, Y = square.meshgrid()
    f1 = 0.5 + 0.3 * np.cos(math.pi * x) + 0.1 * np.cos(3.0 * math.pi * x)
    eq = steady_state(nondegenerate_params)
    assert eq.u0 and eq.v0 and eq.w0
    cases = [
        (line129, nondegenerate_params, make_kinetics(nondegenerate_params), f1,
         SolverConfig(tau=0, dt=5e-4, t_final=0.2)),
        (square, replace(nondegenerate_params, alpha=1.0 + 0.3 * np.cos(math.pi * X)), None,
         0.5 + 0.2 * np.cos(math.pi * X) * np.cos(2.0 * math.pi * Y),
         SolverConfig(tau=0, dt=1e-3, t_final=0.1, store_every=4)),
        (line129, nondegenerate_params,
         make_kinetics(nondegenerate_params, second_order_g={(2, 0): 0.3},
                       second_order_h={(2, 0): -0.2}, expansion_point=eq), f1,
         SolverConfig(tau=0, dt=5e-4, t_final=0.2)),
    ]
    for d, p, kin, f, cfg in cases:
        kin = kin or make_kinetics(p)
        assert StepPlan(d, p, kin, cfg).keep == 0     # both tables are linear in their chemical
        present = solve_forward(d, (f, f, f), p, kin, cfg)
        with monkeypatch.context() as m:
            m.setattr(forward.StepPlan, "slave",
                      lambda plan, which, u, previous=None, earlier=None:
                      _reference_linear_slave(plan.domain, plan.kin, which, u))
            reference = solve_forward(d, (f, f, f), p, kin, cfg)
        with monkeypatch.context() as m:
            m.setattr(forward.StepPlan, "slave",
                      lambda plan, which, u, previous=None, earlier=None:
                      _reference_slave_chemical(plan.domain, plan.kin, which, u, previous))
            former = solve_forward(d, (f, f, f), p, kin, cfg)
        eps = np.finfo(float).eps
        for name in ("u", "v", "w"):
            x, ref = present.component(name), former.component(name)
            assert np.array_equal(x, reference.component(name))
            assert float(np.max(np.abs(x - ref))) <= 64.0 * eps * float(np.max(np.abs(ref)))


def test_slaved_terms_match_the_kinetics(square33, rng):
    # fixed + sum of factor * (c - c0)^q is G(u, c) + decay (c - c0) up to rounding,
    # for a table with all six second-order entries; a linear table has no factors,
    # and its fixed is G(u, c0)
    d = square33
    p = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.3, gamma=0.8, delta=1.6)
    sep = SeparableField(np.cos(math.pi * d.axes[0]), (1.0 + d.axes[1]) / 4.0)
    sep2 = SeparableField(1.0 + 0.5 * d.axes[0], np.sin(2.0 * d.axes[1]) + 0.3)
    eq = forward.EquilibriumState(0.4, 0.3, 0.2)
    kin = KineticsSpec.from_parameters(
        p, second_order_g={(1, 1): 0.7, (2, 0): sep2, (0, 2): sep},
        second_order_h={(1, 1): sep, (2, 0): -0.4, (0, 2): 0.25}, expansion_point=eq)
    u, c = 0.4 + rng.random(d.shape), 0.3 + rng.standard_normal(d.shape)
    eps = np.finfo(float).eps
    plan = StepPlan(d, p, kin, SolverConfig())
    for which, decay, base in (("g", 1.3, eq.v0), ("h", 1.6, eq.w0)):
        fixed, factors = plan.slaved_terms(which, u)
        assert sorted(q for q, _ in factors) == [1, 2]
        dc = c - base
        pieces = [fixed] + [factor * dc**q for q, factor in factors]
        hoisted = sum(pieces[1:], pieces[0])
        expected = plan.kinetics(which, u - eq.u0, c) + decay * dc
        scale = sum(np.abs(x) for x in pieces) + 2.0 * decay * np.abs(dc)
        assert np.all(np.abs(hoisted - expected) <= 8.0 * eps * scale)
    linear = StepPlan(d, p, make_kinetics(p), SolverConfig())
    for which in ("g", "h"):
        fixed, factors = linear.slaved_terms(which, u)
        assert factors == [] and np.array_equal(fixed, linear.kinetics(which, u, d.zeros()))


# -- tau=1 stacked step and the per-step call structure ---------------------------------


def _reference_implicit_step(domain, x, tendency, h):
    """One IMEX Euler step of step size h through spectral_helmholtz, as each step
    solved before the solve moved onto the plan's kept denominators."""
    return spectral_helmholtz(domain, (x + h * tendency) / h, 1.0 / h)


def _reference_tau1_step(plan, state, prior=None):
    """The tau=1 step before its implicit solves were stacked: u, v and w each take
    their own :func:`_reference_implicit_step`, with the reference kinetics.  Kept as
    the reference that the stacked step must match bitwise."""
    domain, p, kin, cfg = plan.domain, plan.p, plan.kin, plan.cfg
    u, v, w = state
    advect = grid.advective_flux_div(domain, u, p.chi * v - p.xi * w) if p.chi or p.xi else 0.0
    dt, h = cfg.dt, cfg.relaxation_speedup * cfg.dt
    return (_reference_implicit_step(domain, u, p.r * u - p.mu * u * u - advect, dt),
            _reference_implicit_step(domain, v, _reference_kinetics(domain, kin, "g", u, v), h),
            _reference_implicit_step(domain, w, _reference_kinetics(domain, kin, "h", u, w), h))


@pytest.mark.parametrize("speedup", [1.0, 2.5])
@pytest.mark.parametrize("cells, matrices", [((129,), False), ((33, 33), True), ((81, 81), False)])
def test_tau1_stacked_step_matches_separate_steps(monkeypatch, nondegenerate_params, cells,
                                                   matrices, speedup):
    # one stacked transform per step, through either transform path, returns the
    # trajectory of three separate implicit steps, bitwise
    d = Domain((1.0,) * len(cells), cells)
    assert (d.dct_matrices is not None) == matrices
    X = d.meshgrid()
    f = 0.5 + 0.3 * np.cos(math.pi * X[0]) * np.cos(2.0 * math.pi * X[-1])
    p = nondegenerate_params
    kin = make_kinetics(p, second_order_g={(1, 1): 0.2}, second_order_h={(2, 0): -0.1})
    cfg = SolverConfig(tau=1, dt=5e-4, t_final=2e-2 if d.dim == 1 else 4e-3,
                       relaxation_speedup=speedup)
    init = (f, 0.9 * f, 0.7 * f)
    present = solve_forward(d, init, p, kin, cfg)
    monkeypatch.setattr(forward, "step", _reference_tau1_step)
    reference = solve_forward(d, init, p, kin, cfg)
    for name in ("u", "v", "w"):
        assert np.array_equal(present.component(name), reference.component(name))


@pytest.mark.parametrize("tau, helmholtz, spectral", [(0, 2, 1), (1, 0, 1)])
def test_step_call_structure(monkeypatch, line129, nondegenerate_params, tau, helmholtz, spectral):
    # a tau=0 step with linear kinetics slaves v and w by one helmholtz_solve each and
    # steps u by one transform solve of its own; a tau=1 step runs all three as one
    # stack.  Each helmholtz_solve makes one transform solve, and the step calls the
    # transform on its plan's denominators, not through spectral_helmholtz
    calls = {"helmholtz_solve": 0, "_dct_solve": 0, "spectral_helmholtz": 0}

    def counting(name):
        fn = getattr(grid, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(grid, name, counting(name))
    d, p = line129, nondegenerate_params
    f = 0.5 + 0.3 * np.cos(math.pi * d.axes[0])
    step(StepPlan(d, p, make_kinetics(p), SolverConfig(tau=tau, dt=5e-4)),
         (f, 0.9 * f, 0.7 * f))
    own = calls["_dct_solve"] - calls["helmholtz_solve"]
    assert (calls["helmholtz_solve"], own, calls["spectral_helmholtz"]) == (helmholtz, spectral, 0), (
        "the per-step solve calls changed; perfbench/test_tracer.py pins them (one "
        "solve_forward per oracle run, 50 forward.step calls per run, 2 helmholtz_solve "
        "calls per tau=0 step), and only a benchmark change retargets those pins "
        "(ROADMAP item 1)")


def _arrays(obj):
    # every ndarray held by obj, looking into tuples, lists and dicts
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))


@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("case", ["1D linear", "33^2 separable a02 v^2"])
def test_a_reused_plan_leaves_earlier_states_alone(nondegenerate_params, case, tau):
    # one plan stepped several times returns fields that share no memory with its
    # scratch or tables, leaves every state it returned earlier unchanged, and each
    # step equals the one a fresh plan takes; the run stores the same states
    p = nondegenerate_params
    if case == "1D linear":
        d = Domain(1.0, 65)
        kin = make_kinetics(p)
        f = 0.5 + 0.3 * np.cos(math.pi * d.axes[0])
    else:
        d = Domain((1.0, 1.0), (33, 33))
        a02 = SeparableField(np.cos(math.pi * d.axes[0]), (1.0 + d.axes[1]) / 4.0)
        kin = KineticsSpec.from_parameters(p, second_order_g={(0, 2): a02})
        X, Y = d.meshgrid()
        f = 0.3 * (1.2 + np.cos(math.pi * X) * np.cos(2.0 * math.pi * Y))
    cfg = SolverConfig(tau=tau, dt=1e-3, t_final=8e-3)
    traj = solve_forward(d, (f, 0.9 * f, 0.7 * f), p, kin, cfg)
    plan = StepPlan(d, p, kin, cfg)
    owned = list(_arrays(list(vars(plan).values())))
    states = [(traj.u[0].copy(), traj.v[0].copy(), traj.w[0].copy())]
    copies = [tuple(x.copy() for x in states[0])]
    for n in range(cfg.n_steps):
        prior = tuple(reversed(states[max(0, n - plan.keep):n]))
        states.append(step(plan, states[n], prior))
        copies.append(tuple(x.copy() for x in states[-1]))
        assert not any(np.shares_memory(x, a) for x in states[-1] for a in owned)
        fresh = step(StepPlan(d, p, kin, cfg), states[n], prior)
        assert all(np.array_equal(a, b) for a, b in zip(states[-1], fresh))
    for n, (state, copy) in enumerate(zip(states, copies)):
        assert all(np.array_equal(a, b) for a, b in zip(state, copy))
        assert all(np.array_equal(a, traj.component(c)[n]) for a, c in zip(state, "uvw"))
