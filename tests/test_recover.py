import gc
import math
import weakref

import numpy as np
import pytest

from archemo.errors import RecoveryError
from archemo.forward import ParameterSet, SeparableField, SliceStore, SolverConfig
from archemo.grid import Domain, norm_l2
from archemo.recover import (
    Experiment,
    ExperimentBank,
    Oracle,
    PipelineOptions,
    fit_exponential_rate,
    rate_to_growth,
    recover_chi_xi_mu,
    recover_linear_kinetics,
    recover_r,
    recover_second_kinetics,
    run_full_pipeline,
)
from archemo.variation import PerturbationFamily

from conftest import component_bytes, make_kinetics, replay, traced_peak, upwind_patterns


def _oracle(domain, params, tau=0, dt=1e-3, t_final=0.6, so_g=None, so_h=None, **cfg_kw):
    kin = make_kinetics(params, second_order_g=so_g, second_order_h=so_h)
    cfg = SolverConfig(tau=tau, dt=dt, t_final=t_final, **cfg_kw)
    return Oracle(domain, params, kin, cfg)


# -- estimator-level synthetic oracles ------------------------------------------

def test_recover_r_from_closed_form_trajectory():
    # synthetic discrete-time input: the modal amplitude of u1 grows by
    # (1 + dt r)/(1 + dt lam_h) per step, r = 0.5
    r = 0.5
    dt = 1e-3
    n = np.arange(501)
    times = n * dt
    lam_h = math.pi ** 2
    amps = ((1.0 + dt * r) / (1.0 + dt * lam_h)) ** n
    theta, sigma, rms = fit_exponential_rate(times, amps)
    r_hat = rate_to_growth(theta, lam_h, dt)
    assert abs(r_hat - r) <= 1e-3
    assert rms < 1e-10


def test_recover_r_zero_growth():
    dt = 1e-3
    n = np.arange(301)
    times = n * dt
    lam_h = math.pi ** 2
    amps = (1.0 / (1.0 + dt * lam_h)) ** n
    theta, _, _ = fit_exponential_rate(times, amps)
    assert theta == pytest.approx(-math.log1p(dt * lam_h) / dt, rel=1e-10)
    assert rate_to_growth(theta, lam_h, dt) == pytest.approx(0.0, abs=1e-9)
    # the fit keeps the samples before the first one below the floor, even when
    # the amplitude recovers after it
    import archemo.recover as rc
    dipped = amps.copy()
    dipped[200] = 0.5 * rc.FIT_REL_FLOOR * amps[0]
    assert fit_exponential_rate(times, dipped) == fit_exponential_rate(times[:200], amps[:200])


def test_mode_eigenvalue_spacing():
    # two-mode slope difference must reproduce lambda_2 - lambda_1 = 3 pi^2
    dt, r = 1e-3, 0.5
    times = np.arange(0, 0.3 + dt / 2, dt)
    thetas = []
    for lam in (math.pi ** 2, 4 * math.pi ** 2):
        amps = np.exp((r - lam) * times)
        thetas.append(fit_exponential_rate(times, amps)[0])
    assert thetas[0] - thetas[1] == pytest.approx(3 * math.pi ** 2, rel=1e-9)


def test_estimator_gauge_invariance():
    # scaling all probing amplitudes by c > 0 scales the variations by c and
    # leaves every degree-matched estimator output unchanged
    dt, r = 1e-3, 0.5
    times = np.arange(0, 0.3 + dt / 2, dt)
    lam = math.pi ** 2
    amps = np.exp((r - lam) * times)
    theta1 = fit_exponential_rate(times, amps)[0]
    theta3 = fit_exponential_rate(times, 3.0 * amps)[0]
    assert abs(theta1 - theta3) <= 1e-8


# -- oracle plumbing -----------------------------------------------------------

def test_oracle_caching_and_counts(line65, applied_params):
    # at the trivial equilibrium a handle's base run is known without a solve, and
    # every query is solved afresh
    oracle = _oracle(line65, applied_params, t_final=0.05)
    handle = oracle.handle()
    base = handle.base()
    assert handle.base() is base
    assert oracle.query_count == oracle.run_count == 0
    f = 0.5 + 0.1 * np.cos(math.pi * line65.axes[0])
    z = line65.zeros()
    t1 = handle.run(f, z, z)
    t2 = handle.run(f, z, z)
    assert t1 is not t2
    assert np.array_equal(t1.u, t2.u)
    assert oracle.query_count == oracle.run_count == 2
    # the base is all zero on the runs' times
    assert np.array_equal(base.times, t1.times)
    for name in "uvw":
        assert base.component(name).shape == t1.component(name).shape
        assert not np.any(base.component(name))
    # a second handle's base is not a run either
    second = oracle.handle().base()
    assert second is not t1 and second is not t2
    assert oracle.query_count == oracle.run_count == 2


def test_finished_recovery_holds_no_trajectories(line65, nondegenerate_params, monkeypatch):
    # the bank's handle keeps no run, and the bank goes when the recovery returns
    import archemo.recover as rc
    refs, solve = [], rc.solve_forward

    def recording(*args, **kwargs):
        traj = solve(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(rc, "solve_forward", recording)
    oracle = _oracle(line65, nondegenerate_params, dt=2e-3, t_final=0.1)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    gc.collect()
    # three eps runs for each of the three distinct families; the base run is known
    assert report.oracle_runs == oracle.run_count == len(refs) == 9
    assert all(ref() is None for ref in refs)
    assert all(ref() is None for ref in refs)


# -- stage round trips -----------------------------------------------------------

def test_recover_r_via_oracle(line129, nondegenerate_params):
    oracle = _oracle(line129, nondegenerate_params, dt=5e-4, t_final=1.0)
    rec = recover_r(oracle, options=PipelineOptions(recover_fields=False))
    assert abs(rec.estimates["r"] - 0.5) / 0.5 <= 1e-3
    assert rec.residuals["cgo_residual"] <= 0.1


def test_linear_kinetics_via_oracle(line129, nondegenerate_params):
    oracle = _oracle(line129, nondegenerate_params, dt=5e-4, t_final=1.0)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    rec = recover_linear_kinetics(oracle, options=opts, bank=bank)
    assert rec.estimates["alpha"] == pytest.approx(1.0, rel=0.01)
    assert rec.estimates["beta"] == pytest.approx(1.0, rel=0.01)
    assert rec.estimates["gamma"] == pytest.approx(0.8, rel=0.01)
    assert rec.estimates["delta"] == pytest.approx(1.6, rel=0.01)


def test_linear_kinetics_probe_too_weak(line65, applied_params, monkeypatch):
    import archemo.recover as rc
    oracle = _oracle(line65, applied_params, t_final=0.2)
    opts = PipelineOptions(recover_fields=True)
    bank = ExperimentBank(oracle)
    # f1 = 0 leaves no density variation to divide by
    dead = {"lin": Experiment("dead", PerturbationFamily(epsilons=opts.epsilons))}
    monkeypatch.setattr(rc, "_default_lin_experiment", lambda *args: dead)
    with pytest.raises(RecoveryError, match="probe too weak"):
        recover_linear_kinetics(oracle, options=opts, bank=bank)


def test_linear_kinetics_tau1_against_a_time_refined_oracle(line65, nondegenerate_params):
    # the oracle integrates at dt/4 and stores every fourth step, so stage 2 reads
    # slices on its own times from a finer scheme than the one it inverts.  The balance
    # regression reads beta +8.0 % and delta -0.13 % here; modal rates of a source-free
    # chemical probe, inverted through the chemical step, read +38.7 % and +24.1 %
    from dataclasses import replace
    from archemo.forward import solve_forward
    from archemo.variation import ForwardHandle
    kin = make_kinetics(nondegenerate_params)
    cfg = SolverConfig(tau=1, dt=2e-3, t_final=0.4)
    fine = replace(cfg, dt=cfg.dt / 4, store_every=4)

    class TimeRefinedOracle(Oracle):
        def handle(self):
            def run(f, gg, h, store=None):
                self.run_count += 1
                traj = solve_forward(self.domain, (f, gg, h), nondegenerate_params, kin, fine)
                return replay(traj, store)
            return ForwardHandle.of_solver(self.domain, self.equilibrium, run, self.cfg)

    oracle = TimeRefinedOracle(line65, nondegenerate_params, kin, cfg)
    rec = recover_linear_kinetics(oracle, options=PipelineOptions(recover_fields=False))
    assert rec.estimates["beta"] == pytest.approx(nondegenerate_params.beta, rel=0.10)
    assert rec.estimates["delta"] == pytest.approx(nondegenerate_params.delta, rel=0.01)


def test_alpha_field_recovery_2d(square33):
    X, _ = square33.meshgrid()
    alpha_field = 1.0 + 0.3 * np.cos(math.pi * X)
    truth = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=alpha_field,
                         beta=1.0, gamma=1.0, delta=1.0)
    oracle = _oracle(square33, truth, dt=1e-3, t_final=0.4, store_every=4)
    opts = PipelineOptions(recover_fields=True)
    bank = ExperimentBank(oracle)
    rec = recover_linear_kinetics(oracle, options=opts, bank=bank)
    rel = norm_l2(square33, rec.estimates["alpha"] - alpha_field) / norm_l2(square33, alpha_field)
    assert rel <= 0.03
    assert rec.residuals["alpha_projection_misfit"] <= 0.01


def test_general_fit_on_zero_advection_truth(line129):
    # chi = xi = 0 truth: the three-unknown fit returns mu and near-zero sensitivities
    truth = ParameterSet(chi=0.0, xi=0.0, r=0.5, mu=1.0, beta=1.0, delta=1.6, gamma=0.8)
    oracle = _oracle(line129, truth, dt=5e-4, t_final=1.0)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    rec = recover_chi_xi_mu(oracle, r, options=opts, bank=bank)
    assert rec.status == "ok"
    assert abs(rec.estimates["mu"] - 1.0) <= 0.02
    assert abs(rec.estimates["chi"]) <= 0.01 and abs(rec.estimates["xi"]) <= 0.01


def test_chi_xi_mu_builds_patterned_regressors_once_per_pass(line65, nondegenerate_params,
                                                            monkeypatch):
    # two frozen-pattern regressors per step for the second least-squares pass,
    # and two more for the probe identities, shared by every probe; the steps
    # arrive in blocks, so the slices handed over are counted, not the calls
    import archemo.grid as grid_mod
    import archemo.recover as rc
    oracle = _oracle(line65, nondegenerate_params, dt=2e-3, t_final=0.1)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r_hat = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    slices, divergence = [], grid_mod.Drift.divergence

    def counting(self, u, patterns=None):
        if patterns is not None:
            slices.append(u.shape[0])
        return divergence(self, u, patterns)

    monkeypatch.setattr(grid_mod.Drift, "divergence", counting)
    rec = recover_chi_xi_mu(oracle, r_hat, options=opts, bank=bank)
    assert rc.PATTERN_PASSES == 2 and len(rc.PROBE_ZETA_MULTIPLIERS) == 4
    n_res = sum(len(bank.stack(exp).order2.times) - 1
                for exp in rc._default_chi_experiments(line65, opts))
    assert sum(slices) == 4 * n_res
    assert rec.residuals["probe_identity"] >= 0


@pytest.mark.parametrize("t_final", [0.1, 0.3], ids=["one-block", "three-blocks"])
def test_chi_xi_mu_builds_one_drift_per_block_per_pass(line65, nondegenerate_params,
                                                      monkeypatch, t_final):
    # every pass over the regressors, the PATTERN_PASSES fits and the probe identities,
    # builds one Drift for each block of REGRESSOR_BLOCK steps of each experiment, shaped
    # as the block; the experiments are extracted first, so no forward step is counted
    import archemo.grid as grid_mod
    import archemo.recover as rc
    oracle = _oracle(line65, nondegenerate_params, dt=2e-3, t_final=t_final)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r_hat = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    blocks = []
    for exp in rc._default_chi_experiments(line65, opts):
        n_res = len(bank.stack(exp).order2.times) - 1
        blocks += [(min(rc.REGRESSOR_BLOCK, n_res - start),) + line65.shape
                   for start in range(0, n_res, rc.REGRESSOR_BLOCK)]
    assert len(blocks) == 3 * (1 if t_final == 0.1 else 3)
    shapes = []

    class CountingDrift(grid_mod.Drift):
        def __init__(self, domain, shape):
            shapes.append(shape)
            super().__init__(domain, shape)

    monkeypatch.setattr(grid_mod, "Drift", CountingDrift)
    recover_chi_xi_mu(oracle, r_hat, options=opts, bank=bank)
    assert shapes == blocks * (rc.PATTERN_PASSES + 1)


def _reference_chi_xi_mu(oracle, r, bank, exps):
    """Stage 3's fit with its regressors built, and every sum taken, one time step
    at a time.

    Kept as the reference for the block-wise Gram products: returns (estimates of
    chi, xi, mu, the relative fit residual, the condition number, the
    probe-identity residual), with the probe integrals taken over the sampled
    space-time probes.
    """
    import archemo.probes as pr
    import archemo.recover as rc
    from archemo.forward import step_source
    from archemo.grid import advective_flux_div, advective_flux_div_patterned
    domain, dt = oracle.domain, oracle.cfg.dt
    data = []
    for exp in exps:
        stack = bank.stack(exp)
        o1, o2 = stack.order1, stack.order2
        data.append((o1, step_source(domain, o2.u, dt) - r * o2.u[:-1]))

    def regressor_slices(o1, n, guess):
        if guess is None:
            s_chi = -2.0 * advective_flux_div(domain, o1.u[n], o1.v[n])
            s_xi = 2.0 * advective_flux_div(domain, o1.u[n], o1.w[n])
        else:
            pat = upwind_patterns(domain, guess[0] * o1.v[n] - guess[1] * o1.w[n])
            s_chi = -2.0 * advective_flux_div_patterned(domain, o1.u[n], o1.v[n], pat)
            s_xi = 2.0 * advective_flux_div_patterned(domain, o1.u[n], o1.w[n], pat)
        return s_chi, s_xi, -2.0 * o1.u[n] ** 2

    guess = None
    for _ in range(rc.PATTERN_PASSES):
        N, rv, btb = np.zeros((3, 3)), np.zeros(3), 0.0
        for o1, resid in data:
            for n in range(resid.shape[0]):
                R = np.stack([s.ravel() for s in regressor_slices(o1, n, guess)])
                Rw = R * (domain.weights.ravel() * dt)
                N += Rw @ R.T
                rv += Rw @ resid[n].ravel()
                btb += float(np.sum(domain.weights * resid[n] ** 2)) * dt
        scale = np.sqrt(np.diag(N))
        scale[scale == 0] = 1.0
        Ns = N / scale[:, None] / scale[None, :]
        eigvals = np.linalg.eigvalsh(Ns)
        cond = math.sqrt(abs(eigvals[-1] / eigvals[0])) if eigvals[0] > 0 else np.inf
        sol = np.linalg.solve(Ns, rv / scale) / scale
        guess = (float(sol[0]), float(sol[1]))
    worst = fit_ss = 0.0
    for o1, resid in data:
        n_res = resid.shape[0]
        gaps = np.empty_like(resid)
        for n in range(n_res):
            s_chi, s_xi, s_mu = regressor_slices(o1, n, guess)
            gaps[n] = resid[n] - sol[0] * s_chi - sol[1] * s_xi - sol[2] * s_mu
            fit_ss += float(np.sum(domain.weights * gaps[n] ** 2)) * dt
        for mult in rc.PROBE_ZETA_MULTIPLIERS:
            zeta = np.zeros(domain.dim)
            zeta[-1] = mult * math.pi / domain.lengths[-1]
            omega = pr.cgo_parabolic(zeta, r).sample(domain, o1.times[:n_res])
            num, den = 0.0 + 0.0j, 0.0
            for n in range(n_res):
                num += np.sum(domain.weights * gaps[n] * omega[n]) * dt
                den += float(np.sum(domain.weights * np.abs(resid[n]) * np.abs(omega[n]))) * dt
            worst = max(worst, abs(num) / (den or 1.0))
    return [float(x) for x in sol], math.sqrt(fit_ss / btb), cond, worst


@pytest.mark.parametrize("t_final", [0.1, 0.3], ids=["one-short-block", "partial-last-block"])
def test_chi_xi_mu_blocks_match_per_step_reference(line65, nondegenerate_params, t_final):
    # 50 steps fit in one block of 64; 150 steps leave a last block of 22.  The
    # Gram products and the separable probe integrals sum in another order than
    # the reference, so they agree to rounding: 1.2e-10 relative at most on chi
    # and xi, 8.1e-12 on cond and 1.3e-9 on the probe identity
    import archemo.recover as rc
    oracle = _oracle(line65, nondegenerate_params, dt=2e-3, t_final=t_final)
    n_res = int(round(t_final / 2e-3))
    assert (n_res < rc.REGRESSOR_BLOCK) == (t_final == 0.1)
    assert n_res % rc.REGRESSOR_BLOCK != 0
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r_hat = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    rec = recover_chi_xi_mu(oracle, r_hat, options=opts, bank=bank)
    exps = rc._default_chi_experiments(line65, opts)
    sol, fit, cond, probe = _reference_chi_xi_mu(oracle, r_hat, bank, exps)
    assert rec.status == "ok"
    est = [rec.estimates[k] for k in ("chi", "xi", "mu")]
    for got, want in zip(est, sol):
        assert abs(got - want) <= 1e-9 * abs(want)
    assert rec.estimates["chi_minus_xi"] == est[0] - est[1]
    assert list(rec.residuals) == ["fit", "probe_identity"]
    # both sides sum the weighted squared gap of the final estimate, with no
    # cancellation: fit agrees to 8.5e-13 relative here (4.0e-4 when both formed
    # fit^2 as btb - 2 sol.rv + sol.N.sol, whose rounding floor is about eps * btb)
    assert abs(rec.residuals["fit"] ** 2 - fit ** 2) <= 1e-13
    assert abs(rec.residuals["probe_identity"] - probe) <= 1e-7 * probe
    assert list(rec.conditioning) == ["system"]
    assert abs(rec.conditioning["system"] - cond) <= 1e-10 * cond


def test_chi_xi_mu_permutation_invariance(line65, nondegenerate_params, monkeypatch):
    import archemo.recover as rc
    oracle = _oracle(line65, nondegenerate_params, dt=1e-3, t_final=0.5)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    rec1 = recover_chi_xi_mu(oracle, r, options=opts, bank=bank)
    exps = rc._default_chi_experiments(line65, opts, oracle.tau)
    monkeypatch.setattr(rc, "_default_chi_experiments", lambda *args: list(reversed(exps)))
    rec2 = recover_chi_xi_mu(oracle, r, options=opts, bank=bank)
    assert rec2.experiments == ["second-2", "second-1", "second-0"]
    for key in ("chi", "xi", "mu"):
        assert abs(rec1.estimates[key] - rec2.estimates[key]) <= 1e-10


def test_full_pipeline_nondegenerate_all_eight(line129, nondegenerate_params):
    # beta != delta separates the two advective channels, so all eight
    # parameters are jointly identifiable from the tau=0 oracle
    oracle = _oracle(line129, nondegenerate_params, dt=5e-4, t_final=1.0)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    assert report.complete
    truth = nondegenerate_params.as_dict()
    for key in ("chi", "xi", "r", "mu", "alpha", "beta", "gamma", "delta"):
        rel = abs(report.estimates[key] - truth[key]) / abs(truth[key])
        assert rel <= 0.05, (key, rel)
    assert report.conditioning["chi_xi_mu.system"] < 1e6


def test_pipeline_partial_report_on_failure(line65, applied_params):
    # an unusable time horizon breaks the rate fit; the pipeline must return
    # a partial report naming the failed stage
    oracle = _oracle(line65, applied_params, dt=1e-3, t_final=0.004)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    assert not report.complete
    assert report.stages[0].status == "failed"
    assert report.stages[0].name == "r"


def test_degenerate_truth_flags_combination(line65, applied_params):
    # alpha = gamma, beta = delta makes v and w coincide for tau=0: only the
    # combination chi - xi is identifiable, and the stage must say so
    oracle = _oracle(line65, applied_params, dt=1e-3, t_final=0.6)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    stage = report.stage("chi_xi_mu")
    assert stage.status == "degenerate"
    combo = report.estimates["chi_minus_xi"]
    assert abs(combo - 0.05) / 0.05 <= 0.05
    # remaining parameters unaffected by the degeneracy
    for key, val in (("r", 0.5), ("mu", 1.0), ("alpha", 1.0), ("beta", 1.0)):
        assert abs(report.estimates[key] - val) / val <= 0.02


def test_second_kinetics_constant(line129, applied_params):
    oracle = _oracle(line129, applied_params, dt=5e-4, t_final=1.0, so_g={(2, 0): 0.2})
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    lin = recover_linear_kinetics(oracle, options=opts, bank=bank)
    rec = recover_second_kinetics(oracle, lin, options=opts, bank=bank)
    assert abs(rec.estimates["a20"] - 0.2) / 0.2 <= 0.02
    for label in ("a11", "a02", "b11", "b20", "b02"):
        floor = rec.residuals[f"{label}_noise_floor"]
        assert abs(rec.estimates[label]) <= max(floor, 1e-6)
        assert floor <= 0.02


def test_second_kinetics_separable_2d(square65):
    transverse = np.cos(math.pi * square65.axes[0])
    axial = (1.0 + square65.axes[1]) / 4.0
    a02 = SeparableField(transverse=transverse, axial=axial)
    truth = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0)
    oracle = _oracle(square65, truth, dt=1e-3, t_final=0.5, store_every=4,
                     so_g={(0, 2): a02})
    gamma0 = a02.axial_integral(square65)
    opts = PipelineOptions(recover_fields=False, declared_separable={"a02": gamma0})
    bank = ExperimentBank(oracle)
    lin = recover_linear_kinetics(oracle, options=opts, bank=bank)
    rec = recover_second_kinetics(oracle, lin, options=opts, bank=bank)
    est = rec.estimates["a02"]
    w1 = np.full(65, square65.spacing[0])
    w1[0] = w1[-1] = square65.spacing[0] / 2
    rel_t = math.sqrt(np.sum(w1 * (est.transverse - transverse) ** 2) / np.sum(w1 * transverse ** 2))
    rel_a = math.sqrt(np.sum(w1 * (est.axial - axial) ** 2) / np.sum(w1 * axial ** 2))
    assert rel_t <= 0.05
    assert rel_a <= 0.05
    assert est.misfit <= 0.05


# -- stages 2 and 4 against their per-tau forms -----------------------------------


def _floor(u1):
    # the masking floor of the stage-2 balance regression
    import archemo.recover as rc
    return rc.U_FLOOR_REL * (float(np.max(np.abs(u1))) or 1.0)


def _reference_linear_kinetics(oracle, bank, exps, want_fields):
    """Stage 2 as one whole-time joint regression per chemical: the balance written out
    per tau, each Gram entry of (balance, u1, chemical) one np.sum over axis 0 under the
    masked trapezoid weights, then the source eliminated per node and the decay pooled
    over the nodes, in the stage's expression order."""
    import archemo.recover as rc
    from archemo.forward import step_source
    from archemo.grid import laplacian_neumann, time_weights
    domain, cfg = oracle.domain, oracle.cfg
    o1 = bank.stack(exps["lin"]).order1
    n = len(o1.u) - oracle.tau
    u, w = o1.u[:n], domain.weights
    wts = (time_weights(o1.times[:n]).reshape((-1,) + (1,) * domain.dim)
           * (np.abs(u) >= _floor(o1.u)))
    estimates, residuals, conditioning = {}, {}, {}
    for comp, src_name, decay_name in (("v", "alpha", "beta"), ("w", "gamma", "delta")):
        chem = o1.component(comp)
        if oracle.tau == 0:
            balance = -laplacian_neumann(domain, chem)
        else:
            balance = step_source(domain, chem, cfg.relaxation_speedup * cfg.dt)
        c = chem[:n]
        g01, g02, g11, g12, g22 = (np.sum(wts * a * b, axis=0) for a, b in (
            (balance, u), (balance, c), (u, u), (u, c), (c, c)))
        c_left = float(np.sum(w * (g22 - g12 ** 2 / g11)))
        decay = -float(np.sum(w * (g02 - g01 * g12 / g11))) / c_left
        fld = (g01 + decay * g12) / g11
        if want_fields:
            proj = rc._project_axial_independent(domain, fld)
            residuals[f"{src_name}_projection_misfit"] = (
                norm_l2(domain, fld - proj) / (norm_l2(domain, fld) or 1.0))
            estimates[src_name] = proj
        else:
            estimates[src_name] = float(np.sum(w / w.sum() * fld))
            residuals[f"{src_name}_spatial_spread"] = float(np.max(fld) - np.min(fld))
        estimates[decay_name] = decay
        conditioning[decay_name] = float(np.sum(w * g22)) / c_left
    return estimates, residuals, conditioning, {}


def _normal_contribution(domain, regs, rhs, wt):
    """Normal-equation pieces (N, r, btb, n_samples) for one experiment, summed
    pair by pair over the regressors."""
    shape = domain.shape
    N = np.zeros((3, 3) + shape)
    rvec = np.zeros((3,) + shape)
    wts = wt.reshape((-1,) + (1,) * len(shape))
    for i in range(3):
        rvec[i] = np.sum(wts * regs[i] * rhs, axis=0)
        for j in range(i, 3):
            N[i, j] = np.sum(wts * regs[i] * regs[j], axis=0)
    for i in range(3):
        for j in range(i):
            N[i, j] = N[j, i]
    btb = np.sum(wts * rhs * rhs, axis=0)
    return N, rvec, btb, rhs.shape[0]


def _reference_contribution(oracle, bank, exp, comp, a10_grid, decay):
    """One experiment's stage-4 normal-equation pieces, with the chemical balance
    written out per tau."""
    from archemo.forward import step_source
    from archemo.grid import laplacian_neumann, time_weights
    domain, cfg = oracle.domain, oracle.cfg
    stack = bank.stack(exp)
    o1, o2 = stack.order1, stack.order2
    chem1, chem2 = o1.component(comp), o2.component(comp)
    if oracle.tau == 0:
        rhs = -laplacian_neumann(domain, chem2) + decay * chem2 - a10_grid * o2.u
        regs = np.stack([o1.u * chem1, 2.0 * o1.u ** 2, 2.0 * chem1 ** 2])
        wt = time_weights(o2.times)
    else:
        rhs = (step_source(domain, chem2, cfg.relaxation_speedup * cfg.dt)
               + decay * chem2[:-1] - a10_grid * o2.u[:-1])
        regs = np.stack([o1.u[:-1] * chem1[:-1], 2.0 * o1.u[:-1] ** 2, 2.0 * chem1[:-1] ** 2])
        wt = time_weights(o2.times[:-1])
    return _normal_contribution(domain, regs, rhs, wt)


def _assert_same_entries(got, ref):
    assert list(got) == list(ref)
    for key, val in ref.items():
        assert np.array_equal(got[key], val), key


@pytest.mark.parametrize("fields", [False, True], ids=["constants", "fields"])
@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_stages_2_and_4_match_per_tau_reference(dim, tau, fields, nondegenerate_params,
                                                monkeypatch):
    import archemo.recover as rc
    from archemo.forward import coefficient_on_grid
    domain = Domain(1.0, 65) if dim == 1 else Domain((1.0, 1.0), (17, 17))
    oracle = _oracle(domain, nondegenerate_params, tau=tau, dt=1e-3, t_final=0.3,
                     relaxation_speedup=1.5 if tau else 1.0, so_g={(2, 0): 0.2})
    opts = PipelineOptions(recover_fields=fields)
    bank = ExperimentBank(oracle)
    lin_exps = rc._default_lin_experiment(domain, opts, tau)
    lin = recover_linear_kinetics(oracle, options=opts, bank=bank)
    ref = _reference_linear_kinetics(oracle, bank, lin_exps, fields)
    for got, want in zip((lin.estimates, lin.residuals, lin.conditioning, lin.details), ref):
        _assert_same_entries(got, want)
    assert lin.experiments == ["lin"]

    grams, batched = [], rc._batched_lsq_3

    def recording(domain, per_exp):
        grams.extend(per_exp)
        return batched(domain, per_exp)

    monkeypatch.setattr(rc, "_batched_lsq_3", recording)
    rec = recover_second_kinetics(oracle, lin, options=opts, bank=bank)
    monkeypatch.undo()
    exps = ([lin_exps["chem"]] if tau else []) + rc._default_chi_experiments(domain, opts, tau)
    assert rec.experiments == [e.name for e in exps]
    expected = [_reference_contribution(oracle, bank, exp, comp,
                                        coefficient_on_grid(lin.estimates[src], domain),
                                        lin.estimates[decay])
                for comp, src, decay in (("v", "alpha", "beta"), ("w", "gamma", "delta"))
                for exp in exps]
    assert len(grams) == len(expected)
    # each Gram holds N, rv and btb as blocks
    for (gram, n), (N, rv, btb, n_ref) in zip(grams, expected):
        assert n == n_ref
        for got, want in ((gram[:, :3, :3], np.moveaxis(N.reshape(3, 3, -1), -1, 0)),
                          (gram[:, :3, 3], rv.reshape(3, -1).T),
                          (gram[:, 3, 3], btb.ravel())):
            assert np.array_equal(got, want)


# the truth of the cached benchmark banks
_BANK_TRUTH = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0,
                           alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)


@pytest.fixture(scope="module")
def cached_bank_129():
    # the tau=0 benchmark recovery (129 nodes, 2 001 stored slices) with every
    # family extracted, and the estimates stages 3 and 4 start from
    oracle = _oracle(Domain(1.0, 129), _BANK_TRUTH, dt=5e-4, t_final=1.0)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    r_hat = recover_r(oracle, options=opts, bank=bank).estimates["r"]
    lin = recover_linear_kinetics(oracle, options=opts, bank=bank)
    recover_chi_xi_mu(oracle, r_hat, options=opts, bank=bank)
    return oracle, opts, bank, r_hat, lin


@pytest.fixture(scope="module")
def cached_bank_tau1_129():
    # the tau=1 benchmark recovery's bank as stage 2 finds it: the chi family that is
    # also lin (second-2), its stack whole
    import archemo.recover as rc
    oracle = _oracle(Domain(1.0, 129), _BANK_TRUTH, tau=1, dt=5e-4, t_final=1.0)
    opts = PipelineOptions(recover_fields=False)
    bank = ExperimentBank(oracle)
    bank.stack(rc._default_chi_experiments(oracle.domain, opts, 1)[2])
    return oracle, opts, bank


@pytest.mark.parametrize("stage, bound", [("r", 1.2), ("chi_xi_mu", 0.6),
                                          ("second_kinetics", 0.6),
                                          ("linear_kinetics", 0.4),
                                          ("linear_kinetics_tau1", 0.4)],
                         ids=["r", "chi_xi_mu", "second_kinetics", "linear_kinetics",
                              "linear_kinetics_tau1"])
def test_stage_peak_memory_on_a_cached_bank(request, stage, bound):
    # the traced peak of one stage call above the cached stacks, in trajectory
    # components: the probe integrals contract each slice against one weighted field,
    # and the regressions reduce to Gram matrices summed over blocks of slices, each
    # block let go before the next is formed, so no stage holds more than a few
    # components (1.08, 0.54, 0.49, 0.28 and 0.28 measured: |u1| for the probe
    # integral's scale, and one block of rows for the rest; 0.78, 0.50 and 0.50 with
    # the previous block's rows kept while the next was formed, 1.05 and 1.03 for
    # stage 2 with modal ratios or rates beside its source regression, 1.70 for stage 4
    # with a whole-length rhs and its rows by blocks of nodes, 4.1 for the tau=1 stage 2
    # with full-length source regression temporaries, 9.1 for stage 1 with (T, *grid)
    # probe products, 4.3 for stage 4 with its four full-length rows, 6.1 with
    # full-length balance temporaries too, 5.0 for stage 3 while it kept each
    # experiment's residual series, 8.2 and 8.1 with per-step probe arrays and
    # pairwise normal pieces)
    if stage == "linear_kinetics_tau1":
        oracle, opts, bank = request.getfixturevalue("cached_bank_tau1_129")
        run = lambda: recover_linear_kinetics(oracle, options=opts, bank=bank)
    else:
        oracle, opts, bank, r_hat, lin = request.getfixturevalue("cached_bank_129")
        run = {"r": lambda: recover_r(oracle, options=opts, bank=bank),
               "linear_kinetics": lambda: recover_linear_kinetics(oracle, options=opts,
                                                                  bank=bank),
               "chi_xi_mu": lambda: recover_chi_xi_mu(oracle, r_hat, options=opts, bank=bank),
               "second_kinetics": lambda: recover_second_kinetics(oracle, lin, options=opts,
                                                                  bank=bank)}[stage]
    runs = oracle.run_count
    _, peak = traced_peak(run, component_bytes(oracle.domain, oracle.cfg))
    assert oracle.run_count == runs       # every stage reads cached stacks
    assert peak <= bound


def _pipeline_oracle(config, params):
    if config == "sep33":
        domain = Domain((1.0, 1.0), (33, 33))
        a02 = SeparableField(transverse=np.cos(math.pi * domain.axes[0]),
                             axial=(1.0 + domain.axes[1]) / 4.0)
        oracle = _oracle(domain, params, dt=1e-3, t_final=0.2, store_every=4,
                         so_g={(0, 2): a02})
        return oracle, PipelineOptions(recover_fields=False,
                                       declared_separable={"a02": a02.axial_integral(domain)})
    oracle = _oracle(Domain(1.0, 65), params, tau=int(config[-1]), dt=2e-3, t_final=0.2)
    return oracle, PipelineOptions(recover_fields=False)


@pytest.mark.parametrize("config, families, bound", [
    ("sep33", 3, 13.0),     # 33^2, tau=0, stride 4, separable a02: stage 3 skipped
    ("tau1", 4, 24.0),
    ("tau0", 3, 23.5),
], ids=["sep33", "tau1", "tau0"])
def test_pipeline_peak_memory(config, families, bound, nondegenerate_params, monkeypatch):
    # the traced peak of one recovery, in trajectory components: the base run is
    # known, the bank keeps of each family only what its later reads use, an
    # extraction holds 7 components and one block of the run it solves, and stage 4
    # forms its rows by blocks of slices (10.3, 23.4 and 23.0 measured, the last two
    # set by stage 4 reading the last chi family while the bank keeps 4 components of
    # each of the other two, its rows one block of all 101 slices here; 11.6 with
    # stage 2's modal ratios beside its source regression; 12.2, 23.3 and
    # 22.9 with a whole-length stage-4 rhs and its rows by blocks of nodes, 24.4 and
    # 24.0 with each weighted row kept while the next is formed; 33.8 and 27.5 with
    # stage 3 first, its blocks over three
    # whole stacks; 13.4 with 11-component extractions and four full-length stage-4
    # rows, 16.8, 34.1 and 27.9 with 15-component extractions and full-length stage-4
    # temporaries, 30.9, 42.8 and 30.6 with a solved base run and every stack held to
    # the end)
    import archemo.recover as rc
    banks, calls, extract = [], [], rc.extract_variation_fd

    class RecordingBank(rc.ExperimentBank):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            banks.append(self)

    def counting(handle, fam, **kw):
        calls.append(fam)
        return extract(handle, fam, **kw)

    monkeypatch.setattr(rc, "ExperimentBank", RecordingBank)
    monkeypatch.setattr(rc, "extract_variation_fd", counting)
    oracle, opts = _pipeline_oracle(config, nondegenerate_params)
    component = component_bytes(oracle.domain, oracle.cfg)
    report, peak = traced_peak(lambda: run_full_pipeline(oracle, opts), component)
    assert report.complete
    assert peak <= bound
    # stage 4 reads cached families first, and the report still lists stage order
    chi = ["second-0", "second-1", "second-2"]
    assert report.experiments_used == ["lin"] + (["chem"] if config == "tau1" else []) + chi
    # every stack is gone after its last read, and each family was extracted once
    (bank,) = banks
    assert not bank._stacks
    keys = {bank._family_key(fam) for fam in calls}
    assert len(calls) == len(keys) == families
    assert report.oracle_runs == len(opts.epsilons) * families


@pytest.mark.parametrize("tau", [0, 1])
def test_pipeline_keeps_what_stage_3_reads(tau, nondegenerate_params, monkeypatch):
    # stage 4 reads each chi family first; the bank then keeps its order 1 and
    # order2.u, drops the chem stack, and a dropped component raises when read
    import archemo.recover as rc
    extracted, refs, at_stage_3 = [], [], []
    extract, chi_xi_mu = rc.extract_variation_fd, rc.recover_chi_xi_mu

    def recording(handle, fam, **kw):
        stack = extract(handle, fam, **kw)
        extracted.append(fam)
        refs.append({f"{order}.{name}": weakref.ref(getattr(stack, order).component(name))
                     for order in ("order1", "order2") for name in "uvw"})
        return stack

    def stage_3(oracle, r, options=None, bank=None, **kw):
        gc.collect()
        at_stage_3.append([{part for part, ref in parts.items() if ref() is not None}
                           for parts in refs])
        assert len(bank._stacks) == 3
        for stack in bank._stacks.values():
            for read in (lambda: stack.order2.v, lambda: stack.order2.component("w"),
                         lambda: stack.order2.final):
                with pytest.raises(AttributeError):
                    read()
        return chi_xi_mu(oracle, r, options=options, bank=bank, **kw)

    monkeypatch.setattr(rc, "extract_variation_fd", recording)
    monkeypatch.setattr(rc, "recover_chi_xi_mu", stage_3)
    oracle, opts = _pipeline_oracle(f"tau{tau}", nondegenerate_params)
    report = run_full_pipeline(oracle, opts)
    assert report.complete and len(at_stage_3) == 1
    # each family is extracted exactly once: lin (which is second-2), chem and the other
    # chi families; while stage 3 runs only the chi families' order 1 and order2.u live
    bank = ExperimentBank(oracle)
    keys = [bank._family_key(fam) for fam in extracted]
    chi = [bank._family_key(exp.fam)
           for exp in rc._default_chi_experiments(oracle.domain, opts, tau)]
    assert len(keys) == len(set(keys)) == (3 if tau == 0 else 4)
    assert set(chi) <= set(keys)
    kept = {"order1.u", "order1.v", "order1.w", "order2.u"}
    assert at_stage_3[0] == [kept if key in chi else set() for key in keys]


def test_bank_keeps_only_what_later_reads_use(line65, nondegenerate_params):
    # a read returns the whole stack; the bank keeps the parts its later listed
    # reads name, shares their arrays, and drops the stack after the last read
    import archemo.recover as rc
    oracle = _oracle(line65, nondegenerate_params, dt=2e-3, t_final=0.1)
    exp = rc._default_chi_experiments(line65, PipelineOptions(), 0)[0]
    bank = ExperimentBank(oracle, [(exp, rc.STACK_PARTS), (exp, ("order1.u", "order2.w")),
                                   (exp, ("order1.u",))])
    whole = bank.stack(exp)
    for order in (whole.order1, whole.order2):
        assert all(order.component(name) is not None for name in "uvw")
    second = bank.stack(exp)
    assert second.order1.u is whole.order1.u and second.order2.w is whole.order2.w
    for read in (lambda: second.order1.v, lambda: second.order2.component("u"),
                 lambda: second.order1.final):
        with pytest.raises(AttributeError):
            read()
    third = bank.stack(exp)
    assert third.order1.u is whole.order1.u and third.order2.times is whole.order2.times
    with pytest.raises(AttributeError):
        third.order2.w
    assert not bank._stacks
    assert oracle.run_count == len(exp.fam.epsilons)


@pytest.mark.parametrize("tau", [0, 1])
def test_pipeline_run_order_changes_no_output(tau, nondegenerate_params):
    # stage 4 runs before stage 3 in the pipeline; each record equals what the stage
    # returns on a fresh bank, and the report keeps paper order
    oracle, opts = _pipeline_oracle(f"tau{tau}", nondegenerate_params)
    report = run_full_pipeline(oracle, opts)
    assert [s.name for s in report.stages] == ["r", "linear_kinetics", "chi_xi_mu",
                                               "second_kinetics"]
    chi = recover_chi_xi_mu(oracle, report.estimates["r"], options=opts,
                            bank=ExperimentBank(oracle))
    second = recover_second_kinetics(oracle, report.stage("linear_kinetics"), options=opts,
                                     bank=ExperimentBank(oracle))
    for got, fresh in ((report.stage("chi_xi_mu"), chi),
                       (report.stage("second_kinetics"), second)):
        assert got.estimates == fresh.estimates
        assert got.residuals == fresh.residuals
        assert got.conditioning == fresh.conditioning
        assert got.details == fresh.details
        assert got == fresh
    assert report.experiments_used == (["lin"] + (["chem"] if tau else [])
                                       + ["second-0", "second-1", "second-2"])


def test_report_order_survives_a_stage_4_failure(nondegenerate_params, monkeypatch):
    # stage 4 runs first and fails its separability check; stage 3 still runs, and the
    # report reads r, linear_kinetics, chi_xi_mu, then second_kinetics failed
    import archemo.probes as pr
    monkeypatch.setattr(pr, "separability_misfit", lambda *args, **kwargs: 1.0)
    domain = Domain((1.0, 1.0), (33, 33))
    a02 = SeparableField(transverse=np.cos(math.pi * domain.axes[0]),
                         axial=(1.0 + domain.axes[1]) / 4.0)
    oracle = _oracle(domain, nondegenerate_params, dt=1e-3, t_final=0.2, store_every=1,
                     so_g={(0, 2): a02})
    opts = PipelineOptions(recover_fields=False,
                           declared_separable={"a02": a02.axial_integral(domain)})
    report = run_full_pipeline(oracle, opts)
    assert [(s.name, s.status) for s in report.stages] == [
        ("r", "ok"), ("linear_kinetics", "ok"), ("chi_xi_mu", "ok"),
        ("second_kinetics", "failed")]
    assert report.notes == ["stage second_kinetics failed: coefficient a02 declared "
                            "separable but factorization misfit is 100.0%"]
    assert {"chi", "xi", "mu", "chi_minus_xi"} <= set(report.estimates)
    assert not any(label in report.estimates for label in ("a11", "a20", "a02"))
    assert report.oracle_runs == 9


def test_stride_guard_for_step_inversions(square33, applied_params):
    # per-step inversions need consecutive stored slices; with a coarser
    # stride the pipeline skips those stages and says why
    oracle = _oracle(square33, applied_params, dt=1e-3, t_final=0.2, store_every=4)
    opts = PipelineOptions(recover_fields=True)
    with pytest.raises(RecoveryError):
        bank = ExperimentBank(oracle)
        r = recover_r(oracle, options=opts, bank=bank).estimates["r"]
        recover_chi_xi_mu(oracle, r, options=opts, bank=bank)
    report = run_full_pipeline(oracle, opts)
    assert report.complete
    assert report.stage("chi_xi_mu").status == "skipped"
    assert "stride-1" in report.stage("chi_xi_mu").reason
    assert report.stage("second_kinetics").status == "ok"   # elliptic residual, no stepping


def test_monotone_refinement(nondegenerate_params):
    # halving h and dt must not degrade any stage estimate by more than 10%
    errs = {}
    for n, dt in ((65, 1e-3), (129, 5e-4)):
        oracle = _oracle(Domain(1.0, n), nondegenerate_params, dt=dt, t_final=0.6)
        report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
        truth = nondegenerate_params.as_dict()
        errs[n] = {k: abs(report.estimates[k] - truth[k]) / abs(truth[k])
                   for k in ("chi", "xi", "r", "mu", "alpha", "beta", "gamma", "delta")}
    floor = 1e-6
    for key in errs[65]:
        assert errs[129][key] <= 1.1 * max(errs[65][key], floor) + floor, key


def test_identifiability_contrapositive(line65, nondegenerate_params):
    # estimates from oracle(B1) land near B1; any declared B2 close to the
    # estimate must also be close to B1 in measurement space
    from archemo.forward import measure, solve_forward
    from archemo.harness import measurement_distance, parameter_distance
    oracle = _oracle(line65, nondegenerate_params, dt=1e-3, t_final=0.6)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    b_hat = report.parameter_set()
    assert parameter_distance(b_hat, nondegenerate_params, line65) <= 0.05
    rng = np.random.default_rng(11)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.6, store_every=5)
    kin1 = make_kinetics(nondegenerate_params)
    m1 = measure(solve_forward(line65, (f, f, f), nondegenerate_params, kin1, cfg))
    for _ in range(3):
        bump = 1.0 + 0.02 * rng.standard_normal()
        b2 = ParameterSet(**{**b_hat.as_dict(), "r": b_hat.r * bump})
        m2 = measure(solve_forward(line65, (f, f, f), b2, make_kinetics(b2), cfg))
        pdist = parameter_distance(nondegenerate_params, b2, line65)
        mdist = measurement_distance(m1, m2)
        # sensitivity bound: measurement gaps are controlled by parameter gaps
        assert mdist <= 20.0 * pdist + 1e-3


def test_reproduction_self_consistency(line65, nondegenerate_params):
    # an oracle rebuilt from the recovered parameters reproduces the original
    # measurements within a small multiple of the solver tolerance
    from archemo.forward import measure, solve_forward
    from archemo.harness import measure_match_tol, measurement_distance
    oracle = _oracle(line65, nondegenerate_params, dt=1e-3, t_final=0.6)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    b_hat = report.parameter_set()
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.6, store_every=5)
    m_true = measure(solve_forward(line65, (f, f, f), nondegenerate_params,
                                   make_kinetics(nondegenerate_params), cfg))
    m_hat = measure(solve_forward(line65, (f, f, f), b_hat, make_kinetics(b_hat), cfg))
    tol = measure_match_tol(line65, nondegenerate_params, (f, f, f), cfg)
    assert measurement_distance(m_true, m_hat) <= 10 * tol


def test_bank_shares_one_stack_per_probing_family(line65, nondegenerate_params, monkeypatch):
    # at either tau "lin" is the chi family "second-2", its chemical data included
    import archemo.recover as rc
    calls, extract = [], rc.extract_variation_fd

    def counting(handle, fam, **kw):
        calls.append(fam)
        return extract(handle, fam, **kw)

    monkeypatch.setattr(rc, "extract_variation_fd", counting)
    opts = PipelineOptions()
    for tau in (0, 1):
        calls.clear()
        oracle = _oracle(line65, nondegenerate_params, tau=tau, t_final=0.2)
        bank = ExperimentBank(oracle)
        lin = rc._default_lin_experiment(line65, opts, tau)["lin"]
        second2 = rc._default_chi_experiments(line65, opts, tau)[2]
        assert second2.name == "second-2"
        assert (lin.fam.g1 is not None) == (tau == 1)
        both = bank.stack(second2)
        assert bank.stack(lin) is both
        assert len(calls) == 1
        assert bank.used == ["second-2", "lin"]


def test_lin_probe_needs_a_chi_pattern_of_its_modes(line65, nondegenerate_params, monkeypatch):
    # stages 1-2 probe with the chi family whose modes are MODE_INDICES; without one
    # the pipeline stops before its first query
    import archemo.recover as rc
    monkeypatch.setattr(rc, "CHI_MODE_PATTERNS", ((1,), (2,), (2, 1)))
    oracle = _oracle(line65, nondegenerate_params, t_final=0.1)
    with pytest.raises(ValueError, match="MODE_INDICES"):
        run_full_pipeline(oracle)
    assert oracle.run_count == 0


@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_first_order_density_ignores_chemical_data(dim, tau, nondegenerate_params):
    # why lin may carry chemical data: at the trivial equilibrium the first-order
    # density solves du1/dt = Lap u1 + r u1 whatever g1 and h1
    from dataclasses import replace
    import archemo.recover as rc
    from archemo.variation import solve_variations
    domain = Domain(1.0, 65) if dim == 1 else Domain((1.0, 1.0), (17, 17))
    kin = make_kinetics(nondegenerate_params, second_order_g={(2, 0): 0.2})
    cfg = SolverConfig(tau=tau, dt=1e-3, t_final=0.1)
    fam = rc._default_lin_experiment(domain, PipelineOptions(), tau)["lin"].fam
    chem = rc.axial_mode_profile(domain, 1.0, [(1, 0.9)])
    stacks = [solve_variations(domain, nondegenerate_params, kin,
                               replace(fam, g1=g1, h1=h1), cfg).order1
              for g1, h1 in ((None, None), (chem, None), (None, chem), (chem, 2.0 * chem))]
    for stack in stacks[1:]:
        assert np.array_equal(stack.u, stacks[0].u)
        # at tau=1 the chemical data does reach the chemicals
        same = all(np.array_equal(getattr(stack, c), getattr(stacks[0], c)) for c in "vw")
        assert same == (tau == 0)


def test_bank_builds_each_order1_tableau_once(line65, nondegenerate_params, monkeypatch):
    # tau = 0: "lin" shares its family with "second-2", so the three families of
    # stages 1-3 are extracted three times, each to both orders
    import archemo.recover as rc
    calls, extract = [], rc.extract_variation_fd

    def counting(handle, fam, **kw):
        calls.append(fam)
        return extract(handle, fam, **kw)

    monkeypatch.setattr(rc, "extract_variation_fd", counting)
    oracle = _oracle(line65, nondegenerate_params, t_final=0.2)
    opts = PipelineOptions()
    bank = ExperimentBank(oracle)
    lin_exp = rc._default_lin_experiment(line65, opts, 0)["lin"]
    lin = bank.stack(lin_exp)
    chi_exps = rc._default_chi_experiments(line65, opts, 0)
    stacks = [bank.stack(exp) for exp in chi_exps]
    assert len(calls) == 3
    assert stacks[2] is lin
    # every bank stack is the family's full extraction, bitwise
    handle = oracle.handle()
    for exp, stack in zip([lin_exp] + chi_exps, [lin] + stacks):
        fresh = extract(handle, exp.fam)
        for order in ("order1", "order2"):
            for name in ("u", "v", "w"):
                assert np.array_equal(getattr(stack, order).component(name),
                                      getattr(fresh, order).component(name))
        assert stack.diagnostics == fresh.diagnostics


@pytest.mark.parametrize("tau", [0, 1])
def test_recovery_keeps_few_runs_alive(line65, nondegenerate_params, monkeypatch, tau):
    # only the current family's earlier ladder runs may be alive when the oracle
    # solves (the base run is known): each family's runs go once its stack is built
    import archemo.recover as rc
    refs, alive, solve = [], [], rc.solve_forward

    def recording(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        traj = solve(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(rc, "solve_forward", recording)
    oracle = _oracle(line65, nondegenerate_params, tau=tau, dt=2e-3, t_final=0.1)
    opts = PipelineOptions(recover_fields=False)
    report = run_full_pipeline(oracle, opts)
    assert report.oracle_runs == len(refs) == (9 if tau == 0 else 12)
    assert max(alive) <= len(opts.epsilons)


@pytest.mark.parametrize("tau", [0, 1])
def test_oracle_extractions_never_store_a_whole_run(line65, nondegenerate_params, monkeypatch,
                                                    tau):
    # an extraction on an oracle handle folds each run block by block as it is solved:
    # every store it passes to solve_forward is a SliceStore with a fold, which holds
    # FOLD_BLOCKS blocks, and each run returns only its last block; each run is still
    # one solve_forward call, 3 per family over 3 (tau=0) or 4 (tau=1) families (the
    # base run is known)
    import archemo.recover as rc
    runs, solve = [], rc.solve_forward

    def counting(*args, **kwargs):
        traj = solve(*args, **kwargs)
        runs.append((kwargs.get("store"), len(traj)))
        return traj

    monkeypatch.setattr(rc, "solve_forward", counting)
    oracle = _oracle(line65, nondegenerate_params, tau=tau, dt=2e-3, t_final=0.1)
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    assert report.complete
    assert report.oracle_runs == len(runs) == (9 if tau == 0 else 12)
    for store, length in runs:
        assert store.func is SliceStore and store.keywords["fold"] is not None
        # 51 stored slices in blocks of ceil(51 / 16) = 4, the last one of 3
        assert length == 3
