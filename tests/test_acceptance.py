"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is calibrated at run time.  Shared
expensive pipelines are session-scoped fixtures so the suite stays inside the
per-criterion runtime budgets, which are asserted alongside the numerics.
"""

import math
import time

import numpy as np
import pytest

from archemo.forward import (
    KineticsSpec,
    ParameterSet,
    SeparableField,
    SolverConfig,
    solve_forward,
    steady_state,
    StepPlan,
    step,
)
from archemo.grid import Domain, inner_product, laplacian_neumann, norm_l2
from archemo.harness import cli, identifiability_sweep
from archemo.probes import (
    cgo_elliptic,
    cgo_parabolic,
    moment_recover,
    separable_probe_set,
    transform_samples,
)
from archemo.recover import ExperimentBank, Oracle, PipelineOptions, run_full_pipeline
from archemo.variation import (
    ForwardHandle,
    PerturbationFamily,
    consistency_report,
    extract_variation_fd,
    solve_variations,
)

TRUTH = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0,
                     alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
EIGHT = ("chi", "xi", "r", "mu", "alpha", "beta", "gamma", "delta")


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.label} exceeded its runtime budget: "
                f"{self.elapsed:.1f}s >= {self.seconds}s")
        return False


def _report(label, detail):
    print(f"[{label}] PASS: {detail}")


@pytest.fixture(scope="session")
def pipeline_tau0():
    domain = Domain(1.0, 129)
    kin = KineticsSpec.from_parameters(TRUTH)
    cfg = SolverConfig(tau=0, dt=5e-4, t_final=1.0)
    oracle = Oracle(domain, TRUTH, kin, cfg)
    t0 = time.monotonic()
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    return domain, report, time.monotonic() - t0


@pytest.fixture(scope="session")
def pipeline_tau1():
    domain = Domain(1.0, 129)
    kin = KineticsSpec.from_parameters(TRUTH)
    cfg = SolverConfig(tau=1, dt=5e-4, t_final=1.0)
    oracle = Oracle(domain, TRUTH, kin, cfg)
    t0 = time.monotonic()
    report = run_full_pipeline(oracle, PipelineOptions(recover_fields=False))
    return domain, report, time.monotonic() - t0


def test_criterion_1_operator_correctness():
    with Budget("criterion 1", 5.0):
        rng = np.random.default_rng(1)
        worst = 0.0
        for domain in (Domain(1.0, 65), Domain((1.0, 1.0), (33, 33))):
            f = rng.standard_normal(domain.shape)
            g = rng.standard_normal(domain.shape)
            f /= np.linalg.norm(f)
            g /= np.linalg.norm(g)
            gap = abs(inner_product(domain, laplacian_neumann(domain, f), g)
                      - inner_product(domain, f, laplacian_neumann(domain, g)))
            worst = max(worst, gap)
        assert worst <= 1e-10

        errs = []
        for n in (33, 65, 129):
            domain = Domain(1.0, n)
            mode = np.cos(2 * math.pi * domain.axes[0])
            lam = (2 * math.pi) ** 2
            errs.append(float(np.max(np.abs(laplacian_neumann(domain, mode) + lam * mode))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 2.0) <= 0.2
    _report("criterion 1", f"self-adjointness gap {worst:.2e}, "
                           f"eigenmode residual orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_2_forward_fidelity():
    with Budget("criterion 2", 30.0):
        domain = Domain(1.0, 65)
        eq = steady_state(TRUTH)
        kin = KineticsSpec.from_parameters(TRUTH, expansion_point=eq)
        cfg = SolverConfig(tau=0, dt=1e-3, t_final=1.0)
        state = tuple(domain.constant(v) for v in eq)
        plan = StepPlan(domain, TRUTH, kin, cfg)
        max_drift = 0.0
        for _ in range(1000):
            new = step(plan, state)
            max_drift = max(max_drift, max(float(np.max(np.abs(a - b)))
                                           for a, b in zip(new, state)))
            state = new
        assert max_drift <= 1e-12

        # heat-mode decay: observed temporal order 1 +- 0.2 and spatial order 2 +- 0.2
        heat = ParameterSet(chi=0.0, xi=0.0, r=0.0, mu=1e-12)
        hkin = KineticsSpec.from_parameters(heat)
        T = 0.24
        lam = math.pi ** 2

        def heat_err(n, dt, extrapolate=False):
            d = Domain(1.0, n)
            f = np.cos(math.pi * d.axes[0])
            def run(step_):
                c = SolverConfig(tau=0, dt=step_, t_final=T, require_nonnegative=False,
                                 store_every=int(round(T / step_)))
                return solve_forward(d, (f, d.zeros(), d.zeros()), heat, hkin, c).u[-1]
            u = run(dt)
            if extrapolate:
                u = 2.0 * run(dt / 2) - u
            return norm_l2(d, u - math.exp(-lam * T) * f)

        temporal = [heat_err(129, dt) for dt in (4e-3, 2e-3, 1e-3)]
        t_orders = [math.log2(temporal[i] / temporal[i + 1]) for i in range(2)]
        for order in t_orders:
            assert abs(order - 1.0) <= 0.2
        spatial = [heat_err(n, 2.5e-4, extrapolate=True) for n in (17, 33, 65)]
        s_orders = [math.log2(spatial[i] / spatial[i + 1]) for i in range(2)]
        for order in s_orders:
            assert abs(order - 2.0) <= 0.2

        # non-negativity under CFL for strongly modulated admissible data
        kin0 = KineticsSpec.from_parameters(TRUTH)
        cfgn = SolverConfig(tau=0, dt=1e-3, t_final=1.0)
        f = 1.0 + 0.95 * np.cos(2 * math.pi * domain.axes[0])
        traj = solve_forward(domain, (f, f, f), TRUTH, kin0, cfgn)
        min_u = float(np.min(traj.u))
        assert min_u >= -1e-9
    _report("criterion 2", f"fixed-point drift {max_drift:.2e}/step over 1000 steps, "
                           f"temporal orders {t_orders[1]:.2f}, spatial {s_orders[1]:.2f}, "
                           f"min u {min_u:.2e}")


def test_criterion_3_linearization_consistency():
    with Budget("criterion 3", 60.0):
        domain = Domain(1.0, 65)
        kin = KineticsSpec.from_parameters(TRUTH)
        cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.4)
        fam = PerturbationFamily(f1=1.0 + 0.9 * np.cos(math.pi * domain.axes[0]),
                                 epsilons=(1e-2, 5e-3, 2.5e-3))
        direct = solve_variations(domain, TRUTH, kin, fam, cfg)
        handle = ForwardHandle.from_model(domain, TRUTH, kin, cfg)
        _, ladder = extract_variation_fd(handle, fam,
                                         first_direct=direct.order1, return_ladder=True)
        rep = consistency_report(domain, direct, ladder)
        assert rep.slopes[1] >= 0.8
        assert rep.slopes[2] >= 0.8
        errs1 = [l2 for eps, order, l2, linf in rep.rows if order == 1]
        assert errs1[0] > errs1[1] > errs1[2]
    _report("criterion 3", f"observed slopes order1 {rep.slopes[1]:.2f}, "
                           f"order2 {rep.slopes[2]:.2f} over eps ladder (1e-2, 5e-3, 2.5e-3)")


def test_criterion_4_probe_identities():
    with Budget("criterion 4", 10.0):
        probe = cgo_parabolic(np.array([math.pi]), rate=TRUTH.r)
        assert probe.pde_coefficient() == 0.0
        probe_b = cgo_parabolic(np.array([2.0, 1.0]), rate=-1.25)
        assert probe_b.pde_coefficient() == 0.0
        for xi in (math.pi, 2 * math.pi, 7.3):
            for sign in (+1, -1):
                ell = cgo_elliptic(np.array([xi]), sign=sign)
                assert complex(np.sum(ell.space_exponent * ell.space_exponent)) == 0.0

        domain = Domain((1.0, 1.0), (65, 65))
        X, Y = domain.meshgrid()
        f = np.cos(math.pi * X) * (1.0 + Y)
        w_ax = np.full(65, domain.spacing[1])
        w_ax[0] = w_ax[-1] = domain.spacing[1] / 2
        gamma0 = float(np.sum(w_ax * (1.0 + domain.axes[1])))
        samples = transform_samples(domain, f, separable_probe_set(domain))
        rec = moment_recover(domain, samples, gamma0=gamma0)

        def rel(a, b, axis):
            w = np.full(65, domain.spacing[axis])
            w[0] = w[-1] = domain.spacing[axis] / 2
            return math.sqrt(np.sum(w * (a - b) ** 2) / np.sum(w * b ** 2))

        err_t = rel(rec.transverse, np.cos(math.pi * domain.axes[0]), 0)
        err_a = rel(rec.axial, 1.0 + domain.axes[1], 1)
        assert err_t <= 0.05
        assert err_a <= 0.05
    _report("criterion 4", f"parabolic residual exactly 0, zeta.zeta exactly 0, "
                           f"moment round-trip factors {err_t:.1e} / {err_a:.1e} rel L2")


def test_criterion_5_full_recovery_tau0(pipeline_tau0):
    domain, report, elapsed = pipeline_tau0
    with Budget("criterion 5", 300.0 - elapsed if elapsed < 290 else 300.0):
        assert elapsed < 240.0
        truth = TRUTH.as_dict()
        attainable = ("r", "mu", "alpha", "beta", "gamma", "delta")
        rels = {}
        for key in attainable:
            rels[key] = abs(report.estimates[key] - truth[key]) / abs(truth[key])
            assert rels[key] <= 0.05, (key, rels[key])
        # the identifiable advective combination is recovered even though the
        # symmetric truth collapses the individual sensitivities (see the
        # companion expected-failure test)
        combo = report.estimates["chi_minus_xi"]
        assert abs(combo - 0.05) / 0.05 <= 0.05
        assert report.stage("chi_xi_mu").status == "degenerate"

        # 2D spatial coefficient: alpha10(x) = 1 + 0.3 cos(pi x1), N = 65^2
        d2 = Domain((1.0, 1.0), (65, 65))
        X, _ = d2.meshgrid()
        alpha_field = 1.0 + 0.3 * np.cos(math.pi * X)
        truth2d = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=alpha_field,
                               beta=1.0, gamma=1.0, delta=1.0)
        kin2 = KineticsSpec.from_parameters(truth2d)
        cfg2 = SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=4)
        oracle2 = Oracle(d2, truth2d, kin2, cfg2)
        opts2 = PipelineOptions(recover_fields=True)
        from archemo.recover import recover_linear_kinetics
        bank2 = ExperimentBank(oracle2)
        lin = recover_linear_kinetics(oracle2, options=opts2, bank=bank2)
        field_rel = norm_l2(d2, lin.estimates["alpha"] - alpha_field) / norm_l2(d2, alpha_field)
        assert field_rel <= 0.05
    _report("criterion 5", "tau=0 recovery: " +
            ", ".join(f"{k} {rels[k]:.1e}" for k in attainable) +
            f", chi-xi combo {abs(combo - 0.05) / 0.05:.1e}, "
            f"2D alpha field {field_rel:.1e} rel L2 "
            "(chi, xi individually unidentifiable at this symmetric truth; "
            "see expected-failure companion)")


@pytest.mark.xfail(strict=True, reason=(
    "At the stated truth the attractant and repellent balance laws coincide "
    "(alpha = gamma, beta = delta), so for tau = 0 both chemical fields are "
    "identical at every order and the forward map depends on chi and xi only "
    "through chi - xi.  No procedure can split them from this oracle; the "
    "pipeline honestly reports the degeneracy and the identifiable "
    "combination instead."))
def test_criterion_5_chi_xi_individual(pipeline_tau0):
    _, report, _ = pipeline_tau0
    truth = TRUTH.as_dict()
    for key in ("chi", "xi"):
        rel = abs(report.estimates[key] - truth[key]) / abs(truth[key])
        assert rel <= 0.05, (key, rel)


def test_criterion_6_full_recovery_tau1(pipeline_tau1):
    domain, report, elapsed = pipeline_tau1
    with Budget("criterion 6", 300.0):
        assert elapsed < 240.0
        truth = TRUTH.as_dict()
        rels = {}
        for key in EIGHT:
            rels[key] = abs(report.estimates[key] - truth[key]) / abs(truth[key])
            assert rels[key] <= 0.05, (key, rels[key])
    _report("criterion 6", "tau=1 recovery: " +
            ", ".join(f"{k} {rels[k]:.1e}" for k in EIGHT))


def test_criterion_7_second_order_kinetics():
    with Budget("criterion 7", 300.0):
        # constant alpha20 = 0.2 on the 1D grid
        domain = Domain(1.0, 129)
        kin = KineticsSpec.from_parameters(TRUTH, second_order_g={(2, 0): 0.2})
        cfg = SolverConfig(tau=0, dt=5e-4, t_final=1.0)
        oracle = Oracle(domain, TRUTH, kin, cfg)
        opts = PipelineOptions(recover_fields=False)
        report = run_full_pipeline(oracle, opts)
        a20_rel = abs(report.estimates["a20"] - 0.2) / 0.2
        assert a20_rel <= 0.02
        floors_1d = {}
        for label in ("a11", "a02", "b11", "b20", "b02"):
            floor = report.residuals[f"second_kinetics.{label}_noise_floor"]
            floors_1d[label] = (abs(report.estimates[label]), floor)
            assert abs(report.estimates[label]) <= floor
            assert floor <= 0.02

        # separable alpha02 = cos(pi x1) (1 + x2)/4 on the 2D grid
        d2 = Domain((1.0, 1.0), (65, 65))
        transverse = np.cos(math.pi * d2.axes[0])
        axial = (1.0 + d2.axes[1]) / 4.0
        a02 = SeparableField(transverse=transverse, axial=axial)
        kin2 = KineticsSpec.from_parameters(TRUTH, second_order_g={(0, 2): a02})
        cfg2 = SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=4)
        oracle2 = Oracle(d2, TRUTH, kin2, cfg2)
        opts2 = PipelineOptions(recover_fields=False,
                                declared_separable={"a02": a02.axial_integral(d2)})
        from archemo.recover import recover_linear_kinetics, recover_second_kinetics
        bank2 = ExperimentBank(oracle2)
        lin = recover_linear_kinetics(oracle2, options=opts2, bank=bank2)
        sec = recover_second_kinetics(oracle2, lin, options=opts2, bank=bank2)
        est = sec.estimates["a02"]
        w1 = np.full(65, d2.spacing[0])
        w1[0] = w1[-1] = d2.spacing[0] / 2
        rel_t = math.sqrt(np.sum(w1 * (est.transverse - transverse) ** 2)
                          / np.sum(w1 * transverse ** 2))
        rel_a = math.sqrt(np.sum(w1 * (est.axial - axial) ** 2) / np.sum(w1 * axial ** 2))
        assert rel_t <= 0.05
        assert rel_a <= 0.05
    _report("criterion 7", f"a20 rel {a20_rel:.1e} (<=2%), separable a02 factors "
                           f"{rel_t:.1e}/{rel_a:.1e} rel L2 (<=5%), zero-truth entries "
                           "below their noise floors")


def test_criterion_8_identifiability_sweep():
    with Budget("criterion 8", 180.0):
        domain = Domain(1.0, 65)
        cfg = SolverConfig(tau=0, dt=5e-4, t_final=1.0, store_every=10)
        f = 0.5 + 0.2 * np.cos(math.pi * domain.axes[0])
        init = (f, f, f)
        match_tol, reports = identifiability_sweep(domain, TRUTH, init, cfg,
                                                   n_trials=20, seed=7)
        ratios = [r.measurement_distance / match_tol for r in reports]
        for r in reports:
            assert r.parameter_distance >= 0.05
            assert r.measurement_distance >= 10.0 * match_tol
            assert r.verdict == "consistent"
        from archemo.harness import identifiability_experiment
        self_rep = identifiability_experiment(domain, TRUTH, TRUTH, init, cfg, match_tol)
        assert self_rep.measurement_distance <= match_tol
    _report("criterion 8", f"20 seeded trials: min distance / match_tol = {min(ratios):.1f} "
                           f"(>= 10 required); identical parameters give distance "
                           f"{self_rep.measurement_distance:.1e} <= match_tol {match_tol:.1e}")


def test_criterion_9_determinism(tmp_path):
    with Budget("criterion 9", 120.0):
        cfgpath = "configs/quick_recover.cfg"
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            code = cli(["--config", cfgpath, "--out", str(out), "--quiet", "recover"])
            assert code == 0
            outputs.append(out)
        for name in ("report.txt", "report.csv"):
            b1 = open(outputs[0] / name, "rb").read()
            b2 = open(outputs[1] / name, "rb").read()
            assert b1 == b2
    _report("criterion 9", "two identical recover runs produced bitwise-identical reports")
