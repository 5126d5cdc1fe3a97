import glob
import math
import os

import numpy as np
import pytest

from archemo import io as aio
from archemo.forward import (
    ParameterSet,
    SeparableField,
    SolverConfig,
    measure,
    solve_forward,
)
from archemo.grid import Domain
from archemo.harness import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    build_profile,
    cli,
    convergence_study,
    identifiability_experiment,
    identifiability_sweep,
    measure_match_tol,
    measurement_distance,
    near_collision_search,
    parameter_distance,
    study_rows_to_text,
)
from archemo.variation import PerturbationFamily, solve_variations

from conftest import make_kinetics

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _measurement(domain, params, cfg, f=None):
    kin = make_kinetics(params)
    if f is None:
        f = 0.5 + 0.2 * np.cos(math.pi * domain.meshgrid()[-1] / domain.lengths[-1])
    return measure(solve_forward(domain, (f, f, f), params, kin, cfg))


# -- profiles -------------------------------------------------------------------

def test_build_profile_kinds(square33):
    assert build_profile(square33, "1.5") == 1.5
    assert build_profile(square33, "const:v=2") == 2.0
    cos_prof = build_profile(square33, "cosine:base=1,amp=0.3,mode=1,axis=0")
    X, _ = square33.meshgrid()
    assert np.allclose(cos_prof, 1.0 + 0.3 * np.cos(math.pi * X))
    modes = build_profile(square33, "modes:offset=1,axis=-1,terms=1x0.45+2x0.45")
    _, Y = square33.meshgrid()
    assert np.allclose(modes, 1.0 + 0.45 * np.cos(math.pi * Y) + 0.45 * np.cos(2 * math.pi * Y))
    sep = build_profile(square33, "sepcosaff:amp=1,tmode=1,a0=0.25,a1=0.25")
    assert isinstance(sep, SeparableField)
    assert np.allclose(sep.axial, 0.25 + 0.25 * square33.axes[1])
    with pytest.raises(ValueError):
        build_profile(square33, "warp:a=1")


# -- configuration ----------------------------------------------------------------

def test_config_round_trip_is_identity():
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))):
        cfg1 = ExperimentConfig.from_file(path)
        text = cfg1.to_text()
        cfg2 = ExperimentConfig.from_text(text)
        assert cfg2.to_text() == text, path
        # parse . serialize . parse == parse on every shipped config
        full1 = {k: cfg1.get(k) for k in CONFIG_SCHEMA}
        full2 = {k: cfg2.get(k) for k in CONFIG_SCHEMA}
        assert full1 == full2, path


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("solver.dx = 0.1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("nonsense line\n")


RETIRED_KEYS = ("solver.elliptic_tol", "solver.cfl_safety", "pipeline.mode_indices",
                "pipeline.moment_J", "pipeline.lambda_reg", "pipeline.moment_cap",
                "pipeline.u_floor_rel", "pipeline.cond_limit", "ident.param_tol",
                "convergence.levels")


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_config_rejects_retired_keys(key, tmp_path, capsys):
    # tolerances and probing settings are module constants; setting one is a usage error
    assert key not in CONFIG_SCHEMA
    with pytest.raises(ValueError, match="unknown key"):
        ExperimentConfig.from_text(f"{key} = 1\n")
    path = tmp_path / "retired.cfg"
    path.write_text(f"{key} = 1\n")
    assert cli(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet",
                "convergence"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_builders():
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "quick_recover.cfg"))
    d = cfg.domain()
    assert d.cells == (65,)
    p = cfg.parameter_set(d)
    assert p.delta == 1.6
    solver = cfg.solver_config()
    assert solver.tau == 0
    kin = cfg.kinetics(d, p)
    assert kin.beta_decay == pytest.approx(1.0)


# -- measurement distance -----------------------------------------------------------

def test_measurement_distance_identity(line65, applied_params):
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.1, store_every=5)
    m = _measurement(line65, applied_params, cfg)
    assert measurement_distance(m, m) == 0.0


def test_measurement_distance_symmetry_and_growth(line65, applied_params):
    cfgs = [SolverConfig(tau=0, dt=1e-3, t_final=T, store_every=5) for T in (0.2, 0.4, 0.8)]
    bumped = ParameterSet(**{**applied_params.as_dict(), "r": applied_params.r * 1.1})
    dists = []
    for cfg in cfgs:
        m1 = _measurement(line65, applied_params, cfg)
        m2 = _measurement(line65, bumped, cfg)
        assert measurement_distance(m1, m2) == measurement_distance(m2, m1)
        dists.append(measurement_distance(m1, m2))
    assert dists[0] > 0
    assert dists[0] < dists[1] < dists[2]


def test_measurement_distance_grid_mismatch(line65, applied_params):
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.1, store_every=5)
    m1 = _measurement(line65, applied_params, cfg)
    other = Domain(1.0, 33)
    m2 = _measurement(other, applied_params, cfg)
    with pytest.raises(ValueError):
        measurement_distance(m1, m2)


def test_parameter_distance(line65):
    b1 = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0)
    b2 = ParameterSet(chi=0.1, xi=0.05, r=0.55, mu=1.0)
    assert parameter_distance(b1, b1) == 0.0
    assert parameter_distance(b1, b2) == pytest.approx(0.05 / 0.55)


# -- identifiability ------------------------------------------------------------------

def test_identifiability_self_consistent(line65, applied_params):
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=5)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    tol = measure_match_tol(line65, applied_params, (f, f, f), cfg)
    rep = identifiability_experiment(line65, applied_params, applied_params,
                                     (f, f, f), cfg, tol)
    assert rep.verdict == "consistent"
    assert rep.measurement_distance <= tol


def test_identifiability_sweep_small(line65, applied_params):
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=5)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    match_tol, reports = identifiability_sweep(line65, applied_params, (f, f, f), cfg,
                                               n_trials=5, seed=3)
    assert len(reports) == 5
    for rep in reports:
        assert rep.parameter_distance >= 0.05
        assert rep.verdict == "consistent"
        assert rep.measurement_distance > match_tol


def test_near_collision_search_reports_floor(line65, nondegenerate_params):
    # a stress test, not a proof: the search reports whatever floor it finds
    cfg = SolverConfig(tau=0, dt=2e-3, t_final=0.3, store_every=5)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    tol = measure_match_tol(line65, nondegenerate_params, (f, f, f), cfg)
    out = near_collision_search(line65, nondegenerate_params, (f, f, f), cfg, tol, budget=25)
    assert out["achieved_measurement_distance"] >= 0.0
    assert out["parameter_distance"] > 0.0
    assert out["evaluations"] <= 30
    assert set(out) == {"achieved_measurement_distance", "parameter_distance",
                        "match_tol", "evaluations"}


def test_engineered_collision_along_degenerate_direction(line65, applied_params):
    # with alpha = gamma and beta = delta the tau=0 map sees only chi - xi:
    # shifting both sensitivities together is measurement-invisible, the
    # engineered counterpart of the recovery stage's degeneracy diagnosis
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.4, store_every=5)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    tol = measure_match_tol(line65, applied_params, (f, f, f), cfg)
    shifted = ParameterSet(**{**applied_params.as_dict(),
                              "chi": applied_params.chi + 0.05,
                              "xi": applied_params.xi + 0.05})
    rep = identifiability_experiment(line65, applied_params, shifted, (f, f, f), cfg, tol)
    assert rep.parameter_distance > 0.05
    assert rep.measurement_distance <= tol
    assert rep.verdict == "violation"


# -- convergence study ----------------------------------------------------------------

def test_convergence_study_orders():
    rows = convergence_study(base_cells=33, levels=3)
    text = study_rows_to_text(rows)
    assert "cfl-violation" in text
    by_key = {}
    for r in rows:
        by_key.setdefault((r.test, r.sweep), []).append(r)
    for r in by_key[("forward_heat", "spatial")][1:]:
        assert abs(r.order - 2.0) <= 0.2
    for r in by_key[("elliptic", "spatial")][1:]:
        assert abs(r.order - 2.0) <= 0.2
    for r in by_key[("forward_heat", "temporal")][1:]:
        assert abs(r.order - 1.0) <= 0.2
    for r in by_key[("first_variation", "temporal")][1:]:
        assert abs(r.order - 1.0) <= 0.2
    for r in by_key[("second_variation", "temporal")][1:]:
        assert abs(r.order - 1.0) <= 0.2
    flagged = [r for r in rows if r.flag]
    assert all(r.order is None for r in flagged)


def test_convergence_study_needs_three_levels():
    with pytest.raises(ValueError):
        convergence_study(levels=2)


# -- serialization ---------------------------------------------------------------------

def test_trajectory_npz_round_trip_bit_exact(tmp_path, line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.05)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    traj = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
    path = tmp_path / "traj.npz"
    aio.trajectory_to_npz(path, traj)
    back = aio.trajectory_from_npz(path)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.v, traj.v)
    assert np.array_equal(back.w, traj.w)
    assert np.array_equal(back.times, traj.times)
    assert back.domain == traj.domain


def test_measurement_npz_round_trip_bit_exact(tmp_path, line65, applied_params):
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.05)
    rec = _measurement(line65, applied_params, cfg)
    path = tmp_path / "m.npz"
    aio.measurement_to_npz(path, rec, line65)
    back, dom = aio.measurement_from_npz(path)
    assert dom == line65
    assert np.array_equal(back.boundary_u, rec.boundary_u)
    assert np.array_equal(back.final_v, rec.final_v)


def test_variation_stack_npz_round_trip(tmp_path, line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.05)
    fam = PerturbationFamily(f1=1.0 + 0.5 * np.cos(math.pi * line65.axes[0]))
    stack = solve_variations(line65, applied_params, kin, fam, cfg)
    path = tmp_path / "stack.npz"
    aio.variation_stack_to_npz(path, stack)
    back = aio.variation_stack_from_npz(path)
    assert back.provenance == "direct"
    assert np.array_equal(back.order1.u, stack.order1.u)
    assert np.array_equal(back.order2.w, stack.order2.w)
    # a file without the second order is refused, naming what it lacks
    with np.load(path) as data:
        arrays = {name: data[name] for name in data if name not in ("v2", "w2")}
    partial = tmp_path / "partial.npz"
    np.savez(partial, **arrays)
    with pytest.raises(ValueError, match=r"lacks its second order \(v2, w2\)$"):
        aio.variation_stack_from_npz(partial)


def test_csv_seventeen_digit_round_trip(tmp_path, line65, applied_params):
    kin = make_kinetics(applied_params)
    cfg = SolverConfig(tau=0, dt=1e-3, t_final=0.02)
    f = 0.5 + 0.2 * np.cos(math.pi * line65.axes[0])
    traj = solve_forward(line65, (f, f, f), applied_params, kin, cfg)
    path = tmp_path / "traj.csv"
    aio.trajectory_to_csv(path, traj)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    u = rows["u"].reshape(len(traj.times), -1)
    assert np.array_equal(u, traj.u)


# -- command-line interface ---------------------------------------------------------------

def test_cli_unknown_flag_returns_one(capsys):
    assert cli(["--bogus", "simulate"]) == 1


def test_cli_requires_command():
    assert cli([]) == 1


def test_cli_missing_config_file():
    assert cli(["--config", "/nonexistent/x.cfg", "simulate"]) == 1


def test_cli_simulate_and_outputs(tmp_path):
    code = cli(["--config", os.path.join(CONFIG_DIR, "quick_recover.cfg"),
                "--out", str(tmp_path), "--quiet", "simulate"])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "trajectory.npz").exists()
    assert (tmp_path / "measurement_traces.csv").exists()
    assert (tmp_path / "measurement.npz").exists()


def test_cli_linearize(tmp_path):
    # direct variations are stored on the oracle runs' slices at any stride
    for every in (1, 4):
        cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "quick_recover.cfg"))
        cfg.set("solver.t_final", 0.1)
        cfg.set("solver.store_every", every)
        path = tmp_path / f"lin{every}.cfg"
        cfg.to_file(path)
        out = tmp_path / f"out{every}"
        code = cli(["--config", str(path), "--out", str(out), "--quiet", "linearize"])
        assert code == 0
        assert (out / "consistency.txt").exists()
        direct = aio.variation_stack_from_npz(out / "variation_direct.npz")
        fd = aio.variation_stack_from_npz(out / "variation_fd.npz")
        assert np.array_equal(direct.order1.times, fd.order1.times)
        assert len(direct.order1.times) == -(-50 // every) + 1


def test_cli_linearize_rejects_a_one_node_ladder(tmp_path, capsys):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "quick_recover.cfg"))
    cfg.set("solver.t_final", 0.1)
    cfg.set("perturb.epsilons", (0.01,))
    path = tmp_path / "one.cfg"
    cfg.to_file(path)
    assert "perturb.epsilons = 0.01\n" in open(path).read()
    code = cli(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "linearize"])
    assert code == 1
    assert "error: epsilon ladder needs at least two entries" in capsys.readouterr().err


def test_cli_recover_check_passes(tmp_path):
    code = cli(["--config", os.path.join(CONFIG_DIR, "quick_recover.cfg"),
                "--out", str(tmp_path), "--quiet", "recover", "--check"])
    assert code == 0
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").exists()
    text = open(tmp_path / "report.txt").read()
    assert "[stage.r]" in text


def test_cli_recover_check_judges_zero_truths(tmp_path, monkeypatch):
    # a11 is 0 in the truth, so its gap is absolute; an estimate of 0.5 fails the check
    import archemo.harness as harness
    pipeline = harness.run_full_pipeline

    def off_by_half(oracle, options):
        report = pipeline(oracle, options)
        assert report.estimates["a11"] == pytest.approx(0.0, abs=0.05)
        report.estimates["a11"] = 0.5
        return report

    monkeypatch.setattr(harness, "run_full_pipeline", off_by_half)
    code = cli(["--config", os.path.join(CONFIG_DIR, "quick_recover.cfg"),
                "--out", str(tmp_path), "--quiet", "recover", "--check"])
    assert code == 3


def test_cli_identcheck_self_consistent(tmp_path):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "identcheck.cfg"))
    cfg.set("ident.trials", 3)
    cfg.set("solver.t_final", 0.4)
    path = tmp_path / "ident.cfg"
    cfg.to_file(path)
    code = cli(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet",
                "identcheck", "--check"])
    assert code == 0
    lines = open(tmp_path / "out" / "identcheck.csv").read().strip().splitlines()
    assert lines[1].startswith("self,")
    assert all(line.endswith("consistent") for line in lines[1:])


def test_cli_convergence(tmp_path):
    code = cli(["--out", str(tmp_path), "--quiet", "convergence"])
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()


def test_cli_numerical_failure_exit_two(tmp_path):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "quick_recover.cfg"))
    cfg.set("params.chi", 80.0)          # strong drift plus a coarse step trips CFL
    cfg.set("solver.dt", 0.05)
    cfg.set("solver.t_final", 0.5)
    cfg.set("init.f", "modes:offset=1,axis=-1,terms=1x0.9")
    path = tmp_path / "bad.cfg"
    cfg.to_file(path)
    assert cli(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet",
                "simulate"]) == 2


def test_cli_tau_override(tmp_path):
    code = cli(["--config", os.path.join(CONFIG_DIR, "quick_recover.cfg"),
                "--out", str(tmp_path), "--tau", "1", "--quiet", "simulate"])
    assert code == 0


def test_cli_recover_determinism_bitwise(tmp_path):
    cfgpath = os.path.join(CONFIG_DIR, "quick_recover.cfg")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli(["--config", cfgpath, "--out", str(out), "--quiet", "recover"]) == 0
        outs.append(out)
    for name in ("report.txt", "report.csv"):
        b1 = open(outs[0] / name, "rb").read()
        b2 = open(outs[1] / name, "rb").read()
        assert b1 == b2
