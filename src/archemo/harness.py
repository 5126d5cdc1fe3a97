"""Experiment orchestration: configs, identifiability checks, convergence, CLI.

Configuration files are flat ``section.key = value`` text (diff-friendly, no
schema engine); :data:`CONFIG_SCHEMA` maps each key to its default, and a key's
values take its default's type (documented in the README).  Spatial coefficients
and initial-data profiles are compact constructor strings (:func:`build_profile`),
e.g. ``cosine:base=1,amp=0.3,mode=1,axis=0`` or ``sepcosaff:amp=0.25,tmode=1,a0=1,a1=1``.

The command-line interface exposes five subcommands: ``simulate`` (forward
run to CSV/npz), ``linearize`` (variation stacks and the consistency table),
``recover`` (the full identification pipeline), ``identcheck``
(identifiability experiments) and ``convergence`` (refinement study).
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 failed
acceptance check in ``--check`` mode.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io as aio
from .errors import NumericsError, RecoveryError
from .forward import (
    SECOND_ORDER_KEYS,
    KineticsSpec,
    MeasurementRecord,
    ParameterSet,
    SeparableField,
    SolverConfig,
    coefficient_on_grid,
    measure,
    solve_forward,
)
from .grid import Domain, helmholtz_solve, norm_l2
from .recover import (
    Oracle,
    PipelineOptions,
    RecoveryReport,
    SeparableEstimate,
    axial_mode_profile,
    run_full_pipeline,
)
from .variation import (
    DEFAULT_EPSILONS,
    ForwardHandle,
    PerturbationFamily,
    consistency_report,
    extract_variation_fd,
    solve_variations,
)

__all__ = [
    "ExperimentConfig",
    "IdentReport",
    "build_profile",
    "measurement_distance",
    "parameter_distance",
    "measure_match_tol",
    "identifiability_experiment",
    "identifiability_sweep",
    "near_collision_search",
    "convergence_study",
    "cli",
    "main",
]


# ---------------------------------------------------------------------------
# coefficient / initial-data profile strings


# profile kind -> its arguments and their defaults, which type them; None marks the required float
_PROFILE_ARGS = {
    "const": {"v": None},
    "cosine": {"base": 0.0, "amp": 0.0, "mode": 1, "axis": 0},
    "modes": {"offset": 0.0, "axis": -1, "terms": ""},
    "sepcosaff": {"amp": 1.0, "tmode": 1, "a0": 1.0, "a1": 0.0},
}


def build_profile(domain: Domain, spec):
    """Materialize a profile string as a constant, grid field, or separable pair.

    Grammar (comma-separated key=value arguments, defaults in :data:`_PROFILE_ARGS`):
      <float>                                  constant
      const:v=<float>                          constant (v is required)
      cosine:base=,amp=,mode=,axis=            base + amp*cos(mode*pi*x_axis/L)
      modes:offset=,axis=,terms=k1xA1+k2xA2    offset + sum_i A_i cos(k_i pi x/L)
      sepcosaff:amp=,tmode=,a0=,a1=            separable amp*cos(tmode pi x1/L1) x (a0 + a1*x2/L2)
    An axis lies in [-dim, dim); an unknown, missing or malformed argument raises ValueError,
    which names the profile and the argument.
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    spec = str(spec).strip()
    if ":" not in spec:
        return _parse(0.0, spec, "profile")
    kind, _, argstr = spec.partition(":")
    if kind not in _PROFILE_ARGS:
        raise ValueError(f"unknown profile kind {kind!r} in {spec!r}")
    args = dict(_PROFILE_ARGS[kind])
    for part in filter(None, argstr.split(",")):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in args:
            raise ValueError(f"profile {spec!r}: unknown argument {key!r}, {kind} takes {', '.join(args)}")
        default = _PROFILE_ARGS[kind][key]
        args[key] = _parse(0.0 if default is None else default, val.strip(),
                           f"profile {spec!r}: argument {key}")
    missing = [key for key, val in args.items() if val is None]
    if missing:
        raise ValueError(f"profile {spec!r}: missing argument {', '.join(missing)}")
    if kind == "const":
        return args["v"]
    if kind == "sepcosaff":
        if domain.dim < 2:
            raise ValueError("sepcosaff profiles need a 2D domain")
        transverse = args["amp"] * np.cos(args["tmode"] * math.pi * domain.axes[0] / domain.lengths[0])
        axial = args["a0"] + args["a1"] * domain.axes[1] / domain.lengths[1]
        return SeparableField(transverse=transverse, axial=axial)
    axis = args["axis"]
    if not -domain.dim <= axis < domain.dim:
        raise ValueError(f"profile {spec!r}: axis {axis} outside [-{domain.dim}, {domain.dim})")
    if kind == "cosine":
        offset, pairs = args["base"], [(args["mode"], args["amp"])]
    else:
        terms = [t.partition("x") for t in args["terms"].split("+")] if args["terms"] else []
        what = f"profile {spec!r}: argument terms"
        offset, pairs = args["offset"], [(_parse(0, k, what), _parse(0.0, a, what)) for k, _, a in terms]
    return axial_mode_profile(domain, offset, pairs, axis=axis)


# ---------------------------------------------------------------------------
# configuration


def _parse(default, text: str, what: str):
    """A value from its text, typed by its default (a tuple per element); a ValueError
    names what the text gives, the text and the type."""
    many = isinstance(default, tuple)
    kind = type(default[0] if many else default)
    try:
        return tuple(kind(x) for x in text.split()) if many else kind(text)
    except ValueError:
        raise ValueError(f"{what}: {text!r} does not parse as "
                         f"{'space-separated ' * many}{kind.__name__}") from None


def _serialize(value) -> str:
    """The config text of a value: floats in full round-trip form, others by ``str``."""
    if isinstance(value, tuple):
        return " ".join(_serialize(x) for x in value)
    return aio.fmt(value) if isinstance(value, float) else str(value)


CONFIG_SCHEMA = {
    # key: default, whose type is the type of the key's values
    "domain.lengths": (1.0,),
    "domain.cells": (129,),
    "solver.tau": 0,
    "solver.dt": 5e-4,
    "solver.t_final": 1.0,
    "solver.store_every": 1,
    "solver.relaxation_speedup": 1.0,
    "params.chi": 0.1,
    "params.xi": 0.05,
    "params.r": 0.5,
    "params.mu": 1.0,
    "params.alpha": "1",
    "params.beta": 1.0,
    "params.gamma": "1",
    "params.delta": 1.0,
    **{f"kinetics.{label}": "0" for label in SECOND_ORDER_KEYS},
    "init.f": "modes:offset=0.5,axis=-1,terms=1x0.2",
    "init.g": "const:v=0.5",
    "init.h": "const:v=0.5",
    "perturb.f1": "modes:offset=1,axis=-1,terms=1x0.45+2x0.45",
    "perturb.g1": "0",
    "perturb.h1": "0",
    "perturb.f2": "0",
    "perturb.g2": "0",
    "perturb.h2": "0",
    "perturb.epsilons": DEFAULT_EPSILONS,
    "pipeline.separable_entries": "",
    "pipeline.check_tol": 0.05,
    "ident.seed": 7,
    "ident.trials": 20,
    "output.dir": "out",
}


@dataclass
class ExperimentConfig:
    """Typed view over a flat key-value configuration."""

    values: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_SCHEMA:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _parse(CONFIG_SCHEMA[key], val.strip(), f"config line {lineno}: {key}")
        return cls(values=values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        return "".join(f"{key} = {_serialize(self.get(key))}\n" for key in CONFIG_SCHEMA)

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    def get(self, key):
        return self.values.get(key, CONFIG_SCHEMA[key])

    def set(self, key, value):
        if key not in CONFIG_SCHEMA:
            raise KeyError(key)
        self.values[key] = value

    # -- builders ----------------------------------------------------------

    def domain(self) -> Domain:
        return Domain(self.get("domain.lengths"), self.get("domain.cells"))

    def solver_config(self, tau=None) -> SolverConfig:
        return SolverConfig(
            tau=int(tau) if tau is not None else self.get("solver.tau"),
            dt=self.get("solver.dt"),
            t_final=self.get("solver.t_final"),
            store_every=self.get("solver.store_every"),
            relaxation_speedup=self.get("solver.relaxation_speedup"),
        ).validate()

    def parameter_set(self, domain: Domain) -> ParameterSet:
        return ParameterSet(
            chi=self.get("params.chi"), xi=self.get("params.xi"),
            r=self.get("params.r"), mu=self.get("params.mu"),
            alpha=build_profile(domain, self.get("params.alpha")),
            beta=self.get("params.beta"),
            gamma=build_profile(domain, self.get("params.gamma")),
            delta=self.get("params.delta"),
        ).validate(domain)

    def kinetics(self, domain: Domain, params: ParameterSet | None = None) -> KineticsSpec:
        p = params if params is not None else self.parameter_set(domain)
        second = {"g": {}, "h": {}}
        for label, (which, key) in SECOND_ORDER_KEYS.items():
            prof = build_profile(domain, self.get(f"kinetics.{label}"))
            if not (isinstance(prof, float) and prof == 0.0):
                second[which][key] = prof
        return KineticsSpec.from_parameters(p, second_order_g=second["g"],
                                            second_order_h=second["h"])

    def initial_data(self, domain: Domain):
        return tuple(coefficient_on_grid(build_profile(domain, self.get(f"init.{name}")), domain)
                     for name in "fgh")

    def perturbation_family(self, domain: Domain) -> PerturbationFamily:
        profs = {name: coefficient_on_grid(build_profile(domain, self.get(f"perturb.{name}")), domain)
                 for name in PerturbationFamily.PROFILES}
        return PerturbationFamily(epsilons=self.get("perturb.epsilons"), **profs)

    def pipeline_options(self, domain: Domain) -> PipelineOptions:
        declared = {}
        for label in self.get("pipeline.separable_entries").split():
            if label not in SECOND_ORDER_KEYS:
                raise ValueError(f"pipeline.separable_entries: {label!r} is not a kinetics label")
            prof = build_profile(domain, self.get(f"kinetics.{label}"))
            if not isinstance(prof, SeparableField):
                raise ValueError(f"pipeline.separable_entries: kinetics.{label} is not separable")
            declared[label] = prof.axial_integral(domain)
        return PipelineOptions(epsilons=self.get("perturb.epsilons"),
                               declared_separable=declared)


# ---------------------------------------------------------------------------
# measurement comparison and identifiability


def measurement_distance(m1: MeasurementRecord, m2: MeasurementRecord) -> float:
    """max(sup over boundary traces, relative L2 over the final-time fields)."""
    if m1.times.shape != m2.times.shape or not np.allclose(m1.times, m2.times, rtol=0, atol=1e-12):
        raise ValueError("measurement records live on different time sets")
    if m1.final_u.shape != m2.final_u.shape:
        raise ValueError("measurement records live on different grids")
    trace_gap = final_gap = 0.0
    t1, t2 = m1.component_traces(), m2.component_traces()
    f1, f2 = m1.component_finals(), m2.component_finals()
    for comp in t1:
        trace_gap = max(trace_gap, float(np.max(np.abs(t1[comp] - t2[comp]))))
        a, b = f1[comp], f2[comp]
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
        final_gap = max(final_gap, float(np.linalg.norm(a - b)) / denom)
    return max(trace_gap, final_gap)


def parameter_distance(b1: ParameterSet, b2: ParameterSet, domain: Domain | None = None) -> float:
    """Max relative component gap over the eight parameters (L2 for fields)."""
    gap = 0.0
    for name, v1 in b1.as_dict().items():
        v2 = getattr(b2, name)
        if isinstance(v1, (np.ndarray, SeparableField)) or isinstance(v2, (np.ndarray, SeparableField)):
            if domain is None:
                raise ValueError("field-valued parameters need the domain for comparison")
            a = coefficient_on_grid(v1, domain)
            b = coefficient_on_grid(v2, domain)
            denom = max(norm_l2(domain, a), norm_l2(domain, b), 1e-300)
            gap = max(gap, norm_l2(domain, a - b) / denom)
        else:
            denom = max(abs(v1), abs(v2), 1e-300)
            gap = max(gap, abs(v1 - v2) / denom)
    return gap


# parameter sets closer than this (parameter_distance) count as the same truth
PARAM_TOL = 0.05
# measure_match_tol's multiple of the solver's dt self-convergence error
MATCH_TOL_FACTOR = 10.0
# random_parameter_set's range of relative moves of each scalar parameter
PERTURB_LO, PERTURB_HI = 0.06, 0.15


@dataclass
class IdentReport:
    parameter_distance: float
    measurement_distance: float
    match_tol: float
    verdict: str          # "consistent" | "violation"

    @classmethod
    def judge(cls, pdist, mdist, match_tol):
        verdict = "violation" if (mdist <= match_tol and pdist > PARAM_TOL) else "consistent"
        return cls(parameter_distance=pdist, measurement_distance=mdist,
                   match_tol=match_tol, verdict=verdict)


def _forward_measure(domain, params, cfg, init):
    kin = KineticsSpec.from_parameters(params)
    return measure(solve_forward(domain, init, params, kin, cfg))


def measure_match_tol(domain: Domain, params: ParameterSet, init, cfg: SolverConfig) -> float:
    """MATCH_TOL_FACTOR x the solver's dt self-convergence error on this configuration.

    Discrete map equality is only meaningful up to discretization error; this
    calibrates the equality threshold once per configuration.
    """
    m1 = _forward_measure(domain, params, cfg, init)
    half = SolverConfig(**{**cfg.__dict__, "dt": cfg.dt / 2, "store_every": cfg.store_every * 2})
    m2 = _forward_measure(domain, params, half, init)
    return MATCH_TOL_FACTOR * measurement_distance(m1, m2)


def identifiability_experiment(domain: Domain, b1: ParameterSet, b2: ParameterSet,
                               init, cfg: SolverConfig, match_tol: float) -> IdentReport:
    """Run both forward maps on shared data and judge the distance pair."""
    m1 = _forward_measure(domain, b1, cfg, init)
    m2 = _forward_measure(domain, b2, cfg, init)
    return IdentReport.judge(parameter_distance(b1, b2, domain),
                             measurement_distance(m1, m2), match_tol)


def random_parameter_set(rng, base: ParameterSet) -> ParameterSet:
    """Componentwise multiplicative perturbation with signs; keeps admissibility."""
    vals = {}
    for name, v in base.as_dict().items():
        if isinstance(v, (np.ndarray, SeparableField)):
            vals[name] = v
            continue
        bump = rng.uniform(PERTURB_LO, PERTURB_HI) * (1 if rng.random() < 0.5 else -1)
        vals[name] = float(v) * (1.0 + bump)
    return ParameterSet(**vals)


def identifiability_sweep(domain: Domain, b1: ParameterSet, init, cfg: SolverConfig,
                          n_trials: int = 20, seed: int = 7):
    """Seeded random B2 draws at least PARAM_TOL from b1; returns (match_tol, reports)."""
    match_tol = measure_match_tol(domain, b1, init, cfg)
    rng = np.random.default_rng(seed)
    m1 = _forward_measure(domain, b1, cfg, init)
    reports = []
    for _ in range(n_trials):
        b2 = random_parameter_set(rng, b1)
        while parameter_distance(b1, b2, domain) < PARAM_TOL:
            b2 = random_parameter_set(rng, b1)
        m2 = _forward_measure(domain, b2, cfg, init)
        reports.append(IdentReport.judge(parameter_distance(b1, b2, domain),
                                         measurement_distance(m1, m2), match_tol))
    return match_tol, reports


def near_collision_search(domain: Domain, b1: ParameterSet, init, cfg: SolverConfig,
                          match_tol: float, budget: int = 40, seed: int = 3):
    """Adversarial stress test: minimize the measurement gap at fixed parameter gap.

    Uses a derivative-free simplex search over log-parameters with a penalty
    keeping the parameter distance above PARAM_TOL.  Reports the achieved
    floor; a floor well above match_tol is evidence (not proof) against
    near-collisions.
    """
    from scipy.optimize import minimize

    m1 = _forward_measure(domain, b1, cfg, init)
    names = tuple(b1.as_dict())
    base = np.array([float(getattr(b1, n)) for n in names])

    def unpack(z):
        vals = dict(zip(names, base * np.exp(z)))
        return ParameterSet(**vals)

    def objective(z):
        b2 = unpack(z)
        pdist = parameter_distance(b1, b2, domain)
        try:
            mdist = measurement_distance(m1, _forward_measure(domain, b2, cfg, init))
        except NumericsError:
            return 1e6
        penalty = max(PARAM_TOL - pdist, 0.0) * 100.0
        return mdist + penalty

    rng = np.random.default_rng(seed)
    z0 = rng.uniform(0.08, 0.12, size=len(names)) * rng.choice([-1, 1], size=len(names))
    res = minimize(objective, z0, method="Nelder-Mead",
                   options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-12})
    b2 = unpack(res.x)
    pdist = parameter_distance(b1, b2, domain)
    mdist = measurement_distance(m1, _forward_measure(domain, b2, cfg, init))
    return {"achieved_measurement_distance": mdist, "parameter_distance": pdist,
            "match_tol": match_tol, "evaluations": res.nfev}


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class StudyRow:
    test: str
    sweep: str
    level: int
    cells: int
    dt: float
    error: float
    order: float | None
    flag: str = ""


def _heat_mode_error(domain, dt, t_final, richardson_in_time=False):
    """Forward solver against the exact single-mode heat solution.

    For spatial sweeps the first-order time error would mask the O(h^2)
    signal; a two-level Richardson combination in dt removes it.
    """
    p = ParameterSet(chi=0.0, xi=0.0, r=0.0, mu=1e-12, alpha=1.0, beta=1.0,
                     gamma=1.0, delta=1.0)
    kin = KineticsSpec.from_parameters(p)
    x = domain.meshgrid()[-1]
    f = np.cos(math.pi * x / domain.lengths[-1])

    def final_u(step):
        cfg = SolverConfig(tau=0, dt=step, t_final=t_final, require_nonnegative=False,
                           store_every=max(int(round(t_final / step)), 1))
        traj = solve_forward(domain, (f, domain.zeros(), domain.zeros()), p, kin, cfg)
        return traj.u[-1]

    u_end = final_u(dt)
    if richardson_in_time:
        u_end = 2.0 * final_u(dt / 2) - u_end
    lam = (math.pi / domain.lengths[-1]) ** 2
    exact = math.exp(-lam * t_final) * f
    return norm_l2(domain, u_end - exact) / norm_l2(domain, exact)


def _elliptic_mode_error(domain, decay=1.5):
    x = domain.meshgrid()[-1]
    lam = (math.pi / domain.lengths[-1]) ** 2
    f = np.cos(math.pi * x / domain.lengths[-1])
    sol = helmholtz_solve(domain, (lam + decay) * f, decay)
    return norm_l2(domain, sol - f) / norm_l2(domain, f)


def _variation_errors(domain, dt, t_final, r=0.5, mu=1.0, beta=1.5):
    """First/second variation against closed forms (single-mode data, chi = xi = 0)."""
    p = ParameterSet(chi=0.0, xi=0.0, r=r, mu=mu, alpha=1.0, beta=beta, gamma=1.0, delta=beta)
    kin = KineticsSpec.from_parameters(p)
    cfg = SolverConfig(tau=0, dt=dt, t_final=t_final)
    x = domain.meshgrid()[-1]
    L = domain.lengths[-1]
    mode = np.cos(math.pi * x / L)
    fam = PerturbationFamily(f1=mode)
    stack = solve_variations(domain, p, kin, fam, cfg)
    lam = (math.pi / L) ** 2
    theta = r - lam
    t = stack.order1.times.reshape((-1,) + (1,) * domain.dim)
    exact1 = np.exp(theta * t) * mode
    err1 = norm_l2(domain, stack.order1.u - exact1) / (norm_l2(domain, exact1) or 1.0)
    # u2 solves du2/dt = Lap u2 + r u2 - 2 mu e^{2 theta t} cos^2, u2(0) = 0;
    # modal split cos^2 = (1 + cos 2pi x/L)/2 gives two scalar ODEs
    lam2 = (2 * math.pi / L) ** 2
    a_t = mu * (np.exp(r * t) - np.exp(2 * theta * t)) / (2 * theta - r)
    b_t = mu * (np.exp((r - lam2) * t) - np.exp(2 * theta * t)) / (2 * theta - (r - lam2))
    exact2 = a_t + b_t * np.cos(2 * math.pi * x / L)
    err2 = norm_l2(domain, stack.order2.u - exact2) / (norm_l2(domain, exact2) or 1.0)
    return err1, err2


def _cfl_violated(domain, dt, chi=40.0):
    """Whether an advective run with the given drift strength trips the CFL bound."""
    p = ParameterSet(chi=chi, xi=0.0, r=0.5, mu=1.0)
    kin = KineticsSpec.from_parameters(p)
    cfg = SolverConfig(tau=0, dt=dt, t_final=2 * dt)
    x = domain.meshgrid()[-1]
    f = 1.0 + 0.9 * np.cos(math.pi * x / domain.lengths[-1])
    try:
        solve_forward(domain, (f, domain.zeros(), domain.zeros()), p, kin, cfg)
        return False
    except NumericsError:
        return True


# the refinement study on the unit interval: coarsest nodes, levels, final time, coarsest dt
STUDY_BASE_CELLS, STUDY_LEVELS, STUDY_T_FINAL, STUDY_DT0 = 33, 3, 0.24, 4e-3


def convergence_study():
    """Manufactured-solution errors and observed orders on a refinement ladder.

    Spatial sweep: halve h at a fine fixed dt; temporal sweep: halve dt on the
    finest grid.  A deliberately advective coarse level demonstrates the CFL
    flagging path (excluded from fits).
    """
    rows = []

    def add_rows(test, sweep, errors, meta):
        for i, err in enumerate(errors):
            order = None
            if i > 0 and errors[i - 1] > 0 and err > 0:
                order = math.log2(errors[i - 1] / err)
            cells, dt = meta[i]
            rows.append(StudyRow(test=test, sweep=sweep, level=i, cells=cells,
                                 dt=dt, error=err, order=order))

    dt_fine = STUDY_DT0 / 2 ** (STUDY_LEVELS + 1)
    cell_ladder = [(STUDY_BASE_CELLS - 1) * 2 ** i + 1 for i in range(STUDY_LEVELS)]

    # spatial sweep at fine dt
    errs, meta = [], []
    for n in cell_ladder:
        domain = Domain(1.0, n)
        errs.append(_heat_mode_error(domain, dt_fine, STUDY_T_FINAL, richardson_in_time=True))
        meta.append((n, dt_fine))
    add_rows("forward_heat", "spatial", errs, meta)

    errs, meta = [], []
    for n in cell_ladder:
        domain = Domain(1.0, n)
        errs.append(_elliptic_mode_error(domain))
        meta.append((n, 0.0))
    add_rows("elliptic", "spatial", errs, meta)

    # temporal sweep on the finest grid
    domain = Domain(1.0, cell_ladder[-1])
    dts = [STUDY_DT0 / 2 ** i for i in range(STUDY_LEVELS)]
    errs = [_heat_mode_error(domain, dt, STUDY_T_FINAL) for dt in dts]
    add_rows("forward_heat", "temporal", errs, [(cell_ladder[-1], dt) for dt in dts])

    err1s, err2s = [], []
    for dt in dts:
        e1, e2 = _variation_errors(domain, dt, STUDY_T_FINAL)
        err1s.append(e1)
        err2s.append(e2)
    add_rows("first_variation", "temporal", err1s, [(cell_ladder[-1], dt) for dt in dts])
    add_rows("second_variation", "temporal", err2s, [(cell_ladder[-1], dt) for dt in dts])

    # CFL demonstration on the coarsest level with a strong drift
    coarse = Domain(1.0, cell_ladder[0])
    if _cfl_violated(coarse, STUDY_DT0 * 4):
        rows.append(StudyRow(test="advective", sweep="temporal", level=0,
                             cells=cell_ladder[0], dt=STUDY_DT0 * 4, error=float("nan"),
                             order=None, flag="cfl-violation, excluded"))
    return rows


def study_rows_to_text(rows):
    lines = ["test               sweep     level cells dt          error        order  flag"]
    for r in rows:
        order = "" if r.order is None else f"{r.order:.2f}"
        lines.append(f"{r.test:<18s} {r.sweep:<9s} {r.level:<5d} {r.cells:<5d} "
                     f"{r.dt:<11.3e} {r.error:<12.4e} {order:<6s} {r.flag}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report rendering


def _estimate_text(val):
    if isinstance(val, SeparableEstimate):
        return f"separable(gamma0={aio.fmt(val.gamma0)}, misfit={val.misfit:.3e})"
    if isinstance(val, SeparableField):
        return "separable-field"
    if isinstance(val, np.ndarray):
        return f"field(mean={aio.fmt(float(np.mean(val)))}, min={aio.fmt(float(np.min(val)))}, max={aio.fmt(float(np.max(val)))})"
    return aio.fmt(val)


def report_to_text(report: RecoveryReport, truth: dict | None = None,
                   domain: Domain | None = None) -> str:
    lines = ["[pipeline]"]
    lines.append(f"oracle_runs = {report.oracle_runs}")
    lines.append(f"experiments = {' '.join(report.experiments_used)}")
    lines.append(f"complete = {report.complete}")
    for note in report.notes:
        lines.append(f"note = {note}")
    for stage in report.stages:
        lines.append("")
        lines.append(f"[stage.{stage.name}]")
        lines.append(f"status = {stage.status}")
        if stage.reason:
            lines.append(f"reason = {stage.reason}")
        for key in sorted(stage.estimates):
            lines.append(f"{key} = {_estimate_text(stage.estimates[key])}")
        for key in sorted(stage.residuals):
            lines.append(f"residual.{key} = {aio.fmt(stage.residuals[key])}")
        for key in sorted(stage.conditioning):
            lines.append(f"cond.{key} = {aio.fmt(stage.conditioning[key])}")
    if truth:
        lines.append("")
        lines.append("[truth-comparison]")
        for key in sorted(truth):
            if key in report.estimates:
                rel = relative_estimate_error(report.estimates[key], truth[key], domain)
                lines.append(f"rel_error.{key} = {aio.fmt(rel)}")
    return "\n".join(lines) + "\n"


def relative_estimate_error(est, truth, domain: Domain | None = None) -> float:
    """Relative gap between an estimate and a truth value (L2 for fields)."""
    fields = (np.ndarray, SeparableField)
    if isinstance(est, fields) or isinstance(truth, fields):
        if domain is None:
            raise ValueError("field comparison needs the domain")
        a = coefficient_on_grid(est, domain)
        b = coefficient_on_grid(truth, domain)
        scale = norm_l2(domain, b)
        return norm_l2(domain, a - b) / scale if scale > 0 else norm_l2(domain, a)
    # zero truth: the absolute error is the meaningful number
    scale = abs(float(truth))
    gap = abs(float(est) - float(truth))
    return gap / scale if scale > 0 else gap


def report_to_csv(report: RecoveryReport, truth: dict | None = None,
                  domain: Domain | None = None) -> str:
    lines = ["stage,name,estimate,truth,rel_error,residual,cond"]
    for stage in report.stages:
        for key in sorted(stage.estimates):
            est = stage.estimates[key]
            est_s = _estimate_text(est)
            truth_s, rel_s = "", ""
            if truth and key in truth:
                truth_s = _estimate_text(truth[key])
                rel_s = aio.fmt(relative_estimate_error(est, truth[key], domain))
            resid = stage.residuals.get(key, stage.residuals.get("fit", ""))
            resid_s = aio.fmt(resid) if resid != "" else ""
            cond = stage.conditioning.get(key, stage.conditioning.get("system", ""))
            cond_s = aio.fmt(cond) if cond != "" else ""
            lines.append(f"{stage.name},{key},\"{est_s}\",\"{truth_s}\",{rel_s},{resid_s},{cond_s}")
    return "\n".join(lines) + "\n"


def write_recovery_outputs(outdir, report: RecoveryReport, truth: dict | None,
                           domain: Domain):
    """Write a recovery's report and estimate files into the existing directory ``outdir``."""
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(report_to_text(report, truth, domain))
    with open(os.path.join(outdir, "report.csv"), "w") as fh:
        fh.write(report_to_csv(report, truth, domain))
    for key, val in sorted(report.estimates.items()):
        if isinstance(val, np.ndarray):
            aio.field_to_csv(os.path.join(outdir, f"estimate_{key}.csv"), domain, val)
        elif isinstance(val, SeparableEstimate):
            path = os.path.join(outdir, f"estimate_{key}_factors.csv")
            with open(path, "w") as fh:
                fh.write("axis,index,coordinate,value\n")
                for name, coords in (("transverse", domain.axes[0]), ("axial", domain.axes[-1])):
                    for i, (c, v) in enumerate(zip(coords, getattr(val, name))):
                        fh.write(f"{name},{i},{aio.fmt(c)},{aio.fmt(v)}\n")


# ---------------------------------------------------------------------------
# command-line interface


def _quiet_print(args, *items):
    if not getattr(args, "quiet", False):
        print(*items)


def _model(args, cfg: ExperimentConfig):
    """(domain, parameters, kinetics, solver configuration) of a command's run."""
    domain = cfg.domain()
    params = cfg.parameter_set(domain)
    return domain, params, cfg.kinetics(domain, params), cfg.solver_config(tau=args.tau)


def _outdir(args, cfg: ExperimentConfig) -> str:
    """A command's output directory, ``--out`` or else ``output.dir``, made if missing."""
    outdir = args.out or cfg.get("output.dir")
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    domain, params, kin, solver = _model(args, cfg)
    init = cfg.initial_data(domain)
    traj = solve_forward(domain, init, params, kin, solver)
    rec = measure(traj)
    outdir = _outdir(args, cfg)
    aio.trajectory_to_csv(os.path.join(outdir, "trajectory.csv"), traj)
    aio.trajectory_to_npz(os.path.join(outdir, "trajectory.npz"), traj)
    aio.measurement_to_csv(os.path.join(outdir, "measurement"), rec, domain)
    aio.measurement_to_npz(os.path.join(outdir, "measurement.npz"), rec, domain)
    _quiet_print(args, f"simulate: {len(traj)} stored slices -> {outdir}")
    return 0


def _cmd_linearize(args, cfg: ExperimentConfig) -> int:
    domain, params, kin, solver = _model(args, cfg)
    fam = cfg.perturbation_family(domain)
    direct = solve_variations(domain, params, kin, fam, solver)
    handle = ForwardHandle.from_model(domain, params, kin, solver)
    fd, ladder = extract_variation_fd(handle, fam, first_direct=direct.order1,
                                      return_ladder=True)
    rep = consistency_report(domain, direct, ladder)
    outdir = _outdir(args, cfg)
    aio.variation_stack_to_npz(os.path.join(outdir, "variation_direct.npz"), direct)
    aio.variation_stack_to_npz(os.path.join(outdir, "variation_fd.npz"), fd)
    aio.variation_stack_to_csv(os.path.join(outdir, "variation_direct.csv"), direct)
    with open(os.path.join(outdir, "consistency.txt"), "w") as fh:
        fh.write(rep.to_text() + "\n")
    _quiet_print(args, rep.to_text())
    return 0


def _cmd_recover(args, cfg: ExperimentConfig) -> int:
    domain, params, kin, solver = _model(args, cfg)
    oracle = Oracle(domain, params, kin, solver)
    options = cfg.pipeline_options(domain)
    report = run_full_pipeline(oracle, options)
    truth = params.as_dict()
    for label, (which, key) in SECOND_ORDER_KEYS.items():
        truth[label] = getattr(kin, f"{which}_coeffs").get(key, 0.0)
    outdir = _outdir(args, cfg)
    write_recovery_outputs(outdir, report, truth, domain)
    _quiet_print(args, f"recover: report in {outdir} "
                       f"({'complete' if report.complete else 'PARTIAL'})")
    if not report.complete:
        return 2
    if args.check:
        tol = cfg.get("pipeline.check_tol")
        for key, val in truth.items():
            if key not in report.estimates:
                continue
            # relative_estimate_error gives the absolute gap for a zero truth
            rel = relative_estimate_error(report.estimates[key], val, domain)
            degenerate = any(s.status == "degenerate" and key in s.estimates
                             for s in report.stages)
            if rel > tol and not degenerate:
                _quiet_print(args, f"check FAILED: {key} rel error {rel:.3e} > {tol}")
                return 3
        _quiet_print(args, "check passed")
    return 0


def _cmd_identcheck(args, cfg: ExperimentConfig) -> int:
    domain = cfg.domain()
    b1 = cfg.parameter_set(domain)
    kin = cfg.kinetics(domain, b1)   # the sweep perturbs the linear model's eight parameters
    for label, (which, key) in SECOND_ORDER_KEYS.items():
        if key in getattr(kin, f"{which}_coeffs"):
            raise ValueError(f"identcheck runs linear kinetics only; kinetics.{label} must be 0")
    solver = cfg.solver_config(tau=args.tau)
    init = cfg.initial_data(domain)
    match_tol, reports = identifiability_sweep(
        domain, b1, init, solver,
        n_trials=cfg.get("ident.trials"), seed=cfg.get("ident.seed"))
    self_rep = identifiability_experiment(domain, b1, b1, init, solver, match_tol)
    outdir = _outdir(args, cfg)
    violations = [r for r in reports if r.verdict == "violation"]
    with open(os.path.join(outdir, "identcheck.csv"), "w") as fh:
        fh.write("trial,parameter_distance,measurement_distance,match_tol,verdict\n")
        fh.write(f"self,{aio.fmt(self_rep.parameter_distance)},"
                 f"{aio.fmt(self_rep.measurement_distance)},{aio.fmt(match_tol)},"
                 f"{self_rep.verdict}\n")
        for i, r in enumerate(reports):
            fh.write(f"{i},{aio.fmt(r.parameter_distance)},"
                     f"{aio.fmt(r.measurement_distance)},{aio.fmt(match_tol)},{r.verdict}\n")
    _quiet_print(args, f"identcheck: match_tol={match_tol:.3e}, "
                       f"{len(violations)} violations / {len(reports)} trials, "
                       f"self distance {self_rep.measurement_distance:.3e}")
    if args.check and (violations or self_rep.verdict != "consistent"):
        return 3
    return 0


def _cmd_convergence(args, cfg: ExperimentConfig) -> int:
    rows = convergence_study()
    text = study_rows_to_text(rows)
    outdir = _outdir(args, cfg)
    with open(os.path.join(outdir, "convergence.txt"), "w") as fh:
        fh.write(text + "\n")
    with open(os.path.join(outdir, "convergence.csv"), "w") as fh:
        fh.write("test,sweep,level,cells,dt,error,order,flag\n")
        for r in rows:
            order = "" if r.order is None else aio.fmt(r.order)
            fh.write(f"{r.test},{r.sweep},{r.level},{r.cells},{aio.fmt(r.dt)},"
                     f"{aio.fmt(r.error)},{order},{r.flag}\n")
    _quiet_print(args, text)
    return 0


# subcommand -> (handler, help)
_COMMANDS = {
    "simulate": (_cmd_simulate, "forward run, trajectory and measurement files"),
    "linearize": (_cmd_linearize, "variation stacks and fd-vs-direct consistency table"),
    "recover": (_cmd_recover, "full parameter-recovery pipeline"),
    "identcheck": (_cmd_identcheck, "identifiability experiments"),
    "convergence": (_cmd_convergence, "refinement study"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="archemo",
        description="Attraction-repulsion chemotaxis laboratory: simulation and parameter recovery")
    parser.add_argument("--config", help="path to a key=value configuration file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--tau", type=int, choices=(0, 1), default=None,
                        help="override the time-scale switch")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--check", action="store_true",
                       help="return exit code 3 when the self-test tolerances fail")
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.config:
            cfg = ExperimentConfig.from_file(args.config)
        else:
            cfg = ExperimentConfig()
        return _COMMANDS[args.command][0](args, cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericsError, RecoveryError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())
