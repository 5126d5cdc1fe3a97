"""The four benchmark workloads: seeded inputs, the timed operation, and its checks.

Every check is computed here, apart from the program: estimates are compared
with the truth the benchmark drew, and the identifiability sweep with the
properties the paper proves.  No check reads stored output.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from archemo.forward import KineticsSpec, ParameterSet, SeparableField, SolverConfig
from archemo.grid import Domain
from archemo.harness import cli
from archemo.recover import Oracle, PipelineOptions, run_full_pipeline

# the nondegenerate applied truth (alpha != gamma, beta != delta), so chi and xi
# are separately identifiable at tau = 0
APPLIED = dict(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)
# each parameter is drawn uniformly within +-4 % of APPLIED: over +-10 % the tau = 0
# xi error exceeds the 5 % tolerance on some truths (see perfbench/README.md)
BOX = 0.04
PARAM_TOL = 0.05         # acceptance tolerance on each recovered parameter
ZERO_TOL = 0.02          # absolute tolerance on zero-truth second-order entries
SECOND_ORDER = ("a11", "a20", "a02", "b11", "b20", "b02")
IDENT_CONFIG = os.path.join("configs", "identcheck.cfg")
# the median trial's measurement distance must reach this multiple of match_tol;
# over ident.seed 0-99 the lowest median was 64.3 (see perfbench/README.md)
MEDIAN_MARGIN = 30.0


def draw_truth(seed):
    rng = np.random.default_rng(seed)
    return {k: v * (1.0 + rng.uniform(-BOX, BOX)) for k, v in APPLIED.items()}


def trapezoid_weights(n):
    """Trapezoid quadrature weights on n equispaced nodes of [0, 1]."""
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def rel_l2(w, est, ref):
    est, ref = np.asarray(est, dtype=float), np.asarray(ref, dtype=float)
    return math.sqrt(np.sum(w * (est - ref) ** 2) / np.sum(w * ref ** 2))


def _check_params(failures, errors, estimates, truth, names):
    for k in names:
        if k not in estimates:
            failures.append(f"{k}: no estimate")
            continue
        rel = errors[k] = abs(float(estimates[k]) - truth[k]) / abs(truth[k])
        if not rel <= PARAM_TOL:
            failures.append(f"{k}: rel error {rel:.3e} > {PARAM_TOL}")


def _check_zero(failures, estimates, names):
    for k in names:
        if k not in estimates:
            failures.append(f"{k}: no estimate")
        elif not abs(float(estimates[k])) <= ZERO_TOL:
            failures.append(f"{k}: |{float(estimates[k]):.3e}| > {ZERO_TOL}")


class Recovery1D:
    """Full recovery on 129 nodes, dt 5e-4, T = 1, at tau 0 or 1."""

    def __init__(self, tau):
        self.tau = tau

    def build(self, seed, root, tmp):
        truth = draw_truth(seed)
        params = ParameterSet(**truth)
        domain = Domain(1.0, 129)
        oracle = Oracle(domain, params, KineticsSpec.from_parameters(params),
                        SolverConfig(tau=self.tau, dt=5e-4, t_final=1.0))
        return {"truth": truth, "oracle": oracle, "errors": {},
                "options": PipelineOptions(recover_fields=False)}

    def run(self, state):
        return run_full_pipeline(state["oracle"], state["options"])

    def check(self, state, report):
        failures = []
        est = report.estimates
        _check_params(failures, state["errors"], est, state["truth"], APPLIED)
        _check_zero(failures, est, SECOND_ORDER)
        for stage in report.stages:
            if stage.status != "ok":
                failures.append(f"stage {stage.name}: {stage.status} ({stage.reason})")
        if not report.complete or len(report.stages) != 4:
            failures.append("report incomplete")
        return failures


class Separable2D:
    """65 x 65 grid, tau 0, dt 1e-3, T 0.5, store_every 4, a02 = cos(pi x1)(1 + x2)/4."""

    def build(self, seed, root, tmp):
        truth = draw_truth(seed)
        params = ParameterSet(**truth)
        domain = Domain((1.0, 1.0), (65, 65))
        a02 = SeparableField(transverse=np.cos(math.pi * domain.axes[0]),
                             axial=(1.0 + domain.axes[1]) / 4.0)
        kin = KineticsSpec.from_parameters(params, second_order_g={(0, 2): a02})
        oracle = Oracle(domain, params, kin,
                        SolverConfig(tau=0, dt=1e-3, t_final=0.5, store_every=4))
        options = PipelineOptions(recover_fields=False,
                                  declared_separable={"a02": a02.axial_integral(domain)})
        return {"truth": truth, "oracle": oracle, "options": options, "a02": a02, "errors": {}}

    def run(self, state):
        return run_full_pipeline(state["oracle"], state["options"])

    def check(self, state, report):
        failures = []
        est = report.estimates
        _check_params(failures, state["errors"], est, state["truth"],
                      ("r", "alpha", "beta", "gamma", "delta"))
        _check_zero(failures, est, ("a11", "a20", "b11", "b20", "b02"))
        a02, sep = state["a02"], est.get("a02")
        if sep is None or not hasattr(sep, "transverse"):
            failures.append("a02: no separable estimate")
        else:
            # the declared gauge fixes the axial integral, so the factors compare directly
            w = trapezoid_weights(65)
            for part in ("transverse", "axial"):
                rel = state["errors"][f"a02.{part}"] = rel_l2(w, getattr(sep, part),
                                                              getattr(a02, part))
                if not rel <= PARAM_TOL:
                    failures.append(f"a02 {part}: rel L2 {rel:.3e} > {PARAM_TOL}")
        if not report.complete:
            failures.append("report incomplete")
        return failures


class IdentCheck:
    """``archemo identcheck`` on configs/identcheck.cfg with ``ident.seed`` = the seed."""

    def build(self, seed, root, tmp):
        with open(os.path.join(root, IDENT_CONFIG)) as fh:
            text = fh.read()
        cfg = os.path.join(tmp, "identcheck.cfg")
        with open(cfg, "w") as fh:
            fh.write(text + f"\nident.seed = {seed}\n")
        out = os.path.join(tmp, "out")
        return {"argv": ["--config", cfg, "--out", out, "--quiet", "identcheck"], "out": out,
                "errors": {}}

    def run(self, state):
        return cli(state["argv"])

    def check(self, state, code):
        if code != 0:
            return [f"identcheck exit code {code}"]
        with open(os.path.join(state["out"], "identcheck.csv")) as fh:
            rows = list(csv.DictReader(fh))
        failures = []
        self_rows = [r for r in rows if r["trial"] == "self"]
        trials = [r for r in rows if r["trial"] != "self"]
        if len(self_rows) != 1 or not trials:
            return ["identcheck.csv lacks the self row or the trials"]
        match_tol = float(self_rows[0]["match_tol"])
        if not match_tol > 0:
            return [f"match_tol {match_tol} is not positive"]
        # the solver is deterministic, so identical parameters give identical measurements
        if float(self_rows[0]["measurement_distance"]) != 0.0:
            failures.append(f"self distance {self_rows[0]['measurement_distance']} != 0")
        ratios = [float(r["measurement_distance"]) / match_tol for r in trials]
        state["errors"]["min_distance_over_match_tol"] = min(ratios)
        median = state["errors"]["median_distance_over_match_tol"] = float(np.median(ratios))
        if not median >= MEDIAN_MARGIN:
            failures.append(f"median measurement distance {median:.3g} x match_tol "
                            f"< {MEDIAN_MARGIN:g} x")
        for r in trials:
            pdist, mdist = float(r["parameter_distance"]), float(r["measurement_distance"])
            if not pdist >= PARAM_TOL:
                failures.append(f"trial {r['trial']}: parameter distance {pdist:.3e} < {PARAM_TOL}")
            # distinct parameters must give measurements farther apart than the
            # discretization error; a wider per-trial margin fails on some seeds,
            # since the lowest trial ratio over ident.seed 0-99 was 3.6
            if not (mdist > match_tol and r["verdict"] == "consistent"):
                failures.append(f"trial {r['trial']}: measurement distance {mdist:.3e} "
                                f"<= match_tol {match_tol:.3e} ({r['verdict']})")
        return failures


WORKLOADS = {
    "recover_tau0_1d": Recovery1D(tau=0),
    "recover_tau1_1d": Recovery1D(tau=1),
    "recover_sep2d": Separable2D(),
    "identcheck_1d": IdentCheck(),
}

