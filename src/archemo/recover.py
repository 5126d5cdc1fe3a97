"""Constructive parameter identification from measurement-map queries.

The pipeline interrogates a forward model (the "oracle") exclusively through
probing initial data, extracts first- and second-order variations of the
solution map by one-sided finite differences, and inverts the same linear
identities that underpin the uniqueness theory, stage by stage:

1. growth rate r from modal decay rates of the first variation;
2. linear kinetic coefficients (alpha, beta) and (gamma, delta) from one
   regression per chemical on its balance law, the sources pointwise in space
   for coefficients that vary transversally;
3. chemotactic sensitivities chi, xi and the competition strength mu from a
   pointwise space-time least squares on the second-variation residual of
   the density equation, cross-checked against the parabolic probe-weighted
   identities;
4. second-order kinetic coefficients from the chemical second-variation
   residual, with declared-separable entries factorized through the moment
   machinery.

Every estimator inverts the discrete-in-time relations the solver actually
satisfies (growth factors per step rather than continuum exponents), so the
stages are exact on noiseless data up to the finite-difference extraction
error of order eps.  Each relation is written once, so a stage that should
invert a different one swaps a single function:

- modal decay rates (stage 1): :func:`_modal_rates`, inverted per step by
  :func:`rate_to_growth`;
- the chemical balance (stages 2 and 4): :func:`_chemical_balance`;
- the density step (stage 3): :func:`forward.step_source` with step dt, the
  inverse of :meth:`forward.StepPlan.implicit`, the one implicit solve that
  :func:`forward.step` and :func:`variation.solve_variations` both step through.

Stage 1's probe integrals contract each stored slice against one weighted field.
Stages 2 and 4 regress per node on the chemical balance in one way:
:func:`_chemical_balance` yields balance + decay * chemical over blocks of whole slices of
about BALANCE_BLOCK_NODES nodes, and :func:`_node_gram` sums each block's weighted row
products into per-node Gram entries, each block seeded with the running sums, so every
entry adds in the order of one sum over all times and no full-length row exists.  Stage 2
reads the Gram of (balance, u1, chemical) of each chemical of lin, eliminates the source
per node and pools the decay over the nodes; stage 4 forms the node-major (nodes, 4, 4)
Gram of [u1*chem1, 2*u1^2, 2*chem1^2 | rhs] for one experiment and chemical at a time.
Stage 3 reduces its regression to the Gram matrix of [regressors | rhs] over blocks of
REGRESSOR_BLOCK steps with at most about eight block arrays alive.

Stages 1-2 probe with the chi family whose modes are MODE_INDICES, so the four stages
share its stack.  Its chemical data does not disturb them: at the trivial equilibrium
the first-order density solves du1/dt = Lap u1 + r u1 whatever the chemicals' initial
data, and each chemical's balance with it holds for any.  So a recovery extracts three
families at tau=0 and four at tau=1, where stage 4 adds a source-free chemical probe,
"chem".

The pipeline holds only what its stages still read.  The run S(0) from the trivial
equilibrium is zero and known without a query (:func:`variation.known_base`).
:func:`run_full_pipeline` runs stage 4, which needs only stage 2, before stage 3 and
reports the stages in paper order.  Its :class:`ExperimentBank` keeps of each family
only the parts its later reads use (a chi family: the order 1 and order2.u of stage
3), and stage 4 reads each experiment once, cached families first.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as g
from . import probes as pr
from .errors import RecoveryError
from .forward import (
    SECOND_ORDER_KEYS,
    EquilibriumState,
    KineticsSpec,
    ParameterSet,
    SolverConfig,
    coefficient_on_grid,
    solve_forward,
    step_source,
)
from .grid import Domain
from .variation import (
    DEFAULT_EPSILONS,
    ForwardHandle,
    PerturbationFamily,
    extract_variation_fd,
)

__all__ = [
    "Oracle",
    "PipelineOptions",
    "Experiment",
    "ExperimentBank",
    "axial_mode_profile",
    "recover_r",
    "recover_linear_kinetics",
    "recover_chi_xi_mu",
    "recover_second_kinetics",
    "run_full_pipeline",
    "RecoveryReport",
    "StageRecord",
    "SeparableEstimate",
    "fit_exponential_rate",
    "rate_to_growth",
]


# ---------------------------------------------------------------------------
# the oracle


class Oracle:
    """Deterministic forward map (f, g, h) -> trajectory.

    The truth parameters live in private attributes; recovery code only runs
    the model through a :meth:`handle` and reads the public protocol (grid,
    solver config, declared expansion equilibrium).  A handle solves on every
    query.  Its base run S(0) (:meth:`ForwardHandle.base`) is known without a
    query at the trivial equilibrium; at a populated one the handle solves it
    once and keeps it.  A recovery holds one handle, so once it has finished
    no trajectory it integrated stays reachable from the oracle.

    ``run_count`` counts the solves of all handles, and ``query_count`` reads
    it: every query is one solve, and a known base run is neither.
    """

    def __init__(self, domain: Domain, params: ParameterSet, kinetics: KineticsSpec,
                 cfg: SolverConfig):
        self.domain = domain
        self.cfg = cfg
        self._params = params.validate(domain)
        self._kinetics = kinetics.validate(domain)
        self.run_count = 0

    @property
    def equilibrium(self) -> EquilibriumState:
        """Known constant solution around which probing data is expanded."""
        return self._kinetics.expansion_point

    @property
    def tau(self) -> int:
        return self.cfg.tau

    @property
    def query_count(self) -> int:
        return self.run_count

    def handle(self) -> ForwardHandle:
        """A forward handle that solves every query (:meth:`ForwardHandle.of_solver`)
        into the store it is given, so that an extraction folds each run as it is solved."""
        def _run(f, gg, h, store=None):
            self.run_count += 1
            return solve_forward(self.domain, (f, gg, h), self._params, self._kinetics,
                                 self.cfg, store=store)
        return ForwardHandle.of_solver(self.domain, self.equilibrium, _run, self.cfg)


# ---------------------------------------------------------------------------
# options and experiments


# axial modes of the density probe of stages 1-2, one pattern of CHI_MODE_PATTERNS
MODE_INDICES = (1, 2)
# stage 2 regresses only where |u1| reaches this fraction of its largest value
U_FLOOR_REL = 1e-4
# stage 3 reports chi, xi as degenerate above this condition number of its normal matrix
COND_LIMIT = 1e6
# axial modes mixed into each second-order probing profile
CHI_MODE_PATTERNS = ((1,), (2,), (1, 2))
# parabolic probes of the stage-3 identity check, zeta_n in units of pi / L_n
PROBE_ZETA_MULTIPLIERS = (0.0, 1.0, 2.0, 3.0)
# stage 1 fails when the modal r estimates spread beyond this many fit sigmas,
# or when the probe-integral balance leaves a larger relative residual than CGO_CHECK_TOL
MODE_SIGMA_FACTOR = 3.0
CGO_CHECK_TOL = 0.1
# stage-3 least-squares passes; each after the first freezes the upwind
# pattern of the previous pass's (chi, xi)
PATTERN_PASSES = 2
# stage 3 builds its regressors for this many time steps at a time; it bounds the
# block temporaries, at most about eight arrays of this many fields (the four
# stacked rows of a block among them)
REGRESSOR_BLOCK = 64
# stages 2 and 4 form their chemical balances, regression rows and Gram sums over
# blocks of whole slices of about this many nodes (at least one slice), small enough
# that their temporaries stay few
BALANCE_BLOCK_NODES = 16384
# an exponential-rate fit keeps the samples down to this fraction of the largest
# amplitude, and fails above this rms residual of its log-linear fit
FIT_REL_FLOOR = 1e-6
FIT_TOL = 1e-2
# the parts of a variation stack that a read of an ExperimentBank names
STACK_PARTS = ("order1.u", "order1.v", "order1.w", "order2.u", "order2.v", "order2.w")


@dataclass
class PipelineOptions:
    epsilons: tuple = DEFAULT_EPSILONS
    declared_separable: dict = field(default_factory=dict)   # entry -> declared Gamma_0
    recover_fields: bool | None = None    # None: fields in 2D, constants in 1D


@dataclass(frozen=True)
class Experiment:
    name: str
    fam: PerturbationFamily


def axial_mode_profile(domain: Domain, offset: float, pairs, axis: int = -1) -> np.ndarray:
    """offset + sum_k amp_k cos(k pi x / L) along ``axis`` (by default the last,
    axial one), constant across the other axes."""
    ax, L = domain.axes[axis], domain.lengths[axis]
    prof = np.full(domain.cells[axis], float(offset))
    for k, amp in pairs:
        prof = prof + amp * np.cos(k * math.pi * ax / L)
    shape = [1] * domain.dim
    shape[axis] = -1
    return np.broadcast_to(prof.reshape(shape), domain.shape).copy()


def _axial_mode(domain: Domain, k: int) -> pr.EigenMode:
    index = (0,) * (domain.dim - 1) + (int(k),)
    return pr.neumann_eigenmode(domain, index)


class ExperimentBank:
    """Caches one finite-difference variation stack per distinct probing family.

    Stacks are keyed by the family's content (profiles and eps ladder), so
    experiments that probe with identical data share one stack whatever their
    names.  Each family is extracted once, both orders together, so its ladder
    runs are solved once and each run is freed once folded in.  ``reads`` lists
    (experiment, parts of STACK_PARTS) per :meth:`stack` call of the bank's callers,
    in call order.  A read returns the stack as kept, then the bank keeps only the
    parts its family's later listed reads name (:func:`_keep`), and none after the
    last; it caches whole every stack it was not told about.  The bank queries the oracle through one handle, which goes with
    the bank.  ``used`` names the experiments read, in the order of their first use.
    """

    def __init__(self, oracle: Oracle, reads=()):
        self.oracle = oracle
        self._handle = oracle.handle()
        self._stacks, self._reads_left = {}, {}
        for exp, parts in reads:
            self._reads_left.setdefault(self._family_key(exp.fam), []).append(parts)
        self.used = []

    def _family_key(self, fam: PerturbationFamily):
        domain = self.oracle.domain
        profiles = tuple(fam.profile(name, domain).tobytes() for name in fam.PROFILES)
        return profiles, tuple(float(e) for e in fam.epsilons)

    def _note(self, exp: Experiment):
        if exp.name not in self.used:
            self.used.append(exp.name)

    def stack(self, exp: Experiment):
        key = self._family_key(exp.fam)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = extract_variation_fd(self._handle, exp.fam)
        self._note(exp)
        later = self._reads_left.get(key)
        if later:
            later.pop(0)
            if later:
                self._stacks[key] = _keep(stack, {part for parts in later for part in parts})
            else:
                del self._reads_left[key], self._stacks[key]
        return stack

    def stacks(self, exps):
        """(i, stack of ``exps[i]``) for every experiment, one read each: the cached
        families first, so that each can be dropped before the next is extracted.
        ``used`` records the experiments in their given order."""
        for exp in exps:
            self._note(exp)
        cached = [self._family_key(exp.fam) in self._stacks for exp in exps]
        for i in sorted(range(len(exps)), key=lambda i: not cached[i]):
            yield i, self.stack(exps[i])


def _keep(stack, parts):
    """A copy of ``stack`` without the components outside ``parts``: reading one of
    them raises AttributeError, so it never reads as zeros or stale data."""
    kept = replace(stack, order1=copy.copy(stack.order1), order2=copy.copy(stack.order2))
    for part in set(STACK_PARTS) - parts:
        order, name = part.split(".")
        vars(getattr(kept, order)).pop(name, None)
    return kept


def _default_lin_experiment(domain, options, tau) -> dict:
    """The density probe "lin" of stages 1-2 and, at tau=1, the chemical probe "chem" of
    stage 4.  lin is the chi family whose modes are MODE_INDICES, its chemical data
    included, so that one stack serves stages 1-4.  It may carry chemical data: at the
    trivial equilibrium the first-order density solves du1/dt = Lap u1 + r u1 whatever
    the chemicals' initial data, and each chemical's balance with it holds for any.
    chem probes both chemicals with lin's density profile and leaves the density
    unperturbed."""
    if MODE_INDICES not in CHI_MODE_PATTERNS:
        raise ValueError(f"no pattern of CHI_MODE_PATTERNS {CHI_MODE_PATTERNS} equals "
                         f"MODE_INDICES {MODE_INDICES}, so stages 1-2 have no density probe")
    fam = _chi_family(domain, options, tau, CHI_MODE_PATTERNS.index(MODE_INDICES))
    exps = {"lin": Experiment("lin", fam)}
    if tau == 1:
        # a source-free chemical probe (no density variation) gives stage 4 data in which
        # only the chemicals vary: without it, a11 and a02 read about ten times worse
        exps["chem"] = Experiment("chem", PerturbationFamily(g1=fam.f1, h1=fam.f1,
                                                             epsilons=fam.epsilons))
    return exps


def _chi_family(domain, options, tau, i) -> PerturbationFamily:
    """The probing family of pattern i of CHI_MODE_PATTERNS: the density 1 plus its
    modes, 0.9 shared between them; at tau=1 also g1 (even i) or h1 (odd i), 1 plus
    0.9 times the pattern's first mode."""
    pattern = CHI_MODE_PATTERNS[i]
    weight = 0.9 / len(pattern)
    prof = axial_mode_profile(domain, 1.0, [(k, weight) for k in pattern])
    chem = {}
    if tau == 1:
        # independent chemical initial data decouples the attractant from the
        # repellent channel even when their balance laws coincide; without it
        # only chi - xi would be identifiable
        chem["g1" if i % 2 == 0 else "h1"] = axial_mode_profile(domain, 1.0, [(pattern[0], 0.9)])
    return PerturbationFamily(f1=prof, epsilons=options.epsilons, **chem)


def _default_chi_experiments(domain, options, tau=0) -> list:
    return [Experiment(f"second-{i}", _chi_family(domain, options, tau, i))
            for i in range(len(CHI_MODE_PATTERNS))]


# ---------------------------------------------------------------------------
# shared estimator pieces


def fit_exponential_rate(times, amps):
    """Slope of log |amplitude| against time; returns (theta, sigma, rms_residual).

    Samples are trimmed to the initial window where the amplitude stays above
    FIT_REL_FLOOR times its maximum; below that the extraction noise dominates
    and the history is no longer informative about the rate.
    """
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amps, dtype=float)
    floor = FIT_REL_FLOOR * float(np.max(np.abs(amps)))
    below = np.flatnonzero(np.abs(amps) < floor)
    keep = int(below[0]) if below.size else len(amps)
    if keep < 5:
        raise RecoveryError("modal amplitude decays below the noise floor almost immediately")
    times, amps = times[:keep], amps[:keep]
    if np.any(amps == 0) or (np.min(amps) < 0 < np.max(amps)):
        raise RecoveryError("modal amplitude changes sign or vanishes; decay is not exponential")
    y = np.log(np.abs(amps))
    A = np.vstack([times, np.ones_like(times)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    resid = y - fitted
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if rms > FIT_TOL:
        raise RecoveryError(
            f"modal history is not exponential (log-fit rms {rms:.3e} > {FIT_TOL:.1e}); "
            "model mismatch")
    n = len(times)
    denom = float(np.sum((times - times.mean()) ** 2))
    sigma = math.sqrt(max(np.sum(resid ** 2), 1e-300) / max(n - 2, 1) / denom) if denom > 0 else 0.0
    return float(coef[0]), sigma, rms


def rate_to_growth(theta_hat, lam_h, dt):
    """Invert a fitted modal rate for r through the growth factor per step,
    (1 + dt r)/(1 + dt lam_h)."""
    growth = math.exp(theta_hat * dt)
    return (growth * (1.0 + dt * lam_h) - 1.0) / dt


def _modal_rates(domain, times, series):
    """(k, lam_h, theta, sigma) per axial mode k of (0,) + MODE_INDICES: the fitted
    exponential rate theta, and its sigma, of the mode's amplitude in ``series``."""
    rates = []
    for k in (0,) + MODE_INDICES:
        mode = _axial_mode(domain, k)
        theta, sigma, _ = fit_exponential_rate(times, pr.modal_amplitude(domain, series, mode))
        rates.append((k, mode.lam_h, theta, sigma))
    return rates


def _chemical_balance(oracle, chem, decay, n):
    """(block, balance + decay * chem) over consecutive blocks of whole slices of about
    BALANCE_BLOCK_NODES nodes (at least one), in time order, up to slice n.  The balance
    is the kinetics G (or H) that the chemical variation series ``chem`` balances: by
    0 = Lap c + G, -Lap c of every slice at tau=0; by the chemical step of size s dt,
    its step source (:func:`forward.step_source`) at tau=1, which reads each block's
    next slice too, so n is at most len(chem) - tau."""
    domain, cfg = oracle.domain, oracle.cfg
    step = max(1, BALANCE_BLOCK_NODES // domain.node_count)
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        span = chem[start:block.stop + cfg.tau]
        if cfg.tau == 0:
            balance = -g.laplacian_neumann(domain, span)
        else:
            balance = step_source(domain, span, cfg.relaxation_speedup * cfg.dt)
        balance += decay * chem[block]
        yield block, balance
        del balance


def _node_gram(blocks):
    """Per node, the time sums of w * row_k * row_j for k <= j, multiplied in that
    order, keyed (k, j).  ``blocks`` yields (w, rows) for consecutive blocks of slices
    in time order, w broadcasting to each row.  Each block's first product slice is
    seeded with the running sum, so each sum adds in the order of one np.sum over axis
    0 of all the products.  A block's weighted row and product reuse two buffers, and
    the block is let go before the next is formed."""
    sums = {}
    for w, rows in blocks:
        weighted, terms = np.empty((2,) + rows[0].shape)
        for k, row in enumerate(rows):
            np.multiply(w, row, out=weighted)
            for j in range(k, len(rows)):
                np.multiply(weighted, rows[j], out=terms)
                if (k, j) in sums:
                    terms[0] += sums[k, j]
                sums[k, j] = np.add.reduce(terms, axis=0)
        del w, rows, row, weighted, terms
    return sums


def _project_axial_independent(domain, fld):
    """Average along the last axis (the declared independent coordinate)."""
    if domain.dim == 1:
        return fld
    w = domain.axis_weights[-1]
    proj = fld @ (w / w.sum())
    return np.broadcast_to(proj[:, None], domain.shape).copy()


# ---------------------------------------------------------------------------
# stage 1: growth rate


@dataclass
class StageRecord:
    name: str
    status: str = "ok"
    reason: str = ""
    estimates: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    conditioning: dict = field(default_factory=dict)
    experiments: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def recover_r(oracle: Oracle, options: PipelineOptions | None = None,
              bank: ExperimentBank | None = None) -> StageRecord:
    """Growth rate from the decay of the constant and the MODE_INDICES modes of the
    first variation, plus a probe check."""
    options = options or PipelineOptions()
    bank = bank or ExperimentBank(oracle)
    exps = _default_lin_experiment(oracle.domain, options, oracle.tau)
    stack = bank.stack(exps["lin"])
    domain, dt = oracle.domain, oracle.cfg.dt
    u1 = stack.order1.u
    times = stack.order1.times

    fd_floor = max(stack.diagnostics.get("order1_corrections", [0.0])[-1], 1e-14)
    scale = float(np.max(np.abs(u1))) or 1.0
    estimates, sigmas, details = [], [], {}
    for k, lam, theta, sigma in _modal_rates(domain, times, u1):
        r_k = rate_to_growth(theta, lam, dt)
        estimates.append(r_k)
        sigmas.append(max(sigma, fd_floor / scale, 1e-10))
        details[f"theta_{k}"] = theta
        details[f"r_from_mode_{k}"] = r_k
    r_hat = float(np.mean(estimates))
    for r_k, sig in zip(estimates, sigmas):
        if abs(r_k - r_hat) > MODE_SIGMA_FACTOR * max(sig, 1e-8) + 1e-9:
            raise RecoveryError(
                f"r estimates disagree across modes beyond {MODE_SIGMA_FACTOR} sigma: "
                f"{estimates}")

    cgo_rel = _cgo_rate_check(domain, times, u1, r_hat)
    if cgo_rel > CGO_CHECK_TOL:
        raise RecoveryError(
            f"probe-integral cross-check failed: relative residual {cgo_rel:.3e} "
            f"with the estimated growth rate")
    return StageRecord(
        name="r",
        estimates={"r": r_hat},
        residuals={"mode_spread": float(np.max(estimates) - np.min(estimates)),
                   "cgo_residual": cgo_rel},
        conditioning={},
        experiments=[exps["lin"].name],
        details=details,
    )


def _cgo_rate_check(domain, times, u1, r_hat):
    """Relative residual of the probe-weighted balance at the estimated rate.  The
    probe is e^{a t} phi(x), so each of its integrals contracts the slices of u1
    against one weighted field."""
    zeta = np.zeros(domain.dim)
    zeta[-1] = math.pi / domain.lengths[-1]
    probe = pr.cgo_parabolic(zeta, r_hat)
    tfac = np.exp(probe.time_exponent * times)
    ends = pr.slice_projections(u1[[0, -1]], probe.sample_space(domain) * domain.weights)
    endpoint = ends[1] * tfac[-1] - ends[0] * tfac[0]
    per_time = pr.slice_projections(u1, probe.weighted_normal_derivative(domain)) * tfac
    boundary = np.sum(g.time_weights(times) * per_time)
    residual = endpoint + boundary
    scale = abs(pr.weighted_integral(domain, times, np.abs(u1), probe)) + 1e-300
    return abs(residual) / scale


# ---------------------------------------------------------------------------
# stage 2: linear kinetics


# (chemical, its source, its decay) of the two chemical equations
_LINEAR_PAIRS = (("v", "alpha", "beta"), ("w", "gamma", "delta"))


def recover_linear_kinetics(oracle: Oracle, options: PipelineOptions | None = None,
                            bank: ExperimentBank | None = None) -> StageRecord:
    """(alpha, beta) and (gamma, delta) from the chemical balances of the first variation
    of "lin", which need no earlier estimate.

    The balance of chemical c (:func:`_chemical_balance`) is source * u1 - decay * c at
    every node, so one per-node Gram G (:func:`_node_gram`) of (balance, u1, c) over time
    gives both, under the trapezoid weights masked where |u1| is below U_FLOOR_REL of its
    largest value.  With the source eliminated per node and the node weights w, the decay
    is -sum w (G02 - G01 G12 / G11) / sum w (G22 - G12^2 / G11), and the source field
    (G01 + decay G12) / G11, projected to its axially independent part (``recover_fields``)
    or averaged.  conditioning[decay] is sum w G22 / sum w (G22 - G12^2 / G11), the
    inflation of the decay's variance by the part of c that u1 explains."""
    options = options or PipelineOptions()
    bank = bank or ExperimentBank(oracle)
    domain = oracle.domain
    if oracle.tau == 1:
        _require_stride_one(oracle, "tau=1 linear-kinetics recovery")
    exp = _default_lin_experiment(domain, options, oracle.tau)["lin"]
    want_fields = (options.recover_fields if options.recover_fields is not None
                   else domain.dim > 1)
    lin = bank.stack(exp).order1
    u, w = lin.u, domain.weights
    n = len(u) - oracle.tau       # the slices that _chemical_balance returns
    floor = U_FLOOR_REL * (max(float(np.max(u)), -float(np.min(u))) or 1.0)
    wt = g.time_weights(lin.times[:n]).reshape((-1,) + (1,) * domain.dim)

    def rows(c):
        for block, balance in _chemical_balance(oracle, c, 0.0, n):
            yield wt[block] * (np.abs(u[block]) >= floor), (balance, u[block], c[block])
            del balance

    rec = StageRecord(name="linear_kinetics", experiments=[exp.name])
    for comp, src_name, decay_name in _LINEAR_PAIRS:
        gram = _node_gram(rows(lin.component(comp)))
        den = gram[1, 1]
        if not np.any(den > 0):
            raise RecoveryError("probe too weak: first variation below the masking floor everywhere")
        if not np.all(den > 0):
            raise RecoveryError("probe too weak: some nodes receive no usable samples")
        c_left = float(np.sum(w * (gram[2, 2] - gram[1, 2] ** 2 / den)))
        decay = -float(np.sum(w * (gram[0, 2] - gram[0, 1] * gram[1, 2] / den))) / c_left
        if decay <= 0:
            raise RecoveryError(f"recovered decay {decay_name} is {decay:.3e}; violates positivity")
        fld = (gram[0, 1] + decay * gram[1, 2]) / den
        if want_fields:
            proj = _project_axial_independent(domain, fld)
            misfit = g.norm_l2(domain, fld - proj) / (g.norm_l2(domain, fld) or 1.0)
            rec.residuals[f"{src_name}_projection_misfit"] = misfit
            rec.estimates[src_name] = proj
        else:
            rec.estimates[src_name] = float(np.sum(w / w.sum() * fld))
            rec.residuals[f"{src_name}_spatial_spread"] = float(np.max(fld) - np.min(fld))
        rec.estimates[decay_name] = decay
        rec.conditioning[decay_name] = float(np.sum(w * gram[2, 2])) / c_left
    return rec


# ---------------------------------------------------------------------------
# stage 3: chi, xi, mu


def _require_stride_one(oracle, what):
    """Inversions of the stepping relation need consecutive stored slices."""
    if oracle.cfg.store_every != 1:
        raise RecoveryError(
            f"{what} inverts per-step relations and requires stride-1 trajectory "
            f"storage (solver.store_every = 1), got {oracle.cfg.store_every}")


def recover_chi_xi_mu(oracle: Oracle, r: float,
                      options: PipelineOptions | None = None,
                      bank: ExperimentBank | None = None) -> StageRecord:
    """Least-squares identification of (chi, xi, mu) from the density residual.

    The second-variation residual of the density equation, given the growth
    rate r of stage 1, is affine in the three unknowns with regressors built
    from the first variation.  The fit is a pointwise space-time weighted
    least squares (every node is a row); the parabolic probe-weighted
    identities are evaluated afterwards as a cross-check and reported, since
    compressing the system onto probe rows alone destroys the chi/xi
    separation.  A parabolic probe is separable, e^{a t} phi(x), so its
    integrals are time sums of spatial projections against phi.
    Near-collinear regressors (which occur when the truth makes v and w
    indistinguishable) are reported through the condition number and resolved
    by a minimum-norm solve; the identifiable combination chi - xi is always
    reported alongside.
    """
    options = options or PipelineOptions()
    bank = bank or ExperimentBank(oracle)
    exps = _default_chi_experiments(oracle.domain, options, oracle.tau)
    domain, dt = oracle.domain, oracle.cfg.dt
    _require_stride_one(oracle, "chi/xi/mu recovery")

    data = [bank.stack(exp) for exp in exps]

    def blocks(stack, chi_xi_guess):
        # (steps, rows) for consecutive blocks of the density second-variation steps;
        # the rows s_chi, s_xi, s_mu and the residual b are a (4, steps in block, nodes)
        # array, b the step source of the block's steps less r u2, from its slices of u2
        o1, u2 = stack.order1, stack.order2.u
        n_res = len(u2) - 1
        for start in range(0, n_res, REGRESSOR_BLOCK):
            steps = slice(start, min(start + REGRESSOR_BLOCK, n_res))
            resid = step_source(domain, u2[start:steps.stop + 1], dt) - r * u2[steps]
            u, v, w = o1.u[steps], o1.v[steps], o1.w[steps]
            if chi_xi_guess is None:
                s_chi = -2.0 * g.advective_flux_div(domain, u, v)
                s_xi = 2.0 * g.advective_flux_div(domain, u, w)
            else:
                chi_g, xi_g = chi_xi_guess
                pat = g.upwind_patterns(domain, chi_g * v - xi_g * w)
                s_chi = -2.0 * g.advective_flux_div_patterned(domain, u, v, pat)
                s_xi = 2.0 * g.advective_flux_div_patterned(domain, u, w, pat)
            rows = np.stack([s_chi, s_xi, -2.0 * u ** 2, resid])
            yield steps, rows.reshape(4, len(u), -1)

    # pointwise space-time least squares: every node contributes a weighted row.
    # Probe-compressed rows provably lose the chi/xi separation (the probe time
    # profiles drown the brief window where the mode mixture distinguishes the
    # two advective channels), so the probes serve as an identity check instead.
    guess = None
    root_w_dt = np.sqrt(domain.weights.ravel() * dt)
    for _ in range(PATTERN_PASSES):
        degenerate = False
        # Gram matrix of [s_chi s_xi s_mu | b] under the weights w dt
        gram = np.zeros((4, 4))
        for stack in data:
            for _, rows in blocks(stack, guess):
                rows *= root_w_dt
                flat = rows.reshape(4, -1)
                gram += flat @ flat.T
        N, rv, btb = gram[:3, :3], gram[:3, 3], gram[3, 3]
        scale = np.sqrt(np.diag(N))
        scale[scale == 0] = 1.0
        Ns = N / scale[:, None] / scale[None, :]
        eigvals = np.linalg.eigvalsh(Ns)
        cond_lsq = math.sqrt(abs(eigvals[-1] / eigvals[0])) if eigvals[0] > 0 else np.inf
        if cond_lsq > COND_LIMIT:
            degenerate = True
            sol = (np.linalg.pinv(Ns, rcond=1e-12) @ (rv / scale)) / scale
        else:
            sol = np.linalg.solve(Ns, rv / scale) / scale
        guess = (float(sol[0]), float(sol[1]))
    chi_hat, xi_hat, mu_hat = map(float, sol)

    # relative size of the probe-weighted identity after the fit, worst over probes
    # and experiments; the constructive analogue of the vanishing integrals certified
    # by uniqueness.  A parabolic probe is e^{a t} phi(x), so each integral is a time
    # sum of spatial projections, one product for all probes.  The same gaps give the
    # relative fit residual as sum of w dt gap^2 over btb, with no cancellation.
    axial = np.eye(domain.dim)[-1]
    probes = [pr.cgo_parabolic(axial * (mult * math.pi / domain.lengths[-1]), r)
              for mult in PROBE_ZETA_MULTIPLIERS]
    w_phi = np.stack([p.sample_space(domain).ravel() for p in probes], axis=1)
    w_phi *= domain.weights.reshape(-1, 1)
    gap_of_rows = np.append(-sol, 1.0)
    probe_resid = fit_ss = 0.0
    for stack in data:
        dt_tfac = np.exp(np.multiply.outer(stack.order1.times[:-1],
                                           [p.time_exponent for p in probes])) * dt
        num, den = 0.0, 0.0
        for steps, rows in blocks(stack, guess):
            gap = np.tensordot(gap_of_rows, rows, 1)
            fit_ss += float(np.sum((gap * gap) @ (domain.weights.ravel() * dt)))
            num += np.sum(dt_tfac[steps] * (gap @ w_phi), axis=0)
            den += np.sum(dt_tfac[steps] * (np.abs(rows[3]) @ np.abs(w_phi)), axis=0)
        probe_resid = max(probe_resid, float(np.max(np.abs(num) / np.where(den > 0, den, 1.0))))
    resid_rel = math.sqrt(fit_ss / btb) if btb > 0 else 0.0

    status, reason = "ok", ""
    if degenerate:
        status = "degenerate"
        reason = ("regressors for chi and xi are (nearly) linearly dependent; only the "
                  "combination chi - xi is identifiable from this oracle. Reported point "
                  "is the minimum-norm solution.")
    return StageRecord(
        name="chi_xi_mu",
        status=status,
        reason=reason,
        estimates={"chi": chi_hat, "xi": xi_hat, "mu": mu_hat,
                   "chi_minus_xi": chi_hat - xi_hat},
        residuals={"fit": resid_rel, "probe_identity": probe_resid},
        conditioning={"system": cond_lsq},
        experiments=[e.name for e in exps],
    )


# ---------------------------------------------------------------------------
# stage 4: second-order kinetic coefficients


@dataclass
class SeparableEstimate:
    transverse: np.ndarray
    axial: np.ndarray
    misfit: float
    gamma0: float

    def on_grid(self, domain):
        return np.multiply.outer(self.transverse, self.axial)


def _solve_normal(G):
    """(sol, ridged N) of the per-node normal equations in the node-major Gram G."""
    N, rvec = G[:, :3, :3], G[:, :3, 3]
    ridge = 1e-12 * np.trace(N, axis1=1, axis2=2)[:, None, None] + 1e-300
    Nreg = N + ridge * np.eye(3)[None]
    sol = np.linalg.solve(Nreg, rvec[..., None])[..., 0]
    return sol, Nreg


def _batched_lsq_3(domain, grams):
    """Per-node normal-equation solve for three coefficients, pooled and jackknifed.

    grams: per experiment, the pair (node-major (nodes, 4, 4) Gram matrix of
    [regressors | rhs], sample count); the Gram's blocks are N, rvec and btb.
    Returns pooled coefficients (3, *shape), per-node sigma (3, *shape), the
    relative fit residual, and the leave-one-experiment-out coefficient fields
    used for jackknife bias floors.
    """
    shape = domain.shape
    G = sum(gram for gram, _ in grams)
    n_samples = sum(n for _, n in grams)
    rn, btb = G[:, :3, 3], G[:, 3, 3]
    sol, Nreg = _solve_normal(G)
    fit_ss = np.einsum("ni,nij,nj->n", sol, Nreg, sol) - 2 * np.einsum("ni,ni->n", sol, rn) + btb
    dof = max(n_samples - 3, 1)
    sigma2 = np.maximum(fit_ss, 0.0) / dof
    inv_diag = np.diagonal(np.linalg.inv(Nreg), axis1=1, axis2=2)
    sig = np.sqrt(np.maximum(sigma2[:, None] * inv_diag, 0.0))
    coeffs = np.moveaxis(sol, 0, -1).reshape((3,) + shape)
    sigmas = np.moveaxis(sig, 0, -1).reshape((3,) + shape)
    rel_resid = float(np.sqrt(np.sum(np.maximum(fit_ss, 0)) / (np.sum(btb) + 1e-300)))
    loo = [np.moveaxis(_solve_normal(G - gram)[0], 0, -1).reshape((3,) + shape)
           for gram, _ in grams] if len(grams) > 1 else []
    return coeffs, sigmas, rel_resid, loo


def recover_second_kinetics(oracle: Oracle, linear: StageRecord,
                            options: PipelineOptions | None = None,
                            bank: ExperimentBank | None = None) -> StageRecord:
    """Second-order kinetic coefficients from the chemical second-variation residual.

    The residual of the v (resp. w) equation, after removing the linear part
    recovered by stage 2 (``linear``), is a pointwise linear combination of
    u1*v1, 2*u1^2 and 2*v1^2 with the sought coefficients; pooling experiments
    with distinct modal content makes the per-node time regression well posed.
    Declared-separable entries are factorized by the moment machinery
    afterwards.
    """
    options = options or PipelineOptions()
    bank = bank or ExperimentBank(oracle)
    domain = oracle.domain
    exps = _default_chi_experiments(domain, options, oracle.tau)
    if oracle.tau == 1:
        _require_stride_one(oracle, "tau=1 second-order kinetics recovery")
        exps.insert(0, _default_lin_experiment(domain, options, oracle.tau)["chem"])

    def contribution(stack, comp, a10_grid, decay):
        # one experiment's node-major Gram of [u1*chem1, 2*u1^2, 2*chem1^2 | rhs]
        # under its time weights, and its sample count; rhs is the balance
        # + decay*chem2 - a10*u2, each row formed one block of slices at a time
        o1, o2 = stack.order1, stack.order2
        chem1 = o1.component(comp)
        n = len(chem1) - oracle.tau       # the slices that _chemical_balance returns
        wt = g.time_weights(o2.times[:n]).reshape((-1,) + (1,) * domain.dim)

        def rows():
            for block, rhs in _chemical_balance(oracle, o2.component(comp), decay, n):
                rhs -= a10_grid * o2.u[block]
                x, c = o1.u[block], chem1[block]
                yield wt[block], (x * c, 2.0 * x * x, 2.0 * c * c, rhs)
                del rhs

        gram = np.empty((domain.node_count, 4, 4))
        for (k, j), total in _node_gram(rows()).items():
            gram[:, k, j] = gram[:, j, k] = total.ravel()
        return gram, n

    # per chemical (comp, its source grid, its decay), and its Grams in experiment order
    balances = [(comp, coefficient_on_grid(linear.estimates[src_name], domain),
                 linear.estimates[decay_name]) for comp, src_name, decay_name in _LINEAR_PAIRS]
    grams = [[None] * len(exps) for _ in balances]
    # each experiment is read once, for both chemicals, and let go before the next
    # is read; only one block of its rows is alive at a time
    for i, stack in bank.stacks(exps):
        for per_exp, balance in zip(grams, balances):
            per_exp[i] = contribution(stack, *balance)
        del stack

    estimates, residuals, conditioning, details = {}, {}, {}, {}
    for (comp, _, _), which, per_exp in zip(_LINEAR_PAIRS, "gh", grams):
        labels = [label for label, (eq, _) in SECOND_ORDER_KEYS.items() if eq == which]
        coeffs, sigmas, rel_resid, loo = _batched_lsq_3(domain, per_exp)
        residuals[f"{comp}_equation_fit"] = rel_resid
        wq = domain.weights / domain.weights.sum()
        for i, label in enumerate(labels):
            fld = coeffs[i]
            # statistical floor from the fit covariance plus a jackknife bias
            # bound: systematic extraction error shows up as disagreement
            # between leave-one-experiment-out estimates
            floor = 3.0 * float(np.median(sigmas[i]))
            if loo:
                pooled_mean = float(np.sum(wq * fld))
                jack = max(abs(float(np.sum(wq * lk[i])) - pooled_mean) for lk in loo)
                floor = max(floor, (len(loo) - 1) * jack)
            residuals[f"{label}_noise_floor"] = floor
            if label in options.declared_separable:
                gamma0 = options.declared_separable[label]
                samples = pr.transform_samples(domain, fld, pr.separable_probe_set(domain))
                rec = pr.moment_recover(domain, samples, gamma0=gamma0)
                misfit = pr.separability_misfit(domain, fld, rec)
                if misfit > 0.10 and g.norm_l2(domain, fld) > 10 * floor:
                    raise RecoveryError(
                        f"coefficient {label} declared separable but factorization misfit "
                        f"is {misfit:.1%}")
                estimates[label] = SeparableEstimate(transverse=rec.transverse, axial=rec.axial,
                                                     misfit=misfit, gamma0=gamma0)
                conditioning[label] = rec.diagnostics["moment_fit_condition"]
            else:
                estimates[label] = float(np.sum(wq * fld))
                details[f"{label}_spatial_spread"] = float(np.max(fld) - np.min(fld))
    return StageRecord(name="second_kinetics", estimates=estimates, residuals=residuals,
                       conditioning=conditioning, experiments=[e.name for e in exps],
                       details=details)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class RecoveryReport:
    stages: list
    estimates: dict
    residuals: dict
    conditioning: dict
    experiments_used: list
    oracle_runs: int
    notes: list = field(default_factory=list)

    def stage(self, name):
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def complete(self):
        return all(s.status != "failed" for s in self.stages)

    def parameter_set(self) -> ParameterSet:
        e = self.estimates
        return ParameterSet(chi=max(e.get("chi", 0.0), 0.0), xi=max(e.get("xi", 0.0), 0.0),
                            r=e["r"], mu=e["mu"], alpha=e["alpha"], beta=e["beta"],
                            gamma=e["gamma"], delta=e["delta"])


def run_full_pipeline(oracle: Oracle, options: PipelineOptions | None = None) -> RecoveryReport:
    """Execute the recovery stages in dependency order, assembling a report.

    A hard stage failure aborts the stages after it in the report and yields a
    partial report (the failed stage carries the reason); a degenerate stage records
    its diagnosis and the pipeline continues, since later stages do not
    depend on the degenerate directions.
    """
    options = options or PipelineOptions()
    # the (experiment, parts) each stage reads, built as the stages build them, in run
    # order: r, the linear kinetics, then stage 4 (whole stacks) before stage 3, so that
    # a chi family keeps only the 4 of its 6 components stage 3 reads, and chem, which
    # only stage 4 reads, goes after that read; lin is a chi family, so its family stays
    # whole until stage 4 has read it
    domain, tau, stride_one = oracle.domain, oracle.tau, oracle.cfg.store_every == 1
    lin, *chem = _default_lin_experiment(domain, options, tau).values()
    chi_exps = _default_chi_experiments(domain, options, tau)
    order1 = STACK_PARTS[:3]
    reads = [(lin, order1[:1]), (lin, order1),
             *((exp, STACK_PARTS) for exp in chem + chi_exps),
             *((exp, order1 + ("order2.u",)) for exp in (chi_exps if stride_one else ()))]
    bank = ExperimentBank(oracle, reads)
    records = {}
    stride_note = ("needs stride-1 trajectory storage (solver.store_every = 1); "
                   "stored slices are coarser, stage skipped")
    plan = [
        ("r", lambda: recover_r(oracle, options=options, bank=bank)),
        ("linear_kinetics", lambda: recover_linear_kinetics(oracle, options=options, bank=bank)),
        ("second_kinetics", lambda: recover_second_kinetics(
            oracle, records["linear_kinetics"], options=options, bank=bank)),
        ("chi_xi_mu", lambda: recover_chi_xi_mu(oracle, records["r"].estimates["r"],
                                                options=options, bank=bank)),
    ]
    for name, runner in plan:
        # stage 3 inverts per-step relations; at tau=1 a coarser stride fails stage 2,
        # so stage 4 never runs there either
        try:
            records[name] = (runner() if name != "chi_xi_mu" or stride_one else
                             StageRecord(name=name, status="skipped", reason=stride_note))
        except RecoveryError as err:
            records[name] = StageRecord(name=name, status="failed", reason=str(err))
            if name != "second_kinetics":   # stage 3 comes before stage 4 in the report
                break
    # the report lists the stages in paper order, up to the first failed one
    stages, estimates, residuals, conditioning, notes = [], {}, {}, {}, []
    for rec in map(records.get, ("r", "linear_kinetics", "chi_xi_mu", "second_kinetics")):
        stages.append(rec)
        estimates.update(rec.estimates)
        residuals.update({f"{rec.name}.{k}": v for k, v in rec.residuals.items()})
        conditioning.update({f"{rec.name}.{k}": v for k, v in rec.conditioning.items()})
        if rec.status in ("skipped", "failed"):
            notes.append(f"stage {rec.name} {rec.status}: {rec.reason}")
        elif rec.status != "ok":
            notes.append(f"stage {rec.name}: {rec.status}: {rec.reason}")
        if rec.status == "failed":
            break
    return RecoveryReport(stages=stages, estimates=estimates, residuals=residuals,
                          conditioning=conditioning, experiments_used=list(bank.used),
                          oracle_runs=oracle.run_count, notes=notes)
