"""Time integration of the attraction-repulsion system with logistic growth.

The density u obeys

    du/dt = Lap u - div(chi u grad v) + div(xi u grad w) + r u - mu u^2,

while the chemical fields v (attractant) and w (repellent) either satisfy
elliptic balance laws (tau = 0) or relax parabolically (tau = 1):

    tau dv/dt = Lap v + G(x, u, v),     tau dw/dt = Lap w + H(x, u, w).

G and H are truncated power series around a constant equilibrium; the applied
model is the linear special case G = alpha*u - beta*v, H = gamma*u - delta*w.

Time stepping is IMEX Euler: diffusion implicit (one screened-Poisson solve
per component), chemotactic advection and reactions explicit.  A run binds
its constants (step sizes, kept denominators, kinetics coefficient grids) and
scratch once in a StepPlan, the one place that evaluates the kinetics, and
each step calls the ufuncs and the plan's implicit solve, on which the
variation cascade of :mod:`variation` steps too.  For tau = 1 the three
solves of a step run as one stacked transform.  For tau = 0 the chemical
fields are re-slaved to u by the elliptic solver after every density update,
and the supplied initial data g, h are replaced by the elliptic balance of f
from t = 0.  Kinetics linear in the chemical take one solve of
(-Lap + decay)(c - c0) = G(u, c0), a source of u alone.  Kinetics nonlinear
in the chemical make each such solve a Picard iteration in two buffers, from
the backward-difference extrapolation in time of the last PICARD_SEED_DEPTH
slaved fields (fewer in the first steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grid as g
from .errors import CFLViolation, NumericsError
from .grid import Domain

__all__ = [
    "ParameterSet",
    "SeparableField",
    "EquilibriumState",
    "KineticsSpec",
    "SECOND_ORDER_KEYS",
    "SolverConfig",
    "Trajectory",
    "MeasurementRecord",
    "steady_state",
    "step_source",
    "stored_times",
    "SliceStore",
    "StepPlan",
    "step",
    "solve_forward",
    "measure",
]


class EquilibriumState(NamedTuple):
    """Constant solution (u0, v0, w0); the kinetics must vanish there."""

    u0: float
    v0: float
    w0: float


@dataclass(frozen=True)
class SeparableField:
    """Coefficient of the form A1(x') * A2(x_n), x_n the last coordinate.

    The axial factor must have a nonvanishing integral over its interval,
    otherwise the factorization is not recoverable from transform data.
    """

    transverse: np.ndarray
    axial: np.ndarray

    def on_grid(self, domain: Domain) -> np.ndarray:
        t = np.asarray(self.transverse, dtype=float)
        a = np.asarray(self.axial, dtype=float)
        if domain.dim == 1:
            raise ValueError("separable coefficients need at least two dimensions")
        if t.shape != (domain.cells[0],) or a.shape != (domain.cells[1],):
            raise ValueError(
                f"separable factors have shapes {t.shape}/{a.shape}, "
                f"expected ({domain.cells[0]},)/({domain.cells[1]},)"
            )
        return np.multiply.outer(t, a)

    def axial_integral(self, domain: Domain) -> float:
        return float(np.sum(domain.axis_weights[-1] * self.axial))

    def validate(self, domain: Domain):
        if abs(self.axial_integral(domain)) < 1e-12:
            raise ValueError("axial factor integrates to zero; not an admissible separable form")


@dataclass(frozen=True)
class ParameterSet:
    """The unknowns of the applied model: chi, xi, r, mu, alpha, beta, gamma, delta.

    alpha and gamma may be spatial fields (arrays on the grid, constant along
    the last axis) or separable coefficients; beta and delta are the strictly
    positive decay rates of the chemical balance laws.
    """

    chi: float
    xi: float
    r: float
    mu: float
    alpha: object = 1.0
    beta: float = 1.0
    gamma: object = 1.0
    delta: float = 1.0

    def validate(self, domain: Domain | None = None):
        if self.chi < 0 or self.xi < 0:
            raise ValueError("chemotactic sensitivities chi, xi must be non-negative")
        if self.r < 0:
            raise ValueError("growth rate r must be non-negative")
        if self.mu <= 0:
            raise ValueError("competition strength mu must be strictly positive")
        if self.beta <= 0 or self.delta <= 0:
            raise ValueError("decay rates beta, delta must be strictly positive")
        for name in ("alpha", "gamma"):
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                if domain is not None:
                    domain.check_field(val, name)
                if np.min(val) < 0:
                    raise ValueError(f"spatial {name} must be non-negative")
            elif isinstance(val, SeparableField):
                if domain is not None:
                    val.validate(domain)
            elif val < 0:
                raise ValueError(f"{name} must be non-negative")
        return self

    def as_dict(self):
        """The eight parameters by name, in field order."""
        return dict(vars(self))


def coefficient_on_grid(value, domain: Domain):
    """Materialize a constant / array / separable coefficient on the grid."""
    if isinstance(value, SeparableField):
        return value.on_grid(domain)
    if isinstance(value, np.ndarray):
        return domain.check_field(value, "coefficient")
    return domain.constant(float(value))


def _offset(x, x0):
    # x - x0, and x itself for a zero x0, which is the same up to the sign of zero
    return x - x0 if x0 else x


def _sum_terms(items, du, dn, shape):
    # the sum, in table order, of every ((p, q), term) times du^p dn^q, accumulated into
    # the first product; powers of 1 multiply by du or dn itself, which is the value
    # of du**1, and p + q >= 1 makes every product a fresh array
    out = None
    for (p, q), term in items:
        if p:
            term = term * (du if p == 1 else du**p)
        if q:
            term = term * (dn if q == 1 else dn**q)
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(shape) if out is None else out


def _monomial_weight(p: int, q: int) -> float:
    # Normalization contract: with these weights the second-variation sources
    # of the chemical equations read  a11*u1*v1 + 2*a20*u1^2 + 2*a02*v1^2.
    return 0.5 if (p, q) == (1, 1) else 1.0


# second-order kinetics entry label -> (chemical equation, monomial exponents (p, q));
# per chemical in the order of the terms of StepPlan.second_order_sources
SECOND_ORDER_KEYS = {"a11": ("g", (1, 1)), "a20": ("g", (2, 0)), "a02": ("g", (0, 2)),
                     "b11": ("h", (1, 1)), "b20": ("h", (2, 0)), "b02": ("h", (0, 2))}


@dataclass
class KineticsSpec:
    """Truncated power-series kinetics for the chemical equations.

    ``g_coeffs[(p, q)]`` multiplies (u - u0)^p (v - v0)^q in G (weighted per
    :func:`_monomial_weight`), and likewise ``h_coeffs`` for H in (u, w).
    The (0, 1) entries must be constants with negative value (their negation
    is the decay rate); (1, 0) entries must not depend on the last coordinate;
    total order 2 entries, the highest supported, are constants or separable fields.
    A spec only describes and validates the kinetics; a :class:`StepPlan` builds
    their coefficient grids and evaluates them.
    """

    g_coeffs: dict = field(default_factory=dict)
    h_coeffs: dict = field(default_factory=dict)
    expansion_point: EquilibriumState = EquilibriumState(0.0, 0.0, 0.0)

    @classmethod
    def from_parameters(cls, p: ParameterSet, second_order_g=None, second_order_h=None,
                        expansion_point: EquilibriumState | None = None):
        gc = {(1, 0): p.alpha, (0, 1): -p.beta}
        hc = {(1, 0): p.gamma, (0, 1): -p.delta}
        if second_order_g:
            gc.update(second_order_g)
        if second_order_h:
            hc.update(second_order_h)
        eq = expansion_point if expansion_point is not None else EquilibriumState(0.0, 0.0, 0.0)
        return cls(g_coeffs=gc, h_coeffs=hc, expansion_point=eq)

    def validate(self, domain: Domain | None = None):
        for label, table in (("g", self.g_coeffs), ("h", self.h_coeffs)):
            for (p, q), val in table.items():
                if p + q < 1 or p + q > 2:
                    raise ValueError(f"{label}_coeffs[{(p, q)}] outside total order 1..2")
                if (p, q) == (0, 1):
                    if isinstance(val, (np.ndarray, SeparableField)):
                        raise ValueError(f"{label}_coeffs[(0,1)] must be a constant")
                    if float(val) >= 0:
                        raise ValueError(f"{label}_coeffs[(0,1)] must be negative (positive decay)")
                elif (p, q) == (1, 0):
                    if isinstance(val, SeparableField):
                        raise ValueError(f"{label}_coeffs[(1,0)] must not be separable-general; "
                                         "it has to be independent of the last coordinate")
                    if isinstance(val, np.ndarray) and domain is not None and domain.dim > 1:
                        fld = domain.check_field(val, f"{label}_coeffs[(1,0)]")
                        spread = np.max(np.abs(fld - fld[..., :1]))
                        if spread > 1e-10 * (1.0 + np.max(np.abs(fld))):
                            raise ValueError(f"{label}_coeffs[(1,0)] must be independent of the last coordinate")
                else:
                    if isinstance(val, np.ndarray):
                        raise ValueError(
                            f"{label}_coeffs[{(p, q)}] of order 2 must be a constant or SeparableField")
                    if isinstance(val, SeparableField) and domain is not None:
                        val.validate(domain)
        return self

    @property
    def beta_decay(self) -> float:
        return -float(self.g_coeffs[(0, 1)])

    @property
    def delta_decay(self) -> float:
        return -float(self.h_coeffs[(0, 1)])


# Picard iteration for slaved chemical fields that are nonlinear in v or w
PICARD_TOL = 1e-12
PICARD_MAXITER = 64
# Picard starts from the extrapolation of degree K - 1 through the last K slaved
# fields, K = PICARD_SEED_DEPTH.  Helmholtz solves per step of the 33^2 separable
# a02 v^2 run of test_picard_solves_per_step (v and w together, so the floor is 2)
# at amplitudes 0.01 / 0.3 / 1.0:
#   K = 2: 4.01 / 6.03 / 10.06    K = 3: 3.09 / 3.41 / 6.87
#   K = 4: 2.31 / 2.78 / 3.93     K = 5: 2.19 / 2.70 / 3.25
#   K = 6: 2.06 / 2.64 / 3.23     K = 7: 2.03 / 2.68 / 3.59
# K = 5 takes most of the gain; past it the count stalls, and at K = 7 it rises
# again at the largest amplitude.
PICARD_SEED_DEPTH = 5
# the weights of that extrapolation through k fields, newest first:
# (-1)^j C(k, j + 1) for j < k, so that it is exact on polynomials of degree k - 1
_SEED_WEIGHTS = {k: tuple((-1) ** j * math.comb(k, j + 1) for j in range(k))
                 for k in range(1, PICARD_SEED_DEPTH + 1)}
# a density below this after a step means the run has gone unstable
NEGATIVITY_FLOOR = -1e-9
# dt may reach this fraction of the advective stability bound h / (max drift speed)
CFL_SAFETY = 0.9


@dataclass
class SolverConfig:
    tau: int = 0
    dt: float = 1e-3
    t_final: float = 1.0
    store_every: int = 1
    relaxation_speedup: float = 1.0   # tau=1 only: dv/dt = s*(Lap v + G)
    require_nonnegative: bool = True

    def validate(self):
        if self.tau not in (0, 1):
            raise ValueError("tau must be 0 or 1")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        return self

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_final / self.dt))
        if abs(n * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError("t_final must be an integer multiple of dt")
        return max(n, 1)


class Trajectory:
    """Space-time solution triple on stored time slices (immutable arrays)."""

    def __init__(self, domain: Domain, times, u, v, w):
        self.domain = domain
        self.times = np.asarray(times, dtype=float)
        self.u = np.asarray(u)
        self.v = np.asarray(v)
        self.w = np.asarray(w)
        for arr in (self.times, self.u, self.v, self.w):
            arr.setflags(write=False)
        if not (self.u.shape == self.v.shape == self.w.shape == (len(self.times),) + domain.shape):
            raise ValueError("trajectory arrays inconsistent with the stored times and domain")

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return self.u[-1], self.v[-1], self.w[-1]

    def component(self, name):
        return getattr(self, name)


@dataclass
class MeasurementRecord:
    """Boundary traces over time plus the final-time fields."""

    times: np.ndarray
    boundary_u: np.ndarray     # (n_times, n_boundary_nodes)
    boundary_v: np.ndarray
    boundary_w: np.ndarray
    final_u: np.ndarray
    final_v: np.ndarray
    final_w: np.ndarray
    boundary_flat_indices: np.ndarray

    def component_traces(self):
        return {"u": self.boundary_u, "v": self.boundary_v, "w": self.boundary_w}

    def component_finals(self):
        return {"u": self.final_u, "v": self.final_v, "w": self.final_w}


# ---------------------------------------------------------------------------
# steady states and elliptic solves


def steady_state(p: ParameterSet, trivial: bool = False, domain: Domain | None = None) -> EquilibriumState:
    """Constant solution: u0 = r/mu, v0 = alpha*u0/beta, w0 = gamma*u0/delta.

    With ``trivial=True`` (or r = 0) the zero branch is returned.  Spatially
    varying alpha or gamma admit no constant chemical balance and are rejected.
    """
    p.validate(domain)
    if trivial or p.r == 0:
        return EquilibriumState(0.0, 0.0, 0.0)
    for name in ("alpha", "gamma"):
        val = getattr(p, name)
        if isinstance(val, (np.ndarray, SeparableField)):
            raise ValueError(
                f"spatially varying {name} has no constant steady state; request the trivial branch")
    u0 = p.r / p.mu
    return EquilibriumState(u0, float(p.alpha) * u0 / p.beta, float(p.gamma) * u0 / p.delta)


def step_source(domain: Domain, x, h):
    """Inverse of :meth:`StepPlan.implicit` over a series x of consecutive steps.

    Returns E[n] = (x[n+1] - h Lap x[n+1] - x[n]) / h, the tendency of every
    stored pair of steps.
    """
    return (x[1:] - h * g.laplacian_neumann(domain, x[1:]) - x[:-1]) / h


def stored_times(cfg: SolverConfig) -> np.ndarray:
    """The times of a run's stored slices: step 0, every ``store_every``-th step and
    the last one, each step n at n * dt."""
    n_steps, every = cfg.n_steps, cfg.store_every
    steps = np.append(np.arange(0, n_steps, every), n_steps)
    return steps * cfg.dt


# a store with a fold holds a run in this many blocks of whole slices (fewer when it
# stores fewer slices): a block's buffers and temporaries, about six block arrays,
# then stay within 6/16 of one stored component beside the seven an extraction
# holds, and a long run pays for few fold calls
FOLD_BLOCKS = 16


class SliceStore:
    """The stored slices of a run, on the times of :func:`stored_times`.

    Step n goes to slot ceil(n / store_every), so runs with the same
    configuration are stored on the same times.  A store without a fold holds
    the whole run, which :meth:`trajectory` returns.  A store with a fold holds
    FOLD_BLOCKS blocks of consecutive slices (fewer when it stores fewer slices),
    one at a time, in buffers it reuses; each block goes to
    ``fold(block, [u, v, w])`` as it completes, ``block`` being the slice of stored
    times it covers, and :meth:`trajectory` returns the last block.
    """

    def __init__(self, domain: Domain, cfg: SolverConfig, state, fold=None):
        self.domain = domain
        self.fold = fold
        self.n_steps, self.every = cfg.n_steps, cfg.store_every
        self.times = stored_times(cfg)
        length = -(-len(self.times) // (1 if fold is None else FOLD_BLOCKS))
        self.fields = [np.empty((length,) + domain.shape) for _ in range(3)]
        self.put(0, state)

    def put(self, n, state):
        """Keep the (u, v, w) state of step n if the stride stores it, and fold the
        block it completes."""
        if n % self.every == 0 or n == self.n_steps:
            slot = -(-n // self.every)
            at = slot % len(self.fields[0])
            for stored, x in zip(self.fields, state):
                stored[at] = x
            if at == len(self.fields[0]) - 1 or n == self.n_steps:
                self.last = slice(slot - at, slot + 1)
                if self.fold is not None:
                    self.fold(self.last, [stored[:at + 1] for stored in self.fields])

    def trajectory(self) -> Trajectory:
        count = self.last.stop - self.last.start
        return Trajectory(self.domain, self.times[self.last],
                          *(stored[:count] for stored in self.fields))


class StepPlan:
    """What every step of one run shares, bound once per run.

    :func:`solve_forward` and :func:`variation.solve_variations` each build one.  It
    holds dt and the step sizes and kept denominators of the implicit solve
    (:meth:`implicit`), the CFL numerator, whether there is drift, per chemical
    (``"g"`` for v, ``"h"`` for w) its decay, c0 and coefficient grids, those split
    into u-only terms and factors of the chemical, the number ``keep`` of earlier
    states that seed Picard, and per-run scratch, which no field that :func:`step`
    returns is or shares memory with.  The grids are built here from ``kin``'s
    tables, once, and later edits to the spec do not reach them.  The rates and
    step sizes that :func:`step` hands to ufuncs are 0-d arrays, which a ufunc
    takes faster than Python floats.
    """

    def __init__(self, domain: Domain, p: ParameterSet, kin: KineticsSpec, cfg: SolverConfig):
        self.domain, self.p, self.kin, self.cfg = domain, p, kin, cfg
        eq = kin.expansion_point
        self.dt, self.tau, self.u0 = cfg.dt, cfg.tau, eq.u0
        self.chi, self.xi, self.r, self.mu, self.h, self.zero = (
            np.array(float(x)) for x in (p.chi, p.xi, p.r, p.mu, cfg.dt, 0.0))
        self.drift = bool(p.chi or p.xi)
        self.cfl = CFL_SAFETY * min(domain.spacing)
        self.tables = {}
        for which, decay, base, table in (("g", kin.beta_decay, eq.v0, kin.g_coeffs),
                                          ("h", kin.delta_decay, eq.w0, kin.h_coeffs)):
            # {(p, q): coefficient grid times its monomial weight}, in table order
            terms = {(i, j): coefficient_on_grid(val, domain) * _monomial_weight(i, j)
                     for (i, j), val in table.items()}
            self.tables[which] = (decay, base, terms,
                                  [(i, term) for (i, j), term in terms.items() if not j],
                                  [(i, j, term) for (i, j), term in terms.items()
                                   if j and (i, j) != (0, 1)])
        # only a slaved chemical nonlinear in itself reads the earlier states
        nonlinear = self.tables["g"][4] or self.tables["h"][4]
        self.keep = PICARD_SEED_DEPTH - 1 if nonlinear and not cfg.tau else 0
        if cfg.tau:
            h = cfg.relaxation_speedup * cfg.dt
            self.sizes = np.array((cfg.dt, h, h)).reshape((-1,) + (1,) * domain.dim)
            self.denom = domain.neumann_eigenvalues + 1.0 / self.sizes
        else:
            self.sizes, self.denom = self.h, domain.denominators(1.0 / cfg.dt)
        # the tendency of u, at tau=1 the first of the stacked (u, v, w) tendencies
        self.stack = np.empty((3,) + domain.shape) if cfg.tau else None
        self.tendency = self.stack[0] if cfg.tau else np.empty(domain.shape)
        self.quad, self.fixed, self.rhs, self.scratch, self.pot, self.div = (
            np.empty(domain.shape) for _ in range(6))
        # per axis: h, the node indices of the faces' two ends, the potential there, the
        # face velocities and their upwind mask, the face fluxes in a buffer padded with
        # the zero outer fluxes (+0 before, -0 after, which keeps the signs of zero of
        # -flux / (h/2)), the cell widths (the axis's trapezoid weights) and the
        # divergence (div, then added to it)
        self.faces = []
        for axis, h in enumerate(domain.spacing):
            lo, hi, inner, _, _, _, last, _, _ = g._NODE_INDEX[domain.dim, axis]
            n = domain.shape[axis]
            padded = np.zeros(domain.shape[:axis] + (n + 1,) + domain.shape[axis + 1:])
            padded[last] = -0.0
            faces = self.pot[lo].shape
            self.faces.append((
                np.array(h), lo, hi, self.pot[hi], self.pot[lo], np.empty(faces),
                padded[inner], np.empty(faces, bool), padded[hi], padded[lo],
                domain.axis_weights[axis].reshape((n,) + (1,) * (domain.dim - 1 - axis)),
                self.div if axis == 0 else np.empty(domain.shape)))

    def implicit(self, x, tendency):
        """One IMEX Euler step with implicit diffusion, of the plan's step sizes h.

        Solves x_new - h Lap x_new = x + h * tendency as (x + h * tendency) / h
        divided by the kept denominators in one transform solve, in place on
        ``tendency``, which the result shares no memory with.  At tau=0 h is dt
        and x a field or a stack of fields.  At tau=1 h is (dt, s dt, s dt),
        s = relaxation_speedup, and x a (u, v, w) triple or a stack of triples,
        shaped (..., 3, *grid).  A stack is solved with the values of its slices.
        """
        rhs = np.multiply(self.sizes, tendency, out=tendency)
        rhs += x
        rhs /= self.sizes
        return g._dct_solve(self.domain, rhs, self.denom)

    def slaved_terms(self, which, u):
        """The pieces of G (``which="g"``, c = v) or H (``"h"``, c = w) at density u
        that stay fixed while a slaved chemical c is iterated: ``(fixed, factors)`` with

            G(u, c) + decay * (c - c0) = fixed + sum of factor * (c - c0)^q,

        where ``fixed`` sums the u-only terms (q = 0) into the plan's scratch, so that
        it is G(u, c0), and each ``(q, factor)`` holds coef * (u - u0)^p of a term with
        q >= 1.  The (0, 1) term is left out: it is -decay * (c - c0) and cancels the
        added decay.  A table linear in c has no factors.
        """
        _, _, _, fixed_terms, factor_terms = self.tables[which]
        du = _offset(u, self.u0)
        fixed = self.fixed
        if not fixed_terms:
            fixed.fill(0.0)
        for k, (i, term) in enumerate(fixed_terms):
            power = du if i == 1 else du**i
            if k:
                fixed += term * power
            else:
                np.multiply(term, power, out=fixed)
        return fixed, [(j, term * (du if i == 1 else du**i) if i else term)
                       for i, j, term in factor_terms]

    def slave(self, which, u, previous=None, earlier=()):
        """Solve 0 = Lap c + G(x, u, c) for the chemical c (v for ``"g"``, w for ``"h"``).

        The balance is (-Lap + decay)(c - c0) = fixed + sum of factor * (c - c0)^q of
        :meth:`slaved_terms`, q 1 or 2 as tables stop at total order 2.  Kinetics
        linear in c have no factors and take one screened solve of fixed = G(u, c0).
        Nonlinear kinetics run Picard in two buffers, the right-hand side and a
        scratch field, from the backward-difference extrapolation through
        ``previous`` (c at the last step) and the first PICARD_SEED_DEPTH - 1 fields
        of ``earlier`` (c at the steps before, newest first): sum over j of
        (-1)^j C(k, j + 1) c_{n-j} for the k fields given, c0 when ``previous`` is
        None.  Picard stops once successive iterates differ by at most
        PICARD_TOL * (1 + max|c|), and raises NumericsError otherwise.
        """
        decay, base = self.tables[which][:2]
        fixed, factors = self.slaved_terms(which, u)
        if not factors:
            c = g.helmholtz_solve(self.domain, fixed, decay)
            return np.add(c, base, out=c) if base else c
        v = previous if previous is not None else self.domain.constant(base)
        if earlier:
            earlier = earlier[:PICARD_SEED_DEPTH - 1]
            first, *rest = _SEED_WEIGHTS[len(earlier) + 1]
            v = first * previous
            for weight, c in zip(rest, earlier):
                v += weight * c
        rhs, scratch = self.rhs, self.scratch
        for _ in range(PICARD_MAXITER):
            src = fixed
            for q, factor in factors:
                dv = np.subtract(v, base, out=scratch) if base else v
                np.multiply(factor, np.square(dv, out=scratch) if q == 2 else dv, out=scratch)
                src = np.add(src, scratch, out=rhs)
            v_new = g.helmholtz_solve(self.domain, src, decay)
            if base:
                v_new += base
            np.subtract(v_new, v, out=scratch)
            delta = float(max(np.maximum.reduce(scratch, None), -np.minimum.reduce(scratch, None)))
            v = v_new
            target = PICARD_TOL * (1.0 + float(max(np.maximum.reduce(v, None),
                                                   -np.minimum.reduce(v, None))))
            if delta <= target:
                return v
        name = "v" if which == "g" else "w"
        raise NumericsError(
            f"Picard iteration for the slaved chemical {name} did not converge in "
            f"{PICARD_MAXITER} iterations: last change {delta:.3e} between iterates, "
            f"target {target:.3e} = PICARD_TOL * (1 + max|{name}|)")

    def kinetics(self, which, du, c):
        """G(u, v) (``which="g"``, c = v) or H(u, w) (``"h"``, c = w), du = u - u0."""
        _, base, terms, _, _ = self.tables[which]
        return _sum_terms(terms.items(), du, _offset(c, base), self.domain.shape)

    def second_order_sources(self, which, u1, c1):
        """a11*u1*c1 + 2*a20*u1^2 + 2*a02*c1^2 of G (``which="g"``, c1 = v1) or H
        (``"h"``, c1 = w1) on the grid, skipping absent entries.  Each is 2 * grid * its
        two factors: the weight 1/2 of (1, 1) makes 2 * grid a11."""
        terms = self.tables[which][2]
        out = np.zeros(self.domain.shape)
        for key, x, y in (((1, 1), u1, c1), ((2, 0), u1, u1), ((0, 2), c1, c1)):
            if key in terms:
                out += 2.0 * terms[key] * x * y
        return out


def step(plan: StepPlan, state, prior=()):
    """One IMEX Euler step of the run that ``plan`` binds; returns the new (u, v, w) triple.

    The supplied (v, w) must already be consistent with u (slaved for tau=0).
    It runs the operations of the grid's drift operators in their order, on the
    plan's scratch, and solves through :meth:`StepPlan.implicit`.  For tau=1 the
    three implicit steps (v and w with step size relaxation_speedup * dt) run as
    one stacked solve.  The face velocities of the drift serve both the CFL
    check and the upwind flux.  u and the potential are screened by their dot
    product and scanned by :meth:`Domain.check_field` only when that screen
    fails.  ``prior`` holds the states of the steps before ``state``, newest
    first; for tau=0 their chemicals, with those of ``state``, seed the Picard
    iteration of a chemical nonlinear in itself (see :meth:`StepPlan.slave`).
    """
    u, v, w = state
    domain, dt, tendency = plan.domain, plan.dt, plan.tendency
    # without drift the potential is 0 or NaN everywhere, and the face speed is then 0
    if plan.drift:
        pot, div = plan.pot, plan.div
        np.subtract(np.multiply(plan.chi, v, out=pot), np.multiply(plan.xi, w, out=div), out=pot)
        speed = 0.0
        for h, _, _, pot_hi, pot_lo, vel, flux, *_ in plan.faces:
            np.divide(np.subtract(pot_hi, pot_lo, out=vel), h, out=vel)
            speed = max(speed, float(np.maximum.reduce(np.absolute(vel, out=flux), None)))
        if speed and dt > plan.cfl / speed:
            raise CFLViolation(
                f"dt={dt:.3e} exceeds the advective stability bound {plan.cfl / speed:.3e} "
                f"(max drift speed {speed:.3e})")
        # the dot product of u and the potential is finite only if both are
        if not (domain.is_real_field(u) and math.isfinite(float(np.vdot(u, pot)))):
            domain.check_field(u, "density")
            domain.check_field(pot, "potential")
        for _, lo, hi, _, _, vel, flux, mask, right, left, width, out in plan.faces:
            np.multiply(vel, np.where(np.greater(vel, plan.zero, out=mask), u[lo], u[hi]),
                        out=flux)
            np.divide(np.subtract(right, left, out=out), width, out=out)
            if out is not div:
                div += out
    np.multiply(plan.r, u, out=tendency)
    tendency -= np.multiply(np.multiply(plan.mu, u, out=plan.quad), u, out=plan.quad)
    if plan.drift:
        tendency -= plan.div
    if plan.tau == 0:
        u_new, v_new, w_new = plan.implicit(u, tendency), v, w
    else:
        du, stack = _offset(u, plan.u0), plan.stack
        stack[1], stack[2] = plan.kinetics("g", du, v), plan.kinetics("h", du, w)
        u_new, v_new, w_new = plan.implicit(state, stack)
    if plan.cfg.require_nonnegative and float(np.minimum.reduce(u_new, None)) < NEGATIVITY_FLOOR:
        raise NumericsError(
            f"density dropped to {float(np.min(u_new)):.3e}, below the negativity floor; "
            "the run is unstable")
    if plan.tau == 0:
        _, v_prior, w_prior = zip(*prior) if prior else ((), (), ())
        v_new = plan.slave("g", u_new, v, v_prior)
        w_new = plan.slave("h", u_new, w, w_prior)
    return u_new, v_new, w_new


def solve_forward(domain: Domain, init, p: ParameterSet, kin: KineticsSpec,
                  cfg: SolverConfig, store=None) -> Trajectory:
    """Integrate the coupled system from initial data (f, g, h).

    For tau = 0 the chemical fields are slaved from the start: g and h are
    accepted but replaced by the elliptic balance of f.  One :class:`StepPlan`
    binds the run.  When a slaved chemical is nonlinear in itself, every step
    also gets the states of up to PICARD_SEED_DEPTH - 1 steps before it, newest
    first, which seed its Picard iteration (see :func:`step`).

    The stored slices go to ``store(domain, cfg, initial state)``, by default a
    :class:`SliceStore` of the whole run; the run returns its ``trajectory()``,
    which for a store with a fold is the last block.
    """
    cfg.validate()
    p.validate(domain)
    plan = StepPlan(domain, p, kin.validate(domain), cfg)
    f0, g0, h0 = (domain.check_field(np.asarray(a, dtype=float), n)
                  for a, n in zip(init, ("f", "g", "h")))
    if cfg.require_nonnegative:
        for arr, name in ((f0, "f"), (g0, "g"), (h0, "h")):
            if float(np.min(arr)) < 0:
                raise ValueError(f"initial data {name} must be non-negative")
    u = f0.copy()
    if cfg.tau == 0:
        v, w = plan.slave("g", u), plan.slave("h", u)
    else:
        v, w = g0.copy(), h0.copy()

    state, prior = (u, v, w), ()
    stored = (store or SliceStore)(domain, cfg, state)
    for n in range(1, cfg.n_steps + 1):
        state, prior = step(plan, state, prior), (state, *prior)[:plan.keep]
        stored.put(n, state)
    return stored.trajectory()


def measure(traj: Trajectory) -> MeasurementRecord:
    """Boundary traces at every stored time plus the three final-time fields."""
    if len(traj) == 0:
        raise ValueError("cannot measure an empty trajectory")
    idx = traj.domain.boundary_indices()
    m = len(traj.times)
    flat = lambda arr: arr.reshape(m, -1)[:, idx]
    return MeasurementRecord(
        times=traj.times.copy(),
        boundary_u=flat(traj.u),
        boundary_v=flat(traj.v),
        boundary_w=flat(traj.w),
        final_u=traj.u[-1].copy(),
        final_v=traj.v[-1].copy(),
        final_w=traj.w[-1].copy(),
        boundary_flat_indices=idx,
    )
