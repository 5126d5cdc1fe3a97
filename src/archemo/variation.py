"""First- and second-order variation systems and their finite-difference twins.

Perturbing the initial data around a constant equilibrium,

    f(eps) = u0 + eps*f1 + eps^2*f2,   g, h likewise,

the solution map S(eps) is smooth in eps and its derivatives at eps = 0
satisfy linear cascade systems.  The first variation of the density obeys

    du1/dt = Lap u1 + (r - 2 mu u0) u1 - u0 (chi Lap v1 - xi Lap w1),

(at the trivial equilibrium simply du1/dt = Lap u1 + r u1) while v1, w1 come
from the linearized chemical equations.  The second variation picks up the
sources

    -2 div(u1 grad(chi v1 - xi w1)) - 2 mu u1^2

in the density equation, and a11*u1*v1 + 2*a20*u1^2 + 2*a02*v1^2 (plus the
u2 feedback) in the chemical equations, with initial data u2(0) = 2 f2.

Both orders are solved directly on the nonlinear solver's step plan
(:class:`forward.StepPlan`), through the same implicit solve and kinetics
grids, so finite differences of nonlinear runs converge to the direct
solutions at first order in eps; the one-sided ladders (eps > 0 keeps
the data admissible) are sharpened by Richardson extrapolation.  That
extrapolation is a fixed linear combination of the ladder's runs, so the
extraction folds each run into its results block by block while the solver
stores it.  One extraction holds its six result fields, the u-differences of
the m - 2 inner ladder nodes (which the tails behind its diagnostics read) and
one block of the run being solved: 7 components on the default three-node
ladder, however long the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import grid as g
from .forward import (
    EquilibriumState,
    KineticsSpec,
    ParameterSet,
    SliceStore,
    SolverConfig,
    StepPlan,
    Trajectory,
    solve_forward,
    stored_times,
)
from .grid import Domain

__all__ = [
    "PerturbationFamily",
    "VariationStack",
    "ForwardHandle",
    "known_base",
    "solve_variations",
    "extract_variation_fd",
    "consistency_report",
    "ConsistencyReport",
]

DEFAULT_EPSILONS = (1e-2, 5e-3, 2.5e-3)


@dataclass
class PerturbationFamily:
    """Initial-data perturbation profiles, named in PROFILES, and the epsilon ladder.

    Realized initial data: u0 + eps*f1 + eps^2*f2 (likewise g, h), so the
    first and second eps-derivatives at zero are f1 and 2*f2.  Profiles may take
    either sign: the linear systems of :func:`solve_variations` accept any, and the
    realized data of a nonlinear run must be non-negative, which
    :func:`forward.solve_forward` checks before its first step.
    """

    PROFILES = ("f1", "g1", "h1", "f2", "g2", "h2")

    f1: np.ndarray | None = None
    g1: np.ndarray | None = None
    h1: np.ndarray | None = None
    f2: np.ndarray | None = None
    g2: np.ndarray | None = None
    h2: np.ndarray | None = None
    epsilons: tuple = DEFAULT_EPSILONS

    def profile(self, name, domain: Domain):
        val = getattr(self, name)
        if val is None:
            return domain.zeros()
        return domain.check_field(np.asarray(val, dtype=float), name)

    def validate(self, domain: Domain):
        eps = tuple(float(e) for e in self.epsilons)
        # one node gives no slope and, without first_direct, an order 2 that is zero
        if len(eps) < 2:
            raise ValueError(f"epsilon ladder needs at least two entries, got {len(eps)}")
        if any(e <= 0 for e in eps):
            raise ValueError("epsilon ladder entries must be strictly positive")
        if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
            raise ValueError("epsilon ladder must be strictly decreasing")
        # each profile is None or a finite field on the grid; its sign is not checked
        for name in self.PROFILES:
            self.profile(name, domain)
        return self

    def initial_data(self, domain: Domain, equilibrium: EquilibriumState, eps: float):
        if eps <= 0:
            raise ValueError("eps must be strictly positive")
        u0, v0, w0 = equilibrium
        f = u0 + eps * self.profile("f1", domain) + eps * eps * self.profile("f2", domain)
        gg = v0 + eps * self.profile("g1", domain) + eps * eps * self.profile("g2", domain)
        h = w0 + eps * self.profile("h1", domain) + eps * eps * self.profile("h2", domain)
        return f, gg, h


@dataclass
class VariationStack:
    """First and second variation trajectories with provenance."""

    order1: Trajectory
    order2: Trajectory
    provenance: str = "direct"
    diagnostics: dict = field(default_factory=dict)


def known_base(domain: Domain, equilibrium: EquilibriumState,
               cfg: SolverConfig) -> Trajectory | None:
    """The run of :func:`forward.solve_forward` from ``equilibrium`` when it is known
    without a solve, else None.

    At the trivial equilibrium (0, 0, 0) every term of the IMEX step vanishes
    exactly: every kinetics table has total order >= 1; growth, competition and
    drift are multiples of u; and a zero source takes the zero return of
    :func:`grid.helmholtz_solve`, which ends Picard at once.  The run is then zero
    on every stored time (:func:`forward.stored_times`), returned as read-only,
    zero-stride broadcast zeros.  A populated equilibrium is solved: neither
    r u0 - mu u0^2 nor the transform of a constant is sure to round to exactly
    zero, and the expansion point is not checked to be a steady state.
    """
    if any(equilibrium):
        return None
    times = stored_times(cfg)
    zero = np.broadcast_to(0.0, times.shape + domain.shape)
    return Trajectory(domain, times, zero, zero, zero)


@dataclass
class ForwardHandle:
    """Bundle of a forward run callable with the grid/equilibrium it acts on.

    ``run(f, g, h, store=None)`` solves on every call, stores the run's slices in
    ``store(domain, cfg, initial state)`` as :func:`forward.solve_forward` does (a
    :class:`forward.SliceStore` of the whole run when None) and returns its
    ``trajectory()``.  :meth:`base` is the run S(0) from the equilibrium, the
    one run every probing family differences against.  A handle that runs
    :func:`forward.solve_forward` (:meth:`of_solver`) takes it from
    :func:`known_base`, with no solve at the trivial equilibrium; any other
    handle solves it on first use and keeps it.
    """

    domain: Domain
    equilibrium: EquilibriumState
    run: object          # callable (f, g, h, store=None) -> Trajectory
    cfg: SolverConfig
    _base: Trajectory | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of_solver(cls, domain, equilibrium: EquilibriumState, run, cfg: SolverConfig):
        """A handle whose ``run`` is :func:`forward.solve_forward` on ``cfg``."""
        handle = cls(domain=domain, equilibrium=equilibrium, run=run, cfg=cfg)
        handle._base = known_base(domain, equilibrium, cfg)
        return handle

    @classmethod
    def from_model(cls, domain, p: ParameterSet, kin: KineticsSpec, cfg: SolverConfig):
        def _run(f, gg, h, store=None):
            return solve_forward(domain, (f, gg, h), p, kin, cfg, store=store)
        return cls.of_solver(domain, kin.expansion_point, _run, cfg)

    def base(self) -> Trajectory:
        """The run S(0) from the equilibrium: known, or solved on first use and kept."""
        if self._base is None:
            self._base = self.run(*(self.domain.constant(c) for c in self.equilibrium))
        return self._base


# ---------------------------------------------------------------------------
# the direct solver


def solve_variations(domain: Domain, p: ParameterSet, kin: KineticsSpec,
                     fam: PerturbationFamily, cfg: SolverConfig) -> VariationStack:
    """Direct solution of the first- and second-order variation systems.

    Both orders step on the run's :class:`forward.StepPlan`, each step one stacked
    :meth:`StepPlan.implicit`: the stack (u1, u2) at tau=0, whose chemicals are then
    slaved, and the stack ((u1, v1, w1), (u2, v2, w2)) of triples at tau=1.  The
    second order's sources need the first order only at the previous step (and, for
    slaved chemicals, the new one).  Slices are stored like the forward run's, so
    they line up with differences of oracle runs at any ``store_every``.
    """
    cfg.validate()
    fam.validate(domain)
    plan = StepPlan(domain, p, kin.validate(domain), cfg)
    u0 = plan.u0
    (beta, _, g_terms, *_), (delta, _, h_terms, *_) = plan.tables["g"], plan.tables["h"]
    # the (1, 0) grids of G and H, whose monomial weight is 1; zero for an absent entry
    a10, b10 = g_terms.get((1, 0), 0.0), h_terms.get((1, 0), 0.0)
    r_eff = p.r - 2.0 * p.mu * u0

    def coupling(v, w):
        # density response to chemical variations around a populated equilibrium
        if u0 == 0.0 or not plan.drift:
            return 0.0
        return u0 * (p.chi * g.laplacian_neumann(domain, v)
                     - p.xi * g.laplacian_neumann(domain, w))

    def slaved(u1, u2):
        # tau = 0: chemical variations of both orders in balance with the densities
        v1 = g.helmholtz_solve(domain, a10 * u1, beta)
        w1 = g.helmholtz_solve(domain, b10 * u1, delta)
        src_v = plan.second_order_sources("g", u1, v1)
        src_w = plan.second_order_sources("h", u1, w1)
        return (v1, w1, g.helmholtz_solve(domain, a10 * u2 + src_v, beta),
                g.helmholtz_solve(domain, b10 * u2 + src_w, delta))

    u1, u2 = fam.profile("f1", domain), 2.0 * fam.profile("f2", domain)
    if cfg.tau == 0:
        v1, w1, v2, w2 = slaved(u1, u2)
        x = np.array((u1, u2))
    else:
        v1, w1 = fam.profile("g1", domain), fam.profile("h1", domain)
        v2, w2 = 2.0 * fam.profile("g2", domain), 2.0 * fam.profile("h2", domain)
        x = np.array(((u1, v1, w1), (u2, v2, w2)))
    first = SliceStore(domain, cfg, (u1, v1, w1))
    second = SliceStore(domain, cfg, (u2, v2, w2))
    for n in range(1, cfg.n_steps + 1):
        # density sources of the second order, from both orders at the previous step
        source = -2.0 * p.mu * u1 * u1
        if plan.drift:
            source = source - 2.0 * g.advective_flux_div(domain, u1, p.chi * v1 - p.xi * w1)
        source = source - coupling(v2, w2)
        tendency = (r_eff * u1 - coupling(v1, w1), r_eff * u2 + source)
        if cfg.tau == 0:
            u1, u2 = x = plan.implicit(x, np.array(tendency))
            v1, w1, v2, w2 = slaved(u1, u2)
        else:
            src_v = plan.second_order_sources("g", u1, v1)
            src_w = plan.second_order_sources("h", u1, w1)
            tendency = ((tendency[0], a10 * u1 - beta * v1, b10 * u1 - delta * w1),
                        (tendency[1], a10 * u2 - beta * v2 + src_v, b10 * u2 - delta * w2 + src_w))
            (u1, v1, w1), (u2, v2, w2) = x = plan.implicit(x, np.array(tendency))
        first.put(n, (u1, v1, w1))
        second.put(n, (u2, v2, w2))
    return VariationStack(order1=first.trajectory(), order2=second.trajectory())


# ---------------------------------------------------------------------------
# finite-difference extraction
#
# Neville's value at eps = 0 is a fixed linear combination sum L_i d_i of the
# difference quotients, with the Lagrange weights at zero
# L_i = prod_{j != i} e_j / (e_j - e_i).  With D_i = S(e_i) - S(0), the order-1
# extrapolation is sum (L_i / e_i) D_i and the order-2 one
# sum (2 L_i / e_i^2) D_i - kappa * u1 with kappa = sum 2 L_i / e_i, so each run
# can be folded into running sums as it is solved, a block of stored slices at a
# time.  The tails P_a (a >= 1), the extrapolations from nodes a..m-1 that the
# corrections compare, read only the u-differences of nodes 1..m-1; the last run
# finishes each block, summing the tails term by term in node order as a fold
# would have summed them.

def _weights_at_zero(nodes):
    """Lagrange weights at zero of the interpolant through ``nodes``."""
    return [math.prod(ej / (ej - ei) for j, ej in enumerate(nodes) if j != i)
            for i, ei in enumerate(nodes)]


def _is_plus_zero(values) -> bool:
    """Whether ``values`` is a zero-stride broadcast of +0, as :func:`known_base`
    returns it, so that x - values is x bitwise."""
    return not any(values.strides) and values.flat[0] == 0.0 and not np.signbit(values.flat[0])


class _LadderFold:
    """The running sums of one extraction, fed one block of one ladder run at a time.

    A call ``fold(i, block, [u, v, w])`` adds node i's differences D_i on the
    stored times ``block`` to P_0 of both orders (and to the ladder's quotients),
    dropping each component once folded.  Each node's blocks must arrive in order
    within the base run's stored times; ``folded[i]`` counts node i's slices.  An
    inner node (0 < i < m - 1) copies its u-difference for the tails.  The last
    node finishes each block: the kappa term of order 2, then the tails on u and
    the largest change between consecutive ones, so its own u-difference is never
    held beyond its block.
    """

    def __init__(self, domain, base, eps, first_direct, return_ladder):
        m = len(eps)
        weights = [_weights_at_zero(eps[a:]) for a in range(m)]
        # coeff[order][a][i]: the weight of D_i in P_a (None for i < a)
        self.coeff = {order: [[None] * a + [w / e if order == 1 else 2.0 * w / (e * e)
                                            for w, e in zip(row, eps[a:])]
                              for a, row in enumerate(weights)] for order in (1, 2)}
        self.kappa = [2.0 * sum(w / e for w, e in zip(row, eps[a:]))
                      for a, row in enumerate(weights)]
        self.domain, self.base, self.eps, self.first_direct = domain, base, eps, first_direct
        # the base components to subtract: all but the known zero's
        self.subtracted = {name: None if _is_plus_zero(base.component(name))
                           else base.component(name) for name in "uvw"}
        shape = base.times.shape + domain.shape
        self.result = {(order, name): np.empty(shape) for order in (1, 2) for name in "uvw"}
        self.du = {i: np.empty(shape) for i in range(1, m - 1)}   # inner node i's u-difference
        self.folded = [0] * m
        # per order, the largest |P_a - P_{a+1}| on each block, for a = m-2 down to 0
        self.maxima = {order: [[] for _ in range(m - 1)] for order in (1, 2)}
        self.quotients = [] if return_ladder else None

    def _u1(self, name):
        # the first variation the order-2 sums difference against
        return (self.first_direct.component(name) if self.first_direct is not None
                else self.result[1, name])

    def __call__(self, i, block, held):
        eps, base, m = self.eps, self.base, len(self.eps)
        if block.start != self.folded[i] or block.stop > len(base.times):
            raise ValueError(f"ladder node {i} (eps = {eps[i]!r}) folded slices {block.start}:"
                             f"{block.stop} after {self.folded[i]} of {len(base.times)}")
        self.folded[i] = block.stop
        shape = (block.stop - block.start,) + self.domain.shape
        if self.quotients is not None:
            if not block.start:
                self.quotients.append([np.empty(base.times.shape + self.domain.shape)
                                       for _ in range(6)])
            # the order-2 quotients still lack their u1 term, which needs order 1
            q, e = self.quotients[i], eps[i]
            for k, c in enumerate((1.0 / e, 2.0 / (e * e))):
                for j, name in enumerate("uvw"):
                    out = np.multiply(held[j], c, out=q[3 * k + j][block])
                    out += base.component(name)[block] * -c
        scratch = np.empty(shape) if i else None
        last_du = None
        for name in "uvw":
            diff, at = held.pop(0), self.subtracted[name]
            if at is not None:
                diff = diff - at[block]
            for order in (1, 2):
                acc = self.result[order, name][block]
                if i:
                    acc += np.multiply(diff, self.coeff[order][0][i], out=scratch)
                else:
                    np.multiply(diff, self.coeff[order][0][0], out=acc)
            if i == m - 1:
                # the block of order 1 is complete, and acc is the block of order 2
                acc -= np.multiply(self._u1(name)[block], self.kappa[0], out=scratch)
            if name == "u" and i:
                if i == m - 1:
                    last_du = diff
                else:
                    self.du[i][block] = diff
            del diff
        if last_du is not None:
            self._corrections(block, last_du, scratch)

    def _corrections(self, block, last_du, scratch):
        m = len(self.eps)
        du = [None] + [self.du[i][block] for i in range(1, m - 1)] + [last_du]
        u1 = self._u1("u")[block]
        for order in (1, 2):
            coeff, prev = self.coeff[order], None
            for a in range(m - 1, -1, -1):
                if a:
                    tail = coeff[a][a] * du[a]
                    for i in range(a + 1, m):
                        tail += np.multiply(du[i], coeff[a][i], out=scratch)
                    if order == 2:
                        tail -= np.multiply(u1, self.kappa[a], out=scratch)
                else:
                    tail = self.result[order, "u"][block]
                if prev is not None:
                    np.subtract(tail, prev, out=scratch)
                    self.maxima[order][m - 2 - a].append(np.max(np.abs(scratch, out=scratch)))
                prev = tail

    def stack(self):
        """The extraction's stack and, with ``return_ladder``, its ladder."""
        domain, times = self.domain, self.base.times
        self.du.clear()
        diagnostics = {f"order{order}_corrections": [float(np.max(block_maxima))
                                                     for block_maxima in self.maxima[order]]
                       for order in (1, 2)}
        corr1 = diagnostics["order1_corrections"]
        if len(corr1) >= 2 and corr1[-1] > corr1[-2] * 4.0 and corr1[-1] > 1e-12:
            diagnostics["ladder_warning"] = (
                "order-1 extrapolation corrections are not decreasing; ladder too coarse")
        order1, order2 = (Trajectory(domain, times, *(self.result[order, name] for name in "uvw"))
                          for order in (1, 2))
        stack = VariationStack(order1=order1, order2=order2, provenance="finite-difference",
                               diagnostics=diagnostics)
        if self.quotients is None:
            return stack
        for e, q in zip(self.eps, self.quotients):
            for acc, name in zip(q[3:], "uvw"):
                acc += self._u1(name) * (-2.0 / e)
        return stack, [(e, VariationStack(Trajectory(domain, times, *q[:3]),
                                          Trajectory(domain, times, *q[3:]),
                                          provenance="finite-difference"))
                       for e, q in zip(self.eps, self.quotients)]


def extract_variation_fd(handle: ForwardHandle, fam: PerturbationFamily,
                         first_direct: Trajectory | None = None,
                         return_ladder: bool = False):
    """Both variations by one-sided differencing of nonlinear runs over the eps ladder.

    Order 1 uses (S(eps) - S(0))/eps, order 2 uses 2*(S(eps) - S(0) - eps*u1)/eps^2,
    both from the same runs; both are Richardson-extrapolated across the ladder
    (one-sided stencils only, since eps < 0 can break the non-negativity of the
    initial data).  S(0) is the handle's base run, whose subtraction is skipped
    only where it is the known zero of :func:`known_base`.  The extrapolation is
    streamed: each ladder run is solved into a :class:`forward.SliceStore` with a
    fold, which holds it in FOLD_BLOCKS blocks and hands each block of stored
    slices to the fold as the solve completes it.  On an m-node ladder one
    extraction holds its six result fields, the u-differences of the m - 2 inner
    nodes and one block of the run being solved (the last node's difference is
    folded into the corrections block by block and never held whole).  A run that
    does not store exactly the base run's slices, in order, raises ValueError
    naming its node and eps, and a solver handle's run from negative realized
    initial data raises it before its first step.  ``first_direct`` substitutes a
    trusted first-order trajectory in the order-2 stencil; by default the
    extrapolated order-1 result is used.

    On an m-node ladder (m >= 2), ``diagnostics["order{1,2}_corrections"]``
    list max|P_a(0) - P_{a+1}(0)| on u for a = m-2 down to 0, where P_a
    interpolates the quotients at nodes a..m-1: the change each larger eps
    makes to the extrapolation.  Without ``first_direct`` the last order-2
    correction is zero in exact arithmetic, since the order-2 quotients then
    lie on one polynomial of degree m - 2, so it reads rounding only.
    ``ladder_warning`` is set when the last order-1 correction exceeds both
    1e-12 and four times the one before it.  ``return_ladder`` also returns the
    ladder's difference quotients, each formed while its run is in hand.
    """
    domain = handle.domain
    fam.validate(domain)
    eps = tuple(float(e) for e in fam.epsilons)
    base = handle.base()
    fold = _LadderFold(domain, base, eps, first_direct, return_ladder)
    for i, e in enumerate(eps):
        init = fam.initial_data(domain, handle.equilibrium, e)
        handle.run(*init, store=partial(SliceStore, fold=partial(fold, i)))
        if fold.folded[i] != len(base.times):
            raise ValueError(f"ladder node {i} (eps = {e!r}) folded {fold.folded[i]} stored "
                             f"slices, not the base run's {len(base.times)}")
    return fold.stack()


# ---------------------------------------------------------------------------
# consistency between the two provenances


def space_time_norm(domain: Domain, times, values) -> float:
    """L2 norm over the space-time cylinder with trapezoid weights in both."""
    wt = g.time_weights(times)
    sq = np.abs(values) ** 2 * domain.weights
    per_time = sq.reshape(len(wt), -1).sum(axis=1)
    return math.sqrt(float(np.sum(wt * per_time)))


@dataclass
class ConsistencyReport:
    rows: list                      # (eps, order, l2, linf)
    slopes: dict                    # order -> fitted slope (may be NaN)
    floor: float = 1e-13

    def to_text(self):
        lines = ["eps        order  L2-discrepancy  Linf-discrepancy"]
        for eps, order, l2, linf in self.rows:
            lines.append(f"{eps:<10.3e} {order:<6d} {l2:<15.6e} {linf:<16.6e}")
        for order, slope in sorted(self.slopes.items()):
            tag = "at floor, slope not meaningful" if math.isnan(slope) else f"{slope:.3f}"
            lines.append(f"observed order-{order} slope: {tag}")
        return "\n".join(lines)


def _fit_slope(eps_list, err_list, floor):
    if any(e <= floor for e in err_list):
        return float("nan")
    x = np.log(np.asarray(eps_list))
    y = np.log(np.asarray(err_list))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def consistency_report(domain: Domain, direct: VariationStack, ladder,
                       floor: float = 1e-13) -> ConsistencyReport:
    """Per-epsilon discrepancies between direct and finite-difference variations.

    ``ladder`` is the list of (eps, VariationStack) pairs returned by
    :func:`extract_variation_fd` with ``return_ladder=True``.  Slopes come
    from a log-log least-squares fit; discrepancies at the solver floor give
    NaN slopes (flagged, not an error).
    """
    rows = []
    errs = {1: [], 2: []}
    for eps, stack in ladder:
        for order, fd, exact in ((1, stack.order1, direct.order1), (2, stack.order2, direct.order2)):
            diff = fd.u - exact.u
            l2 = space_time_norm(domain, exact.times, diff)
            rows.append((eps, order, l2, float(np.max(np.abs(diff)))))
            errs[order].append(l2)
    eps_list = [eps for eps, _ in ladder]
    slopes = {order: _fit_slope(eps_list, errs[order], floor) for order in (1, 2)}
    return ConsistencyReport(rows=rows, slopes=slopes, floor=floor)
