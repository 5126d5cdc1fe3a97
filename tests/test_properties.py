"""Property-based invariants that the hot paths, the extraction and the estimators rely on.

The examples come from ``hypothesis`` under the derandomized profile of
``conftest.py``: random grids in one and two dimensions (both transform paths
of the spectral solve included), fields, upwind patterns, decays and step
sizes, elliptic sources, run stores of random strides and block counts, epsilon
ladders with polynomial runs or random runs folded in random blocks, random
models run from zero data, discrete modal series, the regression rows of
stages 2 and 4 split into random blocks of slices, and profile strings.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from archemo.forward import (
    EquilibriumState,
    KineticsSpec,
    ParameterSet,
    SeparableField,
    SliceStore,
    SolverConfig,
    StepPlan,
    Trajectory,
    solve_forward,
    stored_times,
)
from archemo.grid import (
    ELLIPTIC_TOL,
    RESIDUAL_ROUNDING_SLACK,
    Domain,
    advective_flux_div,
    advective_flux_div_patterned,
    helmholtz_solve,
    laplacian_neumann,
    spectral_helmholtz,
)
from archemo import forward
from archemo.harness import _PROFILE_ARGS, build_profile
from archemo.recover import FIT_REL_FLOOR, _node_gram, fit_exponential_rate, rate_to_growth
from archemo.variation import ForwardHandle, PerturbationFamily, extract_variation_fd, known_base

from conftest import face_velocities, replay, upwind_patterns

EPS = np.finfo(float).eps


@st.composite
def domains(draw):
    dim = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(8, 129 if dim == 1 else 72)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.1, 3.0)) for _ in range(dim))
    return Domain(lengths, cells)


def fields(domain, lead=()):
    return hnp.arrays(np.float64, lead + domain.shape, elements=st.floats(-1e3, 1e3))


def telescoped_scale(domain, u, vels):
    # twice the sum over faces of |velocity| * the larger |u| beside the face, times
    # the weights of the other axes: it bounds the weighted size of every term that
    # the conservation sum telescopes, since each face's flux enters two cells
    total = 0.0
    for axis, vel in enumerate(vels):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        across = np.ones(())
        for other, w in enumerate(domain.axis_weights):
            if other != axis:
                across = across * w.reshape((-1,) + (1,) * (domain.dim - 1 - other))
        total += float(np.sum(np.abs(vel) * np.maximum(np.abs(u[lo]), np.abs(u[hi])) * across))
    return 2.0 * total


@given(st.data())
def test_flux_divergence_conserves_the_weighted_total(data):
    # outer faces carry no flux, so the trapezoid-weighted total of the divergence
    # telescopes to zero; what remains is the rounding of each term and of the sum
    d = data.draw(domains())
    u, potential, other = (data.draw(fields(d)) for _ in range(3))
    bound = (8.0 + math.log2(d.node_count)) * EPS * telescoped_scale(
        d, u, face_velocities(d, potential))
    frozen = upwind_patterns(d, other)
    for div in (advective_flux_div(d, u, potential),
                advective_flux_div_patterned(d, u, potential, frozen)):
        assert abs(float(np.sum(d.weights * div))) <= bound


@given(st.data())
def test_a_stack_equals_its_slices(data):
    # each operator on a stack returns, slice by slice, bitwise what it returns for
    # the slice alone: the Laplacian, the face velocities, the flux divergences for
    # any potentials and patterns, and the spectral solve for a scalar decay and for
    # one decay per slice
    d = data.draw(domains())
    k = data.draw(st.integers(1, 3))
    u, potential, other = (data.draw(fields(d, (k,))) for _ in range(3))
    decays = data.draw(hnp.arrays(np.float64, (k,), elements=st.floats(1e-6, 1e4)))
    decay = data.draw(st.floats(1e-6, 1e4))
    upwind = advective_flux_div(d, u, potential)
    patterned = advective_flux_div_patterned(d, u, potential, upwind_patterns(d, other))
    per_slice = spectral_helmholtz(d, u, decays.reshape((-1,) + (1,) * d.dim))
    shared = spectral_helmholtz(d, u, decay)
    laplacian, velocities = laplacian_neumann(d, u), face_velocities(d, potential)
    for i in range(k):
        assert np.array_equal(laplacian[i], laplacian_neumann(d, u[i]))
        for stacked, alone in zip(velocities, face_velocities(d, potential[i])):
            assert np.array_equal(stacked[i], alone)
        assert np.array_equal(upwind[i], advective_flux_div(d, u[i], potential[i]))
        assert np.array_equal(patterned[i], advective_flux_div_patterned(
            d, u[i], potential[i], upwind_patterns(d, other[i])))
        assert np.array_equal(per_slice[i], spectral_helmholtz(d, u[i], float(decays[i])))
        assert np.array_equal(shared[i], spectral_helmholtz(d, u[i], decay))


@st.composite
def elliptic_sources(draw):
    # 1D grids of 9-257 nodes and 2D grids of up to 65 x 65, sides 0.1-3, and a
    # source that is random, smooth (one cosine mode), offset (a constant plus a
    # small random part) or a checkerboard, at any scale
    dim = draw(st.integers(1, 2))
    cells = (draw(st.integers(9, 257)),) if dim == 1 else tuple(
        draw(st.integers(8, 65)) for _ in range(2))
    d = Domain(tuple(draw(st.floats(0.1, 3.0)) for _ in range(dim)), cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "smooth", "offset", "checkerboard"]))
    if kind == "random":
        source = rng.standard_normal(d.shape)
    elif kind == "smooth":
        source = np.ones(d.shape)
        for axis, (n, length) in enumerate(zip(d.cells, d.lengths)):
            k = draw(st.integers(0, n - 1))
            shape = [1] * dim
            shape[axis] = n
            source = source * np.cos(k * math.pi * d.axes[axis] / length).reshape(shape)
    elif kind == "offset":
        source = 1.0 + 1e-6 * rng.standard_normal(d.shape)
    else:
        source = (-1.0) ** np.indices(d.shape).sum(axis=0)
    return d, source * 10.0 ** draw(st.floats(-6.0, 6.0))


@given(elliptic_sources(), st.floats(-6.0, 4.0))
def test_helmholtz_solve_meets_its_tolerance_or_rounding_floor(case, log_decay):
    # the spectral solve raises unless its residual, as it evaluates it, reaches
    # ELLIPTIC_TOL of the source or the rounding floor RESIDUAL_ROUNDING_SLACK * eps *
    # (largest eigenvalue + decay) * |v|; the residual evaluated through the
    # Laplacian meets the same bound
    d, source = case
    decay = 10.0 ** log_decay
    v = helmholtz_solve(d, source, decay)
    residual = source - (decay * v - laplacian_neumann(d, v))

    def norm(x):
        return math.sqrt(float(np.sum(d.weights * x * x)))
    floor = (RESIDUAL_ROUNDING_SLACK * EPS * (float(np.max(d.neumann_eigenvalues)) + decay)
             * norm(v))
    assert norm(residual) <= max(ELLIPTIC_TOL * norm(source), floor)


PARAMS = ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0, alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)


@given(st.data())
def test_the_implicit_solve_of_a_stack_equals_its_slices(data):
    # the plan's implicit solve of a (2, *grid) stack at tau=0, and of a (2, 3, *grid)
    # stack of (u, v, w) triples at tau=1, returns bitwise the solve of each slice:
    # each triple alone, and each field alone with its own step size
    d = data.draw(domains())
    tau = data.draw(st.integers(0, 1))
    dt = data.draw(st.floats(1e-5, 1e-1))
    cfg = SolverConfig(tau=tau, dt=dt, relaxation_speedup=data.draw(st.floats(0.5, 4.0)))
    plan = StepPlan(d, PARAMS, KineticsSpec.from_parameters(PARAMS), cfg)
    lead = (2,) + (3,) * tau
    x, tendency = (data.draw(fields(d, lead)) for _ in range(2))
    stacked = plan.implicit(x, tendency.copy())
    for i in range(2):
        assert np.array_equal(stacked[i], plan.implicit(x[i], tendency[i].copy()))
        for j, size in enumerate(np.ravel(plan.sizes) if tau else ()):
            alone = StepPlan(d, PARAMS, KineticsSpec.from_parameters(PARAMS),
                             SolverConfig(tau=0, dt=float(size)))
            assert np.array_equal(stacked[i, j], alone.implicit(x[i, j], tendency[i, j].copy()))


@given(st.data())
def test_extraction_is_exact_on_polynomial_runs(data):
    # runs S(eps) = S(0) + sum over k = 1..m of c_k eps^k on an m-node ladder: the
    # order-1 quotients are a polynomial of degree m - 1 in eps and the order-2 ones
    # of degree m - 2, which Neville's extrapolation reproduces, so the extraction
    # returns c_1 and 2 c_2 up to the rounding of its weighted sums
    m = data.draw(st.integers(2, 4))
    eps = sorted(data.draw(st.lists(st.floats(1e-3, 0.5), min_size=m, max_size=m, unique=True)),
                 reverse=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = Domain(1.0, 9)
    times = np.linspace(0.0, 0.1, 4)
    shape = (3,) + times.shape + d.shape
    base, *coeffs = (rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3, 3)
                     for _ in range(m + 1))

    def run(f, gg, h, store=None):
        e = float(f[0])         # f = eps * f1 with f1 = 1, and 0 for the base run
        return replay(Trajectory(d, times, *(base + sum(c * e**k for k, c in
                                                        enumerate(coeffs, 1)))), store)
    handle = ForwardHandle(domain=d, equilibrium=EquilibriumState(0.0, 0.0, 0.0), run=run,
                           cfg=SolverConfig(dt=1e-3, t_final=0.1))
    fam = PerturbationFamily(f1=np.ones(d.shape), epsilons=tuple(eps))
    stack = extract_variation_fd(handle, fam)
    # the bound: 16 m eps times the size each run enters with, through the Lagrange
    # weights at zero; order 2 also takes the error of order 1 through kappa
    weights = [math.prod(ej / (ej - ei) for j, ej in enumerate(eps) if j != i)
               for i, ei in enumerate(eps)]
    size = [np.max(np.abs(base)) + sum(np.max(np.abs(c)) * e**k for k, c in enumerate(coeffs, 1))
            for e in eps]
    tol1 = 16 * m * EPS * sum(abs(w) / e * s for w, e, s in zip(weights, eps, size))
    kappa = sum(2.0 * w / e for w, e in zip(weights, eps))
    tol2 = (16 * m * EPS * sum(2.0 * abs(w) / e**2 * s for w, e, s in zip(weights, eps, size))
            + abs(kappa) * tol1)
    for k, traj, tol in ((0, stack.order1, tol1), (1, stack.order2, tol2)):
        expected = (k + 1) * coeffs[k]
        got = np.stack([traj.u, traj.v, traj.w])
        assert np.max(np.abs(got - expected)) <= tol


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_stacks_bitwise(a, b):
    for order in ("order1", "order2"):
        ta, tb = getattr(a, order), getattr(b, order)
        assert _bits(ta.times) == _bits(tb.times)
        for name in "uvw":
            assert _bits(ta.component(name)) == _bits(tb.component(name))


@given(st.data())
def test_a_store_folds_each_stored_slice_once_in_order(data):
    # a store with a fold, at any FOLD_BLOCKS, hands it contiguous blocks in order, each
    # of ceil(count / blocks) slices but the last, and every stored slice exactly once;
    # together they are bitwise the run of a store without a fold, and trajectory() is
    # the last block
    d = Domain(*data.draw(st.sampled_from([(1.0, 9), ((1.0, 1.0), (8, 9))])))
    cfg = SolverConfig(dt=1e-2, t_final=data.draw(st.integers(1, 12)) * 1e-2,
                       store_every=data.draw(st.integers(1, 3)))
    count = len(stored_times(cfg))
    blocks = data.draw(st.integers(1, count))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = rng.uniform(-1.0, 1.0, (cfg.n_steps + 1, 3) + d.shape)
    folded = []

    def filled(store):
        for n in range(1, cfg.n_steps + 1):
            store.put(n, states[n])
        return store.trajectory()

    whole = filled(SliceStore(d, cfg, states[0]))
    steps = np.append(np.arange(0, cfg.n_steps, cfg.store_every), cfg.n_steps)
    assert _bits(whole.times) == _bits(stored_times(cfg))
    assert _bits(np.stack([whole.u, whole.v, whole.w], axis=1)) == _bits(states[steps])
    with mock.patch.object(forward, "FOLD_BLOCKS", blocks):
        last = filled(SliceStore(d, cfg, states[0], fold=lambda block, held: folded.append(
            (block, [x.copy() for x in held]))))
    spans = [block for block, _ in folded]
    assert [b.start for b in spans] == [0] + [b.stop for b in spans[:-1]]
    assert spans[-1].stop == count
    size = -(-count // blocks)
    assert all(b.stop - b.start == size for b in spans[:-1])
    assert 0 < spans[-1].stop - spans[-1].start <= size
    for j, name in enumerate("uvw"):
        assert _bits(np.concatenate([held[j] for _, held in folded])) == _bits(
            whole.component(name))
        assert _bits(last.component(name)) == _bits(folded[-1][1][j])
    assert _bits(last.times) == _bits(whole.times[spans[-1]])


@given(st.data())
def test_folding_runs_by_blocks_equals_folding_them_whole(data):
    # an extraction folds each run as its store completes blocks of slices; the same
    # runs folded whole, with FOLD_BLOCKS = 1, give the same bits: every sum is the
    # same elementwise operation, and a correction's maximum over blocks is its maximum
    m = data.draw(st.integers(2, 4))
    eps = tuple(sorted(data.draw(st.lists(st.floats(1e-3, 0.5), min_size=m, max_size=m,
                                          unique=True)), reverse=True))
    d = Domain(*data.draw(st.sampled_from([(1.0, 9), ((1.0, 1.0), (8, 9))])))
    cfg = SolverConfig(dt=1e-2, t_final=data.draw(st.integers(1, 12)) * 1e-2,
                       store_every=data.draw(st.integers(1, 3)))
    count = len(stored_times(cfg))
    # blocks of ceil(count / blocks) slices, from the whole run down to one slice
    blocks = data.draw(st.integers(1, count))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = {}

    def run(f, gg, h, store=None):
        # a random state for every step, fixed per initial datum
        key = float(f.flat[0])
        if key not in states:
            states[key] = rng.uniform(-1.0, 1.0, (cfg.n_steps + 1, 3) + d.shape) * 10.0 ** (
                rng.uniform(-3, 3))
        stored = (store or SliceStore)(d, cfg, states[key][0])
        for n in range(1, cfg.n_steps + 1):
            stored.put(n, states[key][n])
        return stored.trajectory()

    eq = EquilibriumState(0.0, 0.0, 0.0)
    if data.draw(st.booleans()):
        # the known zero base of a solver handle, whose subtraction is skipped
        handle = ForwardHandle.of_solver(d, eq, run, cfg)
    else:
        # a solved, random base run
        handle = ForwardHandle(domain=d, equilibrium=eq, run=run, cfg=cfg)
    direct = None
    if data.draw(st.booleans()):
        direct = Trajectory(d, stored_times(cfg), *rng.uniform(-1.0, 1.0, (3, count) + d.shape))
    return_ladder = data.draw(st.booleans())
    fam = PerturbationFamily(f1=np.ones(d.shape), epsilons=eps)
    with mock.patch.object(forward, "FOLD_BLOCKS", 1):
        want = extract_variation_fd(handle, fam, first_direct=direct,
                                    return_ladder=return_ladder)
    with mock.patch.object(forward, "FOLD_BLOCKS", blocks):
        got = extract_variation_fd(handle, fam, first_direct=direct,
                                   return_ladder=return_ladder)
    if return_ladder:
        (got, got_ladder), (want, want_ladder) = got, want
        assert [e for e, _ in got_ladder] == [e for e, _ in want_ladder] == list(eps)
        for (_, a), (_, b) in zip(got_ladder, want_ladder):
            _assert_stacks_bitwise(a, b)
    _assert_stacks_bitwise(got, want)
    assert got.diagnostics == want.diagnostics
    assert [len(got.diagnostics[f"order{k}_corrections"]) for k in (1, 2)] == [m - 1] * 2


@given(st.data())
def test_a_gram_by_blocks_of_slices_equals_one_sum(data):
    # the per-node Gram of stages 2 and 4, summed one block of slices at a time, is
    # bitwise one np.sum over all times of each weighted product; at least 8 nodes, a
    # Domain's minimum, since np.sum over the times of one node sums pairwise
    n, nodes = data.draw(st.integers(1, 60)), data.draw(st.integers(8, 60))
    count = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(-1.0, 1.0, (count, n, nodes)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    w = rng.uniform(0.0, 1.0, (n, 1))
    if data.draw(st.booleans()):      # masked per node, as stage 2's weights are
        w = w * (rng.uniform(0.0, 1.0, (n, nodes)) >= 0.3)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else [])
    blocks = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    got = _node_gram((w[block], [row[block] for row in rows]) for block in blocks)
    assert sorted(got) == [(k, j) for k in range(count) for j in range(k, count)]
    for (k, j), total in got.items():
        assert _bits(total) == _bits(np.sum((w * rows[k]) * rows[j], axis=0))


def _kinetics_table(data, d, decay):
    # a (1, 0) entry of either sign, constant or varying across the last axis only,
    # the (0, 1) decay, and any of the three second-order entries (a separable one
    # in 2D), in a random order
    if d.dim == 1 or data.draw(st.booleans()):
        a10 = data.draw(st.floats(-3.0, 3.0))
    else:
        a10 = np.repeat(data.draw(hnp.arrays(np.float64, (d.cells[0], 1),
                                             elements=st.floats(-3.0, 3.0))), d.cells[1], 1)
    table = {(1, 0): a10, (0, 1): -decay}
    for key in ((1, 1), (2, 0), (0, 2)):
        if data.draw(st.booleans()):
            if d.dim == 2 and data.draw(st.booleans()):
                axial = data.draw(hnp.arrays(np.float64, d.cells[1], elements=st.floats(0.5, 2.0)))
                table[key] = SeparableField(transverse=data.draw(hnp.arrays(
                    np.float64, d.cells[0], elements=st.floats(-2.0, 2.0))), axial=axial)
            else:
                table[key] = data.draw(st.floats(-2.0, 2.0))
    order = data.draw(st.permutations(list(table)))
    return {key: table[key] for key in order}


@given(st.data())
def test_the_run_from_zero_data_is_the_known_base(data):
    # every term of the step vanishes exactly at the trivial equilibrium, so a run from
    # zero data is +0 everywhere, with no negative zero, on the known base's times;
    # the known base stands in for this run in every extraction, which stays bitwise
    # only while this holds
    d = data.draw(domains())
    rates = st.floats(0.0, 5.0)
    p = ParameterSet(chi=data.draw(st.sampled_from([0.0, 0.1, 2.0])),
                     xi=data.draw(st.sampled_from([0.0, 0.05, 1.5])),
                     r=data.draw(rates), mu=data.draw(st.floats(0.1, 5.0)),
                     beta=data.draw(st.floats(0.1, 5.0)), delta=data.draw(st.floats(0.1, 5.0)))
    kin = KineticsSpec(g_coeffs=_kinetics_table(data, d, p.beta),
                       h_coeffs=_kinetics_table(data, d, p.delta))
    dt = data.draw(st.floats(1e-4, 1e-1))
    cfg = SolverConfig(tau=data.draw(st.integers(0, 1)), dt=dt,
                       t_final=data.draw(st.integers(1, 6)) * dt,
                       store_every=data.draw(st.integers(1, 3)),
                       relaxation_speedup=data.draw(st.floats(0.5, 4.0)))
    traj = solve_forward(d, (d.zeros(),) * 3, p, kin, cfg)
    base = known_base(d, kin.expansion_point, cfg)
    assert np.array_equal(traj.times, base.times)
    for name in "uvw":
        got = traj.component(name)
        assert got.shape == base.component(name).shape
        assert not np.any(got)
        assert not np.any(np.signbit(got))


@given(st.data())
def test_rate_to_growth_inverts_the_fitted_rate(data):
    # a discrete modal series c ((1 + dt r)/(1 + dt lam))^n is exactly exponential in
    # t = n dt, so the fitted rate, inverted through the growth factor per step, gives
    # back r up to the rounding of the series, of the fit and of the inversion
    dt = data.draw(st.floats(1e-4, 1e-1))
    r, lam = data.draw(st.floats(0.0, 50.0)), data.draw(st.floats(0.0, 1e3))
    scale = data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** data.draw(st.floats(-6.0, 6.0))
    n = np.arange(data.draw(st.integers(5, 2000)))
    growth = (1.0 + dt * r) / (1.0 + dt * lam)
    # in range: the fit keeps at least five samples above its floor, so a growing
    # series spans less than that floor
    assume(growth <= 1.0 or n[-1] * math.log(growth) < -math.log(FIT_REL_FLOOR))
    times, amps = n * dt, scale * growth ** n
    keep = np.flatnonzero(np.abs(amps) < FIT_REL_FLOOR * np.max(np.abs(amps)))
    assume(keep.size == 0 or keep[0] >= 5)
    theta = fit_exponential_rate(times, amps)[0]
    span = times[keep[0] - 1] if keep.size else times[-1]
    log_range = abs(math.log(growth)) * span / dt + abs(math.log(abs(scale)))
    tol = 64 * EPS * (1.0 + dt * r) * ((1.0 + log_range) / span + 1.0 / dt)
    assert abs(rate_to_growth(theta, lam, dt) - r) <= tol


@st.composite
def profile_strings(draw):
    # a bare number or a kind (or an unknown one) with arguments; unless the string is
    # drawn clean, names may be misspelt and values may not parse; axes fall in and out
    # of range either way
    clean = draw(st.booleans())
    number = st.one_of(st.integers(-3, 3).map(str), st.floats(-2.0, 2.0).map(repr))
    junk = st.sampled_from(["", "x", "1.5.2", "nan", "--1", "2x", "x0.5", "1x0.2+", "0.5"])
    terms = st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0)), max_size=3).map(
        lambda pairs: "+".join(f"{k}x{a!r}" for k, a in pairs))
    kind = draw(st.sampled_from(sorted(_PROFILE_ARGS) + ["warp", ""]))
    if not kind:
        return draw(number if clean else st.one_of(number, junk))
    names = tuple(_PROFILE_ARGS.get(kind, ("a",)))
    misspelt = () if clean else tuple(name[:-1] or name * 2 for name in names)
    args = []
    for name in draw(st.lists(st.sampled_from(names + misspelt), max_size=5)):
        value = terms if name == "terms" else number
        args.append(f"{name}={draw(value if clean else st.one_of(value, junk))}")
    return f"{kind}:{','.join(args)}"


@given(st.data())
def test_a_profile_string_builds_a_profile_or_raises_value_error(data):
    domain = data.draw(domains())
    try:
        prof = build_profile(domain, data.draw(profile_strings()))
    except ValueError:
        return
    if isinstance(prof, SeparableField):
        prof = prof.on_grid(domain)
    assert isinstance(prof, float) or (isinstance(prof, np.ndarray) and prof.shape == domain.shape)
