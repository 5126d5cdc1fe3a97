import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from archemo.forward import KineticsSpec, ParameterSet, SolverConfig, stored_times
from archemo.grid import Domain, Drift

# property tests draw the same examples on every run, with no per-example deadline
settings.register_profile("archemo", derandomize=True, deadline=None, database=None)
settings.load_profile("archemo")


@pytest.fixture
def line129():
    return Domain(1.0, 129)


@pytest.fixture
def line65():
    return Domain(1.0, 65)


@pytest.fixture
def square33():
    return Domain((1.0, 1.0), (33, 33))


@pytest.fixture
def square65():
    return Domain((1.0, 1.0), (65, 65))


@pytest.fixture
def applied_params():
    return ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0,
                        alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)


@pytest.fixture
def nondegenerate_params():
    # beta != delta keeps the attractant and repellent channels distinguishable
    return ParameterSet(chi=0.1, xi=0.05, r=0.5, mu=1.0,
                        alpha=1.0, beta=1.0, gamma=0.8, delta=1.6)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_kinetics(params, **kw):
    return KineticsSpec.from_parameters(params, **kw)


def face_velocities(domain, potential):
    """The face velocities dP/dx of a potential, or a stack of them, per axis, read
    from a Drift of their own."""
    drift = Drift(domain, potential.shape)
    drift.load(potential)
    return drift.velocities


def upwind_patterns(domain, potential):
    """The upwind masks of a potential per axis (True takes the lower node)."""
    return [vel > 0 for vel in face_velocities(domain, potential)]


def quick_cfg(tau=0, dt=1e-3, t_final=0.3, **kw):
    return SolverConfig(tau=tau, dt=dt, t_final=t_final, **kw)


def traced_peak(fn, unit_bytes):
    """The result of fn() and the peak of the memory it allocated, traced by
    tracemalloc, in units of ``unit_bytes``."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / unit_bytes


def component_bytes(domain, cfg):
    """The bytes of one stored component (u, v or w) of a run on ``domain`` under ``cfg``."""
    return len(stored_times(cfg)) * domain.node_count * 8


def replay(traj, store):
    """What a handle's ``run(f, g, h, store)`` returns for the finished run ``traj``:
    ``traj`` itself when ``store`` is None, else the ``trajectory()`` of
    ``store(domain, cfg, first slice)`` fed every later slice, as
    :func:`forward.solve_forward` feeds its steps.  The store sees one unit step
    per stored slice; a fold reads only the slices and their order."""
    if store is None:
        return traj
    stored = store(traj.domain, SolverConfig(dt=1.0, t_final=float(len(traj) - 1)),
                   [x[0] for x in (traj.u, traj.v, traj.w)])
    for n in range(1, len(traj)):
        stored.put(n, [x[n] for x in (traj.u, traj.v, traj.w)])
    return stored.trajectory()
