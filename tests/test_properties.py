"""Property-based invariants of the grid operators that the hot paths rely on.

The examples come from ``hypothesis`` under the derandomized profile of
``conftest.py``: random grids in one and two dimensions (both transform paths
of the spectral solve included), fields, upwind patterns and decays.
"""

import math

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from archemo.grid import (
    Domain,
    advective_flux_div,
    advective_flux_div_patterned,
    face_velocities,
    spectral_helmholtz,
    upwind_flux_div,
    upwind_patterns,
)

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
    # the slice alone: the flux divergences for any velocities and patterns, and the
    # spectral solve for a scalar decay and for one decay per slice
    d = data.draw(domains())
    k = data.draw(st.integers(1, 3))
    u, potential, other = (data.draw(fields(d, (k,))) for _ in range(3))
    decays = data.draw(hnp.arrays(np.float64, (k,), elements=st.floats(1e-6, 1e4)))
    decay = data.draw(st.floats(1e-6, 1e4))
    upwind = upwind_flux_div(d, u, face_velocities(d, potential))
    patterned = advective_flux_div_patterned(d, u, potential, upwind_patterns(d, other))
    per_slice = spectral_helmholtz(d, u, decays.reshape((-1,) + (1,) * d.dim))
    shared = spectral_helmholtz(d, u, decay)
    for i in range(k):
        assert np.array_equal(upwind[i], upwind_flux_div(d, u[i], face_velocities(d, potential[i])))
        assert np.array_equal(patterned[i], advective_flux_div_patterned(
            d, u[i], potential[i], upwind_patterns(d, other[i])))
        assert np.array_equal(per_slice[i], spectral_helmholtz(d, u[i], float(decays[i])))
        assert np.array_equal(shared[i], spectral_helmholtz(d, u[i], decay))
