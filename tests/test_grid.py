import math

import numpy as np
import pytest
import scipy.fft

from archemo.errors import EllipticSolveError
from archemo.grid import (
    Domain,
    Drift,
    advective_flux_div,
    advective_flux_div_patterned,
    helmholtz_solve,
    inner_product,
    laplacian_neumann,
    quadrature,
    spectral_helmholtz,
)

from conftest import face_velocities, upwind_patterns


def reference_cg(domain, source, decay, tol=1e-10, maxiter=200, precondition=True):
    """The conjugate-gradient screened-Poisson solver that the direct DCT-I solve replaced.

    Kept as the reference: with the exact spectral preconditioner it returns
    its initial iterate once the first residual check passes.  Returns the
    solution and the number of iterations taken.
    """
    w = domain.weights
    lam = domain.neumann_eigenvalues + decay

    def apply_op(v):
        return -laplacian_neumann(domain, v) + decay * v

    def apply_pre(rr):
        if not precondition:
            return rr
        return scipy.fft.idctn(scipy.fft.dctn(rr, type=1) / lam, type=1)

    def dot(a, b):
        return float(np.sum(w * a * b))

    bnorm = math.sqrt(dot(source, source))
    if bnorm == 0.0:
        return np.zeros_like(source), 0
    x = apply_pre(source)
    r = source - apply_op(x)
    z = apply_pre(r)
    p = z
    rz = dot(r, z)
    for it in range(maxiter):
        if math.sqrt(dot(r, r)) <= tol * bnorm:
            return x, it
        ap = apply_op(p)
        alpha = rz / dot(p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        z = apply_pre(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


def test_domain_invariants():
    d = Domain((1.0, 2.0), (33, 17))
    assert d.dim == 2
    assert d.axes[0][0] == 0.0 and d.axes[0][-1] == 1.0
    assert d.axes[1][0] == 0.0 and d.axes[1][-1] == 2.0
    assert d.node_count == 33 * 17
    assert all(h > 0 for h in d.spacing)
    # quadrature weights integrate 1 to the box volume
    assert quadrature(d, d.constant(1.0)) == pytest.approx(2.0, abs=1e-14)


def test_domain_rejects_bad_input():
    with pytest.raises(ValueError):
        Domain(1.0, 4)            # too few nodes
    with pytest.raises(ValueError):
        Domain((1.0, -1.0), (33, 33))
    with pytest.raises(ValueError):
        Domain((1.0, 1.0, 1.0), (9, 9, 9))


def test_laplacian_annihilates_constants():
    for d in (Domain(1.0, 33), Domain((1.0, 1.5), (17, 25))):
        lap = laplacian_neumann(d, d.constant(3.7))
        assert np.max(np.abs(lap)) == 0.0


def test_laplacian_cosine_eigenmode_accuracy():
    d = Domain(1.0, 129)
    f = np.cos(math.pi * d.axes[0])
    err = np.max(np.abs(laplacian_neumann(d, f) + math.pi ** 2 * f))
    assert err <= 2.0 * (math.pi * d.spacing[0]) ** 2 * math.pi ** 2


def test_laplacian_quadratic_interior_exact():
    d = Domain(1.0, 65)
    f = d.axes[0] ** 2
    lap = laplacian_neumann(d, f)
    assert np.max(np.abs(lap[1:-1] - 2.0)) < 1e-10


def test_laplacian_spatial_order_two():
    errs = []
    for n in (33, 65, 129):
        d = Domain(1.0, n)
        f = np.cos(2 * math.pi * d.axes[0])
        lam = (2 * math.pi) ** 2
        errs.append(np.max(np.abs(laplacian_neumann(d, f) + lam * f)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) <= 0.2


def test_laplacian_rejects_nonfinite():
    d = Domain(1.0, 33)
    bad = d.constant(1.0)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        laplacian_neumann(d, bad)


def test_self_adjointness(rng):
    for d in (Domain(1.0, 65), Domain((1.0, 1.0), (33, 33))):
        f = rng.standard_normal(d.shape)
        g = rng.standard_normal(d.shape)
        f /= np.linalg.norm(f)
        g /= np.linalg.norm(g)
        lhs = inner_product(d, laplacian_neumann(d, f), g)
        rhs = inner_product(d, f, laplacian_neumann(d, g))
        assert abs(lhs - rhs) <= 1e-10


def test_advective_zero_for_constant_potential(rng):
    d = Domain(1.0, 65)
    u = rng.random(d.shape)
    out = advective_flux_div(d, u, 1.3 * d.constant(4.2))
    assert np.max(np.abs(out)) == 0.0


def test_advective_reduces_to_laplacian_for_unit_density():
    # div(1 * grad p) = Lap p up to O(h) upwind error (second order here since
    # the donor values coincide for constant density)
    errs = []
    for n in (65, 129, 257):
        d = Domain(1.0, n)
        p = np.cos(math.pi * d.axes[0])
        out = advective_flux_div(d, d.constant(1.0), p)
        errs.append(np.max(np.abs(out + math.pi ** 2 * p)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[-1] < 0.5 * math.pi ** 3 * Domain(1.0, 257).spacing[0]
    for order in orders:
        assert 0.7 <= order <= 2.3


def test_advective_upwind_first_order_for_varying_density():
    # continuum oracle: d/dx[(2+sin(pi x)) d/dx cos(pi x)] = -2 pi^2 cos(pi x)(1+sin(pi x))
    errs = []
    for n in (65, 129, 257):
        d = Domain(1.0, n)
        x = d.axes[0]
        u = 2.0 + np.sin(math.pi * x)
        p = np.cos(math.pi * x)
        out = advective_flux_div(d, u, p)
        exact = -2.0 * math.pi ** 2 * np.cos(math.pi * x) * (1.0 + np.sin(math.pi * x))
        errs.append(np.max(np.abs(out[1:-1] - exact[1:-1])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 0.7 <= order <= 1.4


def test_advective_conservation(rng):
    # telescoping of the conservative flux form, verified by direct summation
    for d in (Domain(1.0, 129), Domain((1.0, 2.0), (33, 49))):
        u = rng.random(d.shape)
        p = rng.standard_normal(d.shape)
        total = quadrature(d, advective_flux_div(d, u, 0.7 * p))
        assert abs(total) <= 1e-12


def test_quadrature_examples():
    d2 = Domain((1.0, 1.0), (33, 33))
    assert quadrature(d2, d2.constant(1.0)) == pytest.approx(1.0, abs=1e-14)
    d = Domain(1.0, 129)
    assert abs(quadrature(d, np.cos(math.pi * d.axes[0]))) <= 1e-10
    d65 = Domain(1.0, 65)
    assert quadrature(d65, d65.axes[0]) == pytest.approx(0.5, abs=1e-12)


def test_helmholtz_residual_contract(rng):
    d = Domain(1.0, 65)
    src = rng.standard_normal(d.shape)
    sol = helmholtz_solve(d, src, decay=1.0, tol=1e-10)
    resid = -laplacian_neumann(d, sol) + sol - src
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(src)


def test_helmholtz_constant_and_mode():
    d = Domain(1.0, 129)
    c = helmholtz_solve(d, d.constant(2.5 * 3.0), decay=2.5)
    assert np.max(np.abs(c - 3.0)) < 1e-10
    f = np.cos(math.pi * d.axes[0])
    sol = helmholtz_solve(d, (math.pi ** 2 + 1.5) * f, decay=1.5)
    # discrete eigenvalue differs from pi^2 by O(h^2)
    assert np.max(np.abs(sol - f)) < 5.0 * d.spacing[0] ** 2 * math.pi ** 2


def test_helmholtz_rejects_bad_decay():
    d = Domain(1.0, 33)
    with pytest.raises(EllipticSolveError):
        helmholtz_solve(d, d.constant(1.0), decay=0.0)


def test_helmholtz_unpreconditioned_matches(rng):
    # plain CG shares nothing with the spectral solve but the operator
    d = Domain(1.0, 33)
    src = rng.standard_normal(d.shape)
    a = helmholtz_solve(d, src, decay=50.0, tol=1e-12)
    b, _ = reference_cg(d, src, decay=50.0, tol=1e-12, precondition=False, maxiter=2000)
    assert np.max(np.abs(a - b)) < 1e-9


# Largest difference, relative to max |reference|, allowed between the DCT-I matrix
# path and scipy.fft's transform pair.  Over 2D grids of 9-65 nodes per axis,
# decays 1e-6-50 and random and offset sources it was at most 26 eps.
MATRIX_PATH_RTOL = 64 * np.finfo(float).eps


def assert_matches_scipy_fft(domain, solved, expected):
    """Bitwise where the domain transforms through pocketfft, to rounding on the matrix path."""
    if domain.dct_matrices is None:
        assert np.array_equal(solved, expected)
    else:
        assert np.max(np.abs(solved - expected)) <= MATRIX_PATH_RTOL * np.max(np.abs(expected))


def test_spectral_direct_matches_cg(rng):
    # where CG accepts its spectrally preconditioned first iterate, the direct
    # solve returns that very array (to rounding on the 2D matrix path); where the
    # residual check sends CG round again (small decay, tight tol) the direct
    # solve stops at the rounding floor
    first_iterates = 0
    for d in (Domain(1.0, 33), Domain(1.0, 129), Domain((1.0, 1.0), (33, 33))):
        for decay in (1e-2, 0.3, 1.0, 7.5, 50.0):
            for tol in (1e-10, 1e-12):
                src = rng.standard_normal(d.shape)
                direct = helmholtz_solve(d, src, decay, tol=tol)
                assert np.array_equal(direct, spectral_helmholtz(d, src, decay))
                ref, iterations = reference_cg(d, src, decay, tol=tol)
                if iterations == 0:
                    first_iterates += 1
                    assert_matches_scipy_fft(d, direct, ref)
                else:
                    assert np.max(np.abs(direct - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert first_iterates >= 25


def test_helmholtz_small_decay_meets_rounding_floor():
    # at decay 1e-2 on 129 nodes the residual of the exact solution cannot be
    # evaluated below ~2e-10 of the source, so tol 1e-10 is met at the floor
    d = Domain(1.0, 129)
    src = 0.5 + 0.2 * np.cos(math.pi * d.axes[0])
    sol = helmholtz_solve(d, src, decay=1e-2, tol=1e-10)
    ref, iterations = reference_cg(d, src, decay=1e-2, tol=1e-10)
    assert iterations > 0
    assert np.max(np.abs(sol - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_helmholtz_raises_when_residual_check_fails(rng):
    # eigenvalues that do not belong to the stencil leave a residual far above
    # both the tolerance and the rounding floor
    d = Domain(1.0, 65)
    d.neumann_eigenvalues = 1.01 * d.neumann_eigenvalues
    with pytest.raises(EllipticSolveError):
        helmholtz_solve(d, rng.standard_normal(d.shape), decay=1.0)


def test_helmholtz_residual_check_guards_the_matrix_path(rng):
    # the same check on a 2D grid that transforms by DCT-I matrices
    d = Domain((1.0, 2.0), (33, 65))
    assert d.dct_matrices is not None
    d.neumann_eigenvalues = 1.01 * d.neumann_eigenvalues
    with pytest.raises(EllipticSolveError):
        helmholtz_solve(d, rng.standard_normal(d.shape), decay=1.0)


def test_helmholtz_residual_check_guards_the_2d_pocketfft_path(rng):
    # and on a 2D grid above the matrix cap, which transforms through pocketfft
    d = Domain((1.0, 2.0), (81, 81))
    assert d.dct_matrices is None
    d.neumann_eigenvalues = 1.01 * d.neumann_eigenvalues
    with pytest.raises(EllipticSolveError):
        helmholtz_solve(d, rng.standard_normal(d.shape), decay=1.0)


def test_helmholtz_returns_on_the_largest_surveyed_rounding_residuals(rng):
    # the cases behind RESIDUAL_ROUNDING_SLACK's pocketfft figure: a checkerboard source
    # at decay 1 on a 50 x 77 grid on [0, 0.1] x [0, 3], and random sources at decay
    # 1e4; each returns the spectral solution
    from archemo.grid import _spectral_solve
    wide = Domain((0.1, 3.0), (50, 77))
    assert wide.dct_matrices is None
    cases = [(wide, (-1.0) ** np.indices(wide.shape).sum(axis=0), 1.0)]
    for d in (Domain(1.0, 33), wide):
        cases += [(d, rng.standard_normal(d.shape), 1e4) for _ in range(20)]
    for d, src, decay in cases:
        assert np.array_equal(helmholtz_solve(d, src, decay), _spectral_solve(d, src, decay))


def test_screened_apply_matches_laplacian_form(rng):
    # the residual check's one-array (-Lap + decay) x differs from the Laplacian form
    # only in rounding, at most a few eps * (largest eigenvalue + decay) * max|x|
    from archemo.grid import _laplacian, _screened_apply
    eps = np.finfo(float).eps
    for d in (Domain(1.0, 33), Domain(1.0, 129), Domain((1.0, 1.0), (33, 33)),
              Domain((1.0, 2.0), (33, 65))):
        lam_max = float(np.max(d.neumann_eigenvalues))
        for decay in (1e-6, 1e-2, 1.0, 50.0):
            for x in (rng.standard_normal(d.shape), 0.5 + 0.2 * rng.random(d.shape)):
                expected = -_laplacian(d, x) + decay * x
                bound = 4.0 * eps * (lam_max + decay) * float(np.max(np.abs(x)))
                assert float(np.max(np.abs(_screened_apply(d, x, decay) - expected))) <= bound


def _strided_screened_apply(domain, x, decay):
    # every axis through strided slices, as the 2D residual check did before its
    # last axis ran over the flat field
    from archemo.grid import _NODE_INDEX
    out = x * (decay + domain.stencil_diagonal)
    for axis, h in enumerate(domain.spacing):
        _, _, inner, left, right, first, last, second, penult = _NODE_INDEX[domain.dim, axis]
        s = 1.0 / (h * h)
        out[inner] -= s * (x[left] + x[right])
        out[first] -= (2.0 * s) * x[second]
        out[last] -= (2.0 * s) * x[penult]
    return out


@pytest.mark.parametrize("cells", [(33, 33), (33, 65), (65, 33), (65, 65)])
def test_screened_apply_matches_the_strided_stencil(rng, cells):
    from archemo.grid import _screened_apply
    d = Domain((1.0, 2.0), cells)
    for decay in (1e-6, 1.0, 50.0):
        x = rng.standard_normal(cells)
        assert np.array_equal(_screened_apply(d, x, decay), _strided_screened_apply(d, x, decay))
        fortran = np.asfortranarray(x)
        assert np.array_equal(_screened_apply(d, fortran, decay),
                              _strided_screened_apply(d, x, decay))


def test_helmholtz_zero_source():
    d = Domain((1.0, 1.0), (17, 17))
    assert np.array_equal(helmholtz_solve(d, d.zeros(), decay=1.0), d.zeros())


def test_laplacian_of_stack_matches_slices(rng):
    for d in (Domain(1.0, 33), Domain((1.0, 2.0), (17, 25))):
        stack = rng.standard_normal((2, 5) + d.shape)
        looped = np.stack([np.stack([laplacian_neumann(d, f) for f in row]) for row in stack])
        assert np.array_equal(laplacian_neumann(d, stack), looped)
        cstack = stack[0] + 1j * stack[1]
        assert np.array_equal(laplacian_neumann(d, cstack),
                              np.stack([laplacian_neumann(d, f) for f in cstack]))
    with pytest.raises(ValueError):
        laplacian_neumann(Domain((1.0, 1.0), (17, 17)), np.zeros((3, 17, 16)))


# -- the direct DCT-I and the screened entry points --------------------------------


def test_direct_dct_matches_scipy_fft(rng):
    # pocketfft's DCT-I called without scipy.fft's dispatch: the same values, bitwise
    from archemo.grid import _pocketfft_dct
    for n in (33, 65, 129, 1025):
        x = rng.standard_normal(n)
        y = _pocketfft_dct(x, 1, (0,), 0, None, 1)
        assert np.array_equal(y, scipy.fft.dct(x, type=1))
        expected = scipy.fft.idct(y, type=1)
        assert np.array_equal(_pocketfft_dct(y, 1, (0,), 2, y, 1), expected)
    for shape in ((17, 17), (65, 65), (33, 65)):
        x = rng.standard_normal(shape)
        y = _pocketfft_dct(x, 1, (0, 1), 0, None, 1)
        assert np.array_equal(y, scipy.fft.dctn(x, type=1))
        expected = scipy.fft.idctn(y, type=1)
        assert np.array_equal(_pocketfft_dct(y, 1, (0, 1), 2, y, 1), expected)


def test_spectral_solve_matches_scipy_fft_solve(rng):
    # the transform pair scipy.fft ran before, on single fields and on stacks:
    # bitwise through pocketfft, to rounding on the 2D matrix path; a stack's
    # slices equal single solves bitwise on both paths
    for d in (Domain(1.0, 33), Domain(1.0, 129), Domain(1.0, 1025), Domain((1.0, 1.0), (17, 17)),
              Domain((1.0, 2.0), (33, 65)), Domain((1.0, 1.0), (65, 65))):
        assert (d.dct_matrices is None) == (d.dim == 1)
        assert d.dim == 1 or not any(m.flags.writeable for m in d.dct_matrices)
        lam = d.neumann_eigenvalues + 0.7
        src = rng.standard_normal(d.shape)
        if d.dim == 1:
            expected = scipy.fft.idct(scipy.fft.dct(src, type=1) / lam, type=1)
        else:
            expected = scipy.fft.idctn(scipy.fft.dctn(src, type=1) / lam, type=1)
        assert_matches_scipy_fft(d, spectral_helmholtz(d, src, 0.7), expected)
        stack = rng.standard_normal((2, 3) + d.shape)
        axes = tuple(range(-d.dim, 0))
        expected = scipy.fft.idctn(scipy.fft.dctn(stack, type=1, axes=axes) / lam, type=1,
                                   axes=axes)
        solved = spectral_helmholtz(d, stack, 0.7)
        assert_matches_scipy_fft(d, solved, expected)
        for i, j in np.ndindex(*stack.shape[:2]):
            assert np.array_equal(solved[i, j], spectral_helmholtz(d, stack[i, j], 0.7))
    with pytest.raises(ValueError, match="^source must be real-valued$"):
        spectral_helmholtz(d, src + 0j, 0.7)


def test_spectral_solve_above_the_matrix_cap_is_pocketfft(rng):
    # a 2D grid with an axis past DCT_MATRIX_MAX_NODES keeps scipy.fft's values bitwise
    from archemo.grid import DCT_MATRIX_MAX_NODES
    for cells in ((33, DCT_MATRIX_MAX_NODES + 1), (81, 81)):
        d = Domain((1.0, 2.0), cells)
        assert d.dct_matrices is None
        lam = d.neumann_eigenvalues + 0.7
        stack = rng.standard_normal((2,) + d.shape)
        expected = scipy.fft.idctn(scipy.fft.dctn(stack, type=1, axes=(1, 2)) / lam, type=1,
                                   axes=(1, 2))
        assert np.array_equal(spectral_helmholtz(d, stack, 0.7), expected)
        assert np.array_equal(spectral_helmholtz(d, stack[1], 0.7), expected[1])


def _uncached_spectral_solve(domain, source, decay):
    # the spectral solve as it was before domains kept their denominators
    from archemo.grid import _FIELD_AXES, _pocketfft_dct
    if domain.dct_matrices is None:
        axes = _FIELD_AXES[domain.dim]
        coeffs = _pocketfft_dct(source, 1, axes, 0, None, 1)
        coeffs /= domain.neumann_eigenvalues + decay
        return _pocketfft_dct(coeffs, 1, axes, 2, coeffs, 1)
    left, right = domain.dct_matrices
    coeffs = left @ source @ right
    coeffs /= domain.neumann_eigenvalues + decay
    out = left @ coeffs @ right
    out *= 1.0 / (4 * (left.shape[0] - 1) * (right.shape[0] - 1))
    return out


@pytest.mark.parametrize("cells, matrices", [((129,), False), ((33, 65), True), ((81, 81), False)])
def test_kept_denominators_match_the_uncached_solve(rng, cells, matrices):
    # on both transform paths, scalar decays read the domain's denominators with the
    # values of the per-call sum; the kept entries are read-only, bounded in number,
    # and dropped when the eigenvalues are replaced, so the residual check still fires
    from archemo.grid import DENOMINATORS_KEPT
    d = Domain((1.0, 2.0)[:len(cells)], cells)
    assert (d.dct_matrices is not None) == matrices
    assert d.stencil_diagonal == sum(2.0 / (h * h) for h in d.spacing)
    src = rng.standard_normal(d.shape)
    decays = [0.7, 1.3, 2000.0] + [1.0 + 0.1 * k for k in range(3 * DENOMINATORS_KEPT)]
    for decay in decays + decays[:3]:
        assert np.array_equal(helmholtz_solve(d, src, decay), _uncached_spectral_solve(d, src, decay))
        assert len(d._denominators) <= DENOMINATORS_KEPT
    kept = d.denominators(0.7)
    assert kept is d.denominators(0.7) and not kept.flags.writeable
    assert np.array_equal(kept, d.neumann_eigenvalues + 0.7)
    stack, per_slice = rng.standard_normal((3,) + d.shape), np.array([0.5, 0.7, 9.0])
    decay = per_slice.reshape((-1,) + (1,) * d.dim)
    assert np.array_equal(spectral_helmholtz(d, stack, decay),
                          _uncached_spectral_solve(d, stack, decay))
    d.neumann_eigenvalues = 1.01 * d.neumann_eigenvalues
    assert not d._denominators
    with pytest.raises(EllipticSolveError):
        helmholtz_solve(d, src, decay=0.7)


def test_matrix_path_does_not_depend_on_the_blas_thread_count(tmp_path):
    # every product of the matrix path, up to the cap, stays below the size at which
    # BLAS threads its gemm, so one and two threads return the same bytes
    import os
    import subprocess
    import sys

    import archemo
    package_root = os.path.dirname(os.path.dirname(archemo.__file__))
    script = (
        "import hashlib, numpy as np\n"
        "from archemo.grid import DCT_MATRIX_MAX_NODES as N, Domain, spectral_helmholtz\n"
        "rng = np.random.default_rng(4)\n"
        "h = hashlib.sha256()\n"
        "for cells in ((33, 33), (33, N), (N, N)):\n"
        "    d = Domain((1.0, 2.0), cells)\n"
        "    h.update(spectral_helmholtz(d, rng.standard_normal((3,) + cells), 0.7).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=package_root)
        run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


def test_helmholtz_screen_keeps_the_scan_errors():
    d = Domain(1.0, 65)
    src = 0.5 + 0.2 * np.cos(math.pi * d.axes[0])
    for bad in (np.nan, np.inf, -np.inf):
        s = src.copy()
        s[7] = bad
        with pytest.raises(ValueError, match="^source contains non-finite entries$"):
            helmholtz_solve(d, s, 1.0)
    with pytest.raises(ValueError, match=r"^source has shape \(64,\), expected \(65,\)$"):
        helmholtz_solve(d, np.zeros(64), 1.0)
    with pytest.raises(ValueError, match="^source must be real-valued$"):
        helmholtz_solve(d, src + 0j, 1.0)
    # an integer source is converted, as the scan has always accepted it
    assert np.array_equal(helmholtz_solve(d, np.arange(65), 1.0),
                          helmholtz_solve(d, np.arange(65.0), 1.0))


def test_helmholtz_finite_source_with_overflowing_norm():
    # the norm screen overflows, the full scan accepts the source, and the residual
    # check passes against an infinite norm: the solve returns the spectral solution
    d = Domain(1.0, 65)
    src = 1e200 * (0.5 + 0.2 * np.cos(math.pi * d.axes[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = helmholtz_solve(d, src, 1.0)
    assert np.all(np.isfinite(sol))
    assert np.array_equal(sol, spectral_helmholtz(d, src, 1.0))


# -- stacked drift operators ------------------------------------------------------


def _reference_flux_divergence(domain, u, vels, patterns):
    """The flux divergence that summed a zero-filled array per axis into a zero total.

    Kept as the reference for :meth:`grid.Drift.divergence`, which must return the same values.
    """
    total = np.zeros(u.shape, dtype=np.result_type(u, *[v.dtype for v in vels]))
    for axis, (h, vel, donor_left) in enumerate(zip(domain.spacing, vels, patterns)):
        trail = (slice(None),) * (domain.dim - 1 - axis)
        lo, hi, inner, first, last = ((Ellipsis, i) + trail for i in
                                      (slice(None, -1), slice(1, None), slice(1, -1), 0, -1))
        flux = vel * np.where(donor_left, u[lo], u[hi])
        div = np.zeros(u.shape, dtype=total.dtype)
        div[inner] = (flux[hi] - flux[lo]) / h
        div[first] = flux[first] / (0.5 * h)
        div[last] = -flux[last] / (0.5 * h)
        total += div
    return total


def test_flux_divergence_matches_reference(rng):
    for d in (Domain(1.0, 33), Domain(1.0, 129), Domain((1.0, 2.0), (17, 25)),
              Domain((1.0, 1.0), (65, 65))):
        for lead in ((), (3,), (2, 4)):
            u = 0.5 + rng.random(lead + d.shape)
            drift = Drift(d, lead + d.shape)
            drift.load(0.7 * rng.standard_normal(lead + d.shape))
            vels = drift.velocities
            frozen = upwind_patterns(d, rng.standard_normal(lead + d.shape))
            for pats in ([v > 0 for v in vels], frozen):
                assert np.array_equal(drift.divergence(u, pats),
                                      _reference_flux_divergence(d, u, vels, pats))
            assert np.array_equal(drift.divergence(u),
                                  _reference_flux_divergence(d, u, vels, [v > 0 for v in vels]))


def _slices(stack, dim):
    return [stack[i] for i in np.ndindex(stack.shape[:stack.ndim - dim])]


def test_drift_operators_of_stack_match_slices(rng):
    for d in (Domain(1.0, 33), Domain((1.0, 2.0), (17, 25))):
        lead = (2, 5)
        u = 0.5 + rng.random(lead + d.shape)
        pot = 1.3 * rng.standard_normal(lead + d.shape)
        other = rng.standard_normal(lead + d.shape)
        us, pots, others = (_slices(a, d.dim) for a in (u, pot, other))
        vels = face_velocities(d, pot)
        pats = upwind_patterns(d, other)
        for axis in range(d.dim):
            assert np.array_equal(_slices(vels[axis], d.dim),
                                  [face_velocities(d, p)[axis] for p in pots])
            assert np.array_equal(_slices(pats[axis], d.dim),
                                  [upwind_patterns(d, p)[axis] for p in others])
        assert np.array_equal(_slices(advective_flux_div(d, u, pot), d.dim),
                              [advective_flux_div(d, a, p) for a, p in zip(us, pots)])
        # with the upwind pattern frozen from another potential
        patterned = advective_flux_div_patterned(d, u, pot, pats)
        looped = [advective_flux_div_patterned(d, a, p, upwind_patterns(d, o))
                  for a, p, o in zip(us, pots, others)]
        assert np.array_equal(_slices(patterned, d.dim), looped)
        assert not np.array_equal(patterned, advective_flux_div(d, u, pot))
    with pytest.raises(ValueError):
        advective_flux_div(Domain(1.0, 33), np.ones((3, 33)), np.ones((3, 32)))
