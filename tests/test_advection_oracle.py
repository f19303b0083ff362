"""phi_dense and both engines against an independent exponential on advection-diffusion.

The other engine tests use symmetric matrices with a real negative
spectrum; the MHD Jacobian is advection-dominated, so its spectrum reaches
far off the real axis.  The matrices here are periodic centred-difference
advection plus nu times the three-point Laplacian on 64 cells of the unit
interval: non-symmetric, with eigenvalues from the imaginary axis (nu = 0)
to a mostly real spread (nu = 0.02).  Being circulant, they are still
normal.  The oracle is scipy's Pade `expm` of the block matrix whose
top-right block is phi_l.
"""
import numpy as np
import pytest
import scipy.linalg

from xmhd.krylov import apply_phi_krylov
from xmhd.leja import apply_phi_leja, shift_and_scale
from xmhd.phi import phi_dense

N = 64


def advection_diffusion(nu):
    """-d/dx + nu d^2/dx^2, centred, periodic, N cells on [0, 1)."""
    h = 1.0 / N
    eye = np.eye(N)
    right, left = np.roll(eye, 1, axis=1), np.roll(eye, -1, axis=1)
    return -(right - left) / (2.0 * h) + nu * (right - 2.0 * eye + left) / h ** 2


def phi_expm(l, a):
    """phi_l(a) as the top-right block of scipy's exp of the block matrix."""
    n = a.shape[0]
    block = np.zeros((n * (l + 1), n * (l + 1)))
    block[:n, :n] = a
    for k in range(l):
        block[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    return scipy.linalg.expm(block)[:n, l * n:]


def step_for(a, alpha_dt):
    """The dt at which alpha dt = `alpha_dt`, with alpha the spectral radius of a."""
    return alpha_dt / np.max(np.abs(np.linalg.eigvals(a)))


def engine_errors(a, l, alpha_dt, tols, seeds):
    """{(engine, tol, seed): (converged, relative error)} of phi_l(dt a) v, v ~ N(0, I)."""
    dt = step_for(a, alpha_dt)
    phi = phi_expm(l, dt * a)
    shift = shift_and_scale(alpha_dt)
    found = {}
    for tol in tols:
        for seed in seeds:
            v = np.random.default_rng(seed).standard_normal(N)
            exact = phi @ v
            for engine, res in (
                    ("leja", apply_phi_leja(l, lambda w: a @ w, v, dt, shift, tol)),
                    ("krylov", apply_phi_krylov(l, lambda w: a @ w, v, dt, tol))):
                err = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
                found[engine, tol, seed] = (res.converged, err)
    return found


@pytest.mark.parametrize("nu", [0.0, 0.002, 0.02])
@pytest.mark.parametrize("alpha_dt", [2.0, 40.0])
def test_phi_dense_matches_expm(nu, alpha_dt):
    a = advection_diffusion(nu)
    dt = step_for(a, alpha_dt)
    for l in range(5):
        exact = phi_expm(l, dt * a)
        err = np.linalg.norm(phi_dense(l, dt * a) - exact) / np.linalg.norm(exact)
        assert err <= 1e-12, (l, err)


@pytest.mark.parametrize("nu", [0.0, 0.002, 0.02])
@pytest.mark.parametrize("alpha_dt", [2.0, 10.0])
def test_engines_meet_tolerance(nu, alpha_dt):
    # measured worst: 0.63 tol for Leja, 0.29 tol for Krylov
    a = advection_diffusion(nu)
    for l in range(5):
        for (engine, tol, seed), (converged, err) in engine_errors(
                a, l, alpha_dt, (1e-6, 1e-8, 1e-10), range(3)).items():
            assert converged and err <= tol, (engine, l, tol, seed, err)


@pytest.mark.parametrize("engine,nu,l,tol,seed", [
    pytest.param("leja", 0.0, 1, 1e-10, 0, marks=pytest.mark.xfail(
        strict=True, reason="real Leja interpolation stagnates on an imaginary "
                            "spectrum at alpha dt = 40 and its stop test still fires")),
    # the l = 0 surrogate reads phi_1, not exp, of the projected matrix (Saad 1992)
    *(("krylov", 0.02, 0, 1e-6, seed) for seed in range(3)),
])
def test_converged_action_meets_tolerance_at_large_step(engine, nu, l, tol, seed):
    errors = engine_errors(advection_diffusion(nu), l, 40.0, [tol], [seed])
    converged, err = errors[engine, tol, seed]
    assert not converged or err <= tol, err
