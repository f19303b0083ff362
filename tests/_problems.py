"""Shared test problems and measurement helpers."""

import numpy as np

from xmhd.integrators import step
from xmhd.linearize import FrozenLinearization, RhsOperator

RICCATI_TF = 0.5


def riccati_exact(t):
    return 1.0 / (1.0 - t)


def riccati_l1_error(scheme, nsteps, tol=1e-13):
    """Integrate u' = u^2, u(0)=1 to t=0.5 with fixed dt; return the
    time-integrated absolute error (robust against endpoint sign flips)."""
    dt = RICCATI_TF / nsteps
    u = np.array([1.0])
    op = RhsOperator(lambda v: v * v)
    acc = 0.0
    t = 0.0
    for _ in range(nsteps):
        r = step(scheme, FrozenLinearization(op, u), dt, method="leja",
                 alpha=max(2.0 * abs(u[0]), 0.1), tol=tol)
        assert r.converged
        u = r.new_state
        t += dt
        acc += abs(u[0] - riccati_exact(t)) * dt
    return acc


# 1D periodic reaction-diffusion u_t = u_xx + u^2 on [0, 8 pi], 64 cells.
# The box is wide enough that the finite-difference Jacobian noise floor
# (~1e-9 relative) sits below the asymptotic range of the order sweeps.
RD_N = 64
RD_L = 8.0 * np.pi
RD_DX = RD_L / RD_N
RD_T = 1.0


def rd_initial():
    x = (np.arange(RD_N) + 0.5) * RD_DX
    return 0.4 + 0.2 * np.sin(2 * np.pi * x / RD_L) + 0.1 * np.cos(4 * np.pi * x / RD_L)


def rd_rhs(u):
    uxx = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / RD_DX ** 2
    return uxx + u * u


RD_ALPHA = 4.0 / RD_DX ** 2


def rd_endpoint_error(scheme, nsteps, reference, tol=1e-13):
    dt = RD_T / nsteps
    u = rd_initial()
    op = RhsOperator(rd_rhs)
    for _ in range(nsteps):
        r = step(scheme, FrozenLinearization(op, u), dt, method="leja",
                 alpha=1.25 * RD_ALPHA, tol=tol)
        assert r.converged
        u = r.new_state
    return np.linalg.norm(u - reference) / np.linalg.norm(reference)


def observed_order(dts, errs, floor):
    """Endpoint span slope over the rungs above the noise floor."""
    dts = np.asarray(dts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > floor
    dts, errs = dts[keep], errs[keep]
    assert dts.size >= 2, "not enough rungs above the noise floor"
    return np.log(errs[0] / errs[-1]) / np.log(dts[0] / dts[-1])


def random_negative_spectrum(rng, n, lo=-20.0, hi=0.0):
    """Orthogonally similar to a diagonal with eigenvalues in [lo, hi]."""
    eigs = rng.uniform(lo, hi, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(eigs) @ q.T
