"""Arnoldi/Krylov baseline for phi-function actions.

Plain per-call projections with block classical Gram-Schmidt applied twice
(CGS2).  No basis recycling across stages: schemes tuned for that (EPIRK)
run at a known disadvantage here.
"""

import numpy as np

from xmhd.phi import _check_order, _expm_taylor
from xmhd.leja import PhiApplyResult

#: ceiling on the basis size; beyond this the O(m^2) orthogonalization
#: cost dominates and the step should be rejected instead
M_DEFAULT = 100


def _phi_e1(l, h):
    """phi_l(H) e1 for a small dense H, via an augmented exponential."""
    m = h.shape[0]
    if l == 0:
        return _expm_taylor(h)[:, 0]
    dim = m + l
    aug = np.zeros((dim, dim))
    aug[:m, :m] = h
    aug[0, m] = 1.0
    for k in range(l - 1):
        aug[m + k, m + k + 1] = 1.0
    return _expm_taylor(aug)[:m, dim - 1]


def apply_phi_krylov(l, matvec, v, dt, tol):
    """Approximate phi_l(J dt) v by Arnoldi projection.

    The basis grows from v/||v||; after each expansion phi_l(dt H_m) is
    evaluated on the projected Hessenberg matrix and the standard residual
    surrogate  ||v|| * |h_{m+1,m}| * |(phi_l(dt H_m))_{m,1}| * dt  decides
    convergence.  Happy breakdown counts as exact convergence.  The basis
    holds at most min(M_DEFAULT, n) vectors.
    """
    _check_order(l)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    v = np.asarray(v, dtype=float)
    beta = np.linalg.norm(v)
    if beta == 0:
        raise ValueError("cannot build a Krylov space from the zero vector")
    n = v.size
    m_max = min(M_DEFAULT, n)

    # rows are written before they are read, so only the rows an action
    # uses ever become resident
    basis = np.empty((m_max + 1, n))
    hess = np.zeros((m_max + 1, m_max))
    basis[0] = v / beta
    matvecs = 0
    phicol = None
    residual = np.inf
    for j in range(m_max):
        # a copy: the projections below update w in place
        w = np.array(matvec(basis[j]), dtype=float)
        matvecs += 1
        q = basis[:j + 1]
        for _ in range(2):
            c = q @ w
            w -= c @ q
            hess[:j + 1, j] += c
        hnext = np.linalg.norm(w)
        hess[j + 1, j] = hnext
        m = j + 1
        phicol = _phi_e1(l, dt * hess[:m, :m])
        residual = beta * hnext * abs(phicol[m - 1]) * dt
        breakdown = hnext <= 1e-14 * max(1.0, np.abs(hess[:m, :m]).max())
        if breakdown or residual <= tol or m == n:
            result = beta * (basis[:m].T @ phicol)
            return PhiApplyResult(vector=result, iterations=matvecs, converged=True,
                                  residual=0.0 if breakdown else residual)
        basis[j + 1] = w / hnext
    m = m_max
    result = beta * (basis[:m].T @ phicol)
    return PhiApplyResult(vector=result, iterations=matvecs, converged=False,
                          residual=residual)
