"""Arnoldi/Krylov baseline for phi-function actions.

Per-vector projections with block classical Gram-Schmidt applied twice
(CGS2).  A vector's Arnoldi basis depends on neither the step size nor the
phi order, so one basis serves every (order, fraction) column of it, as in
phipm (Niesen & Wright 2012) and KIOPS (Gaudreault, Rainwater & Tokman 2018).
"""

import numpy as np

from xmhd.phi import _column_orders, _expm_taylor
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


def apply_phi_krylov(l, matvec, v, dt, tol, fractions=None):
    """Approximate phi_l(c J dt) v by Arnoldi projection, for one or several
    (order, fraction) columns of one vector, on one basis.

    The basis grows from v/||v||; after each expansion phi_l(c dt H_m) e1 is
    evaluated on the projected Hessenberg matrix for every column not yet
    converged, and the standard residual surrogate
    ||v|| * |h_{m+1,m}| * |(phi_j(c dt H_m))_{m,1}| * c dt, with j = max(l_k, 1)
    (for l_k = 0 this is Saad's 1992 estimate), decides that column's
    convergence; a converged column is frozen, so it equals what a call with
    its order at c dt alone returns.  With `fractions`, row k of `vector`
    holds order l_k at fraction fractions[k], where `l` is one order or a
    tuple of one per fraction; without, the one column is c = 1 and
    `vector` is 1-D.  Happy breakdown counts as exact convergence.  The
    basis holds at most min(M_DEFAULT, n) vectors.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    steps = [dt] if fractions is None else [c * dt for c in fractions]
    orders = _column_orders(l, len(steps))
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
    out = np.empty((len(steps), n))
    phicols = [None] * len(steps)
    residual = np.full(len(steps), np.inf)
    live = list(range(len(steps)))
    matvecs = 0
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
        breakdown = hnext <= 1e-14 * max(1.0, np.abs(hess[:m, :m]).max())
        for k in tuple(live):
            h = steps[k] * hess[:m, :m]
            phicols[k] = _phi_e1(orders[k], h)
            last = (_phi_e1(1, h) if orders[k] == 0 else phicols[k])[m - 1]
            residual[k] = 0.0 if breakdown else beta * hnext * abs(last) * steps[k]
            if breakdown or residual[k] <= tol or m == n:
                out[k] = beta * (basis[:m].T @ phicols[k])
                live.remove(k)
        if not live:
            break
        basis[j + 1] = w / hnext
    for k in live:
        out[k] = beta * (basis[:m_max].T @ phicols[k])
    return PhiApplyResult(vector=out[0] if fractions is None else out, iterations=matvecs,
                          converged=not live, residual=float(residual.max()))
