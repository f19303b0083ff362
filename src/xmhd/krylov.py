"""Arnoldi/Krylov baseline for phi-function actions.

Each Arnoldi vector is orthogonalised by one block classical Gram-Schmidt
pass, as in Expokit (Sidje 1998) and KIOPS (Gaudreault, Rainwater & Tokman
2018), and by a second pass only when the first cancels most of it (the
DGKS test of Daniel, Gragg, Kaufman & Stewart 1976).  A vector's Arnoldi
basis depends on neither the step size nor the phi order, so one basis
serves every (order, fraction) column of it, as in phipm (Niesen & Wright
2012) and KIOPS.  One exponential of the projected matrix augmented by e1
and a shift chain (Sidje 1998, Expokit, Thm 1) gives every phi order of one
fraction at once.
"""

import numpy as np

from xmhd.phi import MAX_ORDER, _column_orders, _drive_columns, _expm, _input_norm, _unserved

#: ceiling on the basis size; beyond this the O(m^2) orthogonalization
#: cost dominates and the step should be rejected instead
M_DEFAULT = 100

#: a Gram-Schmidt pass that leaves less than this share of ||w|| is repeated
#: once (DGKS); the classical 1/sqrt(2) repeats most passes on the MHD
#: Jacobians, and 0.1 keeps the basis orthonormal to about 1e-9 at m = 100
REORTH_SHARE = 0.1

#: rows of a new Arnoldi basis: room for 16 matvecs and the vector after
#: the last; it doubles when a chain needs more, and while it grows the old
#: rows and their copy are resident together
BASIS_ROWS = 17


def _phi_rows(h):
    """Rows phi_0(H) e1 .. phi_MAX_ORDER(H) e1 of a small dense H, from one exponential."""
    m = h.shape[0]
    aug = np.zeros((m + MAX_ORDER, m + MAX_ORDER))
    aug[:m, :m] = h
    aug[0, m] = 1.0
    aug[range(m, m + MAX_ORDER - 1), range(m + 1, m + MAX_ORDER)] = 1.0
    # column 0 is exp(H) e1 = phi_0(H) e1; column m + l - 1 is phi_l(H) e1
    return _expm(aug)[:m, [0, *range(m, m + MAX_ORDER)]].T


def arnoldi_step(basis, hess, j, w):
    """Extend an Arnoldi process by w, the operator applied to basis[j].

    Copies w into basis[j + 1] and orthogonalises it there, in place,
    against basis[:j + 1] by one block classical Gram-Schmidt pass, repeated
    once when the pass leaves less than REORTH_SHARE of ||w|| (the
    cancellation that loses orthogonality); the caller's w is left as it
    was.  Writes the coefficients into column j of the Hessenberg matrix
    `hess` (zero on entry) and, unless the process broke down (w lies in the
    span up to roundoff), normalises basis[j + 1].  On breakdown that row
    keeps the unnormalised residual, which no caller reads.  Returns whether
    it broke down.
    """
    q, r = basis[:j + 1], basis[j + 1]
    np.copyto(r, w)
    kept = REORTH_SHARE * np.linalg.norm(r)
    proj = np.empty_like(r)
    for _ in range(2):
        c = q @ r
        r -= np.dot(c, q, out=proj)
        hess[:j + 1, j] += c
        hnext = np.linalg.norm(r)
        if hnext >= kept:
            break
    hess[j + 1, j] = hnext
    breakdown = hnext <= 1e-14 * max(1.0, np.abs(hess[:j + 1, :j + 1]).max())
    if not breakdown:
        r /= hnext
    return breakdown


def apply_phi_krylov(l, matvec, v, dt, tol, fractions=(1.0,)):
    """Approximate phi_l(c J dt) v by Arnoldi projection for each (order l,
    fraction c) column of one vector, on one basis.

    Row k of `vector` approximates phi_{l_k}(c_k J dt) v with
    c_k = fractions[k], where `l` is one order or a tuple of one per
    fraction; `vector` is (columns, n) however many columns there are.
    The chain grows the basis from v/||v|| by one arnoldi_step per matvec,
    to at most min(M_DEFAULT, n) vectors; after each, one exponential per
    live fraction c gives phi_l(c dt H_m) e1 of every order.  A column's
    error estimate is the residual surrogate
    ||v|| * |h_{m+1,m}| * |(phi_j(c dt H_m))_{m,1}| * c dt, with j = max(l_k, 1)
    (for l_k = 0 this is Saad's 1992 estimate), over max(1, ||column||), the
    scale Leja's estimate has; ||column|| = ||v|| ||phi_{l_k}(c dt H_m) e1||
    because the basis is orthonormal.  It is 0 at a happy breakdown or once
    the basis spans R^n.  A matvec that overflows, or a projected matrix
    that is not finite (_expm raises FloatingPointError), is the chain's
    escape.  phi._drive_columns applies the stop rule, with `tol` one
    tolerance or one per column.  phi._unserved answers an input whose norm
    is 0 or not finite before the basis is allocated, and a request with no
    column raises ValueError.
    """
    steps = [c * dt for c in fractions]
    orders = _column_orders(l, len(steps))
    v = np.asarray(v, dtype=float)
    n = v.size
    beta = _input_norm(v)
    if not 0 < beta < np.inf:
        return _unserved(beta, len(steps), n, tol)
    m_max = min(M_DEFAULT, n)

    # the basis starts at BASIS_ROWS rows and doubles, its filled rows
    # copied, when the chain needs more: a full (m_max + 1) x n block freed
    # after every action would raise glibc's mmap threshold and leave the
    # next blocks on a heap that stays resident
    basis = np.empty((min(BASIS_ROWS, m_max + 1), n))
    hess = np.zeros((m_max + 1, m_max))
    basis[0] = v / beta
    # each column's last coefficients on basis[:m] (none before the first
    # matvec), which no later step rewrites: columns are assembled at the end
    coefs = [np.zeros(0)] * len(steps)

    def extend(m, live):
        nonlocal basis
        if m == basis.shape[0]:
            grown = np.empty((min(2 * m, m_max + 1), n))
            grown[:m] = basis
            basis = grown
        breakdown = arnoldi_step(basis, hess, m - 1, matvec(basis[m - 1]))
        rows = {s: _phi_rows(s * hess[:m, :m]) for s in {steps[k] for k in live}}
        for k in live:
            coefs[k] = rows[steps[k]][orders[k]]
        if breakdown or m == n:
            return [0.0] * len(live)
        return [beta * hess[m, m - 1] * abs(rows[steps[k]][max(orders[k], 1)][m - 1]) * steps[k]
                / max(1.0, beta * np.linalg.norm(coefs[k])) for k in live]

    def vectors():
        return np.array([beta * (basis[:c.size].T @ c) for c in coefs])

    return _drive_columns(extend, vectors, len(steps), tol, m_max)
