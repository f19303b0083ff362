"""Scalar and dense phi functions: the accuracy-first oracles the tests
check the iterative engines and the divided differences against.

No run uses them; they share the package's Pade exponential, so a dense
phi_l(A) is one exponential of a block matrix.
"""

import math

import numpy as np

from xmhd.phi import _check_order, _expm

# Below this |z| the downward recursion from exp(z) cancels catastrophically;
# switch to the direct series sum_k z^k / (k+l)!.
_SERIES_SWITCH = 0.5


def phi_scalar(l, z):
    """Evaluate phi_l(z) for a real or complex scalar z."""
    _check_order(l)
    if abs(z) < _SERIES_SWITCH:
        term = 1.0 / math.factorial(l)
        total = term
        for k in range(1, 64):
            term = term * z / (k + l)
            total = total + term
            if abs(term) <= 1e-16 * abs(total):
                break
        return total
    val = np.exp(z)
    for j in range(l):
        val = (val - 1.0 / math.factorial(j)) / z
    return val


def phi_dense(l, a):
    """Evaluate the full matrix phi_l(A) for a square real matrix A.

    For l >= 1 the result is read off the exponential of the block matrix

        [[A, I, 0, ...],
         [0, 0, I, ...],
         ...
         [0, 0, 0, ...]]

    whose top-right n-by-n block equals phi_l(A).
    """
    _check_order(l)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("phi_dense requires a square matrix")
    n = a.shape[0]
    if l == 0:
        return _expm(a)
    dim = n * (l + 1)
    m = np.zeros((dim, dim))
    m[:n, :n] = a
    eye = np.eye(n)
    for k in range(l):
        m[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = eye
    return _expm(m)[:n, l * n:]
