"""Scalar, dense-matrix and divided-difference evaluation of the phi functions.

phi_0(z) = exp(z) and phi_{l+1}(z) = (phi_l(z) - 1/l!) / z.  These entire
functions are the building blocks of exponential integrators; the routines
here favour accuracy over speed and serve as the correctness oracle for the
iterative (Leja / Krylov) engines.
"""

import math
from dataclasses import dataclass

import numpy as np

#: highest phi order used by any scheme in the package
MAX_ORDER = 4

# Degree-30 truncated Taylor series of exp() is accurate to machine
# precision inside a disc of this radius.
_TAYLOR_DEGREE = 30
_TAYLOR_RADIUS = 3.5

# Below this |z| the downward recursion from exp(z) cancels catastrophically;
# switch to the direct series sum_k z^k / (k+l)!.
_SERIES_SWITCH = 0.5


def _check_order(l):
    if not isinstance(l, (int, np.integer)) or l < 0 or l > MAX_ORDER:
        raise ValueError(f"phi order must be an integer in [0, {MAX_ORDER}], got {l!r}")


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


def _expm_taylor(a):
    """exp(a) by scaling and squaring of a truncated Taylor expansion."""
    norm = np.linalg.norm(a, 1)
    s = int(math.ceil(math.log2(max(1.0, norm / _TAYLOR_RADIUS))))
    b = a / (2.0 ** s)
    m = a.shape[0]
    f = np.eye(m)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        f = b @ f
        f /= k
        f.reshape(-1)[::m + 1] += 1.0    # f = I + (b @ f) / k
    for _ in range(s):
        f = f @ f
    return f


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
        return _expm_taylor(a)
    dim = n * (l + 1)
    m = np.zeros((dim, dim))
    m[:n, :n] = a
    eye = np.eye(n)
    for k in range(l):
        m[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = eye
    return _expm_taylor(m)[:n, l * n:]


@dataclass(frozen=True)
class DividedDiffTable:
    """Newton divided differences of phi_l at a node sequence."""
    nodes: np.ndarray
    coeffs: np.ndarray
    order: int


def _phi_divided_diffs(nodes, subdiag=1.0):
    """Divided differences of phi_0 .. phi_MAX_ORDER at `nodes`, in one pass.

    Row l of the returned (MAX_ORDER + 1, n) array holds
    sigma^k phi_l[x_0..x_k], k = 0..n-1, with sigma = `subdiag`; with the
    Leja transplant x = q + theta xi and sigma = theta these are the Newton
    coefficients of xi -> phi_l(q + theta xi).

    Exploits the identity  phi_l[x_0..x_k] = exp[0,..,0, x_0..x_k]  (l zeros
    prepended).  With MAX_ORDER zeros prepended to the nodes and Z the
    lower-bidiagonal matrix with that diagonal and constant subdiagonal
    sigma, entry (MAX_ORDER + k, MAX_ORDER - l) of exp(Z) equals
    sigma^(l+k) phi_l[x_0..x_k], so the first MAX_ORDER + 1 columns of
    exp(Z) carry every order at once.

    The columns are computed by time substepping: exp(Z) equals the 2^s-th
    power of the substep operator E = exp(Z / 2^s), which is built once as
    a dense lower-triangular matrix from a 60-term Taylor series.  BLAS
    products then apply E^(2^s) to the block of columns; E is first squared
    as often as a squaring costs fewer flops than the block products it
    saves, so small tables square and large ones mostly multiply.  The
    substep count keeps the scaled norm at or below one, which bounds both
    the per-entry truncation and the cancellation from mixed-sign nodes; it
    also guarantees reach, since E has bandwidth 59 and the substeps
    together must span the dimension.  Divided differences of exp at real
    nodes are positive, so E and every product of its powers have no
    negative entries and lose no relative accuracy to cancellation.
    """
    nodes = np.asarray(nodes, dtype=float)
    ext = np.concatenate([np.zeros(MAX_ORDER), nodes])
    dim = ext.size
    # 60 terms per substep: entries near the reach edge of a substep keep a
    # wide enough truncation margin for full relative accuracy
    terms = 60
    scale = max(np.max(np.abs(ext)), abs(subdiag), 1e-30)
    s = max(0, int(math.ceil(math.log2(scale))),
            int(math.ceil(math.log2((dim + terms) / terms))))
    sub = subdiag / 2.0 ** s

    # E = exp(Z / 2^s) by Horner's rule on the Taylor series, factorials
    # folded in (G <- (Z / 2^s) G + I / (k-1)!, ending at G = E), kept by
    # diagonal: band[d, j] is entry (j + d, j); slots with j + d >= dim lie
    # outside the matrix
    width = min(terms, dim)
    padded = np.concatenate([ext, np.zeros(width)]) / 2.0 ** s
    diag = np.lib.stride_tricks.sliding_window_view(padded, dim)[:width]
    band = np.zeros((width, dim))
    band[0] = 1.0 / math.factorial(terms - 1)
    lower = np.empty((width - 1, dim))
    for k in range(terms - 1, 0, -1):
        # (Z G)[i, j] = diag[i] G[i, j] + sub G[i - 1, j], where G is
        # nonzero on diagonals 0 .. terms - k only
        top = min(terms + 1 - k, width)
        np.multiply(band[:top - 1], sub, out=lower[:top - 1])
        band[:top] *= diag[:top]
        band[1:top] += lower[:top - 1]
        band[0] += 1.0 / math.factorial(k - 1)
    # scatter the diagonals through a strided view whose element (d, j) is
    # entry (j + d, j); the padding rows absorb the outside slots
    padded_op = np.zeros((dim + width, dim))
    row, col = padded_op.strides
    np.lib.stride_tricks.as_strided(padded_op, shape=band.shape,
                                    strides=(row, row + col))[...] = band
    step_op = padded_op[:dim]

    # Far-tail entries sink below the normal range, where the products run
    # many times slower; flushing them to zero moves no entry above ~1e-290.
    tiny = np.finfo(float).tiny
    step_op[np.abs(step_op) < tiny] = 0.0
    # E^(2^s) on the block e_0..e_MAX_ORDER: square E while one squaring
    # (dim^3 flops) costs less than the half of the block products it saves
    products = 2 ** s
    while products > 1 and 2 * dim < (MAX_ORDER + 1) * products:
        step_op = step_op @ step_op
        step_op[np.abs(step_op) < tiny] = 0.0
        products //= 2
    block = np.eye(dim, MAX_ORDER + 1)
    for _ in range(products):
        block = step_op @ block
        block[np.abs(block) < tiny] = 0.0
    orders = np.arange(MAX_ORDER + 1)
    return np.ascontiguousarray(block[MAX_ORDER:, ::-1].T) / subdiag ** orders[:, None]


def divided_differences(l, nodes):
    """Newton divided differences of phi_l at the given real nodes.

    Computed through the bidiagonal-matrix route (Opitz), which keeps full
    relative accuracy where the naive recursive difference table loses every
    digit beyond roughly twenty nodes.
    """
    _check_order(l)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("divided_differences requires a nonempty 1-d node sequence")
    if nodes.size > 512:
        raise ValueError("node sequence longer than the 512-node oracle scale")
    coeffs = _phi_divided_diffs(nodes)[l]
    return DividedDiffTable(nodes=nodes, coeffs=coeffs, order=l)


def newton_eval(table, z):
    """Evaluate the Newton-form polynomial of a DividedDiffTable at z."""
    x = table.nodes
    result = np.full_like(np.asarray(z, dtype=float), table.coeffs[-1])
    for k in range(x.size - 2, -1, -1):
        result = result * (z - x[k]) + table.coeffs[k]
    return result
