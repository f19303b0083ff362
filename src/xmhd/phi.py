"""What the two phi-action engines share.

phi_0(z) = exp(z) and phi_{l+1}(z) = (phi_l(z) - 1/l!) / z.  The Leja engine
reads its Newton coefficients from the divided differences here, the Krylov
engine exponentiates its projected matrix with the Pade exponential here,
and both check their columns and tolerances, answer an input that no chain
serves and run their chains through the helpers here.
"""

import math
from dataclasses import dataclass

import numpy as np

#: highest phi order used by any scheme in the package
MAX_ORDER = 4

# Diagonal Pade approximants of exp() (Higham 2005, Table 2.3): each entry
# is theta_m, the largest 1-norm at which the [m/m] approximant is accurate
# to double precision, and b_0 .. b_m, the coefficients of its numerator
# sum_j b_j A^j (its denominator is the same sum at -A), for m = 3, 5, 7, 9
# and 13.
_PADE = (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200., 1512., 56.,
                            1.)),
    (2.097847961257068e0, (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
                           2162160., 110880., 3960., 90., 1.)),
    (5.371920351148152e0, (64764752532480000., 32382376266240000., 7771770303897600.,
                           1187353796428800., 129060195264000., 10559470521600.,
                           670442572800., 33522128640., 1323241920., 40840800., 960960.,
                           16380., 182., 1.)),
)


def _check_order(l):
    if not isinstance(l, (int, np.integer)) or l < 0 or l > MAX_ORDER:
        raise ValueError(f"phi order must be an integer in [0, {MAX_ORDER}], got {l!r}")


def _column_orders(l, count):
    """The phi orders of `count` output columns, from one order or a tuple."""
    if count == 0:
        raise ValueError("a phi action needs at least one output column")
    orders = l if isinstance(l, tuple) else (l,) * count
    if len(orders) != count:
        raise ValueError(f"{len(orders)} phi orders for {count} output columns")
    for order in orders:
        _check_order(order)
    return orders


def _column_tolerances(tol, count):
    """The tolerances of `count` output columns, from one value or one per
    column; a count that does not match, or an entry that is not > 0 (NaN
    included), raises ValueError."""
    tols = np.full(count, tol, dtype=float) if np.ndim(tol) == 0 else np.asarray(tol, float)
    if tols.shape != (count,):
        raise ValueError(f"{tols.size} tolerances for {count} output columns")
    if not np.all(tols > 0):
        raise ValueError("tolerance must be positive")
    return tols


@dataclass
class PhiApplyResult:
    """Outcome of one iterative phi-function action.

    `vector` has one row per output column, (columns, n) even for one;
    `converged` holds when every column converged, and `residual` is the
    largest of the columns' last error estimates, the values the stop rule
    of _drive_columns compared with each column's own tolerance (inf for a
    column an escape failed).
    """
    vector: np.ndarray
    iterations: int
    converged: bool
    residual: float


def _drive_columns(extend, vectors, count, tol, cap):
    """Run the `count` columns of one phi action on a basis that grows by one
    matvec per call of `extend`, the engine's chain; `vectors()` gives the
    result's `vector` once the chain has ended.

    `extend(m, live)` makes the m-th matvec, updates the columns indexed by
    `live` and returns their error estimates in that order; it raises an
    ArithmeticError when the basis escaped (a Leja basis that outgrew its
    bound, a matvec that overflowed, a projected matrix that is not finite).
    `tol` is one tolerance or one per column (see _column_tolerances), and
    column k stops at its first estimate <= its own tolerance, frozen: it is
    never passed to `extend` again, so it equals what an action of that
    column alone, at that tolerance, returns.  An escape fails every
    unfinished column (estimate inf), its matvec counted; after `cap`
    matvecs the unfinished columns fail as they stand.  Failure is reported,
    not raised: the caller rejects the step and retries with a smaller dt.
    A bad tol raises ValueError before the first matvec.
    """
    tols = _column_tolerances(tol, count)
    estimate = np.full(count, np.inf)
    live = list(range(count))
    matvecs = 0
    while live and matvecs < cap:
        matvecs += 1
        try:
            estimate[live] = extend(matvecs, live)
        except ArithmeticError:
            estimate[live] = np.inf
            break
        live = [k for k in live if not estimate[k] <= tols[k]]
    return PhiApplyResult(vector=vectors(), iterations=matvecs, converged=not live,
                          residual=float(estimate.max()))


def _input_norm(v):
    """The norm of a phi action's input vector, inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


def _unserved(norm, count, n, tol):
    """The outcome, without a matvec, of an action whose input norm is 0 or
    not finite, which no chain serves.  A norm of 0 (the zero vector, or one
    whose squared norm underflows) gives zero columns, converged with
    residual 0; a norm that is not finite (it overflowed, or the input holds
    inf or NaN) fails every column, each NaN with estimate inf.  A bad tol
    raises ValueError, as in _drive_columns."""
    _column_tolerances(tol, count)
    if norm == 0:
        return PhiApplyResult(np.zeros((count, n)), 0, True, 0.0)
    return PhiApplyResult(np.full((count, n), np.nan), 0, False, np.inf)


def _expm(a):
    """exp(a) by scaling and squaring of a diagonal Pade approximant (Higham 2005).

    The degree is the lowest m in 3, 5, 7, 9, 13 whose theta_m bounds the
    1-norm of a; above theta_13, a is scaled by 2^-s into that bound and the
    degree-13 result squared s times.  A matrix with an entry that is not
    finite raises FloatingPointError, an ArithmeticError, as an overflowed
    matvec does.
    """
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise FloatingPointError("exponential of a matrix with an entry that is not finite")
    s = 0
    for theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = int(math.ceil(math.log2(norm / theta)))
        a = a / 2.0 ** s
    ident = np.eye(a.shape[0])
    a2 = a @ a
    # even powers I, A^2, .., A^(m-1): U = A sum b_odd A^2j, V = sum b_even A^2j
    powers = [ident, a2]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ a2)
    u = a @ sum(c * p for c, p in zip(b[1::2], powers))
    v = sum(c * p for c, p in zip(b[0::2], powers))
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f


def _phi_divided_diffs(nodes, subdiag=1.0):
    """Divided differences of phi_0 .. phi_MAX_ORDER at `nodes`, in one pass.

    Row l of the returned (MAX_ORDER + 1, n) array holds
    sigma^k phi_l[x_0..x_k], k = 0..n-1, with sigma = `subdiag`; with the
    Leja transplant x = theta (xi - 2) and sigma = theta these are the Newton
    coefficients of xi -> phi_l(theta (xi - 2)).

    Exploits the identity  phi_l[x_0..x_k] = exp[0,..,0, x_0..x_k]  (l zeros
    prepended).  With MAX_ORDER zeros prepended to the nodes and Z the
    lower-bidiagonal matrix with that diagonal and constant subdiagonal
    sigma, entry (MAX_ORDER + k, MAX_ORDER - l) of exp(Z) equals
    sigma^(l+k) phi_l[x_0..x_k], so the first MAX_ORDER + 1 columns of
    exp(Z) carry every order at once.

    The columns are computed by time substepping: exp(Z) equals the 2^s-th
    power of the substep operator E = exp(Z / 2^s), which is built once as
    a dense (dim, dim) array by Horner's rule on a 60-term Taylor series.
    BLAS products then apply E^(2^s) to the block of columns; E is first
    squared as often as a squaring costs fewer flops than the block products
    it saves, so small tables square and large ones mostly multiply.  The
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
    # folded in: G <- (Z / 2^s) G + I / (k-1)!, ending at G = E, where
    # (Z G)[i, j] = diag[i] G[i, j] + sub G[i - 1, j]
    diag = ext / 2.0 ** s
    step_op = np.zeros((dim, dim))
    step_op.flat[::dim + 1] = 1.0 / math.factorial(terms - 1)
    lower = np.empty((dim - 1, dim))
    for k in range(terms - 1, 0, -1):
        np.multiply(step_op[:-1], sub, out=lower)
        step_op *= diag[:, None]
        step_op[1:] += lower
        step_op.flat[::dim + 1] += 1.0 / math.factorial(k - 1)

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
