"""Real Leja points on [-2, 2] and phi-function actions by Newton interpolation.

The interpolation uses only matrix-vector products with the (scaled, shifted)
operator.  An action takes a ShiftScale, the interval [-alpha dt, 0] =
[-4 theta, 0], and its (order, stage fraction) columns, as the Krylov
engine takes its columns, and returns one row per column.  The operator
X = dt J / theta + 2 = 4 J / alpha + 2 depends only on alpha, so one chain
of matvecs serves every column of a vector: the column of fraction c reads
its order's row of the interval's Newton table of c, one pass of the
bidiagonal route in :mod:`xmhd.phi` (Caliari, Kandolf, Ostermann & Rainer
2016).  The interval builds a table when first asked and keeps it; the
module keeps no coefficient cache.

The interpolation is accurate only while the interval stays short: past
alpha dt of about 20 a chain's largest Newton term outgrows its column by
orders of magnitude (1e3-1e4 at 30, 1e13-1e15 at 70), so the noise of a
finite-difference matvec swamps the action, and the embedded error
estimate of a step does not see it.  The run loop therefore keeps alpha dt
of every chain at most LEJA_REACH.
"""

import numpy as np

from xmhd.phi import _column_orders, _drive_columns, _input_norm, _phi_divided_diffs, _unserved

#: hard cap on the number of interpolation nodes / Newton terms
LEJA_MAX = 500

#: largest alpha dt of a chain's interval that the run loop lets a step reach
LEJA_REACH = 20

# uniform candidate grid for the sequential argmax
_GRID_SIZE = 10001

#: table sizes tried in turn; an interpolation that needs more terms than
#: the current table holds rebuilds it at the next size
_TABLE_SIZES = (64, 128, 256, LEJA_MAX)

_sequence_cache = None


def _table_size(count):
    """The smallest table size that holds `count` terms."""
    return next(n for n in _TABLE_SIZES if n >= count)


def _build_sequence(count):
    grid = np.linspace(-2.0, 2.0, _GRID_SIZE)
    pts = np.empty(count)
    pts[0] = 2.0
    with np.errstate(divide="ignore"):
        logdist = np.log(np.abs(grid - pts[0]))
        for m in range(1, count):
            best = logdist.max()
            # ties (symmetric candidates) resolve toward the positive one
            tied = np.nonzero(logdist >= best - 1e-12 * max(1.0, abs(best)))[0]
            pick = tied[np.argmax(grid[tied])]
            pts[m] = grid[pick]
            logdist += np.log(np.abs(grid - pts[m]))
    return pts


def leja_points(count=LEJA_MAX):
    """The first `count` Leja points of [-2, 2], starting from z0 = 2.

    Each point maximizes the product of distances to all previous points over
    a fixed uniform candidate grid; the sequence is problem independent, and
    a prefix of a longer one.  It is built to the smallest table size that
    holds `count` points and cached: a process builds only the points its
    interpolations reach.
    """
    global _sequence_cache
    if not 1 <= count <= LEJA_MAX:
        raise ValueError(f"count must lie in [1, {LEJA_MAX}], got {count}")
    if _sequence_cache is None or _sequence_cache.size < count:
        _sequence_cache = _build_sequence(_table_size(count))
        _sequence_cache.setflags(write=False)
    return _sequence_cache[:count]


class ShiftScale:
    """Affine map xi -> theta (xi - 2) of [-2, 2] onto the interval
    [-4 theta, 0], and the Newton tables of the stage fractions asked of it.

    The table of fraction c holds the Newton coefficients of
    xi -> phi_l(c theta (xi - 2)) at the Leja points for every order
    l = 0..MAX_ORDER.  It starts at 64 terms and is rebuilt at the next size
    of 64 -> 128 -> 256 -> LEJA_MAX when an interpolation runs past its end.
    Every action on the interval shares its tables; the phi broker builds
    one interval per step attempt.
    """

    def __init__(self, theta):
        self.theta = theta
        self._tables = {}

    def coeffs(self, c, l, count=1):
        """Row l of the table of fraction c, holding at least `count` coefficients."""
        rows = self._tables.get(c)
        if rows is None or count > rows.shape[1]:
            xi = leja_points(_table_size(count))
            theta = c * self.theta
            rows = self._tables[c] = _phi_divided_diffs(-2.0 * theta + theta * xi,
                                                        subdiag=theta)
        return rows[l]


def shift_and_scale(alpha):
    """Shift/scale parameters for a spectrum of magnitude alpha.

    The dominant Jacobian mode is treated as negative real, so the
    interpolation interval [-4 theta, 0] is [-alpha, 0].
    """
    if alpha <= 0:
        raise ValueError("spectral magnitude must be positive; "
                         "callers handle the degenerate spectrum separately")
    return ShiftScale(theta=0.25 * alpha)


def apply_phi_leja(l, matvec, v, dt, shift, tol, fractions=(1.0,)):
    """Approximate phi_l(c J dt) v for each (order l, fraction c) column
    from one chain of matvecs; J is available only through `matvec`.

    Row k of `vector` approximates phi_{l_k}(c_k J dt) v with
    c_k = fractions[k], where `l` is one order or a tuple of one per
    fraction; `vector` is (columns, n) however many columns there are.
    The chain builds the Newton basis y_m of X = dt J / theta + 2 on
    `shift`'s interval [-4 theta, 0] = [-alpha dt, 0], one matvec per term,
    and each column adds c_m y_m with c_m from row l_k of the interval's
    table of fraction c_k, which interpolates phi_l(c theta (X - 2)) =
    phi_l(c J dt).

    A column's error estimate is the larger of its last two terms
    |c_m| ||y_m|| / max(1, ||column||), and at the first matvec that term
    alone: the leading term c_0 v is the column, not an error, so a column
    may stop after one matvec.  From the second on, the two-term max
    guards against a term that dips before the next rises, as on a
    spectrum off the real interval: on the phi_4 advection cases of
    tests/test_advection_oracle.py the last term alone lets the error reach
    1.8 tol.  The basis escapes, raising
    FloatingPointError into phi._drive_columns as a Krylov chain does, when
    ||y_m|| is not finite or exceeds 1e120 max(1, ||v||), which happens
    only when the spectrum left the interval.  The chain makes at most
    LEJA_MAX - 1 matvecs; phi._drive_columns applies the stop rule, with
    `tol` one tolerance or one per column.
    phi._unserved answers an input whose norm is 0 or not finite before any
    table is built, and a request with no column raises ValueError.
    """
    orders = _column_orders(l, len(fractions))
    y = np.array(v, dtype=float, copy=True)
    norm_v = _input_norm(y)
    if not 0 < norm_v < np.inf:
        return _unserved(norm_v, len(fractions), y.size, tol)
    theta = shift.theta
    coeffs = [shift.coeffs(c, o) for c, o in zip(fractions, orders)]
    blowup = 1e120 * max(1.0, norm_v)
    out = np.array([y * c[0] for c in coeffs])
    buf = np.empty_like(y)
    last = np.zeros(len(fractions))

    def extend(m, live):
        # y <- dt w / theta + (2 - xi_{m-1}) y, without temporaries; w is
        # read before y changes in case matvec hands y back
        np.multiply(matvec(y), dt / theta, out=buf)
        np.multiply(y, 2.0 - leja_points(m)[m - 1], out=y)
        np.add(y, buf, out=y)
        with np.errstate(over="ignore"):
            # an escaping basis may overflow the squared norm: inf is caught below
            norm_y = np.linalg.norm(y)
        if not np.isfinite(norm_y) or norm_y > blowup:
            raise FloatingPointError("the Newton basis escaped: the spectrum left the interval")
        estimates = []
        for k in live:
            if m >= coeffs[k].size:
                coeffs[k] = shift.coeffs(fractions[k], orders[k], m + 1)
            np.multiply(y, coeffs[k][m], out=buf)
            out[k] += buf
            term = abs(coeffs[k][m]) * norm_y / max(1.0, np.linalg.norm(out[k]))
            estimates.append(np.maximum(term, last[k]))
            last[k] = term
        return estimates

    return _drive_columns(extend, lambda: out, len(fractions), tol, LEJA_MAX - 1)
