"""Real Leja points on [-2, 2] and phi-function actions by Newton interpolation.

The interpolation uses only matrix-vector products with the (scaled, shifted)
operator.  Its Newton coefficients come from a NewtonTable: one pass of the
stable bidiagonal route in :mod:`xmhd.phi` gives the divided differences of
every phi order on the transplanted node sequence, so all actions on one
interval share one table (Caliari, Kandolf, Ostermann & Rainer 2016).  The
caller owns the table; the module keeps no coefficient cache.
"""

from dataclasses import dataclass

import numpy as np

from xmhd.phi import MAX_ORDER, _check_order, _phi_divided_diffs

#: hard cap on the number of interpolation nodes / Newton terms
LEJA_MAX = 500

# uniform candidate grid for the sequential argmax
_GRID_SIZE = 10001

_sequence_cache = None


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
    a fixed uniform candidate grid; the sequence is problem independent and
    cached after the first call.
    """
    global _sequence_cache
    if not 1 <= count <= LEJA_MAX:
        raise ValueError(f"count must lie in [1, {LEJA_MAX}], got {count}")
    if _sequence_cache is None:
        _sequence_cache = _build_sequence(LEJA_MAX)
        _sequence_cache.setflags(write=False)
    return _sequence_cache[:count]


@dataclass(frozen=True)
class ShiftScale:
    """Affine map placing the spectral interval [-alpha, 0] onto [-2, 2]."""
    q: float
    theta: float


def shift_and_scale(alpha):
    """Shift/scale parameters for a spectrum of magnitude alpha.

    The dominant Jacobian mode is treated as negative real, so the
    interpolation interval [q - 2 theta, q + 2 theta] is [-alpha, 0].
    """
    if alpha <= 0:
        raise ValueError("spectral magnitude must be positive; "
                         "callers handle the degenerate spectrum separately")
    return ShiftScale(q=-0.5 * alpha, theta=0.25 * alpha)


@dataclass
class PhiApplyResult:
    """Outcome of one iterative phi-function action."""
    vector: np.ndarray
    iterations: int
    converged: bool
    residual: float


#: table sizes tried in turn; an interpolation that needs more terms than
#: the current table holds rebuilds it at the next size
_TABLE_SIZES = (64, 128, 256, LEJA_MAX)


class NewtonTable:
    """Newton coefficients of xi -> phi_l(q + theta xi) at the Leja points.

    One table serves every order l = 0..MAX_ORDER of one interval: a single
    divided-difference pass yields all rows.  It starts at 64 terms and is
    rebuilt at the next size of 64 -> 128 -> 256 -> LEJA_MAX when an
    interpolation runs past its end.  A table belongs to its caller (the
    phi broker keeps one per step attempt and stage fraction); nothing is
    cached at module level.
    """

    def __init__(self, shift):
        self.shift = shift
        self._rows = np.empty((MAX_ORDER + 1, 0))

    def coeffs(self, l, count=1):
        """Row l of the table, holding at least `count` coefficients."""
        if count > self._rows.shape[1]:
            size = next(n for n in _TABLE_SIZES if n >= count)
            xi = leja_points(size)
            self._rows = _phi_divided_diffs(self.shift.q + self.shift.theta * xi,
                                            subdiag=self.shift.theta)
        return self._rows[l]


def apply_phi_leja(l, matvec, v, dt, shift, tol, table=None):
    """Approximate phi_l(J dt) v with J available only through `matvec`.

    Newton terms are added one at a time (one extra matvec each); the
    iteration stops once the increment norm falls below tol relative to
    max(1, ||result||) for two consecutive terms, or signals non-convergence
    after LEJA_MAX terms / on overflow of the Newton basis.  Non-convergence
    is reported, not raised: the caller rejects the step and retries with a
    smaller dt.  `table` may carry the NewtonTable of `shift` from an earlier
    action on the same interval; without it a fresh one is built.
    """
    _check_order(l)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if table is None:
        table = NewtonTable(shift)
    elif table.shift != shift:
        raise ValueError("the Newton table was built for another interval")
    xi = leja_points(LEJA_MAX)
    q, theta = shift.q, shift.theta

    coeffs = table.coeffs(l)
    y = np.array(v, dtype=float, copy=True)
    blowup = 1e120 * max(1.0, np.linalg.norm(y))
    p = coeffs[0] * y
    buf = np.empty_like(y)
    matvecs = 0
    residual = np.inf
    small_prev = False
    for m in range(1, LEJA_MAX):
        if m >= coeffs.size:
            coeffs = table.coeffs(l, m + 1)
        w = matvec(y)
        matvecs += 1
        # y <- (dt w - q y) / theta - xi_{m-1} y, without temporaries; w is
        # read before y changes in case matvec hands y back
        np.multiply(w, dt / theta, out=buf)
        y *= -(q / theta + xi[m - 1])
        y += buf
        with np.errstate(over="ignore"):
            # an escaping basis may overflow the squared norm: inf is caught below
            norm_y = np.linalg.norm(y)
        if not np.isfinite(norm_y) or norm_y > blowup:
            # the Newton basis only explodes like this when the spectrum
            # escaped the interpolation interval; report non-convergence
            return PhiApplyResult(vector=p, iterations=matvecs, converged=False,
                                  residual=np.inf)
        np.multiply(y, coeffs[m], out=buf)
        p += buf
        residual = abs(coeffs[m]) * norm_y / max(1.0, np.linalg.norm(p))
        if residual <= tol:
            if small_prev:
                return PhiApplyResult(vector=p, iterations=matvecs, converged=True,
                                      residual=residual)
            small_prev = True
        else:
            small_prev = False
    return PhiApplyResult(vector=p, iterations=matvecs, converged=False,
                          residual=residual)
