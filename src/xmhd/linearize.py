"""Matrix-free Jacobian actions and spectral estimates.

Everything the integrators know about the problem flows through a counted
right-hand-side operator: Jacobian-vector products are forward finite
differences of it, and the dominant-eigenvalue magnitude (needed to place
the Leja interpolation interval) comes from warm-started power iterations
that are refreshed only every `interval` time steps.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

#: default refresh interval (time steps) for the spectral estimate
DEFAULT_INTERVAL = 50
#: safety factor applied to the power-iteration estimate
DEFAULT_SAFETY = 1.25

_POWER_TOL = 0.02
_POWER_MAXIT = 100


class RhsBlowupError(ArithmeticError):
    """Raised by a right-hand side that produced non-finite output cells."""

    def __init__(self, message, cells=None):
        super().__init__(message)
        self.cells = cells


class RhsOperator:
    """Wraps u -> f(u) and counts evaluations (the cost proxy of every report)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return self.fn(u)


class FrozenLinearization:
    """The right-hand side and its Jacobian action frozen at one state."""

    def __init__(self, rhs, base_state):
        self.rhs = rhs
        self.base_state = np.asarray(base_state, dtype=float)
        self.base_rhs = np.asarray(rhs(self.base_state), dtype=float)
        self._base_norm = np.linalg.norm(self.base_state)


def jvp(lin, w):
    """Forward finite-difference action of the frozen Jacobian on w.

    Costs exactly one rhs evaluation (the base evaluation is cached); the
    zero vector short-circuits to zero.
    """
    w = np.asarray(w, dtype=float)
    wnorm = np.linalg.norm(w)
    if wnorm == 0.0:
        return np.zeros_like(lin.base_state)
    eps = _SQRT_EPS * max(1.0, lin._base_norm) / max(wnorm, 1e-300)
    return (lin.rhs(lin.base_state + eps * w) - lin.base_rhs) / eps


@dataclass
class SpectralEstimate:
    """Cached dominant-eigenvalue magnitude with an age counter."""
    alpha: float
    age_steps: int = 0
    interval: int = DEFAULT_INTERVAL
    safety: float = DEFAULT_SAFETY
    vector: np.ndarray | None = field(default=None, repr=False)


def estimate_alpha(lin, prev=None, interval=DEFAULT_INTERVAL, safety=DEFAULT_SAFETY,
                   rng=None):
    """Return a current spectral estimate, recomputing only when the cache expires.

    A still-fresh `prev` is aged by one step at zero cost.  Otherwise power
    iteration runs on the Jacobian action, warm-started from the previous
    dominant vector, until the magnitude estimate changes by less than 2%
    (or 100 iterations); the result carries the safety factor.

    The magnitude is taken from the iterate-norm ratio ||J w|| / ||w||, which
    stays correct for dominant complex-conjugate pairs (advection-dominated
    Jacobians are close to antisymmetric, where a Rayleigh quotient would
    collapse to zero).
    """
    if prev is not None:
        interval = prev.interval
        safety = prev.safety
        if prev.age_steps + 1 < prev.interval:
            return replace(prev, age_steps=prev.age_steps + 1)
    n = lin.base_state.size
    if prev is not None and prev.vector is not None and prev.vector.size == n:
        w = prev.vector
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        w = rng.standard_normal(n)
    wnorm = np.linalg.norm(w)
    if wnorm == 0.0:
        w = np.ones(n)
        wnorm = np.linalg.norm(w)
    w = w / wnorm
    mags = []
    for _ in range(_POWER_MAXIT):
        jw = jvp(lin, w)
        mag = np.linalg.norm(jw)
        if mag < 1e-300 or not np.isfinite(mag):
            return SpectralEstimate(alpha=0.0, age_steps=0, interval=interval,
                                    safety=safety, vector=None)
        mags.append(mag)
        w = jw / mag
        # dominant complex pairs make the ratio oscillate with period ~2;
        # accept stabilization against either of the two previous iterates
        if len(mags) >= 3 and (abs(mag - mags[-2]) <= _POWER_TOL * mag
                               or abs(mag - mags[-3]) <= _POWER_TOL * mag):
            break
    est = max(mags[-3:])
    return SpectralEstimate(alpha=safety * est, age_steps=0, interval=interval,
                            safety=safety, vector=w)
