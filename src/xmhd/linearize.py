"""Matrix-free Jacobian actions and spectral estimates.

Everything the integrators know about the problem flows through a counted
right-hand-side operator: Jacobian-vector products are forward finite
differences of it, and the dominant-eigenvalue magnitude (needed to place
the Leja interpolation interval) comes from the Ritz values of a short
Arnoldi process.
"""

import math
from dataclasses import dataclass

import numpy as np

from xmhd.krylov import arnoldi_step

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

#: safety factor applied to the largest Ritz magnitude
DEFAULT_SAFETY = 1.25

#: Arnoldi steps, each one Jacobian action, per spectral estimate
ARNOLDI_STEPS = 12


class RhsOperator:
    """Wraps u -> f(u) and counts evaluations (the cost proxy of every report)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return self.fn(u)


class FrozenLinearization:
    """The right-hand side and its Jacobian action frozen at one state.

    The base evaluation f(base_state) costs one rhs evaluation unless the
    caller hands it over as `base_rhs` (a first-same-as-last step's last
    stage).  `base_norm` is ||base_state||, taken once for every reader.
    """

    def __init__(self, rhs, base_state, base_rhs=None):
        self.rhs = rhs
        self.base_state = np.asarray(base_state, dtype=float)
        if base_rhs is None:
            base_rhs = rhs(self.base_state)
        self.base_rhs = np.asarray(base_rhs, dtype=float)
        self.base_norm = np.linalg.norm(self.base_state)


def jvp(lin, w):
    """Forward finite-difference action of the frozen Jacobian on w.

    Costs exactly one rhs evaluation (the base evaluation is cached); the
    zero vector short-circuits to zero.
    """
    w = np.asarray(w, dtype=float)
    wnorm = np.linalg.norm(w)
    if wnorm == 0.0:
        return np.zeros_like(lin.base_state)
    eps = _SQRT_EPS * max(1.0, lin.base_norm) / max(wnorm, 1e-300)
    shifted = np.multiply(w, eps)
    shifted += lin.base_state
    # a new array: the one the rhs returned may belong to the caller's rhs
    diff = np.subtract(lin.rhs(shifted), lin.base_rhs)
    diff /= eps
    return diff


@dataclass
class SpectralEstimate:
    """Dominant-eigenvalue magnitude of a frozen Jacobian, safety factor included."""
    alpha: float


def estimate_alpha(lin, prev=None, rng=None):
    """Estimate the dominant-eigenvalue magnitude of the frozen Jacobian.

    A fixed ARNOLDI_STEPS-step Arnoldi process on the Jacobian action,
    started from f(u) (from ones when f(u) = 0), gives Ritz values; alpha is
    DEFAULT_SAFETY times the largest Ritz magnitude (Saad, Numerical Methods
    for Large Eigenvalue Problems, 2011).  Ritz values follow the spectrum of
    a non-normal Jacobian, not its norm, and keep the magnitude of dominant
    complex pairs.  The start vector and the step count depend on the state
    alone, so the estimate is deterministic; `prev` and `rng` are accepted
    and ignored.  A refresh costs min(ARNOLDI_STEPS, n) rhs evaluations,
    fewer only at breakdown, where the Ritz values are exact eigenvalues.
    When to refresh is the caller's decision.
    """
    v = lin.base_rhs if lin.base_rhs.any() else np.ones_like(lin.base_rhs)
    k = min(ARNOLDI_STEPS, v.size)
    basis = np.empty((k + 1, v.size))
    hess = np.zeros((k + 1, k))
    basis[0] = v / np.linalg.norm(v)
    for m in range(1, k + 1):
        if arnoldi_step(basis, hess, m - 1, jvp(lin, basis[m - 1])):
            break
    # the Ritz values are the eigenvalues of the projected matrix
    h = hess[:m, :m]
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("the Jacobian action is not finite")
    return SpectralEstimate(alpha=DEFAULT_SAFETY * float(np.abs(np.linalg.eigvals(h)).max()))
