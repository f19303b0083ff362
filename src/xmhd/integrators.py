"""Single-step time integrators.

Exponential schemes (Rosenbrock-Euler, EXPRB43, EXPRB54s4, EPIRK5P1)
delegate every phi-function action to the Leja or Krylov engine; explicit
embedded pairs (a 4(3) Runge-Kutta and Dormand-Prince 5(4)) serve
as baselines and never touch the phi machinery.  A step reports its embedded
error estimate, phi-action counts, and a converged flag that the run loop
turns into dt-halving retries.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from xmhd.leja import NewtonTable, apply_phi_leja, shift_and_scale
from xmhd.krylov import apply_phi_krylov
from xmhd.linearize import FrozenLinearization, RhsBlowupError, SpectralEstimate, jvp


class Scheme(Enum):
    ROS_EULER = "ros-euler"
    EXPRB43 = "exprb43"
    EXPRB54S4 = "exprb54s4"
    EPIRK5P1 = "epirk5p1"
    RK43 = "rk43"
    DOPRI54 = "dopri54"

    @property
    def order(self):
        return _ORDERS[self][0]

    @property
    def embedded_order(self):
        return _ORDERS[self][1]

    @property
    def is_exponential(self):
        return self not in (Scheme.RK43, Scheme.DOPRI54)


_ORDERS = {
    Scheme.ROS_EULER: (2, None),
    Scheme.EXPRB43: (4, 3),
    Scheme.EXPRB54S4: (5, 4),
    Scheme.EPIRK5P1: (5, 4),
    Scheme.RK43: (4, 3),
    Scheme.DOPRI54: (5, 4),
}


@dataclass(frozen=True)
class Epirk5p1Coefficients:
    a11: float = 0.35129592695058193092
    a21: float = 0.84405472011657126298
    a22: float = 1.6905891609568963624
    b1: float = 1.0
    b2: float = 1.2727127317356892397
    b3: float = 2.271459926542262275
    g11: float = 0.35129592695058193092
    g21: float = 0.84405472011657126298
    g22: float = 0.5
    g31: float = 1.0
    g32: float = 0.71111095364366870359
    g33: float = 0.62378111953371494809
    # overriding g32, g33 with these reproduces the embedded 4th-order solution
    g32_embedded: float = 0.5
    g33_embedded: float = 1.0


EPIRK5P1_COEFFS = Epirk5p1Coefficients()


@dataclass
class StepResult:
    new_state: np.ndarray
    error_estimate: float
    phi_iterations: int
    phi_applications: int
    converged: bool


def error_norm(a, b):
    """Relative discrete l2 distance ||a - b|| / ||b|| (absolute if ||b|| = 0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("error_norm requires arrays of equal shape")
    diff = np.linalg.norm(a - b)
    scale = np.linalg.norm(b)
    return diff if scale == 0.0 else diff / scale


class _PhiBroker:
    """Routes phi-actions to the configured engine and keeps the counters.

    One broker lives for one step attempt; the degenerate (zero) spectrum is
    short-circuited to phi_l(0) v = v / l! here so both engines only ever see
    a positive interval.  For the Leja engine it holds one NewtonTable per
    stage fraction c, shared by every phi order applied at that c.
    """

    def __init__(self, lin, dt, alpha, tol, method):
        self.lin = lin
        self.dt = dt
        self.alpha = alpha
        self.tol = tol
        self.method = method
        self.applications = 0
        self.iterations = 0
        self.failed = False
        self._tables = {}

    def _matvec(self, w):
        return jvp(self.lin, w)

    def apply(self, l, c, vec):
        """phi_l(c J dt) vec."""
        self.applications += 1
        if self.alpha < 1e-14:
            return vec / math.factorial(l)
        dt_eff = c * self.dt
        if self.method == "leja":
            table = self._tables.get(c)
            if table is None:
                table = self._tables[c] = NewtonTable(shift_and_scale(self.alpha * dt_eff))
            res = apply_phi_leja(l, self._matvec, vec, dt_eff, table.shift, self.tol,
                                 table=table)
        elif self.method == "krylov":
            res = apply_phi_krylov(l, self._matvec, vec, dt_eff, self.tol)
        else:
            raise ValueError(f"unknown phi method {self.method!r}")
        self.iterations += res.iterations
        if not res.converged:
            self.failed = True
        return res.vector


def _step_euler(lin, broker, u, dt, rhs):
    # with the linearization frozen at u this is the Rosenbrock-Euler update;
    # no embedded estimate exists, the error is reported as zero
    unew = u + dt * broker.apply(1, 1.0, lin.base_rhs)
    return unew, 0.0


def _stage_difference(lin, rhs, stage, u, fu):
    """Remainder difference F(stage) - F(u) = f(stage) - f(u) - J (stage - u).

    One rhs call plus one Jacobian action on the stage increment; acting on
    the small increment (rather than differencing two remainders) keeps the
    finite-difference contamination proportional to ||stage - u||.
    """
    return (np.asarray(rhs(stage), dtype=float) - fu) - jvp(lin, stage - u)


def _step_exprb43(lin, broker, u, dt, rhs):
    fu = lin.base_rhs

    a = u + 0.5 * dt * broker.apply(1, 0.5, fu)
    da = _stage_difference(lin, rhs, a, u, fu)

    phi1_fu = broker.apply(1, 1.0, fu)
    b = u + dt * phi1_fu + dt * broker.apply(1, 1.0, da)
    db = _stage_difference(lin, rhs, b, u, fu)

    # -14 F(u) + 16 F(a) - 2 F(b) and 36 F(u) - 48 F(a) + 12 F(b)
    w3 = 16.0 * da - 2.0 * db
    w4 = -48.0 * da + 12.0 * db
    u3 = u + dt * phi1_fu + dt * broker.apply(3, 1.0, w3)
    u4 = u3 + dt * broker.apply(4, 1.0, w4)
    return u4, error_norm(u3, u4)


def _step_exprb54s4(lin, broker, u, dt, rhs):
    fu = lin.base_rhs

    a = u + 0.25 * dt * broker.apply(1, 0.25, fu)
    da = _stage_difference(lin, rhs, a, u, fu)

    b = (u + 0.5 * dt * broker.apply(1, 0.5, fu)
         + 4.0 * dt * broker.apply(3, 0.5, da))
    db = _stage_difference(lin, rhs, b, u, fu)

    c = (u + 0.9 * dt * broker.apply(1, 0.9, fu)
         + (729.0 / 125.0) * dt * broker.apply(3, 0.9, db))
    dc = _stage_difference(lin, rhs, c, u, fu)

    # the four remainder combinations of the 4th- and 5th-order solutions
    w1 = 64.0 * da - 8.0 * db
    w2 = -60.0 * da - (285.0 / 8.0) * db + (125.0 / 8.0) * dc
    w3 = 18.0 * db - (250.0 / 81.0) * dc
    w4 = -60.0 * db + (500.0 / 27.0) * dc

    phi1_fu = broker.apply(1, 1.0, fu)
    u4 = (u + dt * phi1_fu + dt * broker.apply(3, 1.0, w1)
          + dt * broker.apply(4, 1.0, w2))
    u5 = (u + dt * phi1_fu + dt * broker.apply(3, 1.0, w3)
          + dt * broker.apply(4, 1.0, w4))
    return u5, error_norm(u4, u5)


def _step_epirk5p1(lin, broker, u, dt, rhs):
    k = EPIRK5P1_COEFFS
    fu = lin.base_rhs

    a = u + k.a11 * dt * broker.apply(1, k.g11, fu)
    da = _stage_difference(lin, rhs, a, u, fu)

    b = (u + k.a21 * dt * broker.apply(1, k.g21, fu)
         + k.a22 * dt * broker.apply(1, k.g22, da))
    db = _stage_difference(lin, rhs, b, u, fu)
    # F(u) - 2 F(a) + F(b)
    w = db - 2.0 * da

    phi1_g31_fu = broker.apply(1, k.g31, fu)
    u5 = (u + k.b1 * dt * phi1_g31_fu + k.b2 * dt * broker.apply(1, k.g32, da)
          + k.b3 * dt * broker.apply(3, k.g33, w))
    # embedded 4th-order solution: same structure with g32, g33 overridden
    u4 = (u + k.b1 * dt * phi1_g31_fu
          + k.b2 * dt * broker.apply(1, k.g32_embedded, da)
          + k.b3 * dt * broker.apply(3, k.g33_embedded, w))
    return u5, error_norm(u4, u5)


# Zonneveld's 4(3) pair: classical RK4 plus one extra stage for the
# third-order companion.
_RK43_C = np.array([0.0, 0.5, 0.5, 1.0, 0.75])
_RK43_A = [
    [],
    [0.5],
    [0.0, 0.5],
    [0.0, 0.0, 1.0],
    [5.0 / 32.0, 7.0 / 32.0, 13.0 / 32.0, -1.0 / 32.0],
]
_RK43_B = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 0.0])
_RK43_BHAT = np.array([-0.5, 7.0 / 3.0, 7.0 / 3.0, 13.0 / 6.0, -16.0 / 3.0])

# Dormand-Prince 5(4).
_DOPRI_C = np.array([0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0])
_DOPRI_A = [
    [],
    [0.2],
    [3.0 / 40.0, 9.0 / 40.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0],
]
_DOPRI_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                     -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
_DOPRI_BHAT = np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                        -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])

_TABLEAUS = {
    Scheme.RK43: (_RK43_A, _RK43_B, _RK43_BHAT),
    Scheme.DOPRI54: (_DOPRI_A, _DOPRI_B, _DOPRI_BHAT),
}


def _weighted_sum(u, dt, weights, stages, scratch):
    """u + dt * sum(w_j k_j), accumulated in place from zero as sum() does."""
    acc = np.zeros_like(u)
    for wj, kj in zip(weights, stages):
        if wj != 0.0:
            acc += np.multiply(kj, wj, out=scratch)
    acc *= dt
    acc += u
    return acc


def _step_explicit(tableau, lin, broker, u, dt, rhs):
    # an explicit pair uses neither the linearization nor the phi broker
    a, b, bhat = tableau
    stages = []
    scratch = np.empty_like(u)
    for row in a:
        ui = u
        for coeff, kj in zip(row, stages):
            if coeff != 0.0:
                if ui is u:
                    ui = u.copy()
                ui += np.multiply(kj, dt * coeff, out=scratch)
        stages.append(np.asarray(rhs(ui), dtype=float))
    unew = _weighted_sum(u, dt, b, stages, scratch)
    ulow = _weighted_sum(u, dt, bhat, stages, scratch)
    return unew, error_norm(ulow, unew)


_STEPS = {
    Scheme.ROS_EULER: _step_euler,
    Scheme.EXPRB43: _step_exprb43,
    Scheme.EXPRB54S4: _step_exprb54s4,
    Scheme.EPIRK5P1: _step_epirk5p1,
    Scheme.RK43: partial(_step_explicit, _TABLEAUS[Scheme.RK43]),
    Scheme.DOPRI54: partial(_step_explicit, _TABLEAUS[Scheme.DOPRI54]),
}


def step(scheme, rhs, u, dt, method="leja", alpha=None, tol=1e-8, lin=None):
    """Advance the state u by one step of the given scheme.

    `rhs` must be a counted operator (see RhsOperator); `alpha` is the
    current SpectralEstimate (or a plain magnitude) for exponential schemes.
    Returns a StepResult; converged=False means a phi action failed to
    converge or the step produced non-finite values, and the caller should
    retry with a smaller dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if scheme.is_exponential:
        alpha = alpha.alpha if isinstance(alpha, SpectralEstimate) else float(alpha)
        if lin is None:
            lin = FrozenLinearization(rhs, u)
    # explicit schemes never apply the broker, so they report zero phi work
    broker = _PhiBroker(lin, dt, alpha, tol, method)
    try:
        unew, err = _STEPS[scheme](lin, broker, u, dt, rhs)
        ok = (not broker.failed) and np.all(np.isfinite(unew)) and np.isfinite(err)
    except (RhsBlowupError, FloatingPointError):
        unew, err, ok = u, np.inf, False
    return StepResult(new_state=unew, error_estimate=err,
                      phi_iterations=broker.iterations,
                      phi_applications=broker.applications, converged=bool(ok))
