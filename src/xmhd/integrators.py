"""Single-step time integrators.

Exponential schemes (Rosenbrock-Euler, EXPRB43, EXPRB54s4, EPIRK5P1)
delegate every phi-function action to the Leja or Krylov engine; explicit
embedded pairs (a 4(3) Runge-Kutta and Dormand-Prince 5(4)) serve
as baselines and never touch the phi machinery: their stages are the rows of
one block K, and each stage input, the new state and the embedded error
dt (bhat - b) K is one BLAS product with them.  A step's one input is the
FrozenLinearization at u (u, f(u), the counted rhs and the Jacobian
action), so a retry after a rejection evaluates nothing that depends on u
alone.  Dormand-Prince is first-same-as-last: its last stage is
f(new state), which the step hands over for the next step's linearization.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from xmhd.leja import apply_phi_leja, shift_and_scale
from xmhd.krylov import apply_phi_krylov
from xmhd.linearize import jvp
from xmhd.phi import _column_orders, _input_norm


#: the phi-action engines a step can route to
PHI_METHODS = ("leja", "krylov")

#: share of tol max(1, ||u||) that the error of one phi column may put into
#: the update, weighted by dt and that column's own largest coefficient there
KAPPA = 0.01


class Scheme(Enum):
    ROS_EULER = "ros-euler"
    EXPRB43 = "exprb43"
    EXPRB54S4 = "exprb54s4"
    EPIRK5P1 = "epirk5p1"
    RK43 = "rk43"
    DOPRI54 = "dopri54"

    @property
    def order(self):
        return _SCHEMES[self][0]

    @property
    def embedded_order(self):
        return _SCHEMES[self][1]

    @property
    def is_exponential(self):
        return self not in _TABLEAUS


# EPIRK5P1 coefficients
EPIRK_A11 = 0.35129592695058193092
EPIRK_A21 = 0.84405472011657126298
EPIRK_A22 = 1.6905891609568963624
EPIRK_B1 = 1.0
EPIRK_B2 = 1.2727127317356892397
EPIRK_B3 = 2.271459926542262275
EPIRK_G11 = 0.35129592695058193092
EPIRK_G21 = 0.84405472011657126298
EPIRK_G22 = 0.5
EPIRK_G31 = 1.0
EPIRK_G32 = 0.71111095364366870359
EPIRK_G33 = 0.62378111953371494809
# replacing G32, G33 with these reproduces the embedded 4th-order solution
EPIRK_G32_EMBEDDED = 0.5
EPIRK_G33_EMBEDDED = 1.0


@dataclass
class StepResult:
    new_state: np.ndarray
    error_estimate: float
    phi_iterations: int
    phi_applications: int
    converged: bool
    #: f(new_state) when the scheme evaluated it (a first-same-as-last
    #: pair), else None
    new_rhs: np.ndarray | None = None


def error_norm(a, b):
    """Relative discrete l2 distance ||a - b|| / ||b|| (absolute if ||b|| = 0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("error_norm requires arrays of equal shape")
    diff = np.linalg.norm(a - b)
    scale = np.linalg.norm(b)
    return diff if scale == 0.0 else diff / scale


class _PhiFailure(ArithmeticError):
    """A phi action of the attempt did not converge: the attempt ends there."""


class _PhiBroker:
    """Routes the phi actions of one step attempt to the configured engine
    and keeps the counters.

    An action serves every (order l, stage fraction c) column of one vector
    from one engine chain: `applications` counts each column, `iterations`
    each matvec, a failed chain's too; an action that does not converge
    raises _PhiFailure, so no stage is built from it.  Both engines take the
    same request (the orders, the stage fractions, the vector and a
    tolerance) and answer the zero vector with zeros and no matvec.  Only
    the broker sees alpha, so on Leja it answers a zero spectrum itself,
    v / l! per column (on Krylov a zero Jacobian ends in a happy breakdown
    at v / l!).  Every Leja chain of the attempt runs on one interval,
    shift_and_scale(alpha dt), which keeps the Newton table of each fraction
    its chains ask for, so the attempt builds one table per distinct
    fraction and the next attempt starts afresh.

    Each column's tolerance is set by the step and by that column's own
    weight w_k, the largest |coefficient| with which it enters a stage, the
    new state or the embedded solution.  The scheme passes one weight per
    column at its call sites (EXPRB43: f(u) 1/2, 1; da 1, 16, 48; db 2, 12),
    and the engine gets, for column k,
    max(tol, KAPPA tol max(1, ||u||) / (dt w_k max(1, ||vec||))).  Each
    column's estimate is relative to max(1, ||column||), so a column within
    it puts about KAPPA tol max(1, ||u||) into the update.  The floor at tol
    never tightens a column.  ||vec|| is taken once per chain with
    phi._input_norm, so an input whose norm overflows still reaches the
    engine's answer for it.
    """

    def __init__(self, lin, dt, alpha, tol, method):
        self._lin = lin
        self._matvec = partial(jvp, lin)
        self.dt = dt
        self.alpha = alpha
        self.tol = tol
        self.method = method
        self.applications = 0
        self.iterations = 0

    @cached_property
    def _interval(self):
        return shift_and_scale(self.alpha * self.dt)

    def apply(self, l, fractions, vec, weights):
        """phi_l(c J dt) vec for each c in `fractions`, one vector per column;
        `l` is one order or a tuple of one per fraction, and `weights` holds
        each column's largest |coefficient| in the step's combinations."""
        self.applications += len(fractions)
        if self.method == "leja" and self.alpha < 1e-14:
            return tuple(vec / math.factorial(lk) for lk in _column_orders(l, len(fractions)))
        share = KAPPA * self.tol * max(1.0, self._lin.base_norm)
        vnorm = max(1.0, _input_norm(vec))
        tol = [max(self.tol, share / (self.dt * w * vnorm)) for w in weights]
        if self.method == "leja":
            res = apply_phi_leja(l, self._matvec, vec, self.dt, self._interval, tol,
                                 fractions=fractions)
        else:
            res = apply_phi_krylov(l, self._matvec, vec, self.dt, tol, fractions=fractions)
        self.iterations += res.iterations
        if not res.converged:
            raise _PhiFailure(f"a phi action failed after {res.iterations} iterations")
        return tuple(res.vector)


def _step_euler(lin, broker, dt):
    # with the linearization frozen at u this is the Rosenbrock-Euler update;
    # no embedded estimate exists, the error is reported as zero
    (phi1_fu,) = broker.apply(1, (1.0,), lin.base_rhs, (1.0,))
    return lin.base_state + dt * phi1_fu, 0.0, None


def _stage_difference(lin, stage):
    """F(stage) - F(u) = f(stage) - f(u) - J (stage - u) at the u of `lin`.

    One rhs call plus one Jacobian action on the stage increment; acting on
    the small increment (rather than differencing two remainders) keeps the
    finite-difference contamination proportional to ||stage - u||.
    """
    return ((np.asarray(lin.rhs(stage), dtype=float) - lin.base_rhs)
            - jvp(lin, stage - lin.base_state))


def _step_exprb43(lin, broker, dt):
    u, fu = lin.base_state, lin.base_rhs
    phi1_half_fu, phi1_fu = broker.apply(1, (0.5, 1.0), fu, (0.5, 1.0))

    a = u + 0.5 * dt * phi1_half_fu
    da = _stage_difference(lin, a)

    phi1_da, phi3_da, phi4_da = broker.apply((1, 3, 4), (1.0, 1.0, 1.0), da, (1.0, 16.0, 48.0))
    b = u + dt * phi1_fu + dt * phi1_da
    db = _stage_difference(lin, b)

    # phi3 w3 and phi4 w4 by linearity: w3 = 16 da - 2 db and w4 = -48 da + 12 db
    phi3_db, phi4_db = broker.apply((3, 4), (1.0, 1.0), db, (2.0, 12.0))
    phi3_w3 = 16.0 * phi3_da - 2.0 * phi3_db
    phi4_w4 = -48.0 * phi4_da + 12.0 * phi4_db
    u3 = u + dt * phi1_fu + dt * phi3_w3
    u4 = u3 + dt * phi4_w4
    return u4, error_norm(u3, u4), None


def _step_exprb54s4(lin, broker, dt):
    u, fu = lin.base_state, lin.base_rhs
    phi1_fu_a, phi1_fu_b, phi1_fu_c, phi1_fu = broker.apply(1, (0.25, 0.5, 0.9, 1.0), fu,
                                                            (0.25, 0.5, 0.9, 1.0))

    a = u + 0.25 * dt * phi1_fu_a
    da = _stage_difference(lin, a)

    phi3_da_b, phi3_da, phi4_da = broker.apply((3, 3, 4), (0.5, 1.0, 1.0), da, (4.0, 64.0, 60.0))
    b = u + 0.5 * dt * phi1_fu_b + 4.0 * dt * phi3_da_b
    db = _stage_difference(lin, b)

    phi3_db_c, phi3_db, phi4_db = broker.apply((3, 3, 4), (0.9, 1.0, 1.0), db,
                                               (729.0 / 125.0, 18.0, 60.0))
    c = u + 0.9 * dt * phi1_fu_c + (729.0 / 125.0) * dt * phi3_db_c
    dc = _stage_difference(lin, c)

    # phi_l of the remainder combinations w1..w4 of the 4th- and 5th-order solutions
    phi3_dc, phi4_dc = broker.apply((3, 4), (1.0, 1.0), dc, (250.0 / 81.0, 500.0 / 27.0))
    phi3_w1 = 64.0 * phi3_da - 8.0 * phi3_db
    phi4_w2 = -60.0 * phi4_da - (285.0 / 8.0) * phi4_db + (125.0 / 8.0) * phi4_dc
    phi3_w3 = 18.0 * phi3_db - (250.0 / 81.0) * phi3_dc
    phi4_w4 = -60.0 * phi4_db + (500.0 / 27.0) * phi4_dc
    u4 = u + dt * phi1_fu + dt * phi3_w1 + dt * phi4_w2
    u5 = u + dt * phi1_fu + dt * phi3_w3 + dt * phi4_w4
    return u5, error_norm(u4, u5), None


def _step_epirk5p1(lin, broker, dt):
    u, fu = lin.base_state, lin.base_rhs
    phi1_fu_a, phi1_fu_b, phi1_fu = broker.apply(1, (EPIRK_G11, EPIRK_G21, EPIRK_G31), fu,
                                                 (EPIRK_A11, EPIRK_A21, EPIRK_B1))

    a = u + EPIRK_A11 * dt * phi1_fu_a
    da = _stage_difference(lin, a)

    phi1_da_b, phi1_da, phi1_da_emb = broker.apply(
        1, (EPIRK_G22, EPIRK_G32, EPIRK_G32_EMBEDDED), da, (EPIRK_A22, EPIRK_B2, EPIRK_B2))
    b = u + EPIRK_A21 * dt * phi1_fu_b + EPIRK_A22 * dt * phi1_da_b
    db = _stage_difference(lin, b)
    # F(u) - 2 F(a) + F(b)
    w = db - 2.0 * da

    phi3_w, phi3_w_emb = broker.apply(3, (EPIRK_G33, EPIRK_G33_EMBEDDED), w,
                                      (EPIRK_B3, EPIRK_B3))
    u5 = (u + EPIRK_B1 * dt * phi1_fu + EPIRK_B2 * dt * phi1_da
          + EPIRK_B3 * dt * phi3_w)
    # embedded 4th-order solution: same structure with G32, G33 replaced
    u4 = (u + EPIRK_B1 * dt * phi1_fu + EPIRK_B2 * dt * phi1_da_emb
          + EPIRK_B3 * dt * phi3_w_emb)
    return u5, error_norm(u4, u5), None


# Zonneveld's 4(3) pair: classical RK4 plus one extra stage for the
# third-order companion.
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


def _step_explicit(tableau, lin, broker, dt):
    # never applies the phi broker.  A stage input is built in the row of k
    # its stage then occupies.  When the last row of A is b (first same as
    # last), the last stage is f(unew), handed on.
    a, b, bhat = tableau
    u, rhs = lin.base_state, lin.rhs
    fsal = list(a[-1]) == list(b[:-1])
    m = len(a) - fsal
    k = np.empty((len(a), u.size))
    k[0] = lin.base_rhs
    for i in range(1, m):
        np.dot(np.multiply(a[i], dt), k[:i], out=k[i])
        k[i] += u
        k[i] = rhs(k[i])
    unew = np.dot(dt * b[:m], k[:m])
    unew += u
    if fsal:
        k[-1] = rhs(unew)
    err = np.linalg.norm(np.dot(dt * (bhat - b), k))
    scale = np.linalg.norm(unew)
    # a copy, so that the handed-over f(unew) does not keep the block alive
    return unew, err if scale == 0.0 else err / scale, k[-1].copy() if fsal else None


#: scheme -> (order, embedded order, step function)
_SCHEMES = {
    Scheme.ROS_EULER: (2, None, _step_euler),
    Scheme.EXPRB43: (4, 3, _step_exprb43),
    Scheme.EXPRB54S4: (5, 4, _step_exprb54s4),
    Scheme.EPIRK5P1: (5, 4, _step_epirk5p1),
    Scheme.RK43: (4, 3, partial(_step_explicit, _TABLEAUS[Scheme.RK43])),
    Scheme.DOPRI54: (5, 4, partial(_step_explicit, _TABLEAUS[Scheme.DOPRI54])),
}


def fp_policy():
    """The floating-point policy of every step and linearization: overflow,
    an invalid operation and division by zero raise FloatingPointError, which
    the caller reports as a failed attempt or a failed run."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def step(scheme, lin, dt, method="leja", alpha=None, tol=1e-8):
    """Take one step attempt of `scheme` from the state u of `lin`, the
    FrozenLinearization at u whose counted rhs (see RhsOperator) makes every
    evaluation, and return its StepResult.

    `method` is one of PHI_METHODS, checked before any evaluation; `alpha`
    is the spectral magnitude that an exponential scheme on the Leja engine
    needs (Krylov reads none); `tol` is the step tolerance, from which the
    broker sets each phi column's own (see _PhiBroker).  An attempt fails at
    its first fault (a phi action that does not converge, an rhs blow-up or
    a floating-point fault under fp_policy: each an ArithmeticError) or with
    a non-finite result, and then returns converged=False, lin.base_state,
    error_estimate inf and no new_rhs: the caller rejects it and retries
    with a smaller dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method not in PHI_METHODS:
        raise ValueError(f"unknown phi method {method!r}")
    if scheme.is_exponential and alpha is None and method == "leja":
        raise ValueError(f"exponential scheme {scheme.value} needs the spectral "
                         "magnitude alpha on the Leja engine")
    broker = _PhiBroker(lin, dt, alpha, tol, method)
    try:
        with fp_policy():
            unew, err, new_rhs = _SCHEMES[scheme][2](lin, broker, dt)
        ok = bool(np.all(np.isfinite(unew)) and np.isfinite(err))
    except ArithmeticError:
        ok = False
    if not ok:
        unew, err, new_rhs = lin.base_state, np.inf, None
    return StepResult(new_state=unew, error_estimate=err, phi_iterations=broker.iterations,
                      phi_applications=broker.applications, converged=ok, new_rhs=new_rhs)
