"""Single-step time integrators.

Exponential schemes (Rosenbrock-Euler, EXPRB43, EXPRB54s4, EPIRK5P1) are
tables (chains, sums) in the phi-combination form of Hochbruck & Ostermann
(2010), which one driver runs, each phi action on the Leja or Krylov engine.
Chain i acts on a combination {source: w} of f(u) (source 0) and the stage
differences D_j (source j), one column per (order, fraction), the columns
numbered across the chains.  A sum (base, groups) is u (base None) or an
earlier sum plus (c dt) sum_k w_k col_k for each group (c, {k: w_k}), left
to right.  Chain i but the last is followed by stage sum i and its
difference; the sums left are the embedded solution, if any, and the new
state.  Explicit embedded pairs (a 4(3) Runge-Kutta and Dormand-Prince
5(4)) serve as baselines and never touch the phi machinery: their stages
are the rows of one block K, and each stage input, the new state and the
embedded error dt (bhat - b) K is one BLAS product with them.  A step's one
input is the FrozenLinearization at u (u, f(u), the counted rhs and the
Jacobian action), so a retry after a rejection evaluates nothing that
depends on u alone.  Dormand-Prince is first-same-as-last: its last stage
is f(new state), which the step hands over for the next step's
linearization.
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

    Column k's tolerance comes from the step and from its weight w_k, its
    largest |c w| in the sums of the scheme's table (see _column_weights):
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
        `l` is one order or a tuple of one per fraction, `weights` one w_k per column."""
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


def _stage_difference(lin, stage):
    """F(stage) - F(u) = f(stage) - f(u) - J (stage - u) at the u of `lin`.

    One rhs call plus one Jacobian action on the stage increment; acting on
    the small increment (rather than differencing two remainders) keeps the
    finite-difference contamination proportional to ||stage - u||.
    """
    return ((np.asarray(lin.rhs(stage), dtype=float) - lin.base_rhs)
            - jvp(lin, stage - lin.base_state))


_ROS_EULER = ((({0: 1.0}, ((1, 1.0),)),), ((None, ((1.0, {0: 1.0}),)),))

# Hochbruck, Ostermann & Schweitzer (2009): phi3 w3 and phi4 w4 by linearity,
# w3 = 16 da - 2 db and w4 = -48 da + 12 db; the new state is u3 + dt phi4 w4
_EXPRB43 = ((({0: 1.0}, ((1, 0.5), (1, 1.0))),
             ({1: 1.0}, ((1, 1.0), (3, 1.0), (4, 1.0))),
             ({2: 1.0}, ((3, 1.0), (4, 1.0)))),
            ((None, ((0.5, {0: 1.0}),)),
             (None, ((1.0, {1: 1.0}), (1.0, {2: 1.0}))),
             (None, ((1.0, {1: 1.0}), (1.0, {3: 16.0, 5: -2.0}))),
             (2, ((1.0, {4: -48.0, 6: 12.0}),))))

# Luan & Ostermann (2014): stages at c = 1/4, 1/2, 9/10, then u4 and u5
_EXPRB54S4 = ((({0: 1.0}, ((1, 0.25), (1, 0.5), (1, 0.9), (1, 1.0))),
               ({1: 1.0}, ((3, 0.5), (3, 1.0), (4, 1.0))),
               ({2: 1.0}, ((3, 0.9), (3, 1.0), (4, 1.0))),
               ({3: 1.0}, ((3, 1.0), (4, 1.0)))),
              ((None, ((0.25, {0: 1.0}),)),
               (None, ((0.5, {1: 1.0}), (4.0, {4: 1.0}))),
               (None, ((0.9, {2: 1.0}), (729.0 / 125.0, {7: 1.0}))),
               (None, ((1.0, {3: 1.0}), (1.0, {5: 64.0, 8: -8.0}),
                       (1.0, {6: -60.0, 9: -285.0 / 8.0, 11: 125.0 / 8.0}))),
               (None, ((1.0, {3: 1.0}), (1.0, {8: 18.0, 10: -250.0 / 81.0}),
                       (1.0, {9: -60.0, 11: 500.0 / 27.0})))))

# the third chain acts on F(u) - 2 F(a) + F(b) = db - 2 da; the embedded
# solution takes the columns at G32_EMBEDDED and G33_EMBEDDED
_EPIRK5P1 = ((({0: 1.0}, ((1, EPIRK_G11), (1, EPIRK_G21), (1, EPIRK_G31))),
              ({1: 1.0}, ((1, EPIRK_G22), (1, EPIRK_G32), (1, EPIRK_G32_EMBEDDED))),
              ({2: 1.0, 1: -2.0}, ((3, EPIRK_G33), (3, EPIRK_G33_EMBEDDED)))),
             ((None, ((EPIRK_A11, {0: 1.0}),)),
              (None, ((EPIRK_A21, {1: 1.0}), (EPIRK_A22, {3: 1.0}))),
              (None, ((EPIRK_B1, {2: 1.0}), (EPIRK_B2, {5: 1.0}), (EPIRK_B3, {7: 1.0}))),
              (None, ((EPIRK_B1, {2: 1.0}), (EPIRK_B2, {4: 1.0}), (EPIRK_B3, {6: 1.0})))))


def _column_weights(table):
    """Each column's weight w_k, its largest |c w| over the sums of `table`."""
    weights = [0.0] * sum(len(columns) for _, columns in table[0])
    for c, terms in (group for _, groups in table[1] for group in groups):
        for k, w in terms.items():
            weights[k] = max(weights[k], abs(c * w))
    return weights


def _combination(terms, vectors):
    # sum_k w_k vectors[k] over {k: w_k}, left to right; a unit weight takes
    # its vector as it is
    first, *rest = (vectors[k] if w == 1.0 else w * vectors[k] for k, w in terms.items())
    return sum(rest, first)


def _step_exponential(table, lin, broker, dt):
    # the groups keep the grouping and the order of the scheme's formula: a
    # flat u + dt sum_k b_k col_k rounds differently and moves the step
    chains, sums = table
    weights = _column_weights(table)
    sources, cols, values = [lin.base_rhs], [], []
    for i, (inputs, columns) in enumerate(chains):
        if i:
            sources.append(_stage_difference(lin, values[-1]))
        orders, fractions = zip(*columns)
        cols += broker.apply(orders, fractions, _combination(inputs, sources),
                             weights[len(cols):len(cols) + len(columns)])
        # stage i after each chain but the last, every sum left after the last
        for base, groups in sums[i:i + 1] if i < len(chains) - 1 else sums[i:]:
            values.append(sum(((c * dt) * _combination(terms, cols) for c, terms in groups),
                              lin.base_state if base is None else values[base]))
    err = error_norm(values[-2], values[-1]) if len(sums) > len(chains) else 0.0
    return values[-1], err, None


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


def _step_explicit(tableau, lin, dt):
    # a stage input is built in the row of k its stage then occupies.  When
    # the last row of A is b (first same as last), the last stage is f(unew),
    # handed on.
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


#: scheme -> (order, embedded order, scheme table or explicit tableau)
_SCHEMES = {
    Scheme.ROS_EULER: (2, None, _ROS_EULER),
    Scheme.EXPRB43: (4, 3, _EXPRB43),
    Scheme.EXPRB54S4: (5, 4, _EXPRB54S4),
    Scheme.EPIRK5P1: (5, 4, _EPIRK5P1),
    Scheme.RK43: (4, 3, _TABLEAUS[Scheme.RK43]),
    Scheme.DOPRI54: (5, 4, _TABLEAUS[Scheme.DOPRI54]),
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
    table = _SCHEMES[scheme][2]
    try:
        with fp_policy():
            unew, err, new_rhs = (_step_exponential(table, lin, broker, dt)
                                  if scheme.is_exponential else _step_explicit(table, lin, dt))
        ok = bool(np.all(np.isfinite(unew)) and np.isfinite(err))
    except ArithmeticError:
        ok = False
    if not ok:
        unew, err, new_rhs = lin.base_state, np.inf, None
    return StepResult(new_state=unew, error_estimate=err, phi_iterations=broker.iterations,
                      phi_applications=broker.applications, converged=ok, new_rhs=new_rhs)
