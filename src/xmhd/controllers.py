"""Step-size controllers: traditional, cost-gradient, and their combination.

The cost controller descends the logarithmic cost-per-unit-time surface by a
finite-difference gradient step, with the saturation/dead-zone constants of
the cost-minimizing controller literature; the combined mode takes the
minimum of the two proposals so the error requirement always wins.
ControllerState applies the chosen mode over one run.
"""

import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class ControllerConstants:
    # saturation / response / clamp constants of the cost controller
    alpha_c: float = 0.65241444
    beta_c: float = 0.26862269
    lambda_c: float = 1.37412002
    delta_c: float = 0.64446017
    # plumbing for the traditional controller
    safety: float = 0.9
    growth_cap: float = 2.0


DEFAULT_CONSTANTS = ControllerConstants()


class ControllerMode(Enum):
    TRADITIONAL = "traditional"
    COST = "cost"
    COMBINED = "combined"


@dataclass
class ControllerState:
    """The step-size policy of one run.

    Holds the mode, the tolerance, the embedded order p of the scheme and the
    previous accepted step's size and cost proxy (i^{n-1} / dt^{n-1}).  The
    first accepted step has no predecessor, so every mode takes the
    traditional proposal there.
    """
    mode: ControllerMode
    tol: float
    p: int
    dt_prev: float | None = None
    cost_prev: float | None = None

    def after_reject(self, dt, err):
        """Step size for another attempt after the error estimate exceeded tol."""
        return traditional_next(dt, err, self.tol, self.p)

    def after_accept(self, dt, err, cost):
        """Step size after an accepted step of size dt, error err and cost proxy cost."""
        dt_trad = traditional_next(dt, err, self.tol, self.p)
        if self.mode is ControllerMode.TRADITIONAL or self.dt_prev is None:
            dt_next = dt_trad
        else:
            dt_cost = cost_next(dt, self.dt_prev, cost, self.cost_prev)
            dt_next = dt_cost if self.mode is ControllerMode.COST \
                else combine(dt_cost, dt_trad)
        self.dt_prev, self.cost_prev = dt, cost
        return dt_next


def traditional_next(dt, err, tol, p, consts=DEFAULT_CONSTANTS):
    """Largest step admitted by the error estimate: safety * dt * (tol/err)^(1/(p+1)).

    Growth and shrinkage are both clamped by the growth cap.
    """
    raw = consts.safety * dt * (tol / max(err, 1e-300)) ** (1.0 / (p + 1))
    return min(max(raw, dt / consts.growth_cap), dt * consts.growth_cap)


def cost_next(dt, dt_prev, cost, cost_prev, consts=DEFAULT_CONSTANTS):
    """Cost-gradient proposal dt * s with s = exp(-alpha tanh(beta Delta)).

    Delta is the log-log slope of the cost between the last two accepted
    steps; factors falling in the dead zones [delta, 1) and [1, lambda) are
    pushed to the zone edges so every change is at least delta-fold or
    lambda-fold.  Equal consecutive step sizes leave Delta undefined; growth
    by lambda is used as the exploration default.
    """
    dlog = math.log(dt) - math.log(dt_prev)
    if abs(dlog) < 1e-12:
        return dt * consts.lambda_c
    delta = (math.log(cost) - math.log(cost_prev)) / dlog
    s = math.exp(-consts.alpha_c * math.tanh(consts.beta_c * delta))
    if 1.0 <= s < consts.lambda_c:
        return dt * consts.lambda_c
    if consts.delta_c <= s < 1.0:
        return dt * consts.delta_c
    return dt * s


def combine(dt_cost, dt_trad):
    """The combined controller: never exceed the error-admitted step."""
    return min(dt_cost, dt_trad)


def accept(err, tol):
    """A step is accepted iff its error estimate does not exceed the tolerance."""
    return err <= tol
