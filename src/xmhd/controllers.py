"""Step-size controllers: traditional, and cost-gradient capped by it.

The cost controller descends the logarithmic cost-per-unit-time surface by a
finite-difference gradient step, with the saturation/dead-zone constants of
the cost-minimizing controller literature; the combined mode takes the
minimum of the two proposals so the error requirement always wins; the
cost proposal never runs alone, as it ignores the error estimate.
ControllerState applies the chosen mode over one run.
"""

import math
from dataclasses import dataclass
from enum import Enum

# saturation / response / clamp constants of the cost controller
ALPHA_C = 0.65241444
BETA_C = 0.26862269
LAMBDA_C = 1.37412002
DELTA_C = 0.64446017
# plumbing for the traditional controller
SAFETY = 0.9
GROWTH_CAP = 2.0
#: growth cap of the first accepted step's proposal; halving undoes it
#: within 7 of the run's 10 consecutive attempts
FIRST_GROWTH = 100.0


class ControllerMode(Enum):
    TRADITIONAL = "traditional"
    COMBINED = "combined"


@dataclass
class ControllerState:
    """The step-size policy of one run.

    Holds the mode, the tolerance, the embedded order p of the scheme and the
    previous accepted step's size and cost proxy (i^{n-1} / dt^{n-1}).  The
    first accepted step has no predecessor, so every mode takes the
    traditional proposal there, with its growth capped at FIRST_GROWTH
    instead of GROWTH_CAP: the run's first step is a guess, and its own
    error estimate sizes the next one (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4).
    """
    mode: ControllerMode
    tol: float
    p: int
    dt_prev: float | None = None
    cost_prev: float | None = None

    def after_reject(self, dt, err):
        """Step size for another attempt after the error estimate exceeded tol;
        a failed attempt's estimate inf gets the shrink clamp, dt / GROWTH_CAP."""
        return traditional_next(dt, err, self.tol, self.p)

    def after_accept(self, dt, err, cost):
        """Step size after an accepted step of size dt, error err and cost proxy cost."""
        growth = FIRST_GROWTH if self.dt_prev is None else GROWTH_CAP
        dt_trad = traditional_next(dt, err, self.tol, self.p, growth)
        if self.mode is ControllerMode.TRADITIONAL or self.dt_prev is None:
            dt_next = dt_trad
        else:
            # never exceed the error-admitted step
            dt_next = min(cost_next(dt, self.dt_prev, cost, self.cost_prev), dt_trad)
        self.dt_prev, self.cost_prev = dt, cost
        return dt_next


def traditional_next(dt, err, tol, p, growth=GROWTH_CAP):
    """Largest step admitted by the error estimate: safety * dt * (tol/err)^(1/(p+1)).

    Growth is clamped at `growth`, shrinkage at GROWTH_CAP.
    """
    raw = SAFETY * dt * (tol / max(err, 1e-300)) ** (1.0 / (p + 1))
    return min(max(raw, dt / GROWTH_CAP), dt * growth)


def cost_next(dt, dt_prev, cost, cost_prev):
    """Cost-gradient proposal dt * s with s = exp(-alpha tanh(beta Delta)).

    Delta is the log-log slope of the cost between the last two accepted
    steps; factors falling in the dead zones [delta, 1) and [1, lambda) are
    pushed to the zone edges so every change is at least delta-fold or
    lambda-fold.  Equal consecutive step sizes leave Delta undefined; growth
    by lambda is used as the exploration default.
    """
    dlog = math.log(dt) - math.log(dt_prev)
    if abs(dlog) < 1e-12:
        return dt * LAMBDA_C
    delta = (math.log(cost) - math.log(cost_prev)) / dlog
    s = math.exp(-ALPHA_C * math.tanh(BETA_C * delta))
    if 1.0 <= s < LAMBDA_C:
        return dt * LAMBDA_C
    if DELTA_C <= s < 1.0:
        return dt * DELTA_C
    return dt * s


def accept(err, tol):
    """A step is accepted iff its error estimate does not exceed the tolerance."""
    return err <= tol
