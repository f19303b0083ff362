import math

import pytest
from hypothesis import given, strategies as st

from xmhd.controllers import (ALPHA_C, BETA_C, DELTA_C, FIRST_GROWTH, GROWTH_CAP, LAMBDA_C,
                              SAFETY, ControllerMode, ControllerState, accept, cost_next,
                              traditional_next)


def test_constants_digits():
    assert ALPHA_C == 0.65241444
    assert BETA_C == 0.26862269
    assert LAMBDA_C == 1.37412002
    assert DELTA_C == 0.64446017
    assert SAFETY == 0.9
    assert GROWTH_CAP == 2.0
    assert FIRST_GROWTH == 100.0


def test_traditional_ratio_one_is_stationary():
    # a unit proposal factor safety * (tol/err)^(1/(p+1)) keeps dt, whatever the order
    for p in (1, 2, 3, 4):
        err = SAFETY ** (p + 1) * 1e-6
        assert traditional_next(0.1, err, 1e-6, p) == pytest.approx(0.1, rel=1e-14)


def test_traditional_sixteenfold_error_halves_dt():
    # 16 safety^4 tol against the p + 1 = 4th root: safety cancels, dt halves
    err = 16.0 * SAFETY ** 4 * 1e-6
    assert traditional_next(0.1, err, 1e-6, 3) == pytest.approx(0.05, rel=1e-14)


def test_traditional_growth_clamp():
    assert traditional_next(0.1, 1e-18, 1e-6, 3) == pytest.approx(0.1 * GROWTH_CAP, rel=1e-14)
    assert traditional_next(0.1, 1.0, 1e-6, 3) == pytest.approx(0.1 / GROWTH_CAP, rel=1e-14)


def test_traditional_fixed_point_with_safety():
    # err = safety^(p+1) tol keeps dt stationary
    p = 3
    err = SAFETY ** (p + 1) * 1e-5
    assert traditional_next(0.02, err, 1e-5, p) == pytest.approx(0.02, rel=1e-13)


def test_cost_next_flat_cost_grows_by_lambda():
    out = cost_next(0.1, 0.05, 100.0, 100.0)
    assert out == pytest.approx(0.1 * 1.37412002, abs=1e-12)


def test_cost_next_rising_cost_shrinks_by_delta():
    out = cost_next(0.1, 0.05, 200.0, 100.0)
    # Delta = 1, s = exp(-alpha tanh(beta)) ~ 0.8427: inside the delta zone
    s = math.exp(-ALPHA_C * math.tanh(BETA_C))
    assert DELTA_C <= s < 1.0
    assert out == pytest.approx(0.1 * 0.64446017, abs=1e-12)


def test_cost_next_saturated_growth():
    out = cost_next(0.1, 0.2, 1e6, 1.0)
    delta = (math.log(1e6) - 0.0) / (math.log(0.1) - math.log(0.2))
    s = math.exp(-ALPHA_C * math.tanh(BETA_C * delta))
    assert s >= LAMBDA_C
    assert out == pytest.approx(0.1 * s, abs=1e-12)


def test_cost_next_equal_dt_defaults_to_lambda_growth():
    out = cost_next(0.1, 0.1, 123.0, 456.0)
    assert out == pytest.approx(0.1 * LAMBDA_C, rel=1e-14)


@given(st.floats(-1000.0, 1000.0))
def test_cost_factor_totality_and_bounds(delta):
    # every finite Delta lands in exactly one branch, with a bounded factor;
    # synthesize a cost history whose log-log slope is exactly delta
    # (|delta| capped so the synthetic cost stays representable)
    dt, dt_prev = 1.0, 0.5
    cost_prev = 1.0
    cost = math.exp(delta * (math.log(dt) - math.log(dt_prev)))
    factor = cost_next(dt, dt_prev, cost, cost_prev) / dt
    lo = min(DELTA_C, math.exp(-ALPHA_C)) - 1e-12
    hi = max(LAMBDA_C, math.exp(ALPHA_C)) + 1e-12
    assert lo <= factor <= hi
    # dead zones are excluded
    assert not (DELTA_C < factor < 1.0)
    assert not (1.0 <= factor < LAMBDA_C)


def test_accept_boundary():
    assert accept(0.5e-6, 1e-6)
    assert accept(1e-6, 1e-6)
    assert not accept(2e-6, 1e-6)


# accepted steps (dt, err, cost); the combined mode takes the cost proposal
# after the fifth step and the traditional one after every other
SEQ = [(0.01, 2e-5, 900.0), (0.013, 8e-5, 760.0), (0.02, 3e-5, 610.0),
       (0.02, 9e-5, 600.0), (0.015, 1e-6, 700.0), (0.011, 5e-5, 820.0)]
TOL, P = 1e-4, 3


def _expected_proposals():
    trad = [traditional_next(dt, err, TOL, P, FIRST_GROWTH if k == 0 else GROWTH_CAP)
            for k, (dt, err, _) in enumerate(SEQ)]
    cost = [cost_next(dt, dt0, c, c0) for (dt0, _, c0), (dt, _, c) in zip(SEQ, SEQ[1:])]
    return {
        ControllerMode.TRADITIONAL: trad,
        ControllerMode.COMBINED: trad[:1] + [min(a, b) for a, b in zip(cost, trad[1:])],
    }


@pytest.mark.parametrize("mode", list(ControllerMode))
def test_controller_state_follows_the_mode_formulas(mode):
    expected = _expected_proposals()
    # the sequence tells the two modes apart
    assert len({tuple(v) for v in expected.values()}) == 2
    ctrl = ControllerState(mode, TOL, P)
    proposals = []
    for dt, err, cost in SEQ:
        # a rejection proposes the traditional retry and leaves the history alone
        assert ctrl.after_reject(dt, 16.0 * TOL) == traditional_next(dt, 16.0 * TOL, TOL, P)
        proposals.append(ctrl.after_accept(dt, err, cost))
    assert proposals == expected[mode]
    assert (ctrl.dt_prev, ctrl.cost_prev) == (SEQ[-1][0], SEQ[-1][2])


@pytest.mark.parametrize("mode", list(ControllerMode))
def test_first_accepted_step_grows_up_to_first_growth(mode):
    # a roundoff-level first error: the first proposal stops at FIRST_GROWTH,
    # every later one at GROWTH_CAP
    ctrl = ControllerState(mode, 1e-6, 3)
    assert ctrl.after_accept(1e-4, 1e-20, 50.0 / 1e-4) == pytest.approx(1e-4 * FIRST_GROWTH)
    assert ctrl.after_accept(1e-2, 1e-20, 50.0 / 1e-2) <= 1e-2 * GROWTH_CAP * (1 + 1e-14)
    # a first error near tol keeps the traditional proposal below either cap
    ctrl = ControllerState(mode, 1e-6, 3)
    assert ctrl.after_accept(1e-4, 1e-6, 1.0) == traditional_next(1e-4, 1e-6, 1e-6, 3)


def test_rejections_undo_the_first_growth_within_seven_attempts():
    # a retry shrinks at most GROWTH_CAP-fold, so seven of the ten
    # consecutive attempts a run allows bring FIRST_GROWTH back below 1
    ctrl = ControllerState(ControllerMode.COMBINED, 1e-6, 3)
    dt = FIRST_GROWTH
    for _ in range(7):
        dt = ctrl.after_reject(dt, math.inf)
    assert dt < 1.0
