import math

import pytest
from hypothesis import given, strategies as st

from xmhd.controllers import (ControllerConstants, ControllerMode, ControllerState,
                              accept, combine, cost_next, traditional_next)

C = ControllerConstants()


def test_constants_digits():
    assert C.alpha_c == 0.65241444
    assert C.beta_c == 0.26862269
    assert C.lambda_c == 1.37412002
    assert C.delta_c == 0.64446017


def test_traditional_ratio_one_is_stationary():
    c = ControllerConstants(safety=1.0)
    assert traditional_next(0.1, 1e-6, 1e-6, 3, c) == pytest.approx(0.1, rel=1e-14)


def test_traditional_sixteenfold_error_halves_dt():
    c = ControllerConstants(safety=1.0)
    assert traditional_next(0.1, 16e-6, 1e-6, 3, c) == pytest.approx(0.05, rel=1e-14)


def test_traditional_growth_clamp():
    c = ControllerConstants(safety=1.0, growth_cap=2.0)
    assert traditional_next(0.1, 1e-18, 1e-6, 3, c) == pytest.approx(0.2, rel=1e-14)
    assert traditional_next(0.1, 1.0, 1e-6, 3, c) == pytest.approx(0.05, rel=1e-14)


def test_traditional_fixed_point_with_safety():
    # err = safety^(p+1) tol keeps dt stationary
    p = 3
    err = C.safety ** (p + 1) * 1e-5
    assert traditional_next(0.02, err, 1e-5, p, C) == pytest.approx(0.02, rel=1e-13)


def test_cost_next_flat_cost_grows_by_lambda():
    out = cost_next(0.1, 0.05, 100.0, 100.0, C)
    assert out == pytest.approx(0.1 * 1.37412002, abs=1e-12)


def test_cost_next_rising_cost_shrinks_by_delta():
    out = cost_next(0.1, 0.05, 200.0, 100.0, C)
    # Delta = 1, s = exp(-alpha tanh(beta)) ~ 0.8427: inside the delta zone
    s = math.exp(-C.alpha_c * math.tanh(C.beta_c))
    assert C.delta_c <= s < 1.0
    assert out == pytest.approx(0.1 * 0.64446017, abs=1e-12)


def test_cost_next_saturated_growth():
    out = cost_next(0.1, 0.2, 1e6, 1.0, C)
    delta = (math.log(1e6) - 0.0) / (math.log(0.1) - math.log(0.2))
    s = math.exp(-C.alpha_c * math.tanh(C.beta_c * delta))
    assert s >= C.lambda_c
    assert out == pytest.approx(0.1 * s, abs=1e-12)


def test_cost_next_equal_dt_defaults_to_lambda_growth():
    out = cost_next(0.1, 0.1, 123.0, 456.0, C)
    assert out == pytest.approx(0.1 * C.lambda_c, rel=1e-14)


@given(st.floats(-1000.0, 1000.0))
def test_cost_factor_totality_and_bounds(delta):
    # every finite Delta lands in exactly one branch, with a bounded factor;
    # synthesize a cost history whose log-log slope is exactly delta
    # (|delta| capped so the synthetic cost stays representable)
    dt, dt_prev = 1.0, 0.5
    cost_prev = 1.0
    cost = math.exp(delta * (math.log(dt) - math.log(dt_prev)))
    factor = cost_next(dt, dt_prev, cost, cost_prev, C) / dt
    lo = min(C.delta_c, math.exp(-C.alpha_c)) - 1e-12
    hi = max(C.lambda_c, math.exp(C.alpha_c)) + 1e-12
    assert lo <= factor <= hi
    # dead zones are excluded
    assert not (C.delta_c < factor < 1.0)
    assert not (1.0 <= factor < C.lambda_c)


@given(st.floats(1e-12, 1e3), st.floats(1e-12, 1e3))
def test_combine_is_min(a, b):
    assert combine(a, b) == min(a, b)
    assert combine(a, b) <= b


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
    trad = [traditional_next(dt, err, TOL, P, C) for dt, err, _ in SEQ]
    cost = [cost_next(dt, dt0, c, c0, C) for (dt0, _, c0), (dt, _, c) in zip(SEQ, SEQ[1:])]
    return {
        ControllerMode.TRADITIONAL: trad,
        ControllerMode.COST: trad[:1] + cost,
        ControllerMode.COMBINED: trad[:1] + [combine(a, b) for a, b in zip(cost, trad[1:])],
    }


@pytest.mark.parametrize("mode", list(ControllerMode))
def test_controller_state_follows_the_mode_formulas(mode):
    expected = _expected_proposals()
    # the sequence tells the three modes apart
    assert len({tuple(v) for v in expected.values()}) == 3
    ctrl = ControllerState(mode, TOL, P)
    proposals = []
    for dt, err, cost in SEQ:
        # a rejection proposes the traditional retry and leaves the history alone
        assert ctrl.after_reject(dt, 16.0 * TOL) == traditional_next(dt, 16.0 * TOL, TOL, P, C)
        proposals.append(ctrl.after_accept(dt, err, cost))
    assert proposals == expected[mode]
    assert (ctrl.dt_prev, ctrl.cost_prev) == (SEQ[-1][0], SEQ[-1][2])
