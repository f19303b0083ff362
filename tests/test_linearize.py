import numpy as np
import pytest

from xmhd.linearize import (DEFAULT_SAFETY, FrozenLinearization, RhsOperator,
                            SpectralEstimate, estimate_alpha, jvp)


def quad_rhs(u):
    # smooth 3-state quadratic system with dense coupling
    a = np.array([[-1.0, 0.3, 0.0], [0.2, -0.7, 0.1], [0.0, 0.4, -1.2]])
    return a @ u + 0.5 * u * u


def test_rhs_operator_counts_calls():
    op = RhsOperator(lambda u: -u)
    op(np.ones(3))
    op(np.ones(3))
    assert op.calls == 2


def test_jvp_zero_vector_short_circuits():
    op = RhsOperator(quad_rhs)
    lin = FrozenLinearization(op, np.array([1.0, 2.0, 3.0]))
    before = op.calls
    out = jvp(lin, np.zeros(3))
    assert np.all(out == 0.0)
    assert op.calls == before  # no evaluation needed


def test_jvp_costs_one_evaluation():
    op = RhsOperator(quad_rhs)
    lin = FrozenLinearization(op, np.array([0.5, -0.2, 0.1]))
    before = op.calls
    jvp(lin, np.array([1.0, 0.0, 0.0]))
    assert op.calls == before + 1


def test_jvp_exact_on_linear_map():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    op = RhsOperator(lambda u: a @ u)
    lin = FrozenLinearization(op, np.array([0.3, -0.4]))
    out = jvp(lin, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, -1.0], atol=1e-7)


def test_jvp_on_elementwise_square():
    op = RhsOperator(lambda u: u * u)
    lin = FrozenLinearization(op, np.array([1.0, 2.0, 3.0]))
    out = jvp(lin, np.ones(3))
    assert np.allclose(out, [2.0, 4.0, 6.0], rtol=1e-6)


def test_jvp_agrees_with_central_differences():
    base = np.array([0.7, -0.3, 0.5])
    op = RhsOperator(quad_rhs)
    lin = FrozenLinearization(op, base)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.standard_normal(3)
        fwd = jvp(lin, w)
        eps = 1e-6 * np.linalg.norm(base) / np.linalg.norm(w)
        central = (quad_rhs(base + eps * w) - quad_rhs(base - eps * w)) / (2 * eps)
        assert np.linalg.norm(fwd - central) <= 1e-4 * max(1.0, np.linalg.norm(central))


def test_estimate_alpha_dominant_mode():
    op = RhsOperator(lambda u: np.array([-4.0, -1.0]) * u)
    lin = FrozenLinearization(op, np.zeros(2))
    est = estimate_alpha(lin, None)
    assert est.alpha == pytest.approx(5.0, rel=0.05)
    assert est.age_steps == 0


def test_estimate_alpha_identity():
    op = RhsOperator(lambda u: u.copy())
    lin = FrozenLinearization(op, np.zeros(8))
    est = estimate_alpha(lin, None)
    assert est.alpha / DEFAULT_SAFETY == pytest.approx(1.0, rel=0.02)


def test_estimate_alpha_antisymmetric_operator():
    # dominant pair +-i: a Rayleigh quotient would vanish, the norm ratio not
    op = RhsOperator(lambda u: np.array([u[1], -u[0]]))
    lin = FrozenLinearization(op, np.zeros(2))
    est = estimate_alpha(lin, None)
    assert est.alpha / DEFAULT_SAFETY == pytest.approx(1.0, rel=0.02)


def test_estimate_alpha_cache_contract():
    op = RhsOperator(lambda u: -2.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    est = estimate_alpha(lin, None, interval=50)
    aged = est
    calls = op.calls
    for k in range(1, 12):
        aged = estimate_alpha(lin, aged, interval=50)
        assert aged.age_steps == k
        assert aged.alpha == est.alpha
    assert op.calls == calls  # aging costs nothing


def test_estimate_alpha_refreshes_at_interval():
    op = RhsOperator(lambda u: -2.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    est = estimate_alpha(lin, None, interval=3)
    est = estimate_alpha(lin, est, interval=3)    # age 1
    est = estimate_alpha(lin, est, interval=3)    # age 2
    calls = op.calls
    est = estimate_alpha(lin, est, interval=3)    # expired: recompute
    assert est.age_steps == 0
    assert op.calls > calls


def test_estimate_alpha_honours_the_interval_of_each_call():
    op = RhsOperator(lambda u: -2.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    est = estimate_alpha(lin, None, interval=50)
    calls = op.calls
    est = estimate_alpha(lin, est, interval=1)    # a shorter interval expires it
    assert est.age_steps == 0
    assert op.calls > calls


def test_estimate_alpha_zero_operator():
    op = RhsOperator(lambda u: 0.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    est = estimate_alpha(lin, None)
    assert est.alpha == 0.0


def test_estimate_alpha_warm_start_uses_previous_vector():
    a = np.diag([-6.0, -1.0, -0.5])
    op = RhsOperator(lambda u: a @ u)
    lin = FrozenLinearization(op, np.zeros(3))
    est = estimate_alpha(lin, None, interval=2)
    est = estimate_alpha(lin, est, interval=2)   # age 1
    calls = op.calls
    est2 = estimate_alpha(lin, est, interval=2)  # refresh, warm started
    assert est2.age_steps == 0
    assert op.calls - calls <= 5     # converges almost immediately from warm start
    assert isinstance(est2, SpectralEstimate)
