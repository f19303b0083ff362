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
    # estimate_alpha keeps no cache: every call recomputes alpha for the
    # linearization it is given, and `prev` only supplies the start vector
    other = RhsOperator(lambda u: -2.0 * u)
    prev = estimate_alpha(FrozenLinearization(other, np.zeros(4)), None)
    prev_vector = prev.vector.copy()
    op = RhsOperator(lambda u: -7.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    calls = op.calls
    est = estimate_alpha(lin, prev)
    assert op.calls > calls                       # computed, not reused
    assert est.alpha / DEFAULT_SAFETY == pytest.approx(7.0, rel=0.02)
    again = estimate_alpha(lin, prev)
    assert again.alpha == est.alpha
    assert np.array_equal(prev.vector, prev_vector)   # prev is left untouched


def _refresh_points(monkeypatch, spectrum_interval):
    """Run a small KHI case; return the report and, per spectral refresh,
    the number of steps accepted before it."""
    import xmhd.harness
    from xmhd.controllers import ControllerMode
    from xmhd.harness import RunConfig, run
    from xmhd.integrators import Scheme
    from xmhd.scenarios import make_scenario

    accepted, points = [], []
    original_accept, original_estimate = xmhd.harness.accept, xmhd.harness.estimate_alpha

    def counted_accept(err, tol):
        ok = original_accept(err, tol)
        accepted.append(bool(ok))
        return ok

    def counted_estimate(lin, prev, rng):
        points.append(sum(accepted))
        return original_estimate(lin, prev, rng=rng)

    monkeypatch.setattr(xmhd.harness, "accept", counted_accept)
    monkeypatch.setattr(xmhd.harness, "estimate_alpha", counted_estimate)
    spec = make_scenario("khi-III", nx=24, ny=24, t_final=0.1)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.EXPRB43, method="leja",
                        controller=ControllerMode.COMBINED, tol=1e-4,
                        spectrum_interval=spectrum_interval))
    assert rep.status == "ok"
    return rep, points


def test_estimate_alpha_refreshes_at_interval(monkeypatch):
    # run() refreshes on the steps that start after 0, 3, 6, ... accepted steps
    rep, points = _refresh_points(monkeypatch, 3)
    assert rep.accepted > 6
    assert points == list(range(0, rep.accepted, 3))


def test_estimate_alpha_honours_the_interval_of_each_call(monkeypatch):
    # the interval is each run's own RunConfig.spectrum_interval
    for interval in (1, 4, 50):
        rep, points = _refresh_points(monkeypatch, interval)
        assert points == list(range(0, rep.accepted, interval))


def test_estimate_alpha_zero_operator():
    op = RhsOperator(lambda u: 0.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    est = estimate_alpha(lin, None)
    assert est.alpha == 0.0


def test_estimate_alpha_zero_warm_start_falls_back_to_ones():
    # a zero start vector cannot be normalised; the iteration starts from ones
    op = RhsOperator(lambda u: np.diag([-6.0, -1.0, -0.5]) @ u)
    lin = FrozenLinearization(op, np.zeros(3))
    est = estimate_alpha(lin, SpectralEstimate(alpha=1.0, vector=np.zeros(3)))
    ones = estimate_alpha(lin, SpectralEstimate(alpha=1.0, vector=np.ones(3)))
    assert est.alpha == ones.alpha > 0.0
    assert np.array_equal(est.vector, ones.vector)


def test_estimate_alpha_warm_start_uses_previous_vector():
    a = np.diag([-6.0, -1.0, -0.5])
    op = RhsOperator(lambda u: a @ u)
    lin = FrozenLinearization(op, np.zeros(3))
    est = estimate_alpha(lin, None)
    calls = op.calls
    est2 = estimate_alpha(lin, est)    # warm started from est.vector
    assert op.calls - calls <= 5     # converges almost immediately from warm start
    assert isinstance(est2, SpectralEstimate)
    assert est2.alpha == pytest.approx(est.alpha, rel=0.02)
