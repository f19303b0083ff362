import numpy as np
import pytest

from xmhd.linearize import (ARNOLDI_STEPS, DEFAULT_SAFETY, FrozenLinearization,
                            RhsOperator, SpectralEstimate, estimate_alpha, jvp)


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
    # linearization it is given, and `prev` is ignored
    other = RhsOperator(lambda u: -2.0 * u)
    prev = estimate_alpha(FrozenLinearization(other, np.zeros(4)), None)
    op = RhsOperator(lambda u: -7.0 * u)
    lin = FrozenLinearization(op, np.zeros(4))
    calls = op.calls
    est = estimate_alpha(lin, prev)
    assert op.calls > calls                       # computed, not reused
    assert est.alpha / DEFAULT_SAFETY == pytest.approx(7.0, rel=1e-6)
    assert prev.alpha / DEFAULT_SAFETY == pytest.approx(2.0, rel=1e-6)


def _nonnormal(n, seed=5):
    """A dense non-normal linear map with distinct eigenvalues."""
    rng = np.random.default_rng(seed)
    return np.diag(-np.linspace(1.0, 40.0, n)) + np.triu(rng.standard_normal((n, n)), 1)


def test_estimate_alpha_ignores_rng_and_prev():
    a = _nonnormal(40)
    op = RhsOperator(lambda u: a @ u + 1.0)
    lin = FrozenLinearization(op, np.linspace(0.0, 1.0, 40))
    alphas = {estimate_alpha(lin).alpha}
    for seed in range(3):
        alphas.add(estimate_alpha(lin, rng=np.random.default_rng(seed)).alpha)
        alphas.add(estimate_alpha(lin, SpectralEstimate(alpha=float(seed)),
                                  rng=np.random.default_rng(seed)).alpha)
    assert len(alphas) == 1


@pytest.mark.parametrize("n,op,calls", [
    (40, lambda u: _nonnormal(40) @ u, ARNOLDI_STEPS),
    (5, lambda u: np.diag([-5.0, -4.0, -3.0, -2.0, -1.0]) @ u, 5),
    (40, lambda u: -3.0 * u, 1),
], ids=["k-steps", "n-below-k", "breakdown"])
def test_estimate_alpha_costs_min_k_n_rhs_evaluations(n, op, calls):
    # min(ARNOLDI_STEPS, n) Jacobian actions, fewer only at breakdown: the
    # multiple of the identity leaves the start vector invariant
    rhs = RhsOperator(op)
    lin = FrozenLinearization(rhs, np.zeros(n))
    before = rhs.calls
    est = estimate_alpha(lin)
    assert rhs.calls - before == calls
    if calls < ARNOLDI_STEPS:
        # an invariant subspace: the Ritz values are exact eigenvalues
        dense = op(np.eye(n))
        rho = np.abs(np.linalg.eigvals(dense)).max()
        assert est.alpha == pytest.approx(DEFAULT_SAFETY * rho, rel=1e-6)


def test_estimate_alpha_starts_from_f_else_from_ones():
    # f(u) = 0 at u = 0 for a linear map: the process starts from ones, as it
    # does from f(u) for the affine map whose f(u) is a multiple of ones
    a = _nonnormal(40)
    zero_f = FrozenLinearization(RhsOperator(lambda u: a @ u), np.zeros(40))
    ones_f = FrozenLinearization(RhsOperator(lambda u: a @ u + 3.0), np.zeros(40))
    other_f = FrozenLinearization(RhsOperator(lambda u: a @ u + np.arange(40.0)), np.zeros(40))
    assert not zero_f.base_rhs.any()
    alpha = estimate_alpha(zero_f).alpha
    assert alpha > 0.0
    assert alpha == pytest.approx(estimate_alpha(ones_f).alpha, rel=1e-9)
    assert alpha != pytest.approx(estimate_alpha(other_f).alpha, rel=1e-6)


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

    def counted_estimate(lin, *args, **kwargs):
        points.append(sum(accepted))
        return original_estimate(lin, *args, **kwargs)

    monkeypatch.setattr(xmhd.harness, "accept", counted_accept)
    monkeypatch.setattr(xmhd.harness, "estimate_alpha", counted_estimate)
    spec = make_scenario("khi-III", nx=24, ny=24, t_final=0.1)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.EXPRB43, method="leja",
                        controller=ControllerMode.COMBINED, tol=1e-6,
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


@pytest.mark.slow
@pytest.mark.parametrize("preset,t", [("khi-III", 0.0), ("khi-III", 0.1), ("recon-VI", 0.0),
                                      ("recon-VI", 5.0), ("khi-I", 0.0)])
def test_estimate_alpha_against_the_dense_spectrum(preset, t):
    # the dense Jacobian of a 16^2 state, column by column from jvp (n = 2048):
    # the estimate covers its spectral radius and overshoots it by at most
    # half (the safety factor 1.25 included)
    from xmhd.harness import RunConfig, run
    from xmhd.mhd import mhd_rhs
    from xmhd.scenarios import initialize, make_scenario
    spec = make_scenario(preset, nx=16, ny=16, t_final=t)
    state = initialize(spec) if t == 0.0 else run(RunConfig(scenario=spec, tol=1e-6)).final_state
    lin = FrozenLinearization(RhsOperator(lambda f: mhd_rhs(state.with_flat(f), spec.params)),
                              state.flat().copy())
    jac = np.column_stack([jvp(lin, e) for e in np.eye(lin.base_state.size)])
    rho = np.abs(np.linalg.eigvals(jac)).max()
    assert 1.0 <= estimate_alpha(lin).alpha / rho <= 1.5


def test_estimate_alpha_refuses_a_non_finite_jacobian_action():
    # finite at the base state, non-finite at every perturbed one
    base = np.ones(4)
    op = RhsOperator(lambda u: -u if np.array_equal(u, base) else np.full(4, np.nan))
    with pytest.raises(FloatingPointError, match="not finite"):
        estimate_alpha(FrozenLinearization(op, base))
