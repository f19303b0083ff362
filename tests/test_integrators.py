import numpy as np
import pytest

from xmhd.integrators import (EPIRK_A11, EPIRK_A21, EPIRK_A22, EPIRK_B1, EPIRK_B2,
                               EPIRK_B3, EPIRK_G11, EPIRK_G21, EPIRK_G22, EPIRK_G31,
                               EPIRK_G32, EPIRK_G32_EMBEDDED, EPIRK_G33,
                               EPIRK_G33_EMBEDDED, _TABLEAUS, Scheme, _stage_difference,
                               error_norm, step)
from xmhd.linearize import FrozenLinearization, RhsBlowupError, RhsOperator
from xmhd.phi import phi_dense
from tests._problems import (observed_order, random_negative_spectrum,
                             riccati_l1_error)


def test_epirk5p1_table_digits():
    assert EPIRK_A11 == 0.35129592695058193092
    assert EPIRK_A21 == 0.84405472011657126298
    assert EPIRK_A22 == 1.6905891609568963624
    assert EPIRK_B1 == 1.0
    assert EPIRK_B2 == 1.2727127317356892397
    assert EPIRK_B3 == 2.271459926542262275
    assert EPIRK_G11 == EPIRK_A11 and EPIRK_G21 == EPIRK_A21
    assert EPIRK_G22 == 0.5
    assert EPIRK_G31 == 1.0
    assert EPIRK_G32 == 0.71111095364366870359
    assert EPIRK_G33 == 0.62378111953371494809
    assert EPIRK_G32_EMBEDDED == 0.5 and EPIRK_G33_EMBEDDED == 1.0


def test_scheme_orders_table():
    assert Scheme.ROS_EULER.order == 2 and Scheme.ROS_EULER.embedded_order is None
    assert Scheme.EXPRB43.order == 4 and Scheme.EXPRB43.embedded_order == 3
    assert Scheme.EXPRB54S4.order == 5 and Scheme.EXPRB54S4.embedded_order == 4
    assert Scheme.EPIRK5P1.order == 5 and Scheme.EPIRK5P1.embedded_order == 4
    assert Scheme.RK43.order == 4 and Scheme.RK43.embedded_order == 3
    assert Scheme.DOPRI54.order == 5 and Scheme.DOPRI54.embedded_order == 4
    exponential = {s for s in Scheme if s.is_exponential}
    assert exponential == {Scheme.ROS_EULER, Scheme.EXPRB43, Scheme.EXPRB54S4, Scheme.EPIRK5P1}


def test_error_norm_basics():
    b = np.array([3.0, 4.0])
    assert error_norm(b, b) == 0.0
    assert error_norm(1.01 * b, b) == pytest.approx(0.01, rel=1e-12)
    assert error_norm(np.ones(2), np.zeros(2)) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        error_norm(np.ones(3), np.ones(4))


def test_error_norm_matches_componentwise_oracle():
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    num = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    den = np.sqrt(sum(y ** 2 for y in b))
    assert error_norm(a, b) == pytest.approx(num / den, rel=1e-14)


@pytest.mark.parametrize("scheme", [Scheme.RK43, Scheme.DOPRI54])
def test_explicit_step_matches_generator_sum_reference(scheme):
    # the in-place stage sums must keep the arithmetic of the plain sums
    a, b, bhat = _TABLEAUS[scheme]
    f = lambda u: np.sin(3.0 * u) - 0.5 * u * u * u
    u = np.random.default_rng(9).standard_normal(50)
    dt = 0.07
    stages = []
    for row in a:
        ui = u
        for coeff, kj in zip(row, stages):
            if coeff != 0.0:
                ui = ui + dt * coeff * kj
        stages.append(f(ui))
    unew = u + dt * sum(bi * ki for bi, ki in zip(b, stages) if bi != 0.0)
    ulow = u + dt * sum(bi * ki for bi, ki in zip(bhat, stages) if bi != 0.0)
    res = step(scheme, RhsOperator(f), u, dt)
    assert res.new_state.tobytes() == unew.tobytes()
    assert res.error_estimate == error_norm(ulow, unew)


def test_rosenbrock_euler_exact_on_linear():
    op = RhsOperator(lambda u: -u)
    res = step(Scheme.ROS_EULER, op, np.array([1.0]), 0.5, alpha=1.0, tol=1e-12)
    assert res.converged
    assert res.new_state[0] == pytest.approx(np.exp(-0.5), abs=1e-6)


@pytest.mark.parametrize("scheme", [s for s in Scheme if s.is_exponential])
def test_exponential_step_without_alpha_names_the_scheme(scheme):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match=scheme.value):
        step(scheme, op, np.array([1.0]), 0.5)
    assert op.calls == 0


@pytest.mark.parametrize("dt", [0.0, -0.5])
@pytest.mark.parametrize("scheme", [Scheme.EXPRB43, Scheme.RK43])
def test_step_refuses_non_positive_dt(scheme, dt):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(scheme, op, np.array([1.0]), dt, alpha=1.0)
    assert op.calls == 0


@pytest.mark.parametrize("scheme", [Scheme.EXPRB43, Scheme.RK43])
def test_step_refuses_unknown_phi_method(scheme):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match="unknown phi method"):
        step(scheme, op, np.array([1.0]), 0.5, method="lejaa", alpha=1.0)
    assert op.calls == 0


def test_stage_difference_vanishes_for_linear_rhs():
    a = np.array([[-2.0, 1.0], [0.0, -1.0]])
    op = RhsOperator(lambda u: a @ u)
    u = np.array([1.0, -1.0])
    lin = FrozenLinearization(op, u)
    diff = _stage_difference(lin, op, np.array([0.4, 0.6]), u, lin.base_rhs)
    assert np.linalg.norm(diff) <= 1e-6


def test_stage_difference_matches_dense_jacobian_oracle():
    # F(stage) - F(u) = f(stage) - f(u) - J(u) (stage - u), J from the dense oracle
    a = np.array([[-1.0, 0.3, 0.0], [0.2, -0.7, 0.1], [0.0, 0.4, -1.2]])
    op = RhsOperator(lambda v: a @ v + 0.5 * v * v)
    u = np.array([0.9, -0.5, 0.2])
    stage = np.array([1.2, -0.1, 0.0])
    lin = FrozenLinearization(op, u)
    diff = _stage_difference(lin, op, stage, u, lin.base_rhs)
    oracle = op.fn(stage) - op.fn(u) - (a + np.diag(u)) @ (stage - u)
    assert np.linalg.norm(diff - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))


def test_exprb43_embedded_error_vanishes_on_linear():
    a = np.array([[-2.0, 1.0], [0.5, -1.0]])
    op = RhsOperator(lambda u: a @ u)
    u = np.array([1.0, 2.0])
    res = step(Scheme.EXPRB43, op, u, 0.3, alpha=3.0, tol=1e-12)
    assert res.converged
    assert res.error_estimate <= 1e-6


def test_exprb43_linear_exactness():
    rng = np.random.default_rng(30)
    a = random_negative_spectrum(rng, 40, lo=-8.0)
    op = RhsOperator(lambda u: a @ u)
    u = rng.standard_normal(40)
    dt = 0.4
    res = step(Scheme.EXPRB43, op, u, dt, alpha=10.0, tol=1e-11)
    assert res.converged
    exact = phi_dense(0, dt * a) @ u
    assert error_norm(res.new_state, exact) <= 1e-6


@pytest.mark.parametrize("scheme,expected", [
    (Scheme.EXPRB43, 5), (Scheme.EPIRK5P1, 8), (Scheme.EXPRB54S4, 10),
    (Scheme.RK43, 0), (Scheme.DOPRI54, 0)])
def test_stage_counts(scheme, expected):
    op = RhsOperator(lambda u: u - 0.1 * u ** 2)
    res = step(scheme, op, np.array([0.5, 0.8, 1.1]), 0.05, alpha=2.0, tol=1e-10)
    assert res.converged
    assert res.phi_applications == expected


def test_exprb43_rhs_call_accounting():
    # base f(u), two stages with one f and one jvp each, plus one rhs
    # evaluation per phi matvec
    op = RhsOperator(lambda u: u - 0.1 * u ** 2)
    res = step(Scheme.EXPRB43, op, np.array([0.5, 0.8, 1.1]), 0.05,
               alpha=2.0, tol=1e-10)
    assert op.calls == 5 + res.phi_iterations


def test_linear_invariant_preservation():
    # rhs with 1^T f(u) = 0: discrete conservation form (diffusion + conservative flux)
    n = 32
    rng = np.random.default_rng(31)

    def conservative_rhs(u):
        flux = 0.5 * u ** 2
        return (np.roll(u, -1) - 2 * u + np.roll(u, 1)) \
            - (np.roll(flux, -1) - np.roll(flux, 1)) / 2.0

    u = 1.0 + 0.1 * rng.standard_normal(n)
    total0 = u.sum()
    for scheme in (Scheme.EXPRB43, Scheme.EPIRK5P1, Scheme.EXPRB54S4):
        op = RhsOperator(conservative_rhs)
        res = step(scheme, op, u, 0.05, alpha=5.0, tol=1e-9)
        assert res.converged
        drift = abs(res.new_state.sum() - total0) / abs(total0)
        assert drift <= 1e-10


def test_nonconvergence_propagates():
    # spectrum far outside the advertised interval: phi apply must fail,
    # the step must report converged=False without raising
    a = np.diag([-5000.0, -1.0])
    op = RhsOperator(lambda u: a @ u)
    res = step(Scheme.EXPRB43, op, np.array([1.0, 1.0]), 1.0, alpha=1.0, tol=1e-10)
    assert not res.converged


def test_riccati_convergence_orders():
    nominal = {Scheme.ROS_EULER: 2, Scheme.EXPRB43: 4, Scheme.EXPRB54S4: 5,
               Scheme.EPIRK5P1: 5, Scheme.RK43: 4, Scheme.DOPRI54: 5}
    for scheme, p in nominal.items():
        ns = [2 ** k for k in range(1, 7)]
        errs = [riccati_l1_error(scheme, n) for n in ns]
        dts = [0.5 / n for n in ns]
        order = observed_order(dts, errs, floor=1e-12)
        assert abs(order - p) <= 0.3, (scheme, order)


def test_exprb43_embedded_difference_slope():
    # single-step third-order estimate: || 4th - 3rd || ~ dt^4
    # (dt = 0.5 is pre-asymptotic on the Riccati problem: the solution
    # doubles within a single step)
    dts = 0.5 / 2 ** np.arange(1, 6)
    diffs = []
    for dt in dts:
        op = RhsOperator(lambda v: v * v)
        res = step(Scheme.EXPRB43, op, np.array([1.0]), dt, alpha=4.0, tol=1e-13)
        assert res.converged
        diffs.append(res.error_estimate * np.linalg.norm(res.new_state))
    slope = observed_order(dts, diffs, floor=1e-14)
    assert abs(slope - 4.0) <= 0.4


def test_exprb43_attempt_builds_one_newton_table_per_stage_fraction(monkeypatch):
    # five phi actions at c = 1/2 and c = 1 share two tables per attempt, and
    # the next attempt starts afresh
    import xmhd.leja
    builds = []
    original = xmhd.leja._phi_divided_diffs

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(xmhd.leja, "_phi_divided_diffs", counted)
    op = RhsOperator(lambda u: u - 0.1 * u ** 2)
    u = np.array([0.5, 0.8, 1.1])
    for attempt in (1, 2):
        res = step(Scheme.EXPRB43, op, u, 0.05, alpha=2.0, tol=1e-10)
        assert res.converged and res.phi_applications == 5
        assert len(builds) == 2 * attempt


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme,chains,applications", [
    (Scheme.EXPRB43, 4, 5), (Scheme.EXPRB54S4, 7, 10), (Scheme.EPIRK5P1, 3, 8)])
def test_one_engine_chain_per_vector(monkeypatch, method, scheme, chains, applications):
    # every stage fraction of a phi action on one vector shares one chain:
    # f(u) at all its fractions, then one chain per remainder vector
    import xmhd.integrators
    binding = f"apply_phi_{method}"
    iterations = []
    original = getattr(xmhd.integrators, binding)

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(xmhd.integrators, binding, counted)
    op = RhsOperator(lambda u: u - 0.1 * u ** 2)
    res = step(scheme, op, np.array([0.5, 0.8, 1.1]), 0.05, method=method, alpha=2.0,
               tol=1e-10)
    assert res.converged
    assert len(iterations) == chains
    assert res.phi_applications == applications
    assert res.phi_iterations == sum(iterations)


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", [s for s in Scheme if s.is_exponential])
def test_steady_state_is_a_fixed_point(scheme, method):
    # f(u) = 0 with J != 0: every phi action acts on the zero vector, which
    # the broker answers with zeros and no engine chain
    a = np.array([[-2.0, 1.0, 0.0], [0.5, -1.0, 3.0], [0.0, -3.0, -0.5]])
    u = np.array([0.5, -0.2, 1.0])
    op = RhsOperator(lambda v: a @ (v - u))
    res = step(scheme, op, u, 0.1, method=method, alpha=4.0, tol=1e-10)
    assert res.converged
    assert np.array_equal(res.new_state, u)
    assert res.phi_iterations == 0


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", [s for s in Scheme if s.is_exponential])
def test_zero_spectrum_gives_the_explicit_euler_update(scheme, method):
    # a constant rhs has J = 0: with alpha = 0 the broker answers
    # phi_l(0) v = v / l! and the step is exactly u + dt f
    f = np.array([1.0, -2.0, 0.25])
    u = np.array([0.5, -0.2, 1.0])
    op = RhsOperator(lambda v: f.copy())
    res = step(scheme, op, u, 0.1, method=method, alpha=0.0, tol=1e-10)
    assert res.converged
    assert np.array_equal(res.new_state, u + 0.1 * f)
    assert res.phi_iterations == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_rhs_blowup_inside_a_scheme_fails_the_step(scheme):
    # the first evaluation (the frozen base of an exponential scheme, the
    # first stage of an explicit one) succeeds, the next one blows up
    def blows_up_after_one_call(v):
        if op.calls > 1:
            raise RhsBlowupError("non-finite rhs")
        return -v

    op = RhsOperator(blows_up_after_one_call)
    u = np.array([1.0, 2.0])
    res = step(scheme, op, u, 0.1, alpha=1.0, tol=1e-10)
    assert not res.converged
    assert np.array_equal(res.new_state, u)
    assert res.error_estimate == np.inf
