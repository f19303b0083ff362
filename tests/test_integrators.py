import math
from collections import namedtuple

import numpy as np
import pytest

from xmhd.integrators import (EPIRK_A11, EPIRK_A21, EPIRK_A22, EPIRK_B1, EPIRK_B2,
                               EPIRK_B3, EPIRK_G11, EPIRK_G21, EPIRK_G22, EPIRK_G31,
                               EPIRK_G32, EPIRK_G32_EMBEDDED, EPIRK_G33,
                               EPIRK_G33_EMBEDDED, KAPPA, _SCHEMES, _TABLEAUS, Scheme,
                               _PhiBroker, _column_weights, _stage_difference, error_norm,
                               step)
from xmhd.linearize import FrozenLinearization, RhsOperator, estimate_alpha
from xmhd.mhd import RhsBlowupError, mhd_rhs
from xmhd.scenarios import initialize, make_scenario
from tests._phi_oracle import phi_dense
from tests._problems import random_negative_spectrum


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


EXPLICIT = [Scheme.RK43, Scheme.DOPRI54]
EXPONENTIAL = [s for s in Scheme if s.is_exponential]
EPS = np.finfo(float).eps


def _explicit_problem():
    f = lambda u: np.sin(3.0 * u) - 0.5 * u * u * u
    return f, np.random.default_rng(9).standard_normal(50), 0.07


@pytest.mark.parametrize("scheme", EXPLICIT)
def test_explicit_step_matches_generator_sum_reference(scheme):
    # an independent check from plain sums, which round differently from the
    # step's BLAS products: the new state agrees to 4 ulp of its max norm,
    # and the error estimate to 8 eps of the magnitudes it sums, since the
    # plain form takes it as the cancelling difference ulow - unew
    a, b, bhat = _TABLEAUS[scheme]
    f, u, dt = _explicit_problem()
    fsal = scheme is Scheme.DOPRI54
    stages = []
    for row in a[:len(a) - fsal]:
        ui = u
        for coeff, kj in zip(row, stages):
            if coeff != 0.0:
                ui = ui + dt * coeff * kj
        stages.append(f(ui))
    unew = u + dt * sum(bi * ki for bi, ki in zip(b, stages) if bi != 0.0)
    if fsal:
        # first same as last: the last stage is evaluated at unew itself
        stages.append(f(unew))
    ulow = u + dt * sum(bi * ki for bi, ki in zip(bhat, stages) if bi != 0.0)
    res = step(scheme, FrozenLinearization(RhsOperator(f), u), dt)
    assert np.abs(res.new_state - unew).max() <= 4 * np.spacing(np.abs(unew).max())
    magnitude = np.linalg.norm(u) + dt * sum((abs(bi) + abs(ci)) * np.linalg.norm(ki)
                                             for bi, ci, ki in zip(b, bhat, stages))
    assert abs(res.error_estimate - error_norm(ulow, unew)) \
        <= 8 * EPS * magnitude / np.linalg.norm(unew)


@pytest.mark.parametrize("scheme", EXPLICIT)
def test_explicit_step_is_one_dot_product_per_stage_combination(scheme):
    # bit for bit: each stage input, the new state and the error vector are
    # np.dot of the dt-scaled coefficients of _TABLEAUS with the stages so far
    a, b, bhat = _TABLEAUS[scheme]
    f, u, dt = _explicit_problem()
    fsal = scheme is Scheme.DOPRI54
    m = len(a) - fsal
    stages = [f(u)]
    for row in a[1:m]:
        stages.append(f(np.dot(dt * np.array(row), np.array(stages)) + u))
    unew = np.dot(dt * b[:m], np.array(stages)) + u
    if fsal:
        stages.append(f(unew))
    err = np.linalg.norm(np.dot(dt * (bhat - b), np.array(stages))) / np.linalg.norm(unew)
    res = step(scheme, FrozenLinearization(RhsOperator(f), u), dt)
    assert res.new_state.tobytes() == unew.tobytes()
    assert res.error_estimate == err
    if fsal:
        assert res.new_rhs.tobytes() == stages[-1].tobytes()


@pytest.mark.parametrize("scheme", EXPLICIT)
def test_explicit_stage_inputs_are_u_plus_dt_sum_a_k(scheme):
    # a spy sees the base evaluation at u, then each stage input
    # u + dt sum_j a_ij k_j with the k_j it returned before (to 8 eps of the
    # magnitudes summed), then, first same as last, the new state itself
    a = _TABLEAUS[scheme][0]
    f, u, dt = _explicit_problem()
    seen, returned = [], []

    def spy(v):
        seen.append(np.array(v))
        returned.append(f(v))
        return returned[-1]

    res = step(scheme, FrozenLinearization(RhsOperator(spy), u), dt)
    fsal = scheme is Scheme.DOPRI54
    assert res.converged and len(seen) == len(a)
    assert seen[0].tobytes() == u.tobytes()
    for i in range(1, len(a) - fsal):
        expected = u + dt * sum(aij * kj for aij, kj in zip(a[i], returned))
        magnitude = np.abs(u) + dt * sum(abs(aij) * np.abs(kj) for aij, kj in zip(a[i], returned))
        assert np.all(np.abs(seen[i] - expected) <= 8 * EPS * magnitude), i
    if fsal:
        assert seen[-1].tobytes() == res.new_state.tobytes()
        assert res.new_rhs.tobytes() == returned[-1].tobytes()


@pytest.mark.parametrize("scheme", EXPLICIT)
def test_overflow_in_a_stage_combination_fails_the_attempt(scheme):
    # f = 1e300 everywhere and dt = 1e10: dt a_21 k_1 overflows in the first
    # stage product, which under fp_policy fails the attempt before a second
    # evaluation
    op = RhsOperator(lambda v: np.full_like(v, 1e300))
    u = np.zeros(4)
    res = step(scheme, FrozenLinearization(op, u), 1e10)
    assert not res.converged
    assert res.error_estimate == np.inf
    assert np.array_equal(res.new_state, u) and res.new_rhs is None
    assert op.calls == 1


def test_dopri54_hands_over_f_of_its_new_state():
    # first same as last: the last stage is f(unew) at unew's own bits, and a
    # step frozen on it makes no base evaluation, so it costs six
    f = lambda u: np.sin(3.0 * u) - 0.5 * u * u * u
    op = RhsOperator(f)
    u = np.random.default_rng(10).standard_normal(50)
    res = step(Scheme.DOPRI54, FrozenLinearization(op, u), 0.07)
    assert res.converged and op.calls == 7
    assert res.new_rhs.tobytes() == f(res.new_state).tobytes()
    lin = FrozenLinearization(op, res.new_state, res.new_rhs)
    assert op.calls == 7
    assert step(Scheme.DOPRI54, lin, 0.07).converged
    assert op.calls == 13
    # the other schemes do not evaluate f at their new state
    for scheme in (Scheme.RK43, Scheme.EXPRB43):
        assert step(scheme, FrozenLinearization(op, u), 0.07, alpha=10.0).new_rhs is None


def test_rosenbrock_euler_exact_on_linear():
    op = RhsOperator(lambda u: -u)
    res = step(Scheme.ROS_EULER, FrozenLinearization(op, np.array([1.0])), 0.5, alpha=1.0,
               tol=1e-12)
    assert res.converged
    assert res.new_state[0] == pytest.approx(np.exp(-0.5), abs=1e-6)


def _handed_over(op):
    # the linearization at u = 1 of f(u) = -u with f(u) handed over, so that
    # any rhs evaluation would be the step's own
    return FrozenLinearization(op, np.array([1.0]), np.array([-1.0]))


@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_exponential_step_without_alpha_names_the_scheme(scheme):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match=scheme.value):
        step(scheme, _handed_over(op), 0.5)
    assert op.calls == 0


@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_krylov_step_needs_no_alpha(scheme):
    op = RhsOperator(lambda u: -u)
    res = step(scheme, FrozenLinearization(op, np.array([1.0])), 0.5, method="krylov", tol=1e-12)
    assert res.converged
    assert res.new_state[0] == pytest.approx(np.exp(-0.5), abs=1e-6)


@pytest.mark.parametrize("dt", [0.0, -0.5])
@pytest.mark.parametrize("scheme", [Scheme.EXPRB43, Scheme.RK43])
def test_step_refuses_non_positive_dt(scheme, dt):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(scheme, _handed_over(op), dt, alpha=1.0)
    assert op.calls == 0


@pytest.mark.parametrize("scheme", [Scheme.EXPRB43, Scheme.RK43])
def test_step_refuses_unknown_phi_method(scheme):
    op = RhsOperator(lambda u: -u)
    with pytest.raises(ValueError, match="unknown phi method"):
        step(scheme, _handed_over(op), 0.5, method="lejaa", alpha=1.0)
    assert op.calls == 0


def test_stage_difference_vanishes_for_linear_rhs():
    a = np.array([[-2.0, 1.0], [0.0, -1.0]])
    op = RhsOperator(lambda u: a @ u)
    u = np.array([1.0, -1.0])
    lin = FrozenLinearization(op, u)
    diff = _stage_difference(lin, np.array([0.4, 0.6]))
    assert np.linalg.norm(diff) <= 1e-6


def test_stage_difference_matches_dense_jacobian_oracle():
    # F(stage) - F(u) = f(stage) - f(u) - J(u) (stage - u), J from the dense oracle
    a = np.array([[-1.0, 0.3, 0.0], [0.2, -0.7, 0.1], [0.0, 0.4, -1.2]])
    op = RhsOperator(lambda v: a @ v + 0.5 * v * v)
    u = np.array([0.9, -0.5, 0.2])
    stage = np.array([1.2, -0.1, 0.0])
    lin = FrozenLinearization(op, u)
    diff = _stage_difference(lin, stage)
    oracle = op.fn(stage) - op.fn(u) - (a + np.diag(u)) @ (stage - u)
    assert np.linalg.norm(diff - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))


def test_exprb43_embedded_error_vanishes_on_linear():
    a = np.array([[-2.0, 1.0], [0.5, -1.0]])
    op = RhsOperator(lambda u: a @ u)
    u = np.array([1.0, 2.0])
    res = step(Scheme.EXPRB43, FrozenLinearization(op, u), 0.3, alpha=3.0, tol=1e-12)
    assert res.converged
    assert res.error_estimate <= 1e-6


# each scheme's order, embedded order, the literal weight of each column
# with one tuple per chain as README lists them (the explicit pairs have no
# chain), and the number of distinct stage fractions; the chain and column
# counts are read from the weights.  A new scheme adds one row
_Row = namedtuple("_Row", "order embedded_order weights fractions")
_LEDGER = {
    Scheme.ROS_EULER: _Row(2, None, ((1.0,),), 1),
    Scheme.EXPRB43: _Row(4, 3, ((0.5, 1.0), (1.0, 16.0, 48.0), (2.0, 12.0)), 2),
    Scheme.EXPRB54S4: _Row(5, 4, ((0.25, 0.5, 0.9, 1.0), (4.0, 64.0, 60.0),
                                  (729.0 / 125.0, 18.0, 60.0), (250.0 / 81.0, 500.0 / 27.0)), 4),
    Scheme.EPIRK5P1: _Row(5, 4, ((EPIRK_A11, EPIRK_A21, EPIRK_B1),
                                 (EPIRK_A22, EPIRK_B2, EPIRK_B2), (EPIRK_B3, EPIRK_B3)), 6),
    Scheme.RK43: _Row(4, 3, (), 0),
    Scheme.DOPRI54: _Row(5, 4, (), 0),
}


def _ledger_step(scheme, method="leja"):
    """One attempt of u - 0.1 u^2 from a fresh operator (dt 0.05, alpha 2,
    tol 1e-10); returns the result and the rhs evaluations it made."""
    op = RhsOperator(lambda u: u - 0.1 * u ** 2)
    res = step(scheme, FrozenLinearization(op, np.array([0.5, 0.8, 1.1])), 0.05, method=method,
               alpha=2.0, tol=1e-10)
    assert res.converged
    return res, op.calls


def _recorded(log, original):
    def recorded(*args, **kwargs):
        log.append(original(*args, **kwargs))
        return log[-1]
    return recorded


def _record_engines(monkeypatch, method):
    """Log the result of each engine chain and each Leja Newton table built."""
    import xmhd.integrators
    import xmhd.leja
    chains, tables = [], []
    binding = f"apply_phi_{method}"
    monkeypatch.setattr(xmhd.integrators, binding,
                        _recorded(chains, getattr(xmhd.integrators, binding)))
    monkeypatch.setattr(xmhd.leja, "_phi_divided_diffs",
                        _recorded(tables, xmhd.leja._phi_divided_diffs))
    return chains, tables


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_scheme_ledger(scheme, method):
    # w_k, derived from the table, is the largest |coefficient| with which
    # column k enters the step; a column that no sum reads would get weight 0
    # and divide its tolerance by zero.  An attempt applies each column once
    # and evaluates the rhs 1 + 2 (chains - 1) + phi_iterations times: f(u),
    # one f and one jvp per stage difference, one per matvec.  An explicit
    # pair evaluates it once per row of its tableau
    row = _LEDGER[scheme]
    assert (scheme.order, scheme.embedded_order) == (row.order, row.embedded_order)
    assert scheme.is_exponential == bool(row.weights)
    if scheme.is_exponential:
        table = _SCHEMES[scheme][2]
        derived = iter(_column_weights(table))
        assert tuple(tuple(next(derived) for _ in columns) for _, columns in table[0]) \
            == row.weights
    res, calls = _ledger_step(scheme, method)
    assert res.phi_applications == sum(map(len, row.weights))
    assert calls == (1 + 2 * (len(row.weights) - 1) + res.phi_iterations
                     if scheme.is_exponential else len(_TABLEAUS[scheme][0]))


@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_scheme_table_gives_the_ledger_of_a_counted_step(monkeypatch, scheme):
    # the counts read off the scheme's own table, not the typed ledger: one
    # chain per chain of the table, one application per column, one Newton
    # table per distinct fraction
    chains, tables = _record_engines(monkeypatch, "leja")
    table_chains = _SCHEMES[scheme][2][0]
    columns = [column for _, chain_columns in table_chains for column in chain_columns]
    res, _ = _ledger_step(scheme)
    assert len(chains) == len(table_chains)
    assert res.phi_applications == len(columns)
    assert len(tables) == len({fraction for _, fraction in columns})


def test_exprb43_rhs_call_accounting():
    # base f(u), two stages with one f and one jvp each, plus one rhs
    # evaluation per phi matvec
    res, calls = _ledger_step(Scheme.EXPRB43)
    assert calls == 5 + res.phi_iterations


@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_attempt_builds_one_newton_table_per_stage_fraction(monkeypatch, scheme):
    # the (order, fraction) columns of an attempt share one table per
    # distinct fraction, and the next attempt starts afresh
    _, tables = _record_engines(monkeypatch, "leja")
    for attempt in (1, 2):
        _ledger_step(scheme)
        assert len(tables) == _LEDGER[scheme].fractions * attempt


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_one_engine_chain_per_vector(monkeypatch, scheme, method):
    # every (order, fraction) column on one vector shares one chain: f(u) at
    # all its fractions, then one chain per stage remainder; Krylov builds no
    # Newton table
    chains, tables = _record_engines(monkeypatch, method)
    res, _ = _ledger_step(scheme, method)
    assert len(chains) == len(_LEDGER[scheme].weights)
    assert res.phi_iterations == sum(chain.iterations for chain in chains)
    if method == "krylov":
        assert tables == []


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
        res = step(scheme, FrozenLinearization(op, u), 0.05, alpha=5.0, tol=1e-9)
        assert res.converged
        drift = abs(res.new_state.sum() - total0) / abs(total0)
        assert drift <= 1e-10


def test_nonconvergence_propagates():
    # spectrum far outside the advertised interval: phi apply must fail,
    # the step must report converged=False without raising
    a = np.diag([-5000.0, -1.0])
    op = RhsOperator(lambda u: a @ u)
    res = step(Scheme.EXPRB43, FrozenLinearization(op, np.array([1.0, 1.0])), 1.0, alpha=1.0,
               tol=1e-10)
    assert not res.converged
    assert res.error_estimate == np.inf


def _failing_rhs(cause):
    # f(u) = diag(-5000, -1) u, whose spectrum a Leja interval of alpha = 1
    # cannot hold ("phi"); or that rhs for the base evaluation only, after
    # which it returns inf without a floating-point fault ("non-finite").
    # test_rhs_blowup_inside_a_scheme_fails_the_step covers an rhs blow-up.
    def f(v):
        if cause == "phi" or op.calls == 1:
            return np.array([-5000.0, -1.0]) * v
        return np.full_like(v, np.inf)

    op = RhsOperator(f)
    return op


_FAILURE_CASES = [(scheme, cause) for cause in ("phi", "non-finite")
                  for scheme in Scheme if scheme.is_exponential or cause != "phi"]


@pytest.mark.parametrize("scheme,cause", _FAILURE_CASES,
                         ids=[f"{scheme.value}-{cause}" for scheme, cause in _FAILURE_CASES])
def test_every_failed_attempt_returns_its_base_state(scheme, cause):
    # one outcome whatever the cause, a phi action that did not converge
    # under Rosenbrock-Euler included: the base state, error inf, no new_rhs
    lin = FrozenLinearization(_failing_rhs(cause), np.array([1.0, 1.0]))
    res = step(scheme, lin, 1.0, alpha=1.0, tol=1e-10)
    assert res.converged is False
    assert res.new_state is lin.base_state
    assert res.error_estimate == np.inf and res.new_rhs is None


@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_a_failed_phi_action_ends_the_attempt(scheme):
    # the first action, on f(u), does not converge: the attempt builds no
    # stage, so its matvecs are the only evaluations after the base one
    op = _failing_rhs("phi")
    res = step(scheme, FrozenLinearization(op, np.array([1.0, 1.0])), 1.0, alpha=1.0, tol=1e-10)
    assert not res.converged and res.phi_iterations > 0
    assert op.calls == 1 + res.phi_iterations
    assert res.phi_applications == len(_LEDGER[scheme].weights[0])


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_steady_state_is_a_fixed_point(scheme, method):
    # f(u) = 0 with J != 0: every phi action acts on the zero vector, which
    # each engine answers with zeros and no matvec
    a = np.array([[-2.0, 1.0, 0.0], [0.5, -1.0, 3.0], [0.0, -3.0, -0.5]])
    u = np.array([0.5, -0.2, 1.0])
    op = RhsOperator(lambda v: a @ (v - u))
    res = step(scheme, FrozenLinearization(op, u), 0.1, method=method, alpha=4.0, tol=1e-10)
    assert res.converged
    assert np.array_equal(res.new_state, u)
    assert res.phi_iterations == 0


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", EXPONENTIAL)
def test_zero_spectrum_gives_the_explicit_euler_update(scheme, method):
    # a constant rhs has J = 0, so phi_l(0) v = v / l! and the step is
    # u + dt f: on Leja the broker answers alpha = 0 exactly and without a
    # chain; Krylov reads no alpha, and the chain on f(u) breaks down after
    # its first matvec (the stage remainders vanish)
    f = np.array([1.0, -2.0, 0.25])
    u = np.array([0.5, -0.2, 1.0])
    op = RhsOperator(lambda v: f.copy())
    res = step(scheme, FrozenLinearization(op, u), 0.1, method=method, alpha=0.0, tol=1e-10)
    assert res.converged
    if method == "leja":
        assert np.array_equal(res.new_state, u + 0.1 * f)
        assert res.phi_iterations == 0
    else:
        assert np.allclose(res.new_state, u + 0.1 * f, rtol=1e-14, atol=1e-15)
        assert res.phi_iterations == 1


@pytest.mark.parametrize("method", ["leja", "krylov"])
def test_broker_short_circuits_answer_each_column(monkeypatch, method):
    # the zero vector reaches the engine, which answers zeros without a
    # matvec (the linearization's rhs raises, so a matvec would raise);
    # on Leja alpha = 0 gives v / l! per (order, fraction) column
    # without an engine chain; every column is counted
    import xmhd.integrators

    def no_matvec(v):
        raise AssertionError("no matvec expected")

    lin = FrozenLinearization(RhsOperator(no_matvec), np.ones(3), np.zeros(3))
    orders, fractions = (0, 1, 3, 4), (0.5, 1.0, 1.0, 0.9)
    broker = _PhiBroker(lin, 0.1, None if method == "krylov" else 4.0, 1e-10, method)
    cols = broker.apply(orders, fractions, np.zeros(3), (1.0,) * 4)
    assert len(cols) == 4 and not any(col.any() for col in cols)
    assert broker.applications == 4 and broker.iterations == 0
    if method == "leja":
        def no_chain(*args, **kwargs):
            raise AssertionError("no engine chain expected")

        monkeypatch.setattr(xmhd.integrators, "apply_phi_leja", no_chain)
        vec = np.array([1.0, -2.0, 0.25])
        broker = _PhiBroker(lin, 0.1, 0.0, 1e-10, method)
        for l, col in zip(orders, broker.apply(orders, fractions, vec, (1.0,) * 4)):
            assert np.array_equal(col, vec / math.factorial(l))
        assert broker.applications == 4 and broker.iterations == 0


def _khi3(n):
    spec = make_scenario("khi-III", nx=n, ny=n)
    state = initialize(spec)
    return RhsOperator(lambda f: mhd_rhs(state.with_flat(f), spec.params)), state.flat().copy()


@pytest.mark.parametrize("method", ["leja", "krylov"])
def test_each_column_gets_the_step_scaled_tolerance(monkeypatch, method):
    # the chains of a step hand each column its own
    # max(tol, KAPPA tol max(1, ||u||) / (dt w_k max(1, ||vec||))), where
    # w_k is the column's weight in _LEDGER
    import xmhd.integrators
    binding = f"apply_phi_{method}"
    original = getattr(xmhd.integrators, binding)
    chains = []

    def recorded(l, matvec, v, dt, *rest, fractions):
        # rest is (shift, tol) on Leja, (tol,) on Krylov
        chains.append((np.linalg.norm(v), rest[-1]))
        return original(l, matvec, v, dt, *rest, fractions=fractions)

    monkeypatch.setattr(xmhd.integrators, binding, recorded)
    op, u = _khi3(16)
    lin = FrozenLinearization(op, u)
    dt, tol, alpha = 0.005, 1e-6, estimate_alpha(lin).alpha
    for scheme in EXPONENTIAL:
        weights = _LEDGER[scheme].weights
        chains.clear()
        res = step(scheme, FrozenLinearization(op, u), dt, method=method, alpha=alpha, tol=tol)
        assert res.converged, scheme
        assert [len(got) for _, got in chains] == [len(w) for w in weights], scheme
        for (vnorm, got), chain_weights in zip(chains, weights):
            for tol_k, w in zip(got, chain_weights):
                assert tol_k == max(tol, KAPPA * tol * max(1.0, np.linalg.norm(u))
                                    / (dt * w * max(1.0, vnorm))), scheme
                assert tol_k >= tol
        if scheme is Scheme.EXPRB43:
            # the stage remainders are small next to u: their columns are
            # loosened, a column with a smaller weight more
            assert chains[1][1][0] > chains[1][1][1] > chains[1][1][2] > tol
            assert chains[2][1][0] > chains[2][1][1] > tol


@pytest.fixture(scope="module")
def khi3_64():
    op, u = _khi3(64)
    return op, u, estimate_alpha(FrozenLinearization(op, u)).alpha


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme", [s for s in EXPONENTIAL if s.embedded_order is not None])
def test_step_scaled_chains_keep_the_step_within_kappa_tol_u(khi3_64, scheme, method):
    # a loosened chain's error reaches the new state weighted by dt and its
    # coefficients, which its tolerance divides out: each step lies within
    # KAPPA tol ||u|| per chain of the same step taken with every chain
    # converged to 1e-13
    op, u, alpha = khi3_64
    tol = 1e-6
    for dt in (0.002, 0.005, 0.01):
        loose, tight = (step(scheme, FrozenLinearization(op, u), dt, method=method,
                             alpha=alpha, tol=t) for t in (tol, 1e-13))
        assert loose.converged and tight.converged
        assert (np.linalg.norm(loose.new_state - tight.new_state)
                <= len(_LEDGER[scheme].weights) * KAPPA * tol * np.linalg.norm(u)), dt


def _exprb43_w_form(f, jac, u, dt):
    # Hochbruck, Ostermann & Schweitzer (2009): phi3 and phi4 act on the
    # remainder combinations w3 = -14 N(u) + 16 N(a) - 2 N(b) and
    # w4 = 36 N(u) - 48 N(a) + 12 N(b), with N(v) = f(v) - J v
    j, fu = jac(u), f(u)
    phi = lambda l, c: phi_dense(l, c * dt * j)
    rem = lambda v: f(v) - j @ v
    a = u + 0.5 * dt * phi(1, 0.5) @ fu
    b = u + dt * phi(1, 1.0) @ fu + dt * phi(1, 1.0) @ (rem(a) - rem(u))
    w3 = -14.0 * rem(u) + 16.0 * rem(a) - 2.0 * rem(b)
    w4 = 36.0 * rem(u) - 48.0 * rem(a) + 12.0 * rem(b)
    u3 = u + dt * phi(1, 1.0) @ fu + dt * phi(3, 1.0) @ w3
    return u3 + dt * phi(4, 1.0) @ w4, u3


def _exprb54s4_w_form(f, jac, u, dt):
    # Luan & Ostermann (2014): stages at c = 1/4, 1/2, 9/10; the 5th- and
    # 4th-order solutions apply phi3 and phi4 to the remainder differences
    # d_i = N(U_i) - N(u), with N(v) = f(v) - J v
    j, fu = jac(u), f(u)
    phi = lambda l, c: phi_dense(l, c * dt * j)
    d = lambda v: f(v) - fu - j @ (v - u)
    a = u + 0.25 * dt * phi(1, 0.25) @ fu
    da = d(a)
    b = u + 0.5 * dt * phi(1, 0.5) @ fu + 4.0 * dt * phi(3, 0.5) @ da
    db = d(b)
    c = u + 0.9 * dt * phi(1, 0.9) @ fu + (729.0 / 125.0) * dt * phi(3, 0.9) @ db
    dc = d(c)
    base = u + dt * phi(1, 1.0) @ fu
    u5 = (base + dt * phi(3, 1.0) @ (18.0 * db - (250.0 / 81.0) * dc)
          + dt * phi(4, 1.0) @ (-60.0 * db + (500.0 / 27.0) * dc))
    u4 = (base + dt * phi(3, 1.0) @ (64.0 * da - 8.0 * db)
          + dt * phi(4, 1.0) @ (-60.0 * da - (285.0 / 8.0) * db + (125.0 / 8.0) * dc))
    return u5, u4


@pytest.mark.parametrize("method", ["leja", "krylov"])
@pytest.mark.parametrize("scheme,oracle", [(Scheme.EXPRB43, _exprb43_w_form),
                                           (Scheme.EXPRB54S4, _exprb54s4_w_form)])
def test_step_matches_the_textbook_w_form(monkeypatch, scheme, oracle, method):
    # the columns a scheme combines after its chains give the scheme's own
    # formula, phi applied to each remainder combination; the exact Jacobian
    # replaces the finite-difference action so that only the engine
    # tolerance separates the step from the dense evaluation
    import xmhd.integrators
    rng = np.random.default_rng(50)
    a = random_negative_spectrum(rng, 6, lo=-40.0)
    g = rng.standard_normal(6)
    f = lambda v: a @ v - v ** 3 / 3.0 + g
    jac = lambda v: a - np.diag(v ** 2)
    monkeypatch.setattr(xmhd.integrators, "jvp", lambda lin, w: jac(lin.base_state) @ w)
    u = rng.standard_normal(6)
    dt, tol = 0.1, 1e-10
    alpha = 1.25 * np.abs(np.linalg.eigvalsh(jac(u))).max()
    res = step(scheme, FrozenLinearization(RhsOperator(f), u), dt, method=method, alpha=alpha,
               tol=tol)
    high, low = oracle(f, jac, u, dt)
    assert res.converged
    assert error_norm(res.new_state, high) <= 10 * tol
    assert abs(res.error_estimate - error_norm(low, high)) <= 10 * tol


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
    res = step(scheme, FrozenLinearization(op, u), 0.1, alpha=1.0, tol=1e-10)
    assert not res.converged
    assert np.array_equal(res.new_state, u)
    assert res.error_estimate == np.inf
    assert res.new_rhs is None
