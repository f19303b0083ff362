import numpy as np
import pytest

from xmhd.leja import LEJA_MAX, apply_phi_leja, leja_points, shift_and_scale
from xmhd.phi import PhiApplyResult
from tests._phi_oracle import phi_dense, phi_scalar
from tests._problems import random_negative_spectrum


def grid_search_leja(count):
    """Independent brute-force oracle: direct product maximization."""
    grid = np.linspace(-2.0, 2.0, 10001)
    pts = [2.0]
    for _ in range(count - 1):
        prod = np.ones_like(grid)
        for p in pts:
            prod *= np.abs(grid - p)
        best = prod.max()
        tied = np.nonzero(prod >= best * (1.0 - 1e-12))[0]
        pts.append(grid[tied[np.argmax(grid[tied])]])
    return np.asarray(pts)


def test_first_points():
    assert leja_points(1)[0] == 2.0
    assert np.allclose(leja_points(3), [2.0, -2.0, 0.0])
    fourth = leja_points(4)[3]
    assert fourth > 0  # tie at +-2/sqrt(3) resolves positive
    assert fourth == pytest.approx(2.0 / np.sqrt(3.0), abs=5e-4)


def test_sequence_matches_grid_search_oracle():
    assert np.array_equal(leja_points(20), grid_search_leja(20))


def test_sequence_bounds_and_count():
    pts = leja_points(LEJA_MAX)
    assert pts.size == LEJA_MAX
    assert np.all(np.abs(pts) <= 2.0)
    # points are distinct
    assert np.unique(pts).size == LEJA_MAX


def test_sequence_is_a_prefix_of_every_longer_one():
    # the greedy choice never looks ahead, so building to a table size and
    # growing on demand gives the same points bit for bit
    from xmhd.leja import _build_sequence
    full = _build_sequence(LEJA_MAX)
    for size in (64, 128, 256):
        assert np.array_equal(full[:size], _build_sequence(size))


def test_points_are_built_to_the_table_size_in_use(monkeypatch):
    import xmhd.leja
    built = []
    original = xmhd.leja._build_sequence

    def counted(count):
        built.append(count)
        return original(count)

    monkeypatch.setattr(xmhd.leja, "_sequence_cache", None)
    monkeypatch.setattr(xmhd.leja, "_build_sequence", counted)
    leja_points(20)
    leja_points(64)
    assert built == [64]
    # an interpolation that runs past 64 terms extends the points once
    a = np.diag(-np.linspace(0.0, 40.0, 30))
    res = apply_phi_leja(0, lambda w: a @ w, np.ones(30), 5.0, shift_and_scale(200.0), 1e-12)
    assert 64 < res.iterations < 128
    assert built == [64, 128]


def test_count_validation():
    with pytest.raises(ValueError):
        leja_points(0)
    with pytest.raises(ValueError):
        leja_points(LEJA_MAX + 1)


def test_shift_and_scale():
    assert shift_and_scale(4.0).theta == 1.0
    assert shift_and_scale(1.0).theta == 0.25
    with pytest.raises(ValueError):
        shift_and_scale(0.0)
    with pytest.raises(ValueError):
        shift_and_scale(-1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_rejects_non_positive_tolerance(tol):
    calls = []
    with pytest.raises(ValueError, match="tolerance must be positive"):
        apply_phi_leja(1, lambda w: calls.append(None) or -w, np.ones(3), 1.0,
                       shift_and_scale(1.0), tol)
    assert calls == []


def test_zero_operator_short_circuits():
    v = np.array([1.0, -2.0, 0.5])
    res = apply_phi_leja(1, lambda w: 0.0 * w, v, 1.0, shift_and_scale(1.0), 1e-10)
    assert res.converged
    assert res.iterations <= 5
    assert np.allclose(res.vector[0], v, atol=1e-12)


def test_diagonal_example():
    a = np.diag([-1.0, -10.0])
    res = apply_phi_leja(1, lambda w: a @ w, np.ones(2), 0.1,
                         shift_and_scale(10.0), 1e-10)
    assert res.converged
    expect = np.array([phi_scalar(1, -0.1), phi_scalar(1, -1.0)])
    assert np.allclose(res.vector[0], expect, rtol=1e-9)


def test_underestimated_spectrum_does_not_converge():
    a = np.diag([-1000.0])
    res = apply_phi_leja(1, lambda w: a @ w, np.ones(1), 1.0,
                         shift_and_scale(1.0), 1e-10)
    assert not res.converged
    assert res.iterations <= LEJA_MAX


@pytest.mark.parametrize("l", [0, 1, 3, 4])
def test_oracle_equivalence_random_matrices(l):
    rng = np.random.default_rng(100 + l)
    for _ in range(4):
        a = random_negative_spectrum(rng, 32)
        v = rng.standard_normal(32)
        exact = phi_dense(l, a) @ v
        res = apply_phi_leja(l, lambda w: a @ w, v, 1.0,
                             shift_and_scale(20.0 * 1.25), 1e-10)
        assert res.converged
        err = np.linalg.norm(res.vector[0] - exact) / np.linalg.norm(exact)
        assert err <= 1e-8


def test_linearity():
    rng = np.random.default_rng(5)
    a = random_negative_spectrum(rng, 24)
    v, w = rng.standard_normal(24), rng.standard_normal(24)
    shift = shift_and_scale(25.0)
    tol = 1e-11
    rv = apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift, tol)
    rw = apply_phi_leja(1, lambda u: a @ u, w, 1.0, shift, tol)
    rc = apply_phi_leja(1, lambda u: a @ u, 2.0 * v - 3.0 * w, 1.0, shift, tol)
    combo = 2.0 * rv.vector[0] - 3.0 * rw.vector[0]
    scale = np.linalg.norm(rc.vector[0])
    assert np.linalg.norm(rc.vector[0] - combo) <= 100 * tol * max(1.0, scale)


def test_monotone_refinement():
    rng = np.random.default_rng(6)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    shift = shift_and_scale(25.0)
    loose = apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift, 1e-6)
    tight = apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift, 1e-12)
    assert loose.converged and tight.converged
    assert tight.residual <= loose.residual


def test_incremental_cost_one_matvec_per_term():
    rng = np.random.default_rng(8)
    a = random_negative_spectrum(rng, 16)
    v = rng.standard_normal(16)
    calls = [0]

    def counted(w):
        calls[0] += 1
        return a @ w

    res = apply_phi_leja(1, counted, v, 1.0, shift_and_scale(25.0), 1e-10)
    assert res.converged
    assert calls[0] == res.iterations


def test_converged_residual_below_tolerance():
    rng = np.random.default_rng(9)
    a = random_negative_spectrum(rng, 16)
    v = rng.standard_normal(16)
    res = apply_phi_leja(2, lambda w: a @ w, v, 1.0, shift_and_scale(25.0), 1e-9)
    assert isinstance(res, PhiApplyResult)
    assert res.converged
    assert res.residual <= 1e-9


def test_results_do_not_depend_on_earlier_calls():
    # A runs on an interval like B's until its Newton coefficients underflow,
    # well past 128 terms; a table cached at module level would hand B
    # coefficients of a different build depending on whether A ran first.
    # (each call owns a fresh interval, the one place tables are kept)
    rng = np.random.default_rng(12)
    a = random_negative_spectrum(rng, 32) / 10.0
    v, w = rng.standard_normal(32), rng.standard_normal(32)

    def call_a():
        return apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift_and_scale(4.0), 1e-300)

    def call_b():
        return apply_phi_leja(1, lambda u: a @ u, w, 1.0, shift_and_scale(4.0), 1e-8)

    b_first = call_b()
    a_after_b = call_a()
    b_after_a = call_b()
    a_after_a = call_a()
    assert a_after_b.iterations > 128 and b_first.iterations < 64
    assert np.array_equal(b_first.vector, b_after_a.vector)
    assert np.array_equal(a_after_b.vector, a_after_a.vector)


def test_shared_table_serves_every_order(monkeypatch):
    # the table an interval keeps for a fraction gives every order the
    # action a fresh interval gives: the shared interval builds it once,
    # each fresh interval once more
    import xmhd.leja
    rng = np.random.default_rng(13)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    shift = shift_and_scale(25.0)
    builds = []
    original = xmhd.leja._phi_divided_diffs

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(xmhd.leja, "_phi_divided_diffs", counted)
    for l in range(5):
        shared = apply_phi_leja(l, lambda u: a @ u, v, 1.0, shift, 1e-10)
        fresh = apply_phi_leja(l, lambda u: a @ u, v, 1.0, shift_and_scale(25.0), 1e-10)
        assert np.array_equal(shared.vector, fresh.vector)
    assert len(builds) == 1 + 5


def test_identity_matvec_may_return_its_argument():
    # the in-place Newton update must read the product before changing y
    v = np.array([1.0, -2.0, 0.5])
    res = apply_phi_leja(1, lambda w: w, v, -1.0, shift_and_scale(1.0), 1e-12)
    assert res.converged
    assert np.allclose(res.vector[0], phi_scalar(1, -1.0) * v, rtol=1e-10)


@pytest.mark.parametrize("l", range(5))
def test_one_chain_serves_every_fraction(l):
    # each column of a shared chain is the standalone action at its fraction:
    # bit for bit where it is a power-of-two part of the chain's fraction
    rng = np.random.default_rng(40 + l)
    a = random_negative_spectrum(rng, 32)
    v = rng.standard_normal(32)
    alpha, dt, tol = 80.0, 0.3, 1e-10
    fractions = (0.25, 0.5, 0.9, 1.0)
    calls = [0]

    def counted(w):
        calls[0] += 1
        return a @ w

    res = apply_phi_leja(l, counted, v, dt, shift_and_scale(alpha * dt), tol, fractions=fractions)
    assert res.converged and res.vector.shape == (len(fractions), v.size)
    assert calls[0] == res.iterations
    counts = []
    for c, col in zip(fractions, res.vector):
        alone = apply_phi_leja(l, lambda w: a @ w, v, c * dt,
                               shift_and_scale(alpha * (c * dt)), tol)
        assert alone.converged
        counts.append(alone.iterations)
        if c == 0.9:
            assert np.linalg.norm(col - alone.vector[0]) <= 1e-13 * np.linalg.norm(alone.vector)
        else:
            assert np.array_equal(col, alone.vector[0])
        exact = phi_dense(l, c * dt * a) @ v
        assert np.linalg.norm(col - exact) <= 100 * tol * np.linalg.norm(exact)
    assert res.iterations == max(counts)


def test_repeated_fractions_share_one_chain():
    rng = np.random.default_rng(45)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    res = apply_phi_leja(3, lambda w: a @ w, v, 1.0, shift_and_scale(25.0), 1e-10,
                         fractions=(0.5, 1.0, 0.5, 0.5))
    alone = apply_phi_leja(3, lambda w: a @ w, v, 0.5, shift_and_scale(12.5), 1e-10)
    assert res.converged
    for k in (0, 2, 3):
        assert np.array_equal(res.vector[k], alone.vector[0])


def test_mixed_order_columns_share_one_chain():
    # each (order, fraction) column of one chain equals the standalone
    # single-order call on the same chain bit for bit; the orders of a
    # fraction share one table, rebuilt past 64 terms on both sides
    rng = np.random.default_rng(46)
    a = random_negative_spectrum(rng, 32, lo=-400.0)
    v = rng.standard_normal(32)
    alpha, dt, tol = 400.0, 0.5, 1e-10
    columns = ((1, 1.0), (3, 0.5), (3, 1.0), (4, 1.0), (0, 0.9))
    res = apply_phi_leja(tuple(l for l, _ in columns), lambda w: a @ w, v, dt,
                         shift_and_scale(alpha * dt), tol, fractions=tuple(c for _, c in columns))
    assert res.converged and res.vector.shape == (len(columns), v.size)
    counts = []
    for (l, c), col in zip(columns, res.vector):
        alone = apply_phi_leja(l, lambda w: a @ w, v, dt, shift_and_scale(alpha * dt), tol,
                               fractions=(c,))
        counts.append(alone.iterations)
        assert np.array_equal(col, alone.vector[0])
        # the stop test is relative to max(1, ||column||)
        exact = phi_dense(l, c * dt * a) @ v
        assert np.linalg.norm(col - exact) <= 100 * tol * max(1.0, np.linalg.norm(exact))
    assert res.iterations == max(counts) > 64


def test_orders_must_pair_with_fractions():
    a = np.diag([-2.0, -1.0])
    shift = shift_and_scale(4.0)
    with pytest.raises(ValueError, match="3 phi orders for 2"):
        apply_phi_leja((1, 3, 4), lambda w: a @ w, np.ones(2), 1.0, shift, 1e-10,
                       fractions=(0.5, 1.0))
    with pytest.raises(ValueError, match="2 phi orders for 1"):
        apply_phi_leja((1, 3), lambda w: a @ w, np.ones(2), 1.0, shift, 1e-10)
    with pytest.raises(ValueError, match="phi order"):
        apply_phi_leja((1, 5), lambda w: a @ w, np.ones(2), 1.0, shift, 1e-10,
                       fractions=(0.5, 1.0))


def test_shared_chain_that_cannot_converge_fails():
    # the spectrum escapes the interval of every fraction
    a = np.diag([-1000.0, -1.0])
    res = apply_phi_leja(1, lambda w: a @ w, np.ones(2), 1.0, shift_and_scale(1.0), 1e-10,
                         fractions=(0.5, 1.0))
    assert not res.converged
    assert res.iterations <= LEJA_MAX and res.vector.shape == (2, 2)


def _newton_stop(a, v, dt, shift, l, tol):
    """The first m >= 1 at which the chain stops, and p_m, the sum of the
    terms up to it: the chain written out term by term.  At m = 1 the
    estimate is the term |c_1| ||y_1||, from m = 2 on the larger of the last
    two terms, each over max(1, ||p_m||)."""
    xi, c = leja_points(64), shift.coeffs(1.0, l, 64)
    y = np.array(v, dtype=float)
    p, last = c[0] * y, 0.0
    for m in range(1, 64):
        y = dt / shift.theta * (a @ y) + (2.0 - xi[m - 1]) * y
        p = p + c[m] * y
        term = abs(c[m]) * np.linalg.norm(y) / max(1.0, np.linalg.norm(p))
        if max(term, last) <= tol:
            return m, p
        last = term
    raise AssertionError("no term met the tolerance within 64 terms")


# a fixed diagonal matrix, and inputs of norm 0.16 and 16, whose columns the
# max(1, ||column||) scale measures on 1 and on their own norm
_DIAGONAL = np.diag(-np.linspace(0.5, 16.0, 10))


@pytest.mark.parametrize("size", [0.05, 5.0])
@pytest.mark.parametrize("l", [0, 1, 3])
def test_column_stops_where_the_rule_written_out_stops(l, size):
    shift, tol, v = shift_and_scale(16.0), 1e-6, np.full(10, size)
    res = apply_phi_leja(l, lambda w: _DIAGONAL @ w, v, 1.0, shift, tol)
    m, p = _newton_stop(_DIAGONAL, v, 1.0, shift, l, tol)
    assert res.converged and res.iterations == m
    assert np.allclose(res.vector[0], p, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("l", [0, 2, 4])
def test_chain_can_stop_after_one_matvec(l):
    # a spectrum of size 3e-9 at tol 1e-8: the first Newton term is within
    # tolerance, so the chain ends on it
    a = np.diag([-1e-9, -2e-9, -3e-9])
    v = np.array([1.0, -0.5, 2.0])
    res = apply_phi_leja(l, lambda w: a @ w, v, 1.0, shift_and_scale(3.75e-9), 1e-8)
    assert res.converged and res.iterations == 1
    expect = np.array([phi_scalar(l, lam) for lam in np.diag(a)]) * v
    assert np.allclose(res.vector[0], expect, rtol=1e-8, atol=0.0)
