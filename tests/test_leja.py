import numpy as np
import pytest

from xmhd.leja import (LEJA_MAX, NewtonTable, PhiApplyResult, apply_phi_leja,
                       leja_points, shift_and_scale)
from xmhd.phi import phi_dense, phi_scalar
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


def test_count_validation():
    with pytest.raises(ValueError):
        leja_points(0)
    with pytest.raises(ValueError):
        leja_points(LEJA_MAX + 1)


def test_shift_and_scale():
    s = shift_and_scale(4.0)
    assert s.q == -2.0 and s.theta == 1.0
    s = shift_and_scale(1.0)
    assert s.q == -0.5 and s.theta == 0.25
    with pytest.raises(ValueError):
        shift_and_scale(0.0)
    with pytest.raises(ValueError):
        shift_and_scale(-1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_rejects_non_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        apply_phi_leja(1, lambda w: -w, np.ones(3), 1.0, shift_and_scale(1.0), tol)


def test_zero_operator_short_circuits():
    v = np.array([1.0, -2.0, 0.5])
    res = apply_phi_leja(1, lambda w: 0.0 * w, v, 1.0, shift_and_scale(1.0), 1e-10)
    assert res.converged
    assert res.iterations <= 5
    assert np.allclose(res.vector, v, atol=1e-12)


def test_diagonal_example():
    a = np.diag([-1.0, -10.0])
    res = apply_phi_leja(1, lambda w: a @ w, np.ones(2), 0.1,
                         shift_and_scale(10.0), 1e-10)
    assert res.converged
    expect = np.array([phi_scalar(1, -0.1), phi_scalar(1, -1.0)])
    assert np.allclose(res.vector, expect, rtol=1e-9)


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
        err = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
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
    combo = 2.0 * rv.vector - 3.0 * rw.vector
    scale = np.linalg.norm(rc.vector)
    assert np.linalg.norm(rc.vector - combo) <= 100 * tol * max(1.0, scale)


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
    # A runs on B's interval until its Newton coefficients underflow, well
    # past 128 terms; a table cached across calls would hand B coefficients
    # of a different build depending on whether A ran first
    rng = np.random.default_rng(12)
    a = random_negative_spectrum(rng, 32) / 10.0
    v, w = rng.standard_normal(32), rng.standard_normal(32)
    shift = shift_and_scale(4.0)

    def call_a():
        return apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift, 1e-300)

    def call_b():
        return apply_phi_leja(1, lambda u: a @ u, w, 1.0, shift, 1e-8)

    b_first = call_b()
    a_after_b = call_a()
    b_after_a = call_b()
    a_after_a = call_a()
    assert a_after_b.iterations > 128 and b_first.iterations < 64
    assert np.array_equal(b_first.vector, b_after_a.vector)
    assert np.array_equal(a_after_b.vector, a_after_a.vector)


def test_shared_table_serves_every_order():
    # one table per interval gives the same action as a fresh one per call
    rng = np.random.default_rng(13)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    shift = shift_and_scale(25.0)
    table = NewtonTable(shift)
    for l in range(5):
        shared = apply_phi_leja(l, lambda u: a @ u, v, 1.0, shift, 1e-10, tables=[table])
        fresh = apply_phi_leja(l, lambda u: a @ u, v, 1.0, shift, 1e-10)
        assert np.array_equal(shared.vector[0], fresh.vector)
    # a table wider than the chain's interval has no fraction in (0, 1]
    with pytest.raises(ValueError, match="another interval"):
        apply_phi_leja(1, lambda u: a @ u, v, 1.0, shift_and_scale(5.0), 1e-10,
                       tables=[table])


def test_identity_matvec_may_return_its_argument():
    # the in-place Newton update must read the product before changing y
    v = np.array([1.0, -2.0, 0.5])
    res = apply_phi_leja(1, lambda w: w, v, -1.0, shift_and_scale(1.0), 1e-12)
    assert res.converged
    assert np.allclose(res.vector, phi_scalar(1, -1.0) * v, rtol=1e-10)


@pytest.mark.parametrize("l", range(5))
def test_one_chain_serves_every_fraction(l):
    # each column of a shared chain is the standalone action at its fraction:
    # bit for bit where it is a power-of-two part of the chain's fraction
    rng = np.random.default_rng(40 + l)
    a = random_negative_spectrum(rng, 32)
    v = rng.standard_normal(32)
    alpha, dt, tol = 80.0, 0.3, 1e-10
    fractions = (0.25, 0.5, 0.9, 1.0)
    tables = [NewtonTable(shift_and_scale(alpha * (c * dt))) for c in fractions]
    calls = [0]

    def counted(w):
        calls[0] += 1
        return a @ w

    res = apply_phi_leja(l, counted, v, dt, tables[-1].shift, tol, tables=tables)
    assert res.converged and res.vector.shape == (len(fractions), v.size)
    assert calls[0] == res.iterations
    counts = []
    for c, col in zip(fractions, res.vector):
        alone = apply_phi_leja(l, lambda w: a @ w, v, c * dt,
                               shift_and_scale(alpha * (c * dt)), tol)
        assert alone.converged
        counts.append(alone.iterations)
        if c == 0.9:
            assert np.linalg.norm(col - alone.vector) <= 1e-13 * np.linalg.norm(alone.vector)
        else:
            assert np.array_equal(col, alone.vector)
        exact = phi_dense(l, c * dt * a) @ v
        assert np.linalg.norm(col - exact) <= 100 * tol * np.linalg.norm(exact)
    assert res.iterations == max(counts)


def test_repeated_fractions_share_one_chain():
    rng = np.random.default_rng(45)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    half, full = NewtonTable(shift_and_scale(12.5)), NewtonTable(shift_and_scale(25.0))
    res = apply_phi_leja(3, lambda w: a @ w, v, 1.0, full.shift, 1e-10,
                         tables=[half, full, half, NewtonTable(shift_and_scale(12.5))])
    alone = apply_phi_leja(3, lambda w: a @ w, v, 0.5, shift_and_scale(12.5), 1e-10)
    assert res.converged
    for k in (0, 2, 3):
        assert np.array_equal(res.vector[k], alone.vector)


def test_shared_chain_that_cannot_converge_fails():
    # the spectrum escapes the interval of every fraction
    a = np.diag([-1000.0, -1.0])
    tables = [NewtonTable(shift_and_scale(c)) for c in (0.5, 1.0)]
    res = apply_phi_leja(1, lambda w: a @ w, np.ones(2), 1.0, tables[-1].shift, 1e-10,
                         tables=tables)
    assert not res.converged
    assert res.iterations <= LEJA_MAX and res.vector.shape == (2, 2)
