import math

import numpy as np
import pytest

from xmhd.krylov import REORTH_SHARE, _phi_rows, apply_phi_krylov, arnoldi_step
from xmhd.leja import apply_phi_leja, shift_and_scale
from xmhd.linearize import FrozenLinearization, RhsOperator, jvp
from xmhd.mhd import mhd_rhs
from xmhd.phi import MAX_ORDER
from xmhd.scenarios import initialize, make_scenario
from tests._phi_oracle import phi_dense, phi_scalar
from tests._problems import random_negative_spectrum


def test_zero_operator_breaks_down_immediately():
    v = np.array([2.0, 0.0, -1.0])
    res = apply_phi_krylov(1, lambda w: 0.0 * w, v, 1.0, 1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.vector[0], v, atol=1e-13)


def test_diagonal_example():
    a = np.diag([-1.0, -10.0])
    res = apply_phi_krylov(1, lambda w: a @ w, np.ones(2), 0.1, 1e-10)
    assert res.converged
    expect = np.array([phi_scalar(1, -0.1), phi_scalar(1, -1.0)])
    assert np.allclose(res.vector[0], expect, rtol=1e-9)


def test_eigenvector_converges_in_one_step():
    v = np.full(6, 0.5)
    lam = -0.5
    res = apply_phi_krylov(0, lambda w: lam * w, v, 1.0, 1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.vector[0], np.exp(lam) * v, rtol=1e-12)


def test_answers_zero_vector_with_zeros():
    # no Krylov space is built from the zero vector: the answer is zeros,
    # converged, with no matvec
    calls = []
    res = apply_phi_krylov(1, lambda w: calls.append(None) or w, np.zeros(4), 1.0, 1e-8)
    assert res.converged and res.iterations == 0 == len(calls)
    assert np.array_equal(res.vector, np.zeros((1, 4)))


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_rejects_non_positive_tolerance(tol):
    calls = []
    with pytest.raises(ValueError, match="tolerance must be positive"):
        apply_phi_krylov(1, lambda w: calls.append(None) or -w, np.ones(4), 1.0, tol)
    assert calls == []


@pytest.mark.parametrize("l", [0, 1, 3, 4])
def test_oracle_equivalence_random_matrices(l):
    rng = np.random.default_rng(200 + l)
    for _ in range(4):
        a = random_negative_spectrum(rng, 32)
        v = rng.standard_normal(32)
        exact = phi_dense(l, a) @ v
        res = apply_phi_krylov(l, lambda w: a @ w, v, 1.0, 1e-10)
        assert res.converged
        err = np.linalg.norm(res.vector[0] - exact) / np.linalg.norm(exact)
        assert err <= 1e-8


def test_cross_engine_agreement():
    rng = np.random.default_rng(11)
    for l in (0, 1, 3):
        a = random_negative_spectrum(rng, 32)
        v = rng.standard_normal(32)
        tol = 1e-9
        rl = apply_phi_leja(l, lambda w: a @ w, v, 1.0, shift_and_scale(25.0), tol)
        rk = apply_phi_krylov(l, lambda w: a @ w, v, 1.0, tol)
        assert rl.converged and rk.converged
        diff = np.linalg.norm(rl.vector[0] - rk.vector[0]) / np.linalg.norm(rk.vector[0])
        assert diff <= 10 * tol


def test_basis_size_monotone_in_tolerance():
    rng = np.random.default_rng(12)
    a = random_negative_spectrum(rng, 48)
    v = rng.standard_normal(48)
    sizes = [apply_phi_krylov(1, lambda w: a @ w, v, 1.0, tol).iterations
             for tol in (1e-4, 1e-7, 1e-10)]
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_full_basis_reproduces_dense_result():
    # symmetric operator, m reaching the dimension: projection is exact
    rng = np.random.default_rng(13)
    a = random_negative_spectrum(rng, 10)
    v = rng.standard_normal(10)
    res = apply_phi_krylov(1, lambda w: a @ w, v, 0.7, 1e-300)
    exact = phi_dense(1, 0.7 * a) @ v
    assert np.linalg.norm(res.vector[0] - exact) <= 1e-10 * np.linalg.norm(exact)


def test_arnoldi_relation_and_orthonormality():
    # the basis and Hessenberg matrix that arnoldi_step builds, step by step
    rng = np.random.default_rng(14)
    a = rng.standard_normal((30, 30))
    a = a - 5.0 * np.eye(30)
    v = rng.standard_normal(30)
    m = 12
    vmat = np.empty((m + 1, 30))
    hess = np.zeros((m + 1, m))
    vmat[0] = v / np.linalg.norm(v)
    for j in range(m):
        w = a @ vmat[j]
        kept = w.copy()
        assert not arnoldi_step(vmat, hess, j, w)
        assert np.array_equal(w, kept)
    gram = vmat[:m] @ vmat[:m].T
    assert np.abs(gram - np.eye(m)).max() <= 1e-10
    lhs = a @ vmat[:m].T
    rhs = vmat[:m + 1].T @ hess
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
    # every order of the projected phi action, from one augmented exponential,
    # agrees with the dense evaluation of the Hessenberg matrix
    rows = _phi_rows(hess[:m, :m])
    assert rows.shape == (MAX_ORDER + 1, m)
    for l in range(MAX_ORDER + 1):
        dense_col = phi_dense(l, hess[:m, :m])[:, 0]
        assert np.allclose(rows[l], dense_col, rtol=1e-12, atol=1e-14)


def test_arnoldi_step_breaks_down_at_an_eigenvector():
    # A x lies in span{x}: the first step reports breakdown, with h_00 the eigenvalue
    rng = np.random.default_rng(15)
    a = rng.standard_normal((20, 20))
    a = a + a.T
    lam, vecs = np.linalg.eigh(a)
    basis = np.empty((2, 20))
    hess = np.zeros((2, 1))
    basis[0] = vecs[:, 3]
    assert arnoldi_step(basis, hess, 0, a @ basis[0])
    assert hess[0, 0] == pytest.approx(lam[3], rel=1e-12)
    assert hess[1, 0] <= 1e-14 * max(1.0, abs(lam[3]))


def test_arnoldi_step_repeats_the_pass_only_when_it_cancels():
    # w within 1e-6 of span(Q): one pass leaves a residual of ~1e-6 ||w||,
    # far below REORTH_SHARE ||w||, whose roundoff along Q is ~1e-10 of it;
    # the second pass takes that out
    rng = np.random.default_rng(16)
    k, n = 10, 200
    q = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    tilt = rng.standard_normal(n)
    tilt -= q.T @ (q @ tilt)
    close = q.T @ rng.standard_normal(k) + 1e-6 * tilt / np.linalg.norm(tilt)
    basis, hess = np.vstack([q, np.empty(n)]), np.zeros((k + 1, k))
    assert not arnoldi_step(basis, hess, k - 1, close)
    assert np.abs(q @ basis[k]).max() <= 1e-14
    assert hess[k, k - 1] < REORTH_SHARE * np.linalg.norm(close)
    # a generic w keeps most of its norm: one pass, whose coefficients are
    # Q @ w bit for bit
    generic = rng.standard_normal(n)
    basis, hess = np.vstack([q, np.empty(n)]), np.zeros((k + 1, k))
    assert not arnoldi_step(basis, hess, k - 1, generic)
    assert hess[k, k - 1] >= REORTH_SHARE * np.linalg.norm(generic)
    assert np.array_equal(hess[:k, k - 1], q @ generic)
    assert np.abs(q @ basis[k]).max() <= 1e-14


def test_arnoldi_basis_stays_orthonormal_on_the_mhd_jacobian():
    # the Arnoldi of the khi-III 16^2 Jacobian action from f(u), as the
    # spectral estimate and a long Krylov chain run it: one pass alone loses
    # orthogonality (3e-7 after 50 steps, 4e-3 after 100); the repeated pass
    # holds it near 1e-11 and 1e-9
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=0.0)
    state = initialize(spec)
    lin = FrozenLinearization(RhsOperator(lambda f: mhd_rhs(state.with_flat(f), spec.params)),
                              state.flat().copy())
    m = 100
    basis = np.empty((m + 1, lin.base_state.size))
    hess = np.zeros((m + 1, m))
    basis[0] = lin.base_rhs / np.linalg.norm(lin.base_rhs)
    bounds = {50: 1e-10, 100: 1e-8}
    for j in range(m):
        assert not arnoldi_step(basis, hess, j, jvp(lin, basis[j]))
        if j + 1 in bounds:
            gram = basis[:j + 2] @ basis[:j + 2].T
            assert np.abs(gram - np.eye(j + 2)).max() <= bounds[j + 1]


@pytest.mark.parametrize("orders,fractions,per_step", [
    ((1, 3, 4), (1.0, 1.0, 1.0), 1), ((1, 1), (0.5, 1.0), 2)],
    ids=["three-orders-one-fraction", "one-order-two-fractions"])
def test_one_exponential_per_fraction_per_step(monkeypatch, orders, fractions, per_step):
    # every order at one fraction reads one augmented exponential per Arnoldi
    # step; a tolerance no column meets runs every column to m = n
    import xmhd.krylov
    calls = [0]
    original = xmhd.krylov._expm

    def counted(a):
        calls[0] += 1
        return original(a)

    monkeypatch.setattr(xmhd.krylov, "_expm", counted)
    rng = np.random.default_rng(248)
    a = random_negative_spectrum(rng, 8)
    res = apply_phi_krylov(orders, lambda w: a @ w, rng.standard_normal(8), 1.0, 1e-300,
                           fractions=fractions)
    assert res.converged and res.iterations == 8
    assert calls[0] == per_step * res.iterations


@pytest.mark.parametrize("l", range(5))
def test_one_basis_serves_every_fraction(l):
    # the Arnoldi basis does not depend on dt: each column is the standalone
    # action at c dt, bit for bit, and the basis grows to the largest count
    rng = np.random.default_rng(240 + l)
    a = random_negative_spectrum(rng, 32)
    v = rng.standard_normal(32)
    dt, tol = 1.0, 1e-10
    fractions = (0.25, 0.5, 0.9, 1.0)
    calls = [0]

    def counted(w):
        calls[0] += 1
        return a @ w

    res = apply_phi_krylov(l, counted, v, dt, tol, fractions=fractions)
    assert res.converged and res.vector.shape == (len(fractions), v.size)
    assert calls[0] == res.iterations
    counts = []
    for c, col in zip(fractions, res.vector):
        alone = apply_phi_krylov(l, lambda w: a @ w, v, c * dt, tol)
        assert alone.converged
        counts.append(alone.iterations)
        assert np.array_equal(col, alone.vector[0])
        exact = phi_dense(l, c * dt * a) @ v
        assert np.linalg.norm(col - exact) <= 100 * tol * np.linalg.norm(exact)
    assert res.iterations == max(counts)


def test_repeated_fractions_share_one_basis():
    rng = np.random.default_rng(245)
    a = random_negative_spectrum(rng, 24)
    v = rng.standard_normal(24)
    res = apply_phi_krylov(2, lambda w: a @ w, v, 1.0, 1e-10, fractions=(0.5, 1.0, 0.5))
    alone = apply_phi_krylov(2, lambda w: a @ w, v, 0.5, 1e-10)
    assert res.converged
    assert np.array_equal(res.vector[0], alone.vector[0])
    assert np.array_equal(res.vector[2], alone.vector[0])


def test_mixed_order_columns_share_one_basis():
    # each (order, fraction) column equals the standalone single-order call
    # at its fraction bit for bit, and the basis grows to the largest count
    rng = np.random.default_rng(247)
    a = random_negative_spectrum(rng, 32)
    v = rng.standard_normal(32)
    dt, tol = 1.0, 1e-10
    columns = ((1, 1.0), (3, 0.5), (3, 1.0), (4, 1.0), (0, 0.9))
    res = apply_phi_krylov(tuple(l for l, _ in columns), lambda w: a @ w, v, dt, tol,
                           fractions=tuple(c for _, c in columns))
    assert res.converged and res.vector.shape == (len(columns), v.size)
    counts = []
    for (l, c), col in zip(columns, res.vector):
        alone = apply_phi_krylov(l, lambda w: a @ w, v, c * dt, tol)
        counts.append(alone.iterations)
        assert np.array_equal(col, alone.vector[0])
        exact = phi_dense(l, c * dt * a) @ v
        assert np.linalg.norm(col - exact) <= 100 * tol * np.linalg.norm(exact)
    assert res.iterations == max(counts)


def test_orders_must_pair_with_fractions():
    a = np.diag([-2.0, -1.0])
    with pytest.raises(ValueError, match="3 phi orders for 2"):
        apply_phi_krylov((1, 3, 4), lambda w: a @ w, np.ones(2), 1.0, 1e-10,
                         fractions=(0.5, 1.0))
    with pytest.raises(ValueError, match="2 phi orders for 1"):
        apply_phi_krylov((1, 3), lambda w: a @ w, np.ones(2), 1.0, 1e-10)


def test_shared_basis_that_cannot_converge_fails(monkeypatch):
    # with a three-vector ceiling the tiny fraction converges, the full one
    # cannot, and the action reports the failure
    import xmhd.krylov
    monkeypatch.setattr(xmhd.krylov, "M_DEFAULT", 3)
    rng = np.random.default_rng(246)
    a = random_negative_spectrum(rng, 32)
    v = rng.standard_normal(32)
    res = apply_phi_krylov(1, lambda w: a @ w, v, 1.0, 1e-12, fractions=(1e-6, 1.0))
    tiny = apply_phi_krylov(1, lambda w: a @ w, v, 1e-6, 1e-12)
    assert not res.converged and res.iterations == 3
    assert tiny.converged and np.array_equal(res.vector[0], tiny.vector[0])


def test_zero_operator_gives_v_over_l_factorial_by_happy_breakdown():
    # J = 0: the first matvec breaks the Arnoldi process down, and the 1 x 1
    # projection gives phi_l(0) v = v / l! for every column
    vec = np.array([1.0, -2.0, 0.25])
    orders, fractions = (0, 1, 3, 4), (0.5, 1.0, 1.0, 0.9)
    res = apply_phi_krylov(orders, lambda w: np.zeros_like(w), vec, 0.1, 1e-10,
                           fractions=fractions)
    assert res.converged and res.iterations == 1 and res.residual == 0.0
    for l, col in zip(orders, res.vector):
        assert np.allclose(col, vec / math.factorial(l), rtol=1e-15, atol=0.0)


def test_growing_basis_gives_the_full_basis_result(monkeypatch):
    # the basis starts at BASIS_ROWS rows and grows three times on this
    # 69-matvec chain (17, 34, 68, 101 rows); a basis allocated at its full
    # size from the start returns the same bits, since every row is written
    # and read at the same place
    import xmhd.krylov
    rng = np.random.default_rng(314)
    a = random_negative_spectrum(rng, 200, lo=-400.0)
    v = rng.standard_normal(200)
    act = lambda: apply_phi_krylov((1, 4), lambda w: a @ w, v, 1.0, 1e-12, fractions=(0.5, 1.0))
    grown = act()
    assert grown.converged and 2 * xmhd.krylov.BASIS_ROWS < grown.iterations
    monkeypatch.setattr(xmhd.krylov, "BASIS_ROWS", xmhd.krylov.M_DEFAULT + 1)
    full = act()
    assert grown.iterations == full.iterations
    assert np.array_equal(grown.vector, full.vector)
