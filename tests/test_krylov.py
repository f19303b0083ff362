import numpy as np
import pytest

from xmhd.krylov import apply_phi_krylov
from xmhd.leja import apply_phi_leja, shift_and_scale
from xmhd.phi import phi_dense, phi_scalar
from tests._problems import random_negative_spectrum


def test_zero_operator_breaks_down_immediately():
    v = np.array([2.0, 0.0, -1.0])
    res = apply_phi_krylov(1, lambda w: 0.0 * w, v, 1.0, 1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.vector, v, atol=1e-13)


def test_diagonal_example():
    a = np.diag([-1.0, -10.0])
    res = apply_phi_krylov(1, lambda w: a @ w, np.ones(2), 0.1, 1e-10)
    assert res.converged
    expect = np.array([phi_scalar(1, -0.1), phi_scalar(1, -1.0)])
    assert np.allclose(res.vector, expect, rtol=1e-9)


def test_eigenvector_converges_in_one_step():
    v = np.full(6, 0.5)
    lam = -0.5
    res = apply_phi_krylov(0, lambda w: lam * w, v, 1.0, 1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.vector, np.exp(lam) * v, rtol=1e-12)


def test_rejects_zero_vector():
    with pytest.raises(ValueError):
        apply_phi_krylov(1, lambda w: w, np.zeros(4), 1.0, 1e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_rejects_non_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        apply_phi_krylov(1, lambda w: -w, np.ones(4), 1.0, tol)


@pytest.mark.parametrize("l", [0, 1, 3, 4])
def test_oracle_equivalence_random_matrices(l):
    rng = np.random.default_rng(200 + l)
    for _ in range(4):
        a = random_negative_spectrum(rng, 32)
        v = rng.standard_normal(32)
        exact = phi_dense(l, a) @ v
        res = apply_phi_krylov(l, lambda w: a @ w, v, 1.0, 1e-10)
        assert res.converged
        err = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
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
        diff = np.linalg.norm(rl.vector - rk.vector) / np.linalg.norm(rk.vector)
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
    assert np.linalg.norm(res.vector - exact) <= 1e-10 * np.linalg.norm(exact)


def test_arnoldi_relation_and_orthonormality():
    # exercised indirectly elsewhere; here check the basis property directly
    rng = np.random.default_rng(14)
    a = rng.standard_normal((30, 30))
    a = a - 5.0 * np.eye(30)
    v = rng.standard_normal(30)
    # rebuild the pieces apply_phi_krylov builds internally
    from xmhd.krylov import _phi_e1

    beta = np.linalg.norm(v)
    basis = [v / beta]
    m = 12
    hess = np.zeros((m + 1, m))
    for j in range(m):
        w = a @ basis[j]
        for i in range(j + 1):
            h = basis[i] @ w
            w = w - h * basis[i]
            hess[i, j] += h
        for i in range(j + 1):
            c = basis[i] @ w
            w = w - c * basis[i]
            hess[i, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        basis.append(w / hess[j + 1, j])
    vmat = np.stack(basis)
    gram = vmat[:m] @ vmat[:m].T
    assert np.abs(gram - np.eye(m)).max() <= 1e-10
    lhs = a @ vmat[:m].T
    rhs = vmat[:m + 1].T @ hess
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
    # projected phi action agrees with the dense evaluation of the Hessenberg
    col = _phi_e1(2, hess[:m, :m])
    dense_col = phi_dense(2, hess[:m, :m])[:, 0]
    assert np.allclose(col, dense_col, rtol=1e-12, atol=1e-14)


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
        assert np.array_equal(col, alone.vector)
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
    assert np.array_equal(res.vector[0], alone.vector)
    assert np.array_equal(res.vector[2], alone.vector)


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
    assert tiny.converged and np.array_equal(res.vector[0], tiny.vector)
