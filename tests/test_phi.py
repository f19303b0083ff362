import math

import mpmath as mp
import numpy as np
import pytest

from xmhd.leja import leja_points
from xmhd.phi import (_TAYLOR_DEGREE, _TAYLOR_RADIUS, MAX_ORDER,
                      DividedDiffTable, _expm_taylor, _phi_divided_diffs,
                      divided_differences, newton_eval, phi_dense, phi_scalar)


def test_phi_scalar_at_zero():
    assert phi_scalar(0, 0.0) == 1.0
    assert phi_scalar(2, 0.0) == 0.5
    for l in range(5):
        assert phi_scalar(l, 0.0) == pytest.approx(1.0 / math.factorial(l), rel=1e-15)


def test_phi1_of_one_is_e_minus_one():
    # Taylor series oracle summed to machine precision
    total, term = 0.0, 1.0
    for k in range(1, 60):
        total += term
        term /= (k + 1)
    assert phi_scalar(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert phi_scalar(1, 1.0) == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_recursion_identity(l):
    # phi_{l+1}(z) z + 1/l! = phi_l(z) for |z| <= 50
    for z in np.concatenate([np.linspace(-50, 50, 41), [1e-3, -1e-3, 0.49, -0.49]]):
        lhs = phi_scalar(l + 1, z) * z + 1.0 / math.factorial(l)
        rhs = phi_scalar(l, z)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_phi_scalar_complex():
    z = 0.3 + 2.0j
    val = phi_scalar(1, z)
    assert val == pytest.approx((np.exp(z) - 1.0) / z, rel=1e-13)


def test_phi_scalar_rejects_bad_order():
    with pytest.raises(ValueError):
        phi_scalar(5, 1.0)
    with pytest.raises(ValueError):
        phi_scalar(-1, 1.0)


def test_phi_dense_zero_matrix():
    out = phi_dense(3, np.zeros((4, 4)))
    assert np.allclose(out, np.eye(4) / 6.0, atol=1e-15)


def test_phi_dense_diagonal():
    out = phi_dense(1, np.diag([-1.0, -2.0]))
    expect = np.diag([phi_scalar(1, -1.0), phi_scalar(1, -2.0)])
    assert np.allclose(out, expect, rtol=1e-13, atol=1e-15)


def test_phi_dense_1x1_matches_scalar():
    for l in range(5):
        for z in (-3.0, -0.2, 0.3, 1.7):
            out = phi_dense(l, np.array([[z]]))[0, 0]
            assert out == pytest.approx(phi_scalar(l, z), rel=1e-13)


def test_phi_dense_rejects_nonsquare():
    with pytest.raises(ValueError):
        phi_dense(1, np.zeros((3, 4)))


def test_phi_dense_commutes_with_argument():
    rng = np.random.default_rng(7)
    for l in (0, 1, 2, 3, 4):
        a = rng.standard_normal((16, 16))
        f = phi_dense(l, a)
        comm = np.linalg.norm(a @ f - f @ a)
        assert comm <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(f)


def test_expm_taylor_matches_identity_building_reference():
    # the Horner loop adds 1 to the diagonal in place; the reference builds
    # a fresh identity per term and must give the same values
    rng = np.random.default_rng(5)
    for m in (1, 2, 7, 40):
        for scale in (0.01, 1.0, 30.0, 400.0):
            a = scale * rng.standard_normal((m, m)) / np.sqrt(m)
            s = int(math.ceil(math.log2(max(1.0, np.linalg.norm(a, 1) / _TAYLOR_RADIUS))))
            b = a / (2.0 ** s)
            f = np.eye(m)
            for k in range(_TAYLOR_DEGREE, 0, -1):
                f = np.eye(m) + (b @ f) / k
            for _ in range(s):
                f = f @ f
            assert np.array_equal(_expm_taylor(a), f)


def test_divided_differences_single_node():
    table = divided_differences(1, [0.0])
    assert isinstance(table, DividedDiffTable)
    assert table.coeffs[0] == pytest.approx(1.0, rel=1e-15)
    for l in range(5):
        for node in (-2.0, -0.3, 1.4):
            t = divided_differences(l, [node])
            assert t.coeffs[0] == pytest.approx(phi_scalar(l, node), rel=1e-12)


def test_divided_differences_two_nodes_is_slope():
    t = divided_differences(0, [0.0, 1.0])
    assert t.coeffs[0] == pytest.approx(1.0, rel=1e-15)
    assert t.coeffs[1] == pytest.approx(math.e - 1.0, rel=1e-13)


def test_divided_differences_rejects_empty():
    with pytest.raises(ValueError):
        divided_differences(1, [])


def test_divided_differences_against_extended_precision_oracle():
    # 16 Leja nodes on [-2, 2]; 256-bit recursive difference table as oracle
    mp.mp.prec = 256
    nodes = np.asarray(leja_points(16))
    table = divided_differences(1, nodes)

    def mp_phi1(z):
        z = mp.mpf(float(z))
        return (mp.e ** z - 1) / z if z != 0 else mp.mpf(1)

    vals = [mp_phi1(x) for x in nodes]
    mpnodes = [mp.mpf(float(x)) for x in nodes]
    oracle = [vals[0]]
    cur = vals
    for j in range(1, len(nodes)):
        cur = [(cur[i + 1] - cur[i]) / (mpnodes[i + j] - mpnodes[i])
               for i in range(len(cur) - 1)]
        oracle.append(cur[0])
    for mine, ref in zip(table.coeffs, oracle):
        assert abs(float(mine) - float(ref)) <= 1e-9 * abs(float(ref))


@pytest.mark.parametrize("l", [0, 1, 4])
def test_newton_polynomial_reproduces_phi_at_nodes(l):
    nodes = np.asarray(leja_points(64))
    table = divided_differences(l, nodes)
    vals = newton_eval(table, nodes)
    exact = np.array([phi_scalar(l, z) for z in nodes])
    assert np.all(np.abs(vals - exact) <= 1e-9 * np.abs(exact))


def _mp_phi(l, z):
    if z == 0:
        return 1 / mp.factorial(l)
    head = sum(z ** j / mp.factorial(j) for j in range(l))
    return (mp.e ** z - head) / z ** l


@pytest.mark.parametrize("alpha_dt", [5.0, 93.0, 400.0])
def test_all_orders_table_matches_per_order_and_oracle(alpha_dt):
    # one pass on the Leja transplant x = q + theta xi of [-alpha_dt, 0]:
    # row l holds theta^k phi_l[x_0..x_k]; the oracle is a 3000-bit
    # recursive difference table
    theta, q = alpha_dt / 4.0, -alpha_dt / 2.0
    xs = q + theta * np.asarray(leja_points(64))
    table = _phi_divided_diffs(xs, subdiag=theta)
    assert table.shape == (MAX_ORDER + 1, xs.size)
    powers = theta ** np.arange(xs.size)
    with mp.workprec(3000):
        mpnodes = [mp.mpf(float(x)) for x in xs]
        for l in range(MAX_ORDER + 1):
            per_order = divided_differences(l, xs).coeffs * powers
            assert np.all(np.abs(table[l] - per_order) <= 1e-12 * np.abs(per_order)), l
            cur = [_mp_phi(l, x) for x in mpnodes]
            oracle = [cur[0]]
            for j in range(1, xs.size):
                cur = [(cur[i + 1] - cur[i]) / (mpnodes[i + j] - mpnodes[i])
                       for i in range(len(cur) - 1)]
                oracle.append(cur[0])
            oracle = np.array([float(c * mp.mpf(theta) ** k) for k, c in enumerate(oracle)])
            assert np.all(oracle > 0)
            assert np.all(np.abs(table[l] - oracle) <= 1e-12 * oracle), l


def test_table_prefix_does_not_depend_on_its_length():
    # a table rebuilt for more nodes keeps the coefficients it had
    theta, q = 23.25, -46.5
    xs = q + theta * np.asarray(leja_points(256))
    short = _phi_divided_diffs(xs[:64], subdiag=theta)
    long = _phi_divided_diffs(xs, subdiag=theta)
    assert np.all(np.abs(long[:, :64] - short) <= 1e-12 * np.abs(short))
