import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from xmhd.krylov import _phi_rows, apply_phi_krylov
from xmhd.leja import apply_phi_leja, leja_points, shift_and_scale
from xmhd.phi import _PADE, MAX_ORDER, _drive_columns, _expm, _phi_divided_diffs, _unserved
from tests._phi_oracle import phi_dense, phi_scalar
from tests._problems import random_negative_spectrum


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


def _random_at_norm(rng, m, norm):
    a = rng.standard_normal((m, m))
    return a * (norm / np.linalg.norm(a, 1))


def _expm_cases():
    """(id, matrix): the zero matrix; 1-norms just below and just above each
    Pade theta (above theta_13 the result is squared); a non-normal
    Jordan-type block."""
    rng = np.random.default_rng(5)
    cases = [("zero", np.zeros((4, 4)))]
    for degree, (theta, _) in zip((3, 5, 7, 9, 13), _PADE):
        for side, factor in (("below", 1 - 1e-6), ("above", 1 + 1e-6)):
            cases.append((f"theta{degree}-{side}", _random_at_norm(rng, 7, factor * theta)))
    cases.append(("theta13-x40", _random_at_norm(rng, 7, 40 * _PADE[-1][0])))
    cases.append(("jordan", -2.0 * np.eye(8) + 30.0 * np.eye(8, k=1)))
    return cases


@pytest.mark.parametrize("a", [a for _, a in _expm_cases()], ids=[i for i, _ in _expm_cases()])
def test_expm_matches_scipy(a):
    expect = scipy.linalg.expm(a)
    assert np.linalg.norm(_expm(a) - expect) <= 1e-13 * np.linalg.norm(expect)


def test_expm_matches_scipy_on_the_augmented_block_of_phi_rows(monkeypatch):
    # the block _phi_rows exponentiates: a Hessenberg matrix whose 1-norm
    # makes the squaring run, bordered by e1 and a shift chain
    import xmhd.krylov
    blocks = []
    monkeypatch.setattr(xmhd.krylov, "_expm", lambda a: blocks.append(a.copy()) or _expm(a))
    h = np.triu(_random_at_norm(np.random.default_rng(6), 12, 30.0), -1)
    _phi_rows(h)
    (aug,) = blocks
    assert aug.shape == (12 + MAX_ORDER,) * 2 and np.array_equal(aug[:12, :12], h)
    expect = scipy.linalg.expm(aug)
    assert np.linalg.norm(_expm(aug) - expect) <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("l", range(MAX_ORDER + 1))
def test_phi_dense_matches_scipy_block_exponential(l):
    # phi_l(A) is the top-right block of exp of [[A, I, 0..], [0, 0, I..], ..]
    rng = np.random.default_rng(70 + l)
    n = 9
    a = _random_at_norm(rng, n, 12.0)
    block = np.zeros((n * (l + 1), n * (l + 1)))
    block[:n, :n] = a
    block[:-n, n:] += np.eye(n * l)
    expect = scipy.linalg.expm(block)[:n, l * n:]
    assert np.linalg.norm(phi_dense(l, a) - expect) <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_of_a_matrix_that_is_not_finite_raises_an_arithmetic_error(bad):
    a = np.eye(5)
    a[2, 3] = bad
    with pytest.raises(FloatingPointError):
        _expm(a)


def test_phi_divided_diffs_single_node():
    assert _phi_divided_diffs([0.0])[1][0] == pytest.approx(1.0, rel=1e-15)
    for l in range(5):
        for node in (-2.0, -0.3, 1.4):
            coeffs = _phi_divided_diffs([node])[l]
            assert coeffs[0] == pytest.approx(phi_scalar(l, node), rel=1e-12)


def test_phi_divided_diffs_two_nodes_is_slope():
    coeffs = _phi_divided_diffs([0.0, 1.0])[0]
    assert coeffs[0] == pytest.approx(1.0, rel=1e-15)
    assert coeffs[1] == pytest.approx(math.e - 1.0, rel=1e-13)


def test_phi_divided_diffs_against_extended_precision_oracle():
    # 16 Leja nodes on [-2, 2]; 256-bit recursive difference table as oracle
    mp.mp.prec = 256
    nodes = np.asarray(leja_points(16))
    coeffs = _phi_divided_diffs(nodes)[1]

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
    for mine, ref in zip(coeffs, oracle):
        assert abs(float(mine) - float(ref)) <= 1e-9 * abs(float(ref))


@pytest.mark.parametrize("l", [0, 1, 4])
def test_newton_polynomial_reproduces_phi_at_nodes(l):
    nodes = np.asarray(leja_points(64))
    coeffs = _phi_divided_diffs(nodes)[l]
    # Horner's rule on the Newton form at every node at once
    vals = np.full_like(nodes, coeffs[-1])
    for k in range(nodes.size - 2, -1, -1):
        vals = vals * (nodes - nodes[k]) + coeffs[k]
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
            per_order = _phi_divided_diffs(xs)[l] * powers
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


class ScriptedChain:
    """A fake engine chain for _drive_columns.  Matvec m returns row m - 1 of
    `script` for the live columns, or escapes (raises FloatingPointError, as
    both engines do) where that row is None; each column's value is the
    number of the last matvec that updated it."""

    def __init__(self, script):
        self.script = script
        self.calls = []
        self.value = np.zeros(len(script[0]))

    def extend(self, m, live):
        self.calls.append(list(live))
        if self.script[m - 1] is None:
            raise FloatingPointError("the basis escaped")
        self.value[live] = m
        return [self.script[m - 1][k] for k in live]

    def vectors(self):
        return self.value.copy()


def test_driver_stops_a_column_at_its_first_estimate_within_tol():
    chain = ScriptedChain([[1.0, 1.0, 1.0], [0.5, 2.0, 0.1], [0.01, 2.0, 9.0], [9.0, 0.2, 9.0]])
    res = _drive_columns(chain.extend, chain.vectors, 3, 0.2, 10)
    assert chain.calls == [[0, 1, 2], [0, 1, 2], [0, 1], [1]]
    assert res.converged and res.iterations == 4
    assert np.array_equal(res.vector, [3, 4, 2])
    assert res.residual == 0.2


def test_driver_escape_fails_every_unfinished_column_and_counts_its_matvec():
    chain = ScriptedChain([[1.0, 0.1, 1.0], None, [0.0, 0.0, 0.0]])
    res = _drive_columns(chain.extend, chain.vectors, 3, 0.2, 10)
    assert chain.calls == [[0, 1, 2], [0, 2]]
    assert not res.converged and res.iterations == 2
    assert np.array_equal(res.vector, [1, 1, 1])
    assert res.residual == np.inf


def test_driver_cap_fails_the_remaining_columns_where_they_stand():
    chain = ScriptedChain([[1.0, 1.0], [0.5, 0.1], [0.3, 9.0], [0.0, 0.0]])
    res = _drive_columns(chain.extend, chain.vectors, 2, 0.2, 3)
    assert chain.calls == [[0, 1], [0, 1], [0]]
    assert not res.converged and res.iterations == 3
    assert np.array_equal(res.vector, [3, 2])
    assert res.residual == 0.3


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_driver_rejects_non_positive_tolerance_before_any_matvec(tol):
    chain = ScriptedChain([[0.0]])
    with pytest.raises(ValueError, match="tolerance must be positive"):
        _drive_columns(chain.extend, chain.vectors, 1, tol, 10)
    assert chain.calls == []


def test_driver_stops_each_column_at_its_own_tolerance():
    # estimates 5e-2, 5e-3, ..., one decade per matvec, on both columns: the
    # column at 1e-3 stops at matvec 3 and is frozen there, as a run of it
    # alone at 1e-3 is; the column at 1e-9 runs on to matvec 9
    script = [[0.5 * 10.0 ** -m] * 2 for m in range(1, 13)]
    chain = ScriptedChain(script)
    res = _drive_columns(chain.extend, chain.vectors, 2, (1e-3, 1e-9), 12)
    assert chain.calls == [[0, 1]] * 3 + [[1]] * 6
    assert res.converged and res.iterations == 9
    assert np.array_equal(res.vector, [3, 9])
    assert res.residual == 5e-4
    alone = ScriptedChain([row[:1] for row in script])
    single = _drive_columns(alone.extend, alone.vectors, 1, 1e-3, 12)
    assert single.iterations == 3 and res.vector[0] == single.vector[0]


@pytest.mark.parametrize("tol", [(1e-3, 0.0), (-1e-8, 1e-3), (1e-3, np.nan), (1e-3,),
                                 (1e-3, 1e-3, 1e-3)],
                         ids=["zero", "negative", "nan", "too-few", "too-many"])
def test_a_bad_per_column_tolerance_raises_before_any_matvec(tol):
    chain = ScriptedChain([[0.0, 0.0]])
    with pytest.raises(ValueError, match="tolerance"):
        _drive_columns(chain.extend, chain.vectors, 2, tol, 10)
    assert chain.calls == []
    for norm in (0.0, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            _unserved(norm, 2, 4, tol)


def _act(engine, l, matvec, v, dt, tol, reach, **kwargs):
    """The phi action of either engine.  `reach` (alpha dt) sizes the Leja
    interval; Krylov needs no spectral estimate and does not read it."""
    if engine == "leja":
        return apply_phi_leja(l, matvec, v, dt, shift_and_scale(reach), tol, **kwargs)
    return apply_phi_krylov(l, matvec, v, dt, tol, **kwargs)


@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_diagonal_example(engine):
    a = np.diag([-1.0, -10.0])
    res = _act(engine, 1, lambda w: a @ w, np.ones(2), 0.1, 1e-10, 10.0)
    assert res.converged
    expect = np.array([phi_scalar(1, -0.1), phi_scalar(1, -1.0)])
    assert np.allclose(res.vector[0], expect, rtol=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_rejects_non_positive_tolerance(engine, tol):
    calls = []
    with pytest.raises(ValueError, match="tolerance must be positive"):
        _act(engine, 1, lambda w: calls.append(None) or -w, np.ones(4), 1.0, tol, 1.0)
    assert calls == []


@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_orders_must_pair_with_fractions(engine):
    a = np.diag([-2.0, -1.0])

    def action(orders, **kwargs):
        return _act(engine, orders, lambda w: a @ w, np.ones(2), 1.0, 1e-10, 4.0, **kwargs)

    with pytest.raises(ValueError, match="3 phi orders for 2"):
        action((1, 3, 4), fractions=(0.5, 1.0))
    with pytest.raises(ValueError, match="2 phi orders for 1"):
        action((1, 3))
    with pytest.raises(ValueError, match="phi order"):
        action((1, 5), fractions=(0.5, 1.0))


@pytest.mark.parametrize("fault", [1, 3])
@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_a_matvec_that_raises_fails_the_action_without_raising(engine, fault):
    # a FloatingPointError (or any ArithmeticError) out of a matvec is the
    # chain's escape: every column fails, and the matvec that raised counts
    rng = np.random.default_rng(60)
    a = random_negative_spectrum(rng, 20, lo=-10.0)
    v = rng.standard_normal(20)
    calls = []

    def matvec(w):
        calls.append(None)
        if len(calls) == fault:
            raise FloatingPointError("overflow encountered in divide")
        return a @ w

    res = _act(engine, (1, 3), matvec, v, 0.5, 1e-12, 12.5, fractions=(0.5, 1.0))
    assert not res.converged
    assert res.iterations == fault == len(calls)
    assert res.residual == np.inf


@pytest.mark.parametrize("policy", [True, False], ids=["fp_policy", "no-policy"])
@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_an_input_whose_norm_overflows_fails_the_action_without_raising(engine, policy):
    # ||v|| overflows although every entry is finite: the action fails before
    # its first matvec, whether or not floating-point faults raise
    from contextlib import nullcontext

    from xmhd.integrators import fp_policy

    v = np.full(4, 1e160)
    calls = []

    def matvec(w):
        calls.append(None)
        return -w

    with fp_policy() if policy else nullcontext():
        res = _act(engine, 1, matvec, v, 0.1, 1e-8, 1.25)
    assert not res.converged
    assert res.iterations == 0 == len(calls)
    assert res.residual == np.inf
    assert res.vector.shape == (1, v.size)


@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_both_engines_answer_an_input_no_chain_serves_alike(monkeypatch, engine):
    # the zero vector gives zero columns, converged in 0 iterations with
    # residual 0; an input with inf or NaN fails every column as NaN; neither
    # makes a matvec or builds a Newton table
    import xmhd.leja

    builds, calls = [], []
    monkeypatch.setattr(xmhd.leja, "_phi_divided_diffs", lambda *args, **kwargs: builds.append(1))

    def matvec(w):
        calls.append(None)
        return -w

    def action(v, tol=1e-8):
        return _act(engine, (0, 1, 4), matvec, v, 0.1, tol, 5.0, fractions=(0.5, 1.0, 1.0))

    zero = action(np.zeros(6))
    assert zero.converged and zero.iterations == 0 and zero.residual == 0.0
    assert np.array_equal(zero.vector, np.zeros((3, 6)))
    for bad in (np.nan, np.inf):
        v = np.ones(6)
        v[2] = bad
        res = action(v)
        assert not res.converged and res.iterations == 0 and res.residual == np.inf
        assert res.vector.shape == (3, 6) and np.isnan(res.vector).all()
    with pytest.raises(ValueError, match="tolerance must be positive"):
        action(np.zeros(6), tol=0.0)
    assert calls == [] and builds == []


@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_a_request_with_no_column_raises_before_any_matvec(engine):
    calls = []

    def matvec(w):
        calls.append(None)
        return -w

    with pytest.raises(ValueError, match="at least one output column"):
        _act(engine, 1, matvec, np.ones(4), 0.1, 1e-8, 5.0, fractions=())
    assert calls == []


@pytest.mark.parametrize("policy", [True, False], ids=["fp_policy", "no-policy"])
def test_a_krylov_basis_that_turns_nan_ends_the_chain_as_an_escape(policy):
    # a matvec that returns NaN (no arithmetic fault raised) leaves NaN in the
    # Hessenberg matrix; its exponential raises an ArithmeticError, which
    # _drive_columns turns into an escape, not a LinAlgError or a ValueError
    from contextlib import nullcontext

    from xmhd.integrators import fp_policy

    rng = np.random.default_rng(61)
    a = random_negative_spectrum(rng, 20, lo=-10.0)
    calls = []

    def matvec(w):
        calls.append(None)
        return np.full_like(w, np.nan) if len(calls) == 3 else a @ w

    with fp_policy() if policy else nullcontext():
        res = apply_phi_krylov((1, 3), matvec, rng.standard_normal(20), 0.5, 1e-12,
                               fractions=(0.5, 1.0))
    assert not res.converged
    assert res.iterations == 3 == len(calls)
    assert res.residual == np.inf


@pytest.mark.parametrize("engine", ["leja", "krylov"])
def test_the_stop_rule_ignores_the_scale_of_the_input(engine):
    # both estimates are relative to max(1, ||column||): s v takes the
    # iterations v takes, and returns s times its result to roundoff
    rng = np.random.default_rng(62)
    a = random_negative_spectrum(rng, 48)
    v = rng.standard_normal(48)

    def action(u):
        return _act(engine, 1, lambda w: a @ w, u, 1.0, 1e-10, 20.0)

    base = action(v)
    assert base.converged and np.linalg.norm(base.vector) > 1.0
    for scale in (1e2, 1e4, 1e6):
        res = action(scale * v)
        assert res.converged and res.iterations == base.iterations
        assert np.linalg.norm(res.vector - scale * base.vector) <= \
            1e-13 * np.linalg.norm(scale * base.vector)
