import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xmhd.mhd import (BX, BY, BZ, EN, MX, MY, MZ, NVAR, RHO, Boundary,
                      MHDParams, RhsBlowupError, RhsWorkspace, StateGrid, _pad,
                      conserved_totals, discrete_div_b, mhd_rhs,
                      read_checkpoint, write_checkpoint)


def uniform_state(nx=16, ny=12, dx=0.1, dy=0.15):
    g = StateGrid.zeros(nx, ny, dx, dy)
    g.data[RHO] = 1.3
    g.data[MX], g.data[MY], g.data[MZ] = 0.4, -0.2, 0.7
    g.data[BX], g.data[BY], g.data[BZ] = 0.5, -0.3, 2.0
    g.data[EN] = 5.0
    return g


def random_state(rng, nx=16, ny=16, dx=0.1, dy=0.1):
    g = StateGrid.zeros(nx, ny, dx, dy)
    g.data[:] = 0.1 * rng.standard_normal((NVAR, ny, nx))
    g.data[RHO] = 1.0 + 0.1 * rng.standard_normal((ny, nx))
    g.data[EN] = 6.0 + 0.1 * rng.standard_normal((ny, nx))
    return g


def test_uniform_state_has_zero_rhs():
    params = MHDParams(mu=0.1, eta=0.05, kappa=0.2)
    out = mhd_rhs(uniform_state(), params)
    assert np.abs(out).max() <= 1e-13


def test_pressure_gradient_matches_stencil_oracle():
    nx, ny = 32, 8
    lx = 2.5
    dx, dy = lx / nx, 1.0 / ny
    x = -1.25 + (np.arange(nx) + 0.5) * dx
    g = StateGrid.zeros(nx, ny, dx, dy)
    g.data[RHO] = 1.0
    pres = 1.0 + 0.1 * np.sin(2 * np.pi * np.tile(x, (ny, 1)) / lx)
    g.data[EN] = pres / (5.0 / 3.0 - 1.0)
    out = mhd_rhs(g, MHDParams(mu=0.0, eta=0.0, kappa=0.0)).reshape(NVAR, ny, nx)
    padded = np.concatenate([pres[:, -1:], pres, pres[:, :1]], axis=1)
    oracle = -(padded[:, 2:] - padded[:, :-2]) / (2 * dx)
    assert np.abs(out[MX] - oracle).max() <= 1e-13
    for idx in (RHO, MY, MZ, BX, BY, BZ):
        assert np.abs(out[idx]).max() <= 1e-13


def test_ideal_induction_vanishes_at_rest():
    from xmhd.scenarios import init_reconnection, make_scenario

    spec = make_scenario("recon-VI", nx=48, ny=48)
    state = init_reconnection(spec)
    params = MHDParams(mu=0.0, eta=0.0, kappa=0.0,
                       bc_x=spec.params.bc_x, bc_y=spec.params.bc_y)
    out = mhd_rhs(state, params).reshape(NVAR, 48, 48)
    for idx in (BX, BY, BZ):
        assert np.abs(out[idx]).max() <= 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    g = random_state(rng)
    params = MHDParams(mu=0.03, eta=0.02, kappa=0.1)
    base = mhd_rhs(g, params).reshape(NVAR, 16, 16)
    rolled = StateGrid(16, 16, 0.1, 0.1, np.roll(g.data, 1, axis=2))
    out = mhd_rhs(rolled, params).reshape(NVAR, 16, 16)
    assert np.array_equal(np.roll(base, 1, axis=2), out)


def test_rhs_signals_nonfinite_cells():
    g = uniform_state()
    g.data[RHO, 4, 5] = 0.0  # division blows up the velocity
    # the message names the first non-finite cell and counts them all
    with pytest.raises(RhsBlowupError,
                       match=r"^non-finite rhs in field \w+ at cell \(i=\d+, j=\d+\); "
                             r"\d+ cells affected$"):
        mhd_rhs(g, MHDParams(mu=0.0, eta=0.0, kappa=0.0))


def test_discrete_div_b_linear_field():
    g = StateGrid.zeros(16, 16, 0.1, 0.1)
    x = (np.arange(16) + 0.5) * 0.1
    xx, yy = np.meshgrid(x, x)
    g.data[BX] = xx
    g.data[BY] = -yy
    div = discrete_div_b(g, MHDParams(mu=0, eta=0, kappa=0))
    # centered differences are exact on linear fields away from the wrap
    assert np.abs(div[2:-2, 2:-2]).max() <= 1e-13


def test_discrete_div_b_uniform_field():
    g = uniform_state()
    div = discrete_div_b(g, MHDParams(mu=0, eta=0, kappa=0))
    assert np.abs(div).max() == 0.0


def test_discrete_div_b_reconnection_truncation():
    from xmhd.scenarios import init_reconnection, make_scenario

    spec = make_scenario("recon-VI", nx=64, ny=64)
    state = init_reconnection(spec)
    div = discrete_div_b(state, spec.params)
    bnorm = np.linalg.norm(np.stack([state.data[BX], state.data[BY]]))
    assert np.abs(div).max() <= 1e-3 * bnorm


@pytest.mark.parametrize("bc_x", list(Boundary))
@pytest.mark.parametrize("bc_y", list(Boundary))
def test_discrete_div_b_equals_the_stencil_on_the_full_pad(bc_x, bc_y):
    # the divergence is the centered stencil on _pad's one ghost layer, the
    # same ghost cells the rhs reads, bit for bit
    g = random_state(np.random.default_rng(47), nx=12, ny=10, dy=0.15)
    params = MHDParams(mu=0, eta=0, kappa=0, bc_x=bc_x, bc_y=bc_y)
    p = _pad(g.data, 1, params)
    bx, by = p[BX], p[BY]
    expect = ((bx[1:-1, 2:] - bx[1:-1, :-2]) / (2.0 * g.dx)
              + (by[2:, 1:-1] - by[:-2, 1:-1]) / (2.0 * g.dy))
    assert np.array_equal(discrete_div_b(g, params), expect)


def test_rhs_preserves_discrete_div_b_identity():
    # d/dt of the centered divergence is zero for the induction rhs itself
    rng = np.random.default_rng(17)
    params = MHDParams(mu=0.02, eta=0.04, kappa=0.05)
    g = random_state(rng)
    out = mhd_rhs(g, params).reshape(NVAR, 16, 16)
    gdot = StateGrid(16, 16, 0.1, 0.1, np.zeros((NVAR, 16, 16)))
    gdot.data[BX] = out[BX]
    gdot.data[BY] = out[BY]
    div_rate = discrete_div_b(gdot, params)
    scale = max(np.abs(out[BX]).max(), np.abs(out[BY]).max()) / 0.1
    assert np.abs(div_rate).max() <= 1e-12 * max(1.0, scale)


IDEAL = (0.0, 0.0, 0.0)
RESISTIVE = (0.01, 0.02, 0.5)


@pytest.mark.parametrize("bc_x", list(Boundary))
@pytest.mark.parametrize("bc_y", list(Boundary))
def test_workspace_reuse_is_stateless(bc_x, bc_y):
    # A, B, A through one workspace: the second A must not see B's ghost
    # cells or scratch, and the first result must not alias the workspace
    params = MHDParams(*RESISTIVE, bc_x=bc_x, bc_y=bc_y)
    a = random_state(np.random.default_rng(41), nx=12, ny=10, dy=0.15)
    b = random_state(np.random.default_rng(43), nx=12, ny=10, dy=0.15)
    b.data *= 3.0
    ideal = MHDParams(*IDEAL, bc_x=bc_x, bc_y=bc_y)
    expect = mhd_rhs(a, params)
    work = RhsWorkspace(12, 10)
    first = mhd_rhs(a, params, work)
    assert mhd_rhs(b, params, work).tobytes() == mhd_rhs(b, params).tobytes()
    assert mhd_rhs(b, ideal, work).tobytes() == mhd_rhs(b, ideal).tobytes()
    again = mhd_rhs(a, params, work)
    assert first.tobytes() == expect.tobytes()
    assert again.tobytes() == expect.tobytes()


def test_workspace_for_another_grid_is_refused():
    g = random_state(np.random.default_rng(47), nx=12, ny=10)
    params = MHDParams(*IDEAL)
    with pytest.raises(ValueError, match="10x12"):
        mhd_rhs(g, params, RhsWorkspace(10, 12))
    mhd_rhs(g, params, RhsWorkspace(12, 10))


# sha256 of the rhs bytes.  The oracle test above bounds the rhs to 1e-13 of
# the formulas; these pin its last bits, which adaptive runs follow.  The rhs
# uses only correctly rounded + - * /, so they hold on any IEEE-754
# platform, and a change of operation order (a reassociation, a reciprocal
# in place of a division) breaks them.
RHS_SHA256 = {
    ("periodic", IDEAL): "776f3d0d377d6dac653c34c4051eec249b984704444ccd0f0ef0ca874b19a99c",
    ("periodic", RESISTIVE): "aa3556e37474b78a635685e0572c311b5f6167c4660c5331d458d92265fbeeed",
    ("reflecting", IDEAL): "384c9e5072553905c247ff04c003f8c7829934433f692008da5633dbe69c8b1f",
    ("reflecting", RESISTIVE): "7aa047b6db629933952cd22e88b142ffafe2fc6540f1fbf5c01026e46bb42b29",
}


@pytest.mark.parametrize("bc,coeffs", list(RHS_SHA256))
def test_rhs_golden_hash(bc, coeffs):
    bc = Boundary(bc)
    g = random_state(np.random.default_rng(7), nx=12, ny=10, dx=0.1, dy=0.15)
    out = mhd_rhs(g, MHDParams(*coeffs, bc_x=bc, bc_y=bc))
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == RHS_SHA256[(bc.value, coeffs)]


rhs_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "nx": st.integers(4, 20),
    "ny": st.integers(4, 20),
    "dx": st.floats(0.01, 1.0),
    "dy": st.floats(0.01, 1.0),
    "bc_x": st.sampled_from(list(Boundary)),
    "bc_y": st.sampled_from(list(Boundary)),
    "coeffs": st.tuples(*[st.sampled_from([0.0, 1e-3, 0.05]) for _ in range(3)]),
})


def _random_case(case):
    g = random_state(np.random.default_rng(case["seed"]), case["nx"], case["ny"],
                     case["dx"], case["dy"])
    params = MHDParams(*case["coeffs"], bc_x=case["bc_x"], bc_y=case["bc_y"])
    return g, params, mhd_rhs(g, params).reshape(NVAR, case["ny"], case["nx"])


def _oracle_rhs(g, params):
    """The formulas of the mhd_rhs docstring, written plainly: np.pad ghosts
    with the reflecting parities, a fresh temporary per operation, and
    divisions as written.  A derivative is NaN on the outer ring it cannot
    reach, so the interior is NaN if a flux reads a cell it should not."""
    gamma = 5.0 / 3.0
    mu, eta, kap = params.mu, params.eta, params.kappa
    u = g.data
    for axis, bc, odd in ((2, params.bc_x, (MX, BX)), (1, params.bc_y, (MY, BY))):
        width = [(0, 0)] * 3
        width[axis] = (2, 2)
        if bc is Boundary.PERIODIC:
            u = np.pad(u, width, mode="wrap")
        else:
            u = np.pad(u, width, mode="symmetric")
            signs = np.ones(u.shape[axis])
            signs[:2] = signs[-2:] = -1.0
            for k in odd:
                u[k] = u[k] * (signs[None, :] if axis == 2 else signs[:, None])

    def ddx(a):
        out = np.full_like(a, np.nan)
        out[1:-1, 1:-1] = (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * g.dx)
        return out

    def ddy(a):
        out = np.full_like(a, np.nan)
        out[1:-1, 1:-1] = (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * g.dy)
        return out

    rho, en = u[RHO], u[EN]
    v = [u[MX] / rho, u[MY] / rho, u[MZ] / rho]
    b = [u[BX], u[BY], u[BZ]]
    b2 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    pres = (en - rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) / 2 - b2 / 2) * (gamma - 1)
    ptot = pres + b2 / 2
    bdotv = b[0] * v[0] + b[1] * v[1] + b[2] * v[2]
    grad = (ddx, ddy)
    divv = ddx(v[0]) + ddy(v[1])
    # tau[d][k] = d_d v_k + d_k v_d - (2/3) div v delta_dk
    tau = [[grad[d](v[k]) + grad[k](v[d]) - (2.0 / 3.0 * divv if d == k else 0.0)
            for k in range(2)] + [grad[d](v[2])] for d in range(2)]
    cond = mu * kap * gamma / (gamma - 1)
    temp = pres / rho

    rate = 0.0
    for d in range(2):
        flux = [rho * v[d]]
        for k in range(3):
            flux.append(rho * v[d] * v[k] + (ptot if k == d else 0.0) - b[k] * b[d]
                        - mu * tau[d][k])
        for k in range(3):
            # (v (x) B - B (x) v)_dk - eta (d_d b_k - d_k b_d), and d_z is 0
            d_k_bd = grad[k](b[d]) if k < 2 else 0.0
            flux.append(v[d] * b[k] - b[d] * v[k] - eta * (grad[d](b[k]) - d_k_bd))
        b_grad_bd = b[0] * ddx(b[d]) + b[1] * ddy(b[d])
        heat = (mu * (tau[d][0] * v[0] + tau[d][1] * v[1] + tau[d][2] * v[2])
                + cond * grad[d](temp) + eta * (grad[d](b2) / 2 - b_grad_bd))
        flux.append((en + ptot) * v[d] - b[d] * bdotv - heat)
        rate = rate - np.stack([grad[d](f) for f in flux])
    return rate[:, 2:-2, 2:-2]


@settings(max_examples=60, deadline=None)
@given(rhs_cases)
def test_rhs_matches_an_independent_oracle(case):
    g, params, out = _random_case(case)
    ref = _oracle_rhs(g, params)
    assert np.all(np.isfinite(ref))
    for k in range(NVAR):
        assert np.abs(out[k] - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max(), k


@settings(max_examples=60, deadline=None)
@given(rhs_cases)
def test_rhs_induction_rows_keep_div_b(case):
    g, params, out = _random_case(case)
    rate = StateGrid.zeros(g.nx, g.ny, g.dx, g.dy)
    rate.data[BX], rate.data[BY] = out[BX], out[BY]
    div_rate = discrete_div_b(rate, params)
    scale = max(np.abs(out[BX]).max(), np.abs(out[BY]).max()) / min(g.dx, g.dy)
    assert np.abs(div_rate).max() <= 1e-13 * max(1.0, scale)


@settings(max_examples=60, deadline=None)
@given(rhs_cases)
def test_rhs_total_mass_flux_vanishes(case):
    _, _, out = _random_case(case)
    assert abs(out[RHO].sum()) <= 1e-13 * max(1.0, np.abs(out[RHO]).sum())


def test_conserved_totals():
    g = StateGrid.zeros(10, 10, 0.2, 0.2)
    g.data[RHO] = 1.0
    totals = conserved_totals(g)
    assert totals["rho"] == pytest.approx(4.0, rel=1e-14)
    rng = np.random.default_rng(23)
    g = random_state(rng, 10, 10, 0.2, 0.2)
    totals = conserved_totals(g)
    for idx, name in enumerate(("rho", "mx", "my", "mz", "bx", "by", "bz", "en")):
        oracle = float(sum(g.data[idx].ravel())) * 0.04
        assert totals[name] == pytest.approx(oracle, rel=1e-13, abs=1e-15)
    doubled = StateGrid(10, 10, 0.2, 0.2, 2.0 * g.data)
    for name, val in conserved_totals(doubled).items():
        assert val == pytest.approx(2.0 * totals[name], rel=1e-13, abs=1e-15)


def test_pad_periodic():
    rng = np.random.default_rng(29)
    g = random_state(rng, nx=4, ny=4)
    padded = _pad(g.data, 1, MHDParams(mu=0, eta=0, kappa=0))
    assert padded.shape == (NVAR, 6, 6)
    assert np.array_equal(padded[:, 1:-1, 0], g.data[:, :, -1])
    assert np.array_equal(padded[:, 1:-1, -1], g.data[:, :, 0])
    assert np.array_equal(padded[:, 0, 1:-1], g.data[:, -1, :])


def test_pad_reflecting_parities():
    rng = np.random.default_rng(31)
    g = random_state(rng, nx=4, ny=4)
    params = MHDParams(mu=0, eta=0, kappa=0,
                       bc_x=Boundary.PERIODIC, bc_y=Boundary.REFLECTING)
    padded = _pad(g.data, 1, params)
    inner = g.data
    # wall-normal momentum and field are odd, everything else even
    assert np.array_equal(padded[MY, 0, 1:-1], -inner[MY, 0, :])
    assert np.array_equal(padded[BY, 0, 1:-1], -inner[BY, 0, :])
    assert np.array_equal(padded[RHO, 0, 1:-1], inner[RHO, 0, :])
    assert np.array_equal(padded[MX, 0, 1:-1], inner[MX, 0, :])
    assert np.array_equal(padded[BX, -1, 1:-1], inner[BX, -1, :])
    assert np.array_equal(padded[EN, -1, 1:-1], inner[EN, -1, :])
    assert np.array_equal(padded[MY, -1, 1:-1], -inner[MY, -1, :])


def test_rhs_consistency_order_two():
    # manufactured smooth fields; continuum rhs from a symbolic oracle
    import sympy as sp

    x, y = sp.symbols("x y")
    gamma = sp.Rational(5, 3)
    mu, eta, kap = sp.Rational(3, 100), sp.Rational(2, 100), sp.Rational(1, 10)
    tp = 2 * sp.pi
    rho = 1 + sp.Rational(1, 5) * sp.sin(tp * x) * sp.cos(tp * y)
    vx = sp.Rational(1, 5) * sp.sin(tp * y) + sp.Rational(1, 10) * sp.cos(tp * x)
    vy = sp.Rational(1, 5) * sp.cos(tp * x) * sp.sin(tp * y)
    vz = sp.Rational(1, 10) * sp.sin(tp * x + tp * y)
    bx = sp.Rational(1, 2) + sp.Rational(1, 5) * sp.cos(tp * y)
    by = sp.Rational(1, 5) * sp.sin(tp * x)
    bz = 1 + sp.Rational(1, 10) * sp.cos(tp * x) * sp.cos(tp * y)
    pres = 1 + sp.Rational(1, 5) * sp.cos(tp * x) * sp.sin(tp * y)

    b2 = bx ** 2 + by ** 2 + bz ** 2
    en = pres / (gamma - 1) + rho * (vx ** 2 + vy ** 2 + vz ** 2) / 2 + b2 / 2
    ptot = pres + b2 / 2
    bdotv = bx * vx + by * vy + bz * vz
    ddx = lambda f: sp.diff(f, x)
    ddy = lambda f: sp.diff(f, y)
    divv = ddx(vx) + ddy(vy)
    tau_xx = 2 * ddx(vx) - sp.Rational(2, 3) * divv
    tau_yy = 2 * ddy(vy) - sp.Rational(2, 3) * divv
    tau_xy = ddy(vx) + ddx(vy)
    tau_xz = ddx(vz)
    tau_yz = ddy(vz)
    curlz = ddx(by) - ddy(bx)
    cond = mu * kap * gamma / (gamma - 1)
    emf = vy * bx - by * vx

    exact = [
        -(ddx(rho * vx) + ddy(rho * vy)),
        -(ddx(rho * vx * vx + ptot - bx * bx) + ddy(rho * vy * vx - by * bx))
        + mu * (ddx(tau_xx) + ddy(tau_xy)),
        -(ddx(rho * vx * vy - bx * by) + ddy(rho * vy * vy + ptot - by * by))
        + mu * (ddx(tau_xy) + ddy(tau_yy)),
        -(ddx(rho * vx * vz - bx * bz) + ddy(rho * vy * vz - by * bz))
        + mu * (ddx(tau_xz) + ddy(tau_yz)),
        -ddy(emf) - eta * ddy(curlz),
        ddx(emf) + eta * ddx(curlz),
        -(ddx(vx * bz - bx * vz) + ddy(vy * bz - by * vz))
        + eta * (ddx(ddx(bz)) + ddy(ddy(bz))),
        -(ddx((en + ptot) * vx - bx * bdotv) + ddy((en + ptot) * vy - by * bdotv))
        + ddx(mu * (tau_xx * vx + tau_xy * vy + tau_xz * vz) + cond * ddx(pres / rho)
              + eta * (ddx(b2) / 2 - (bx * ddx(bx) + by * ddy(bx))))
        + ddy(mu * (tau_xy * vx + tau_yy * vy + tau_yz * vz) + cond * ddy(pres / rho)
              + eta * (ddy(b2) / 2 - (bx * ddx(by) + by * ddy(by)))),
    ]
    fields = [rho, rho * vx, rho * vy, rho * vz, bx, by, bz, en]
    f_np = [sp.lambdify((x, y), f, "numpy") for f in fields]
    r_np = [sp.lambdify((x, y), r, "numpy") for r in exact]

    params = MHDParams(mu=float(mu), eta=float(eta), kappa=float(kap))
    errs = []
    for n in (16, 32, 64):
        d = 1.0 / n
        xc = (np.arange(n) + 0.5) * d
        xx, yy = np.meshgrid(xc, xc)
        g = StateGrid.zeros(n, n, d, d)
        for idx, f in enumerate(f_np):
            g.data[idx] = np.broadcast_to(f(xx, yy), (n, n))
        num = mhd_rhs(g, params).reshape(NVAR, n, n)
        ref = np.stack([np.broadcast_to(r(xx, yy), (n, n)) for r in r_np])
        errs.append(np.abs(num - ref).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8), (errs, orders)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    g = random_state(rng, nx=12, ny=7, dx=0.05, dy=0.08)
    path = tmp_path / "state.chk"
    write_checkpoint(path, g, 1.25)
    loaded, t = read_checkpoint(path)
    assert t == 1.25
    assert loaded.nx == 12 and loaded.ny == 7
    assert loaded.dx == 0.05 and loaded.dy == 0.08
    assert np.array_equal(loaded.data, g.data)
    # header layout: magic, version, dims
    raw = path.read_bytes()
    assert raw[:4] == b"XMHD"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 12
    assert int.from_bytes(raw[12:16], "little") == 7
    assert int.from_bytes(raw[16:20], "little") == 8


def test_checkpoint_writer_creates_its_directory(tmp_path):
    g = uniform_state()
    path = tmp_path / "a" / "b" / "state.chk"
    write_checkpoint(path, g, 0.5)
    assert np.array_equal(read_checkpoint(path)[0].data, g.data)


@pytest.mark.parametrize("offset,value,message", [
    (4, 2, "unsupported checkpoint version 2"),
    (16, NVAR - 1, f"expected {NVAR} fields, file has {NVAR - 1}"),
], ids=["version", "nvar"])
def test_checkpoint_rejects_wrong_header_field(tmp_path, offset, value, message):
    path = tmp_path / "state.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=message):
        read_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("dx", 0.0), ("dx", -0.1), ("dx", math.nan), ("dy", math.inf), ("dy", -math.inf),
])
def test_checkpoint_rejects_grid_spacing_not_positive_and_finite(tmp_path, field, value):
    path = tmp_path / "state.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    raw = bytearray(path.read_bytes())
    offset = {"dx": 28, "dy": 36}[field]
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="grid spacing must be positive and finite"):
        read_checkpoint(path)


@pytest.mark.parametrize("field", ["nx", "ny"])
def test_checkpoint_rejects_an_empty_grid(tmp_path, field):
    # a header of zero cells on one axis and no payload would read back as an
    # empty state
    path = tmp_path / "empty.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    header = bytearray(path.read_bytes()[:44])
    offset = {"nx": 8, "ny": 12}[field]
    header[offset:offset + 4] = struct.pack("<I", 0)
    path.write_bytes(bytes(header))
    with pytest.raises(ValueError, match=rf"at least one cell per axis, .*\b{field} = 0\b"):
        read_checkpoint(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_checkpoint_rejects_time_not_finite(tmp_path, value):
    path = tmp_path / "state.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    raw = bytearray(path.read_bytes())
    raw[20:28] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"checkpoint time must be finite, got {value!r}"):
        read_checkpoint(path)


def test_checkpoint_rejects_bytes_after_the_payload(tmp_path):
    path = tmp_path / "long.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    path.write_bytes(path.read_bytes() + bytes(1))
    with pytest.raises(ValueError, match="bytes after its payload"):
        read_checkpoint(path)


def test_checkpoint_keeps_non_finite_fields(tmp_path):
    # abort.chk can hold a diverged state, so the reader passes it through
    g = uniform_state()
    g.data[0, 0, 0], g.data[1, 0, 0], g.data[2, 0, 0] = math.nan, math.inf, -math.inf
    path = tmp_path / "abort.chk"
    write_checkpoint(path, g, 0.5)
    loaded, t = read_checkpoint(path)
    assert t == 0.5 and loaded.data.tobytes() == g.data.tobytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.chk"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError):
        read_checkpoint(path)


def test_checkpoint_rejects_short_header(tmp_path):
    path = tmp_path / "short.chk"
    path.write_bytes(b"XMHD" + bytes(10))
    with pytest.raises(ValueError, match="expected 44 bytes, got 14"):
        read_checkpoint(path)


@pytest.mark.parametrize("cells", [2 ** 31 - 1, 2 ** 20], ids=["overflow", "memory"])
def test_checkpoint_rejects_a_header_larger_than_its_file_before_reading(tmp_path, cells):
    # the payload nx = ny = cells claims is checked against the bytes the
    # file holds before any is read; reading it raised OverflowError (2^31 - 1)
    # or MemoryError (2^20)
    path = tmp_path / "huge.chk"
    write_checkpoint(path, uniform_state(), 0.5)
    raw = bytearray(path.read_bytes())
    raw[8:16] = struct.pack("<II", cells, cells)
    path.write_bytes(bytes(raw))
    expected = NVAR * cells * cells * 8
    with pytest.raises(ValueError, match=f"expected {expected} bytes .* got {len(raw) - 44}"):
        read_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    g = random_state(np.random.default_rng(38), nx=6, ny=5, dx=0.1, dy=0.2)
    path = tmp_path / "cut.chk"
    write_checkpoint(path, g, 0.5)
    path.write_bytes(path.read_bytes()[:-8])
    expected = 8 * 5 * 6 * 8
    with pytest.raises(ValueError, match=f"expected {expected} bytes .* got {expected - 8}"):
        read_checkpoint(path)
