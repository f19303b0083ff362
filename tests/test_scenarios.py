import numpy as np
import pytest

from xmhd.mhd import BX, BY, BZ, EN, GAMMA, MX, MY, MZ, RHO, Boundary, mhd_rhs
from xmhd.scenarios import (KHI_B, KHI_P, KHI_RHO, Scenario, init_khi,
                            init_reconnection, initialize, khi_velocity_x,
                            make_scenario, recon_field)


def test_preset_cases_carry_paper_values():
    one = make_scenario("khi-I")
    assert (one.nx, one.ny, one.t_final) == (512, 512, 1.0)
    assert (one.params.mu, one.params.eta, one.params.kappa) == (0.25, 1e-2, 1e-4)
    two = make_scenario("khi-II")
    assert (two.nx, two.t_final) == (800, 0.3)
    three = make_scenario("khi-III")
    assert (three.nx, three.t_final) == (128, 2.0)
    assert (three.params.mu, three.params.eta, three.params.kappa) == (1e-4, 1e-4, 1e-4)
    four = make_scenario("khi-IV")
    assert (four.nx, four.t_final) == (256, 1.0)
    five = make_scenario("recon-V")
    assert (five.nx, five.t_final) == (256, 20.0)
    assert (five.params.mu, five.params.eta, five.params.kappa) == (5e-2, 5e-3, 4e-2)
    six = make_scenario("recon-VI")
    assert (six.nx, six.t_final) == (128, 100.0)
    assert six.params.bc_x is Boundary.PERIODIC
    assert six.params.bc_y is Boundary.REFLECTING
    assert (six.x_min, six.x_max, six.y_min, six.y_max) == (-12.8, 12.8, -6.4, 6.4)
    assert (one.x_min, one.x_max, one.y_min, one.y_max) == (-1.25, 1.25, -0.5, 0.5)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_scenario("khi-VII")


def test_initializers_refuse_the_other_problem():
    with pytest.raises(ValueError, match="not a KHI scenario"):
        init_khi(make_scenario("recon-VI", nx=8, ny=8))
    with pytest.raises(ValueError, match="not a reconnection scenario"):
        init_reconnection(make_scenario("khi-III", nx=8, ny=8))


def test_overrides():
    spec = make_scenario("khi-III", nx=64, ny=32, t_final=0.5, tol=1e-6)
    assert (spec.nx, spec.ny, spec.t_final, spec.tol) == (64, 32, 0.5, 1e-6)
    assert spec.params.eta == 1e-4  # untouched


def test_khi_uniform_fields():
    spec = make_scenario("khi-III", nx=32, ny=32)
    state = init_khi(spec)
    assert np.all(state.data[RHO] == KHI_RHO)
    assert np.all(state.data[BX] == KHI_B[0])
    assert np.all(state.data[BY] == KHI_B[1])
    assert np.all(state.data[BZ] == KHI_B[2])
    assert np.all(state.data[MY] == 0.0) and np.all(state.data[MZ] == 0.0)
    # recovered pressure equals the tabulated constant
    vx = state.data[MX] / state.data[RHO]
    pres = (GAMMA - 1) * (state.data[EN] - 0.5 * KHI_RHO * vx ** 2
                          - 0.5 * (KHI_B[0] ** 2 + KHI_B[2] ** 2))
    assert np.allclose(pres, KHI_P, atol=1e-12)


def test_khi_velocity_profile_is_pointwise_sample():
    spec = make_scenario("khi-III", nx=64, ny=64)
    state = init_khi(spec)
    x, y = spec.cell_centers()
    expect = khi_velocity_x(x, y)
    assert np.array_equal(state.data[MX] / state.data[RHO], expect)
    # the closed form at the exact origin gives v0*0 + 0.1*cos 0 + 0.1*sin 0
    assert khi_velocity_x(0.0, 0.0) == pytest.approx(0.1, abs=1e-15)


def test_khi_total_mass_is_domain_area():
    from xmhd.mhd import conserved_totals

    spec = make_scenario("khi-IV", nx=48, ny=48)
    totals = conserved_totals(init_khi(spec))
    assert totals["rho"] == pytest.approx(2.5 * 1.0, rel=1e-13)


def test_resolution_consistency_pointwise_sampling():
    spec_n = make_scenario("khi-III", nx=32, ny=32)
    spec_2n = make_scenario("khi-III", nx=64, ny=64)
    for spec in (spec_n, spec_2n):
        state = init_khi(spec)
        x, y = spec.cell_centers()
        assert np.array_equal(state.data[MX], KHI_RHO * khi_velocity_x(x, y))


def test_reconnection_values():
    spec = make_scenario("recon-VI", nx=64, ny=64)
    state = init_reconnection(spec)
    x, y = spec.cell_centers()
    bx, by = recon_field(x, y)
    assert np.array_equal(state.data[BX], bx)
    assert np.array_equal(state.data[BY], by)
    assert np.all(state.data[BZ] == 0.0)
    assert np.all(state.data[MX] == 0.0)
    rho = 1.2 - np.tanh(2 * y) ** 2
    assert np.array_equal(state.data[RHO], rho)
    # field vanishes identically at the origin; density/pressure maxima there
    bx0, by0 = recon_field(0.0, 0.0)
    assert bx0 == 0.0 and by0 == 0.0
    pres = (GAMMA - 1) * (state.data[EN] - 0.5 * (bx ** 2 + by ** 2))
    assert np.allclose(pres, 0.5 * rho, atol=1e-13)
    # the closed form at the sheet center: rho = 1.2, P = 0.6
    assert 1.2 - np.tanh(0.0) ** 2 == 1.2
    assert 0.5 * 1.2 == 0.6


def test_reconnection_near_equilibrium():
    spec = make_scenario("recon-VI", nx=64, ny=64)
    strong = init_reconnection(spec, psi0=0.1)
    weak = init_reconnection(spec, psi0=0.01)
    r_strong = np.linalg.norm(mhd_rhs(strong, spec.params))
    r_weak = np.linalg.norm(mhd_rhs(weak, spec.params))
    assert np.isfinite(r_strong)
    assert r_weak <= r_strong


def test_initialize_dispatch():
    spec = make_scenario("recon-V", nx=16, ny=16)
    state = initialize(spec)
    assert state.nx == 16
    bad = Scenario(problem="nope", case_id="x", nx=8, ny=8, t_final=1.0,
                   x_min=0, x_max=1, y_min=0, y_max=1, params=spec.params)
    with pytest.raises(ValueError):
        initialize(bad)
