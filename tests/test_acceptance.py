"""Acceptance suite: one test per criterion, one printed PASS line each.

The expensive scenario runs live at desk scale (64^2 grids); the tolerance
of every assertion is stated inline.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from xmhd.controllers import (ControllerConstants, ControllerMode, cost_next,
                              traditional_next)
from xmhd.harness import RunConfig, make_reference, run, work_precision
from xmhd.integrators import Scheme, error_norm, step
from xmhd.krylov import apply_phi_krylov
from xmhd.leja import apply_phi_leja, leja_points, shift_and_scale
from xmhd.linearize import FrozenLinearization, RhsOperator, estimate_alpha
from xmhd.mhd import discrete_div_b, mhd_rhs, read_checkpoint
from xmhd.phi import divided_differences, phi_dense, phi_scalar
from xmhd.scenarios import initialize, make_scenario
from tests._problems import (observed_order, random_negative_spectrum,
                             rd_endpoint_error, riccati_l1_error, RD_T)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


@pytest.fixture(scope="module")
def khi64(tmp_path_factory):
    """Shared desk-scale KHI configuration and its tol=1e-11 reference."""
    spec = make_scenario("khi-III", nx=64, ny=64, t_final=0.5)
    cfg = RunConfig(scenario=spec, scheme=Scheme.EXPRB43, method="leja",
                    controller=ControllerMode.COMBINED, tol=1e-4)
    ref_path = tmp_path_factory.mktemp("reference") / "khi3-64.chk"
    make_reference(cfg, ref_path)
    return cfg, ref_path


def test_criterion_1_phi_oracle_equivalence():
    rng = np.random.default_rng(2024)
    tol = 1e-10
    worst = 0.0
    for trial in range(50):
        a = random_negative_spectrum(rng, 32)
        v = rng.standard_normal(32)
        l = trial % 5
        exact = phi_dense(l, a) @ v
        scale = np.linalg.norm(exact)
        res_l = apply_phi_leja(l, lambda w: a @ w, v, 1.0,
                               shift_and_scale(20.0 * 1.25), tol)
        res_k = apply_phi_krylov(l, lambda w: a @ w, v, 1.0, tol)
        assert res_l.converged and res_k.converged
        err_l = np.linalg.norm(res_l.vector - exact) / scale
        err_k = np.linalg.norm(res_k.vector - exact) / scale
        assert err_l <= 1e-8 and err_k <= 1e-8, (trial, l, err_l, err_k)
        worst = max(worst, err_l, err_k)
    report(1, f"Leja and Krylov match phi_dense to 1e-8 over 50 matrices, "
              f"l in 0..4 (worst {worst:.1e})")


def test_criterion_2_divided_difference_stability():
    nodes = np.asarray(leja_points(64))
    scaled = -5.0 + 2.5 * nodes            # engine-style transplant to [-10, 0]
    worst = 0.0
    for l in (0, 1, 3):
        for xs in (nodes, scaled):
            table = divided_differences(l, xs)
            exact = np.array([phi_scalar(l, z) for z in xs])
            vals = np.empty_like(exact)
            for j in range(xs.size):
                acc = table.coeffs[j]
                for k in range(j - 1, -1, -1):
                    acc = acc * (xs[j] - xs[k]) + table.coeffs[k]
                vals[j] = acc
            rel = np.max(np.abs(vals - exact) / np.abs(exact))
            assert rel <= 1e-9, (l, rel)
            worst = max(worst, rel)

    # negative control: the naive recursive difference table loses every
    # digit long before 64 nodes.  (Newton evaluation AT the nodes is an
    # algebraic round trip for any coefficient vector, so the failure is
    # demonstrated where it matters: the coefficients themselves, which the
    # engine's convergence control consumes term by term.)  The reference
    # recursion needs ~90 guard digits at 64 nodes, hence 2000-bit precision.
    import mpmath as mp

    mp.mp.prec = 2000
    xs = nodes
    naive = [phi_scalar(1, xs[0])]
    cur = [phi_scalar(1, z) for z in xs]
    for j in range(1, xs.size):
        cur = [(cur[i + 1] - cur[i]) / (xs[i + j] - xs[i])
               for i in range(len(cur) - 1)]
        naive.append(cur[0])

    def mp_phi1(z):
        z = mp.mpf(float(z))
        return (mp.e ** z - 1) / z if z != 0 else mp.mpf(1)

    oracle = [mp_phi1(xs[0])]
    mpcur = [mp_phi1(z) for z in xs]
    mpnodes = [mp.mpf(float(z)) for z in xs]
    for j in range(1, xs.size):
        mpcur = [(mpcur[i + 1] - mpcur[i]) / (mpnodes[i + j] - mpnodes[i])
                 for i in range(len(mpcur) - 1)]
        oracle.append(mpcur[0])

    stable_coeffs = divided_differences(1, xs).coeffs
    stable_rel = max(abs(float(c) - float(o)) / abs(float(o))
                     for c, o in zip(stable_coeffs, oracle))
    naive_rel = max(abs(float(c) - float(o)) / abs(float(o))
                    for c, o in zip(naive, oracle))
    assert stable_rel <= 1e-9
    assert naive_rel > 1e3, "naive table unexpectedly accurate"
    report(2, f"bidiagonal-route Newton evaluation reproduces phi to 1e-9 at 64 "
              f"nodes (worst {worst:.1e}); stable coefficients match a 256-bit "
              f"oracle to {stable_rel:.1e} while the naive table is off by "
              f"{naive_rel:.1e}")


def test_criterion_3_convergence_orders(rd_reference):
    nominal = {Scheme.ROS_EULER: 2, Scheme.EXPRB43: 4, Scheme.EXPRB54S4: 5,
               Scheme.EPIRK5P1: 5, Scheme.RK43: 4, Scheme.DOPRI54: 5}
    lines = []
    for scheme, p in nominal.items():
        ns = [2 ** k for k in range(1, 7)]
        errs = [riccati_l1_error(scheme, n) for n in ns]
        order = observed_order([0.5 / n for n in ns], errs, floor=1e-12)
        assert abs(order - p) <= 0.3, (scheme.value, order)
        lines.append(f"{scheme.value}:{order:.2f}")

    # reaction-diffusion, exponential schemes; coarsest rung dropped for the
    # fifth-order pairs (visibly pre-asymptotic), floor above the FD noise
    rd_setup = {Scheme.ROS_EULER: (range(1, 8), 1e-8, 2),
                Scheme.EXPRB43: (range(1, 6), 5e-9, 4),
                Scheme.EXPRB54S4: (range(2, 6), 5e-9, 5),
                Scheme.EPIRK5P1: (range(2, 6), 5e-9, 5)}
    for scheme, (ks, floor, p) in rd_setup.items():
        ns = [2 ** k for k in ks]
        errs = [rd_endpoint_error(scheme, n, rd_reference) for n in ns]
        order = observed_order([RD_T / n for n in ns], errs, floor=floor)
        assert abs(order - p) <= 0.3, (scheme.value, order, errs)
        lines.append(f"rd-{scheme.value}:{order:.2f}")

    # embedded-difference slope of EXPRB43 ~ dt^4
    dts = 0.5 / 2 ** np.arange(1, 6)
    diffs = []
    for dt in dts:
        op = RhsOperator(lambda v: v * v)
        res = step(Scheme.EXPRB43, op, np.array([1.0]), dt, alpha=4.0, tol=1e-13)
        diffs.append(res.error_estimate * np.linalg.norm(res.new_state))
    slope = observed_order(dts, diffs, floor=1e-14)
    assert abs(slope - 4.0) <= 0.4, slope
    lines.append(f"exprb43-embedded:{slope:.2f}")
    report(3, "observed orders within 0.3 of nominal (" + ", ".join(lines) + ")")


def test_criterion_4_stage_count_ledger():
    # on the real MHD right-hand side, per accepted harness step
    spec = make_scenario("khi-III", nx=32, ny=32, t_final=0.02)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.EXPRB43, tol=1e-4))
    assert rep.status == "ok" and rep.accepted > 0
    for rec in rep.steps:
        if rec.accepted:
            assert rec.phi_applications == 5

    # full tableau set on a small nonlinear system
    expected = {Scheme.EXPRB43: 5, Scheme.EPIRK5P1: 8, Scheme.EXPRB54S4: 10}
    for scheme, count in expected.items():
        op = RhsOperator(lambda u: u - 0.1 * u ** 2)
        res = step(scheme, op, np.array([0.5, 0.8, 1.1]), 0.05, alpha=2.0, tol=1e-10)
        assert res.converged
        assert res.phi_applications == count, (scheme.value, res.phi_applications)
    report(4, "phi-application counters read 5 (EXPRB43), 8 (EPIRK5P1), "
              "10 (EXPRB54s4) per step")


def test_criterion_5_controller_arithmetic():
    c = ControllerConstants()
    # worked example 1: flat cost, equal-cost history -> lambda growth
    out = cost_next(0.1, 0.05, 100.0, 100.0, c)
    assert abs(out - 0.1 * 1.37412002) <= 1e-12
    # worked example 2: cost doubling with dt doubling -> delta shrink
    out = cost_next(0.1, 0.05, 200.0, 100.0, c)
    assert abs(out - 0.1 * 0.64446017) <= 1e-12
    # worked example 3: saturated tanh -> raw factor exp(+alpha_c tanh(...))
    delta = (math.log(1e6) - math.log(1.0)) / (math.log(0.1) - math.log(0.2))
    s = math.exp(-0.65241444 * math.tanh(0.26862269 * delta))
    assert s >= 1.37412002
    out = cost_next(0.1, 0.2, 1e6, 1.0, c)
    assert abs(out - 0.1 * s) <= 1e-12

    # combined controller never exceeds the traditional proposal on a full
    # desk-scale run
    spec = make_scenario("khi-III", nx=48, ny=48, t_final=0.3)
    cfg = RunConfig(scenario=spec, tol=1e-4, controller=ControllerMode.COMBINED)
    rep = run(cfg)
    assert rep.status == "ok"
    accepted = [r for r in rep.steps if r.accepted]
    p = cfg.scheme.embedded_order
    for prev, nxt in zip(accepted[:-1], accepted[1:]):
        bound = traditional_next(prev.dt, prev.error, cfg.tol, p, c)
        assert nxt.dt <= bound * (1.0 + 1e-12)
    report(5, "cost-controller worked examples reproduced to 1e-12; combined "
              f"dt <= traditional dt on all {len(accepted)} accepted steps")


def test_criterion_6_solenoidal_preservation():
    growths = {}
    for tol in (1e-3, 1e-5):
        spec = make_scenario("recon-VI", nx=64, ny=64, t_final=5.0)
        cfg = RunConfig(scenario=spec, tol=tol)
        rep = run(cfg)
        assert rep.status == "ok"
        initial = initialize(spec)
        db0 = float(np.max(np.abs(discrete_div_b(initial, spec.params))))
        growth = rep.max_divb - db0
        assert growth <= 1e-9, (tol, growth)
        growths[tol] = growth
    # tolerance independence: both sit at the roundoff floor, within 10x of
    # each other once floored at 1e-10
    a = max(growths[1e-3], 1e-10)
    b = max(growths[1e-5], 1e-10)
    assert a / b <= 10.0 and b / a <= 10.0
    report(6, f"div B growth {growths[1e-3]:.2e} (tol 1e-3) and "
              f"{growths[1e-5]:.2e} (tol 1e-5), bound 1e-9, tolerance-independent")


def test_criterion_7_mass_conservation():
    spec = make_scenario("khi-III", nx=64, ny=64, t_final=0.5)
    rep = run(RunConfig(scenario=spec, tol=1e-4))
    assert rep.status == "ok"
    assert rep.mass_drift <= 1e-10
    report(7, f"relative total-mass drift {rep.mass_drift:.2e} <= 1e-10")


def test_criterion_8_spectrum_caching():
    spec = make_scenario("khi-III", nx=64, ny=64, t_final=0.5)
    tol = 1e-4
    reps = {}
    for interval in (1, 50):
        cfg = RunConfig(scenario=spec, tol=tol, spectrum_interval=interval)
        reps[interval] = run(cfg)
        assert reps[interval].status == "ok"
    diff = error_norm(reps[1].final_state.flat(), reps[50].final_state.flat())
    assert diff <= 10 * tol
    frac = reps[50].spectrum_rhs_evals / reps[50].rhs_evals
    assert frac < 0.05
    report(8, f"interval 1 vs 50 final states differ by {diff:.2e} "
              f"(<= {10*tol:.0e}); power-iteration share {100*frac:.2f}% < 5%")


@pytest.mark.slow
def test_criterion_9_tolerance_fidelity(khi64, tmp_path):
    cfg, ref_path = khi64
    tols = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
    rows = work_precision(cfg, tols, [Scheme.EXPRB43], ["leja"],
                          ref_path, tmp_path / "wp.csv")
    assert all(r["status"] == "ok" for r in rows)
    got = {float(r["tol"]): (float(r["global_error"]), int(r["rhs_evals"]))
           for r in rows}
    for tol in tols:
        err, _ = got[tol]
        assert err <= 10 * tol, (tol, err)
    # tols descending: error non-increasing up to a factor-2 noise band,
    # rhs_evals non-decreasing
    for loose, tight in zip(tols[:-1], tols[1:]):
        assert got[tight][0] <= 2.0 * got[loose][0], (loose, tight, got)
        assert got[tight][1] >= got[loose][1], (loose, tight, got)
    summary = ", ".join(f"{t:.0e}:{got[t][0]:.1e}" for t in tols)
    report(9, f"global error <= 10 tol per cell and monotone ({summary})")


def test_criterion_10_cross_engine_agreement():
    spec = make_scenario("khi-III", nx=64, ny=64)
    state = initialize(spec)
    u = state.flat().copy()
    tol = 1e-6
    dt = 0.005
    results = {}
    for method in ("leja", "krylov"):
        op = RhsOperator(lambda f: mhd_rhs(state.with_flat(f), spec.params))
        lin = FrozenLinearization(op, u)
        est = estimate_alpha(lin, None)
        res = step(Scheme.EXPRB43, op, u, dt, method=method, alpha=est,
                   tol=tol, lin=lin)
        assert res.converged
        results[method] = res.new_state
    diff = error_norm(results["leja"], results["krylov"])
    assert diff <= 10 * tol
    report(10, f"one 64^2 step: Leja and Krylov agree to {diff:.2e} <= {10*tol:.0e}")


def test_criterion_11_linear_exactness():
    rng = np.random.default_rng(77)
    a = random_negative_spectrum(rng, 100, lo=-10.0)
    u = rng.standard_normal(100)
    dt = 0.3
    op = RhsOperator(lambda v: a @ v)
    res = step(Scheme.EXPRB43, op, u, dt, method="leja", alpha=12.0, tol=1e-11)
    assert res.converged
    exact = phi_dense(0, dt * a) @ u
    err = error_norm(res.new_state, exact)
    assert err <= 1e-6
    report(11, f"EXPRB43 matches exp(A dt) u on a 100-dim linear system "
               f"({err:.2e} <= 1e-6, FD-Jacobian limited)")
