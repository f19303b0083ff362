import csv
from dataclasses import replace

import numpy as np
import pytest

from xmhd.controllers import ControllerMode
from xmhd.harness import (CSV_COLUMNS, RunConfig, divb_series, make_reference,
                          run, work_precision)
from xmhd.integrators import Scheme, error_norm
from xmhd.mhd import read_checkpoint
from xmhd.scenarios import initialize, make_scenario


def small_khi(t_final=0.1, tol=1e-4, **kw):
    spec = make_scenario("khi-III", nx=24, ny=24, t_final=t_final, tol=tol)
    return RunConfig(scenario=spec, scheme=Scheme.EXPRB43, method="leja",
                     controller=ControllerMode.COMBINED, tol=tol, **kw)


def test_zero_horizon_returns_initial_state():
    cfg = small_khi(t_final=0.0)
    rep = run(cfg)
    assert rep.status == "ok"
    assert rep.accepted == 0
    initial = initialize(cfg.scenario)
    assert np.array_equal(rep.final_state.data, initial.data)


def test_determinism_bit_identical():
    cfg = small_khi()
    a = run(cfg)
    b = run(cfg)
    assert a.status == "ok"
    assert a.checksum == b.checksum
    assert a.rhs_evals == b.rhs_evals
    assert [s.dt for s in a.steps] == [s.dt for s in b.steps]


def test_step_clipping_sums_to_t_final():
    cfg = small_khi(t_final=0.07)
    rep = run(cfg)
    assert rep.status == "ok"
    accepted = [s.dt for s in rep.steps if s.accepted]
    assert sum(accepted) == pytest.approx(0.07, abs=1e-12)
    assert rep.t_reached == pytest.approx(0.07, abs=1e-12)
    for s in rep.steps:
        assert s.t <= 0.07 + 1e-12


def test_report_totals_match_step_records():
    cfg = small_khi()
    rep = run(cfg)
    assert rep.accepted + rep.rejected == len(rep.steps)
    assert rep.accepted == sum(1 for s in rep.steps if s.accepted)
    assert rep.phi_iterations == sum(s.phi_iterations for s in rep.steps if s.accepted)


def test_combined_controller_never_exceeds_traditional():
    from xmhd.controllers import ControllerConstants, traditional_next

    cfg = small_khi(t_final=0.2)
    rep = run(cfg)
    consts = ControllerConstants()
    p = cfg.scheme.embedded_order
    accepted = [s for s in rep.steps if s.accepted]
    for prev, nxt in zip(accepted[:-1], accepted[1:]):
        bound = traditional_next(prev.dt, prev.error, cfg.tol, p, consts)
        assert nxt.dt <= bound * (1.0 + 1e-12)


# golden final checksums and (accepted, rejected, rhs_evals, phi_iters) per
# controller mode: any change to the controller policy, the attempt loop or
# the step arithmetic shows here; RK43 rejects steps under every mode
@pytest.mark.parametrize("mode,scheme,checksum,counts", [
    (ControllerMode.TRADITIONAL, Scheme.EXPRB43,
     "7e7abc31a26e06be98c2d47d3ba022cd65ec63c2aa5a330d88a9fc59a89e2ef6", (12, 0, 823, 760)),
    (ControllerMode.COST, Scheme.EXPRB43,
     "66d2d12446257504fa22e970c8643c6a0c9ecee662b0ffb2368b70fb3b07ffda", (17, 0, 926, 838)),
    (ControllerMode.TRADITIONAL, Scheme.RK43,
     "a745d9d6b769afc083844cc49681af57373befaf4214f78b5042497493b9634e", (22, 3, 125, 0)),
    (ControllerMode.COST, Scheme.RK43,
     "e897ea107b81d4f907bcd22e244ef2ee9c7e9aff7026afe86859feab7b6e01dc", (28, 11, 195, 0)),
    (ControllerMode.COMBINED, Scheme.RK43,
     "c2a14c024cb5aa5c81882713a490601d04cb6d2a0091d2b02bad5299f6c5c7d9", (25, 2, 135, 0)),
])
def test_controller_mode_golden_run(mode, scheme, checksum, counts):
    rep = run(replace(small_khi(t_final=0.2), scheme=scheme, controller=mode))
    assert rep.status == "ok"
    assert rep.checksum == checksum
    assert (rep.accepted, rep.rejected, rep.rhs_evals, rep.phi_iterations) == counts
    assert all(type(s.accepted) is bool for s in rep.steps)
    # an accepted record counts its rejected attempts too, so these cover the run
    assert sum(s.rhs_calls for s in rep.steps if s.accepted) == rep.rhs_evals


def test_invariants_on_small_run():
    cfg = small_khi(t_final=0.2)
    rep = run(cfg)
    assert rep.status == "ok"
    # B is uniform initially, so max_divb is pure roundoff growth
    assert rep.max_divb <= 1e-9
    assert rep.mass_drift <= 1e-10


def test_make_reference_and_work_precision(tmp_path):
    cfg = small_khi(t_final=0.02)
    ref_path = tmp_path / "ref.chk"
    report = make_reference(cfg, ref_path)
    assert ref_path.exists()
    state, t = read_checkpoint(ref_path)
    assert t == pytest.approx(0.02, abs=1e-12)
    assert np.array_equal(state.data, report.final_state.data)

    csv_path = tmp_path / "wp.csv"
    rows = work_precision(cfg, [1e-3, 1e-5], [Scheme.EXPRB43], ["leja"],
                          ref_path, csv_path)
    assert len(rows) == 2
    with open(csv_path) as fh:
        parsed = list(csv.DictReader(fh))
    assert [tuple(r) for r in map(dict.keys, parsed)] == [tuple(CSV_COLUMNS)] * 2
    errs = [float(r["global_error"]) for r in parsed]
    tols = [float(r["tol"]) for r in parsed]
    assert tols == sorted(tols)
    assert all(r["status"] == "ok" for r in parsed)
    # at this tiny horizon both runs live in the start-up ramp; errors are
    # far below tolerance, so only the fidelity bound is meaningful here
    assert all(e <= 10 * t for e, t in zip(errs, tols))


def test_work_precision_requires_reference(tmp_path):
    cfg = small_khi()
    with pytest.raises(FileNotFoundError):
        work_precision(cfg, [1e-4], [Scheme.EXPRB43], ["leja"],
                       tmp_path / "missing.chk", tmp_path / "out.csv")


def test_work_precision_empty_tolerances(tmp_path):
    cfg = small_khi(t_final=0.02)
    ref_path = tmp_path / "ref.chk"
    make_reference(cfg, ref_path)
    csv_path = tmp_path / "empty.csv"
    rows = work_precision(cfg, [], [Scheme.EXPRB43], ["leja"], ref_path, csv_path)
    assert rows == []
    content = csv_path.read_text().strip().splitlines()
    assert len(content) == 1  # header only
    assert content[0] == ",".join(CSV_COLUMNS)


def test_work_precision_records_failures_as_data(tmp_path):
    # an impossible step budget forces a failed cell without crashing the sweep
    cfg = small_khi(t_final=0.1, max_steps=2)
    ref = tmp_path / "ref.chk"
    make_reference(small_khi(t_final=0.001), ref)
    rows = work_precision(cfg, [1e-4], [Scheme.EXPRB43], ["leja"], ref,
                          tmp_path / "wp.csv")
    assert rows[0]["status"] == "failed"
    assert np.isnan(float(rows[0]["global_error"]))


def test_work_precision_records_exception_type_and_message(tmp_path, monkeypatch):
    import xmhd.harness
    ref = tmp_path / "ref.chk"
    make_reference(small_khi(t_final=0.001), ref)

    def broken(config):
        raise RuntimeError("solver exploded")

    statuses = []
    original_row = xmhd.harness._row

    def recording_row(config, report, global_error):
        statuses.append(report.status)
        return original_row(config, report, global_error)

    monkeypatch.setattr(xmhd.harness, "run", broken)
    monkeypatch.setattr(xmhd.harness, "_row", recording_row)
    rows = work_precision(small_khi(), [1e-4], [Scheme.EXPRB43], ["leja"], ref,
                          tmp_path / "wp.csv")
    assert statuses == ["failed: RuntimeError: solver exploded"]
    assert rows[0]["status"] == "failed"
    with open(tmp_path / "wp.csv") as fh:
        assert next(csv.DictReader(fh))["status"] == "failed"


def test_explicit_scheme_spends_only_stage_evaluations():
    # no frozen linearization or spectral estimate for DOPRI54: seven rhs
    # evaluations per attempt and nothing else
    rep = run(replace(small_khi(t_final=0.02), scheme=Scheme.DOPRI54))
    assert rep.status == "ok" and rep.accepted > 0
    assert rep.spectrum_rhs_evals == 0
    assert rep.rhs_evals == 7 * (rep.accepted + rep.rejected)


@pytest.mark.parametrize("scheme", [Scheme.ROS_EULER])
def test_run_refuses_schemes_without_error_estimate(scheme):
    with pytest.raises(ValueError, match="no embedded error estimate"):
        run(replace(small_khi(), scheme=scheme))


def test_divb_series_sampling(tmp_path):
    cfg = small_khi(t_final=0.1)
    series, report = divb_series(cfg, 0.02, tmp_path / "divb.csv")
    assert report.status == "ok"
    assert len(series) == int(np.floor(0.1 / 0.02)) + 1
    assert series[0][0] == 0.0
    initial = initialize(cfg.scenario)
    from xmhd.mhd import discrete_div_b
    db0 = float(np.max(np.abs(discrete_div_b(initial, cfg.scenario.params))))
    assert series[0][1] == db0
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_abort_on_unresolvable_state(tmp_path):
    # a state driven far outside resolution at an enormous tolerance with a
    # tiny step budget must fail cleanly, not raise, and emit a checkpoint
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=5.0)
    cfg = RunConfig(scenario=spec, tol=1e-6, max_steps=3, output_dir=tmp_path)
    rep = run(cfg)
    assert rep.status.startswith("failed")
    assert rep.final_state is not None
    assert (tmp_path / "abort.chk").exists()


def test_csv_determinism(tmp_path):
    cfg = small_khi(t_final=0.02)
    ref = tmp_path / "ref.chk"
    make_reference(cfg, ref)
    rows_a = work_precision(cfg, [1e-3, 1e-4], [Scheme.EXPRB43], ["leja"],
                            ref, tmp_path / "a.csv")
    rows_b = work_precision(cfg, [1e-3, 1e-4], [Scheme.EXPRB43], ["leja"],
                            ref, tmp_path / "b.csv")
    # identical except the timestamp column and the (informational) wall clock
    volatile = {"timestamp", "wall_seconds"}
    for ra, rb in zip(rows_a, rows_b):
        assert {k: v for k, v in ra.items() if k not in volatile} \
            == {k: v for k, v in rb.items() if k not in volatile}


def test_checkpoint_emission(tmp_path):
    cfg = small_khi(t_final=0.05, output_dir=tmp_path, checkpoint_every=0.02)
    rep = run(cfg)
    assert rep.status == "ok"
    files = sorted(tmp_path.glob("state_t*.chk"))
    assert len(files) >= 2
    state, t = read_checkpoint(files[0])
    assert state.nx == cfg.scenario.nx


def test_global_error_definition_matches_error_norm(tmp_path):
    cfg = small_khi(t_final=0.02)
    ref_path = tmp_path / "ref.chk"
    make_reference(cfg, ref_path)
    rows = work_precision(cfg, [1e-3], [Scheme.EXPRB43], ["leja"], ref_path,
                          tmp_path / "wp.csv")
    rep = run(RunConfig(scenario=cfg.scenario, tol=1e-3))
    ref_state, _ = read_checkpoint(ref_path)
    expect = error_norm(rep.final_state.flat(), ref_state.flat())
    assert float(rows[0]["global_error"]) == pytest.approx(expect, rel=1e-12)
