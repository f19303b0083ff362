import csv
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xmhd.controllers import ControllerMode
from xmhd.harness import CSV_COLUMNS, RunConfig, make_reference, run, work_precision, \
    write_csv
from xmhd.integrators import Scheme, error_norm
from xmhd.mhd import read_checkpoint
from xmhd.scenarios import initialize, make_scenario


def small_khi(t_final=0.1, tol=1e-4, **kw):
    spec = make_scenario("khi-III", nx=24, ny=24, t_final=t_final)
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


def test_spectrum_refresh_schedule_golden_run(monkeypatch):
    # run() refreshes alpha on the steps that start after 0, 3, 6, ... accepted
    # steps: 7 refreshes over 21 accepted steps, all but the first warm-started
    import xmhd.harness
    refreshes = []
    original = xmhd.harness.estimate_alpha

    def counted(lin, prev, rng):
        refreshes.append(prev is None)
        return original(lin, prev, rng=rng)

    monkeypatch.setattr(xmhd.harness, "estimate_alpha", counted)
    rep = run(small_khi(t_final=0.2, spectrum_interval=3))
    assert rep.status == "ok"
    assert rep.checksum == "aaa5003457f3f946f17a073e878f0b7517c78066b1738033f730f2a1f314ba35"
    assert (rep.accepted, rep.rejected, rep.rhs_evals, rep.phi_iterations,
            rep.spectrum_rhs_evals) == (21, 0, 794, 638, 51)
    assert refreshes == [True] + [False] * 6


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1e-4), ("tol", math.inf), ("tol", math.nan),
    ("spectrum_interval", 0), ("spectrum_interval", -3),
    ("max_steps", 0), ("wall_budget", 0.0), ("wall_budget", -1.0),
    ("wall_budget", math.nan), ("checkpoint_every", -1.0),
    ("checkpoint_every", math.inf), ("divb_every", -0.5), ("divb_every", math.nan),
    ("method", "lejaa"),
])
def test_run_config_refuses_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        RunConfig(scenario=None, **{field: value})


def test_combined_controller_never_exceeds_traditional():
    from xmhd.controllers import traditional_next

    cfg = small_khi(t_final=0.2)
    rep = run(cfg)
    p = cfg.scheme.embedded_order
    accepted = [s for s in rep.steps if s.accepted]
    for prev, nxt in zip(accepted[:-1], accepted[1:]):
        bound = traditional_next(prev.dt, prev.error, cfg.tol, p)
        assert nxt.dt <= bound * (1.0 + 1e-12)


# golden final checksums and (accepted, rejected, rhs_evals, phi_iters) per
# controller mode: any change to the controller policy, the attempt loop or
# the step arithmetic shows here; RK43 rejects steps under every mode
@pytest.mark.parametrize("mode,scheme,checksum,counts", [
    (ControllerMode.TRADITIONAL, Scheme.EXPRB43,
     "7e7abc31a26e06be98c2d47d3ba022cd65ec63c2aa5a330d88a9fc59a89e2ef6", (12, 0, 709, 646)),
    (ControllerMode.COST, Scheme.EXPRB43,
     "66d2d12446257504fa22e970c8643c6a0c9ecee662b0ffb2368b70fb3b07ffda", (17, 0, 787, 699)),
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


# signature of each benchmark workload at rng seed 0: checksum prefix,
# accepted, rejected, rhs_evals, phi_iterations, spectrum_rhs_evals, div B
# samples and checkpoint names; a refactor that claims no numerical change
# must leave every one as it is
_WORKLOAD_SIGNATURE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from perfbench.run import WORKLOADS, load_xmhd, make_config  # pins BLAS threads first
load_xmhd()
from xmhd.harness import run
with tempfile.TemporaryDirectory() as out:
    rep = run(make_config(WORKLOADS[sys.argv[2]], 0, Path(out)))
    names = sorted(p.name for p in Path(out).glob("state_t*.chk"))
print(json.dumps([rep.status, rep.checksum[:12], rep.accepted, rep.rejected, rep.rhs_evals,
                  rep.phi_iterations, rep.spectrum_rhs_evals, len(rep.divb_series), names]))
"""


@pytest.mark.slow
@pytest.mark.parametrize("name,signature", [
    ("khi3-leja", ["893bb0b1df46", 22, 0, 1311, 1196, 5, 0, []]),
    ("recon6-leja-loose", ["85230d506d6f", 63, 0, 1910, 1516, 79, 9,
                           ["state_t10.617866.chk", "state_t20.024481.chk",
                            "state_t30.323208.chk", "state_t40.000000.chk"]]),
    ("khi3-krylov", ["816ca4a3f16b", 23, 2, 1072, 808, 5, 0, []]),
    ("khi1-dopri-128", ["559e94ce6f20", 36, 4, 280, 0, 0, 0, []]),
])
def test_benchmark_workload_signature(name, signature):
    # a fresh process, so that the benchmark's one-thread BLAS pinning takes
    # effect before numpy loads: the checksums depend on the BLAS thread count
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _WORKLOAD_SIGNATURE, str(root), name],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["ok", *signature]


@pytest.mark.parametrize("method", ["leja", "krylov"])
def test_benchmark_layer_trace_agrees_with_report(monkeypatch, method):
    # every phi chain goes through a binding the benchmark traces and counts
    # its matvecs once, so the per-layer trace agrees with the run report
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import layertrace
    tracer = layertrace.Tracer()
    with layertrace.patched(tracer):
        rep = tracer.wrap(layertrace.RUN, run)(replace(small_khi(), method=method))
    assert rep.status == "ok"
    metrics, failures = layertrace.analyse(tracer.spans, rep)
    assert failures == []
    assert metrics[f"{method}.apply.iters"] == metrics["phi_iters.all"] > 0


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
    rows = work_precision(cfg, [1e-3, 1e-5], ref_path, csv_path)
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
        work_precision(cfg, [1e-4], tmp_path / "missing.chk", tmp_path / "out.csv")


def test_failed_reference_run_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "ref.chk"
    with pytest.raises(RuntimeError, match="reference run failed: failed: step budget"):
        make_reference(small_khi(t_final=0.01, max_steps=1), path)
    assert not path.exists()


def test_csv_writer_creates_its_directory(tmp_path):
    path = tmp_path / "a" / "b" / "rows.csv"
    write_csv(path, ("t", "v"), [{"t": "0.5", "v": "1"}])
    assert path.read_bytes() == b"t,v\r\n0.5,1\r\n"


def test_work_precision_empty_tolerances(tmp_path):
    cfg = small_khi(t_final=0.02)
    ref_path = tmp_path / "ref.chk"
    make_reference(cfg, ref_path)
    csv_path = tmp_path / "empty.csv"
    rows = work_precision(cfg, [], ref_path, csv_path)
    assert rows == []
    content = csv_path.read_text().strip().splitlines()
    assert len(content) == 1  # header only
    assert content[0] == ",".join(CSV_COLUMNS)


def test_work_precision_records_failures_as_data(tmp_path):
    # an impossible step budget forces a failed cell without crashing the sweep
    cfg = small_khi(t_final=0.1, max_steps=2)
    ref = tmp_path / "ref.chk"
    make_reference(small_khi(t_final=0.001), ref)
    rows = work_precision(cfg, [1e-4], ref, tmp_path / "wp.csv")
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
    rows = work_precision(small_khi(), [1e-4], ref, tmp_path / "wp.csv")
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


def test_divb_series_sampling():
    cfg = small_khi(t_final=0.1)
    report = run(replace(cfg, divb_every=0.02))
    series = report.divb_series
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
    rows_a = work_precision(cfg, [1e-3, 1e-4], ref, tmp_path / "a.csv")
    rows_b = work_precision(cfg, [1e-3, 1e-4], ref, tmp_path / "b.csv")
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
    rows = work_precision(cfg, [1e-3], ref_path, tmp_path / "wp.csv")
    rep = run(RunConfig(scenario=cfg.scenario, tol=1e-3))
    ref_state, _ = read_checkpoint(ref_path)
    expect = error_norm(rep.final_state.flat(), ref_state.flat())
    assert float(rows[0]["global_error"]) == pytest.approx(expect, rel=1e-12)


def test_unreachable_tolerance_fails_after_consecutive_rejections():
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=0.1)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.RK43, tol=1e-300))
    assert rep.status == "failed: too many consecutive rejections"
    assert rep.accepted == 0 and rep.rejected == 10
    assert rep.t_reached == 0.0


def test_exhausted_wall_budget_fails_before_the_first_step():
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=0.1)
    rep = run(RunConfig(scenario=spec, wall_budget=1e-9))
    assert rep.status == "failed: wall-clock budget exceeded"
    assert rep.steps == []


def test_checkpoints_follow_their_cadence_after_long_steps(tmp_path):
    # the steps grow past checkpoint_every, and the last one, clipped to the
    # final time, is shorter than it and crosses no checkpoint time: one file
    # for each step that crosses a multiple of checkpoint_every, none other
    every = 0.005
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=0.2)
    probe = run(RunConfig(scenario=spec))
    t_long = [s.t for s in probe.steps if s.accepted][-2]
    spec = replace(spec, t_final=t_long + 0.1 * every)
    rep = run(RunConfig(scenario=spec, output_dir=tmp_path, checkpoint_every=every))
    assert rep.status == "ok"
    times = [0.0, *(s.t for s in rep.steps if s.accepted)]
    assert times[-2] == t_long
    crossing = [t for prev, t in zip(times, times[1:])
                if math.floor((t + 1e-12) / every) > math.floor((prev + 1e-12) / every)]
    written = sorted(read_checkpoint(p)[1] for p in tmp_path.glob("state_t*.chk"))
    assert written == crossing
