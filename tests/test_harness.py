import csv
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xmhd.controllers import ControllerMode
from xmhd.harness import CSV_COLUMNS, RunConfig, make_reference, run, work_precision, \
    write_csv
from xmhd.integrators import Scheme, error_norm, step
from xmhd.leja import LEJA_REACH
from xmhd.linearize import RhsOperator
from xmhd.mhd import RHO, discrete_div_b, pressure, read_checkpoint, write_checkpoint
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
    # steps, each refresh ARNOLDI_STEPS rhs evaluations
    import xmhd.harness
    from xmhd.linearize import ARNOLDI_STEPS
    refreshes = []
    original = xmhd.harness.estimate_alpha

    def counted(lin, *args, **kwargs):
        refreshes.append(lin.base_state.size)
        return original(lin, *args, **kwargs)

    monkeypatch.setattr(xmhd.harness, "estimate_alpha", counted)
    rep = run(small_khi(t_final=0.2, spectrum_interval=3))
    assert rep.status == "ok"
    assert rep.checksum == "e1a21c60760ef6ed"
    assert (rep.accepted, rep.rejected, rep.rhs_evals, rep.phi_iterations,
            rep.spectrum_rhs_evals) == (10, 1, 456, 283, 48)
    assert len(refreshes) == len(range(0, rep.accepted, 3))
    assert rep.spectrum_rhs_evals == ARNOLDI_STEPS * len(refreshes)


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1e-4), ("tol", math.inf), ("tol", math.nan),
    ("spectrum_interval", 0), ("spectrum_interval", -3),
    ("max_steps", 0), ("checkpoint_every", -1.0),
    ("checkpoint_every", math.inf), ("divb_every", -0.5), ("divb_every", math.nan),
    ("method", "lejaa"),
])
def test_run_config_refuses_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        RunConfig(scenario=None, **{field: value})


@pytest.mark.parametrize("field", ["checkpoint_every", "divb_every"])
def test_run_config_refuses_an_interval_that_cannot_advance_its_schedule(field):
    # 2e-4 + 1e-20 == 2e-4 in float64: the run's catch-up loop for the
    # schedule would add the interval forever
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=2e-4)
    with pytest.raises(ValueError, match=f"{field} must be 0 or advance"):
        RunConfig(scenario=spec, **{field: 1e-20})
    # one unit in the last place of t_final plus the observer's slack advances it
    RunConfig(scenario=spec, **{field: math.ulp(2e-4 + 1e-12)})


def test_first_step_error_sizes_the_second_step():
    # the first step is a tenth of the CFL step, its error far below tol: the
    # second accepted step grows past the per-step cap of 2, up to 100-fold
    from xmhd.controllers import FIRST_GROWTH, GROWTH_CAP
    rep = run(small_khi())
    first, second = [s.dt for s in rep.steps if s.accepted][:2]
    assert GROWTH_CAP * first < second <= FIRST_GROWTH * first * (1.0 + 1e-12)


def test_rejected_first_jump_recovers_within_the_rejection_budget():
    # DOPRI54 at a loose tolerance: the attempt after the first accepted step
    # is the full FIRST_GROWTH jump, and it is rejected; the retries shrink it
    # back and the run finishes
    from xmhd.controllers import FIRST_GROWTH
    spec = make_scenario("khi-I", nx=16, ny=16, t_final=0.5)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.DOPRI54, tol=0.1))
    first, jump, retry = rep.steps[:3]
    assert first.accepted and not jump.accepted
    assert jump.dt == pytest.approx(FIRST_GROWTH * first.dt, rel=1e-12)
    assert retry.dt < jump.dt
    assert rep.status == "ok"


def test_krylov_run_computes_no_spectral_estimate(monkeypatch):
    import xmhd.harness
    calls = []
    monkeypatch.setattr(xmhd.harness, "estimate_alpha", lambda *a, **k: calls.append(a))
    rep = run(replace(small_khi(), method="krylov"))
    assert rep.status == "ok" and rep.accepted > 0
    assert calls == [] and rep.spectrum_rhs_evals == 0


_NO_OPENSSL = """
import sys
sys.path.insert(0, sys.argv[1])
import xmhd
from xmhd.harness import RunConfig, run
from xmhd.scenarios import make_scenario
rep = run(RunConfig(scenario=make_scenario("khi-III", nx=8, ny=8, t_final=0.001)))
print(rep.status, rep.checksum, "_hashlib" in sys.modules)
"""


def test_run_maps_no_openssl():
    # a fresh process, since pytest may load hashlib itself: the checksum is
    # a zlib fingerprint, so a run maps no OpenSSL libcrypto
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _NO_OPENSSL, str(src)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    status, checksum, hashlib_loaded = out.stdout.split()
    assert status == "ok" and len(checksum) == 16 and set(checksum) <= set("0123456789abcdef")
    assert hashlib_loaded == "False"


# golden final checksums and (accepted, rejected, rhs_evals, phi_iters) per
# controller mode: any change to the controller policy, the attempt loop or
# the step arithmetic shows here; RK43 rejects steps under every mode, and its
# combined run takes the traditional proposal at every step.  The
# ids name only the mode and scheme, so a changed value fails the test
# instead of renaming it.
# (controller, scheme, phi engine, checksum, counts): every exponential
# scheme on each engine, so that a change to a scheme's arithmetic moves a
# checksum; an id names the engine only when it is not Leja, the default
_GOLDEN_RUNS = [
    (ControllerMode.TRADITIONAL, Scheme.EXPRB43, "leja",
     "b5b165de74812772", (7, 2, 519, 316)),
    (ControllerMode.TRADITIONAL, Scheme.EXPRB43, "krylov",
     "bf56be233bededec", (7, 1, 299, 210)),
    (ControllerMode.TRADITIONAL, Scheme.EXPRB54S4, "leja",
     "784f57084749535e", (7, 0, 438, 377)),
    (ControllerMode.TRADITIONAL, Scheme.EXPRB54S4, "krylov",
     "0cf22c024d704128", (7, 0, 305, 256)),
    (ControllerMode.TRADITIONAL, Scheme.EPIRK5P1, "leja",
     "77266123fea0141d", (5, 0, 335, 298)),
    (ControllerMode.TRADITIONAL, Scheme.EPIRK5P1, "krylov",
     "f2595c2c15e4e82b", (5, 0, 207, 182)),
    (ControllerMode.TRADITIONAL, Scheme.RK43, "leja",
     "ef8168139704c474", (19, 2, 103, 0)),
    (ControllerMode.COMBINED, Scheme.RK43, "leja",
     "ef8168139704c474", (19, 2, 103, 0)),
]


@pytest.mark.parametrize("mode,scheme,method,checksum,counts", _GOLDEN_RUNS,
                         ids=[f"{mode}-{scheme}" + ("" if method == "leja" else f"-{method}")
                              for mode, scheme, method, *_ in _GOLDEN_RUNS])
def test_controller_mode_golden_run(mode, scheme, method, checksum, counts):
    rep = run(replace(small_khi(t_final=0.2), scheme=scheme, method=method, controller=mode))
    assert rep.status == "ok"
    assert rep.checksum == checksum
    assert (rep.accepted, rep.rejected, rep.rhs_evals, rep.phi_iterations) == counts
    assert all(type(s.accepted) is bool for s in rep.steps)
    # an accepted record counts its rejected attempts too, so these cover the run
    assert sum(s.rhs_calls for s in rep.steps if s.accepted) == rep.rhs_evals


# signature of each benchmark workload (no run depends on the rng seed):
# checksum prefix, accepted, rejected, rhs_evals, phi_iterations,
# spectrum_rhs_evals, div B samples and checkpoint names; a refactor that
# claims no numerical change must leave every one as it is
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


@pytest.mark.parametrize("name,signature", [
    ("khi3-leja", ["5bcfeb375a1e", 15, 0, 565, 478, 12, 0, []]),
    ("recon6-leja-loose", ["15355f60a903", 45, 0, 1402, 1165, 12, 9,
                           ["state_t10.578487.chk", "state_t20.604983.chk",
                            "state_t30.301646.chk", "state_t40.000000.chk"]]),
    ("khi3-krylov", ["ad13fc838299", 13, 1, 441, 332, 0, 0, []]),
    ("khi1-dopri-128", ["50ca24a1dc2f", 36, 2, 229, 0, 0, 0, []]),
])
def test_benchmark_workload_signature(name, signature):
    # a fresh process, so that the benchmark's one-thread BLAS pinning takes
    # effect before numpy loads: the checksums depend on the BLAS thread count
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _WORKLOAD_SIGNATURE, str(root), name],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["ok", *signature]


def test_exprb43_beats_both_explicit_pairs_where_the_abstract_claims_it():
    # khi-I 128^2 to t = 0.02 at tol 1e-2, against the benchmark's stored
    # reference: EXPRB43 on either engine takes fewer rhs evaluations (about
    # 115-120) than RK43 (197) and DOPRI54 (265), and ends nearer the
    # reference (4e-4 and 5e-5, against 9e-4 and 3e-3)
    root = Path(__file__).resolve().parents[1]
    with np.load(root / "perfbench" / "refs" / "khi-I-128-t0.02.npz") as ref:
        reference = np.array(ref["state"], dtype=float)
    spec = make_scenario("khi-I", nx=128, ny=128, t_final=0.02)

    def cost_and_error(scheme, method="leja"):
        rep = run(RunConfig(scenario=spec, scheme=scheme, method=method, tol=1e-2))
        assert rep.status == "ok"
        return rep.rhs_evals, error_norm(rep.final_state.flat(), reference)

    explicit = [cost_and_error(scheme) for scheme in (Scheme.RK43, Scheme.DOPRI54)]
    for method in ("leja", "krylov"):
        evals, error = cost_and_error(Scheme.EXPRB43, method)
        for explicit_evals, explicit_error in explicit:
            assert evals < explicit_evals and error < explicit_error, method


def _overflow_in_step(monkeypatch):
    # every rhs evaluation after the first step's base evaluation and
    # spectral refresh returns the largest float, which the step's own
    # arithmetic overflows: each attempt of that step fails
    import xmhd.harness
    from xmhd.linearize import ARNOLDI_STEPS
    real, calls = xmhd.harness.mhd_rhs, []

    def mhd_rhs(state, params, work):
        calls.append(None)
        if len(calls) <= 1 + ARNOLDI_STEPS:
            return real(state, params, work)
        return np.full(state.data.size, np.finfo(float).max)

    monkeypatch.setattr(xmhd.harness, "mhd_rhs", mhd_rhs)
    return small_khi()


@pytest.mark.parametrize("method,fault", [("leja", None), ("krylov", None),
                                          ("leja", _overflow_in_step)],
                         ids=["leja", "krylov", "leja-overflow-in-step"])
def test_benchmark_layer_trace_agrees_with_report(monkeypatch, method, fault):
    # every phi chain goes through a binding the benchmark traces and counts
    # its matvecs once, so the per-layer trace agrees with the run report;
    # a phi action whose matvec overflows reports its failure and returns,
    # so each failed attempt traces the phi iterations its record holds
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import layertrace
    config = small_khi() if fault is None else fault(monkeypatch)
    tracer = layertrace.Tracer()
    with layertrace.patched(tracer):
        rep = tracer.wrap(layertrace.RUN, run)(replace(config, method=method))
    assert rep.status == ("ok" if fault is None else "failed: too many consecutive rejections")
    metrics, failures = layertrace.analyse(tracer.spans, rep)
    assert failures == []
    assert metrics[f"{method}.apply.iters"] == metrics["phi_iters.all"] > 0
    if fault is not None:
        failed = [s for s in rep.steps if not s.accepted]
        assert len(failed) == 10 and all(s.phi_iterations > 0 for s in failed)


def test_benchmark_layer_trace_counts_a_mid_run_spectrum_refresh(monkeypatch):
    # a refresh every 3 accepted steps: the trace attributes each refresh's
    # Arnoldi rhs evaluations to the spectrum, as the report counts them
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import layertrace
    tracer = layertrace.Tracer()
    with layertrace.patched(tracer):
        rep = tracer.wrap(layertrace.RUN, run)(small_khi(t_final=0.2, spectrum_interval=3))
    assert rep.status == "ok"
    metrics, failures = layertrace.analyse(tracer.spans, rep)
    assert failures == []
    assert metrics["linearize.spectrum.refreshes"] == len(range(0, rep.accepted, 3)) > 1
    assert metrics["linearize.spectrum.rhs_evals"] == rep.spectrum_rhs_evals


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


def test_work_precision_refuses_reference_of_another_grid(monkeypatch, tmp_path):
    ref_path = tmp_path / "ref.chk"
    make_reference(RunConfig(scenario=make_scenario("khi-III", nx=16, ny=16, t_final=0.002)),
                   ref_path)
    import xmhd.harness
    runs = []
    monkeypatch.setattr(xmhd.harness, "run", lambda cfg: runs.append(cfg))
    csv_path = tmp_path / "wp.csv"
    with pytest.raises(ValueError, match="16x16 grid, the sweep on 24x24"):
        work_precision(small_khi(t_final=0.002), [1e-3, 1e-4], ref_path, csv_path)
    other_time = RunConfig(scenario=make_scenario("khi-III", nx=16, ny=16, t_final=0.003))
    with pytest.raises(ValueError, match=r"is at t = 0\.002\d*, the sweep ends at t = 0\.003"):
        work_precision(other_time, [1e-3, 1e-4], ref_path, csv_path)
    # on the sweep's 16x16 grid, a NaN time, another spacing or a non-finite
    # value still refuses the reference
    same_grid = RunConfig(scenario=make_scenario("khi-III", nx=16, ny=16, t_final=0.002))
    state, t = read_checkpoint(ref_path)
    non_finite = replace(state, data=state.data.copy())
    non_finite.data[0, 3, 5] = math.inf
    spacing = r"16x16 grid, the sweep on 16x16 \(spacing {} against 0\.15625 x 0\.0625\)"
    for edited, t_edited, message in [
        (state, math.nan, "checkpoint time must be finite, got nan"),
        (replace(state, dx=2 * state.dx), t, spacing.format(r"0\.3125 x 0\.0625")),
        (replace(state, dy=2 * state.dy), t, spacing.format(r"0\.15625 x 0\.125")),
        (non_finite, t, "holds non-finite values"),
    ]:
        write_checkpoint(ref_path, edited, t_edited)
        with pytest.raises(ValueError, match=message):
            work_precision(same_grid, [1e-3, 1e-4], ref_path, csv_path)
    assert runs == [] and not csv_path.exists()


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
    # refused before the reference is read: a missing one would raise
    # FileNotFoundError, and no directory is made
    csv_path = tmp_path / "sweep" / "wp.csv"
    with pytest.raises(ValueError, match="at least one tolerance"):
        work_precision(small_khi(), [], tmp_path / "missing.chk", csv_path)
    assert not csv_path.parent.exists()


def test_work_precision_records_failures_as_data(tmp_path):
    # an impossible step budget forces a failed cell without crashing the sweep
    cfg = small_khi(t_final=0.001, max_steps=1)
    ref = tmp_path / "ref.chk"
    make_reference(small_khi(t_final=0.001), ref)
    rows = work_precision(cfg, [1e-4], ref, tmp_path / "wp.csv")
    assert rows[0]["status"] == "failed"
    assert np.isnan(float(rows[0]["global_error"]))


@pytest.mark.parametrize("raising", [(1e-4,), (1e-4, 1e-3)], ids=["one-of-two", "every"])
def test_work_precision_leaves_the_counts_of_a_raised_run_empty(tmp_path, monkeypatch, raising):
    # a run that raised measured nothing: its counts, wall time and
    # diagnostics are empty, not 0; the other run keeps its figures
    import xmhd.harness
    ref = tmp_path / "ref.chk"
    make_reference(small_khi(t_final=0.001), ref)
    original = xmhd.harness.run

    def sometimes_broken(config):
        if config.tol in raising:
            raise RuntimeError("solver exploded")
        return original(config)

    monkeypatch.setattr(xmhd.harness, "run", sometimes_broken)
    work_precision(small_khi(t_final=0.001), [1e-4, 1e-3], ref, tmp_path / "wp.csv")
    with open(tmp_path / "wp.csv") as fh:
        rows = {float(r["tol"]): r for r in csv.DictReader(fh)}
    measured = ("steps_accepted", "steps_rejected", "rhs_evals", "phi_iters",
                "wall_seconds", "max_divb", "mass_drift")
    for tol, row in rows.items():
        if tol in raising:
            assert row["status"] == "failed" and row["global_error"] == "nan"
            assert [row[c] for c in measured] == [""] * len(measured)
        else:
            assert row["status"] == "ok" and int(row["rhs_evals"]) > 0
            assert all(row[c] != "" for c in measured)


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
    rows = work_precision(small_khi(t_final=0.001), [1e-4], ref, tmp_path / "wp.csv")
    assert statuses == ["failed: RuntimeError: solver exploded"]
    assert rows[0]["status"] == "failed"
    with open(tmp_path / "wp.csv") as fh:
        assert next(csv.DictReader(fh))["status"] == "failed"


# rhs evaluations of an explicit run from its (accepted steps, attempts): one
# base evaluation f(u) per step, which every attempt reads, and the stages
# after the first per attempt; DOPRI54's last stage is f(unew), the next
# step's base, so only the first step evaluates one
_EXPLICIT_EVALUATION_LAW = [
    (Scheme.RK43, lambda steps, attempts: steps + 4 * attempts),
    (Scheme.DOPRI54, lambda steps, attempts: 1 + 6 * attempts),
]


@pytest.mark.parametrize("scheme,law", _EXPLICIT_EVALUATION_LAW,
                         ids=[s.value for s, _ in _EXPLICIT_EVALUATION_LAW])
def test_explicit_scheme_evaluation_law(scheme, law):
    rep = run(replace(small_khi(t_final=0.2), scheme=scheme))
    assert rep.status == "ok" and rep.rejected > 0
    assert rep.spectrum_rhs_evals == 0
    assert rep.rhs_evals == law(rep.accepted, rep.accepted + rep.rejected)


@pytest.mark.parametrize("scheme", [Scheme.RK43, Scheme.DOPRI54])
def test_explicit_retries_do_not_evaluate_the_rhs_at_u(monkeypatch, scheme):
    # each state a step starts from is evaluated once, however many attempts
    # the step takes: a retry after a rejection reads the step's f(u)
    import xmhd.harness
    evaluated, starts = Counter(), []

    class Recording(RhsOperator):
        def __call__(self, u):
            evaluated[np.asarray(u).tobytes()] += 1
            return super().__call__(u)

    def recording_step(scheme, lin, *args, **kw):
        starts.append(lin.base_state.tobytes())
        return step(scheme, lin, *args, **kw)

    monkeypatch.setattr(xmhd.harness, "RhsOperator", Recording)
    monkeypatch.setattr(xmhd.harness, "step", recording_step)
    rep = run(replace(small_khi(t_final=0.2), scheme=scheme))
    assert rep.status == "ok" and rep.rejected > 0
    assert len(set(starts)) == rep.accepted < len(starts)
    assert all(evaluated[u] == 1 for u in starts)


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


def test_the_step_budget_counts_attempts_exactly():
    # the first step is accepted and the second attempt rejected: a budget of
    # two ends the run in place of the third attempt, not after the next step
    spec = make_scenario("khi-I", nx=16, ny=16, t_final=0.5)
    rep = run(RunConfig(spec, scheme=Scheme.DOPRI54, tol=0.1, max_steps=2))
    assert rep.status == "failed: step budget exceeded"
    assert len(rep.steps) == 2
    assert (rep.accepted, rep.rejected) == (1, 1)


def test_a_step_that_does_not_advance_t_ends_the_run(monkeypatch):
    # a subnormal proposal after the first step: the run makes no attempt at
    # it and ends with a typed failure, before the cost proxy divides by it
    import xmhd.harness
    from xmhd.controllers import ControllerState

    class Subnormal(ControllerState):
        def after_accept(self, dt, err, cost):
            super().after_accept(dt, err, cost)
            return 5e-324

    monkeypatch.setattr(xmhd.harness, "ControllerState", Subnormal)
    rep = run(small_khi())
    t1 = float(rep.steps[0].t)
    assert rep.status == f"failed: step size underflow at t={t1!r}"
    assert (rep.accepted, rep.rejected, rep.t_reached) == (1, 0, t1)


def diverging_khi(**kw):
    # at tol 1.0 khi-III 16^2 fails attempts (error inf) until dt underflows
    spec = make_scenario("khi-III", nx=16, ny=16, t_final=1.0)
    return RunConfig(scenario=spec, tol=1.0, **kw)


def _overflow_in_base_evaluation(monkeypatch):
    # the first step's base evaluation f(u) overflows, which fails the
    # linearization and so the run, before any attempt
    import xmhd.harness

    def mhd_rhs(state, params, work):
        return np.full(state.data.size, np.finfo(float).max) * 2.0

    monkeypatch.setattr(xmhd.harness, "mhd_rhs", mhd_rhs)
    return small_khi()


def _overflow_in_second_refresh(monkeypatch):
    # the refresh's Jacobian action overflows once the first refresh is
    # done, whatever the trajectory's roundoff
    import xmhd.linearize
    from xmhd.linearize import ARNOLDI_STEPS
    real, calls = xmhd.linearize.jvp, []

    def jvp(lin, w):
        calls.append(None)
        if len(calls) <= ARNOLDI_STEPS:
            return real(lin, w)
        return np.full_like(w, np.finfo(float).max) * 2.0

    monkeypatch.setattr(xmhd.linearize, "jvp", jvp)
    return replace(small_khi(), spectrum_interval=1)


@pytest.mark.parametrize("config,status,accepted", [
    (_overflow_in_step, "failed: too many consecutive rejections", None),
    (_overflow_in_second_refresh, "failed: FloatingPointError: overflow", 1),
    (_overflow_in_base_evaluation, "failed: FloatingPointError: overflow", 0),
], ids=["in-step", "in-refresh", "in-base-evaluation"])
def test_floating_point_faults_end_as_a_reported_failure(tmp_path, monkeypatch, config,
                                                         status, accepted):
    # an overflow inside a step fails the attempt, one in the spectral
    # refresh or the base evaluation fails the run; none warns or raises out
    # of run()
    cfg = replace(config(monkeypatch), output_dir=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run(cfg)
    assert rep.status.startswith(status)
    assert accepted is None or rep.accepted == accepted
    assert (tmp_path / "abort.chk").exists()


def test_a_failed_attempt_records_error_inf_and_retries_at_half_its_dt():
    steps = run(diverging_khi()).steps
    failed = [i for i, s in enumerate(steps[:-1]) if s.error == np.inf]
    assert failed
    for i in failed:
        assert not steps[i].accepted and steps[i + 1].dt == 0.5 * steps[i].dt


# Table A's lenient Leja cells: recon-VI 64^2 to t = 40, which failed or
# lost div B while the controller grew alpha dt past LEJA_REACH
_LENIENT_CELLS = [(scheme, tol) for scheme in (Scheme.EXPRB43, Scheme.EPIRK5P1)
                  for tol in (1e-1, 3e-2, 1e-2)]


@pytest.mark.parametrize("scheme,tol", [
    pytest.param(scheme, tol, marks=[] if i == 0 else [pytest.mark.slow])
    for i, (scheme, tol) in enumerate(_LENIENT_CELLS)],
    ids=[f"{scheme.value}-{tol:g}" for scheme, tol in _LENIENT_CELLS])
def test_lenient_leja_runs_finish_within_reach(monkeypatch, scheme, tol):
    # every Leja chain of every attempt runs on an interval of alpha dt at
    # most LEJA_REACH, and the run ends ok with div B intact
    import xmhd.integrators
    real, reach, iterations = xmhd.integrators.apply_phi_leja, [], []

    def apply_phi_leja(l, matvec, v, dt, shift, tol, fractions=(1.0,)):
        reach.append(4.0 * shift.theta)
        res = real(l, matvec, v, dt, shift, tol, fractions=fractions)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(xmhd.integrators, "apply_phi_leja", apply_phi_leja)
    spec = make_scenario("recon-VI", nx=64, ny=64, t_final=40.0)
    rep = run(RunConfig(scenario=spec, scheme=scheme, tol=tol))
    assert rep.status == "ok"
    assert reach and max(reach) <= LEJA_REACH * (1.0 + 1e-12)
    # within the reach no chain outgrows the first Newton table's 64 terms
    assert max(iterations) < 64
    divb0 = float(np.max(np.abs(discrete_div_b(initialize(spec), spec.params))))
    assert rep.max_divb - divb0 <= 1e-9


def test_a_state_without_positive_density_and_pressure_is_never_accepted(monkeypatch):
    # DOPRI54 on recon-VI 64^2 at tol 1e-1 passes its error test on states
    # with rho <= 0 or p <= 0 from t = 1.795 on; each such attempt fails, so
    # the run gets past t = 2.413, where dt used to underflow
    import xmhd.harness
    real, seen = xmhd.harness._Observer.__call__, []

    def observe(self, state, t):
        with np.errstate(all="ignore"):
            seen.append(state.data[RHO].min() > 0.0 and pressure(state).min() > 0.0)
        real(self, state, t)

    monkeypatch.setattr(xmhd.harness._Observer, "__call__", observe)
    spec = make_scenario("recon-VI", nx=64, ny=64, t_final=40.0)
    rep = run(RunConfig(scenario=spec, scheme=Scheme.DOPRI54, tol=1e-1))
    assert len(seen) == rep.accepted + 1 and all(seen)
    assert rep.t_reached > 2.413


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
