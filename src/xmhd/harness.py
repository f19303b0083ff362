"""Experiment driver: adaptive time-stepping loop, references, sweeps, CSV.

A run advances a scenario from t = 0 to t_final, starting at a tenth of
the CFL step.  Per step: freeze the linearization, whose base evaluation
f(u) every attempt of every scheme reads (an accepted first-same-as-last
step has already evaluated it), and, for an exponential scheme on the Leja
engine, refresh the spectral estimate every spectrum_interval accepted
steps; take scheme steps until one's error estimate is at most tol, and
let the step-size controller propose the next dt.  A failed attempt
reports error inf, whose traditional proposal is dt / 2; ten consecutive
rejections, a failed linearization, or a dt too small to advance t abort
the run.  Runs are deterministic for a fixed config.
"""

import csv
import math
import time as _time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from zlib import adler32, crc32

import numpy as np

from xmhd.controllers import ControllerMode, ControllerState, accept
from xmhd.integrators import PHI_METHODS, Scheme, error_norm, fp_policy, step
from xmhd.linearize import FrozenLinearization, RhsBlowupError, RhsOperator, estimate_alpha
from xmhd.mhd import BX, BY, BZ, EN, GAMMA, MX, MY, MZ, RHO, RhsWorkspace, discrete_div_b, \
    mhd_rhs, conserved_totals, read_checkpoint, write_checkpoint
from xmhd.scenarios import initialize

#: CSV column order of every report row
CSV_COLUMNS = ("scenario", "case", "scheme", "method", "controller", "tol",
               "nx", "ny", "t_final", "steps_accepted", "steps_rejected",
               "rhs_evals", "phi_iters", "wall_seconds", "global_error",
               "max_divb", "mass_drift", "status", "timestamp")

#: the columns a run measures; empty in the row of a run that raised
_MEASURED_COLUMNS = ("steps_accepted", "steps_rejected", "rhs_evals", "phi_iters",
                     "wall_seconds", "max_divb", "mass_drift")

MAX_CONSECUTIVE_REJECTIONS = 10


@dataclass
class RunConfig:
    scenario: object
    scheme: Scheme = Scheme.EXPRB43
    method: str = "leja"
    controller: ControllerMode = ControllerMode.COMBINED
    tol: float = 1e-4
    spectrum_interval: int = 50         # accepted steps between spectral refreshes
    output_dir: Path | None = None
    checkpoint_every: float = 0.0       # simulation-time interval; 0 disables
    divb_every: float = 0.0             # sampling interval for divb series
    rng_seed: int = 0                   # unused: runs depend on no seed
    max_steps: int = 1_000_000          # step attempts, rejected ones included
    wall_budget: float = 3600.0

    def __post_init__(self):
        """Refuse, with ValueError, a config that no run can honour."""
        if self.scheme.embedded_order is None:
            # the adaptive loop would accept every step of such a scheme and
            # grow dt whatever the tolerance
            raise ValueError(f"integrator {self.scheme.value} has no embedded error "
                             "estimate and cannot run under adaptive step control")
        for name, ok, need in (
                ("method", self.method in PHI_METHODS, f"one of {', '.join(PHI_METHODS)}"),
                ("tol", 0.0 < self.tol < math.inf, "positive and finite"),
                ("spectrum_interval", self.spectrum_interval >= 1, "at least 1"),
                ("max_steps", self.max_steps >= 1, "at least 1"),
                ("wall_budget", self.wall_budget > 0.0, "positive"),
                ("checkpoint_every", 0.0 <= self.checkpoint_every < math.inf, "finite and >= 0"),
                ("divb_every", 0.0 <= self.divb_every < math.inf, "finite and >= 0")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


@dataclass
class StepRecord:
    t: float
    dt: float
    error: float
    rhs_calls: int
    phi_iterations: int
    phi_applications: int
    accepted: bool


@dataclass
class RunReport:
    """A run's outcome; its step and phi-iteration totals derive from `steps`."""
    steps: list = field(default_factory=list)
    rhs_evals: int = 0
    spectrum_rhs_evals: int = 0
    wall_seconds: float = 0.0
    t_reached: float = 0.0
    status: str = "ok"
    final_state: object = None
    checksum: str = ""
    max_divb: float = 0.0
    mass_drift: float = 0.0
    divb_series: list = field(default_factory=list)

    @property
    def accepted(self):
        return sum(s.accepted for s in self.steps)

    @property
    def rejected(self):
        return len(self.steps) - self.accepted

    @property
    def phi_iterations(self):
        return sum(s.phi_iterations for s in self.steps if s.accepted)


def _initial_dt(state):
    """Advective CFL surrogate: a tenth of the cell crossing time."""
    rho = state.data[RHO]
    vx = np.abs(state.data[MX] / rho)
    vy = np.abs(state.data[MY] / rho)
    b2 = state.data[BX] ** 2 + state.data[BY] ** 2 + state.data[BZ] ** 2
    kin = 0.5 * (state.data[MX] ** 2 + state.data[MY] ** 2
                 + state.data[MZ] ** 2) / rho
    pres = (GAMMA - 1.0) * (state.data[EN] - kin - 0.5 * b2)
    cfast = np.sqrt(np.maximum(GAMMA * pres + b2, 0.0) / rho)
    speed = max(float(np.max(vx + cfast)), float(np.max(vy + cfast)), 1e-12)
    return 0.1 * min(state.dx, state.dy) / speed


class _Observer:
    """The one path on which a run observes its initial and each accepted
    state: max |div B|, the div B series and the checkpoints.  A series is
    next due at inf when it is off; div B is first due at t = 0."""

    def __init__(self, config, report):
        self.config, self.report = config, report
        self.divb_due = 0.0 if config.divb_every > 0 else math.inf
        writes = config.checkpoint_every > 0 and config.output_dir is not None
        self.checkpoint_due = config.checkpoint_every if writes else math.inf

    def __call__(self, state, t):
        divb = float(np.max(np.abs(discrete_div_b(state, self.config.scenario.params))))
        self.report.max_divb = max(self.report.max_divb, divb)
        while self.divb_due <= t + 1e-12:
            self.report.divb_series.append((self.divb_due, divb))
            self.divb_due += self.config.divb_every
        if self.checkpoint_due <= t + 1e-12:
            write_checkpoint(Path(self.config.output_dir) / f"state_t{t:.6f}.chk", state, t)
            while self.checkpoint_due <= t + 1e-12:
                self.checkpoint_due += self.config.checkpoint_every


def run(config):
    """Advance the configured scenario to t_final and return a RunReport."""
    spec = config.scenario
    state0 = initialize(spec)
    work = RhsWorkspace(state0.nx, state0.ny)
    rhs_op = RhsOperator(lambda flat: mhd_rhs(state0.with_flat(flat), spec.params, work))
    controller = ControllerState(config.controller, config.tol, config.scheme.embedded_order)
    report = RunReport()
    observe = _Observer(config, report)
    observe(state0, 0.0)

    u, t, t_final = state0.flat().copy(), 0.0, spec.t_final
    dt = min(_initial_dt(state0), t_final) if t_final > 0 else 0.0
    alpha = None
    base_rhs = None     # f(u), when the last accepted step handed it over
    # only the Leja interval reads alpha
    refreshes = config.scheme.is_exponential and config.method == "leja"
    accepted = 0
    started = _time.perf_counter()

    while t < t_final - 1e-14 * max(1.0, t_final):
        if len(report.steps) >= config.max_steps:
            report.status = "failed: step budget exceeded"
            break
        if _time.perf_counter() - started > config.wall_budget:
            report.status = "failed: wall-clock budget exceeded"
            break
        dt = min(dt, t_final - t)

        step_calls_start = rhs_op.calls
        refresh_calls = 0
        try:
            with fp_policy():
                lin = FrozenLinearization(rhs_op, u, base_rhs)
                if refreshes and accepted % config.spectrum_interval == 0:
                    refresh_start = rhs_op.calls
                    alpha = estimate_alpha(lin).alpha
                    refresh_calls = rhs_op.calls - refresh_start
        except (RhsBlowupError, FloatingPointError) as exc:
            report.status = f"failed: {type(exc).__name__}: {exc}"
            break
        report.spectrum_rhs_evals += refresh_calls

        # a failed attempt reports error inf, for which after_reject halves dt
        for _ in range(MAX_CONSECUTIVE_REJECTIONS):
            # a step that leaves t where it is would stall the run, and the
            # cost proxy would divide by it
            if t + dt == t:
                report.status = f"failed: step size underflow at t={float(t)!r}"
                break
            attempt_start = rhs_op.calls
            res = step(config.scheme, rhs_op, u, dt, method=config.method,
                       alpha=alpha, tol=config.tol, lin=lin)
            ok = bool(accept(res.error_estimate, config.tol))
            # an accepted step counts every rhs evaluation the step needed
            # (base evaluation, spectral refresh, rejected attempts included)
            spent = rhs_op.calls - (step_calls_start if ok else attempt_start)
            report.steps.append(StepRecord(t + dt if ok else t, dt, res.error_estimate, spent,
                                           res.phi_iterations, res.phi_applications, ok))
            if ok:
                break
            dt = controller.after_reject(dt, res.error_estimate)
            # the retry does not hold the rejected attempt's vectors
            res = None
        else:
            report.status = "failed: too many consecutive rejections"
        if report.status != "ok":
            break

        t, u, base_rhs = t + dt, res.new_state, res.new_rhs
        accepted += 1
        observe(state0.with_flat(u), t)
        # the cost proxy leaves the refresh out: its schedule counts steps, not
        # dt, and a one-step cost spike reads to the cost controller as a slope
        dt = controller.after_accept(dt, res.error_estimate, (spent - refresh_calls) / dt)

    report.wall_seconds = _time.perf_counter() - started
    report.t_reached = t
    report.rhs_evals = rhs_op.calls
    mass0 = conserved_totals(state0)["rho"]
    # the final state goes into the run's first buffer: one allocated late
    # and kept past the run would pin the middle of the heap that the run's
    # temporaries free, and a caller that keeps reports would see the heap
    # grow around each of them
    state0.flat()[:] = u
    report.final_state = state0
    # a 64-bit fingerprint for reproducibility checks, not integrity:
    # hashlib would map OpenSSL's libcrypto into the process for it
    raw = np.ascontiguousarray(u, dtype="<f8").tobytes()
    report.checksum = f"{crc32(raw):08x}{adler32(raw):08x}"
    mass = conserved_totals(state0)["rho"]
    report.mass_drift = abs(mass - mass0) / abs(mass0) if mass0 else 0.0
    if report.status != "ok" and config.output_dir is not None:
        write_checkpoint(Path(config.output_dir) / "abort.chk", report.final_state, t)
    return report


REFERENCE_TOL = 1e-11


def make_reference(config, path):
    """Run at tol 1e-11 with DOPRI54/combined and store the final state.

    The reference shares no phi engine, Jacobian action or spectral
    estimate with the exponential schemes it judges.
    """
    ref_cfg = replace(config, tol=REFERENCE_TOL, scheme=Scheme.DOPRI54,
                      controller=ControllerMode.COMBINED)
    report = run(ref_cfg)
    if report.status != "ok":
        raise RuntimeError(f"reference run failed: {report.status}")
    write_checkpoint(path, report.final_state, report.t_reached)
    return report


def _row(config, report, global_error):
    spec = config.scenario
    return {
        "scenario": spec.problem,
        "case": spec.case_id,
        "scheme": config.scheme.value,
        "method": config.method,
        "controller": config.controller.value,
        "tol": repr(config.tol),
        "nx": spec.nx,
        "ny": spec.ny,
        "t_final": repr(spec.t_final),
        "steps_accepted": report.accepted,
        "steps_rejected": report.rejected,
        "rhs_evals": report.rhs_evals,
        "phi_iters": report.phi_iterations,
        "wall_seconds": f"{report.wall_seconds:.3f}",
        "global_error": repr(float(global_error)),
        "max_divb": repr(float(report.max_divb)),
        "mass_drift": repr(float(report.mass_drift)),
        "status": report.status if report.status == "ok" else "failed",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def work_precision(base, tols, reference, out_csv):
    """Run `base` at each tolerance, ascending, and write one CSV row per run.

    An empty `tols` (ValueError), a missing or malformed reference (OSError,
    ValueError), a reference of another grid or final time than
    `base.scenario` (ValueError; a reference stores the time it reached, so
    1e-12 relative is allowed) and a tolerance that RunConfig refuses
    (ValueError) raise before any run, and so does a CSV directory that
    cannot be made.  A run that fails (non-convergence, budget, an
    exception) is recorded with a NaN error; its RunReport status names the
    failure, with the exception type and message, and its CSV status reads
    failed.  A run that raised measured nothing, so its counts, wall time
    and diagnostics are written empty.
    """
    if not tols:
        raise ValueError("a sweep needs at least one tolerance")
    ref_state, t_ref = read_checkpoint(reference)
    spec = base.scenario
    if (ref_state.nx, ref_state.ny) != (spec.nx, spec.ny):
        raise ValueError(f"reference {reference} is on a {ref_state.nx}x{ref_state.ny} grid, "
                         f"the sweep on {spec.nx}x{spec.ny}")
    if abs(t_ref - spec.t_final) > 1e-12 * max(1.0, spec.t_final):
        raise ValueError(f"reference {reference} is at t = {t_ref!r}, "
                         f"the sweep ends at t = {spec.t_final!r}")
    ref_flat = ref_state.flat()
    configs = [replace(base, tol=tol) for tol in sorted(tols)]
    Path(out_csv).parent.mkdir(parents=True, exist_ok=True)

    rows = []
    for cfg in configs:
        try:
            report = run(cfg)
            err = error_norm(report.final_state.flat(), ref_flat) \
                if report.status == "ok" else float("nan")
        except Exception as exc:
            row = _row(cfg, RunReport(status=f"failed: {type(exc).__name__}: {exc}"),
                       float("nan"))
            rows.append(dict(row, **dict.fromkeys(_MEASURED_COLUMNS, "")))
            continue
        rows.append(_row(cfg, report, err))
    write_csv(out_csv, CSV_COLUMNS, rows)
    return rows


def write_csv(path, columns, rows):
    """Write the dicts `rows` under a `columns` header, creating the directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

