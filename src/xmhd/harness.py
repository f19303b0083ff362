"""Experiment driver: adaptive time-stepping loop, references, sweeps, CSV.

A run advances a scenario from t = 0 to t_final.  Per step: for an
exponential scheme, freeze the linearization and, on the steps that start
after 0, spectrum_interval, 2 spectrum_interval, ... accepted steps,
refresh the spectral estimate; take one scheme step, accept or reject on
the embedded error, update the step-size controller, record a StepRecord.
phi non-convergence halves dt, an error excess re-tries with the
traditional proposal; ten consecutive rejections abort the run.  Runs are
deterministic for a fixed config and seed.
"""

import csv
import hashlib
import math
import time as _time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from xmhd.controllers import ControllerMode, ControllerState, accept
from xmhd.integrators import PHI_METHODS, Scheme, error_norm, step
from xmhd.linearize import FrozenLinearization, RhsOperator, estimate_alpha
from xmhd.mhd import BX, BY, BZ, EN, GAMMA, MX, MY, MZ, RHO, RhsWorkspace, discrete_div_b, \
    mhd_rhs, conserved_totals, read_checkpoint, write_checkpoint
from xmhd.scenarios import initialize

#: CSV column order of every report row
CSV_COLUMNS = ("scenario", "case", "scheme", "method", "controller", "tol",
               "nx", "ny", "t_final", "steps_accepted", "steps_rejected",
               "rhs_evals", "phi_iters", "wall_seconds", "global_error",
               "max_divb", "mass_drift", "status", "timestamp")

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
    rng_seed: int = 0
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
    cost: float


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


def _checksum(flat):
    return hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8").tobytes()).hexdigest()


def run(config):
    """Advance the configured scenario to t_final and return a RunReport."""
    spec = config.scenario
    params = spec.params
    state0 = initialize(spec)
    geometry = state0
    work = RhsWorkspace(state0.nx, state0.ny)
    rhs_op = RhsOperator(lambda flat: mhd_rhs(geometry.with_flat(flat), params, work))
    rng = np.random.default_rng(config.rng_seed)
    controller = ControllerState(config.controller, config.tol, config.scheme.embedded_order)

    u = state0.flat().copy()
    report = RunReport()
    mass0 = conserved_totals(state0)["rho"]
    report.max_divb = float(np.max(np.abs(discrete_div_b(state0, params))))
    if config.divb_every > 0:
        report.divb_series.append((0.0, report.max_divb))
        next_divb = config.divb_every
    next_checkpoint = config.checkpoint_every if config.checkpoint_every > 0 else np.inf

    t = 0.0
    t_final = spec.t_final
    dt = min(_initial_dt(state0), t_final) if t_final > 0 else 0.0
    est = None
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
        lin = alpha = None
        if config.scheme.is_exponential:
            lin = FrozenLinearization(rhs_op, u)
            if accepted % config.spectrum_interval == 0:
                before_spec = rhs_op.calls
                est = estimate_alpha(lin, est, rng=rng)
                report.spectrum_rhs_evals += rhs_op.calls - before_spec
            alpha = est.alpha

        # attempt loop: phi non-convergence halves dt, an error excess retries
        # with the traditional proposal
        for _ in range(MAX_CONSECUTIVE_REJECTIONS):
            attempt_start = rhs_op.calls
            res = step(config.scheme, rhs_op, u, dt, method=config.method,
                       alpha=alpha, tol=config.tol, lin=lin)
            ok = bool(res.converged and accept(res.error_estimate, config.tol))
            # an accepted step's cost proxy counts every rhs evaluation the step
            # needed (base evaluation, spectral refresh, rejected attempts included)
            spent = rhs_op.calls - (step_calls_start if ok else attempt_start)
            rec = StepRecord(t=t + dt if ok else t, dt=dt, error=res.error_estimate,
                             rhs_calls=spent, phi_iterations=res.phi_iterations,
                             phi_applications=res.phi_applications, accepted=ok,
                             cost=spent / dt)
            report.steps.append(rec)
            if ok:
                break
            dt = controller.after_reject(dt, rec.error) if res.converged else 0.5 * dt
        else:
            report.status = "failed: too many consecutive rejections"
            break

        t = rec.t
        u = res.new_state
        accepted += 1

        state = geometry.with_flat(u)
        divb = float(np.max(np.abs(discrete_div_b(state, params))))
        report.max_divb = max(report.max_divb, divb)
        if config.divb_every > 0:
            while next_divb <= t + 1e-12:
                report.divb_series.append((next_divb, divb))
                next_divb += config.divb_every
        if config.output_dir is not None and t + 1e-12 >= next_checkpoint:
            write_checkpoint(Path(config.output_dir) / f"state_t{t:.6f}.chk",
                             state, t)
            while next_checkpoint <= t + 1e-12:
                next_checkpoint += config.checkpoint_every

        dt = controller.after_accept(dt, rec.error, rec.cost)

    report.wall_seconds = _time.perf_counter() - started
    report.t_reached = t
    report.rhs_evals = rhs_op.calls
    final_state = geometry.with_flat(u)
    report.final_state = final_state
    report.checksum = _checksum(u)
    mass = conserved_totals(final_state)["rho"]
    report.mass_drift = abs(mass - mass0) / abs(mass0) if mass0 else 0.0
    if report.status != "ok" and config.output_dir is not None:
        write_checkpoint(Path(config.output_dir) / "abort.chk", final_state, t)
    return report


REFERENCE_TOL = 1e-11


def make_reference(config, path):
    """Run at tol 1e-11 with EXPRB43/Leja/combined and store the final state."""
    ref_cfg = replace(config, tol=REFERENCE_TOL, scheme=Scheme.EXPRB43,
                      method="leja", controller=ControllerMode.COMBINED)
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

    A missing or malformed reference (OSError, ValueError) and a tolerance
    that RunConfig refuses (ValueError) raise before any run.  A run that
    fails (non-convergence, budget, an exception) is recorded with a NaN
    error; its RunReport status names the failure, with the exception type
    and message, and its CSV status reads failed.  The sweep itself never
    aborts.
    """
    ref_state, _ = read_checkpoint(reference)
    ref_flat = ref_state.flat()

    rows = []
    for cfg in [replace(base, tol=tol) for tol in sorted(tols)]:
        try:
            report = run(cfg)
            if report.status == "ok":
                err = error_norm(report.final_state.flat(), ref_flat)
            else:
                err = float("nan")
        except Exception as exc:
            report = RunReport(status=f"failed: {type(exc).__name__}: {exc}")
            err = float("nan")
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

