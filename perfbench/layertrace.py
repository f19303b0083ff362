"""In-memory spans around the module-level bindings through which xmhd's
layers call each other, and the per-layer metrics derived from them.

Tracing replaces each binding in BINDINGS with a wrapper that records one
span (name, parent, start, end, info) per call and restores the original on
exit.  Nothing inside the package changes; a binding that no longer exists
fails loudly, because the metrics built on it would be silently wrong.
"""

import importlib
import os
import statistics
import time
from contextlib import contextmanager

NAME, PARENT, START, END, INFO = range(5)

STEP = "integrators.step"
SPECTRUM = "linearize.spectrum"
BASE = "linearize.base"
RHS = "mhd.rhs"
DIV_B = "mhd.div_b"
CHECKPOINT = "mhd.checkpoint"
LEJA = "leja.apply"
KRYLOV = "krylov.apply"
JVP = "linearize.jvp"
DIVDIFF = "phi.divdiff"
RUN = "harness.run"

#: span name that fixes the purpose of every rhs evaluation beneath it; the
#: innermost such ancestor wins (a jvp inside a phi action is jvp_phi, a jvp
#: on a stage increment is stage)
PURPOSE_OF = {SPECTRUM: "spectrum", BASE: "base", LEJA: "jvp_phi",
              KRYLOV: "jvp_phi", STEP: "stage"}
PURPOSES = ("base", "stage", "jvp_phi", "spectrum")


def _phi_info(args, kwargs, result):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _leja_info(args, kwargs, result):
    # apply_phi_leja(l, matvec, v, dt, shift, tol): the interval [-alpha dt, 0]
    # is mapped onto [-2, 2] with theta = alpha dt / 4
    shift = args[4] if len(args) > 4 else kwargs["shift"]
    return dict(_phi_info(args, kwargs, result), alpha_dt=4.0 * shift.theta)


def _step_info(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _checkpoint_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (module, attribute, span name, info extractor)
BINDINGS = (
    ("xmhd.harness", "step", STEP, _step_info),
    ("xmhd.harness", "estimate_alpha", SPECTRUM, None),
    ("xmhd.harness", "FrozenLinearization", BASE, None),
    ("xmhd.harness", "mhd_rhs", RHS, None),
    ("xmhd.harness", "discrete_div_b", DIV_B, None),
    ("xmhd.harness", "write_checkpoint", CHECKPOINT, _checkpoint_info),
    ("xmhd.integrators", "apply_phi_leja", LEJA, _leja_info),
    ("xmhd.integrators", "apply_phi_krylov", KRYLOV, _phi_info),
    ("xmhd.integrators", "jvp", JVP, None),
    ("xmhd.linearize", "jvp", JVP, None),
    ("xmhd.leja", "_phi_divided_diffs", DIVDIFF, None),
)


class Tracer:
    """Collects spans of one single-threaded run; parents come from a stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced


@contextmanager
def patched(tracer):
    """Route every binding in BINDINGS through `tracer` for the with-block."""
    saved = []
    try:
        for module, attr, name, info in BINDINGS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                raise RuntimeError(f"traced binding {module}.{attr} is gone; "
                                   "the benchmark's layer map needs updating")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def analyse(spans, report):
    """Per-layer metrics of one traced run, and the trace-agreement failures.

    `spans` must hold exactly one root span (the harness.run call); `report`
    is the RunReport that run returned.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    purpose = [None] * n
    attempt = [-1] * n      # enclosing step attempt
    refresh = [-1] * n      # enclosing spectral estimate
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        purpose[i] = PURPOSE_OF.get(s[NAME], purpose[p] if p >= 0 else None)
        attempt[i] = i if s[NAME] == STEP else (attempt[p] if p >= 0 else -1)
        refresh[i] = i if s[NAME] == SPECTRUM else (refresh[p] if p >= 0 else -1)
    self_time = [d - c for d, c in zip(dur, child)]

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def busy(idx):
        return sum(dur[i] for i in idx)

    def self_s(idx):
        return sum(self_time[i] for i in idx)

    def iters(idx):
        return sum(spans[i][INFO]["iters"] for i in idx)

    def nonconverged(idx):
        return sum(not spans[i][INFO]["converged"] for i in idx)

    rhs, steps = of(RHS), of(STEP)
    leja, krylov = of(LEJA), of(KRYLOV)
    spectrum = of(SPECTRUM)
    checkpoints, roots = of(CHECKPOINT), [i for i in range(n) if spans[i][PARENT] < 0]

    failures = []
    records = list(report.steps)
    if len(steps) != len(records):
        failures.append(f"trace has {len(steps)} step attempts, report has {len(records)}")
        records = records[:len(steps)] + [None] * (len(steps) - len(records))
    accepted = {i: bool(rec is not None and rec.accepted) for i, rec in zip(steps, records)}

    by_purpose = {p: 0 for p in PURPOSES}
    rejected_rhs = 0
    for i in rhs:
        if purpose[i] in by_purpose:
            by_purpose[purpose[i]] += 1
        if attempt[i] >= 0 and not accepted[attempt[i]]:
            rejected_rhs += 1
    spectrum_rhs = by_purpose["spectrum"]
    refreshes = len({refresh[i] for i in rhs} - {-1})

    phi_spans = leja + krylov
    phi_accepted = iters(i for i in phi_spans if attempt[i] >= 0 and accepted[attempt[i]])
    per_attempt = {i: 0 for i in steps}
    for i in phi_spans:
        if attempt[i] >= 0:
            per_attempt[attempt[i]] += spans[i][INFO]["iters"]
    alpha_dt = [spans[i][INFO]["alpha_dt"] for i in leja]

    if len(roots) != 1 or spans[roots[0]][NAME] != RUN:
        failures.append(f"trace must have one {RUN} root span, found {len(roots)}")
    if len(rhs) != report.rhs_evals:
        failures.append(f"traced rhs calls {len(rhs)} != rhs_evals {report.rhs_evals}")
    if sum(by_purpose.values()) != report.rhs_evals:
        failures.append(f"rhs evals by purpose sum to {sum(by_purpose.values())}, "
                        f"not rhs_evals {report.rhs_evals}")
    if spectrum_rhs != report.spectrum_rhs_evals:
        failures.append(f"spectrum rhs evals {spectrum_rhs} != report "
                        f"{report.spectrum_rhs_evals}")
    if phi_accepted != report.phi_iterations:
        failures.append(f"phi iterations over accepted attempts {phi_accepted} != "
                        f"phi_iterations {report.phi_iterations}")
    for i, rec in zip(steps, records):
        if rec is not None and per_attempt[i] != rec.phi_iterations:
            failures.append(f"step attempt at t={rec.t} traced {per_attempt[i]} phi "
                            f"iterations, recorded {rec.phi_iterations}")
            break
    total_self = sum(self_time)
    root_s = busy(roots)
    if abs(total_self - root_s) > 1e-9 * max(1.0, root_s):
        failures.append(f"self times sum to {total_self}, root span lasts {root_s}")

    metrics = {
        "mhd.rhs.calls": len(rhs),
        "mhd.rhs.busy_s": busy(rhs),
        "mhd.rhs.ms_per_call": 1e3 * busy(rhs) / len(rhs) if rhs else 0.0,
        "mhd.div_b.busy_s": busy(of(DIV_B)),
        "mhd.checkpoint.writes": len(checkpoints),
        "mhd.checkpoint.bytes": sum(spans[i][INFO]["bytes"] for i in checkpoints),
        "mhd.checkpoint.busy_s": busy(checkpoints),
        "linearize.jvp.calls": len(of(JVP)),
        "linearize.jvp.self_s": self_s(of(JVP)),
        "linearize.spectrum.refreshes": refreshes,
        "linearize.spectrum.rhs_evals": spectrum_rhs,
        "linearize.spectrum.busy_s": busy(spectrum),
        "linearize.base.rhs_evals": by_purpose["base"],
        "leja.apply.calls": len(leja),
        "leja.apply.iters": iters(leja),
        "leja.apply.self_s": self_s(leja),
        "leja.apply.nonconverged": nonconverged(leja),
        "leja.apply.alpha_dt_p50": statistics.median(alpha_dt) if alpha_dt else 0.0,
        "leja.apply.alpha_dt_max": max(alpha_dt, default=0.0),
        "phi.divdiff.calls": len(of(DIVDIFF)),
        "phi.divdiff.busy_s": busy(of(DIVDIFF)),
        "krylov.apply.calls": len(krylov),
        "krylov.apply.iters": iters(krylov),
        "krylov.apply.self_s": self_s(krylov),
        "krylov.apply.nonconverged": nonconverged(krylov),
        "integrators.step.calls": len(steps),
        "integrators.step.self_s": self_s(steps),
        "integrators.step.nonconverged": nonconverged(steps),
        "harness.run.self_s": self_s(roots),
        "harness.rejected_rhs_share": rejected_rhs / len(rhs) if rhs else 0.0,
        "phi_iters.accepted": phi_accepted,
        "phi_iters.all": iters(phi_spans),
    }
    for p in PURPOSES:
        metrics[f"rhs_evals.by_purpose.{p}"] = by_purpose[p]
    return metrics, failures


def span_records(spans):
    """JSON-ready form of the spans, for writing out after the run."""
    return [{"id": i, "name": s[NAME], "parent": s[PARENT], "start": s[START],
             "end": s[END], **(s[INFO] or {})} for i, s in enumerate(spans)]
