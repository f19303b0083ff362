"""Layer probes: single-layer regimes that the workloads never reach.

* mhd_rhs on the khi-III initial state at 64^2, 128^2 and 256^2;
* one Leja and one Krylov phi action on the khi-III 64^2 Jacobian at the
  initial state, for l in {1, 4} and alpha dt in {5, 50, 400}, where alpha
  is the power-iteration estimate of the Jacobian's dominant magnitude.

Each figure comes from untraced calls into the package's public functions.
"""

import statistics
import time

RHS_CALLS = {64: 40, 128: 15, 256: 5}
PHI_ORDERS = (1, 4)
ALPHA_DT = (5, 50, 400)
PHI_TOL = 1e-6


def _rhs_ms_per_call(n, calls):
    from xmhd.mhd import mhd_rhs
    from xmhd.scenarios import initialize, make_scenario
    spec = make_scenario("khi-III", nx=n, ny=n)
    state = initialize(spec)
    mhd_rhs(state, spec.params)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        mhd_rhs(state, spec.params)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _phi_probes(seed):
    import numpy as np
    from xmhd.krylov import apply_phi_krylov
    from xmhd.leja import apply_phi_leja, shift_and_scale
    from xmhd.linearize import FrozenLinearization, RhsOperator, estimate_alpha, jvp
    from xmhd.mhd import mhd_rhs
    from xmhd.scenarios import initialize, make_scenario
    spec = make_scenario("khi-III", nx=64, ny=64)
    state = initialize(spec)
    op = RhsOperator(lambda flat: mhd_rhs(state.with_flat(flat), spec.params))
    lin = FrozenLinearization(op, state.flat().copy())
    alpha = estimate_alpha(lin, None, rng=np.random.default_rng(seed)).alpha

    def matvec(w):
        return jvp(lin, w)

    engines = {
        "leja": lambda l, v, dt: apply_phi_leja(l, matvec, v, dt,
                                                shift_and_scale(alpha * dt), PHI_TOL),
        "krylov": lambda l, v, dt: apply_phi_krylov(l, matvec, v, dt, PHI_TOL),
    }
    out = {}
    for engine, apply in engines.items():
        for l in PHI_ORDERS:
            for adt in ALPHA_DT:
                start = time.perf_counter()
                res = apply(l, lin.base_rhs, adt / alpha)
                key = f"probe.{engine}.l{l}.adt{adt}"
                out[f"{key}.wall_s"] = time.perf_counter() - start
                out[f"{key}.iters"] = res.iterations
                out[f"{key}.converged"] = int(bool(res.converged))
    return out


def layer_probes(seed):
    out = {f"probe.rhs.{n}.ms_per_call": _rhs_ms_per_call(n, calls)
           for n, calls in RHS_CALLS.items()}
    out.update(_phi_probes(seed))
    return out
