"""Regenerate the stored reference final states of the benchmark workloads.

    python3 perfbench/make_refs.py

Each reference is computed by a path independent of the workloads'
exponential integrators: DOPRI54 at tol 1e-10 with the traditional
controller.  The benchmark only reads the stored files, so a change to the
right-hand side is measured against the states of the code that wrote them.
"""

import sys

import run as bench

REFERENCE_SCHEME = "dopri54"
REFERENCE_TOL = 1e-10


def main():
    bench.load_xmhd()
    import numpy as np
    from dataclasses import replace
    from xmhd.controllers import ControllerMode
    from xmhd.harness import run
    from xmhd.integrators import Scheme
    done = set()
    bench.REFS.mkdir(exist_ok=True)
    for workload in bench.WORKLOADS.values():
        if workload.reference in done:
            continue
        done.add(workload.reference)
        cfg = replace(bench.make_config(workload, 0), scheme=Scheme(REFERENCE_SCHEME),
                      tol=REFERENCE_TOL, controller=ControllerMode.TRADITIONAL,
                      checkpoint_every=0.0, divb_every=0.0)
        report = run(cfg)
        if report.status != "ok":
            raise SystemExit(f"reference for {workload.name} failed: {report.status}")
        np.savez(workload.reference, state=report.final_state.flat(),
                 preset=workload.preset, n=workload.n, t_final=workload.t_final,
                 t_reached=report.t_reached, scheme=REFERENCE_SCHEME,
                 tol=REFERENCE_TOL, rhs_evals=report.rhs_evals)
        print(f"{workload.reference.name}: {report.accepted} steps, "
              f"{report.rhs_evals} rhs evals, t={float(report.t_reached)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
