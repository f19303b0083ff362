"""Command-line entry point.

Examples:

    xmhd --problem khi --case III --nx 64 --ny 64 --tf 0.5 --tol 1e-4 \
         --integrator exprb43 --method leja --controller combined --output out/

    xmhd --problem khi --case III --nx 64 --ny 64 --make-reference --output out/

    xmhd --problem khi --case III --nx 64 --ny 64 \
         --sweep "tol=1e-3,1e-4,1e-5" --reference out/reference.chk --output out/

Exit codes: 0 success, 2 configuration error, 3 numerical abort (also a
sweep in which no run succeeded).
"""

import argparse
import sys
from pathlib import Path

from xmhd.controllers import ControllerMode
from xmhd.harness import CSV_COLUMNS, RunConfig, _row, make_reference, run, work_precision, \
    write_csv
from xmhd.integrators import PHI_METHODS, Scheme
from xmhd.mhd import write_checkpoint
from xmhd.scenarios import make_scenario


def _build_parser():
    # run defaults have one owner: the RunConfig fields
    d = RunConfig(scenario=None)
    # exit_on_error=False: a bad value or a flag clash raises ArgumentError,
    # which main reports as a one-line configuration error
    p = argparse.ArgumentParser(prog="xmhd", description=__doc__, exit_on_error=False,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--problem", choices=["khi", "recon"], required=True)
    p.add_argument("--case", default=None,
                   help="case id (khi: I-IV, recon: V-VI); defaults per problem")
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--tf", type=float, default=None, help="final simulation time")
    p.add_argument("--tol", type=float, default=d.tol)
    p.add_argument("--integrator", choices=sorted(s.value for s in Scheme),
                   default=d.scheme.value)
    p.add_argument("--method", choices=PHI_METHODS, default=d.method)
    p.add_argument("--controller", choices=sorted(m.value for m in ControllerMode),
                   default=d.controller.value)
    p.add_argument("--spectrum-interval", type=int, default=d.spectrum_interval, metavar="N")
    p.add_argument("--reference", type=Path, default=None, metavar="PATH",
                   help="reference checkpoint of a --sweep, for its global errors")
    p.add_argument("--output", type=Path, default=None, metavar="DIR")
    p.add_argument("--config", type=Path, default=None, metavar="FILE",
                   help="flat key=value file; command-line flags override it")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sweep", default=None, metavar="SPEC",
                      help='work-precision sweep, e.g. "tol=1e-3,1e-4,1e-5"')
    mode.add_argument("--make-reference", action="store_true",
                      help="store a tol=1e-11 DOPRI54 reference checkpoint and exit")
    p.add_argument("--divb-every", type=float, default=d.divb_every, metavar="T",
                   help="emit a (t, max |div B|) CSV sampled every T time units")
    p.add_argument("--checkpoint-every", type=float, default=d.checkpoint_every, metavar="T")
    p.add_argument("--max-steps", type=int, default=d.max_steps)
    p.add_argument("--wall-budget", type=float, default=d.wall_budget)
    return p


def _config_file_args(path):
    """Turn key=value lines into long options prepended before the real argv."""
    args = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if value.lower() in ("true", "yes", "on"):
            args.append(f"--{key}")
        else:
            args.append(f"--{key}={value}")
    return args


def _scenario_from_args(args):
    default_case = {"khi": "III", "recon": "VI"}[args.problem]
    case = args.case or default_case
    name = f"{args.problem}-{case}"
    return make_scenario(name, nx=args.nx, ny=args.ny, t_final=args.tf)


def _parse_sweep(sweep):
    """The sweep's tolerances; work_precision checks each before any run."""
    if not sweep.startswith("tol="):
        raise ValueError('sweep spec must look like "tol=1e-3,1e-4,..."')
    return [float(v) for v in sweep[len("tol="):].split(",") if v]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=Path, default=None)
    try:
        # the config file supplies defaults; explicit flags win because they
        # come later on the synthetic command line
        config_file = pre.parse_known_args(argv)[0].config
        if config_file is not None:
            argv = _config_file_args(config_file) + argv
        args = _build_parser().parse_args(argv)
        scenario = _scenario_from_args(args)
        # --make-reference ignores --integrator: make_reference sets its own
        scheme = Scheme.DOPRI54 if args.make_reference else Scheme(args.integrator)
        config = RunConfig(scenario=scenario,
                           scheme=scheme,
                           method=args.method,
                           controller=ControllerMode(args.controller),
                           tol=args.tol,
                           spectrum_interval=args.spectrum_interval,
                           output_dir=args.output,
                           checkpoint_every=args.checkpoint_every,
                           divb_every=args.divb_every,
                           max_steps=args.max_steps,
                           wall_budget=args.wall_budget)
        if args.checkpoint_every > 0 and args.output is None:
            raise ValueError("--checkpoint-every requires --output")
        if args.reference is not None and args.sweep is None:
            # only a sweep measures a global error
            raise ValueError("--reference requires --sweep")
        out = args.output or Path(".")
        if args.sweep is not None:
            if args.reference is None:
                raise ValueError("--sweep requires --reference")
            # the sweep makes the directory once it has checked its reference
            csv_path = out / "work_precision.csv"
            rows = work_precision(config, _parse_sweep(args.sweep), args.reference, csv_path)
            failed = sum(1 for r in rows if r["status"] != "ok")
            print(f"{len(rows)} cells -> {csv_path} ({failed} failed)")
            return 3 if failed == len(rows) else 0
        out.mkdir(parents=True, exist_ok=True)
        if args.make_reference:
            path = out / f"reference-{args.problem}-{scenario.case_id}.chk"
            report = make_reference(config, path)
            print(f"reference written to {path} "
                  f"({report.accepted} steps, {report.rhs_evals} rhs evals)")
            return 0
    except (ValueError, OSError, argparse.ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the reference run failed
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return exc.code

    report = run(config)
    print(f"status={report.status} t={report.t_reached:.6g} "
          f"steps={report.accepted}(+{report.rejected} rejected) "
          f"rhs={report.rhs_evals} phi_iters={report.phi_iterations} "
          f"max_divb={report.max_divb:.3e} mass_drift={report.mass_drift:.3e} "
          f"wall={report.wall_seconds:.2f}s")
    if args.output is not None:
        write_checkpoint(out / "final.chk", report.final_state, report.t_reached)
        write_csv(out / "run.csv", CSV_COLUMNS, [_row(config, report, float("nan"))])
    if config.divb_every > 0:
        csv_path = out / "divb_series.csv"
        write_csv(csv_path, ("t", "max_divb"),
                  [{"t": repr(t), "max_divb": repr(v)} for t, v in report.divb_series])
        print(f"{len(report.divb_series)} div B samples -> {csv_path}")
    return 0 if report.status == "ok" else 3


if __name__ == "__main__":
    raise SystemExit(main())
