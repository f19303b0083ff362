"""Command-line entry point.

Examples:

    xmhd --problem khi --case III --nx 64 --ny 64 --tf 0.5 --tol 1e-4 \
         --integrator exprb43 --method leja --controller combined --output out/

    xmhd --problem khi --case III --nx 64 --ny 64 --make-reference --output out/

    xmhd --problem khi --case III --nx 64 --ny 64 \
         --sweep "tol=1e-3,1e-4,1e-5" --reference out/reference.chk --output out/

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from xmhd.controllers import ControllerMode
from xmhd.harness import CSV_COLUMNS, RunConfig, _row, make_reference, run, work_precision
from xmhd.integrators import PHI_METHODS, Scheme
from xmhd.mhd import write_checkpoint
from xmhd.scenarios import make_scenario


def _build_parser():
    # run defaults have one owner: the RunConfig fields
    d = RunConfig(scenario=None)
    p = argparse.ArgumentParser(prog="xmhd", description=__doc__,
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
                   help="reference checkpoint for global-error measurement")
    p.add_argument("--output", type=Path, default=None, metavar="DIR")
    p.add_argument("--config", type=Path, default=None, metavar="FILE",
                   help="flat key=value file; command-line flags override it")
    p.add_argument("--seed", type=int, default=d.rng_seed, metavar="N")
    p.add_argument("--sweep", default=None, metavar="SPEC",
                   help='work-precision sweep, e.g. "tol=1e-3,1e-4,1e-5"')
    p.add_argument("--make-reference", action="store_true",
                   help="store a tol=1e-11 reference checkpoint and exit")
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
    return make_scenario(name, nx=args.nx, ny=args.ny, t_final=args.tf,
                         tol=args.tol)


def _parse_sweep(sweep, config):
    """The sweep's tolerances; each must make a valid `config`."""
    if not sweep.startswith("tol="):
        raise ValueError('sweep spec must look like "tol=1e-3,1e-4,..."')
    tols = [float(v) for v in sweep[len("tol="):].split(",") if v]
    for tol in tols:
        replace(config, tol=tol)
    return tols


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # the config file supplies defaults; explicit flags win because they
    # come later on the synthetic command line
    if any(a == "--config" or a.startswith("--config=") for a in argv):
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", type=Path, default=None)
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            try:
                argv = _config_file_args(known.config) + argv
            except (OSError, ValueError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scenario = _scenario_from_args(args)
        # --make-reference ignores --integrator: make_reference sets its own
        scheme = Scheme.EXPRB43 if args.make_reference else Scheme(args.integrator)
        config = RunConfig(scenario=scenario,
                           scheme=scheme,
                           method=args.method,
                           controller=ControllerMode(args.controller),
                           tol=args.tol,
                           spectrum_interval=args.spectrum_interval,
                           output_dir=args.output,
                           checkpoint_every=args.checkpoint_every,
                           divb_every=args.divb_every,
                           rng_seed=args.seed,
                           max_steps=args.max_steps,
                           wall_budget=args.wall_budget)
        if args.checkpoint_every > 0 and args.output is None:
            raise ValueError("--checkpoint-every requires --output")
        if args.sweep and not args.make_reference:
            if args.reference is None:
                raise ValueError("--sweep requires --reference")
            tols = _parse_sweep(args.sweep, config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code
    out = args.output or Path(".")

    if args.make_reference:
        path = out / f"reference-{args.problem}-{scenario.case_id}.chk"
        report = make_reference(config, path)
        print(f"reference written to {path} "
              f"({report.accepted} steps, {report.rhs_evals} rhs evals)")
        return 0

    if args.sweep:
        csv_path = out / "work_precision.csv"
        rows = work_precision(config, tols, args.reference, csv_path)
        failed = sum(1 for r in rows if r["status"] != "ok")
        print(f"{len(rows)} cells -> {csv_path} ({failed} failed)")
        return 0

    report = run(config)
    print(f"status={report.status} t={report.t_reached:.6g} "
          f"steps={report.accepted}(+{report.rejected} rejected) "
          f"rhs={report.rhs_evals} phi_iters={report.phi_iterations} "
          f"max_divb={report.max_divb:.3e} mass_drift={report.mass_drift:.3e} "
          f"wall={report.wall_seconds:.2f}s")
    if args.output is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_checkpoint(out / "final.chk", report.final_state, report.t_reached)
        row_path = out / "run.csv"
        with open(row_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            err = float("nan")
            writer.writerow(_row(config, report, err))
    if config.divb_every > 0:
        csv_path = out / "divb_series.csv"
        out.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "max_divb"])
            writer.writerows([(repr(t), repr(v)) for t, v in report.divb_series])
        print(f"{len(report.divb_series)} div B samples -> {csv_path}")
    return 0 if report.status == "ok" else 3


if __name__ == "__main__":
    raise SystemExit(main())
