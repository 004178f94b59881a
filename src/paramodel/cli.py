"""Command-line entry point.

    paramodel run --builtin fig4
    paramodel run myrun.yaml --kp 0.8 --out trace.csv
    paramodel list

Exit codes: 0 converged, 1 did not converge within tolerance,
2 configuration error, 3 divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

from . import config_io
from .errors import DivergenceError, ParseError, ValidationError

__all__ = ["main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

BUILTIN_BLURBS = {
    "fig4": "train: constant data (0.2, 0.6) -> 0.55, skip weight w7 disabled",
    "fig5": "train: inputs change to (0.15, 0.7) at k1, reference to 0.6 at k2",
    "fig6": "train: hidden weight w4 dropped at k1",
    "fig7": "train: data change at k1, w7 dropped at k2, reference 0.6 at k3",
    "linsolve3": "linsolve: 3x3 system solved by three staggered controllers",
}

GAIN_FLAGS = ("kp", "ki", "k_alpha", "k_beta", "dt")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramodel",
        description="Tracking-control runs: online network-weight tuning and "
        "a distributed linear-system solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured run")
    run.add_argument("config_path", nargs="?", help="YAML run configuration file")
    run.add_argument("--builtin", help="name of a built-in run (see 'list')")
    run.add_argument("--out", help="trace CSV path (overrides config 'output')")
    run.add_argument("--decimate", type=int, help="record every M-th iteration")
    run.add_argument("--tol", type=float, help="convergence tolerance")
    run.add_argument("--horizon", type=int, help="iteration count")
    run.add_argument("--tau", type=float, help="filter time constant (s)")
    run.add_argument("--rho", type=float, help="gain stagger ratio in (0, 1]")
    for g in GAIN_FLAGS:
        run.add_argument(f"--{g.replace('_', '-')}", type=float, help=f"override gain {g}")

    sub.add_parser("list", help="list built-in runs")
    return parser


def _load_config_dict(args) -> dict:
    if (args.config_path is None) == (args.builtin is None):
        raise ValidationError(
            "exactly one of a config path or --builtin is required", key="run"
        )
    if args.builtin is not None:
        return config_io.builtin_config_dict(args.builtin)
    with open(args.config_path, "r", encoding="utf-8") as fh:
        return config_io.load_config_dict(fh.read())


def _apply_overrides(d: dict, args) -> dict:
    """Edit the config dict in place exactly as a user editing the file would.

    The flags form one edit document, merged into the file by
    ``config_io.merge``.  The gain, horizon, tau and rho flags edit the
    section the mode runs.  A key the file's explicit controllers or
    filters list replaces is then rejected by the parser, so no override
    is silently ignored; without a valid mode the parser rejects the file.
    """
    mode = d.get("mode")
    root = config_io.SECTIONS.get(mode) if isinstance(mode, str) else None
    gains = _given({g: getattr(args, g) for g in GAIN_FLAGS})
    section = _given({"gains": gains or None, "horizon": args.horizon, "tau": args.tau, "stagger_rho": args.rho})
    edit = _given({"output": args.out, "decimation": args.decimate, "tolerance": args.tol})
    if root is not None and section:
        edit[root] = section
    return config_io.merge(d, edit)


def _given(flags: dict) -> dict:
    """The entries of flags that were given (not None)."""
    return {k: v for k, v in flags.items() if v is not None}


def _run(config: config_io.RunConfig, label: str) -> int:
    """Run a configuration, print its summary and return the verdict."""
    train = config.mode == "train"
    spec = config.scenario if train else config.problem
    dt = spec.base_params.dt if train else spec.controllers[0].dt
    tol = config.tolerance
    if config.output is not None:
        # an unwritable path fails here, not after the whole run; the rows
        # are written after the run, so a divergence leaves the file empty
        with open(config.output, "w"):
            pass
    print(f"run: {label} ({config.mode}, horizon {spec.horizon}, dt {dt!r})")
    violations: list[int] = []
    rows = []
    records = config_io.run_records(config)
    rec = next(records)  # a horizon is at least 1
    error = config_io.error_measure(rec)
    for rec in chain((rec,), records):
        err = error(rec)
        if err >= tol:
            violations.append(rec.k)
        if rec.k % config.decimation == 0:
            rows.append(rec)
    # violations are errors >= tol, so the run settles within the horizon
    # exactly when its final error is < tol
    [(_, settle, converged)] = config_io.segment_settling(violations, [1], spec.horizon)
    starts = config_io.segment_starts(config.scenario.events if train else ())
    segments = config_io.segment_settling(violations, starts, spec.horizon)
    measure = "|y - y_ref|" if train else "max |y_j - b_j|"
    print(f"final {measure} = {err:.3e} (tolerance {tol!r})")
    if converged:
        print(f"settled from iteration {1 + settle} of {spec.horizon}")
    else:
        print("did not settle within the horizon")
    for k0, n, settled in segments if len(segments) > 1 else ():
        if not settled:
            verdict = "did not settle within its segment"
        elif k0 == 1:
            verdict = f"settled from iteration {1 + n}"
        else:
            verdict = f"re-settled after {n} iterations"
        print(f"{'initial segment' if k0 == 1 else f'event at iteration {k0}'}: {verdict}")
    if not train:
        print("x =", [f"{v:.6f}" for v in rec.x])
    if config.output is not None:
        # with no row kept, the last record, which the decimation drops,
        # still gives the header of its mode and width
        config_io.write_trace(rows or [rec], config.output, config.decimation)
        print(f"trace: {config.output} ({len(rows)} rows, decimation {config.decimation})")
    print(f"converged: {'yes' if converged else 'no'}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_run(args) -> int:
    """Load, edit, validate and run a configuration; every error of any of
    these steps is mapped to its exit code here."""
    try:
        d = _apply_overrides(_load_config_dict(args), args)
        return _run(config_io.config_from_dict(d), args.builtin or args.config_path)
    except OSError as err:
        print(f"IoError: {err}", file=sys.stderr)
        return EXIT_IO
    except (ParseError, UnicodeDecodeError) as err:
        print(f"ParseError: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as err:
        print(f"ValidationError: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE


def cmd_list() -> int:
    for name in config_io.builtin_names():
        print(f"{name:10s} {BUILTIN_BLURBS[name]}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
