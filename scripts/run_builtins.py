"""Run every built-in through the CLI and write its trace CSV under out/.

Each run prints the CLI summary: the final error, the settling iteration
and, for a run with events, the settling of each event segment.  With
``--outdir tests/golden --decimate 100`` it rewrites the golden traces the
determinism tests compare byte for byte; do that only after a deliberate
change to the simulation arithmetic.

Usage: python scripts/run_builtins.py [--outdir DIR] [--decimate M]
"""

from __future__ import annotations

import argparse
import pathlib

from paramodel.cli import main as cli_main
from paramodel.config_io import DEFAULT_DECIMATION, builtin_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--decimate", type=int, default=DEFAULT_DECIMATION)
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name in builtin_names():
        code = cli_main(
            [
                "run",
                "--builtin",
                name,
                "--out",
                str(outdir / f"{name}_trace.csv"),
                "--decimate",
                str(args.decimate),
            ]
        )
        worst = max(worst, code)
        print()
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
