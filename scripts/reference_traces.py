"""Run the five built-ins with exp and tanh taken from mpmath and compare
the traces with the committed goldens.

exp and tanh are evaluated by mpmath at 200 bits and rounded to the
nearest double; everything else is the package's own arithmetic.  The
traces are written through the CLI, the path that writes the goldens.
The package's exp and tanh are correctly rounded, so the goldens must
equal these traces byte for byte.  mpmath is needed (it is in the
``test`` extra); the run takes about a minute.

Usage: python scripts/reference_traces.py [--outdir DIR]
"""

from __future__ import annotations

import argparse
import pathlib

import mpmath

import paramodel.controller
import paramodel.network
from paramodel.cli import main as cli_main
from paramodel.config_io import builtin_names

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
DECIMATION = 100


def nearest(value) -> float:
    """An mpmath number rounded once to the nearest double."""
    sign, man, e, _ = value._mpf_
    magnitude = man / (1 << -e) if e < 0 else float(man << e)
    return -magnitude if sign else magnitude


def reference(name: str):
    """mpmath's exp or tanh at 200 bits, rounded to nearest; tanh keeps -0.0."""
    fn = getattr(mpmath, name)

    def call(x: float) -> float:
        if x == 0.0 and name == "tanh":
            return x
        with mpmath.workprec(200):
            return nearest(fn(mpmath.mpf(x)))

    return call


def eval_with(self, weights, mask, x):
    """FeedforwardNet.eval_with with the reference tanh."""
    tanh = reference("tanh")
    values = [*x, *self._pad]
    for node_slot, terms in self._plan:
        acc = 0.0
        for src_slot, w_idx in terms:
            if mask[w_idx]:
                acc += weights[w_idx] * values[src_slot]
        values[node_slot] = tanh(acc)
    return values[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/reference")
    outdir = pathlib.Path(parser.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paramodel.network.FeedforwardNet.eval_with = eval_with
    paramodel.controller.exp = reference("exp")

    paths = []
    for name in builtin_names():
        paths.append(outdir / f"{name}_trace.csv")
        cli_main(["run", "--builtin", name, "--out", str(paths[-1]), "--decimate", str(DECIMATION)])

    differ = 0
    for path in paths:
        ours = (GOLDEN_DIR / path.name).read_text().splitlines()
        ref = path.read_text().splitlines()
        rows = sum(a != b for a, b in zip(ours, ref)) + abs(len(ours) - len(ref))
        differ += rows
        print(f"{path.name}: {rows} of {len(ref)} lines differ from the golden")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
