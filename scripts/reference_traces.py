"""Run the five built-ins with exp and tanh taken from mpmath and compare
the traces with the committed goldens.

exp and tanh are evaluated by mpmath at 200 bits and rounded to the
nearest double; everything else is the package's own arithmetic.  The
package writes the fast paths of its exp and tanh out in the code it
generates, so the reference goes in through one seam, ``substituted``:
within it every node sum of a forward pass calls the reference tanh and
every decay value is the reference exp's, so each exp and tanh the runs
take comes from the reference.  The traces are written by
``run_builtins.py --decimate 100``, the command that writes the goldens.
The package's exp and tanh are correctly rounded, so the goldens must
equal these traces byte for byte.  The script exits 1 if a line differs,
or if the reference exp or tanh was called other than the pinned number
of times (``CALLS_EXPECTED``).  mpmath is needed (it is in the ``test``
extra); the run takes about a minute.

Usage: python scripts/reference_traces.py [--outdir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
from typing import Callable

from paramodel import controller, network, trainer

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"


@contextlib.contextmanager
def substituted(exp: Callable[[float], float], tanh: Callable[[float], float]):
    """Within, the package's runs take ``exp`` and ``tanh`` in place of its
    own.

    ``network.tanh`` is ``tanh`` and ``network.TANH_INLINED`` is 0, so a
    forward pass written meanwhile, the evaluator's or a trainer's
    segment, calls ``tanh`` for every node sum; ``controller._decay_loop``
    fills a decay block by a call of ``exp`` per value.  The caches of
    what those write, the segments, the evaluators and the decay blocks,
    are cleared on entry and again on exit, so none is served across the
    seam.
    """

    def decay_loop(ks, m, dt, append):
        for k in ks:
            append(exp(m * (k * dt)))

    caches = (trainer._segment, network._compile, controller._decay_block)
    saved = network.tanh, network.TANH_INLINED, controller._decay_loop
    for cache in caches:
        cache.cache_clear()
    network.tanh, network.TANH_INLINED, controller._decay_loop = tanh, 0, decay_loop
    try:
        yield
    finally:
        network.tanh, network.TANH_INLINED, controller._decay_loop = saved
        for cache in caches:
            cache.cache_clear()


def nearest(value) -> float:
    """An mpmath number rounded once to the nearest double."""
    sign, man, e, _ = value._mpf_
    magnitude = man / (1 << -e) if e < 0 else float(man << e)
    return -magnitude if sign else magnitude


CALLS = {"exp": 0, "tanh": 0}

#: The calls of the reference exp and tanh that the five built-ins make.
#: exp fills the decay columns the runs read, in blocks of
#: ``controller.DECAY_BLOCK`` steps each computed once (587 blocks); tanh
#: is called once per distinct node sum of each training iteration.  A
#: binding the substitution missed leaves the package's own function
#: running for some of the calls, and so does a loop that computes a
#: value more or fewer times than it did: either shows here.
CALLS_EXPECTED = {"exp": 150_272, "tanh": 880_001}


def reference(name: str) -> Callable[[float], float]:
    """mpmath's exp or tanh at 200 bits, rounded to nearest; tanh keeps -0.0.
    Each call is counted in CALLS."""
    import mpmath  # here: the tests load this module for its seam alone

    fn = getattr(mpmath, name)

    def call(x: float) -> float:
        CALLS[name] += 1
        if x == 0.0 and name == "tanh":
            return x
        with mpmath.workprec(200):
            return nearest(fn(mpmath.mpf(x)))

    return call


def main() -> int:
    import run_builtins  # beside this script, on sys.path when it runs as one

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/reference")
    outdir = pathlib.Path(parser.parse_args().outdir)
    with substituted(reference("exp"), reference("tanh")):
        run_builtins.main(["--outdir", str(outdir), "--decimate", "100"])

    differ = 0
    for golden in sorted(GOLDEN_DIR.iterdir()):
        ours = golden.read_text().splitlines()
        ref = (outdir / golden.name).read_text().splitlines()
        rows = sum(a != b for a, b in zip(ours, ref)) + abs(len(ours) - len(ref))
        differ += rows
        print(f"{golden.name}: {rows} of {len(ref)} lines differ from the golden")
    print("reference calls:", ", ".join(f"{name} {n:,}" for name, n in CALLS.items()))
    miscounted = [name for name, n in CALLS.items() if n != CALLS_EXPECTED[name]]
    for name in miscounted:
        print(f"the reference {name} was called {CALLS[name]:,} times, not {CALLS_EXPECTED[name]:,}")
    return 1 if differ or miscounted else 0


if __name__ == "__main__":
    raise SystemExit(main())
