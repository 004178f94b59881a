"""Measure settling behavior of the built-in runs.

Prints, for every built-in run, the first iteration from which the
tracking band (|y - y_ref| < tol, or max_j |y_j - b_j| < tol for the
linear solver) holds through to the next event (or the end of the run),
plus the re-settling time after each event.  The fig4 initial-settling
iteration is the source of the frozen regression budget used by the test
suite (budget = 2 x settling iteration).

Usage: python scripts/settling_report.py [--tol X]
"""

from __future__ import annotations

import argparse

from paramodel.config_io import (
    DEFAULT_TOLERANCE,
    builtin_config_dict,
    builtin_names,
    config_from_dict,
    run_records,
    segment_settling,
    tracking_error,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args()

    budget_source = None
    for name in builtin_names():
        config = config_from_dict(builtin_config_dict(name))
        events = config.scenario.events if config.scenario else ()
        horizon = (config.scenario or config.problem).horizon
        viols = [rec.k for rec in run_records(config) if tracking_error(rec) >= args.tol]
        print(f"{name}: horizon {horizon}, band tol {args.tol}")
        for k0, settle, ok in segment_settling(viols, [1, *(e.at for e in events if e.at > 0)], horizon):
            status = "" if ok else "  [did not settle in segment]"
            if k0 == 1:
                print(f"  initial            settles from iteration {k0 + settle}{status}")
                if name == "fig4":
                    budget_source = k0 + settle
            else:
                print(f"  event at k={k0:<6d} re-settles after {settle} iterations{status}")
        print()
    if budget_source is not None:
        print(f"fig4 settles from iteration {budget_source}")
        print(f"frozen regression budget (2x): {2 * budget_source} iterations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
