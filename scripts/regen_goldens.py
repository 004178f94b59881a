"""Regenerate the golden trace CSVs committed under tests/golden/.

The determinism regression test compares freshly produced traces byte for
byte against these files, so they must only ever be regenerated after a
deliberate change to the simulation arithmetic.

Usage: python scripts/regen_goldens.py
"""

from __future__ import annotations

import pathlib

from paramodel.config_io import (
    builtin_config_dict,
    builtin_names,
    config_from_dict,
    run_records,
    write_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
DECIMATION = 100


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in builtin_names():
        path = GOLDEN_DIR / f"{name}_trace.csv"
        write_trace(run_records(config_from_dict(builtin_config_dict(name))), str(path), DECIMATION)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
