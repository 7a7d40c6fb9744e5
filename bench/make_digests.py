#!/usr/bin/env python3
"""Regenerate bench/digests.json, the reference SHA-256 of each experiment
workload's summary, keyed by config label and seed.

Every digest comes from a serial run (`--threads 1`), so a workload that uses
the process pool is held to the serial summary of the same config.  Rerun only
when a workload's config deliberately changes (a few minutes):

    python3 bench/make_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEEDS = range(0, 41)


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    table: dict[str, dict[str, str]] = {}
    for w in run.WORKLOADS.values():
        if not isinstance(w, run.ExperimentWorkload):
            continue
        serial = dataclasses.replace(w, threads=1)
        for seed in sorted({w.default_seed(), *SEEDS}):
            if str(seed) in table.get(w.label, {}):
                continue
            session = serial.session(seed, "digest")
            session.clear_caches()
            if session.run(None) != 0:
                raise SystemExit(f"{w.name} seed {seed}: the experiment failed")
            blob = session.summary_path.read_bytes()
            table.setdefault(w.label, {})[str(seed)] = hashlib.sha256(blob).hexdigest()
            print(f"{w.label} {seed}", flush=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
