#!/usr/bin/env python3
"""One-off traced run of the three committed fixtures at full size
(K = 10000, samples = 500, serial), checked against
tests/fixtures/pilot_monte_carlo.json.  It ties the scaled workloads of
run.py to the ROADMAP baseline.  Takes about three minutes:

    python3 bench/pilot.py

Prints one line per fixture with the wall time, the layer times and whether
the F table, total hits, union bound and density ratios match the pilot.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from spans import Tracer, op_layer_metrics  # noqa: E402

FIXTURES = ("convergent_control", "khintchine_d1", "power_residue_d2")


def matches_pilot(summary: dict, frozen: dict) -> bool:
    counts = {m: {kp: cell["count"] for kp, cell in row.items()} for m, row in summary["F"].items()}
    cond = summary["conditions"]
    return (
        counts == frozen["counts"]
        and summary["samples"] == frozen["samples"]
        and summary["total_hits"] == frozen["total_hits"]
        and summary["union_bound"]["exact"] == frozen["union_bound"]
        and cond["c_ratio_final"]["exact"] == frozen["c_ratio_final"]
        and cond["c_ratio_min"]["exact"] == frozen["c_ratio_min"]
    )


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    pilot = json.loads((run.ROOT / "tests" / "fixtures" / "pilot_monte_carlo.json").read_text())
    print(run.machine_facts())
    ok = True
    for fixture in FIXTURES:
        w = run.ExperimentWorkload(f"pilot-{fixture}", fixture, K=10_000, samples=500)
        session = w.session(w.default_seed(), "pilot")
        session.clear_caches()
        tracer = Tracer()
        tracer.install()
        root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            rc = session.run(None)
        finally:
            wall = time.perf_counter() - t0
            tracer.close(root)
            tracer.uninstall()
        m = op_layer_metrics(tracer.take())
        same = rc == 0 and matches_pilot(json.loads(session.summary_path.read_text()), pilot[fixture])
        ok &= same
        print(
            f"{fixture}: wall {wall:.1f}s  find_hits {m['experiment.find_hits_s']:.1f}s  "
            f"conditions {m['experiment.conditions_s']:.1f}s  prepare {m['experiment.prepare_s']:.2f}s "
            f"({m['experiment.prepare_calls']} calls)  monte_carlo self {m['experiment.monte_carlo_self_s']:.2f}s  "
            f"cli self {m['cli.experiment_self_s']:.2f}s  max_int_bits {m['experiment.max_int_bits']}  "
            f"hits {m['experiment.hits']}  pilot {'match' if same else 'MISMATCH'}",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
