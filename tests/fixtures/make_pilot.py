#!/usr/bin/env python3
"""Regenerate pilot_monte_carlo.json: the frozen hit-fraction tables for the
three committed experiment configs.

The sampler is a pure function of (seed, index), so the acceptance tests
assert exact equality against this pilot.  Rerun only when a config or the
sampling scheme deliberately changes:

    python tests/fixtures/make_pilot.py
"""

import json
import pathlib
import time

from cosetapprox.experiment import (
    ExperimentConfig,
    check_conditions,
    exact_str,
    prepare,
)

HERE = pathlib.Path(__file__).parent
CONFIGS = ("convergent_control", "khintchine_d1", "power_residue_d2")


def main() -> None:
    pilot = {}
    for name in CONFIGS:
        cfg = ExperimentConfig.from_dict(json.loads((HERE / f"{name}.json").read_text()))
        t0 = time.time()
        exp = prepare(cfg)
        res = exp.monte_carlo()
        cond = check_conditions(exp)
        pilot[name] = {
            "counts": {str(m): {str(kp): res.counts[m][kp] for kp in res.k_ladder}
                       for m in res.m_values},
            "samples": res.samples,
            "total_hits": res.total_hits,
            "union_bound": exact_str(cond.union_bound),
            "c_ratio_final": exact_str(cond.c_ratio_final),
            "c_ratio_min": exact_str(cond.c_ratio_min),
        }
        print(f"{name}: {time.time() - t0:.1f}s, total hits {res.total_hits}")
    out = HERE / "pilot_monte_carlo.json"
    out.write_text(json.dumps(pilot, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
