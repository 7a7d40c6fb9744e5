"""Acceptance suite: one test per criterion, each printing a PASS line and
holding the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from cosetapprox import verify
from cosetapprox.cli import main as cli_main
from cosetapprox.experiment import ExperimentConfig, check_conditions, prepare
from helpers import exact_fraction

F = Fraction


def report(num, name, started):
    print(f"[criterion {num:2d}] {name}: PASS ({time.monotonic() - started:.1f}s)")


@pytest.fixture(scope="module")
def mc_runs(fixtures_dir):
    configs = {}
    results = {}
    conditions = {}
    t0 = time.monotonic()
    for name in ("convergent_control", "khintchine_d1", "power_residue_d2"):
        cfg = ExperimentConfig.from_dict(
            json.loads((fixtures_dir / f"{name}.json").read_text())
        )
        configs[name] = cfg
        started = time.monotonic()
        exp = prepare(cfg)
        results[name] = exp.monte_carlo()
        conditions[name] = check_conditions(exp)
        print(f"  [mc] {name}: {time.monotonic() - started:.1f}s")
    pilot = json.loads((fixtures_dir / "pilot_monte_carlo.json").read_text())
    return configs, results, conditions, pilot, time.monotonic() - t0


# criterion -> (verify check, PASS label, runtime budget in s, full-scale detail);
# each runs at the full-scale arguments of verify._CHECKS
CRITERIA = {
    1: ("formula_oracle", "formula-oracle equivalence", 120, "30000 (n, d) pairs, 0 mismatches"),
    2: ("subgroup_consistency", "subgroup order and index", math.inf,
        "n <= 2000, d <= 6, 0 violations"),
    3: ("sieve_identity", "sieve identity", math.inf, "n <= 2000, 40 mu values, 0 violations"),
    4: ("character_axioms", "character count and orthogonality", math.inf,
        "n <= 500, 0 violations, worst deviation 1.66e-13"),
    5: ("polya_vinogradov", "Polya-Vinogradov sweep", 300,
        "n <= 1000, 0 violations, min slack 2.806"),
    6: ("counting_identity", "character-sum counting identity", math.inf,
        "200 tuples, 0 violations, worst deviation 4.90e-14"),
    7: ("equidistribution_bound", "explicit equidistribution bound", math.inf,
        "200 tuples, 0 violations, worst normalized error 0.043"),
    8: ("overlap_theta", "overlap formula theta", math.inf,
        "1000 cases (803 against the clipping oracle), 0 bad"),
}


def run_criterion(num):
    name, label, budget, detail = CRITERIA[num]
    check, _, full_args = verify._CHECKS[name]
    t0 = time.monotonic()
    result = check(*full_args)
    elapsed = time.monotonic() - t0
    assert result == (True, detail)
    assert elapsed < budget, f"runtime {elapsed:.0f}s exceeds {budget}s"
    report(num, f"{label} ({detail})", t0)


def test_criterion_01_formula_oracle_equivalence():
    run_criterion(1)


def test_criterion_02_subgroup_consistency():
    run_criterion(2)


def test_criterion_03_sieve_identity():
    run_criterion(3)


def test_criterion_04_character_axioms():
    run_criterion(4)


def test_criterion_05_polya_vinogradov_sweep():
    run_criterion(5)


def test_criterion_06_counting_identity():
    run_criterion(6)


def test_criterion_07_equidistribution_bound():
    run_criterion(7)


def test_criterion_08_overlap_theta():
    run_criterion(8)


def test_criterion_09_monte_carlo_dichotomy(mc_runs):
    t0 = time.monotonic()
    configs, results, conditions, pilot, mc_elapsed = mc_runs

    # (i) convergent control: hit fraction within union bound + 3 sigma
    res = results["convergent_control"]
    ub = min(conditions["convergent_control"].union_bound, F(1))
    sigma = math.sqrt(float(ub) * max(0.0, 1 - float(ub)) / res.samples)
    observed = res.fraction(1, configs["convergent_control"].K)
    assert float(observed) <= float(ub) + 3 * sigma, (
        f"control fraction {float(observed):.4f} exceeds "
        f"{float(ub):.4f} + 3*{sigma:.4f}"
    )

    # (ii) divergent configs: certified density ratio, monotone ladder growth,
    # strict growth between K' = 100 and K' = 10^4, pilot-calibrated values
    for name in ("khintchine_d1", "power_residue_d2"):
        res = results[name]
        cond = conditions[name]
        assert cond.c_ratio_final > F(2, 5), (
            f"{name}: final density ratio {float(cond.c_ratio_final):.4f} not above 2/5"
        )
        ladder = res.k_ladder
        assert ladder[0] == 100 and ladder[-1] == 10_000
        for m in res.m_values:
            for lo, hi in zip(ladder, ladder[1:]):
                assert res.counts[m][lo] <= res.counts[m][hi], (name, m, lo, hi)
        for m in (1, 3, 5):
            assert res.counts[m][10_000] > res.counts[m][100], (
                f"{name}: F({m}, 10^4) = {res.counts[m][10_000]}/{res.samples} "
                f"not strictly above F({m}, 10^2) = {res.counts[m][100]}/{res.samples}"
            )

    # pilot thresholds: frozen by the committed oracle run, matched exactly
    for name, res in results.items():
        frozen = pilot[name]
        got = {str(m): {str(kp): res.counts[m][kp] for kp in res.k_ladder}
               for m in res.m_values}
        assert got == frozen["counts"], f"{name}: F table drifted from the pilot run"
        assert res.total_hits == frozen["total_hits"]
        assert conditions[name].union_bound == exact_fraction(frozen["union_bound"])
        assert conditions[name].c_ratio_final == exact_fraction(frozen["c_ratio_final"])

    total = mc_elapsed + (time.monotonic() - t0)
    assert total < 600, f"runtime {total:.0f}s exceeds 10 min"
    print(
        f"[criterion  9] Monte Carlo dichotomy (control bound, growth, "
        f"pilot thresholds): PASS ({total:.1f}s)"
    )


def test_criterion_10_thread_determinism(tmp_path, fixtures_dir, capsys):
    t0 = time.monotonic()
    cfg = json.loads((fixtures_dir / "khintchine_d1.json").read_text())
    cfg["K"] = 1500
    cfg["samples"] = 120
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"summary_t{threads}.json"
        code = cli_main(
            ["experiment", "--config", str(path), "--out", str(out), "--threads", threads]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2], "summaries differ across thread counts"
    report(10, "experiment summaries byte-identical across thread counts", t0)
