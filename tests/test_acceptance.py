"""Acceptance suite: one test per criterion, each printing a PASS line and
holding the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from cosetapprox.cli import main as cli_main
from cosetapprox.experiment import ExperimentConfig, check_conditions, prepare
from cosetapprox.verify import (
    check_character_axioms,
    check_counting_identity,
    check_equidistribution_bound,
    check_formula_oracle,
    check_overlap_theta,
    check_polya_vinogradov,
    check_sieve_identity,
    check_subgroup_consistency,
    sample_count_tuples,
)

from helpers import exact_fraction

F = Fraction


def report(num, name, started):
    print(f"[criterion {num:2d}] {name}: PASS ({time.monotonic() - started:.1f}s)")


@pytest.fixture(scope="module")
def shared_tuples():
    # criteria 6 and 7 run on the same random sample
    return sample_count_tuples(200, 2000, seed=0xC0DE)


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


def test_criterion_01_formula_oracle_equivalence():
    t0 = time.monotonic()
    ok, detail = check_formula_oracle(n_max=5000, d_max=6)
    elapsed = time.monotonic() - t0
    assert ok, detail
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 min"
    report(1, f"formula-oracle equivalence ({detail})", t0)


def test_criterion_02_subgroup_consistency():
    t0 = time.monotonic()
    ok, detail = check_subgroup_consistency(n_max=2000, d_max=6)
    assert ok, detail
    report(2, f"subgroup order and index ({detail})", t0)


def test_criterion_03_sieve_identity():
    t0 = time.monotonic()
    ok, detail = check_sieve_identity(n_max=2000, grid=40)
    assert ok, detail
    report(3, f"sieve identity ({detail})", t0)


def test_criterion_04_character_axioms():
    t0 = time.monotonic()
    ok, detail = check_character_axioms(n_max=500)
    assert ok, detail
    report(4, f"character count and orthogonality ({detail})", t0)


def test_criterion_05_polya_vinogradov_sweep():
    t0 = time.monotonic()
    ok, detail = check_polya_vinogradov(n_max=1000)
    elapsed = time.monotonic() - t0
    assert ok, detail
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 min"
    report(5, f"Polya-Vinogradov sweep ({detail})", t0)


def test_criterion_06_counting_identity(shared_tuples):
    t0 = time.monotonic()
    ok, detail = check_counting_identity(shared_tuples)
    assert ok, detail
    report(6, f"character-sum counting identity ({detail})", t0)


def test_criterion_07_equidistribution_bound(shared_tuples):
    t0 = time.monotonic()
    ok, detail = check_equidistribution_bound(shared_tuples)
    assert ok, detail
    report(7, f"explicit equidistribution bound ({detail})", t0)


def test_criterion_08_overlap_theta():
    t0 = time.monotonic()
    ok, detail = check_overlap_theta(cases=1000)
    assert ok, detail
    report(8, f"overlap formula theta ({detail})", t0)


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
