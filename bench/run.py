#!/usr/bin/env python3
"""Closed-loop benchmark of cosetapprox: one process, one operation at a time.

    python3 bench/run.py --workload control-d1 --seed 3 --seconds 20 --trace 0

Run it from anywhere; it works on the checkout that contains it and imports
the package from `src/`.  Workloads and why they were chosen are described in
bench/NOTES.md.  An operation is one `cosetapprox experiment` invocation made
in-process through `cli.main` (with `--out` and `--hits-csv`), or one pass of
the 17 invariant checks of `cosetapprox verify` at a mid scale.  Every
operation starts with cold process caches and is checked outside the timed
interval.

With `--trace 0` the last stdout line reports the end-to-end metrics
(setup_s, wall_s, cpu_s, peak_rss_mb); with `--trace 1` it reports the
per-layer metrics of bench/spans.py, from operations that alternate between
traced and untraced so the tracing overhead is measured in the same run.
Earlier lines give the machine facts, the load average and, per metric, its
unit, median and sample count.  Outputs, spans and the config files go to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(BENCH))
from spans import LAYER_UNITS, VERIFY_CHECKS, Tracer, dump_spans, layer_metrics  # noqa: E402


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentWorkload:
    """A committed fixture scaled to K indices and `samples` sample points."""

    name: str
    fixture: str
    K: int
    samples: int
    threads: int = 1

    @property
    def label(self) -> str:
        # Digest key.  The thread count is left out on purpose: summaries
        # must be byte-identical across --threads.
        return f"{self.fixture}-K{self.K}-n{self.samples}"

    def default_seed(self) -> int:
        return json.loads((ROOT / "tests" / "fixtures" / f"{self.fixture}.json").read_text())["seed"]

    def config(self, seed: int) -> dict:
        raw = json.loads((ROOT / "tests" / "fixtures" / f"{self.fixture}.json").read_text())
        raw["K"] = self.K
        raw["samples"] = self.samples
        raw["seed"] = seed
        if raw["q_sequence"]["kind"] == "explicit":
            raw["q_sequence"]["values"] = raw["q_sequence"]["values"][: self.K]
        return raw

    def session(self, seed: int, tag: str) -> "ExperimentSession":
        return ExperimentSession(self, seed, tag)


@dataclass(frozen=True)
class VerifyWorkload:
    """The 17 checks of `cosetapprox verify`, at a scale between its quick
    and full tables (the full suite takes about 47 s, too long for a run)."""

    name: str

    def default_seed(self) -> int:
        return 0

    def session(self, seed: int, tag: str) -> "VerifySession":
        return VerifySession()


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("control-d1", "convergent_control", K=3000, samples=200),
        ExperimentWorkload("residue-d2", "power_residue_d2", K=3500, samples=200),
        ExperimentWorkload("khintchine-d1-t2", "khintchine_d1", K=3000, samples=600, threads=2),
        VerifyWorkload("verify-mid"),
    )
}


def reference_digests() -> dict:
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


class ExperimentSession:
    """State of one run of an experiment workload: the config file, the
    output paths and the correctness gate."""

    def __init__(self, w: ExperimentWorkload, seed: int, tag: str) -> None:
        from cosetapprox import arith, cli

        self.w = w
        self.seed = seed
        self.cli = cli
        self.clear_caches = arith.factor.cache_clear
        self.cfg = w.config(seed)
        stem = OUT / f"{w.name}-{seed}-{tag}"
        self.cfg_path = Path(f"{stem}.config.json")
        self.summary_path = Path(f"{stem}.summary.json")
        self.csv_path = Path(f"{stem}.hits.csv")
        self.cfg_path.write_text(json.dumps(self.cfg, sort_keys=True, indent=2) + "\n")
        self.argv = [
            "experiment",
            "--config", str(self.cfg_path),
            "--out", str(self.summary_path),
            "--hits-csv", str(self.csv_path),
            "--threads", str(w.threads),
        ]
        self.checker = None
        self.reference = reference_digests().get(w.label, {}).get(str(seed))
        self.digest_checked = self.reference is not None

    def run(self, span) -> int:
        return self.cli.main(self.argv)

    def check(self, rc) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for the operation that returned rc."""
        if rc != 0:
            return 1, 1, [f"exit code {rc}"]
        from gate import HitChecker

        if self.checker is None:
            self.checker = HitChecker(self.cfg)
        blob = self.summary_path.read_bytes()
        problems = []
        if self.reference is not None and hashlib.sha256(blob).hexdigest() != self.reference:
            problems.append(f"summary digest differs from the reference for seed {self.seed}")
        problems += self.checker.problems(self.csv_path, json.loads(blob)["total_hits"])
        return 1, int(bool(problems)), problems


class VerifySession:
    """One run of the verify workload.  Like `run_suite`, every check uses
    its fixed internal seed, so the workload seed changes nothing here."""

    def __init__(self) -> None:
        from cosetapprox import arith
        from cosetapprox import verify as v

        self.clear_caches = arith.factor.cache_clear
        tuples = lambda: v.sample_count_tuples(60, 1000, 0xC0DE)  # noqa: E731
        self.checks = {
            "formula_oracle": lambda: v.check_formula_oracle(1000, 6),
            "subgroup_consistency": lambda: v.check_subgroup_consistency(400, 6),
            "sieve_identity": lambda: v.check_sieve_identity(300, 40),
            "character_axioms": lambda: v.check_character_axioms(200),
            "polya_vinogradov": lambda: v.check_polya_vinogradov(450),
            "counting_identity": lambda: v.check_counting_identity(tuples()),
            "equidistribution_bound": lambda: v.check_equidistribution_bound(tuples()),
            "overlap_theta": lambda: v.check_overlap_theta(200),
            "unit_group_structure": lambda: v.check_unit_group_structure(64),
            "coset_partition": lambda: v.check_coset_partition(30),
            "quotient_characters": lambda: v.check_quotient_characters(24),
            "growth_trend": lambda: v.check_growth_trend(2**17),
            "power_lift": v.check_power_lift,
            "hit_finding": lambda: v.check_hits_brute(10),
            "conditions_reduction": v.check_conditions_reduction,
            "mc_determinism": v.check_mc_determinism,
            "mc_dichotomy": lambda: v.check_mc_dichotomy(600, 60),
        }
        if tuple(self.checks) != VERIFY_CHECKS:
            raise RuntimeError("the check table and spans.VERIFY_CHECKS disagree")
        self.digest_checked = False

    def run(self, span) -> list[tuple[str, bool, str]]:
        results = []
        for name, fn in self.checks.items():
            with span(f"verify.{name}"):
                try:
                    ok, detail = fn()
                except Exception as exc:  # a crashed check is a failed check
                    ok, detail = False, f"exception: {exc!r}"
            results.append((name, ok, detail))
        return results

    def check(self, results) -> tuple[int, int, list[str]]:
        bad = [f"{name}: {detail}" for name, ok, detail in results if not ok]
        return len(results), len(bad), bad


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _load1() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_facts() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": caches,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that do the benchmark's set-up (start,
    import cosetapprox with numpy, write the config) and exit.  The first
    one also compiles byte code and is not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_ops(session, seconds: float, trace: bool):
    """Operations in a closed loop until another one would pass `seconds`
    of measured time.  With `trace`, operations alternate untraced/traced."""
    tracer = Tracer() if trace else None
    ops = []  # (traced, wall, cpu)
    ops_spans = []
    attempted = failed = 0
    problems = []
    measured = 0.0
    while True:
        traced = trace and len(ops) % 2 == 1
        session.clear_caches()
        gc.collect()
        if traced:
            tracer.install()
            root = tracer.open("op")
        span = tracer.span if traced else nullcontext
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            outcome = session.run(span)
        except Exception as exc:  # an operation that crashes is a failed operation
            outcome = exc
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if traced:
            tracer.close(root)
            tracer.uninstall()
            ops_spans.append(tracer.take())
        ops.append((traced, wall, cpu))
        if isinstance(outcome, Exception):
            n, bad, why = 1, 1, [f"exception: {outcome!r}"]
        else:
            n, bad, why = session.check(outcome)
        attempted += n
        failed += bad
        problems += why
        measured += wall
        if measured + wall > seconds and (not trace or len(ops) >= 2):
            break
    return ops, ops_spans, attempted, failed, problems


def main(argv=None, workloads=WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=None, help="default: the fixture's seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cosetapprox" / "__init__.py").is_file():
        print(f"no cosetapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    w = workloads[args.workload]
    seed = w.default_seed() if args.seed is None else args.seed
    if args.setup_only:
        w.session(seed, "probe")
        return 0

    load_before = _load1()
    session = w.session(seed, "run")
    facts = machine_facts()
    setup = [] if args.trace else measure_setup(w.name, seed)
    ops, ops_spans, attempted, failed, problems = run_ops(session, args.seconds, bool(args.trace))
    peak = _peak_rss_mb()
    load_after = _load1()

    untraced = [o for o in ops if not o[0]]
    if args.trace:
        metrics = layer_metrics(ops_spans, [o[1] for o in ops if o[0]], [o[1] for o in untraced])
        units = LAYER_UNITS
        samples = dict.fromkeys(metrics, len(ops_spans))
        (OUT / f"{w.name}-{seed}.spans.json").write_text(json.dumps(dump_spans(ops_spans)))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(o[1] for o in untraced),
            "cpu_s": statistics.median(o[2] for o in untraced),
            "peak_rss_mb": peak,
        }
        units = E2E_UNITS
        samples = {"setup_s": len(setup), "wall_s": len(untraced), "cpu_s": len(untraced), "peak_rss_mb": 1}

    run_facts = {
        **facts,
        "workload": w.name,
        "seed": seed,
        "trace": args.trace,
        "load1_before": load_before,
        "load1_after": load_after,
        "operations": len(ops),
        "summary_digest_checked": session.digest_checked,
        "fail_frac": failed / attempted,
    }
    print("facts " + json.dumps(run_facts, sort_keys=True))
    for p in problems[:20]:
        print(f"FAIL {p}")
    for name, value in metrics.items():
        print(f"{w.name}  {name}  {units[name]}  median={value!r}  n={samples[name]}")
    print(f"{w.name}  fail_frac  ratio  value={failed / attempted!r}  n={attempted}")
    record = {
        "facts": run_facts,
        "ops": [{"traced": t, "wall_s": wall, "cpu_s": cpu} for t, wall, cpu in ops],
        "setup_s": setup,
        "metrics": metrics,
        "problems": problems,
    }
    (OUT / f"{w.name}-{seed}-trace{args.trace}.result.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
