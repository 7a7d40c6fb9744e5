#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (under a minute):

    python3 bench/smoke.py

For every workload, untraced and traced, it checks that the result line has
exactly the contract's keys, that every metric BENCHMARK.json names is
emitted with its unit, and that no operation fails.  It also checks that the
traced spans nest, that the benchmark's summary is byte-identical to the one
the `cosetapprox experiment` command writes for the same config, and that the
benchmark fails without printing a result when the package sources are
missing.  The experiment workloads run at a non-default seed, where only the
independent hit re-check applies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7
TINY = {
    name: dataclasses.replace(w, K=40, samples=12) if isinstance(w, run.ExperimentWorkload) else w
    for name, w in run.WORKLOADS.items()
}


class SmokeFailure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SmokeFailure(what)


def run_bench(name: str, trace: int) -> tuple[dict, list[str]]:
    buf = io.StringIO()
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv, workloads=TINY)
    lines = buf.getvalue().strip().splitlines()
    expect(rc == 0, f"{name} trace {trace}: exit code {rc}")
    return json.loads(lines[-1]), lines[:-1]


def check_result(name: str, trace: int, spec: dict) -> None:
    result, lines = run_bench(name, trace)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed: {lines}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{name} trace {trace}: metrics {got} != BENCHMARK.json {wanted}")
    for metric, unit in wanted.items():
        expect(any(line.startswith(f"{name}  {metric}  {unit}  median=") for line in lines),
               f"{name}: no printed line for {metric}")
    expect(any(line.startswith("facts ") for line in lines), f"{name}: no facts line")


def check_spans(name: str) -> None:
    dump = json.loads((run.OUT / f"{name}-{SEED}.spans.json").read_text())
    expect(dump["ops"], f"{name}: no traced operation")
    for spans in dump["ops"]:
        expect(dump["names"][spans[0][0]] == "op" and spans[0][3] == -1, f"{name}: first span is not the root")
        for i, (_, start, end, parent, _) in enumerate(spans[1:], start=1):
            expect(0 <= parent < i, f"{name}: span {i} has parent {parent}")
            p_start, p_end = spans[parent][1], spans[parent][2]
            expect(p_start <= start <= end <= p_end, f"{name}: span {i} is not inside its parent")


def check_cli_identity(name: str) -> None:
    stem = run.OUT / f"{name}-{SEED}"
    cli_out = Path(f"{stem}-cli.summary.json")
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "cosetapprox.cli", "experiment", "--config", f"{stem}-run.config.json",
         "--out", str(cli_out)],
        check=True, env=env, cwd=run.ROOT,
    )
    expect(cli_out.read_bytes() == Path(f"{stem}-run.summary.json").read_bytes(),
           f"{name}: benchmark summary differs from the command line's")


def check_missing_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "control-d1", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names disagree")
    try:
        for name, w in TINY.items():
            for trace in (0, 1):
                check_result(name, trace, spec)
            check_spans(name)
            if isinstance(w, run.ExperimentWorkload):
                check_cli_identity(name)
            print(f"ok {name}")
        check_missing_sources()
        print("ok missing sources")
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
