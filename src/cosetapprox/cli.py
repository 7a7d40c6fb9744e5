"""Batch command-line front end.

Subcommands: arith (function tables and oracle diffs), group (subgroup and
coset listings), chars (character sums with Polya-Vinogradov slack), equidist
(error sweeps and overlap checks), experiment (Monte Carlo driver from a JSON
config), verify (invariant suite).

Exit codes: 0 ok, 1 usage, 2 validation or file error, 3 invariant failure.
All logs are natural logarithms.  Exact quantities are printed as integer or
num/den strings; floats carry 12 significant digits.  Identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import verify as verify_mod
from .arith import euler_phi, factor_all, growth_scan, omega, r_d, s_d, tau, u_d
from .arith import brute_r_d, brute_u_d
from .characters import all_characters, character_matrix, pv_bound
from .equidist import interval_system, overlap_excess_sweep, psi_estimate
from .experiment import ExperimentConfig, check_conditions, doubled_exact_str, exact_str, prepare
from .residue_group import SUBGROUP_MODES, coset, index, subgroup, unit_group

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit_rows(columns: list[str], rows: list[list | tuple], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_ints(flag: str, spec: str) -> tuple[int, ...]:
    """A comma-separated integer list (empty items skipped); a bad item is a
    usage error that names the flag."""
    try:
        return tuple(int(t) for t in spec.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"bad {flag} list {spec!r}; expected comma-separated integers")


def _read_only(flag: str, given: bool, read: bool, where: str) -> None:
    """Reject a flag that was given but that the chosen mode never reads."""
    if given and not read:
        raise ValueError(f"{flag} is only read {where}")


def _at_least(flag: str, value: int, low: int, why: str) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low} ({why}), got {value}")


def _mode_inputs(args, power_read: bool = False) -> tuple[int, tuple[int, ...]]:
    """--d (default 2) and --generators; the subgroup reads --d only in
    --mode dth-powers and --generators (at least one) only in --mode generators."""
    gens = _parse_ints("--generators", args.generators)
    _read_only("--generators", bool(gens), args.mode == "generators",
               f"in --mode generators, not {args.mode!r}")
    if args.mode == "generators" and not gens:
        raise ValueError("--mode generators needs --generators (use --generators 1 for the trivial subgroup)")
    _read_only("--d", args.d is not None, power_read or args.mode == "dth-powers",
               f"in --mode dth-powers, not {args.mode!r}")
    return (2 if args.d is None else args.d), gens


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_arith(args) -> int:
    _read_only("--oracle", args.oracle, not args.growth, "without --growth")
    if args.growth:
        _emit_rows(
            ["block_lo", "block_hi", "eps", "base", "tau_max", "tau_argmax", "pow_omega_max", "pow_omega_argmax"],
            [dataclasses.astuple(r) for r in growth_scan(args.n_max, d=args.d)],
            args.format,
            args.out,
        )
        return 0
    _at_least("--n-max", args.n_max, 1, "the table runs n = 1..n_max")
    columns = ["n", "phi", "tau", "omega", f"u_{args.d}", f"r_{args.d}", f"s_{args.d}"]
    if args.oracle:
        columns += ["brute_u", "brute_r", "u_mismatch", "r_mismatch"]
    rows = []
    mismatches = 0
    for n, f in enumerate(factor_all(range(1, args.n_max + 1)), start=1):
        u, r = u_d(f, args.d), r_d(f, args.d)
        row = [n, euler_phi(f), tau(f), omega(f), u, r, s_d(f, args.d)]
        if args.oracle:
            bu, br = brute_u_d(n, args.d), brute_r_d(n, args.d)
            row += [bu, br, int(u != bu), int(r != br)]
            mismatches += int(u != bu) + int(r != br)
        rows.append(row)
    _emit_rows(columns, rows, args.format, args.out)
    if args.oracle and mismatches:
        print(f"oracle mismatches: {mismatches}", file=sys.stderr)
        return 3
    return 0


def _cmd_group(args) -> int:
    d, gens = _mode_inputs(args)
    g = unit_group(args.n)
    G = subgroup(g, args.mode, d, gens)
    c = coset(args.a, G)
    rows = [[
        g.n,
        g.phi,
        ";".join(f"{gen}^{order}" for gen, order in g.cyclic_factors),
        G.order,
        index(G),
        ";".join(map(str, G.elements)),
        c.representative,
        ";".join(map(str, c.elements)),
    ]]
    _emit_rows(
        ["n", "phi", "cyclic_factors", "subgroup_order", "subgroup_index",
         "subgroup_elements", "coset_rep", "coset_elements"],
        rows,
        args.format,
        args.out,
    )
    return 0


def _cmd_chars(args) -> int:
    _at_least("--n-max", args.n_max, 3, "the table runs n = 3..n_max")
    rows = []
    for n in range(3, args.n_max + 1):
        g = unit_group(n)
        chars = all_characters(g)
        prefix = np.cumsum(character_matrix(g, chars), axis=1)
        bound = pv_bound(n)
        for i in range(1, len(chars)):  # row 0 is the principal character
            label = ";".join(map(str, chars[i].tolist()))
            for h in range(1, n + 1):
                v = prefix[i, min(h, n - 1)]
                rows.append(
                    [n, label, h,
                     float(v.real), float(v.imag), bound, bound - abs(v)]
                )
    _emit_rows(
        ["modulus", "exponents", "h", "sum_re", "sum_im", "pv_bound", "slack"],
        rows,
        args.format,
        args.out,
    )
    return 0


def _cmd_equidist(args) -> int:
    overlap = bool(args.overlap_q)
    d, gens = _mode_inputs(args, power_read=overlap)
    _read_only("--n-max", args.n_max is not None, not overlap, "without --overlap-q")
    _read_only("--mu-grid", args.mu_grid is not None, not overlap, "without --overlap-q")
    _read_only("--epsilon", args.epsilon is not None, overlap, "with --overlap-q")
    if overlap:
        qs = _parse_ints("--overlap-q", args.overlap_q)
        A = [(Fraction(1, 10), Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 5)),
             (Fraction(4, 5), Fraction(9, 10))]
        systems = []
        for q in qs:
            G = subgroup(unit_group(q), args.mode, d, gens)
            systems.append(interval_system(d, Fraction(1, 5), args.a, G))
        rep = overlap_excess_sweep(A, systems, epsilon=0.05 if args.epsilon is None else args.epsilon)
        rows = [[q, d, x] for q, d, x in rep.rows]
        _emit_rows(["q", "d", "abs_excess"], rows, args.format, args.out)
        print(
            f"slope {_fmt(rep.slope) if rep.slope is not None else 'n/a'} "
            f"(reference exponent {_fmt(rep.reference_exponent)}), "
            f"decays: {rep.decays}",
            file=sys.stderr,
        )
        return 0
    n_max = 200 if args.n_max is None else args.n_max
    mu_grid = 10 if args.mu_grid is None else args.mu_grid
    _at_least("--n-max", n_max, 2, "the sweep runs n = 2..n_max")
    _at_least("--mu-grid", mu_grid, 2, "mu runs over j/mu_grid, 0 < j < mu_grid")
    shared = [n for n in range(2, n_max + 1) if math.gcd(args.a, n) != 1]
    if shared:
        raise ValueError(f"--a {args.a} is not a unit mod {shared[0]}, and the sweep runs n = 2..{n_max}")
    rows = []
    violations = 0
    for n in range(2, n_max + 1):
        G = subgroup(unit_group(n), args.mode, d, gens)
        c = coset(args.a, G)
        for j in range(1, mu_grid):
            mu = Fraction(j, mu_grid)
            try:
                est = psi_estimate(mu, c)
            except ArithmeticError:
                violations += 1
                continue
            rows.append(
                [n, G.order, index(G), mu, est.exact_count, est.main_term,
                 est.abs_error, est.bound, est.normalized_error]
            )
    _emit_rows(
        ["n", "order", "index", "mu", "exact", "main", "abs_error", "bound", "normalized_error"],
        rows,
        args.format,
        args.out,
    )
    if violations:
        print(f"bound violations: {violations}", file=sys.stderr)
        return 3
    return 0


def _exact_value(v: Fraction, exact: str | None = None) -> dict:
    """A summary entry for the exact rational v: its exact string and float.
    exact, when given, is exact_str(v) already written another way."""
    return {"exact": exact_str(v) if exact is None else exact, "value": float(v)}


def _cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(raw, dict):  # from_dict rejects the rest
        raw["seed"] = args.seed
    cfg = ExperimentConfig.from_dict(raw)
    exp = prepare(cfg)
    conditions = check_conditions(exp, epsilon=args.epsilon)
    result = exp.monte_carlo(threads=args.threads)
    summary = result.summary_dict()
    # each distinct exact value is converted to decimal once: the union bound
    # 2 W is written from W's digits, and c_ratio_min equals c_ratio_final
    # whenever the ratio's first minimum is at n = K
    weighted = exact_str(conditions.weighted_sum_final)
    ratio = _exact_value(conditions.c_ratio_final)
    summary["union_bound"] = _exact_value(conditions.union_bound, doubled_exact_str(weighted))
    summary["conditions"] = {
        "epsilon": conditions.epsilon,
        "n_final": cfg.K,
        "partial_sum_alpha": exact_str(conditions.partial_sum_alpha_final),
        "weighted_sum": weighted,
        "c_ratio_final": ratio,
        "c_ratio_min": (ratio if conditions.c_ratio_min == conditions.c_ratio_final
                        else _exact_value(conditions.c_ratio_min)),
        "cond_c_first_decile_mean": conditions.cond_c_first_decile_mean,
        "cond_c_last_decile_mean": conditions.cond_c_last_decile_mean,
        "cond_c_decreasing": conditions.cond_c_decreasing,
    }
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    # the hits go first, so a summary exists only after a finished run
    if args.hits_csv:
        with open(args.hits_csv, "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["sample_index", "k", "q", "p", "error_num", "error_den"])
            for i, hits in enumerate(result.per_sample_hits):
                for h in hits:
                    w.writerow((i, *h))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_suite(quick=args.quick)
    failed = sum(not r.ok for r in results)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
        return 0 if failed == 0 else 3
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        print(f"{tag}  {r.name.ljust(width)}  [{r.seconds:7.2f}s]  {r.detail}")
    scale = "quick" if args.quick else "full"
    print(f"{len(results) - failed}/{len(results)} checks passed ({scale} scale)")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cosetapprox",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = common(sub.add_parser("arith", help="arithmetic function tables"))
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--oracle", action="store_true", help="add brute-force oracle columns")
    p.add_argument("--growth", action="store_true", help="emit the growth-scan table instead")
    p.set_defaults(fn=_cmd_arith)

    p = common(sub.add_parser("group", help="subgroup and coset listing"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=SUBGROUP_MODES, default="dth-powers")
    p.add_argument("--d", type=int, default=None, help="power, --mode dth-powers only (default 2)")
    p.add_argument("--generators", default="", help="comma-separated residues")
    p.add_argument("--a", type=int, default=1)
    p.set_defaults(fn=_cmd_group)

    p = common(sub.add_parser("chars", help="character sums and Polya-Vinogradov slack"))
    p.add_argument("--n-max", type=int, default=30)
    p.set_defaults(fn=_cmd_chars)

    p = common(sub.add_parser("equidist", help="equidistribution error sweeps"))
    p.add_argument("--n-max", type=int, default=None, help="sweep n = 2..n_max (default 200)")
    p.add_argument("--d", type=int, default=None,
                   help="power: the subgroup's in --mode dth-powers, q^d's with --overlap-q (default 2)")
    p.add_argument("--mode", choices=SUBGROUP_MODES, default="dth-powers")
    p.add_argument("--generators", default="")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--mu-grid", type=int, default=None, help="sweep mu over j/mu_grid (default 10)")
    p.add_argument("--epsilon", type=_finite_float, default=None,
                   help="--overlap-q only: reference exponent slack (default 0.05)")
    p.add_argument("--overlap-q", default="", help="comma-separated q values: run the overlap sweep")
    p.set_defaults(fn=_cmd_equidist)

    p = sub.add_parser("experiment", help="Monte Carlo experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--hits-csv", default=None)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--epsilon", type=_finite_float, default=0.05)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true", help="small-n suites only")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="json: one array of {name, ok, detail, seconds} objects")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
