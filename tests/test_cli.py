"""Command-line interface: output schemas, exit codes, and byte determinism."""

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from cosetapprox.cli import _exact_value, main
from cosetapprox.experiment import ExperimentConfig, HitRecord, check_conditions, exact_str, prepare

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestArith:
    def test_oracle_table_has_zero_mismatches(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "--n-max", "200", "--d", "2", "--oracle")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["u_mismatch", "r_mismatch"]
        assert len(rows) == 200
        assert all(r[-1] == "0" and r[-2] == "0" for r in rows)

    def test_exact_columns_are_rational_strings(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "--n-max", "49", "--d", "2")
        _, rows = parse_csv(out)
        assert rows[48][6] == "3/7"  # density of squares mod 49

    def test_growth_table(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "--growth", "--n-max", "4096")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "block_lo" and len(rows) > 4

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_growth_power_below_one_exits_2(self, capsys, d):
        code, out, err = run_cli(capsys, "arith", "--growth", "--n-max", "64", "--d", d)
        assert code == 2
        assert "power must be >= 1" in err and out == ""

    @pytest.mark.parametrize("n_max", ["0", "-5"])
    def test_empty_table_exits_2(self, capsys, n_max):
        code, out, err = run_cli(capsys, "arith", f"--n-max={n_max}")
        assert code == 2
        assert "--n-max must be >= 1" in err and out == ""

    def test_oracle_with_growth_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "arith", "--growth", "--n-max", "64", "--oracle")
        assert code == 2
        assert "--oracle" in err and out == ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "--n-max", "5", "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 5

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, "arith", "--n-max", "5", "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1 and str(out) in err


# SHA-256 of `arith` tables written with --out by the per-n `factor` table
# that the single factor_all pass replaced: (argv tail, format) -> digest.
ARITH_TABLE_DIGESTS = {
    (("--n-max", "5000", "--d", "1"), "csv"): "9428e1ffdfbd5379ae09f8da962565a0e8c662a89278aaf3867c03e01db5fb64",
    (("--n-max", "5000", "--d", "1"), "json"): "88eabdabfc3dc2b2804c459b2540942cc1567ca45e063be4e4ebe9f375c94d29",
    (("--n-max", "5000", "--d", "2"), "csv"): "03bc30272aa7d6f40553ed131308f7ce787a0877a6ccb42e0630a40bf6c557b7",
    (("--n-max", "5000", "--d", "2"), "json"): "c5f922fc0cf1a79cdd739d0b7164280a70e8ecbfb35f3d70367e1836e7e688fb",
    (("--n-max", "5000", "--d", "3"), "csv"): "459d31bc871f0e4354401c5b42ec21caf6c8d31a95315dae5254acc5dd29cb13",
    (("--n-max", "5000", "--d", "3"), "json"): "c2e4e7de0e26e81ca5db70ad0b7f3a48853194028a5be8ed274f4e26e4e64010",
    (("--n-max", "1500", "--d", "2", "--oracle"), "csv"): "1ccaab587f34ac56dd47ad8b0e6d1f0d8566cc51d6dc6e7581597b08f9dfee8e",
    (("--n-max", "1500", "--d", "3", "--oracle"), "json"): "abfc066f3bccb9bee8b1cb8798d5daddbdc45df1055089b5e8dd3d0d31affa7a",
}


@pytest.mark.parametrize("argv, fmt", sorted(ARITH_TABLE_DIGESTS))
def test_arith_table_bytes_unchanged(tmp_path, capsys, argv, fmt):
    out = tmp_path / f"table.{fmt}"
    code, _, _ = run_cli(capsys, "arith", *argv, "--format", fmt, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ARITH_TABLE_DIGESTS[argv, fmt]


class TestGroup:
    def test_squares_mod_7_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "group", "--n", "7", "--mode", "dth-powers", "--d", "2", "--a", "3"
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["subgroup_elements"] == "1;2;4"
        assert row["coset_elements"] == "3;5;6"
        assert row["subgroup_index"] == "2"

    def test_generator_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "group", "--n", "7", "--mode", "generators", "--generators", "2"
        )
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["subgroup_elements"] == "1;2;4"

    def test_bad_modulus_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "group", "--n", "0")
        assert code == 2

    def test_modulus_one_is_the_trivial_group(self, capsys):
        code, out, _ = run_cli(capsys, "group", "--n", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,1,,1,1,0,0,0"

    @pytest.mark.parametrize("mode", ["full", "dth-powers"])
    def test_generators_outside_generator_mode_exit_2(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "group", "--n", "8", "--mode", mode, "--generators", "3", "--a", "7"
        )
        assert code == 2
        assert "--generators" in err and out == ""

    @pytest.mark.parametrize("n, extra", [("7", []), ("8", ["--generators", ",,"])])
    def test_generator_mode_without_generators_exits_2(self, capsys, n, extra):
        code, out, err = run_cli(capsys, "group", "--n", n, "--mode", "generators", *extra)
        assert code == 2
        assert "--mode generators needs --generators" in err and out == ""

    def test_generator_one_names_the_trivial_subgroup(self, capsys):
        code, out, _ = run_cli(capsys, "group", "--n", "7", "--mode", "generators", "--generators", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["subgroup_elements"] == "1"

    @pytest.mark.parametrize("mode, extra", [("full", []), ("generators", ["--generators", "5"])])
    def test_power_outside_power_mode_exits_2(self, capsys, mode, extra):
        code, out, err = run_cli(capsys, "group", "--n", "12", "--mode", mode, "--d", "3", *extra)
        assert code == 2
        assert "--d is only read in --mode dth-powers" in err and out == ""


class TestChars:
    def test_csv_slack_nonnegative(self, capsys):
        code, out, _ = run_cli(capsys, "chars", "--n-max", "12")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["modulus", "exponents", "h", "sum_re", "sum_im", "pv_bound", "slack"]
        assert rows
        assert all(float(r[6]) >= 0 for r in rows)

    def test_row_count_matches_definition(self, capsys):
        _, out, _ = run_cli(capsys, "chars", "--n-max", "5")
        _, rows = parse_csv(out)
        # moduli 3, 4, 5 contribute (phi(n)-1) * n rows each
        assert len(rows) == 1 * 3 + 1 * 4 + 3 * 5

    def test_table_bytes_unchanged(self, capsys):
        # SHA-256 of the table as written while characters were objects
        # rather than exponent rows
        code, out, _ = run_cli(capsys, "chars", "--n-max", "40")
        assert code == 0
        digest = "b766b171f5afc4e5a529315cb35fe003d248f534145af67119682c93624a4f80"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_max", ["2", "0"])
    def test_empty_table_exits_2(self, capsys, n_max):
        code, out, err = run_cli(capsys, "chars", f"--n-max={n_max}")
        assert code == 2
        assert "--n-max must be >= 3" in err and out == ""


class TestEquidist:
    def test_rows_respect_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "equidist", "--n-max", "150", "--mode", "dth-powers", "--d", "2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        i_err, i_bound = header.index("abs_error"), header.index("bound")
        assert len(rows) == 149 * 9
        for r in rows:
            assert float(F(r[i_err])) <= float(r[i_bound])

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_usage_error(self, capsys, epsilon):
        code, out, err = run_cli(
            capsys, "equidist", "--overlap-q", "19,53", f"--epsilon={epsilon}"
        )
        assert code == 1
        assert "--epsilon" in err and "finite" in err and out == ""

    def test_overlap_sweep_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "equidist", "--overlap-q", "19,53,101", "--d", "2", "--mode", "dth-powers"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["q", "d", "abs_excess"]
        assert len(rows) == 3

    def test_overlap_sweep_from_modulus_one(self, capsys):
        # mod 1, d = 2: E = [0, 1/5) u (4/5, 1] meets A in 1/5, so the
        # multiplier is (1/5) / ((3/10)(2/5)) = 5/3 and |excess| 2/3
        code, out, _ = run_cli(capsys, "equidist", "--overlap-q", "1,2,3,5", "--mode", "full")
        assert code == 0
        assert parse_csv(out)[1][0] == ["1", "2", "0.666666666667"]

    @pytest.mark.parametrize("extra", [[], ["--overlap-q", "19,53"]])
    @pytest.mark.parametrize("mode", ["full", "dth-powers"])
    def test_generators_outside_generator_mode_exit_2(self, capsys, mode, extra):
        code, out, err = run_cli(
            capsys, "equidist", "--n-max", "10", "--mode", mode, "--generators", "3", *extra
        )
        assert code == 2
        assert "--generators" in err and out == ""

    @pytest.mark.parametrize("args", [["--n-max", "5", "--mu-grid", "2"], ["--overlap-q", "7,11"]])
    def test_generator_mode_without_generators_exits_2(self, capsys, args):
        code, out, err = run_cli(capsys, "equidist", "--mode", "generators", *args)
        assert code == 2
        assert "--mode generators needs --generators" in err and out == ""

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    def test_mu_grid_below_two_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "equidist", "--n-max", "10", f"--mu-grid={grid}")
        assert code == 2
        assert "--mu-grid" in err and out == ""

    @pytest.mark.parametrize("n_max", ["1", "0"])
    def test_empty_sweep_exits_2(self, capsys, n_max):
        code, out, err = run_cli(capsys, "equidist", f"--n-max={n_max}")
        assert code == 2
        assert "--n-max must be >= 2" in err and out == ""

    @pytest.mark.parametrize("a, first", [("0", 2), ("15", 3), ("-49", 7)])
    def test_representative_sharing_a_factor_exits_2(self, capsys, a, first):
        code, out, err = run_cli(capsys, "equidist", "--n-max", "10", f"--a={a}")
        assert code == 2
        assert f"--a {a} is not a unit mod {first}," in err and out == ""

    def test_representative_coprime_to_the_whole_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "equidist", "--n-max", "6", "--a", "7")
        assert code == 0
        assert len(parse_csv(out)[1]) == 5 * 9

    @pytest.mark.parametrize("flag", ["--n-max=3", "--mu-grid=5"])
    def test_sweep_flags_with_overlap_exit_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "equidist", "--overlap-q", "19,53", flag)
        assert code == 2
        assert f"{flag.split('=')[0]} is only read without --overlap-q" in err and out == ""

    def test_epsilon_without_overlap_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "equidist", "--n-max", "10", "--epsilon", "0.3")
        assert code == 2
        assert "--epsilon is only read with --overlap-q" in err and out == ""

    def test_power_outside_power_mode_in_sweep_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "equidist", "--n-max", "10", "--mode", "full", "--d", "2")
        assert code == 2
        assert "--d is only read in --mode dth-powers" in err and out == ""

    def test_overlap_sweep_reads_power_in_every_mode(self, capsys):
        code, out, _ = run_cli(capsys, "equidist", "--overlap-q", "19,53", "--mode", "full", "--d", "2")
        assert code == 0
        assert [r[1] for r in parse_csv(out)[1]] == ["2", "2"]

    @pytest.mark.parametrize(
        "flag, spec, argv",
        [
            ("--overlap-q", "5,x", ["--overlap-q", "5,x"]),
            ("--overlap-q", "19,5.3", ["--overlap-q", "19,5.3"]),
            ("--generators", "3,x", ["--overlap-q", "5,7", "--mode", "generators", "--generators", "3,x"]),
        ],
    )
    def test_bad_integer_list_exits_2_and_names_the_flag(self, capsys, flag, spec, argv):
        # --overlap-q is parsed by the same strict helper as --generators
        code, out, err = run_cli(capsys, "equidist", *argv)
        assert code == 2
        assert f"bad {flag} list {spec!r}; expected comma-separated integers" in err and out == ""

    @pytest.mark.parametrize("qs", ["7,7", "9,3"])
    def test_overlap_sweep_rejects_unordered_q(self, capsys, qs):
        code, out, err = run_cli(capsys, "equidist", "--overlap-q", qs, "--d", "1", "--mode", "full")
        assert code == 2
        assert "strictly increasing q" in err and out == ""


class TestExperiment:
    def make_config(self, tmp_path, **kw):
        cfg = {
            "schema_version": 1,
            "q_sequence": {"kind": "integers"},
            "alpha_sequence": {"kind": "c/k", "c": "1/3"},
            "d": 1,
            "a": 1,
            "subgroup_mode": "full",
            "generators": [],
            "K": 200,
            "samples": 40,
            "precision_bits": 128,
            "seed": 31415,
            "min_hits": 3,
        }
        cfg.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_summary_and_hits(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "summary.json"
        hits = tmp_path / "hits.csv"
        code = main(
            ["experiment", "--config", str(cfg), "--out", str(out), "--hits-csv", str(hits)]
        )
        capsys.readouterr()
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["schema_version"] == 1
        assert summary["samples"] == 40
        assert "1" in summary["F"] and "conditions" in summary
        header, rows = parse_csv(hits.read_text())
        assert header == ["sample_index", "k", "q", "p", "error_num", "error_den"]
        assert rows
        for r in rows[:20]:
            k, q, p = int(r[1]), int(r[2]), int(r[3])
            assert 1 <= k <= 200 and q >= 1
            assert F(int(r[4]), int(r[5])) < F(1, 3) / k / q

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        outs = []
        for t in ("1", "2"):
            out = tmp_path / f"summary_{t}.json"
            code = main(["experiment", "--config", str(cfg), "--out", str(out), "--threads", t])
            capsys.readouterr()
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_prepares_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_prepare(cfg):
            calls.append(cfg)
            return prepare(cfg)

        monkeypatch.setattr("cosetapprox.cli.prepare", counting_prepare)
        cfg = self.make_config(tmp_path, K=40, samples=6)
        out = tmp_path / "summary.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        assert json.loads(out.read_text())["conditions"]["n_final"] == 40

    def test_repeat_run_identical(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            capsys.readouterr()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,,}')
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.count("\n") == 1 and str(cfg) in err

    def test_unwritable_hits_csv_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, K=20, samples=4)
        hits = tmp_path / "missing" / "h.csv"
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "s.json"),
            "--hits-csv", str(hits),
        )
        assert code == 2
        assert err.count("\n") == 1 and str(hits) in err
        assert not (tmp_path / "s.json").exists()  # no summary without a finished run

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "q_sequence": {"kind": "integers"}}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert "alpha_sequence" in err

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, alpha_sequence={"kind": "c/k", "c": "2/3"})
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("d", True, "'d' must be an integer", id="bool-d"),
            pytest.param("a", True, "'a' must be an integer", id="bool-a"),
            pytest.param("K", True, "'K' must be an integer", id="bool-K"),
            pytest.param("samples", True, "'samples' must be an integer", id="bool-samples"),
            pytest.param("seed", False, "'seed' must be an integer", id="bool-seed"),
            pytest.param(
                "precision_bits", 12.9, "'precision_bits' must be an integer", id="float-precision"
            ),
            pytest.param("min_hits", 3.5, "'min_hits' must be an integer", id="float-min-hits"),
            pytest.param("min_hit", 3, "unknown config field(s): min_hit", id="unknown-key"),
            pytest.param(
                "q_sequence",
                {"kind": "explicit", "values": [2.5, 3]},
                "'q_sequence.values' must be an integer",
                id="float-q-value",
            ),
            pytest.param(
                "q_sequence",
                {"kind": "integers", "value": [1]},
                "unknown q_sequence field(s): value",
                id="unknown-nested-key",
            ),
            pytest.param("generators", [2.0], "'generators' must be an integer", id="float-generator"),
            pytest.param("generators", 5, "'generators' must be a list", id="scalar-generators"),
            pytest.param(
                "q_sequence",
                {"kind": "explicit", "values": 5},
                "'q_sequence.values' must be a list",
                id="scalar-q-values",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "c/k", "c": 0.25},
                "'alpha_sequence.c' must be an integer or an exact rational string",
                id="float-alpha-c",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "c/k", "c": True},
                "'alpha_sequence.c' must be an integer or an exact rational string",
                id="bool-alpha-c",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "c/k", "c": "1/0"},
                "'alpha_sequence.c' must be an integer or an exact rational string",
                id="zero-denominator-alpha-c",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "explicit", "values": [0.25] * 200},
                "'alpha_sequence.values' must be an integer or an exact rational string",
                id="float-alpha-values",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "explicit", "values": ["1/4", False]},
                "'alpha_sequence.values' must be an integer or an exact rational string",
                id="bool-alpha-value",
            ),
            pytest.param(
                "alpha_sequence",
                {"kind": "explicit", "values": "1/4"},
                "'alpha_sequence.values' must be a list",
                id="scalar-alpha-values",
            ),
        ],
    )
    def test_strict_config_fields_exit_2(self, tmp_path, capsys, field, value, message):
        cfg = self.make_config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param(
                {"generators": [2]},
                "generators are required exactly for subgroup_mode 'generators'",
                id="generators-in-full-mode",
            ),
            pytest.param(
                {"subgroup_mode": "dth-powers", "d": 2, "generators": [3]},
                "generators are required exactly for subgroup_mode 'generators'",
                id="generators-in-dth-powers-mode",
            ),
            pytest.param(
                {"alpha_sequence": {"kind": "c/k", "c": "1/3", "values": ["1/4"] * 200}},
                "alpha_sequence values are required exactly for kind 'explicit'",
                id="alpha-values-with-rule",
            ),
            pytest.param(
                {"alpha_sequence": {"kind": "explicit", "c": "1/3", "values": ["1/4"] * 200}},
                "alpha_sequence kind 'explicit' takes no constant c",
                id="alpha-c-with-explicit",
            ),
        ],
    )
    def test_keys_the_rule_ignores_exit_2(self, tmp_path, capsys, fields, message):
        cfg = self.make_config(tmp_path, **fields)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert message in err and out == ""


    @pytest.mark.parametrize(
        "raw", [[1, 2], "config", 3, None], ids=["list", "string", "number", "null"]
    )
    def test_non_object_config_with_seed_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path), "--seed", "4")
        assert code == 2
        assert "config must be an object" in err and out == ""

    def test_seed_flag_equals_the_seed_in_the_config(self, tmp_path, capsys, fixtures_dir):
        cfg = json.loads((fixtures_dir / "khintchine_d1.json").read_text())
        cfg.update(K=300, samples=20)
        assert cfg["seed"] != 4
        runs = []
        for name, seed_args, seed in (("flag", ["--seed", "4"], cfg["seed"]), ("config", [], 4)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**cfg, "seed": seed}))
            out, hits = tmp_path / f"{name}-summary.json", tmp_path / f"{name}-hits.csv"
            code, _, err = run_cli(
                capsys, "experiment", "--config", str(path), "--out", str(out),
                "--hits-csv", str(hits), *seed_args,
            )
            assert code == 0, err
            runs.append((out.read_bytes(), hits.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["config"]["seed"] == 4

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        cfg = self.make_config(tmp_path)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg), "--threads", threads)
        assert code == 1
        assert "--threads" in err and out == ""

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_usage_error(self, tmp_path, capsys, epsilon):
        cfg = self.make_config(tmp_path)
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(cfg), f"--epsilon={epsilon}"
        )
        assert code == 1
        assert "--epsilon" in err and "finite" in err and out == ""

    def test_modulus_beyond_float_range_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(
            tmp_path,
            q_sequence={"kind": "explicit", "values": [2**e for e in range(1020, 1030)]},
            K=10,
            samples=4,
        )
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert "q_5 has 1025 bits" in err and out == ""

    def test_strong_pseudoprime_modulus_gets_its_true_totient(self, tmp_path, capsys):
        # psi_12 passes Miller-Rabin to the bases 2..37; with phi(psi_12) taken
        # as psi_12 - 1 the union bound 2 alpha phi(q)/q came out too large
        psi12 = 318665857834031151167461
        cfg = self.make_config(
            tmp_path, q_sequence={"kind": "explicit", "values": [psi12]}, K=1, samples=4
        )
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        phi = (399165290221 - 1) * (798330580441 - 1)
        assert F(2, 3) * F(phi, psi12) == F(212443905221889103531200, psi12)
        assert json.loads(out)["union_bound"]["exact"] == f"212443905221889103531200/{psi12}"

    def test_modulus_beyond_exact_primality_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(
            tmp_path,
            q_sequence={"kind": "explicit", "values": [3317044064679887385961981]},
            K=1,
            samples=4,
        )
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert "exact primality range" in err and out == ""

    def test_finite_epsilon_reaches_summary(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, K=30, samples=5)
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--epsilon", "0.1")
        assert code == 0
        assert json.loads(out)["conditions"]["epsilon"] == 0.1

    def test_exact_rational_strings_accepted(self, tmp_path, capsys):
        blobs = []
        for c in ("1/4", "0.25", "25e-2"):
            cfg = self.make_config(tmp_path, K=30, samples=5, alpha_sequence={"kind": "c/k", "c": c})
            code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
            assert code == 0
            blobs.append(out)
        assert blobs[0] == blobs[1] == blobs[2]
        assert json.loads(blobs[0])["config"]["alpha_sequence"]["c"] == "1/4"


# SHA-256 of the summary and of the hits CSV of each committed fixture at
# K = 400 with 60 samples, written while hit records held a Fraction and
# every exact summary string was converted from its own Fraction:
# fixture -> (summary digest, hits digest).
EXPERIMENT_DIGESTS = {
    "convergent_control": (
        "09bc33ab3d5c93e6cd6ee56c3f9a2d1117602881676bfa0b731731582071b199",
        "41c138a869fca667960da6921d9308a16ca6e60e82666878aff51f0c1293e806",
    ),
    "khintchine_d1": (
        "c0329a0644bf57badf17ec790bf0e6750db186bdf955c0fca439214955ec166c",
        "899d0be9e3f7862fe408dee40bb2c8999392c0583f896298ebd61ed234028293",
    ),
    "power_residue_d2": (
        "f928745aa503a5d1299267e27a5d854fc21c86bf001b381addca861f6ed828c4",
        "906ac631d91918d8e862a3d3d2b1bcf131c1918fc85c216a37dd37fd8ead8a2d",
    ),
}


def run_fixture(tmp_path, capsys, fixtures_dir, name, *argv, **changes):
    """Run `experiment` on a committed fixture with its fields changed;
    returns the summary path and the hits CSV path."""
    cfg = {**json.loads((fixtures_dir / f"{name}.json").read_text()), **changes}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out, hits = tmp_path / f"{name}-summary.json", tmp_path / f"{name}-hits.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(path), "--out", str(out), "--hits-csv", str(hits), *argv
    )
    assert code == 0, err
    return out, hits


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_bytes_unchanged(tmp_path, capsys, fixtures_dir, name, threads):
    out, hits = run_fixture(
        tmp_path, capsys, fixtures_dir, name, "--threads", threads, K=400, samples=60
    )
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, hits))
    assert digests == EXPERIMENT_DIGESTS[name]


def test_hits_csv_rows_are_the_records(tmp_path, capsys, fixtures_dir):
    # after sample_index, the columns are HitRecord's fields in order
    out, hits = run_fixture(tmp_path, capsys, fixtures_dir, "khintchine_d1", K=300, samples=20)
    header, rows = parse_csv(hits.read_text())
    assert header == ["sample_index", *HitRecord._fields]
    cfg = ExperimentConfig.from_dict(json.loads(out.read_text())["config"])
    records = prepare(cfg).monte_carlo().per_sample_hits
    assert rows == [[str(v) for v in (i, *h)] for i, hs in enumerate(records) for h in hs]
    assert rows


@pytest.mark.parametrize("name, at_final", [("power_residue_d2", False), ("khintchine_d1", True)])
def test_summary_exact_entries_equal_their_own_conversion(tmp_path, capsys, fixtures_dir, name, at_final):
    # c_ratio_min reuses c_ratio_final's entry when the ratio's first
    # minimum is at n = K (khintchine_d1), and the union bound is written
    # from the weighted sum's digits; both equal a conversion of their own
    out, _ = run_fixture(tmp_path, capsys, fixtures_dir, name, K=400, samples=5)
    summary = json.loads(out.read_text())
    rep = check_conditions(prepare(ExperimentConfig.from_dict(summary["config"])))
    c = summary["conditions"]
    assert (rep.c_ratio_min == rep.c_ratio_final) is at_final
    assert c["c_ratio_min"] == _exact_value(rep.c_ratio_min)
    assert c["c_ratio_final"] == _exact_value(rep.c_ratio_final)
    assert summary["union_bound"] == _exact_value(rep.union_bound)
    assert c["weighted_sum"] == exact_str(rep.weighted_sum_final)


class TestUsageAndVerify:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "arith", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 1

    def test_verify_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out

    def test_verify_json_format(self, capsys, monkeypatch):
        from cosetapprox import verify

        checks = {
            "good": (lambda: (True, "fine"), (), ()),
            "bad": (lambda: (False, "broken"), (), ()),
        }
        monkeypatch.setattr(verify, "_CHECKS", checks)
        code, out, _ = run_cli(capsys, "verify", "--quick", "--format", "json")
        assert code == 3
        results = json.loads(out)
        assert [(r["name"], r["ok"], r["detail"]) for r in results] == [
            ("good", True, "fine"),
            ("bad", False, "broken"),
        ]
        assert all(set(r) == {"name", "ok", "detail", "seconds"} for r in results)
        assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in results)
        del checks["bad"]
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0 and [r["name"] for r in json.loads(out)] == ["good"]
