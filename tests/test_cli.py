import csv
import io
import json
import math
import re

import pytest

from bubblefem import transient
from bubblefem.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCoeff:
    def test_reference_element_shows_both_signs(self, capsys):
        code, out = run_cli(
            capsys, "coeff", "--epsilon", "-1", "--kappa", "0", "--lambda", "1",
            "--length", "1.5708", "--order", "2",
        )
        assert code == 0
        assert "-0.2061" in out
        assert "+0.2061" in out  # sign-compat companion value
        assert "closed-form" in out

    def test_defaults_reproduce_reference_element(self, capsys):
        code, out = run_cli(capsys, "coeff")
        assert code == 0
        assert "-0.2061" in out

    def test_json_payload(self, capsys):
        code, out = run_cli(capsys, "coeff", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        values = dict(payload["rows"])
        assert values["least_squares_c"] == pytest.approx(-0.2062, abs=5e-4)
        assert values["sign_compat_c"] == pytest.approx(0.2062, abs=5e-4)
        assert values["closed_form_rel_dev"] <= 1e-10

    def test_cubic_reports_closed_form_deviation(self, capsys):
        code, out = run_cli(
            capsys, "coeff", "--epsilon", "-1", "--kappa", "1", "--lambda", "1",
            "--length", "0.5", "--u0", "1", "--ul", "2", "--order", "3",
        )
        assert code == 0
        assert "deviates" in out

    def test_quartic_order_runs(self, capsys):
        code, out = run_cli(capsys, "coeff", "--order", "4")
        assert code == 0
        assert "least-squares c3" in out


class TestSteady:
    def test_default_benchmark_csv(self, capsys):
        code, out = run_cli(capsys, "steady", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "u_numeric", "u_exact", "abs_error"]
        assert len(rows) == 52  # header + 51 nodes
        assert float(rows[1][1]) == 1.5

    def test_bubble_beats_linear_in_output(self, capsys):
        errors = {}
        for enrichment in ("linear", "quadratic"):
            code, out = run_cli(
                capsys, "steady", "--enrichment", enrichment, "--format", "csv"
            )
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))[1:]
            errors[enrichment] = max(float(r[3]) for r in rows)
        assert errors["quadratic"] < errors["linear"]

    def test_unknown_exact_leaves_blank_columns(self, capsys):
        code, out = run_cli(
            capsys, "steady", "--epsilon", "-1", "--kappa", "2", "--lambda", "1",
            "--a", "0", "--b", "1", "--bc-left", "dirichlet:0",
            "--bc-right", "dirichlet:1", "--elements", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(r[2] == "" and r[3] == "" for r in rows)

    def test_enrichment_order_ten_runs(self, capsys):
        code, out = run_cli(
            capsys, "steady", "--enrichment", "poly:10", "--elements", "20", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert max(float(r[3]) for r in rows) < 1e-10

    def test_invalid_enrichment_is_validation_error(self, capsys):
        code, _ = run_cli(capsys, "steady", "--enrichment", "septic")
        assert code == 1

    def test_invalid_bc_is_validation_error(self, capsys):
        for bc, message in (("fixed=1", "must look like"), ("robin:1", "unknown boundary condition kind")):
            assert main(["steady", "--bc-left", bc]) == 1
            captured = capsys.readouterr()
            assert message in captured.err and "Traceback" not in captured.err

    def test_negative_sample_count_is_a_validation_error(self, capsys):
        assert main(["steady", "--samples", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "Traceback" not in captured.err

    def test_dirichlet_rows_far_from_unit_scale(self, capsys):
        # pure diffusion on [0, 1e16]: element matrices near 1e-14
        code, out = run_cli(
            capsys, "steady", "--epsilon=-1", "--lambda", "0", "--bc-right", "dirichlet:0.5",
            "--b", "1e16", "--elements", "50", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert (float(rows[0][1]), float(rows[-1][1])) == (1.5, 0.5)
        assert max(float(r[3]) for r in rows) <= 1e-13

    def test_singular_system_is_numerical_failure(self, capsys):
        code, _ = run_cli(
            capsys, "steady", "--epsilon", "0", "--kappa", "1", "--lambda", "0",
            "--a", "0", "--b", "1", "--bc-left", "dirichlet:1",
            "--bc-right", "dirichlet:0", "--elements", "2", "--enrichment", "linear",
        )
        assert code == 2


class TestTransient:
    def test_benchmark_run_csv(self, capsys):
        code, out = run_cli(
            capsys, "transient", "--dt", "0.05", "--t-end", "0.2", "--t-stride", "2",
            "--x-samples", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "x", "u_numeric", "u_exact", "abs_error"]
        assert len(rows) == 1 + 3 * 5  # t = 0, 0.1, 0.2 at 5 sample points
        # two elements resolve the profile only coarsely; errors stay bounded
        final = [r for r in rows[1:] if float(r[0]) == 0.2]
        for r in final:
            assert float(r[4]) < 0.15

    def test_cubic_run(self, capsys):
        code, out = run_cli(
            capsys, "transient", "--enrichment", "cubic", "--elements", "8", "--dt", "0.05",
            "--t-end", "0.1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert max(float(r[4]) for r in rows) < 1e-3

    @pytest.mark.parametrize("flags", [
        ["--t-end", "inf"], ["--t-end", "nan"], ["--dt", "inf"], ["--dt", "nan"],
        ["--dt", "1e-308", "--t-end", "10"], ["--x-samples", "-1"],
    ], ids=lambda flags: "=".join(flags).lstrip("-"))
    def test_invalid_times_and_counts_are_validation_errors(self, capsys, flags):
        assert main(["transient", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "Traceback" not in captured.err

    def test_more_steps_than_the_limit_are_a_validation_error(self, capsys, monkeypatch):
        # with assembly stubbed out, a march that is not rejected fails at
        # once instead of running for hours
        def assemble(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(transient, "_assemble_transient", assemble)
        assert main(["transient", "--dt", "1e-300", "--t-end", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "step count" in captured.err

    def test_more_stored_values_than_the_limit_are_a_validation_error(self, capsys, monkeypatch):
        # 10^8 + 1 stored levels of 99999 interior rows, about 80 TB
        def assemble(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(transient, "_assemble_transient", assemble)
        flags = ["--elements", "100000", "--dt", "1e-6", "--t-end", "100", "--t-stride", "1"]
        assert main(["transient", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "values" in captured.err

    def test_probe_value_matches_table(self, capsys):
        code, out = run_cli(
            capsys, "transient", "--dt", "0.001", "--t-end", "0.5", "--t-stride", "500",
            "--x-samples", "8", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        probe = [r for r in rows if float(r[0]) == 0.5 and abs(float(r[1]) - 7 * math.pi / 8) < 1e-9]
        assert len(probe) == 1
        assert float(probe[0][2]) == pytest.approx(0.125, abs=1e-3)


    @pytest.mark.parametrize("argv, bound", [
        # measured 1.5e-5 and 2.9e-4; sin x exp((epsilon - lambda) t) is exact on both
        (("--b", "6.283185307179586"), 1e-4),
        (("--epsilon=-0.5", "--lambda", "0", "--a", "3.141592653589793",
          "--b", "6.283185307179586"), 1e-3),
    ], ids=["0_to_2pi", "pi_to_2pi"])
    def test_exact_column_on_every_domain(self, capsys, argv, bound):
        code, out = run_cli(
            capsys, "transient", *argv, "--elements", "16", "--dt", "0.01", "--t-end", "0.2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2 * 9
        assert all(r[3] != "" for r in rows)
        assert max(float(r[4]) for r in rows) < bound


class TestTables:
    def test_all_rows_pass(self, capsys):
        code, out = run_cli(capsys, "tables", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "x_or_t", "paper_exact", "paper_bubble", "paper_linear",
            "computed_bubble", "computed_linear", "pass",
        ]
        body = rows[1:]
        assert len(body) == 28
        assert all(r[-1] == "true" for r in body)

    def test_human_table_summary(self, capsys):
        code, out = run_cli(capsys, "tables")
        assert code == 0
        assert "28 rows, 28 pass, 0 fail" in out


class TestConvergence:
    def test_default_study(self, capsys):
        code, out = run_cli(capsys, "convergence", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["enrichment", "elements", "nodal_linf", "l2"]
        assert len(rows) == 5
        errors = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        assert errors[("quadratic", "50")] < errors[("linear", "50")]


class TestConfigAndOutput:
    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "tables", "--format", "csv")
        _, second = run_cli(capsys, "tables", "--format", "csv")
        assert first == second
        _, first = run_cli(capsys, "steady", "--format", "json")
        _, second = run_cli(capsys, "steady", "--format", "json")
        assert first == second

    def test_config_file_supplies_values(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"elements": 4, "format": "csv"}))
        code, out = run_cli(capsys, "steady", "--config", str(config))
        assert code == 0
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + 5

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"elements": 4}))
        code, out = run_cli(
            capsys, "steady", "--config", str(config), "--elements", "2", "--format", "csv"
        )
        assert code == 0
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + 3

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"element_count": 4}))
        code, _ = run_cli(capsys, "steady", "--config", str(config))
        assert code == 1

    def test_sign_compat_is_a_transient_option_only(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "steady", "--sign-compat", "false")
        assert code == 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sign_compat": False}))
        code, _ = run_cli(capsys, "steady", "--config", str(config))
        assert code == 1
        code, _ = run_cli(capsys, "transient", "--config", str(config), "--t-end", "0.01")
        assert code == 0
        code, _ = run_cli(capsys, "transient", "--sign-compat", "false", "--t-end", "0.01")
        assert code == 0

    def test_sign_compat_values(self, capsys):
        # true is the default; a word that is not a boolean is rejected
        argv = ["transient", "--t-end", "0.01", "--format", "csv"]
        assert run_cli(capsys, *argv, "--sign-compat", "true") == run_cli(capsys, *argv)
        assert main([*argv, "--sign-compat", "maybe"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a boolean" in captured.err and "Traceback" not in captured.err

    def test_initial_profile_is_fixed(self, capsys, tmp_path):
        # the initial profile is always sin x: neither a flag nor a config key sets it
        code, _ = run_cli(capsys, "transient", "--initial", "sin", "--t-end", "0.01")
        assert code == 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"initial": "sin"}))
        code, _ = run_cli(capsys, "transient", "--config", str(config), "--t-end", "0.01")
        assert code == 1

    @pytest.mark.parametrize("command, config, flags", [
        ("transient", {"sign_compat": "false"}, ["--sign-compat", "false"]),
        ("transient", {"dt": "0.05", "t_end": "0.1"}, ["--dt", "0.05", "--t-end", "0.1"]),
        ("steady", {"elements": None}, []),
        ("transient", {"lambda": 2, "t_end": 0.1}, ["--lambda", "2", "--t-end", "0.1"]),
    ], ids=["sign_compat_string", "number_strings", "null", "lambda_alias"])
    def test_config_values_match_flags(self, capsys, tmp_path, command, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        from_file = run_cli(capsys, command, "--config", str(path), "--format", "csv")
        from_flags = run_cli(capsys, command, *flags, "--format", "csv")
        assert from_file[0] == from_flags[0] == 0
        assert from_file[1] == from_flags[1]

    @pytest.mark.parametrize("config, flags", [
        ({"elements": 4.7}, ["--elements", "4.7"]),
        ({"format": "yaml"}, ["--format", "yaml"]),
        ({"enrichment": 3}, ["--enrichment", "3"]),
    ], ids=["elements", "format", "enrichment"])
    def test_config_values_rejected_like_flags(self, capsys, tmp_path, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        for argv in (["--config", str(path)], flags):
            assert main(["steady", *argv]) == 1
            assert "Traceback" not in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps([["elements", 4]]))
        assert main(["steady", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "JSON object" in captured.err and "Traceback" not in captured.err

    def test_missing_config_file(self, capsys):
        code, _ = run_cli(capsys, "steady", "--config", "/nonexistent/run.json")
        assert code == 1

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run_cli(capsys, "tables", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x_or_t,")

    def test_help_exits_zero(self, capsys):
        code, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_missing_subcommand_is_validation_error(self, capsys):
        code, _ = run_cli(capsys)
        assert code == 1


_SHOWN_DEFAULT = {
    "coeff": "--order=2",
    "steady": "--elements=50",
    "transient": "--sign-compat=True",
    "tables": "--format=table",
    "convergence": "--counts=30,50",
    "selftest": "--format=table",
}


@pytest.mark.parametrize("command", list(_SHOWN_DEFAULT))
def test_subcommand_help_lists_defaults(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "1000")  # one unwrapped epilog line
    code, out = run_cli(capsys, command, "--help")
    assert code == 0
    epilog = next(line for line in out.splitlines() if line.startswith("defaults: "))
    defaults = epilog.removeprefix("defaults: ").split(", ")
    assert _SHOWN_DEFAULT[command] in defaults
    # every option with a default, i.e. all but --help, --config and --out
    options = set(re.findall(r"^  (--[\w-]+)", out, flags=re.M))
    assert {d.split("=")[0] for d in defaults} == options - {"--help", "--config", "--out"}
