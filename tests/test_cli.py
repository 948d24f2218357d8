"""Command-line interface: reports, determinism, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from proxsel import cli, estimators
from proxsel.cli import build_parser, main
from proxsel.data_io import SchemaMap, load_csv, read_report
from proxsel.estimators import (
    Dataset,
    EstimationConfig,
    default_subsample_size,
    estimate_invalid_tcp,
    estimate_invalid_tcp_ocp,
    subsample_ci,
)
from proxsel.simulation import SimConfig, generate_invalid_tcp_ocp_data, run_monte_carlo

from conftest import make_exact_dataset, population_reduced_form


def dataset_to_csv(path, data, tcp_names, ocp_names):
    header = ["y", "d", *tcp_names, *ocp_names]
    cols = [data.Y, data.D]
    cols += [data.Z[:, j] for j in range(data.p_z)]
    cols += [data.W[:, k] for k in range(data.p_w)]
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_schema(path, tcp_names, ocp_names):
    path.write_text(
        json.dumps(
            {
                "outcome_column": "y",
                "treatment_column": "d",
                "tcp_columns": list(tcp_names),
                "ocp_columns": list(ocp_names),
            }
        ),
        encoding="utf-8",
    )


@pytest.fixture
def exact_csv(tmp_path):
    data, truth = make_exact_dataset()
    tcp_names = [f"z{j}" for j in range(1, 5)]
    ocp_names = ["w1"]
    data_path = tmp_path / "data.csv"
    schema_path = tmp_path / "schema.json"
    dataset_to_csv(data_path, data, tcp_names, ocp_names)
    write_schema(schema_path, tcp_names, ocp_names)
    return data_path, schema_path, data, truth


@pytest.fixture
def multi_ocp_csv(tmp_path):
    config = SimConfig(
        n=300, p_z=5, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0, seed=21
    )
    data = generate_invalid_tcp_ocp_data(config, 0)
    tcp_names = [f"z{j}" for j in range(1, 6)]
    ocp_names = [f"w{k}" for k in range(1, 4)]
    data_path = tmp_path / "multi.csv"
    schema_path = tmp_path / "multi_schema.json"
    dataset_to_csv(data_path, data, tcp_names, ocp_names)
    write_schema(schema_path, tcp_names, ocp_names)
    return data_path, schema_path, data


class TestParserDefaults:
    def test_estimate_defaults(self):
        args = build_parser().parse_args(
            ["estimate", "--data", "d.csv", "--schema", "s.json", "--out", "r"]
        )
        assert args.mode == "median"
        assert args.subsample_n == 1000
        assert args.subsample_b is None
        assert args.seed == 0
        assert args.jobs == 1
        assert args.format == "structured"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "r.json"])
        assert args.methods == "adaptive,oracle,naive,ols"
        assert args.subsample_n == 0
        assert args.jobs == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--data", "d.csv", "--schema", "s.json", "--out", "r",
             "--mode", "rotation"],
            ["reproduce", "--study", "single_ocp_n", "--out", "r.json",
             "--jobs", "2"],
        ],
        ids=["estimate-mode-rotation", "reproduce-jobs"],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestSimulateCommand:
    def run(self, tmp_path, name, extra=()):
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {"n": 200, "p_z": 4, "s_z": 1, "reps": 3, "y_noise_sd": 1.0}
            ),
            encoding="utf-8",
        )
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--config",
                str(config),
                "--methods",
                "adaptive,ols",
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_writes_a_structured_report(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "report.json")
        assert code == 0
        assert "report written" in capsys.readouterr().out
        report = read_report(str(out))
        assert report.command == "simulate"
        mc = report.diagnostics["monte_carlo"]
        assert set(mc["methods"]) == {"adaptive", "ols"}
        assert report.config["sim"]["n"] == 200
        assert report.timing is None

    def test_too_few_rows_exit_with_a_config_error(self, tmp_path, capsys):
        config, out = tmp_path / "small.json", tmp_path / "never.json"
        config.write_text(json.dumps({"n": 12}), encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: {config}: need n > p_z + p_w + 1 = 12, got n = 12\n")
        assert not out.exists()

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        _, a = self.run(tmp_path, "a.json")
        _, b = self.run(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        _, a = self.run(tmp_path, "one.json", ("--jobs", "1"))
        _, b = self.run(tmp_path, "four.json", ("--jobs", "4"))
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_records_a_duration(self, tmp_path):
        _, out = self.run(tmp_path, "timed.json", ("--timing",))
        report = read_report(str(out))
        assert report.timing is not None and report.timing >= 0.0

    def test_seed_override_changes_results(self, tmp_path):
        _, a = self.run(tmp_path, "s0.json")
        _, b = self.run(tmp_path, "s9.json", ("--seed", "9"))
        ra, rb = read_report(str(a)), read_report(str(b))
        assert (
            ra.diagnostics["monte_carlo"]["methods"]
            != rb.diagnostics["monte_carlo"]["methods"]
        )
        assert rb.seed == 9

    @pytest.mark.parametrize("methods, message", [
        ("adaptive,adaptive", "--methods names 'adaptive' twice"),
        (" , ", "--methods names no method"),
    ], ids=["duplicate", "empty"])
    def test_a_duplicate_or_empty_method_list_exits_without_a_report(
        self, tmp_path, capsys, methods, message
    ):
        out = tmp_path / "never.json"
        code = main(["simulate", "--methods", methods, "--out", str(out)])
        assert code == 1
        assert f"ConfigError: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_nonzero_without_a_report(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"p_z": 2, "s_z": 5}', encoding="utf-8")
        out = tmp_path / "never.json"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out)]
        )
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_the_median_builds_its_interval_settings(self, tmp_path, capsys):
        # the later --methods wins over run()'s own
        code, out = self.run(
            tmp_path, "median.json", ("--methods", "median_adaptive", "--subsample-n", "10"))
        assert code == 0 and capsys.readouterr().err == ""
        report = read_report(str(out))
        assert report.config["subsample"] == {"n_subsamples": 10, "b": None, "recenter": False}
        assert set(report.diagnostics["monte_carlo"]["methods"]) == {"median_adaptive"}

    def test_an_unknown_method_exits_without_a_report(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["simulate", "--methods", "bogus", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: unknown method 'bogus'; available: adaptive, "
            "median_adaptive, oracle, naive, ols\n")
        assert not out.exists()


class TestReproduceCommand:
    def test_unknown_study_is_rejected_by_the_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["reproduce", "--study", "everything", "--out", "r.json"]
            )

    def test_study_choices_are_exposed(self):
        args = build_parser().parse_args(
            ["reproduce", "--study", "single_ocp_sz", "--out", "r.json"]
        )
        assert args.study == "single_ocp_sz"
        assert args.scale == "desk"


class TestEstimateCommand:
    def test_single_mode_matches_the_library_bit_for_bit(
        self, exact_csv, tmp_path
    ):
        data_path, schema_path, data, _ = exact_csv
        out = tmp_path / "single.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--mode",
                "single",
                "--ocp",
                "w1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(str(out))
        direct = estimate_invalid_tcp(data)
        assert report.estimate["beta_hat"] == direct.beta_hat
        assert report.estimate["ci_lower"] == direct.ci_lower
        assert report.estimate["selected_invalid_tcp_names"] == ["z1"]

    def test_median_mode_reports_per_ocp_rows_and_subsample_interval(
        self, multi_ocp_csv, tmp_path
    ):
        data_path, schema_path, data = multi_ocp_csv
        out = tmp_path / "median.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--subsample-n",
                "8",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(str(out))
        assert len(report.per_ocp) == 3
        assert [row.label for row in report.per_ocp] == ["w1", "w2", "w3"]
        direct = estimate_invalid_tcp_ocp(data)
        assert report.estimate["beta_hat"] == direct.beta_hat
        lo, hi = subsample_ci(data, n_subsamples=8, seed=5)
        assert report.estimate["ci_lower"] == lo
        assert report.estimate["ci_upper"] == hi
        assert report.estimate["ci_method"] == "subsampling"
        assert report.estimate["subsample_b"] == default_subsample_size(300)

    def test_median_rows_equal_the_single_ocp_estimates(self, tmp_path):
        config = SimConfig(
            n=300, p_z=5, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0, seed=22
        )
        base = generate_invalid_tcp_ocp_data(config, 0)
        w = base.W.copy()
        w[:, 2] = base.D  # its TCP coefficients are zero: the pilots fail
        broken = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)
        tcp_names = [f"z{j}" for j in range(1, 6)]
        ocp_names = ["w1", "w2", "w3"]
        data_path = tmp_path / "broken.csv"
        schema_path = tmp_path / "broken_schema.json"
        dataset_to_csv(data_path, broken, tcp_names, ocp_names)
        write_schema(schema_path, tcp_names, ocp_names)
        out = tmp_path / "median.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--subsample-n",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(str(out))
        for k, row in enumerate(report.per_ocp[:2]):
            direct = estimate_invalid_tcp(broken, k)
            assert row.error is None
            assert row.beta_hat == direct.beta_hat
            assert row.ci_lower == direct.ci_lower
            assert row.ci_upper == direct.ci_upper
            assert row.invalid_tcps == tuple(
                tcp_names[j] for j in direct.selected_invalid_tcps
            )
        failed = report.per_ocp[2]
        assert failed.beta_hat is None
        assert failed.error.startswith("AssumptionViolation:")
        assert report.estimate["beta_hat"] == float(
            np.median([row.beta_hat for row in report.per_ocp[:2]])
        )

    def test_median_mode_is_byte_identical_across_worker_counts(
        self, multi_ocp_csv, tmp_path
    ):
        data_path, schema_path, _ = multi_ocp_csv
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}.json"
            code = main(
                [
                    "estimate",
                    "--data",
                    str(data_path),
                    "--schema",
                    str(schema_path),
                    "--subsample-n",
                    "6",
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_table_format_renders_the_summary(self, multi_ocp_csv, tmp_path):
        data_path, schema_path, _ = multi_ocp_csv
        out = tmp_path / "report.txt"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--subsample-n",
                "0",
                "--format",
                "table",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "OCP" in text and "95% CI" in text

    def test_table_labels_the_interval_with_the_configured_level(
        self, multi_ocp_csv, tmp_path
    ):
        data_path, schema_path, _ = multi_ocp_csv
        config = tmp_path / "est.json"
        config.write_text(json.dumps({"alpha_level": 0.1}), encoding="utf-8")
        out = tmp_path / "report.txt"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--config",
                str(config),
                "--mode",
                "single",
                "--ocp",
                "w2",
                "--format",
                "table",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.rstrip().endswith("| 90% CI")

    def test_subsample_size_at_the_dataset_minimum_is_refused(
        self, multi_ocp_csv, tmp_path, capsys
    ):
        data_path, schema_path, data = multi_ocp_csv
        out = tmp_path / "never.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--subsample-n",
                "5",
                "--subsample-b",
                str(data.p_z + data.p_w + data.p_x + 1),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "error: InvalidBound:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_exits_nonzero(self, exact_csv, tmp_path, capsys):
        _, schema_path, _, _ = exact_csv
        out = tmp_path / "never.json"
        code = main(
            [
                "estimate",
                "--data",
                str(tmp_path / "absent.csv"),
                "--schema",
                str(schema_path),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "IoError" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_schema_exits_with_an_io_error(self, exact_csv, tmp_path, capsys):
        data_path, _, _, _ = exact_csv
        out = tmp_path / "never.json"
        code = main(["estimate", "--data", str(data_path), "--schema",
                     str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == 1
        assert "error: IoError: cannot open" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_penalty_exits_with_a_config_error(self, exact_csv, tmp_path, capsys):
        data_path, schema_path, _, _ = exact_csv
        config, out = tmp_path / "nan.json", tmp_path / "never.json"
        config.write_text('{"lambda_n": NaN}', encoding="utf-8")
        code = main(["estimate", "--data", str(data_path), "--schema", str(schema_path),
                     "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "lambda_n" in err
        assert not out.exists()

    def test_infinite_penalty_exits_before_the_fit(self, exact_csv, tmp_path, capsys):
        # Accepted, it used to fit and print the table, then fail writing the report.
        data_path, schema_path, _, _ = exact_csv
        config, out = tmp_path / "inf.json", tmp_path / "never.json"
        config.write_text('{"lambda_n": Infinity}', encoding="utf-8")
        code = main(["estimate", "--data", str(data_path), "--schema", str(schema_path),
                     "--config", str(config), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: ConfigError: {config}: key 'lambda_n' must be finite, got inf\n")
        assert captured.out == ""
        assert not out.exists()

    def test_non_finite_cell_exits_with_a_parse_error(self, tmp_path, capsys):
        data_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
        rows = np.random.default_rng(2).uniform(-2, 2, (6, 4)).round(3)
        lines = ["y,d,z1,z2,w1"] + [
            ",".join(["-nan" if i == 0 else "1.5", *map(str, row)])
            for i, row in enumerate(rows)
        ]
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_schema(schema_path, ["z1", "z2"], ["w1"])
        out = tmp_path / "never.json"
        code = main(["estimate", "--data", str(data_path), "--schema",
                     str(schema_path), "--out", str(out)])
        assert code == 1
        assert "error: ParseError: row 1, column 'y'" in capsys.readouterr().err
        assert not out.exists()


class TestNegativeSubsampleCount:
    """Both subcommands with ``--subsample-n`` refuse a negative count, which
    used to run without an interval (``estimate`` wrote it into the report)."""

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_exits_with_a_config_error_naming_the_flag(
        self, command, multi_ocp_csv, tmp_path, capsys
    ):
        data_path, schema_path, _ = multi_ocp_csv
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 200, "p_z": 4, "s_z": 1, "reps": 3}), encoding="utf-8")
        inputs = {
            "estimate": ["--data", str(data_path), "--schema", str(schema_path),
                         "--mode", "median"],
            "simulate": ["--config", str(sim), "--methods", "median_adaptive"],
        }
        out = tmp_path / "never.json"
        code = main([command, *inputs[command], "--subsample-n", "-5", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ConfigError: --subsample-n must be >= 0, got -5\n"
        assert captured.out == ""
        assert not out.exists()


class TestNegativeSeed:
    """Every subcommand with ``--seed`` refuses a negative one up front; each
    used to fail late, with numpy's bare ``ValueError`` (``estimate`` after
    printing its full-sample fit)."""

    @pytest.mark.parametrize("command", ["estimate", "simulate", "reproduce"])
    def test_exits_with_a_config_error_naming_the_flag(
        self, command, multi_ocp_csv, tmp_path, capsys
    ):
        data_path, schema_path, _ = multi_ocp_csv
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 200, "p_z": 4, "s_z": 1, "reps": 3}), encoding="utf-8")
        inputs = {
            "estimate": ["--data", str(data_path), "--schema", str(schema_path),
                         "--subsample-n", "20"],
            "simulate": ["--config", str(sim), "--methods", "ols"],
            "reproduce": ["--study", "single_ocp_sz"],
        }
        out = tmp_path / "never.json"
        code = main([command, *inputs[command], "--seed", "-2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ConfigError: --seed must be >= 0, got -2\n"
        assert captured.out == ""
        assert not out.exists()


class TestJobsBelowOne:
    """Both subcommands with ``--jobs`` refuse a count below 1 up front;
    ``estimate`` used to accept it and ``simulate`` to fail with the bare
    ``ValueError`` of :func:`~proxsel.simulation.run_monte_carlo`."""

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_exits_with_a_config_error_naming_the_flag(
        self, command, jobs, multi_ocp_csv, tmp_path, capsys
    ):
        data_path, schema_path, _ = multi_ocp_csv
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 200, "p_z": 4, "s_z": 1, "reps": 3}), encoding="utf-8")
        inputs = {
            "estimate": ["--data", str(data_path), "--schema", str(schema_path),
                         "--subsample-n", "20"],
            "simulate": ["--config", str(sim), "--methods", "ols"],
        }
        out = tmp_path / "never.json"
        code = main([command, *inputs[command], "--jobs", jobs, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: --jobs must be >= 1, got {jobs}\n"
        assert captured.out == ""
        assert not out.exists()


class TestSubsampleSizeWithoutInterval:
    """``--subsample-b`` while ``--subsample-n`` is 0 is refused: ``estimate``
    used to write the unchecked size into its report and ``simulate`` to drop
    it silently."""

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_exits_with_a_config_error_naming_both_flags(
        self, command, multi_ocp_csv, tmp_path, capsys
    ):
        data_path, schema_path, _ = multi_ocp_csv
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 200, "p_z": 4, "s_z": 1, "reps": 3}), encoding="utf-8")
        inputs = {  # estimate defaults to 1000 subsamples, simulate to none
            "estimate": ["--data", str(data_path), "--schema", str(schema_path),
                         "--subsample-n", "0", "--subsample-b", "-3"],
            "simulate": ["--config", str(sim), "--methods", "median_adaptive",
                         "--subsample-b", "50"],
        }
        out = tmp_path / "never.json"
        code = main([command, *inputs[command], "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: ConfigError: --subsample-b needs --subsample-n > 0 (got --subsample-n 0)\n")
        assert captured.out == ""
        assert not out.exists()


@pytest.fixture
def command_argv(multi_ocp_csv, tmp_path, monkeypatch):
    """Each subcommand's arguments, without ``--out`` and ``--timing``, on
    small inputs; ``reproduce`` runs one small Monte Carlo for its study."""
    data_path, schema_path, _ = multi_ocp_csv
    data = ["--data", str(data_path), "--schema", str(schema_path)]
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"n": 200, "p_z": 4, "s_z": 1, "reps": 3}), encoding="utf-8")
    tiny = SimConfig(n=200, p_z=4, s_z=1, reps=3, y_noise_sd=1.0)
    monkeypatch.setattr(cli, "run_study", lambda study, scale, seed: {
        "cell": run_monte_carlo(tiny, ("ols",))
    })
    return {
        "simulate": ["simulate", "--config", str(sim), "--methods", "ols"],
        "reproduce": ["reproduce", "--study", "single_ocp_sz"],
        "estimate": ["estimate", *data, "--mode", "single"],
        "identify": ["identify", "--delta-tilde", "1,2,3,4", "--gamma-tilde", "1,2,3,8",
                     "--invalid-bound", "3"],
        "diagnose": ["diagnose", *data, "--invalid-set", "z1"],
    }


class TestFinishingACommand:
    """``main`` times, writes and announces the report of every command."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_out_writes_the_report_and_announces_it_last(
        self, command, command_argv, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        assert main([*command_argv[command], "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[-1] == f"report written to {out}"
        assert stdout.count("report written to") == 1
        report = read_report(str(out))
        assert report.command == command
        assert report.timing is None

    @pytest.mark.parametrize("command", ["identify", "diagnose"])
    def test_without_out_nothing_is_written_or_announced(
        self, command, command_argv, tmp_path, capsys
    ):
        before = sorted(tmp_path.iterdir())
        assert main(command_argv[command]) == 0
        assert "report written" not in capsys.readouterr().out
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["simulate", "reproduce", "estimate"])
    def test_timing_flag_records_seconds(self, command, command_argv, tmp_path):
        timed, untimed = tmp_path / "timed.json", tmp_path / "untimed.json"
        assert main([*command_argv[command], "--out", str(timed), "--timing"]) == 0
        assert main([*command_argv[command], "--out", str(untimed)]) == 0
        assert isinstance(read_report(str(timed)).timing, float)
        assert json.loads(untimed.read_text(encoding="utf-8"))["timing"] is None

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_out_into_a_missing_directory_fails_after_the_output(
        self, command, command_argv, tmp_path, capsys
    ):
        out = tmp_path / "absent" / "report.json"
        assert main([*command_argv[command], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: IoError: cannot write" in captured.err
        assert captured.out.strip()
        assert "report written" not in captured.out
        assert not out.exists()


class TestIdentifyCommand:
    def test_agreeing_vectors_identify(self, capsys):
        code = main(
            [
                "identify",
                "--delta-tilde",
                "1,2,3,4",
                "--gamma-tilde",
                "1,2,3,8",
                "--invalid-bound",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identified"] is True
        assert payload["distinct_q_count"] == 1

    def test_conflicting_vectors_do_not_identify(self, capsys, tmp_path):
        out = tmp_path / "identify.json"
        code = main(
            [
                "identify",
                "--delta-tilde",
                "1,2,3,4",
                "--gamma-tilde",
                "1,2,6,8",
                "--invalid-bound",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.index("report written")])
        assert payload["identified"] is False
        subsets = {tuple(s["indices"]): s["q"] for s in payload["subsets"]}
        assert subsets[(0, 1)] == pytest.approx(1.0)
        assert subsets[(2, 3)] == pytest.approx(2.0)
        report = read_report(str(out))
        assert report.diagnostics["identification"]["identified"] is False

    def test_no_consistent_subset_warns_of_a_vacuous_verdict(self, tmp_path, capsys):
        # The benchmark's identify call on its median-ci CSV: no subset of
        # estimated ratios agrees to the default 1e-6.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        tcp_names = [f"z{j}" for j in range(1, 11)]
        ocp_names = [f"w{k}" for k in range(1, 11)]
        data_path, schema_path = tmp_path / "study.csv", tmp_path / "schema.json"
        dataset_to_csv(data_path, data, tcp_names, ocp_names)
        write_schema(schema_path, tcp_names, ocp_names)
        code = main(["identify", "--data", str(data_path), "--schema", str(schema_path),
                     "--ocp", "w4", "--invalid-bound", "4"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["identified"] is True and payload["subsets"] == []
        warnings = captured.err.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")
        assert '"identified": true holds vacuously' in warnings[0]
        assert "statistical tolerance" in warnings[0]

    def test_agreeing_population_vectors_do_not_warn(self, capsys):
        delta, gamma = population_reduced_form(SimConfig(p_z=10, s_z=3))
        code = main([
            "identify", "--delta-tilde", ",".join(repr(float(v)) for v in delta[:10]),
            "--gamma-tilde", ",".join(repr(float(v)) for v in gamma[:10]),
            "--invalid-bound", "4",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["distinct_q_count"] == 1
        assert captured.err == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_a_tolerance_outside_zero_to_infinity_exits_without_a_verdict(self, tol, capsys):
        code = main(["identify", "--delta-tilde", "1,2,3,4", "--gamma-tilde", "1,2,3,8",
                     "--invalid-bound", "3", "--tol", tol])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidBound: tol must lie in [0, inf), got {float(tol)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_a_bad_delimiter_exits_with_a_config_error(self, delimiter, multi_ocp_csv, capsys):
        data_path, schema_path, _ = multi_ocp_csv
        code = main(["identify", "--data", str(data_path), "--schema", str(schema_path),
                     "--delimiter", delimiter, "--invalid-bound", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError: delimiter must be exactly one")
        assert captured.out == ""

    def test_vector_length_mismatch_exits_nonzero(self, capsys):
        code = main(
            [
                "identify",
                "--delta-tilde",
                "1,2",
                "--gamma-tilde",
                "1",
                "--invalid-bound",
                "1",
            ]
        )
        assert code == 1


class TestDiagnoseCommand:
    def test_reports_selection_diagnostics(self, multi_ocp_csv, capsys):
        data_path, schema_path, _ = multi_ocp_csv
        code = main(
            [
                "diagnose",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--invalid-set",
                "z1,z2",
                "--sparsity",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["irrepresentable"]["invalid_set"] == ["z1", "z2"]
        assert isinstance(payload["irrepresentable"]["holds"], bool)
        assert "recovery_margin" in payload
        assert set(payload["rip"]) == {"tcp", "ocp_fit", "treatment_resid"}

    def test_a_repeated_invalid_set_entry_is_echoed_once(self, multi_ocp_csv, capsys):
        data_path, schema_path, _ = multi_ocp_csv
        payloads = []
        for entries in ("z1,z1,z2", "z1,z2"):
            argv = ["diagnose", "--data", str(data_path), "--schema", str(schema_path),
                    "--invalid-set", entries]
            assert main(argv) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]
        assert payloads[0]["irrepresentable"]["invalid_set"] == ["z1", "z2"]

    def test_factors_the_data_once(self, multi_ocp_csv, capsys, monkeypatch):
        data_path, schema_path, _ = multi_ocp_csv
        factored = []
        factor = estimators._factor
        monkeypatch.setattr(estimators, "_factor",
                            lambda *args: factored.append(args[2]) or factor(*args))
        argv = ["diagnose", "--data", str(data_path), "--schema", str(schema_path),
                "--invalid-set", "z1,z2", "--sparsity", "2"]
        assert main(argv) == 0
        assert factored == [1]
        assert "recovery_margin" in json.loads(capsys.readouterr().out)

    def test_combinatorial_guard_refuses_large_enumerations(
        self, tmp_path, capsys
    ):
        rng = np.random.default_rng(0)
        n, p_z = 64, 30
        header = ["y", "d"] + [f"z{j}" for j in range(1, p_z + 1)] + ["w1"]
        table = rng.standard_normal((n, len(header)))
        lines = [",".join(header)]
        lines += [",".join(repr(float(v)) for v in row) for row in table]
        data_path = tmp_path / "wide.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema_path = tmp_path / "wide_schema.json"
        write_schema(
            schema_path, [f"z{j}" for j in range(1, p_z + 1)], ["w1"]
        )
        code = main(
            [
                "diagnose",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--sparsity",
                "10",
            ]
        )
        assert code == 1
        assert "CombinatorialBlowup" in capsys.readouterr().err


class TestArgumentErrors:
    """Paths of the commands that no other test runs: each exit code, and
    the line on stderr."""

    @pytest.mark.parametrize("ocp, code, err", [
        ("2", 0, ""),
        ("99", 1, "error: ConfigError: --ocp index 99 out of range [0, 2]\n"),
        ("w99", 1, "error: ConfigError: --ocp 'w99' is neither a known column name nor an "
                   "index; columns: w1, w2, w3\n"),
    ], ids=["index", "index-out-of-range", "unknown-name"])
    def test_an_ocp_is_a_column_name_or_an_index(self, ocp, code, err, multi_ocp_csv, tmp_path,
                                                 capsys):
        data_path, schema_path, _ = multi_ocp_csv
        out = tmp_path / "single.json"
        assert main(["estimate", "--data", str(data_path), "--schema", str(schema_path),
                     "--mode", "single", "--ocp", ocp, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)
        if code == 0:
            assert [row.label for row in read_report(str(out)).per_ocp] == ["w3"]

    def test_estimate_echoes_an_explicit_subsample_size(self, multi_ocp_csv, tmp_path, capsys):
        data_path, schema_path, _ = multi_ocp_csv
        out = tmp_path / "median.json"
        assert main(["estimate", "--data", str(data_path), "--schema", str(schema_path),
                     "--subsample-n", "20", "--subsample-b", "150", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_report(str(out)).estimate["subsample_b"] == 150

    @pytest.mark.parametrize("argv, err", [
        (["--delta-tilde", "1,2"], "--delta-tilde and --gamma-tilde must be given together"),
        (["--gamma-tilde", "1,2"], "--delta-tilde and --gamma-tilde must be given together"),
        (["--data", "d.csv"], "--data input needs --schema"),
        ([], "provide either --delta-tilde/--gamma-tilde or --data/--schema"),
        (["--delta-tilde", "1,x", "--gamma-tilde", "1,2"],
         "--delta-tilde must be a comma-separated number list"),
        (["--delta-tilde", " , ", "--gamma-tilde", "1,2"],
         "--delta-tilde must contain at least one number"),
    ], ids=["delta-alone", "gamma-alone", "data-without-schema", "no-input", "not-a-number",
            "no-number"])
    def test_identify_refuses_an_incomplete_input(self, argv, err, capsys):
        assert main(["identify", *argv, "--invalid-bound", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: {err}\n"
        assert captured.out == ""

    def test_diagnose_needs_a_diagnostic(self, multi_ocp_csv, capsys):
        data_path, schema_path, _ = multi_ocp_csv
        assert main(["diagnose", "--data", str(data_path), "--schema", str(schema_path)]) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: provide --invalid-set and/or --sparsity\n")
