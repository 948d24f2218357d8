"""Command-line interface: reports, determinism, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

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
from proxsel.simulation import SimConfig, generate_invalid_tcp_ocp_data

from conftest import make_exact_dataset


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

    def test_rotation_mode_rotates_every_ocp_column(
        self, multi_ocp_csv, tmp_path
    ):
        data_path, schema_path, _ = multi_ocp_csv
        out = tmp_path / "rotation.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--mode",
                "rotation",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(str(out))
        assert report.estimate["method"] == "rotation_median"
        assert len(report.per_ocp) == 3
        per = [row.beta_hat for row in report.per_ocp]
        assert report.estimate["beta_hat"] == float(np.median(per))

    def test_rotation_names_the_cause_when_every_rotation_fails(
        self, multi_ocp_csv, tmp_path, capsys
    ):
        _, schema_path, data = multi_ocp_csv
        w = data.W.copy()
        w[:, 1] = data.D  # collinear with D in every TCP block it joins
        broken = Dataset(Y=data.Y, D=data.D, Z=data.Z, W=w, X=data.X)
        data_path = tmp_path / "broken.csv"
        dataset_to_csv(
            data_path, broken, [f"z{j}" for j in range(1, 6)],
            [f"w{k}" for k in range(1, 4)],
        )
        out = tmp_path / "rotation.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--mode",
                "rotation",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: AggregateFailure: every rotation failed")
        assert "w1: RankDeficient" in err
        assert "w2: AssumptionViolation" in err
        assert "w3: RankDeficient" in err

    def test_rotation_mode_needs_at_least_two_ocps(self, exact_csv, tmp_path, capsys):
        data_path, schema_path, _, _ = exact_csv
        out = tmp_path / "r.json"
        code = main(
            [
                "estimate",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--mode",
                "rotation",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

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
