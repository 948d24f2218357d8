"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (the
program receives only the generated inputs) and runs one operation per
``op`` call. ``record`` reduces an operation's output to the fixed-size
record its checks need, and ``check`` tests a sample of those records
afterwards with the independent computations in :mod:`checks`. The
harness sets ``warmup`` to the output of the set-up's warm-up operation. A
run sets up ``setups`` times and reports the median.

- ``mc-single``: ``run_monte_carlo`` on the criterion-1 design. Per-fit fixed
  cost (n-row QRs, the variance plug-in, the KKT certificate) dominates; no
  subsampling and no file I/O.
- ``median-ci``: ``proxsel identify`` then ``proxsel estimate --mode median
  --subsample-n 200`` on a CSV, called in-process through
  ``proxsel.cli.main``. Subsampling over 10 OCPs dominates; the operation
  also passes through CSV loading, report writing and the identification
  check.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from typing import Any

import numpy as np

import checks

# Criterion-1 design: 3 of 10 TCPs invalid, one valid OCP.
MC_SIZES = dict(n=2500, p_z=10, s_z=3, p_w=1)
MC_METHODS = ("adaptive", "oracle", "naive", "ols")
MC_REPS = 4

# Median design: 3 of 10 TCPs invalid, 3 of 10 OCPs invalid.
MEDIAN_SIZES = dict(n=2500, p_z=10, s_z=3, p_w=10, s_w=3)
MEDIAN_SUBSAMPLES = 200
# The identification pre-check: first valid OCP, a strict bound of 4 invalid
# TCPs (3 are), so subsets of 7 of the 10 TCPs, at the default tolerance.
IDENTIFY_OCP = "w4"
IDENTIFY_BOUND = 4
IDENTIFY_TOL = 1e-6


class MonteCarlo:
    name = "mc-single"
    setups = 15

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        self.seed, self.jobs = seed, jobs

    def setup(self) -> None:
        self.sim = importlib.import_module("proxsel.simulation")
        self.est = importlib.import_module("proxsel.estimators")

    def config(self, i: int):
        # Successive seeds, so every operation draws fresh datasets.
        return self.sim.SimConfig(
            **MC_SIZES, reps=MC_REPS, seed=self.seed * 1_000_000 + i
        )

    def op(self, i: int):
        return self.sim.run_monte_carlo(self.config(i), MC_METHODS, n_jobs=self.jobs)

    def record(self, report) -> tuple[float, ...]:
        """The ``oracle`` and ``adaptive`` rows' ``(bias, se)``."""
        return tuple(
            x for m in ("oracle", "adaptive")
            for x in (report.methods[m].bias, report.methods[m].se)
        )

    def check(self, kept: list[tuple[int, Any]]) -> list[str]:
        """Recompute each kept operation from its regenerated datasets."""
        errors = []
        invalid = tuple(range(MC_SIZES["s_z"]))
        for i, (o_bias, o_se, a_bias, a_se) in kept:
            config = self.config(i)
            datasets = [
                self.sim.generate_invalid_tcp_ocp_data(config, r)
                for r in range(config.reps)
            ]
            oracle = [
                checks.lstsq_2sls(d.Y, d.D, d.Z, d.W[:, 0], invalid)
                for d in datasets
            ]
            methods = {"oracle": (o_bias, o_se), "adaptive": (a_bias, a_se)}

            def adaptive_runs():
                fits = [self.est.estimate_invalid_tcp(d, 0) for d in datasets]
                return [(e.selected_invalid_tcps, e.beta_hat) for e in fits]

            found = checks.check_monte_carlo(
                methods, oracle, config.beta_true, invalid, adaptive_runs
            )
            errors.extend(f"operation {i}: {e}" for e in found)
        return errors


class MedianCi:
    name = "median-ci"
    setups = 7
    subsample_n = MEDIAN_SUBSAMPLES
    warmup: tuple[str, bytes]

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        self.seed, self.workdir, self.jobs = seed, workdir, jobs

    def setup(self) -> None:
        self.sim = importlib.import_module("proxsel.simulation")
        self.cli = importlib.import_module("proxsel.cli")
        config = self.sim.SimConfig(**MEDIAN_SIZES, seed=self.seed)
        data = self.sim.generate_invalid_tcp_ocp_data(config, 0)
        self.tcp_names = [f"z{j + 1}" for j in range(data.p_z)]
        self.ocp_names = [f"w{k + 1}" for k in range(data.p_w)]
        self.csv_path = os.path.join(self.workdir, "study.csv")
        schema_path = os.path.join(self.workdir, "schema.json")
        self.report_path = os.path.join(self.workdir, "report.json")
        with open(self.csv_path, "w", encoding="utf-8") as handle:
            handle.write(",".join(["y", "d", *self.tcp_names, *self.ocp_names]) + "\n")
            for row in np.column_stack([data.Y, data.D, data.Z, data.W]):
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        schema = {
            "outcome_column": "y",
            "treatment_column": "d",
            "tcp_columns": self.tcp_names,
            "ocp_columns": self.ocp_names,
        }
        with open(schema_path, "w", encoding="utf-8") as handle:
            json.dump(schema, handle)
        self.identify_argv = [
            "identify", "--data", self.csv_path, "--schema", schema_path,
            "--ocp", IDENTIFY_OCP, "--invalid-bound", str(IDENTIFY_BOUND),
            "--tol", str(IDENTIFY_TOL),
        ]
        self.argv = [
            "estimate", "--data", self.csv_path, "--schema", schema_path,
            "--mode", "median", "--subsample-n", str(self.subsample_n),
            "--seed", str(self.seed), "--jobs", str(self.jobs),
            "--out", self.report_path,
        ]

    def _cli(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"proxsel {argv[0]} exited {code}: {err.getvalue()}")
        return out.getvalue()

    def op(self, i: int) -> tuple[str, bytes]:
        """``proxsel identify`` on the data, then ``proxsel estimate``."""
        verdict = self._cli(self.identify_argv)
        self._cli(self.argv)
        with open(self.report_path, "rb") as handle:
            return verdict, handle.read()

    def record(self, result: tuple[str, bytes]) -> bytes:
        """A digest of the verdict and the report."""
        verdict, report = result
        return hashlib.sha256(verdict.encode() + b"\0" + report).digest()

    def check(self, kept: list[tuple[int, Any]]) -> list[str]:
        """Check the warm-up's output, and that every kept operation's
        output is byte-identical to it."""
        verdict, report = self.warmup
        expected = self.record(self.warmup)
        differ = [i for i, digest in kept if digest != expected]
        errors = [
            f"operations {differ[:10]}: verdict or report differs from the warm-up's"
        ] if differ else []
        header, table = checks.read_csv_table(self.csv_path)
        s_z, s_w = MEDIAN_SIZES["s_z"], MEDIAN_SIZES["s_w"]
        errors += checks.check_median_report(
            [report],
            header,
            table,
            self.tcp_names,
            valid_ocps=self.ocp_names[s_w:],
            invalid_tcps=self.tcp_names[:s_z],
            subsample_n=self.subsample_n,
        )
        col = {name: table[:, j] for j, name in enumerate(header)}
        delta, gamma = checks.reduced_form(
            col["y"], col["d"],
            np.column_stack([col[name] for name in self.tcp_names]),
            col[IDENTIFY_OCP],
        )
        errors.extend(checks.check_identification_payload(
            json.loads(verdict), delta, gamma, IDENTIFY_BOUND, IDENTIFY_TOL
        ))
        return errors


WORKLOADS = {w.name: w for w in (MonteCarlo, MedianCi)}


# Estimator entry points that ``proxsel.simulation`` calls.
SIM_ENTRY_POINTS = (
    "estimate_invalid_tcp", "estimate_invalid_tcp_ocp", "oracle_p2sls",
    "naive_p2sls", "ols_baseline",
)
# Entry points whose self time is ``estimators.self_ms``; ``proxsel.cli``
# also calls ``first_stage`` for ``identify``.
ENTRY_POINTS = SIM_ENTRY_POINTS + ("first_stage",)


def _cli_call(tracer, result) -> None:
    tracer.counters["cli.estimator_calls"] += 1


def _rows_read(tracer, result) -> None:
    tracer.counters["data_io.rows_read"] += result.n_rows_read


def _failed_ocps(tracer, result) -> None:
    tracer.counters["estimators.per_ocp_failed"] += int(
        np.sum(np.isnan(result.per_ocp_estimates))
    )


def _cli_median(tracer, result) -> None:
    _cli_call(tracer, result)
    _failed_ocps(tracer, result)


def register_spans(tracer) -> None:
    """Wrap the names one proxsel module looks up to call another."""
    est = importlib.import_module("proxsel.estimators")
    sim = importlib.import_module("proxsel.simulation")
    cli = importlib.import_module("proxsel.cli")

    tracer.wrap(est, "ols", "linalg.ols", rows=True)
    tracer.wrap(est, "orthonormal_basis", "linalg.orthonormal_basis", rows=True)
    tracer.wrap(est, "lasso_solve", "estimators.lasso_solve")
    tracer.wrap(est, "kkt_violation", "estimators.kkt_violation")

    tracer.wrap(sim, "run_monte_carlo", "simulation.run_monte_carlo")
    tracer.wrap(sim, "generate_invalid_tcp_ocp_data", "simulation.generate")
    for name in SIM_ENTRY_POINTS:
        hook = _failed_ocps if name == "estimate_invalid_tcp_ocp" else None
        tracer.wrap(sim, name, f"estimators.{name}", on_result=hook)
    tracer.wrap(sim, "subsample_ci", "estimators.subsample_ci")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_csv", "data_io.load_csv", on_result=_rows_read)
    tracer.wrap(cli, "write_report", "data_io.write_report")
    tracer.wrap(cli, "estimate_invalid_tcp", "estimators.estimate_invalid_tcp",
                on_result=_cli_call)
    tracer.wrap(cli, "estimate_invalid_tcp_ocp",
                "estimators.estimate_invalid_tcp_ocp", on_result=_cli_median)
    tracer.wrap(cli, "first_stage", "estimators.first_stage", on_result=_cli_call)
    tracer.wrap(cli, "subsample_ci", "estimators.subsample_ci")
    tracer.wrap(cli, "check_identification", "identification.check_identification")


def layer_metrics(per_span: dict, counters: dict, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the traced operations' spans."""

    def calls(name: str) -> float:
        return per_span.get(name, {}).get("calls", 0) / n_ops

    def ms(name: str) -> float:
        return per_span.get(name, {}).get("self_ms", 0.0) / n_ops

    def rows(name: str) -> float:
        return per_span.get(name, {}).get("rows", 0) / n_ops

    out: dict[str, tuple[float, str]] = {}
    for span in ("linalg.ols", "linalg.orthonormal_basis"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.ms"] = (ms(span), "ms")
        out[f"{span}.rows"] = (rows(span), "rows")
    for span in ("estimators.lasso_solve", "estimators.kkt_violation"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.ms"] = (ms(span), "ms")
    out["estimators.subsample_ci.ms"] = (ms("estimators.subsample_ci"), "ms")
    out["estimators.self_ms"] = (
        sum(ms(f"estimators.{name}") for name in ENTRY_POINTS), "ms"
    )
    out["estimators.per_ocp_failed"] = (
        counters.get("estimators.per_ocp_failed", 0) / n_ops, "count"
    )
    out["simulation.generate.calls"] = (calls("simulation.generate"), "count")
    out["simulation.generate.ms"] = (ms("simulation.generate"), "ms")
    out["simulation.self_ms"] = (ms("simulation.run_monte_carlo"), "ms")
    out["data_io.load_csv.ms"] = (ms("data_io.load_csv"), "ms")
    out["data_io.rows_read"] = (counters.get("data_io.rows_read", 0) / n_ops, "rows")
    out["data_io.write_report.ms"] = (ms("data_io.write_report"), "ms")
    out["cli.estimator_calls"] = (
        counters.get("cli.estimator_calls", 0) / n_ops, "count"
    )
    out["cli.self_ms"] = (ms("cli.main"), "ms")
    out["identification.check_identification.ms"] = (
        ms("identification.check_identification"), "ms"
    )
    return out
