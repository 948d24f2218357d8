"""Self-test of the benchmark: the checks reject wrong answers, and a short
run of every workload completes.

Run from the repository root::

    python3 bench/selftest.py

Takes about a minute; ``median-ci`` dominates.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _work_dir() -> str:
    (BENCH / "work").mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "work")


class MonteCarloCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        wl = workloads.MonteCarlo(seed=5, workdir="", jobs=1)
        wl.setup()
        cls.wl = wl
        cls.config = wl.config(0)
        cls.report = wl.op(0)
        cls.invalid = tuple(range(workloads.MC_SIZES["s_z"]))
        cls.datasets = [
            wl.sim.generate_invalid_tcp_ocp_data(cls.config, r)
            for r in range(cls.config.reps)
        ]
        cls.oracle = [
            checks.lstsq_2sls(d.Y, d.D, d.Z, d.W[:, 0], cls.invalid)
            for d in cls.datasets
        ]

    def methods(self, **shift):
        return {
            m: (self.report.methods[m].bias + shift.get(m, 0.0),
                self.report.methods[m].se)
            for m in ("oracle", "adaptive")
        }

    def runs(self):
        fits = [self.wl.est.estimate_invalid_tcp(d, 0) for d in self.datasets]
        return [(e.selected_invalid_tcps, e.beta_hat) for e in fits]

    def check(self, methods, oracle=None, runs=None):
        return checks.check_monte_carlo(
            methods, self.oracle if oracle is None else oracle,
            self.config.beta_true, self.invalid, runs or self.runs,
        )

    def test_program_output_passes(self):
        self.assertEqual(self.wl.check([(0, self.wl.record(self.report))]), [])

    def test_perturbed_oracle_beta_fails(self):
        oracle = list(self.oracle)
        oracle[1] += 1e-9
        self.assertTrue(self.check(self.methods(), oracle=oracle))

    def test_perturbed_adaptive_row_fails(self):
        self.assertTrue(self.check(self.methods(adaptive=1e-9)))

    def test_adaptive_replication_unlike_oracle_fails(self):
        runs = self.runs()
        selected, beta = runs[0]
        runs[0] = (selected, beta + 1e-9)
        mean_shift = 1e-9 / len(runs)
        self.assertTrue(
            self.check(self.methods(adaptive=mean_shift), runs=lambda: runs)
        )


class MedianCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = _work_dir()
        wl = workloads.MedianCi(seed=3, workdir=cls.workdir, jobs=1)
        wl.subsample_n = 20  # instead of 200, to keep the test short
        wl.setup()
        cls.wl = wl
        results = [wl.op(0), wl.op(1)]
        wl.warmup = results[0]
        cls.digests = [(i, wl.record(r)) for i, r in enumerate(results)]
        cls.reports = [report for _, report in results]
        cls.verdict = json.loads(results[0][0])
        cls.header, cls.table = checks.read_csv_table(wl.csv_path)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def check(self, reports):
        s_z, s_w = workloads.MEDIAN_SIZES["s_z"], workloads.MEDIAN_SIZES["s_w"]
        return checks.check_median_report(
            reports, self.header, self.table, self.wl.tcp_names,
            valid_ocps=self.wl.ocp_names[s_w:],
            invalid_tcps=self.wl.tcp_names[:s_z], subsample_n=20,
        )

    def edited(self, edit) -> bytes:
        doc = json.loads(self.reports[0])
        edit(doc)
        return json.dumps(doc).encode()

    def test_program_output_passes(self):
        self.assertEqual(self.check(self.reports), [])

    def test_perturbed_beta_fails(self):
        def edit(doc):
            doc["per_ocp"][5]["beta_hat"] += 1e-9
        self.assertTrue(self.check([self.edited(edit)]))

    def test_changed_selection_fails(self):
        def edit(doc):
            doc["per_ocp"][4]["invalid_tcps"] = ["z1", "z2"]
        self.assertTrue(self.check([self.edited(edit)]))

    def test_aggregate_not_median_fails(self):
        def edit(doc):
            doc["estimate"]["beta_hat"] += 1e-9
        self.assertTrue(self.check([self.edited(edit)]))

    def test_beta_outside_interval_fails(self):
        def edit(doc):
            doc["estimate"]["ci_lower"] = doc["estimate"]["beta_hat"] + 1e-3
        self.assertTrue(self.check([self.edited(edit)]))

    def test_reports_that_differ_fail(self):
        self.assertTrue(self.check([self.reports[0], self.reports[0] + b" "]))

    def test_workload_check(self):
        self.assertEqual(self.wl.check(self.digests), [])
        verdict, report = self.wl.warmup
        other = self.wl.record((verdict, report + b" "))
        self.assertTrue(self.wl.check(self.digests + [(2, other)]))

    def check_verdict(self, **changes):
        col = {name: self.table[:, j] for j, name in enumerate(self.header)}
        z = np.column_stack([col[name] for name in self.wl.tcp_names])
        delta, gamma = checks.reduced_form(
            col["y"], col["d"], z, col[workloads.IDENTIFY_OCP]
        )
        return checks.check_identification_payload(
            {**self.verdict, **changes}, delta, gamma,
            workloads.IDENTIFY_BOUND, workloads.IDENTIFY_TOL,
        )

    def test_identify_verdict_passes(self):
        self.assertEqual(self.check_verdict(), [])

    def test_flipped_verdict_fails(self):
        self.assertTrue(
            self.check_verdict(identified=not self.verdict["identified"])
        )

    def test_wrong_ratio_count_fails(self):
        self.assertTrue(
            self.check_verdict(distinct_q_count=self.verdict["distinct_q_count"] + 2)
        )

    def test_extra_consistent_subset_fails(self):
        extra = {"indices": list(range(7)), "q": 1.0}
        self.assertTrue(
            self.check_verdict(subsets=self.verdict["subsets"] + [extra])
        )

    def test_identify_on_built_inputs(self):
        # Exercises the recomputation on inputs with consistent subsets: the
        # first 6 of 10 proxies share one ratio, the other 4 each have their own.
        delta = np.linspace(1.0, 2.0, 10)
        ratios = np.where(np.arange(10) < 6, 0.7, 2.0 + np.arange(10))
        report = self.wl.cli.check_identification(delta, ratios * delta, 4)
        payload = {
            "identified": report.identified,
            "distinct_q_count": report.distinct_q_count,
            "subsets": [{"indices": list(i), "q": q} for i, q in report.subsets],
        }
        self.assertTrue(payload["identified"])
        self.assertEqual(len(payload["subsets"]), 0)  # 7-subsets need 7 agreeing
        ratios[6] = 0.7  # now 7 agree: exactly one consistent subset
        report = self.wl.cli.check_identification(delta, ratios * delta, 4)
        payload["subsets"] = [
            {"indices": list(i), "q": q} for i, q in report.subsets
        ]
        payload["distinct_q_count"] = report.distinct_q_count
        self.assertEqual(
            checks.check_identification_payload(payload, delta, ratios * delta, 4, 1e-6),
            [],
        )
        payload["identified"] = False
        self.assertTrue(
            checks.check_identification_payload(payload, delta, ratios * delta, 4, 1e-6)
        )


def _run(cwd, *args, timeout=180):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


class ShortRuns(unittest.TestCase):
    def test_every_workload_runs_to_its_end(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {
            0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run(ROOT, "--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), wanted[trace])

    def test_refuses_to_run_without_the_sources(self):
        bare = _work_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("work", "results"))
            proc = _run(bare, "--workload", "mc-single", "--seed", "1",
                        "--seconds", "1", "--trace", "0", timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
