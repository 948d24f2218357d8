"""Repeated-sampling comparison of the estimators on a known design.

`run_monte_carlo` draws many datasets from one configuration, runs each
requested method on every draw, and reports bias / RMSE / coverage of the
nominal-95% interval against the design's true effect.  Methods:

* adaptive — penalized selection of invalid TCPs, then 2SLS on the rest;
* oracle   — 2SLS told the true invalid set (infeasible benchmark);
* naive    — treats every TCP as valid (no selection);
* ols      — plain regression of outcome on treatment and covariates,
             ignoring the proxies entirely.

This script runs a deliberately small study so it finishes in seconds;
the `proxsel reproduce` CLI command runs the full desk/full-scale grids.

Run: python demos/05_monte_carlo_benchmarks.py
"""

from proxsel import SimConfig, run_monte_carlo

config = SimConfig(n=2500, p_z=10, s_z=3, reps=60, seed=11)
print(
    f"design: n={config.n}, {config.p_z} TCPs of which {config.s_z} "
    f"invalid, {config.reps} replications"
)
print(f"true effect: {config.beta_true}\n")

report = run_monte_carlo(
    config,
    methods=("adaptive", "oracle", "naive", "ols"),
)

header = f"{'method':10s} {'bias':>9s} {'rmse':>9s} {'coverage':>9s}"
print(header)
print("-" * len(header))
for name, m in report.methods.items():
    print(f"{name:10s} {m.bias:+9.4f} {m.rmse:9.4f} {m.coverage:9.3f}")

print(
    "\nadaptive tracks the oracle; naive is pulled toward the invalid"
    "\nproxies' direct effects; ols absorbs the confounder outright."
    "\nFull benchmark grids: proxsel reproduce --study single_ocp_n"
)
