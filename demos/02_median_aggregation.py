"""Aggregate over many outcome-side proxies when some are invalid.

Outcome-inducing proxies (OCPs) can be invalid too: an OCP that responds
to the treatment contaminates its single-OCP fit. Running the pipeline
once per OCP column and taking the median of the per-OCP effect estimates
tolerates any invalid minority. The median has no closed-form interval, so
a subsampling interval (recompute on many small row subsets, take empirical
quantiles) is attached instead.

Run: python demos/02_median_aggregation.py
"""

from proxsel import (
    SimConfig,
    estimate_invalid_tcp_ocp,
    generate_invalid_tcp_ocp_data,
    subsample_ci,
)

config = SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=7)
data = generate_invalid_tcp_ocp_data(config, rep_index=0)
print(
    f"dataset: n={data.n}, TCPs={data.p_z} (3 invalid), "
    f"OCPs={data.p_w} (3 invalid)\n"
)

# The aggregate keeps every per-OCP fit: the three treatment-coupled OCP
# columns (0, 1, 2) give visibly displaced estimates; the valid majority
# clusters at the truth.
agg = estimate_invalid_tcp_ocp(data)
print("per-OCP single fits:")
for k, est in enumerate(agg.per_ocp_fits):
    tag = "invalid" if k < config.s_w else "valid"
    print(
        f"  OCP {k} ({tag:7s}): beta_hat = {est.beta_hat:+.4f}, "
        f"95% CI [{est.ci_lower:+.4f}, {est.ci_upper:+.4f}]"
    )

print(f"\nmedian over OCPs: beta_hat = {agg.beta_hat:.4f}")

lo, hi = subsample_ci(data, n_subsamples=200, seed=0)
print(f"subsampling 95% interval: [{lo:.4f}, {hi:.4f}]")
print(f"truth: {config.beta_true}")
