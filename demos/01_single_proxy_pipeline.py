"""Walk the single-OCP estimation pipeline one stage at a time.

A hidden confounder drives the treatment, the outcome, and every proxy.
Three of the ten treatment-side proxies (TCPs) are invalid: they also hit
the outcome directly, so using them naively biases the effect estimate.
The pipeline (1) fits reduced forms, (2) forms median-ratio pilots that are
robust to the invalid minority, (3) selects the invalid set with an
adaptively weighted lasso, and (4) refits with the selected TCPs as
controls, yielding a closed-form confidence interval.

Run: python demos/01_single_proxy_pipeline.py
"""

import numpy as np

from proxsel import (
    SimConfig,
    alpha_median,
    estimate_invalid_tcp,
    first_stage,
    generate_invalid_tcp_data,
    median_gamma,
    naive_p2sls,
    ols_baseline,
    select_lambda,
)

config = SimConfig(n=2500, p_z=10, s_z=3, p_w=1, s_w=0, seed=42)
data = generate_invalid_tcp_data(config, rep_index=0)
print(f"dataset: n={data.n}, TCPs={data.p_z}, OCPs={data.p_w}")
print(f"true effect: {config.beta_true}, truly invalid TCPs: 0, 1, 2\n")

# Stage 1 — reduced forms on the augmented design (TCPs, treatment, 1).
fs = first_stage(data)
print("stage 1: reduced-form coefficient blocks")
print("  outcome side :", np.round(fs.gamma_hat_vec, 3))
print("  proxy side   :", np.round(fs.delta_hat_vec, 3))

# Stage 2 — ratio pilots. Valid TCPs share one ratio; the median ignores
# the invalid minority, and subtracting the implied component exposes the
# direct outcome effects of the invalid TCPs.
gamma_m = median_gamma(fs)
pilots = alpha_median(fs, gamma_m)
print(f"\nstage 2: median ratio = {gamma_m:.4f}")
print("  pilot direct effects:", np.round(pilots, 3))

# Stage 3 — adaptively weighted selection. Pilot magnitudes set the
# penalty weights, so near-zero pilots are heavily penalized.
lam = select_lambda(data, mode="rate")
print(f"\nstage 3: penalty level (rate rule) = {lam:.3f}")

# Stage 4 — the packaged pipeline runs all stages and refits.
est = estimate_invalid_tcp(data)
print(f"  selected invalid TCPs: {est.selected_invalid_tcps}")
print(
    f"\nstage 4: beta_hat = {est.beta_hat:.4f}, "
    f"95% CI [{est.ci_lower:.4f}, {est.ci_upper:.4f}]"
)

# Benchmarks: ignoring the invalid TCPs, or ignoring all proxies, biases
# the estimate far outside the adaptive interval.
naive = naive_p2sls(data)
ols = ols_baseline(data)
print("\nbenchmarks on the same draw:")
print(f"  presume-all-valid : beta_hat = {naive.beta_hat:.4f}")
print(f"  plain OLS         : beta_hat = {ols.beta_hat:.4f}")
print(f"  truth             : {config.beta_true}")
