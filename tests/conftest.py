"""Shared fixtures and closed-form oracles for the test suite.

The helpers here re-derive reduced-form quantities of the synthetic
data-generating process directly from its structural equations (every
generated variable is an affine function of independent Gaussian shocks,
so exact second moments follow from the loading matrix). None of this
reuses the estimation code under test.
"""

from __future__ import annotations

import numpy as np

from proxsel.estimators import Dataset, FirstStage
from proxsel.simulation import SimConfig


class PopulationMoments:
    """Exact first and second moments of the synthetic process.

    Shock order: ``[U, ez_1..ez_p, ed, ew_1..ew_q, ey]``. Each variable is
    ``const + loadings @ shocks``; covariances follow as
    ``Cov(a, b) = L_a diag(var) L_b'``.
    """

    def __init__(self, config: SimConfig) -> None:
        p, q = config.p_z, config.p_w
        self.shock_var = np.concatenate(
            [
                [config.u_sd**2],
                np.full(p, config.z_noise_sd**2),
                [config.d_noise_sd**2],
                np.full(q, config.w_noise_sd**2),
                [config.y_noise_sd**2],
            ]
        )
        n_shocks = self.shock_var.size
        c = config.intercept

        xi_z = np.where(
            np.arange(p) < config.s_z, config.xi_z_invalid, config.xi_z_valid
        )
        xi_w = np.where(np.arange(q) < config.s_w, config.xi_w_invalid, 0.0)
        alpha = np.where(np.arange(p) < config.s_z, config.alpha_invalid, 0.0)

        z_rows = np.zeros((p, n_shocks))
        z_rows[:, 0] = 1.0
        z_rows[np.arange(p), 1 + np.arange(p)] = 1.0
        z_const = np.full(p, c)

        d_row = np.zeros(n_shocks)
        d_row[0] = config.confounder_loading_d
        d_row += xi_z @ z_rows
        d_row[1 + p] = 1.0
        d_const = c + float(xi_z @ z_const)

        w_rows = np.zeros((q, n_shocks))
        w_rows[:, 0] = 1.0
        w_rows[np.arange(q), 1 + p + 1 + np.arange(q)] = 1.0
        w_rows += xi_w[:, None] * d_row[None, :]
        w_const = c + xi_w * d_const

        y_row = np.zeros(n_shocks)
        y_row[0] = config.confounder_loading_y
        y_row += config.beta_true * d_row + alpha @ z_rows
        y_row[-1] = 1.0
        y_const = c + config.beta_true * d_const + float(alpha @ z_const)

        self.loadings = {
            "Z": z_rows,
            "D": d_row[None, :],
            "W": w_rows,
            "Y": y_row[None, :],
        }
        self.const = {"Z": z_const, "D": d_const, "W": w_const, "Y": y_const}

    def cov(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.atleast_2d(a) * self.shock_var @ np.atleast_2d(b).T


def population_reduced_form(
    config: SimConfig, ocp_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Population regression coefficients of ``W_k`` and ``Y`` on ``(Z, D)``.

    Intercepts are dropped; the loadings exclude constant terms, so the
    covariance algebra is automatically mean-centered.
    """
    pm = PopulationMoments(config)
    m = np.vstack([pm.loadings["Z"], pm.loadings["D"]])
    m_cov = pm.cov(m, m)
    delta = np.linalg.solve(
        m_cov, pm.cov(m, pm.loadings["W"][ocp_index]).ravel()
    )
    gamma = np.linalg.solve(m_cov, pm.cov(m, pm.loadings["Y"]).ravel())
    return delta, gamma


def population_first_stage(
    config: SimConfig, ocp_index: int = 0
) -> FirstStage:
    """First-stage container filled with exact population TCP coefficients."""
    delta, gamma = population_reduced_form(config, ocp_index)
    return FirstStage(
        what=np.zeros(2),
        gamma_hat_vec=gamma[: config.p_z],
        delta_hat_vec=delta[: config.p_z],
    )


def make_exact_dataset(
    seed: int = 7,
    n: int = 200,
    p_z: int = 4,
    beta: float = 0.7,
    gamma: float = 1.5,
    alpha0: float = 2.0,
) -> tuple[Dataset, tuple[float, float, float]]:
    """Deterministic noiseless dataset with one invalid TCP (column 0).

    The outcome is exactly ``beta * D + alpha0 * Z[:, 0] + gamma * W``, so a
    correctly selecting pipeline recovers every coefficient to machine
    precision (the only second-stage residual is orthogonal to the design).
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p_z))
    d = rng.standard_normal(n)
    w = rng.standard_normal((n, 1))
    y = beta * d + alpha0 * z[:, 0] + gamma * w[:, 0]
    return Dataset(Y=y, D=d, Z=z, W=w), (beta, gamma, alpha0)


def random_spd_design(
    rng: np.random.Generator, n: int, p: int
) -> np.ndarray:
    """Random full-column-rank design with O(1) column scales."""
    x = rng.standard_normal((n, p))
    return x / np.sqrt(n)


def angular_sweep_extremes(
    gram: np.ndarray, n_angles: int = 10_000
) -> tuple[float, float]:
    """Min/max of ``v' G v`` over unit vectors of a 2x2 Gram, by sweeping."""
    theta = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    v = np.stack([np.cos(theta), np.sin(theta)])
    quad = np.einsum("in,ij,jn->n", v, gram, v)
    return float(quad.min()), float(quad.max())
