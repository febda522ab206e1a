"""Adaptive prescribed-time backstepping for strict-feedback agents.

The plant is x_1' = x_2, x_q' = x_{q+1} + theta phi_q(x_q) for
q = 2..m-1, x_m' = u + theta phi_m(x_m) with theta an unknown scalar and
phi_q known nonlinearities vanishing at 0.  The controller cascades virtual
controls xi_q driven by a single time-varying gain alpha_xi(mu), tracks them
through a dynamic filter xi_qf (so no derivatives of the reference are ever
needed), estimates theta with a sigma-modification law, and applies
u = xi_m.  Descending scale powers L_q = m + l + 1 - q turn the tracking
errors into the bounded coordinates omega_q = alpha_xi^{L_q} x_tilde_q;
alpha_xi meets the growth criterion DCxi (check_dcxi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardExceeded, MarginTooSmall
from .generator import bound_ratio, ratio_report
from .timegain import GainFunction, check_growth_criterion


def scale_powers(m: int, l: float) -> np.ndarray:
    """Exponents L_q = m + l + 1 - q for stages q = 1..m."""
    return np.array([m + l + 1 - q for q in range(1, m + 1)], dtype=float)


@dataclass(frozen=True)
class SfParameters:
    """Gains produced by the stability-margin recipe."""

    sigma: float
    L: tuple
    c: tuple
    upsilon: tuple


def select_parameters(m: int, l: float, sigma_prime: float, rho: float,
                      margin: float) -> SfParameters:
    """Pick sigma, c_q and upsilon_q with uniform stability margins.

    sigma = (3 + sigma_prime)/2, c_1 = L_1 + 3/2 + margin,
    c_q = L_q + 2 + margin for q >= 2, and
    upsilon_q = L_q + rho + 1/2 + margin, where rho dominates the filter
    coupling.  Each margin must be at least sigma/2 so the estimator leak
    cannot eat the tracking decay.
    """
    if m < 2:
        raise ValueError("strict-feedback order must be >= 2")
    if l <= 0:
        raise ValueError("l must be positive")
    if sigma_prime <= 0 or rho <= 0:
        raise MarginTooSmall("sigma_prime and rho must be positive")
    sigma = 0.5 * (3.0 + sigma_prime)
    if margin < 0.5 * sigma - 1e-12:
        raise MarginTooSmall(f"margin {margin} below sigma/2 = {0.5 * sigma}")
    L = scale_powers(m, l)
    c = [L[0] + 1.5 + margin]
    c += [L[q] + 2.0 + margin for q in range(1, m)]
    upsilon = [L[q] + rho + 0.5 + margin for q in range(1, m)]
    return SfParameters(sigma, tuple(L), tuple(c), tuple(upsilon))


@dataclass
class SfControllerConfig:
    """Resolved strict-feedback controller for one agent family.

    phis[q-2] is the known nonlinearity of stage q (q = 2..m), each mapping
    an n-vector to an n-vector with phi_q(0) = 0.  The estimator leak sigma
    must exceed 3/2: sigma = (3 + sigma')/2 with sigma' > 0, which the
    estimator envelope divides by.
    """

    m: int
    n: int
    l: float
    c: tuple
    upsilon: tuple
    sigma: float
    alpha_xi: GainFunction
    mu_guard: float
    phis: tuple

    def __post_init__(self):
        if not self.sigma > 1.5:
            raise MarginTooSmall(f"sigma must be > 1.5, got {self.sigma}")
        if len(self.c) != self.m or len(self.upsilon) != self.m - 1:
            raise ValueError("gain tuple lengths must be m and m-1")
        if len(self.phis) != self.m - 1:
            raise ValueError("need one phi per stage q = 2..m")

    @cached_property
    def L(self) -> np.ndarray:
        return scale_powers(self.m, self.l)

    @property
    def n_ctrl(self) -> int:
        """Controller state size: theta_hat plus the m-1 filter stages."""
        return 1 + (self.m - 1) * self.n


def check_dcxi(alpha_xi: GainFunction, alpha: GainFunction, c_star: float,
               L2: float, grid):
    """DCxi report for alpha_xi against the generator gain alpha on the
    grid of the build's criteria (`log_grid(mu0, mu_guard)`): growth
    d(alpha_xi)/ds <= s^-2 alpha_xi(s)^2 and coupling
    alpha_xi(s) <= (c_star/(2 L2)) alpha(s), L2 the second scale power."""
    return check_growth_criterion("strict_dcxi", alpha_xi, 1.0, grid,
                                  (c_star / (2.0 * L2), alpha))


def _gain(mu: float, cfg: SfControllerConfig) -> float:
    """alpha_xi(mu), refused past the guard."""
    if mu > cfg.mu_guard * (1.0 + 1e-12):
        raise GuardExceeded(f"mu={mu} beyond guard {cfg.mu_guard}")
    return cfg.alpha_xi.eval(mu)


def _cascade(x, varpi_i, xi_f, theta_hat, a, cfg: SfControllerConfig,
             drive=None):
    """Walk the backstepping cascade once, stage by stage.

    x[k] is the state of stage q = k + 1 (..., n), xi_f[k - 1] its filter
    state and drive[k - 1], when given, receives its filter derivative
    xi_qf' = upsilon_q alpha_xi (xi_{q-1} - xi_qf).  Yields
    (k, x_tilde_q, xi_tilde_q, phi_q(x_q), xi_q, tau) for q = 1..m, with
    xi_tilde_q = xi_qf - xi_{q-1} and tau the adaptation drive summed over
    stages 2..q; stage 1 has no xi_tilde or phi (None).
    """
    th = np.asarray(theta_hat)[..., None]
    x_tilde = x[0] - varpi_i
    xi = -cfg.c[0] * a * x_tilde
    tau = 0.0
    yield 0, x_tilde, None, None, xi, tau
    for k in range(1, cfg.m):
        x_q, xi_qf = x[k], xi_f[k - 1]
        x_tilde = x_q - xi_qf
        xi_tilde = xi_qf - xi
        phi = cfg.phis[k - 1](x_q)
        # (-upsilon_q a) xi_tilde_q is the filter derivative, and the
        # cascade's -upsilon_q a xi_tilde_q term, bit for bit
        d = np.multiply(-cfg.upsilon[k - 1] * a, xi_tilde,
                        out=None if drive is None else drive[k - 1])
        xi = -cfg.c[k] * a * x_tilde - th * phi + d
        tau = tau + a ** (2.0 * cfg.L[k]) * (x_tilde * phi).sum(axis=-1)
        yield k, x_tilde, xi_tilde, phi, xi, tau


def virtual_controls(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                     theta_hat, mu: float, cfg: SfControllerConfig) -> dict:
    """Backstepping cascade.

    x is (m, ..., n) stage states, stage axis first, varpi_i (..., n),
    xi_f is (m-1, ..., n) filter states and theta_hat a scalar or (...);
    the axes between stack agents.  Returns the virtual controls
    xi (m, ..., n), the error coordinates x_tilde (m, ..., n) and
    xi_tilde (m-1, ..., n) they are built from, and the adaptation drive
    tau = sum_q alpha_xi^{2 L_q} x_tilde_q . phi_q(x_q) (...).
    """
    a = _gain(mu, cfg)
    xi = np.empty_like(x)
    x_tilde = np.empty_like(x)
    xi_tilde = np.empty_like(xi_f)
    for k, xt, xit, _, xk, tau in _cascade(x, varpi_i, xi_f, theta_hat, a,
                                           cfg):
        x_tilde[k] = xt
        xi[k] = xk
        if k:
            xi_tilde[k - 1] = xit
    return {"xi": xi, "x_tilde": x_tilde, "xi_tilde": xi_tilde, "tau": tau}


def _rows(stages: np.ndarray) -> np.ndarray:
    """A (k, ..., n) stage stack as one row (..., k n) per leading index,
    stages in order."""
    last = stages.ndim - 1
    return stages.transpose((*range(1, last), 0, last)).reshape(
        stages.shape[1:-1] + (-1,))


def error_vector(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                 theta_hat) -> np.ndarray:
    """Raw error stack e_s = [x_1 - varpi_i; x_2..x_m; theta_hat; xi_f],
    one row per leading index."""
    head = x.copy()
    head[0] -= varpi_i
    return np.concatenate([_rows(head),
                           np.asarray(theta_hat, dtype=float)[..., None],
                           _rows(xi_f)], axis=-1)


def scaled_error_vector(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                        theta_hat, theta, mu: float, cfg: SfControllerConfig,
                        view: dict | None = None) -> np.ndarray:
    """Transformed stack e_tilde_s = [omega; eta; theta_tilde] with
    omega_q = alpha_xi^{L_q} x_tilde_q, eta_q = alpha_xi^{L_q} xi_tilde_q,
    one row per leading index.  view, when given, is the virtual_controls
    result at the same arguments."""
    if view is None:
        view = virtual_controls(x, varpi_i, xi_f, theta_hat, mu, cfg)
    a = cfg.alpha_xi.eval(mu)
    L = cfg.L
    axes = (1,) * (x.ndim - 1)  # broadcast one weight over each stage
    omega = (a ** L).reshape((-1,) + axes) * view["x_tilde"]
    eta = (a ** L[1:]).reshape((-1,) + axes) * view["xi_tilde"]
    return np.concatenate([_rows(omega), _rows(eta),
                           np.asarray(theta - theta_hat)[..., None]], axis=-1)


class StrictFeedbackAgents:
    """N strict-feedback agents under the adaptive backstepping law.

    Plants are stacked stage-major as (m, N, n); the controller state is
    c = (theta_hat (N,), xi_f (m-1, N, n)).  thetas holds each agent's true
    parameter.
    """

    def __init__(self, cfg: SfControllerConfig, thetas):
        self.cfg = cfg
        self.thetas = np.asarray(thetas, dtype=float)
        # theta_i repeated over the n channels of a stage
        self._theta_n = np.repeat(self.thetas[:, None], cfg.n, axis=1)
        self.ctrl_size = cfg.n_ctrl

    def derivatives(self, t, mu, x, c, ref, dx, dc):
        """Write the plant and controller derivatives of every agent into
        dx and dc, from one walk of the cascade."""
        cfg = self.cfg
        a = _gain(mu, cfg)
        theta_hat, xi_f = c
        dx[0] = x[1]
        for k, _, _, phi, xi, tau in _cascade(x, ref, xi_f, theta_hat, a,
                                              cfg, dc[1]):
            if k:
                # x_q' = x_{q+1} + theta phi_q(x_q); x_m' = u + theta phi_m
                # with u = xi_m
                np.add(x[k + 1] if k + 1 < cfg.m else xi,
                       self._theta_n * phi, out=dx[k])
        np.subtract(tau, cfg.sigma * a * theta_hat, out=dc[0])

    def diagnostics(self, mu, x, c, ref) -> dict:
        """Per-agent error norms, estimate, adaptation drive and the
        x2 (and x3) stage norms."""
        cfg = self.cfg
        theta_hat, xi_f = c
        view = virtual_controls(x, ref, xi_f, theta_hat, mu, cfg)
        out = {
            "e_s_norm": np.linalg.norm(
                error_vector(x, ref, xi_f, theta_hat), axis=-1),
            "e_tilde_norm": np.linalg.norm(scaled_error_vector(
                x, ref, xi_f, theta_hat, self.thetas, mu, cfg, view), axis=-1),
            "theta_hat": theta_hat,
            "tau": view["tau"],
        }
        for q in range(2, min(cfg.m, 3) + 1):
            out[f"x{q}_norm"] = np.linalg.norm(x[q - 1], axis=-1)
        return out


def _alpha_xi_series(mus, cfg: SfControllerConfig) -> np.ndarray:
    """alpha_xi(mu) at every logged mu, as a (K, 1) column."""
    return cfg.alpha_xi.eval(np.asarray(mus, dtype=float))[:, None]


def invariant_set_monitor(times, e_tilde_norms, h, slack: float = 0.02):
    """Check forward invariance of {||e_tilde_s|| <= h}.

    e_tilde_norms is (K, N) and h a radius per agent (N,) or one for all.
    Passes iff every initial scaled error is inside its ball and no
    trajectory exceeds (1+slack) h afterwards.
    """
    limit = np.full(len(times), 1.0 + slack)
    limit[0] = 1.0
    return ratio_report("invariant_set", times,
                        np.asarray(e_tilde_norms, dtype=float) / h, limit)


def theta_hat_monitor(times, mus, theta_hats, taus, cfg: SfControllerConfig):
    """Post-hoc estimator envelope, for theta_hats and taus (K, N):

    |theta_hat(t)| <= (alpha_xi(mu0) |theta_hat(t0)| + tau_max / sqrt(2 sigma'))
                      / alpha_xi(mu(t))

    with tau_max each agent's logged sup of |tau| and sigma' = 2 sigma - 3.
    A zero bound (theta_hat(t0) = 0 and tau = 0) admits only a zero
    estimate (`generator.bound_ratio`).
    """
    theta_hats = np.asarray(theta_hats, dtype=float)
    a = _alpha_xi_series(mus, cfg)
    tau_max = np.abs(np.asarray(taus, dtype=float)).max(axis=0)
    gamma = a[0] * np.abs(theta_hats[0]) + tau_max / math.sqrt(
        2.0 * (2.0 * cfg.sigma - 3.0))
    return ratio_report("theta_hat_envelope", times,
                        bound_ratio(np.abs(theta_hats), gamma / a), 1.0)


def sf_decay_monitor(times, mus, e_s_norms, cfg: SfControllerConfig):
    """Fit the smallest C with ||e_s(t)|| <= C / alpha_xi(mu(t)), e_s_norms
    (K, N); passes iff the fit is finite.

    A finite fit certifies the prescribed-time decay of the raw errors,
    since alpha_xi(mu) grows without bound toward the deadline.
    """
    return ratio_report("sf_decay", times,
                        np.asarray(e_s_norms, dtype=float)
                        * _alpha_xi_series(mus, cfg), math.inf)
