"""Adaptive prescribed-time backstepping for strict-feedback agents.

The plant is x_1' = x_2, x_q' = x_{q+1} + theta phi_q(x_q) for
q = 2..m-1, x_m' = u + theta phi_m(x_m) with theta an unknown scalar and
phi_q known nonlinearities vanishing at 0.  The controller cascades virtual
controls xi_q driven by a single time-varying gain alpha_xi(mu), tracks them
through a dynamic filter xi_qf (so no derivatives of the reference are ever
needed), estimates theta with a sigma-modification law, and applies
u = xi_m.  Descending scale powers L_q = m + l + 1 - q turn the tracking
errors into the bounded coordinates omega_q = alpha_xi^{L_q} x_tilde_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyTrajectory, GuardExceeded, MarginTooSmall)
from .timegain import (GainFunction, GrowthCriterion, check_growth_criterion,
                       log_grid)


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


def select_parameters(m: int, l: float, sigma_prime: float = 1.0,
                      rho: float = 10.0, margin: float = 1.0) -> SfParameters:
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
    an n-vector to an n-vector with phi_q(0) = 0.
    """

    m: int
    n: int
    l: float
    c: tuple
    upsilon: tuple
    sigma: float
    alpha_xi: GainFunction
    mu_guard: float
    phis: tuple = ()

    def __post_init__(self):
        if not self.phis:
            self.phis = tuple(lambda x: x for _ in range(self.m - 1))
        if len(self.c) != self.m or len(self.upsilon) != self.m - 1:
            raise ValueError("gain tuple lengths must be m and m-1")
        if len(self.phis) != self.m - 1:
            raise ValueError("need one phi per stage q = 2..m")

    @property
    def L(self) -> np.ndarray:
        return scale_powers(self.m, self.l)

    @property
    def n_ctrl(self) -> int:
        """Controller state size: theta_hat plus the m-1 filter stages."""
        return 1 + (self.m - 1) * self.n


def check_dcxi(alpha_xi: GainFunction, alpha: GainFunction, c_star: float,
               L2: float, mu0: float, mu_guard: float,
               grid_points: int = 1000):
    """Growth-criterion report for alpha_xi against the generator gain."""
    crit = GrowthCriterion("strict_dcxi", c_star=c_star,
                           coupling_coef=c_star / (2.0 * L2))
    grid = log_grid(mu0, mu_guard, grid_points)
    return check_growth_criterion(alpha_xi, crit, grid, alpha_main=alpha)


def virtual_controls(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                     theta_hat, mu: float, cfg: SfControllerConfig) -> dict:
    """Backstepping cascade.

    x is (..., m, n) stage states, varpi_i (..., n), xi_f is (..., m-1, n)
    filter states and theta_hat a scalar or (...); leading axes stack
    agents.  Returns the virtual controls xi (..., m, n) plus the error
    coordinates x_tilde (..., m, n) and xi_tilde (..., m-1, n) they are
    built from.
    """
    if mu > cfg.mu_guard * (1.0 + 1e-12):
        raise GuardExceeded(f"mu={mu} beyond guard {cfg.mu_guard}")
    a = cfg.alpha_xi.eval(mu)
    th = np.asarray(theta_hat)[..., None]
    xi = np.empty_like(x)
    x_tilde = np.empty_like(x)
    xi_tilde = np.empty_like(xi_f)
    x_tilde[..., 0, :] = x[..., 0, :] - varpi_i
    x_tilde[..., 1:, :] = x[..., 1:, :] - xi_f
    xi[..., 0, :] = -cfg.c[0] * a * x_tilde[..., 0, :]
    for k in range(1, cfg.m):  # 0-based stage index of q = k + 1
        xi_tilde[..., k - 1, :] = xi_f[..., k - 1, :] - xi[..., k - 1, :]
        xi[..., k, :] = (-cfg.c[k] * a * x_tilde[..., k, :]
                         - th * cfg.phis[k - 1](x[..., k, :])
                         - cfg.upsilon[k - 1] * a * xi_tilde[..., k - 1, :])
    return {"xi": xi, "x_tilde": x_tilde, "xi_tilde": xi_tilde}


def filter_rhs(xi_f: np.ndarray, xi: np.ndarray, mu: float,
               cfg: SfControllerConfig) -> np.ndarray:
    """Dynamic filter: xi_qf' = upsilon_q alpha_xi (-xi_qf + xi_{q-1})."""
    a = cfg.alpha_xi.eval(mu)
    ups = np.asarray(cfg.upsilon)[:, None]
    return ups * a * (-xi_f + xi[..., :-1, :])


def tau_value(x: np.ndarray, x_tilde: np.ndarray, mu: float,
              cfg: SfControllerConfig):
    """Adaptation drive tau = sum_q alpha_xi^{2 L_q} x_tilde_q . phi_q(x_q),
    one value per leading index of the (..., m, n) stacks."""
    a = cfg.alpha_xi.eval(mu)
    L = cfg.L
    tau = 0.0
    for k in range(1, cfg.m):
        tau = tau + a ** (2.0 * L[k]) * (
            x_tilde[..., k, :] * cfg.phis[k - 1](x[..., k, :])).sum(axis=-1)
    return tau


def adaptation_rhs(theta_hat, tau, mu: float, cfg: SfControllerConfig):
    """Estimator with leak: theta_hat' = tau - sigma alpha_xi theta_hat."""
    return tau - cfg.sigma * cfg.alpha_xi.eval(mu) * theta_hat


def sf_control(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
               theta_hat, mu: float, cfg: SfControllerConfig) -> np.ndarray:
    """Applied control u = xi_m."""
    view = virtual_controls(x, varpi_i, xi_f, theta_hat, mu, cfg)
    return view["xi"][..., -1, :]


def sf_plant_rhs(x: np.ndarray, u: np.ndarray, theta,
                 cfg: SfControllerConfig) -> np.ndarray:
    """Strict-feedback dynamics with the true parameter theta (scalar or
    one per leading index of the (..., m, n) stack)."""
    th = np.asarray(theta)[..., None]
    dx = np.empty_like(x)
    dx[..., :-1, :] = x[..., 1:, :]
    for k in range(1, cfg.m - 1):
        dx[..., k, :] += th * cfg.phis[k - 1](x[..., k, :])
    dx[..., -1, :] = u + th * cfg.phis[cfg.m - 2](x[..., -1, :])
    return dx


def error_vector(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                 theta_hat) -> np.ndarray:
    """Raw error stack e_s = [x_1 - varpi_i; x_2..x_m; theta_hat; xi_f],
    one row per leading index."""
    head = x.copy()
    head[..., 0, :] -= varpi_i
    lead = x.shape[:-2]
    return np.concatenate([head.reshape(lead + (-1,)),
                           np.asarray(theta_hat, dtype=float)[..., None],
                           xi_f.reshape(lead + (-1,))], axis=-1)


def scaled_error_vector(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                        theta_hat, theta, mu: float,
                        cfg: SfControllerConfig) -> np.ndarray:
    """Transformed stack e_tilde_s = [omega; eta; theta_tilde] with
    omega_q = alpha_xi^{L_q} x_tilde_q, eta_q = alpha_xi^{L_q} xi_tilde_q,
    one row per leading index."""
    view = virtual_controls(x, varpi_i, xi_f, theta_hat, mu, cfg)
    a = cfg.alpha_xi.eval(mu)
    L = cfg.L
    omega = (a ** L)[:, None] * view["x_tilde"]
    eta = (a ** L[1:])[:, None] * view["xi_tilde"]
    lead = x.shape[:-2]
    return np.concatenate([omega.reshape(lead + (-1,)),
                           eta.reshape(lead + (-1,)),
                           np.asarray(theta - theta_hat)[..., None]], axis=-1)


def transformation_matrices(m: int, n: int) -> dict:
    """Selector matrices mapping the raw stack e_s (length mn + 1 + (m-1)n)
    to the pieces the scaled coordinates are built from.

    Lambda1 e_s = [x_tilde_1; x_2..x_m] - [0; xi_f] stage errors,
    Lambda2 e_s = xi_f, Lambda3 selects the first m-1 virtual controls, and
    Lambda4 e_s = theta_hat.
    """
    d = m * n + 1 + (m - 1) * n
    lam1 = np.zeros((m * n, d))
    lam1[:, :m * n] = np.eye(m * n)
    lam1[n:, m * n + 1:] = -np.eye((m - 1) * n)
    lam2 = np.zeros(((m - 1) * n, d))
    lam2[:, m * n + 1:] = np.eye((m - 1) * n)
    lam3 = np.hstack([np.eye((m - 1) * n), np.zeros(((m - 1) * n, n))])
    lam4 = np.zeros(d)
    lam4[m * n] = 1.0
    return {"Lambda1": lam1, "Lambda2": lam2, "Lambda3": lam3,
            "Lambda4": lam4}


def phi_weights(m: int, l: float, n: int, alpha_val: float) -> tuple:
    """Diagonals of Phi_1 (x) I_n and Phi_2 (x) I_n at one gain value."""
    L = scale_powers(m, l)
    w1 = np.repeat(alpha_val ** L, n)
    w2 = np.repeat(alpha_val ** L[1:], n)
    return w1, w2


class StrictFeedbackAgents:
    """N strict-feedback agents under the adaptive backstepping law.

    Plants are stacked as (N, m, n); each agent's controller state is
    [theta_hat, xi_f (m-1, n) flattened], stacked as (N, 1 + (m-1) n).
    thetas holds each agent's true parameter.
    """

    def __init__(self, cfg: SfControllerConfig, thetas):
        self.cfg = cfg
        self.thetas = np.asarray(thetas, dtype=float)
        self.ctrl_size = cfg.n_ctrl

    def _split(self, c: np.ndarray) -> tuple:
        """(theta_hat, xi_f) views of controller states c (..., n_ctrl)."""
        cfg = self.cfg
        return c[..., 0], c[..., 1:].reshape(c.shape[:-1] + (cfg.m - 1, cfg.n))

    def control(self, mu, x, c, ref):
        theta_hat, xi_f = self._split(c)
        return sf_control(x, ref, xi_f, theta_hat, mu, self.cfg)

    def derivatives(self, t, mu, x, c, ref):
        """(dx, dc): plant and controller derivatives of every agent."""
        cfg = self.cfg
        theta_hat, xi_f = self._split(c)
        view = virtual_controls(x, ref, xi_f, theta_hat, mu, cfg)
        dx = sf_plant_rhs(x, view["xi"][..., -1, :], self.thetas, cfg)
        dth = adaptation_rhs(
            theta_hat, tau_value(x, view["x_tilde"], mu, cfg), mu, cfg)
        dxi_f = filter_rhs(xi_f, view["xi"], mu, cfg)
        return dx, np.concatenate(
            [dth[..., None], dxi_f.reshape(c.shape[:-1] + (-1,))], axis=-1)

    def diagnostics(self, mu, x, c, ref) -> dict:
        """Per-agent error norms, estimate, adaptation drive and the
        x2 (and x3) stage norms."""
        cfg = self.cfg
        theta_hat, xi_f = self._split(c)
        view = virtual_controls(x, ref, xi_f, theta_hat, mu, cfg)
        out = {
            "e_s_norm": np.linalg.norm(
                error_vector(x, ref, xi_f, theta_hat), axis=-1),
            "e_tilde_norm": np.linalg.norm(scaled_error_vector(
                x, ref, xi_f, theta_hat, self.thetas, mu, cfg), axis=-1),
            "theta_hat": theta_hat,
            "tau": tau_value(x, view["x_tilde"], mu, cfg),
        }
        for q in range(2, min(cfg.m, 3) + 1):
            out[f"x{q}_norm"] = np.linalg.norm(x[..., q - 1, :], axis=-1)
        return out


def default_invariant_radius(e_tilde0_norm: float) -> float:
    """Default invariant-set radius: twice the initial scaled error plus 1."""
    return 2.0 * e_tilde0_norm + 1.0


def invariant_set_monitor(times, e_tilde_norms, h: float,
                          slack: float = 0.02):
    """Check forward invariance of {||e_tilde_s|| <= h}.

    Passes iff the initial scaled error is inside the ball and the
    trajectory never exceeds (1+slack) h afterwards.
    """
    from .generator import MonitorReport

    times = np.asarray(times, dtype=float)
    norms = np.asarray(e_tilde_norms, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory("invariant set monitor needs a trajectory")
    max_ratio = float(norms.max()) / h
    first_violation = None
    if norms[0] > h:
        first_violation = float(times[0])
    else:
        over = np.flatnonzero(norms > h * (1.0 + slack))
        if over.size:
            first_violation = float(times[int(over[0])])
    return MonitorReport("invariant_set", first_violation is None,
                         max_ratio, first_violation)


def theta_hat_monitor(times, mus, theta_hats, taus,
                      cfg: SfControllerConfig, sigma_prime: float | None = None):
    """Post-hoc estimator envelope:

    |theta_hat(t)| <= (alpha_xi(mu0) |theta_hat(t0)| + tau_max / sqrt(2 sigma'))
                      / alpha_xi(mu(t))

    with tau_max the logged sup of |tau|.
    """
    from .generator import MonitorReport

    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory("estimator monitor needs a trajectory")
    if sigma_prime is None:
        sigma_prime = 2.0 * cfg.sigma - 3.0
    tau_max = float(np.max(np.abs(np.asarray(taus, dtype=float))))
    a0 = cfg.alpha_xi.eval(float(mus[0]))
    gamma = a0 * abs(float(theta_hats[0])) + tau_max / math.sqrt(
        2.0 * sigma_prime)
    max_ratio = 0.0
    first_violation = None
    for t, mu, th in zip(times, mus, theta_hats):
        bound = gamma / cfg.alpha_xi.eval(float(mu))
        ratio = math.inf if bound <= 0 else abs(float(th)) / bound
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 and first_violation is None:
            first_violation = float(t)
    return MonitorReport("theta_hat_envelope", first_violation is None,
                         max_ratio, first_violation)


def sf_decay_monitor(times, mus, e_s_norms, cfg: SfControllerConfig,
                     name: str = "sf_decay"):
    """Fit the smallest C with ||e_s(t)|| <= C / alpha_xi(mu(t)).

    A finite fit certifies the prescribed-time decay of the raw errors,
    since alpha_xi(mu) grows without bound toward the deadline.
    """
    from .generator import MonitorReport

    times = np.asarray(times, dtype=float)
    norms = np.asarray(e_s_norms, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory("decay monitor needs a trajectory")
    c_fit = 0.0
    for mu, nrm in zip(mus, norms):
        c_fit = max(c_fit, nrm * cfg.alpha_xi.eval(float(mu)))
    passed = math.isfinite(c_fit)
    return MonitorReport(name, passed, c_fit,
                         None if passed else float(times[0]))
