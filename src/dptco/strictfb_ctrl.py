"""Adaptive prescribed-time backstepping for strict-feedback agents.

The plant is x_1' = x_2, x_q' = x_{q+1} + theta phi_q(x_q) for
q = 2..m-1, x_m' = u + theta phi_m(x_m) with theta an unknown scalar and
phi_q known nonlinearities vanishing at 0.  The controller cascades virtual
controls xi_q driven by a single time-varying gain alpha_xi(mu), tracks them
through a dynamic filter xi_qf (so no derivatives of the reference are ever
needed), estimates theta with a sigma-modification law, and applies
u = xi_m.  Descending scale powers L_q = m + l + 1 - q, with l = 1, turn
the tracking errors into the bounded coordinates omega_q =
alpha_xi^{L_q} x_tilde_q; alpha_xi meets the growth criterion DCxi
(check_dcxi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DptcoError
from .generator import bound_ratio, matrix_radius, ratio_report
from .timegain import GainFunction, check_growth_criterion

# l in the scale powers L_q = m + l + 1 - q
_L = 1.0


def scale_powers(m: int) -> np.ndarray:
    """Exponents L_q = m + l + 1 - q for stages q = 1..m, l = _L."""
    return np.array([m + _L + 1 - q for q in range(1, m + 1)], dtype=float)


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
    c: tuple
    upsilon: tuple
    sigma: float
    alpha_xi: GainFunction
    mu_guard: float
    phis: tuple

    def __post_init__(self):
        if not self.sigma > 1.5:
            raise DptcoError(f"sigma must be > 1.5, got {self.sigma}")
        if len(self.c) != self.m or len(self.upsilon) != self.m - 1:
            raise ValueError("gain tuple lengths must be m and m-1")
        if len(self.phis) != self.m - 1:
            raise ValueError("need one phi per stage q = 2..m")

    @cached_property
    def L(self) -> np.ndarray:
        return scale_powers(self.m)

    @cached_property
    def _law_constants(self) -> tuple:
        """The cascade's constants: the floats -c_q and -upsilon_q, the
        exponents 2 L_q of its adaptation drive for q = 2..m as numpy
        floats (so a float gain's ** overflows to inf, with numpy's
        warning, not an OverflowError), and the one phi of every stage
        (None if they differ)."""
        return ([-c for c in self.c], [-u for u in self.upsilon],
                list(2.0 * self.L[1:]),
                self.phis[0] if len(set(self.phis)) == 1 else None)

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


def _gain(mu, cfg: SfControllerConfig):
    """alpha_xi(mu), refused past the guard; at a float mu, or at every
    entry of an ndarray mu."""
    over = mu > cfg.mu_guard * (1.0 + 1e-12)
    if type(over) is not bool:  # an array mu, or a numpy float
        over = over.any()
    if over:
        raise DptcoError(f"mu={np.max(mu)} beyond guard {cfg.mu_guard}")
    return cfg.alpha_xi.eval(mu)


def _cascade(x, varpi_i, xi_f, theta_hat, a, cfg: SfControllerConfig, xi,
             drive=None):
    """Walk the backstepping cascade once, stage by stage.

    x (m, ..., n) holds the stage states, stage q = k + 1 at x[k], and
    xi_f (m-1, ..., n) the filter states, stage q's at xi_f[k - 1]; a is
    alpha_xi, a float, or an array (..., 1, 1) of one value per leading
    index of the agent axis.  xi (m, ..., n) receives the virtual controls
    and drive[k - 1], when given, the filter derivative xi_qf' =
    upsilon_q alpha_xi (xi_{q-1} - xi_qf).  Returns (x_tilde_1, x_tilde,
    phi, tau): the stage errors x_tilde_1 = x_1 - varpi_i (..., n) and
    x_tilde_q = x_q - xi_qf, the nonlinearities phi_q(x_q) (m-1, ..., n)
    for q = 2..m, and the adaptation drive tau = sum_q alpha_xi^{2 L_q}
    x_tilde_q . phi_q(x_q) (...).  What no stage feeds forward is taken
    for all stages at once; every entry is rounded as its stage's own
    formula rounds it.
    """
    neg_c, neg_upsilon, tau_powers, one_phi = cfg._law_constants
    x_tilde = np.subtract(x[1:], xi_f)
    phi = one_phi(x[1:]) if one_phi is not None else np.array(
        [f(x_q) for f, x_q in zip(cfg.phis, x[1:])])
    theta_phi = np.asarray(theta_hat)[..., None] * phi
    x_tilde_1 = np.subtract(x[0], varpi_i)
    xk = np.multiply(neg_c[0] * a, x_tilde_1, out=xi[0])
    terms = np.add.reduce(x_tilde * phi, axis=-1)  # x_tilde_q . phi_q
    array_gain = isinstance(a, np.ndarray)
    tau = 0.0
    for k in range(1, cfg.m):
        # (-upsilon_q a) xi_tilde_q is the filter derivative, and the
        # cascade's -upsilon_q a xi_tilde_q term, bit for bit
        d = np.multiply(neg_upsilon[k - 1] * a, np.subtract(xi_f[k - 1], xk),
                        out=None if drive is None else drive[k - 1])
        xk = np.multiply(neg_c[k] * a, x_tilde[k - 1], out=xi[k])
        xk -= theta_phi[k - 1]
        xk += d
        # alpha_xi^(2 L_q) by libm's pow: a float's **, or per row
        w = (np.float_power(a, tau_powers[k - 1])[..., 0] if array_gain
             else a ** tau_powers[k - 1])
        tau = tau + w * terms[k - 1]
    return x_tilde_1, x_tilde, phi, tau


def virtual_controls(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
                     theta_hat, mu, cfg: SfControllerConfig) -> dict:
    """Backstepping cascade.

    x is (m, ..., n) stage states, stage axis first, varpi_i (..., n),
    xi_f is (m-1, ..., n) filter states and theta_hat a scalar or (...);
    the axes between stack agents.  mu is a float, or an array of one
    value per leading index of the agent axis, as (K,) with x
    (m, K, N, n).  Returns the virtual controls xi (m, ..., n), the error
    coordinates x_tilde (m, ..., n) and xi_tilde (m-1, ..., n) they are
    built from, and the adaptation drive
    tau = sum_q alpha_xi^{2 L_q} x_tilde_q . phi_q(x_q) (...).
    """
    a = _gain(mu, cfg)
    if isinstance(a, np.ndarray):
        a = a[..., None, None]  # over each row's agents and channels
    xi = np.empty_like(x)
    x_tilde_1, x_tilde, _, tau = _cascade(x, varpi_i, xi_f, theta_hat, a,
                                          cfg, xi)
    return {"xi": xi, "x_tilde": np.concatenate([x_tilde_1[None], x_tilde]),
            "xi_tilde": xi_f - xi[:-1], "tau": tau}


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
                        theta_hat, theta, mu, cfg: SfControllerConfig,
                        view: dict) -> np.ndarray:
    """Transformed stack e_tilde_s = [omega; eta; theta_tilde] with
    omega_q = alpha_xi^{L_q} x_tilde_q, eta_q = alpha_xi^{L_q} xi_tilde_q,
    one row per leading index, from view, the virtual_controls result at
    the same arguments (mu a float, or one per leading index of the agent
    axis)."""
    a = cfg.alpha_xi.eval(mu)
    # alpha_xi^L_q (m,) + mu's shape, then over the agents and channels
    w = np.power(a, cfg.L.reshape((-1,) + (1,) * np.ndim(a)))
    w = w.reshape(w.shape + (1,) * (x.ndim - w.ndim))
    omega = w * view["x_tilde"]
    eta = w[1:] * view["xi_tilde"]
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

    @cached_property
    def spectral_rate(self) -> tuple:
        """(kappa, alpha_xi): the cascade's spectral radius is
        kappa alpha_xi(mu).

        kappa is the spectral radius of one agent's linearization at zero
        error with theta = theta_hat = 0, taken at mu = 1, over
        alpha_xi(1).  In the coordinates alpha_xi^(1-q) x_q (and the
        filters and theta_hat alike) that linearization is alpha_xi times
        a fixed matrix, so the ratio holds at every mu; theta and theta_hat
        add only the bounded theta phi_q terms.  The Jacobian's columns come
        from central differences, each perturbation one agent of a
        zero-theta stack.
        """
        cfg = self.cfg
        m, n = cfg.m, cfg.n
        size = m * n + cfg.n_ctrl
        step = 1e-6
        e = np.concatenate([np.eye(size), -np.eye(size)]) * step
        x = e[:, :m * n].reshape(-1, m, n).transpose(1, 0, 2)
        theta_hat = e[:, m * n]
        xi_f = e[:, m * n + 1:].reshape(-1, m - 1, n).transpose(1, 0, 2)
        dx, dxi = np.empty(x.shape), np.empty(xi_f.shape)
        dth = np.empty(2 * size)
        StrictFeedbackAgents(cfg, np.zeros(2 * size)).derivatives(
            0.0, 1.0, x, (theta_hat, xi_f), np.zeros((2 * size, n)), dx,
            (dth, dxi))
        f = np.concatenate([_rows(dx), dth[:, None], _rows(dxi)], axis=1)
        jac = (f[:size] - f[size:]).T / (2.0 * step)
        return matrix_radius(jac) / cfg.alpha_xi.eval(1.0), cfg.alpha_xi

    def derivatives(self, t, mu, x, c, ref, dx, dc):
        """Write the plant and controller derivatives of every agent into
        dx and dc, from one walk of the cascade.  dx holds the virtual
        controls until the plant derivatives replace them."""
        cfg = self.cfg
        a = _gain(mu, cfg)
        theta_hat, xi_f = c
        _, _, phi, tau = _cascade(x, ref, xi_f, theta_hat, a, cfg, dx, dc[1])
        # x_q' = x_{q+1} + theta phi_q(x_q); x_m' = u + theta phi_m with
        # u = xi_m, in dx[-1]
        theta_phi = self._theta_n * phi
        dx[-1] += theta_phi[-1]
        dx[0] = x[1]
        if cfg.m > 2:
            np.add(x[2:], theta_phi[:-1], out=dx[1:-1])
        np.subtract(tau, cfg.sigma * a * theta_hat, out=dc[0])

    def diagnostics(self, mu, x, c, ref) -> dict:
        """Per-agent error norms, estimate, adaptation drive and the
        x2 (and x3) stage norms; mu is a float, or one per leading index
        of the agent axis (`virtual_controls`)."""
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


# how far past its ball the invariant-set monitor lets a trajectory go,
# as a share of the radius
_INVARIANT_SLACK = 0.02


def invariant_set_monitor(times, e_tilde_norms, h):
    """Check forward invariance of {||e_tilde_s|| <= h}.

    e_tilde_norms is (K, N) and h one radius for every agent.
    Passes iff every initial scaled error is inside its ball and no
    trajectory exceeds (1 + _INVARIANT_SLACK) h afterwards.
    """
    limit = np.full(len(times), 1.0 + _INVARIANT_SLACK)
    limit[0] = 1.0
    return ratio_report("invariant_set", times,
                        np.asarray(e_tilde_norms, dtype=float) / h, limit)


def theta_hat_monitor(times, mus, theta_hats, taus, cfg: SfControllerConfig):
    """Post-hoc estimator envelope, for theta_hats and taus (K, N):

    |theta_hat(t)| <= (alpha_xi(mu0) |theta_hat(0)| + tau_max / sqrt(2 sigma'))
                      / alpha_xi(mu(t))

    with tau_max each agent's logged sup of |tau| and sigma' = 2 sigma - 3.
    A zero bound (theta_hat(0) = 0 and tau = 0) admits only a zero
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
