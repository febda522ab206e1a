"""Reference forms of library math that the library itself computes in a
fused, one-pass way or does not need; tests compare the library against
these, the hot kernels bit for bit (el_acceleration_per_op,
sum_terms_per_family, cascade with sf_derivatives and derived_series_loop).
Also the gain constructors the tests use (scenarios build their gains with
GainFunction.from_dict), the applied controls, which the closed loop
computes only inside its right-hand side, the JSON forms of gains, which
only round-trip tests write, the cost term dicts that tests build CostSets
from (quad, expq), and the design recipes that scenarios do not use, since
they state the result: the strict-feedback gains (select_parameters;
scenarios give c, upsilon and sigma), the chain's pole placement and dc2
gain (chain_config; they give K and alpha_s) and the working box
[-5, 5]^dim (default_box)."""

import math
from dataclasses import dataclass

import numpy as np

from dptco import costs as _costs
from dptco.chain_ctrl import (_CORIOLIS, ChainControllerConfig,
                              EulerLagrangeParams, chain_control, companion,
                              make_chain_config, solve_lyapunov, v_constants)
from dptco.errors import DptcoError
from dptco.generator import (ErrorState, GeneratorConstants, error_state,
                             gradients_at)
from dptco.graph import Network
from dptco.scenario import _DT, _REQUIRED, _TABLE
from dptco.sim_engine import (_DP_A, _DP_C, _DP_E, _RK4_H_RHO,
                              SolverSettings, Trajectory)
from dptco.strictfb_ctrl import (SfControllerConfig, StrictFeedbackAgents,
                                 scale_powers, virtual_controls)
from dptco.timegain import (CriterionReport, GainFunction, PrescribedClock,
                            kappa)


class DegenerateSize(ValueError):
    """Operation needs at least two agents."""


def solver_settings(**given) -> SolverSettings:
    """SolverSettings as a scenario's solver section giving only these
    keys, and log_every 1 unless it is given, reads: the key table's
    default for every other field, and the build's step cap for dt."""
    return SolverSettings(**{"dt": _DT, "log_every": 1, **{
        k: d for k, (_, d) in _TABLE["solver"].items() if d != _REQUIRED},
        **given})


def linear_gain(k: float) -> GainFunction:
    return GainFunction("linear", (float(k),))


def power_gain(k: float, a: float) -> GainFunction:
    return GainFunction("power", (float(k), float(a)))


def log_gain(k: float) -> GainFunction:
    return GainFunction("log", (float(k),))


def exp_gain(k1: float, k2: float) -> GainFunction:
    return GainFunction("exp", (float(k1), float(k2)))


def dc2_gain(alpha_x: GainFunction, v1: float, m: int,
             mu0: float) -> GainFunction:
    """The chain gain alpha_s derived from alpha_x by DC2."""
    return GainFunction("dc2", (float(v1), int(m), float(mu0)), alpha_x)


def hurwitz_gain(m: int) -> np.ndarray:
    """Gain vector K of length m-1 placing all eigenvalues of Lambda at -1.

    The entries are the binomial coefficients of (s+1)^(m-1) below the
    leading term, so the characteristic polynomial is exactly (s+1)^(m-1).
    """
    if m < 2:
        raise ValueError("chain order must be >= 2")
    return np.array([math.comb(m - 1, j) for j in range(m - 1)], dtype=float)


def chain_config(m: int, n: int, v: float, alpha_x: GainFunction,
                 mu_guard: float) -> ChainControllerConfig:
    """make_chain_config with K = hurwitz_gain(m) and alpha_s the dc2 gain
    of alpha_x at the v1 that K gives, on a clock with mu0 = 1 (T = 1)."""
    K = hurwitz_gain(m)
    Q = np.eye(m - 1)
    v1, _ = v_constants(solve_lyapunov(companion(K), Q), Q, m)
    return make_chain_config(m, n, v, alpha_x, mu_guard,
                             dc2_gain(alpha_x, v1, m, 1.0), K)


def gain_to_dict(g: GainFunction) -> dict:
    """The scenario-JSON form GainFunction.from_dict reads."""
    d = {"family": g.family, "params": list(g.params)}
    if g.family == "dc2":
        d["base"] = gain_to_dict(g.base)
    return d


def quad(Q, center, offset: float = 0.0) -> dict:
    """A quadratic cost term, as the scenario reader returns it."""
    return {"family": "quadratic", "Q": Q, "center": center,
            "offset": offset}


def expq(P, center) -> dict:
    """An exp-quadratic cost term, as the scenario reader returns it."""
    return {"family": "exp_quadratic", "P": P, "center": center}


def default_box(dim: int) -> np.ndarray:
    """Working box [-5, 5]^dim."""
    return np.tile([-5.0, 5.0], (dim, 1))


def wide_box(dim: int) -> np.ndarray:
    """Working box [-10, 10]^dim, twice the default box."""
    return np.tile([-10.0, 10.0], (dim, 1))


def sf_control(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
               theta_hat, mu: float, cfg: SfControllerConfig) -> np.ndarray:
    """Applied strict-feedback control u = xi_m."""
    return virtual_controls(x, varpi_i, xi_f, theta_hat, mu, cfg)["xi"][-1]


def stacked_control(agents, mu: float, x, c, ref) -> np.ndarray:
    """Every agent's applied control (..., n) from the stage-major plant
    stages x, the controller states c and the references ref."""
    if isinstance(agents, StrictFeedbackAgents):
        theta_hat, xi_f = c
        return sf_control(x, ref, xi_f, theta_hat, mu, agents.cfg)
    return chain_control(x, ref, mu, agents.cfg)


def agent_control(sys, t: float, y: np.ndarray, i: int) -> np.ndarray:
    """Control applied by agent i of the closed loop sys at (t, y)."""
    varpi, _, x, c = sys.views(y)
    return stacked_control(
        sys.agents, sys.clock.mu(t), x[:, i],
        None if c is None else (c[0][i], c[1][:, i]),
        sys.references(varpi)[i])


def chain_decay_fit(times, e_s_norms, cfg, clock) -> float:
    """Smallest C with ||e_s|| <= C kappa(-(v1/4m) alpha_x(mu)) over the
    (K, N) norms, one scalar division at a time; 0/0 counts as 0."""
    c_fit = 0.0
    for t, row in zip(times, e_s_norms):
        k = kappa(clock, cfg.alpha_x, -cfg.v1 / (4.0 * cfg.m), t)
        for nrm in row:
            if k > 0.0:
                c_fit = max(c_fit, nrm / k)
            elif nrm > 1e-12:
                c_fit = math.inf
    return c_fit


def sf_decay_fit(mus, e_s_norms, cfg: SfControllerConfig) -> float:
    """Smallest C with ||e_s|| <= C / alpha_xi(mu) over the (K, N) norms,
    one scalar product at a time."""
    return max([0.0] + [nrm * cfg.alpha_xi.eval(float(mu))
                        for mu, row in zip(mus, e_s_norms) for nrm in row])


def theta_hat_max_ratio(mus, theta_hats, taus,
                        cfg: SfControllerConfig) -> float:
    """Largest |theta_hat| over its estimator envelope, agent by agent and
    point by point; a zero envelope reads inf."""
    worst = 0.0
    for th, tau in zip(np.transpose(theta_hats), np.transpose(taus)):
        gamma = (cfg.alpha_xi.eval(float(mus[0])) * abs(float(th[0]))
                 + float(np.max(np.abs(tau)))
                 / math.sqrt(2.0 * (2.0 * cfg.sigma - 3.0)))
        for mu, value in zip(mus, th):
            bound = gamma / cfg.alpha_xi.eval(float(mu))
            worst = max(worst, abs(float(value)) / bound if bound > 0.0
                        else math.inf)
    return worst


# C picks x2 entries _C_PICK with signs _C_SIGN
_C_PICK = np.array([[0, 0], [0, 1]])
_C_SIGN = np.array([[-1.0, -2.0], [0.0, 1.0]])


def el_matrices(par: EulerLagrangeParams, x1: np.ndarray, x2: np.ndarray):
    """Inertia M(x1), Coriolis C(x1, x2) and gravity G(x1) matrices.

    With q = x1:  M = [[t1 + t2 + 2 t3 cos q2, t2 + t3 cos q2],
    [t2 + t3 cos q2, t4]],  C = t3 sin q2 [[-x2_1, -2 x2_1], [0, x2_2]],
    G = g [t5 cos q1 + t6 cos(q1 + q2), t6 cos(q1 + q2)].  x1 and x2 are
    (..., 2); returns M and C as (..., 2, 2), G as (..., 2).
    """
    A, B, W = par.coefficients
    c2 = np.cos(x1[..., 1, None, None])
    s2 = np.sin(x1[..., 1, None, None])
    M = A + c2 * B
    C = (par.theta[2] * s2) * (x2[..., _C_PICK] * _C_SIGN)
    G = np.cos(np.stack([x1[..., 0], x1[..., 0] + x1[..., 1]], -1)) @ W
    return M, C, G


def el_acceleration_solve(true_par, nominal_par, x1, x2, u):
    """x2' = M^{-1}(M_hat u + C_hat x2 + G_hat - C x2 - G) for one agent,
    by np.linalg.solve."""
    M_hat, C_hat, G_hat = el_matrices(nominal_par, x1, x2)
    M, C, G = el_matrices(true_par, x1, x2)
    return np.linalg.solve(
        M, M_hat @ u + C_hat @ x2 + G_hat - C @ x2 - G)


def el_acceleration_per_op(true_par, nominal_par, x1, x2, u):
    """chain_ctrl.el_acceleration one operation per term, with the
    mismatch constants taken from the parameters: cos q2, then
    cos [q1, q1 + q2], each from its own call, and M_22, M_11 and M_12
    each from its own product and sum."""
    A_hat, B_hat, W_hat = nominal_par.coefficients
    A, B, W = true_par.coefficients
    dtheta3 = nominal_par.theta[2] - true_par.theta[2]
    c2 = np.cos(x1[..., 1:])
    b = (np.dot(u, A_hat) + c2 * np.dot(u, B_hat)
         + np.dot(np.cos(np.dot(x1, np.array([[1.0, 1.0], [0.0, 1.0]]))),
                  W_hat - W))
    b += (dtheta3 * np.sin(x1[..., 1:])) * (x2 * np.dot(x2, _CORIOLIS))
    diag = A.diagonal()[::-1].copy() + c2 * B.diagonal()[::-1].copy()
    m12 = float(A[0, 1]) + c2 * float(B[0, 1])
    det = diag[..., :1] * diag[..., 1:] - m12 * m12
    return (diag * b - m12 * b[..., ::-1]) / det


def chain_plant_rhs(x: np.ndarray, u: np.ndarray, phi) -> np.ndarray:
    """Chain dynamics: x_q' = x_{q+1}, x_m' = u + phi, on (m, ..., n)."""
    dx = np.empty_like(x)
    dx[:-1] = x[1:]
    dx[-1] = u + phi
    return dx


def cascade(x: np.ndarray, varpi_i: np.ndarray, xi_f: np.ndarray,
            theta_hat, mu: float, cfg: SfControllerConfig) -> dict:
    """Backstepping cascade on whole (m, ..., n) stage stacks: virtual
    controls xi and the error coordinates x_tilde, xi_tilde (no guard
    check)."""
    a = cfg.alpha_xi.eval(mu)
    th = np.asarray(theta_hat)[..., None]
    xi = np.empty_like(x)
    x_tilde = np.empty_like(x)
    xi_tilde = np.empty_like(xi_f)
    x_tilde[0] = x[0] - varpi_i
    x_tilde[1:] = x[1:] - xi_f
    xi[0] = -cfg.c[0] * a * x_tilde[0]
    for k in range(1, cfg.m):  # 0-based stage index of q = k + 1
        xi_tilde[k - 1] = xi_f[k - 1] - xi[k - 1]
        xi[k] = (-cfg.c[k] * a * x_tilde[k] - th * cfg.phis[k - 1](x[k])
                 - cfg.upsilon[k - 1] * a * xi_tilde[k - 1])
    return {"xi": xi, "x_tilde": x_tilde, "xi_tilde": xi_tilde}


def filter_rhs(xi_f: np.ndarray, xi: np.ndarray, mu: float,
               cfg: SfControllerConfig) -> np.ndarray:
    """Dynamic filter: xi_qf' = upsilon_q alpha_xi (-xi_qf + xi_{q-1})."""
    a = cfg.alpha_xi.eval(mu)
    ups = np.asarray(cfg.upsilon).reshape((-1,) + (1,) * (xi_f.ndim - 1))
    return ups * a * (-xi_f + xi[:-1])


def tau_value(x: np.ndarray, x_tilde: np.ndarray, mu: float,
              cfg: SfControllerConfig):
    """Adaptation drive tau = sum_q alpha_xi^{2 L_q} x_tilde_q . phi_q(x_q),
    one value per agent of the (m, ..., n) stacks."""
    a = cfg.alpha_xi.eval(mu)
    L = cfg.L
    tau = 0.0
    for k in range(1, cfg.m):
        tau = tau + a ** (2.0 * L[k]) * (
            x_tilde[k] * cfg.phis[k - 1](x[k])).sum(axis=-1)
    return tau


def adaptation_rhs(theta_hat, tau, mu: float, cfg: SfControllerConfig):
    """Estimator with leak: theta_hat' = tau - sigma alpha_xi theta_hat."""
    return tau - cfg.sigma * cfg.alpha_xi.eval(mu) * theta_hat


def sf_plant_rhs(x: np.ndarray, u: np.ndarray, theta,
                 cfg: SfControllerConfig) -> np.ndarray:
    """Strict-feedback dynamics with the true parameter theta (scalar or
    one per agent of the (m, ..., n) stack)."""
    th = np.asarray(theta)[..., None]
    dx = np.empty_like(x)
    dx[:-1] = x[1:]
    for k in range(1, cfg.m - 1):
        dx[k] += th * cfg.phis[k - 1](x[k])
    dx[-1] = u + th * cfg.phis[cfg.m - 2](x[-1])
    return dx


def sf_derivatives(x, c, ref, thetas, mu, cfg: SfControllerConfig):
    """(dx, (dtheta_hat, dxi_f)) of stacked strict-feedback agents with
    c = (theta_hat, xi_f), one piece at a time: cascade, plant, adaptation
    drive, estimator and filter."""
    theta_hat, xi_f = c
    view = cascade(x, ref, xi_f, theta_hat, mu, cfg)
    dx = sf_plant_rhs(x, view["xi"][-1], thetas, cfg)
    dth = adaptation_rhs(
        theta_hat, tau_value(x, view["x_tilde"], mu, cfg), mu, cfg)
    return dx, (dth, filter_rhs(xi_f, view["xi"], mu, cfg))


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


@dataclass(frozen=True)
class SfParameters:
    """Gains produced by the stability-margin recipe."""

    sigma: float
    L: tuple
    c: tuple
    upsilon: tuple


def select_parameters(m: int, sigma_prime: float, rho: float,
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
    if sigma_prime <= 0 or rho <= 0:
        raise DptcoError("sigma_prime and rho must be positive")
    sigma = 0.5 * (3.0 + sigma_prime)
    if margin < 0.5 * sigma - 1e-12:
        raise DptcoError(f"margin {margin} below sigma/2 = {0.5 * sigma}")
    L = scale_powers(m)
    c = [L[0] + 1.5 + margin]
    c += [L[q] + 2.0 + margin for q in range(1, m)]
    upsilon = [L[q] + rho + 0.5 + margin for q in range(1, m)]
    return SfParameters(sigma, tuple(L), tuple(c), tuple(upsilon))


def phi_weights(m: int, n: int, alpha_val: float) -> tuple:
    """Diagonals of Phi_1 (x) I_n and Phi_2 (x) I_n at one gain value."""
    L = scale_powers(m)
    w1 = np.repeat(alpha_val ** L, n)
    w2 = np.repeat(alpha_val ** L[1:], n)
    return w1, w2


def cost_value(c, z) -> float:
    """f(z) of one agent's cost, a term dict or a list of them (their
    sum), term by term: the per-agent form of CostSet.team_value."""
    if isinstance(c, list):
        return sum(cost_value(t, z) for t in c)
    d = np.asarray(z, dtype=float) - np.asarray(c["center"], dtype=float)
    if c["family"] == "quadratic":
        return float(d @ np.asarray(c["Q"], dtype=float) @ d) + c["offset"]
    return math.exp(float(d @ np.asarray(c["P"], dtype=float) @ d))


def cost_gradient(c, z) -> np.ndarray:
    """grad f(z) of one agent's cost, term by term: the per-agent form of
    CostSet.grad_stack, which batches all agents' terms."""
    z = np.asarray(z, dtype=float)
    if isinstance(c, list):
        return sum(cost_gradient(t, z) for t in c)
    d = z - np.asarray(c["center"], dtype=float)
    if c["family"] == "quadratic":
        return 2.0 * (np.asarray(c["Q"], dtype=float) @ d)
    return cost_value(c, z) * 2.0 * (np.asarray(c["P"], dtype=float) @ d)


# each cost family's gradient and Hessian rows at offsets D = z - center,
# every batch forming its own products
def _quad_grads(Q2s, D):
    return (Q2s @ D[..., None])[..., 0]


def _expq_grads(Ps, D):
    Pd = (Ps @ D[..., None])[..., 0]
    e = np.exp((D * Pd).sum(axis=-1))
    return (2.0 * e)[..., None] * Pd


def _quad_hessians(Q2s, D):
    return np.broadcast_to(Q2s, D.shape + D.shape[-1:]).copy()


def _expq_hessians(Ps, D):
    Pd = (Ps @ D[..., None])[..., 0]
    e = np.exp((D * Pd).sum(axis=-1))
    return (2.0 * e)[..., None, None] * (
        Ps + 2.0 * Pd[..., :, None] * Pd[..., None, :])


_PER_FAMILY = {_costs._quad_grads: (_quad_grads, _quad_hessians),
               _costs._expq_grads: (_expq_grads, _expq_hessians)}


def sum_terms_per_family(costs, Z: np.ndarray, k: int) -> np.ndarray:
    """CostSet.grad_stack (k = 0) or hessian_stack (k = 1) at Z (..., N,
    dim), over the CostSet's family batches in order, each batch forming
    its own offsets and products: no stacked product."""
    out = None
    for idx, mats, cents, unique, kernels in costs._batches:
        kernel = _PER_FAMILY[kernels[0]][k]
        if idx is None:
            part = kernel(mats, Z - cents)
            out = part if out is None else out + part
            continue
        at = (slice(None),) * (Z.ndim - 2) + (idx,)
        part = kernel(mats, Z[at] - cents)
        if out is None:
            out = np.zeros(Z.shape[:-1] + part.shape[Z.ndim - 1:])
        if unique:
            out[at] += part
        else:
            np.add.at(out, at, part)
    return out


def central_differences(grad, Z: np.ndarray) -> np.ndarray:
    """Jacobians (..., n, dim, dim) of a map grad that takes points
    (..., n, dim) to as many gradients, block i at Z[..., i, :] by central
    differences with step 1e-5 (1 + ||Z[..., i, :]||): the reference
    for CostSet.hessian_stack."""
    h = 1e-5 * (1.0 + np.linalg.norm(Z, axis=-1, keepdims=True))
    cols = []
    for k in range(Z.shape[-1]):
        dz = np.zeros(Z.shape)
        dz[..., k] = h[..., 0]
        cols.append((grad(Z + dz) - grad(Z - dz)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def curvature_bounds(agents: list, box) -> tuple:
    """(rho_c, varrho_c) of the agents' costs (term dicts or lists of
    them) on box, agent by agent and term by term: the per-agent form of
    CostSet's constants.  rho_c is the least 2 lambda_min(sum Q + sum P)
    over agents; varrho_c the largest 2 lambda_max(sum Q) plus, per
    exp-quadratic term, 2 exp(D'|P|D) (lambda_max(P) + 2 |||P| D||^2),
    D the largest |z - c| on the box per coordinate."""
    box = np.asarray(box, dtype=float)
    rho, varrho = math.inf, -math.inf
    for c in agents:
        terms = c if isinstance(c, list) else [c]
        mats = [np.asarray(t["Q" if t["family"] == "quadratic" else "P"],
                           dtype=float) for t in terms]
        quads = [m for m, t in zip(mats, terms) if t["family"] == "quadratic"]
        up = 2.0 * np.linalg.eigvalsh(sum(quads))[-1] if quads else 0.0
        for m, t in zip(mats, terms):
            if t["family"] == "exp_quadratic":
                d = np.maximum(abs(box[:, 0] - t["center"]),
                               abs(box[:, 1] - t["center"]))
                pd = abs(m) @ d
                up += 2.0 * math.exp(d @ pd) * (np.linalg.eigvalsh(m)[-1]
                                                + 2.0 * (pd @ pd))
        rho = min(rho, 2.0 * np.linalg.eigvalsh(sum(mats))[0])
        varrho = max(varrho, up)
    return float(rho), float(varrho)


def log_grid(s_lo: float, s_hi: float, n: int) -> np.ndarray:
    """n log-spaced points covering [s_lo, s_hi], one float at a time:
    s_lo (s_hi/s_lo)**(i/(n-1)) for i = 0 .. n-1 (timegain.log_grid takes
    n = 1000)."""
    return np.array([s_lo * (s_hi / s_lo) ** (i / (n - 1)) for i in range(n)])


def check_growth_criterion(kind: str, alpha: GainFunction, coef: float,
                           grid, coupling=None) -> CriterionReport:
    """timegain.check_growth_criterion one grid point at a time, with the
    gains evaluated at floats: the first strict minimum of the margin and
    the least coupling slack, NaN never below either."""
    grid = [float(s) for s in grid]
    c, alpha_main = coupling or (None, None)
    worst = math.inf
    worst_s = grid[0]
    c_worst = math.inf
    for s in grid:
        a = alpha.eval(s)
        da = alpha.deriv(s)
        margin = (coef * a * a / (s * s) - da) / max(1.0, abs(da))
        if margin < worst:
            worst = margin
            worst_s = s
        if coupling is not None:
            c_worst = min(c_worst, c * alpha_main.eval(s) - a)
    return CriterionReport(kind, worst >= -1e-12, worst, worst_s,
                           c_worst >= -1e-12, c_worst)


# --- generator: one agent's dynamics and the Lyapunov diagnostic ----------

def agent_rhs(varpi_i: np.ndarray, p_i: np.ndarray, grad_i: np.ndarray,
              neighbor_varpi: list, alpha_mu: float) -> tuple:
    """Per-agent generator right-hand side; reads only neighbor values and
    the local gradient.  neighbor_varpi is a list of (weight, varpi_j)."""
    cons = np.zeros_like(varpi_i)
    for w, varpi_j in neighbor_varpi:
        cons += w * (varpi_i - varpi_j)
    dvarpi = -alpha_mu * (cons + grad_i + p_i)
    dp = alpha_mu * cons
    return dvarpi, dp


@dataclass(frozen=True)
class ReducedBasis:
    """Consensus direction r = 1_N/sqrt(N) and its orthonormal complement R."""

    r: np.ndarray
    R: np.ndarray


def reduced_basis(net_or_n) -> ReducedBasis:
    """Orthonormal complement of the consensus direction.

    Columns of R come from Gram-Schmidt on e_1..e_{N-1} against r, with
    each column's first nonzero entry made positive, so the basis is
    deterministic for fixed N.
    """
    n = net_or_n.n_agents if isinstance(net_or_n, Network) else int(net_or_n)
    if n < 2:
        raise DegenerateSize(f"reduced basis needs N >= 2, got {n}")
    r = np.full(n, 1.0 / math.sqrt(n))
    cols = []
    for k in range(n - 1):
        v = np.zeros(n)
        v[k] = 1.0
        v -= (r @ v) * r
        for c in cols:
            v -= (c @ v) * c
        v /= np.linalg.norm(v)
        nz = np.flatnonzero(np.abs(v) > 1e-14)[0]
        if v[nz] < 0:
            v = -v
        cols.append(v)
    return ReducedBasis(r, np.column_stack(cols))


def reduced_laplacian(net: Network,
                      basis: ReducedBasis | None = None) -> np.ndarray:
    """L_R = R^T L R, the Laplacian restricted to the disagreement subspace."""
    if basis is None:
        basis = reduced_basis(net)
    return basis.R.T @ net.laplacian @ basis.R


def lyapunov_vr(err: ErrorState, net: Network,
                consts: GeneratorConstants) -> float:
    """Lyapunov diagnostic for the generator's error dynamics.

    V = c1/2 (||e_varpi||^2 + e_p^T [r,R] Ltilde_R^{-1} [r,R]^T e_p)
        + 1/2 ||e_varpi + e_p||^2

    with Ltilde_R = diag(I, L_R), everything Kronecker-extended by the cost
    dimension.  Satisfies c2 ||e_r||^2 <= V <= c3 ||e_r||^2.
    """
    basis = reduced_basis(net)
    L_R = reduced_laplacian(net, basis)
    if np.linalg.eigvalsh(L_R)[0] <= 1e-10:
        raise DptcoError("graph is disconnected, unreached nodes: []")
    # phi-block coordinates of e_p: bar over r, tilde over R columns
    bar_phi = basis.r @ err.e_p            # (dim,)
    tilde_phi = basis.R.T @ err.e_p        # (N-1, dim)
    quad = float(bar_phi @ bar_phi)
    quad += float(np.sum(np.linalg.solve(L_R, tilde_phi) * tilde_phi))
    v = 0.5 * consts.c1 * (float(np.sum(err.e_varpi ** 2)) + quad)
    v += 0.5 * float(np.sum((err.e_varpi + err.e_p) ** 2))
    return v


# --- closed loop: allocating right-hand side and integrator ----------------

def rhs_new(sys, t: float, y: np.ndarray) -> np.ndarray:
    """dy/dt of a CoupledSystem at (t, y), written into a new array."""
    return sys.rhs(t, y, np.empty(sys.total_dim))


def concatenated_rhs(sys, t: float, y: np.ndarray) -> np.ndarray:
    """dy/dt of a CoupledSystem assembled from freshly allocated parts,
    glued together in the layout order of sys.views."""
    mu = sys.clock.mu(t)
    a = sys.alpha.eval(mu)
    varpi, p, x, c = sys.views(y)
    cons = sys.net.laplacian @ varpi
    parts = [-a * (cons + sys.costs.grad_stack(varpi) + p), a * cons]
    if sys.agents is not None:
        dx = np.empty_like(x)
        dc = None if c is None else tuple(np.empty_like(v) for v in c)
        sys.agents.derivatives(t, mu, x, c, sys.references(varpi), dx, dc)
        parts += [dx, *(dc or ())]
    return np.concatenate([q.ravel() for q in parts])


def rhs_jacobian(sys, t: float, y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of sys.rhs at (t, y), column j from the
    step 1e-7 max(1, |y_j|)."""
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        dy = np.zeros(y.size)
        dy[j] = 1e-7 * max(1.0, abs(y[j]))
        jac[:, j] = ((rhs_new(sys, t, y + dy) - rhs_new(sys, t, y - dy))
                     / (2.0 * dy[j]))
    return jac


@dataclass
class System:
    """A right-hand side rhs(t, y, out) as sim_engine.integrate takes a
    closed loop: its spectral radius is kappa mu^p, and its error norm
    sums y in the order agent_major (None: as stored)."""

    rhs: object
    kappa: float = 1.0
    p: float = 1.0
    agent_major: np.ndarray | None = None

    def stiffness(self, y):
        return lambda mu: self.kappa * mu ** self.p


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk45_step(f, s, y, h, K):
    hA = h * _DP_A
    for i in range(1, 7):
        y_i = y + hA[i, :i] @ K[:i]
        f(s + _DP_C[i] * h, y_i, K[i])
    return y_i, h * (_DP_E @ K)


def integrate_allocating(rhs, y0: np.ndarray, clock: PrescribedClock,
                         settings: SolverSettings, stiffness=None,
                         step_frac: float = 1.0,
                         norm_order=None) -> Trajectory:
    """sim_engine.integrate with a right-hand side rhs(t, y) that returns a
    new array, every stage input and result a new array too.

    RK4 takes the spectral radius from stiffness(y) (a system's
    `stiffness`) and its steps step_frac times as long as integrate's:
    the same rule on a finer grid for step_frac < 1.  RK45 sums its error
    norm in the order norm_order (a system's `agent_major`; None: as
    stored)."""
    t_end = clock.t_guard
    T = clock.T

    def t_at(s):
        return min(-T * math.expm1(-s), t_end)

    def f(s, y, out):
        t = t_at(s)
        np.multiply(rhs(t, y), T - t, out=out)

    t, s = 0.0, 0.0
    s_end = -math.log1p(-t_end / T)
    y = np.asarray(y0, dtype=float).copy()
    times, states = [t], [y.copy()]
    n_steps = n_rejected = n_rhs = 0
    h = settings.dt * clock.mu0
    last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
    if settings.method == "rk45" and not last:
        K = np.empty((7, y.shape[0]))
        f(s, y, K[0])
        n_rhs = 1
    mu_fresh = 0.0
    while not last:
        if settings.method == "rk4":
            mu = clock.mu(t)
            if mu >= 2.0 * mu_fresh:
                radius, mu_fresh = stiffness(y), mu
            h = min(step_frac * min(settings.dt, _RK4_H_RHO / radius(mu)),
                    t_end - t)
            y = _rk4_step(rhs, t, y, h)
            n_rhs += 4
            t += h
            last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
        else:
            mu = clock.mu(t)
            while True:
                last = h >= s_end - s - 1e-12 * s_end
                if last:
                    h = s_end - s
                if h < 1e-14 * mu * max(1.0, abs(t)):
                    raise DptcoError(f"step underflow at t={t}")
                y_new, err = _rk45_step(f, s, y, h, K)
                n_rhs += 6
                err /= settings.abs_tol + settings.rel_tol * np.maximum(
                    np.abs(y), np.abs(y_new))
                if norm_order is not None:
                    err = err[norm_order]
                err_norm = math.sqrt((err @ err) / err.shape[0])
                if err_norm <= 1.0:
                    break
                n_rejected += 1
                h *= max(0.2, 0.9 * err_norm ** -0.2)
            s = s_end if last else s + h
            t = t_end if last else t_at(s)
            y = y_new
            K[0] = K[6]
            factor = 5.0 if err_norm == 0.0 else min(
                5.0, 0.9 * err_norm ** -0.2)
            h = max(h * factor, 1e-14)
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise DptcoError(f"non-finite state at t={t}: {bad}")
        n_steps += 1
        if n_steps % settings.log_every == 0 or last:
            times.append(t)
            states.append(y.copy())
    return Trajectory(np.array(times), np.array(states), n_steps, n_rejected,
                      n_rhs)


# --- derived channels: the row-by-row loop ----------------------------------

def derived_series_loop(build, traj, z_star) -> dict:
    """scenario.derived_series one logged row at a time: each row's views,
    mu, error norm (np.linalg.norm of the row's e_r), sums and agent
    diagnostics at that row's float mu, filled into (K, ...) arrays."""
    sys = build.sys
    n = sys.net.n_agents
    K = traj.times.shape[0]
    z_star = np.asarray(z_star, dtype=float)
    grads_at_star = gradients_at(sys.costs, z_star)
    targets = sys.references(np.tile(z_star, (n, 1)))
    out = {
        "mu": np.empty(K),
        "e_r_norm": np.empty(K),
        "p_sum": np.empty((K, sys.dim)),
        "track_err": np.empty((K, n)),
    }
    for k in range(K):
        varpi, p, x, c = sys.views(traj.states[k])
        mu = sys.clock.mu(traj.times[k])
        out["mu"][k] = mu
        out["e_r_norm"][k] = np.linalg.norm(
            error_state(varpi, p, z_star, grads_at_star).e_r)
        out["p_sum"][k] = p.sum(axis=0)
        if sys.agents is None:
            out["track_err"][k] = np.linalg.norm(varpi - z_star, axis=1)
            continue
        out["track_err"][k] = np.linalg.norm(x[0] - targets, axis=1)
        diag = sys.agents.diagnostics(mu, x, c, sys.references(varpi))
        for key, val in diag.items():
            out.setdefault(key, np.empty((K, n)))[k] = val
    return out
