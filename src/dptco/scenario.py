"""Scenario files: JSON in, a ready-to-integrate closed loop out.

A scenario has sections {clock, network, costs, gains, agents, solver,
monitors}.  Loading resolves every constant (spectrum, curvature, c1..c*,
v1/v2), checks the gain growth criteria, and refuses to build when a
criterion fails unless the scenario sets "acknowledge_criteria_override":
true.  Monitor evaluation lives here too, so the command-line layer stays a
thin shell.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import chain_ctrl, strictfb_ctrl
from .costs import CostSet, cost_from_dict, default_box
from .errors import DptcoError, ScenarioError
from .generator import (GeneratorConstants, MonitorReport,
                        check_generator_criterion, conservation_monitor,
                        envelope_monitor, error_state, generator_constants,
                        gradients_at, ratio_report)
from .graph import build_network, require_connected
from .sim_engine import (CoupledSystem, SolverSettings, Trajectory,
                         make_disturbance)
from .timegain import GainFunction, PrescribedClock, log_grid

_SECTIONS = ("clock", "network", "costs", "gains", "agents", "solver",
             "monitors")

# solver keys and their JSON-to-SolverSettings conversions
_SOLVER_KEYS = {"method": str, "dt": float, "rel_tol": float,
                "abs_tol": float,
                "log_every": lambda v: _count(v, "log_every")}

# the keys each object of the file may hold; those of gains and agents
# depend on the controller, and are not listed
_KEYS = {"top level": ("name",) + _SECTIONS,
         "clock": ("t0", "T", "guard_frac"),
         "network": ("n_agents", "edges"),
         "costs": ("dim", "box", "agents"),
         "disturbance": ("seed", "amplitude")}
_COST_KEYS = {"quadratic": ("family", "Q", "center", "offset"),
              "exp_quadratic": ("family", "P", "center")}

# agents keys of the initial state, located by column once packed into y0
_INITIAL_STATE = ("varpi_init", "p_init", "x_init", "theta_hat_init")

# agents keys that hold names, and the words that stand for a number
_AGENT_NAMES = ("controller", "plant", "phi")
_AGENT_WORDS = {"K": "auto", "p_init": "zeros"}

_PHI_REGISTRY = {
    "identity": lambda x: x,
    "sin": np.sin,
    "tanh": np.tanh,
}


def _fail(path: str, where: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}: {where}: {msg}")


@dataclass
class ScenarioBuild:
    """Everything a run needs, with provenance for the manifest; the
    clock, network, costs and gain are those of sys."""

    name: str
    path: str
    sha256: str
    sys: CoupledSystem
    y0: np.ndarray
    settings: SolverSettings
    monitors: dict
    criterion_reports: list
    constants: dict
    override_acknowledged: bool
    seed: int

    @property
    def gen_constants(self) -> GeneratorConstants:
        """The envelope constants c1..c_star of the generator."""
        c = self.constants
        return GeneratorConstants(c["c1"], c["c2"], c["c3"], c["c_star"])

    @property
    def criteria_ok(self) -> bool:
        return all(r.ok for r in self.criterion_reports)


@dataclass
class Scenario:
    """Parsed scenario file; build() resolves it into a ScenarioBuild."""

    raw: dict
    path: str

    @property
    def name(self) -> str:
        return self.raw.get("name", "unnamed")

    def build(self) -> ScenarioBuild:
        raw, path = self.raw, self.path
        for section in _SECTIONS:
            if section not in raw:
                raise _fail(path, "top level",
                            f"missing required key {section!r}")
            if not isinstance(raw[section], dict):
                raise _fail(path, section, "must be a JSON object")
        with _section(path, "top level"):
            _known_keys(raw, _KEYS["top level"])

        controller = raw["agents"].get("controller", "none")
        monitors = {}
        for name, params in raw["monitors"].items():
            with _section(path, f"monitors: {name}"):
                if name not in _MONITORS:
                    raise ValueError("unknown monitor")
                keys, needs, _ = _MONITORS[name]
                if needs not in (None, controller):
                    raise ValueError(f"needs the {needs!r} controller, not "
                                     f"{controller!r}")
                monitors[name] = {k: float(v)
                                  for k, v in (params or {}).items()}
                for k, v in monitors[name].items():
                    if k not in keys:
                        raise ValueError(f"unknown parameter {k!r}")
                    if (not np.isfinite(v) or v < 0
                            or (v == 0 and k != "slack")):
                        raise ValueError(f"{k} out of range: {v}")

        with _section(path, "clock"):
            ck = raw["clock"]
            _known_keys(ck, _KEYS["clock"])
            clock = PrescribedClock(
                t0=float(ck.get("t0", 0.0)), T=float(ck["T"]),
                guard_frac=float(ck.get("guard_frac", 0.999)))

        with _section(path, "network"):
            nw = raw["network"]
            _known_keys(nw, _KEYS["network"])
            net = build_network(_count(nw["n_agents"], "n_agents"),
                                nw["edges"])
            for k, (i, j, _) in enumerate(nw["edges"]):
                if type(i) is not int or type(j) is not int:  # JSON ints pass
                    for v in (i, j):
                        _count(v, f"edges[{k}] endpoint")
            require_connected(net)

        with _section(path, "costs"):
            cs = raw["costs"]
            _known_keys(cs, _KEYS["costs"])
            dim = _count(cs["dim"], "dim")
            agent_costs = [cost_from_dict(d) for d in cs["agents"]]
            for d in cs["agents"]:
                _cost_keys(d)
            if len(agent_costs) != net.n_agents:
                raise _fail(path, "costs", "one cost per agent required")
            costs = CostSet(agent_costs, dim, cs.get("box", default_box(dim)))

        consts = generator_constants(costs.rho_c, costs.varrho_c,
                                     net.lambda2, net.lambdaN)
        constants = {
            "lambda2": net.lambda2, "lambdaN": net.lambdaN,
            "rho_c": costs.rho_c, "varrho_c": costs.varrho_c,
            "c1": consts.c1, "c2": consts.c2, "c3": consts.c3,
            "c_star": consts.c_star,
        }

        with _section(path, "gains"):
            gains = raw["gains"]
            alpha = _gain(path, gains, "alpha")
            override = bool(gains.get("acknowledge_criteria_override", False))
            grid = log_grid(clock.mu0, clock.mu_guard)
            reports = [check_generator_criterion(alpha, consts.c_star, grid)]
            if controller == "chain":
                alpha_x = _gain(path, gains, "alpha_x")
                auto = gains.get("alpha_s", "auto_dc2") == "auto_dc2"
                alpha_s = None if auto else _gain(path, gains, "alpha_s")
            elif controller == "strict_feedback":
                alpha_xi = _gain(path, gains, "alpha_xi")

        with _section(path, "agents"):
            ag = raw["agents"]
            for key, leaf in _bad_numbers(ag, ""):
                if isinstance(leaf, (str, bool)):
                    raise ValueError(f"{key} must be a number, got {leaf!r}")
                if key not in _INITIAL_STATE:
                    raise ValueError(f"{key} must be finite")
            agents = None
            dist_seed = 0
            if controller == "chain":
                m = _count(ag["order"], "order")
                K = ag.get("K", "auto")
                chain_cfg = chain_ctrl.make_chain_config(
                    m, dim, float(ag.get("v", 1.0)), alpha_x, clock.mu_guard,
                    float(ag.get("psi", 1.0)), clock.mu0, alpha_s=alpha_s,
                    K=None if K == "auto" else K)
                constants["v1"] = chain_cfg.v1
                constants["v2"] = chain_cfg.v2
                reports.append(chain_ctrl.check_dc1(chain_cfg, alpha,
                                                    consts.c_star, grid))
                plant = ag.get("plant", "chain")
                el = None
                if plant == "euler_lagrange":
                    theta_true = tuple(ag["el_true_theta"])
                    scale = float(ag.get("el_nominal_scale", 0.9))
                    gravity = float(ag.get("gravity", 9.8))
                    el = (chain_ctrl.EulerLagrangeParams(theta_true, gravity),
                          chain_ctrl.EulerLagrangeParams(
                              tuple(scale * t for t in theta_true), gravity))
                elif plant != "chain":
                    raise _fail(path, "agents",
                                f"unknown plant kind {plant!r}")
                disturbance = None
                if "disturbance" in ag:
                    dd = ag["disturbance"]
                    with _section(path, "agents: disturbance"):
                        _known_keys(dd, _KEYS["disturbance"])
                    dist_seed = _count(dd.get("seed", 0), "disturbance.seed")
                    disturbance = make_disturbance(
                        dist_seed, net.n_agents, dim,
                        float(dd.get("amplitude", 0.1)))
                agents = chain_ctrl.ChainAgents(chain_cfg, el, disturbance)
            elif controller == "strict_feedback":
                m = _count(ag["order"], "order")
                l = float(ag.get("l", 1.0))
                if "c" in ag:
                    c = tuple(float(v) for v in ag["c"])
                    upsilon = tuple(float(v) for v in ag["upsilon"])
                    sigma = float(ag["sigma"])
                else:
                    par = strictfb_ctrl.select_parameters(
                        m, l, float(ag.get("sigma_prime", 1.0)),
                        float(ag.get("rho", 10.0)),
                        float(ag.get("margin", 1.0)))
                    c, upsilon, sigma = par.c, par.upsilon, par.sigma
                phi_ids = ag.get("phi", ["identity"] * (m - 1))
                try:
                    phis = tuple(_PHI_REGISTRY[p] for p in phi_ids)
                except KeyError as exc:
                    raise _fail(path, "agents",
                                f"unknown phi id {exc}") from exc
                sf_cfg = strictfb_ctrl.SfControllerConfig(
                    m, dim, l, c, upsilon, sigma, alpha_xi, clock.mu_guard,
                    phis)
                reports.append(strictfb_ctrl.check_dcxi(
                    alpha_xi, alpha, consts.c_star, float(sf_cfg.L[1]), grid))
                thetas = np.asarray(ag["thetas"], dtype=float)
                if thetas.shape != (net.n_agents,):
                    raise _fail(path, "agents", "one theta per agent required")
                agents = strictfb_ctrl.StrictFeedbackAgents(sf_cfg, thetas)
            elif controller != "none":
                raise _fail(path, "agents",
                            f"unknown controller {controller!r}")

        failed = [r for r in reports if not r.ok]
        if failed and not override:
            kinds = ", ".join(r.kind for r in failed)
            raise _fail(path, "gains",
                        f"growth criterion failed ({kinds}); worst margin "
                        f"{failed[0].worst_margin:.3g} at "
                        f"s={failed[0].worst_s:.4g}. Set "
                        "\"acknowledge_criteria_override\": true to run "
                        "anyway")

        with _section(path, "agents"):
            sys = CoupledSystem(clock, net, costs, alpha, agents=agents,
                                offsets=ag.get("offsets"))
            varpi0 = np.asarray(ag["varpi_init"], dtype=float)
            if varpi0.shape != (net.n_agents, dim):
                raise _fail(path, "agents", f"varpi_init must be "
                            f"{net.n_agents} x {dim}, got {varpi0.shape}")
            p_init = ag.get("p_init", "zeros")
            if p_init == "zeros":
                p0 = np.zeros((net.n_agents, dim))
            else:
                p0 = np.asarray(p_init, dtype=float)
                if float(np.abs(p0.sum(axis=0)).max()) > 1e-12:
                    raise _fail(path, "agents", "p_init must sum to zero")
            plants = ctrls = None
            if agents is not None:
                plants = ag["x_init"]
            if controller == "strict_feedback":
                # theta_hat from the scenario, filter states start at zero
                ctrls = np.zeros((net.n_agents, sf_cfg.n_ctrl))
                ctrls[:, 0] = ag.get("theta_hat_init", 0.0)
            y0 = sys.pack(varpi0, p0, plants, ctrls)
            bad = np.flatnonzero(~np.isfinite(y0))
            if bad.size:
                raise _fail(path, "agents", "non-finite initial value of "
                            f"{sys.column_names()[bad[0]]}")

        settings = _solver_settings(raw["solver"], path)
        if settings.method == "rk4" and controller == "chain":
            raise _fail(path, "solver: method",
                        "rk4 sizes its steps from the closed loop's design "
                        "spectral radius, and chain agents have none (their "
                        "stiffness drifts with the state); use rk45")

        return ScenarioBuild(self.name, path, scenario_hash(raw), sys, y0,
                             settings, monitors, reports, constants, override,
                             dist_seed)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return Scenario(raw, path)


def scenario_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _solver_settings(sv, path: str) -> SolverSettings:
    """SolverSettings from the solver section; omitted keys keep their
    defaults, and an unknown key or a bad value is a located error."""
    with _section(path, "solver"):
        _known_keys(sv, _SOLVER_KEYS)
        return SolverSettings(**{k: _SOLVER_KEYS[k](v) for k, v in sv.items()})


def _known_keys(d: dict, allowed) -> None:
    """Refuse a key of the JSON object d that allowed does not list."""
    unknown = d.keys() - set(allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(sorted(unknown))}; "
                         f"allowed: {', '.join(allowed)}")


def _count(v, what: str) -> int:
    """v as an int; a count given as a string, a bool or a fraction is an
    error."""
    if isinstance(v, bool) or not (isinstance(v, int) or (
            isinstance(v, float) and v.is_integer())):
        raise ValueError(f"{what} must be a whole number, got {v!r}")
    return int(v)


def _bad_numbers(value, key: str):
    """(key, leaf) for each string, bool, NaN or infinity in the agents
    value under key, dotted below nested objects; a name, or a word that
    stands for a number, is skipped."""
    if isinstance(value, dict):
        for k, v in value.items():
            if k not in _AGENT_NAMES and _AGENT_WORDS.get(k) != v:
                yield from _bad_numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _bad_numbers(v, key)
    elif isinstance(value, (str, bool)) or (
            isinstance(value, float) and not math.isfinite(value)):
        yield key, value


def _cost_keys(d) -> None:
    """Refuse an unknown key in a cost or, for a list, in each term."""
    if isinstance(d, list):
        for term in d:
            _cost_keys(term)
    else:
        _known_keys(d, _COST_KEYS[d["family"]])


def _gain(path: str, gains: dict, key: str) -> GainFunction:
    """gains[key]; any error but a missing key is located under the key."""
    try:
        gain = GainFunction.from_dict(gains[key])
        _gain_keys(gains[key])
        return gain
    except (DptcoError, TypeError, ValueError) as exc:
        raise _fail(path, f"gains: {key}", str(exc)) from exc


def _gain_keys(d: dict) -> None:
    """Refuse an unknown key in a gain object or in a dc2 gain's base."""
    dc2 = d["family"] == "dc2"
    _known_keys(d, ("family", "params") + ("base",) * dc2)
    if dc2:
        _gain_keys(d["base"])


@contextmanager
def _section(path: str, where: str):
    """Report a missing key or a malformed value met while reading one
    section as a ScenarioError that names the file and the section."""
    try:
        yield
    except ScenarioError:
        raise
    except KeyError as exc:
        raise _fail(path, where,
                    f"missing required key {exc.args[0]!r}") from exc
    except (AttributeError, DptcoError, IndexError, TypeError,
            ValueError) as exc:
        raise _fail(path, where, str(exc)) from exc


# --- derived channels and monitor evaluation --------------------------------

def derived_series(build: ScenarioBuild, traj: Trajectory,
                   z_star: np.ndarray) -> dict:
    """Per-logged-point verification channels.

    Always: mu, e_r_norm, p_sum (K, dim), track_err (K, N).  Agent models
    add their diagnostic channels as (K, N) arrays: e_s_norm / e_tilde_norm
    for chain plants; strict-feedback adds theta_hat, tau, stage norms and
    the scaled error norm.  The run CSV lists the channels in this order.
    """
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
        out["e_r_norm"][k] = error_state(varpi, p, z_star, grads_at_star).norm
        out["p_sum"][k] = p.sum(axis=0)
        if sys.agents is None:
            out["track_err"][k] = np.linalg.norm(varpi - z_star, axis=1)
            continue
        out["track_err"][k] = np.linalg.norm(x[0] - targets, axis=1)
        diag = sys.agents.diagnostics(mu, x, c, sys.references(varpi))
        for key, val in diag.items():
            out.setdefault(key, np.empty((K, n)))[k] = val
    return out


def _tracking(build, times, d, params) -> MonitorReport:
    """Endpoint distance to the optimum over tol; every earlier row reads 0."""
    ratio = np.zeros_like(d["track_err"])
    ratio[-1] = d["track_err"][-1] / params.get("tol", 1e-2)
    return ratio_report("tracking", times, ratio, 1.0)


# monitor name -> (the numeric parameters it reads, the controller whose
# channels it reads or None, its report from the build, the logged times,
# the derived channels and those parameters)
_MONITORS = {
    "conservation": (("tol",), None, lambda b, t, d, p: conservation_monitor(
        t, d["p_sum"], **p)),
    "envelope": (("slack",), None, lambda b, t, d, p: envelope_monitor(
        t, d["e_r_norm"], b.sys.clock, b.sys.alpha, b.gen_constants, **p)),
    "tracking": (("tol",), None, _tracking),
    "chain_decay": ((), "chain", lambda b, t, d, p:
                    chain_ctrl.chain_decay_monitor(
                        t, d["e_s_norm"], d["e_tilde_norm"], b.sys.agents.cfg,
                        b.sys.clock)),
    # default radius: twice each agent's initial scaled error, plus 1
    "invariant_set": (("h", "slack"), "strict_feedback",
                      lambda b, t, d, p: strictfb_ctrl.invariant_set_monitor(
                          t, d["e_tilde_norm"],
                          **{"h": 2.0 * d["e_tilde_norm"][0] + 1.0, **p})),
    "sf_decay": ((), "strict_feedback", lambda b, t, d, p:
                 strictfb_ctrl.sf_decay_monitor(
                     t, d["mu"], d["e_s_norm"], b.sys.agents.cfg)),
    "theta_hat_envelope": ((), "strict_feedback", lambda b, t, d, p:
                           strictfb_ctrl.theta_hat_monitor(
                               t, d["mu"], d["theta_hat"], d["tau"],
                               b.sys.agents.cfg)),
}


def evaluate_monitors(build: ScenarioBuild, traj: Trajectory,
                      derived: dict) -> list:
    """Run every monitor the scenario lists on traj's derived channels."""
    return [_MONITORS[name][2](build, traj.times, derived, params)
            for name, params in build.monitors.items()]
