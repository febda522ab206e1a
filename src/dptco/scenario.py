"""Scenario files: JSON in, a ready-to-integrate closed loop out.

One key table lists every key a file may hold, and one reader checks the
file against it.  Loading then resolves every constant (spectrum,
curvature, c1..c*, v1/v2) and checks the gain growth criteria, refusing a
failing one unless "acknowledge_criteria_override" is true.  Monitor
evaluation lives here too, so the command-line layer stays a thin shell.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import chain_ctrl, strictfb_ctrl
from .costs import CostSet
from .errors import DptcoError, ScenarioError
from .generator import (GeneratorConstants, MonitorReport,
                        check_generator_criterion, conservation_monitor,
                        envelope_monitor, error_state, generator_constants,
                        gradients_at, ratio_report)
from .graph import build_network, require_connected
from .sim_engine import (CoupledSystem, SolverSettings, Trajectory,
                         make_disturbance)
from .timegain import GainFunction, PrescribedClock, log_grid

try:
    # hashlib loads OpenSSL's libcrypto (about 3.6 MiB per process) for one
    # digest; CPython's own SHA-256 module gives the same bytes
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_PHI_REGISTRY = {"identity": lambda x: x, "sin": np.sin, "tanh": np.tanh}

# --- the key table -----------------------------------------------------------
# Each key a scenario file may hold, as key: (kind, default); _value reads
# each kind.  A _REQUIRED key must be given; a default stays only where a
# shipped scenario leaves its key out.  A tag's name adds its table of
# keys to its object's.  An error is located at its section, and in an
# object also at its key ("gains: alpha").  Numbers outside agents and
# monitors may be NaN here, for their constructors to refuse.
_REQUIRED = "required"
_NUMBER, _FINITE, _COUNT = ("number",), ("finite",), ("count",)
_NUMBERS, _FINITES = ("numbers",), ("finites",)

_PARAMS = {"params": (_NUMBERS, _REQUIRED)}
_DC2 = dict(_PARAMS)
_GAIN = ("object", {"family": (("tag", "gain family", {
    "linear": _PARAMS, "power": _PARAMS, "log": _PARAMS, "exp": _PARAMS,
    "dc2": _DC2}), _REQUIRED)})
_DC2["base"] = (_GAIN, _REQUIRED)

_TERM = {"family": (("tag", "cost family", {
    "quadratic": {"Q": (_NUMBERS, _REQUIRED), "center": (_NUMBERS, _REQUIRED),
                  "offset": (_NUMBER, 0.0)},
    "exp_quadratic": {"P": (_NUMBERS, _REQUIRED),
                      "center": (_NUMBERS, _REQUIRED)}}), _REQUIRED)}

_MODEL = {"order": (_COUNT, _REQUIRED), "x_init": (_NUMBERS, _REQUIRED),
          "offsets": (_FINITES, None)}
_CONTROLLERS = {
    "none": {},
    "chain": {**_MODEL, "v": (_FINITE, _REQUIRED), "K": (_FINITES, _REQUIRED),
              "plant": (("tag", "plant kind", {"chain": {}, "euler_lagrange": {
                  "el_true_theta": (_FINITES, _REQUIRED)}}), _REQUIRED),
              "disturbance": (("object", {"seed": (_COUNT, _REQUIRED)}),
                              _REQUIRED)},
    "strict_feedback": {
        **_MODEL, "c": (_FINITES, _REQUIRED),
        "upsilon": (_FINITES, _REQUIRED), "sigma": (_FINITE, _REQUIRED),
        "phi": (("names", "phi id", tuple(_PHI_REGISTRY)), _REQUIRED),
        "thetas": (_FINITES, _REQUIRED),
        "theta_hat_init": (_NUMBERS, _REQUIRED)},
}

_TABLE = {
    "top level": {"name": (("text", "a string"), _REQUIRED), **dict.fromkeys(
        ("clock", "network", "costs", "gains", "agents", "solver",
         "monitors"), (("section",), _REQUIRED))},
    "clock": {"T": (_NUMBER, _REQUIRED), "guard_frac": (_NUMBER, 0.999)},
    "network": {"n_agents": (_COUNT, _REQUIRED),
                "edges": (_NUMBERS, _REQUIRED)},
    "costs": {"dim": (_COUNT, _REQUIRED), "box": (_NUMBERS, _REQUIRED),
              "agents": (("costs",), _REQUIRED)},
    # and each controller's gains, in _GAINS
    "gains": {"alpha": (_GAIN, _REQUIRED), "acknowledge_criteria_override": (
        ("bool", "true or false"), False)},
    "agents": {"controller": (("tag", "controller", _CONTROLLERS), "none"),
               "varpi_init": (_NUMBERS, _REQUIRED)},
    "solver": {"method": (("text", "a string"), "rk45"),
               "rel_tol": (_NUMBER, 1e-8),
               "abs_tol": (_NUMBER, 1e-10), "log_every": (_COUNT, _REQUIRED)},
    # and "monitors", each monitor's keys, from _MONITORS
}
_GAINS = {"none": {},
          "chain": {"alpha_x": (_GAIN, _REQUIRED),
                    "alpha_s": (_GAIN, _REQUIRED)},
          "strict_feedback": {"alpha_xi": (_GAIN, _REQUIRED)}}

# RK4's step cap, h = min(_DT, 1.39 / rho(mu), t_guard - t), and RK45's
# first step.  It stays because it, not the design radius rho(mu), keeps
# RK4 stable: rho(mu) is the linearization at zero error with theta =
# theta_hat = 0, and on example2 the true Jacobian's spectral radius is up
# to 10 times larger until mu nears 5.  At a cap of 0.005 its guard-0.99
# run diverges at t = 0.245.
_DT = 1e-3


def _fail(path: str, where: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}: {where}: {msg}")


@dataclass
class ScenarioBuild:
    """Everything a run needs, with provenance for the manifest; the
    clock, network, costs and gain are those of sys."""

    name: str
    path: str
    sys: CoupledSystem
    y0: np.ndarray
    settings: SolverSettings
    monitors: dict
    criterion_reports: list
    constants: dict
    gen_constants: GeneratorConstants  # c1..c_star of constants
    override_acknowledged: bool
    seed: int

    @property
    def criteria_ok(self) -> bool:
        return all(r.ok for r in self.criterion_reports)


@dataclass
class Scenario:
    """Parsed scenario file; build() resolves it into a ScenarioBuild."""

    raw: dict
    path: str

    def build(self) -> ScenarioBuild:
        raw, path = self.raw, self.path
        read = {}  # each section, read against its table
        for s in ("top level", "agents", "clock", "network", "costs",
                  "solver", "monitors", "gains"):
            table = _TABLE[s] if s != "gains" else {
                **_TABLE[s], **_GAINS[read["agents"]["controller"]]}
            with _section(path, s):
                if s == "monitors" and type(raw[s]) is dict:
                    # another controller's monitor, before its keys
                    _require_controller(path, raw[s],
                                        read["agents"]["controller"])
                read[s] = _read(path, s, raw if s == "top level" else raw[s],
                                table)
        ag, cs, gains = read["agents"], read["costs"], read["gains"]
        controller = ag["controller"]
        # the monitors the file lists, in its order
        monitors = {m: read["monitors"][m] for m in raw["monitors"]}

        with _section(path, "clock"):
            clock = PrescribedClock(**read["clock"])

        with _section(path, "network"):
            net = build_network(**read["network"])
            require_connected(net)

        with _section(path, "costs"):
            dim = cs["dim"]
            if len(cs["agents"]) != net.n_agents:
                raise ValueError("one cost per agent required")
            costs = CostSet(cs["agents"], dim, cs["box"])
            consts = generator_constants(costs.rho_c, costs.varrho_c,
                                         net.lambda2, net.lambdaN)

        constants = {"lambda2": net.lambda2, "lambdaN": net.lambdaN,
                     "rho_c": costs.rho_c, "varrho_c": costs.varrho_c,
                     **vars(consts)}

        alpha = gains["alpha"]
        with _section(path, "gains"):
            grid = log_grid(clock.mu0, clock.mu_guard)
            reports = [check_generator_criterion(alpha, consts.c_star, grid)]

        with _section(path, "agents"):
            agents, dist_seed = None, 0
            if controller == "chain":
                chain_cfg = chain_ctrl.make_chain_config(
                    ag["order"], dim, ag["v"], gains["alpha_x"],
                    clock.mu_guard, gains["alpha_s"], ag["K"])
                constants.update(v1=chain_cfg.v1, v2=chain_cfg.v2)
                reports.append(chain_ctrl.check_dc1(chain_cfg, alpha,
                                                    consts.c_star, grid))
                dist_seed = ag["disturbance"]["seed"]
                # el_true_theta is read for the euler_lagrange plant only
                agents = chain_ctrl.ChainAgents(
                    chain_cfg, ag.get("el_true_theta"),
                    make_disturbance(dist_seed, net.n_agents, dim))
            elif controller == "strict_feedback":
                m = ag["order"]
                phis = tuple(_PHI_REGISTRY[p] for p in ag["phi"])
                sf_cfg = strictfb_ctrl.SfControllerConfig(
                    m, dim, tuple(map(float, ag["c"])),
                    tuple(map(float, ag["upsilon"])), ag["sigma"],
                    gains["alpha_xi"], clock.mu_guard, phis)
                reports.append(strictfb_ctrl.check_dcxi(
                    gains["alpha_xi"], alpha, consts.c_star,
                    float(sf_cfg.L[1]), grid))
                thetas = np.asarray(ag["thetas"], dtype=float)
                if thetas.shape != (net.n_agents,):
                    raise ValueError("one theta per agent required")
                agents = strictfb_ctrl.StrictFeedbackAgents(sf_cfg, thetas)

        override = gains["acknowledge_criteria_override"]
        failed = [r for r in reports if not r.ok]
        if failed and not override:
            kinds = ", ".join(r.kind for r in failed)
            raise _fail(path, "gains", f"growth criterion failed ({kinds}); "
                        f"worst margin {failed[0].worst_margin:.3g} at "
                        f"s={failed[0].worst_s:.4g}. Set "
                        '"acknowledge_criteria_override": true to run anyway')

        with _section(path, "agents"):
            sys = CoupledSystem(clock, net, costs, alpha, agents=agents,
                                offsets=None if agents is None
                                else ag["offsets"])
            varpi0 = np.asarray(ag["varpi_init"], dtype=float)
            if varpi0.shape != (net.n_agents, dim):
                raise ValueError(f"varpi_init must be {net.n_agents} x {dim}, "
                                 f"got {varpi0.shape}")
            plants = None if agents is None else ag["x_init"]
            ctrls = None
            if controller == "strict_feedback":
                # theta_hat from the scenario, filter states start at zero
                ctrls = np.zeros((net.n_agents, sf_cfg.n_ctrl))
                ctrls[:, 0] = ag["theta_hat_init"]
            # p starts at zero, so its sum is conserved at zero
            y0 = sys.pack(varpi0, np.zeros_like(varpi0), plants, ctrls)
            bad = np.flatnonzero(~np.isfinite(y0))
            if bad.size:
                raise ValueError("non-finite initial value of "
                                 f"{sys.column_names()[bad[0]]}")
            if agents is not None:
                # the agents' dynamics at y0 and one Euler step of the cap
                # _DT on: a plant that overflows within its first step is
                # refused here, not by the integrator's step-size underflow
                with np.errstate(all="ignore"):
                    dy0 = _agent_derivatives(sys, y0)
                    dy1 = _agent_derivatives(sys, y0 + _DT * dy0)
                bad = np.flatnonzero(~(np.isfinite(dy0) & np.isfinite(dy1)))
                if bad.size:
                    raise ValueError(
                        f"the derivative of {sys.column_names()[bad[0]]} is "
                        f"not finite within the first step of {_DT:g}")

        with _section(path, "solver"):
            settings = SolverSettings(dt=_DT, **read["solver"])
        if settings.method == "rk4" and controller == "chain":
            raise _fail(path, "solver: method",
                        "rk4 sizes its steps from the closed loop's design "
                        "spectral radius, and chain agents have none (their "
                        "stiffness drifts with the state); use rk45")

        return ScenarioBuild(read["top level"]["name"], path, sys, y0,
                             settings, monitors, reports, constants, consts,
                             override, dist_seed)


def _agent_derivatives(sys: CoupledSystem, y: np.ndarray) -> np.ndarray:
    """The agents' blocks of dy/dt at t = 0 and state y; zero elsewhere."""
    dy = np.zeros_like(y)
    varpi, _, x, c = sys.views(y)
    _, _, dx, dc = sys.views(dy)
    sys.agents.derivatives(0.0, sys.clock.mu0, x, c, sys.references(varpi),
                           dx, dc)
    return dy


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return Scenario(raw, path)


def scenario_hash(raw: dict) -> str:
    """SHA-256 of the scenario's canonical JSON (sorted keys, no spaces),
    the manifest's scenario_sha256."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


# --- the reader --------------------------------------------------------------

def _read(path: str, where: str, obj, table: dict) -> dict:
    """obj read against table, each key as its kind and defaults filled in;
    a bad or unknown key raises, for the caller's _section to locate."""
    if type(obj) is not dict:
        raise ValueError("must be a JSON object")
    out, tables = {}, [table]
    for t in tables:  # a tag's table of keys joins the list
        for key, (kind, default) in t.items():
            if key in obj:
                out[key] = _value(path, where, key, obj[key], kind)
            elif default is _REQUIRED:
                raise KeyError(key)
            else:
                out[key] = default
            if kind[0] == "tag":
                tables.append(kind[2][out[key]])
    if not out.keys() >= obj.keys():
        unknown = ", ".join(sorted(obj.keys() - out.keys()))
        raise ValueError(f"unknown key(s) {unknown}; allowed: "
                         f"{', '.join(out) or 'none'}")
    return out


def _value(path: str, where: str, key: str, v, kind):
    """v, the value of key in the object at where, read as kind."""
    name = kind[0]
    if name == "numbers" or name == "finites":
        if not _numbers(v):
            while type(v) is list:  # down to the leaf _numbers refuses
                v = next(x for x in v if not _numbers(x))
            raise ValueError(f"{key} must be a number, got {v!r}")
        if name == "finites" and not np.isfinite(np.asarray(v, float)).all():
            raise ValueError(f"{key} must be finite")
        return v
    if name == "tag" or name == "names":  # names: a list of them
        for x in v if name == "names" else (v,):
            if type(x) is not str or x not in kind[2]:
                raise ValueError(f"unknown {kind[1]} {x!r}")
        return v
    if name in ("number", "finite", "limit"):
        if type(v) is not float and (type(v) is not int or abs(v) > 1e308):
            raise ValueError(f"{key} must be a number, got {v!r}")
        if name == "finite" and not math.isfinite(v):
            raise ValueError(f"{key} must be finite")
        if name == "limit" and not (math.isfinite(v) and v > 0):
            raise ValueError(f"{key} out of range: {float(v)}")
        return float(v)
    if name == "count":
        if type(v) is int or (type(v) is float and v.is_integer()):
            return int(v)
        raise ValueError(f"{key} must be a whole number, got {v!r}")
    if name == "bool" or name == "text":
        if type(v) is not (bool if name == "bool" else str):
            raise ValueError(f"{key} must be {kind[1]}, got {v!r}")
        return v
    if name == "object":
        with _section(path, f"{where}: {key}"):
            out = _read(path, f"{where}: {key}", v, kind[1])
            return GainFunction.from_dict(v) if kind[1] is _GAIN[1] else out
    if name == "section":  # read on its own
        return v
    # costs: per agent a term, or a list of terms (their sum), for CostSet
    if type(v) is not list:
        raise ValueError(f"{key} must be a list, got {v!r}")
    return [[_read(path, where, t, _TERM) for t in c] if type(c) is list
            else _read(path, where, c, _TERM) for c in v]


def _numbers(v) -> bool:
    """Whether v is a number, or nested lists of them."""
    if type(v) is not list:
        return type(v) is float or type(v) is int
    types = set(map(type, v))  # a level at C speed
    while types == {list}:  # lists only: the next level, all at once
        v = list(chain.from_iterable(v))
        types = set(map(type, v))
    return types <= {float, int} or (list in types and all(map(_numbers, v)))


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
    except (AttributeError, DptcoError, IndexError, OverflowError, TypeError,
            ValueError) as exc:
        raise _fail(path, where, str(exc)) from exc


# --- derived channels and monitor evaluation --------------------------------

def derived_series(build: ScenarioBuild, traj: Trajectory,
                   z_star: np.ndarray) -> dict:
    """Per-logged-point verification channels, taken on all K logged rows
    at once.

    Always: mu, e_r_norm, p_sum (K, dim), track_err (K, N).  Agent models
    add their diagnostic channels as (K, N) arrays: e_s_norm / e_tilde_norm
    for chain plants; strict-feedback adds theta_hat, tau, stage norms and
    the scaled error norm.  The run CSV lists the channels in this order.
    Each entry is rounded as it is for its row alone.
    """
    sys = build.sys
    z_star = np.asarray(z_star, dtype=float)
    varpi, p, x, c = sys.views(traj.states)
    mu = sys.clock.mu(traj.times)
    out = {
        "mu": mu,
        "e_r_norm": error_state(varpi, p, z_star,
                                gradients_at(sys.costs, z_star)).norm,
        "p_sum": p.sum(axis=-2),
    }
    if sys.agents is None:
        out["track_err"] = np.linalg.norm(varpi - z_star, axis=-1)
        return out
    n = sys.net.n_agents
    out["track_err"] = np.linalg.norm(
        x[0] - sys.references(np.tile(z_star, (n, 1))), axis=-1)
    out.update(sys.agents.diagnostics(mu, x, c, sys.references(varpi)))
    return out


def _tracking(build, times, d, params) -> MonitorReport:
    """Endpoint distance to the optimum over tol; every earlier row reads 0."""
    ratio = np.zeros_like(d["track_err"])
    ratio[-1] = d["track_err"][-1] / params["tol"]
    return ratio_report("tracking", times, ratio, 1.0)


# monitor -> (its key table, the controller whose channels it reads or
# None, its report from the build, logged times, channels and keys read)
_TOL = ("limit",)
_MONITORS = {
    "conservation": ({}, None, lambda b, t, d, p:
                     conservation_monitor(t, d["p_sum"])),
    "envelope": ({}, None, lambda b, t, d, p:
                 envelope_monitor(t, d["e_r_norm"], b.sys.clock, b.sys.alpha,
                                  b.gen_constants)),
    "tracking": ({"tol": (_TOL, 1e-2)}, None, _tracking),
    "chain_decay": ({}, "chain", lambda b, t, d, p:
                    chain_ctrl.chain_decay_monitor(
                        t, d["e_s_norm"], d["e_tilde_norm"], b.sys.agents.cfg,
                        b.sys.clock)),
    "invariant_set": ({"h": (_TOL, _REQUIRED)}, "strict_feedback",
                      lambda b, t, d, p: strictfb_ctrl.invariant_set_monitor(
                          t, d["e_tilde_norm"], p["h"])),
    "sf_decay": ({}, "strict_feedback", lambda b, t, d, p:
                 strictfb_ctrl.sf_decay_monitor(
                     t, d["mu"], d["e_s_norm"], b.sys.agents.cfg)),
    "theta_hat_envelope": ({}, "strict_feedback", lambda b, t, d, p:
                           strictfb_ctrl.theta_hat_monitor(
                               t, d["mu"], d["theta_hat"], d["tau"],
                               b.sys.agents.cfg)),
}
# the generator's monitors are required; a controller's monitor that the
# file leaves out reads None, and is not run
_TABLE["monitors"] = {m: (("object", keys), None if needs else _REQUIRED)
                      for m, (keys, needs, _) in _MONITORS.items()}


def _require_controller(path: str, listed: dict, controller: str):
    """Refuse a listed monitor that reads another controller's channels;
    an unknown name is left for the reader to refuse."""
    for m in listed:
        needs = _MONITORS[m][1] if m in _MONITORS else None
        if needs not in (None, controller):
            raise _fail(path, f"monitors: {m}", f"needs the {needs!r} "
                        f"controller, not {controller!r}")


def evaluate_monitors(build: ScenarioBuild, traj: Trajectory,
                      derived: dict) -> list:
    """Run every monitor the scenario lists on traj's derived channels."""
    return [_MONITORS[name][2](build, traj.times, derived, params)
            for name, params in build.monitors.items()]
