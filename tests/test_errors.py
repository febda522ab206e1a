"""The library reports every failure as a DptcoError, and a scenario file's
as a ScenarioError; both survive a pickle round trip, as they must to cross
a process boundary.  No other error type may grow back in src/ unless a
caller there catches it."""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from dptco.chain_ctrl import chain_control, solve_lyapunov
from dptco.costs import CostSet, optimum_oracle
from dptco.errors import DptcoError, ScenarioError
from dptco.generator import ratio_report
from dptco.graph import build_network, require_connected
from dptco.scenario import load_scenario
from dptco.sim_engine import export_csv, integrate
from dptco.strictfb_ctrl import SfControllerConfig
from dptco.timegain import GainFunction, PrescribedClock, _adaptive_simpson

from oracles import System, chain_config, default_box, quad, solver_settings

SRC = Path(__file__).resolve().parent.parent / "src" / "dptco"


def _guard(tmp, mp):
    cfg = chain_config(2, 1, 6.0, GainFunction("linear", (1.0,)), 10.0)
    chain_control(np.ones((2, 1)), np.zeros(1), 11.0, cfg)


def _newton(tmp, mp):
    mp.setattr("dptco.costs._NEWTON_MAX_ITER", 0)
    optimum_oracle(CostSet([quad(np.eye(1), [1.0])], 1, default_box(1)))


def _nan_rhs(t, y, out):
    out[:] = math.nan


# one raise site of each kind of failure, labelled by its kind and called
# with tmp_path and monkeypatch
SITES = {
    "TimeOutOfWindow": lambda tmp, mp: PrescribedClock(1.0, 0.9).mu(1.0),
    "QuadratureFailure": lambda tmp, mp: _adaptive_simpson(
        lambda x: math.nan, 1.0, 2.0),
    "SelfLoop": lambda tmp, mp: build_network(2, [[0, 0, 1.0]]),
    "NegativeWeight": lambda tmp, mp: build_network(2, [[0, 1, -1.0]]),
    "Disconnected": lambda tmp, mp: require_connected(
        build_network(3, [[0, 1, 1.0]] * 2)),
    "DimensionMismatch": lambda tmp, mp: CostSet([quad(np.eye(2), [0.0])], 1,
                                                 default_box(1)),
    "NonPositiveInput": lambda tmp, mp: PrescribedClock(0.0, 0.9),
    "NoConvergence": _newton,
    "NotHurwitz": lambda tmp, mp: solve_lyapunov(np.eye(2), np.eye(2)),
    "SingularSystem": lambda tmp, mp: solve_lyapunov(-np.eye(2), -np.eye(2)),
    "GuardExceeded": _guard,
    "EmptyTrajectory": lambda tmp, mp: ratio_report(
        "m", np.zeros(1), np.zeros((1, 1)), 1.0),
    "SigmaTooSmall": lambda tmp, mp: SfControllerConfig(
        2, 1, (2.0, 2.0), (3.0,), 1.5, GainFunction("linear", (1.0,)), 10.0,
        (abs,)),
    "NonFiniteState": lambda tmp, mp: integrate(
        System(_nan_rhs), np.ones(1), PrescribedClock(1.0, 0.9),
        solver_settings(method="rk4", dt=0.05)),
    "StepUnderflow": lambda tmp, mp: integrate(
        System(_nan_rhs), np.ones(1), PrescribedClock(1.0, 0.9),
        solver_settings(method="rk45", dt=1e-3)),
    "IoFailure": lambda tmp, mp: export_csv(str(tmp / "no" / "x.csv"),
                                            {"a": [1.0]}),
    "ScenarioError": lambda tmp, mp: load_scenario(str(tmp / "no.json")),
}


@pytest.mark.parametrize("kind", sorted(SITES))
def test_pickle_round_trip(kind, tmp_path, monkeypatch):
    with pytest.raises(DptcoError) as info:
        with np.errstate(invalid="ignore"):
            SITES[kind](tmp_path, monkeypatch)
    exc = info.value
    assert type(exc) is (ScenarioError if kind == "ScenarioError"
                         else DptcoError)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_every_error_subclass_is_caught_in_src():
    # a DptcoError subclass is worth its own type only if a caller in src/
    # catches it; one that only tests tell apart is a message instead
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    bases = {}
    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases
                                    if isinstance(b, ast.Name)]
            elif isinstance(node, ast.ExceptHandler) and node.type:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    subclasses = set()
    grew = True
    while grew:
        found = {name for name, bs in bases.items()
                 if set(bs) & (subclasses | {"DptcoError"})}
        grew = found != subclasses
        subclasses = found
    assert "ScenarioError" in subclasses
    assert subclasses <= caught, sorted(subclasses - caught)
