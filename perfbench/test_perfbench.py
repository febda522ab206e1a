"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 6]
    for t, op, name in [(0, "enter", "a"), (1, "enter", "b"),
                        (2, "enter", "c"), (3, "exit", None),
                        (4, "exit", None), (5, "enter", "c"),
                        (6, "exit", None), (10, "exit", None)]:
        clock.now = t
        tr.enter(name) if op == "enter" else tr.exit()
    spans = tr.summary()["spans"]
    assert spans["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert spans["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert spans["c"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_reentered_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    for t, name in [(0, "f"), (1, "f")]:
        clock.now = t
        tr.enter(name)
    for t in (3, 7):
        clock.now = t
        tr.exit()
    assert tr.summary()["spans"]["f"] == {"calls": 2, "s": 7.0,
                                          "self_s": 7.0}


def test_threads_keep_separate_stacks():
    tr = Tracer()
    outer = tr.wrap("outer", lambda: None)
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait(timeout=10)
        outer()

    tr.enter("main")
    th = threading.Thread(target=worker)
    th.start()
    barrier.wait(timeout=10)
    th.join(timeout=10)
    assert not th.is_alive()
    tr.exit()
    spans = tr.summary()["spans"]
    # the worker's span has no parent, so main's self time is its duration
    assert spans["main"]["self_s"] == spans["main"]["s"]
    assert spans["outer"]["calls"] == 1


def _bindings():
    """Every function-valued attribute of dptco's modules and the traced
    methods, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "dptco" or name.startswith("dptco."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    from dptco.costs import CostSet
    from dptco.scenario import Scenario
    from dptco.sim_engine import CoupledSystem
    for cls, attr in ((CoupledSystem, "rhs"), (CostSet, "grad_stack"),
                      (Scenario, "build")):
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def test_traced_run_records_spans_and_restores_originals(tmp_path, capsys):
    import dptco.cli  # noqa: F401

    before = _bindings()
    ring = ROOT / workloads.SCENARIO_DIR / "ring.json"
    stats = tmp_path / "stats.json"
    assert child.trace(str(stats), ["optimum", str(ring)]) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    spans = run._load_stats(tmp_path)["spans"]
    # scenario.py calls build_network through its own `from .graph import`
    # binding; the span shows that binding was traced too
    assert spans["graph.build_network"]["calls"] == 1
    assert spans["scenario.Scenario.build"]["calls"] == 1
    assert spans["costs.optimum_oracle"]["calls"] == 1
    assert spans["cli.main"]["s"] >= spans["scenario.Scenario.build"]["s"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_in_their_seed(tmp_path, name):
    def files(seed, sub):
        wl = workloads.generate(name, seed, ROOT, tmp_path / sub)
        return [p.read_bytes() for p in wl.scenarios]

    assert files(5, "a") == files(5, "b")
    if name != "strictfb_adaptive":  # example2 has no random input
        assert files(5, "a") != files(6, "c")


def test_network_large_graph_is_connected_with_matching_lambda2(tmp_path):
    from dptco.graph import build_network, require_connected

    sc = workloads.network_large(ROOT, 3)
    n, edges = sc["network"]["n_agents"], sc["network"]["edges"]
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    lambda2 = np.linalg.eigvalsh(lap)[1]
    net = build_network(n, edges)
    require_connected(net)
    assert lambda2 > 0.5
    assert net.lambda2 == pytest.approx(lambda2, rel=1e-9)


@pytest.mark.parametrize("name", ["network_large", "deadline_sweep"])
def test_generated_scenarios_build_without_override(tmp_path, name):
    from dptco.scenario import load_scenario

    wl = workloads.generate(name, 9, ROOT, tmp_path)
    for path in wl.scenarios:
        sc = load_scenario(str(path))
        assert "acknowledge_criteria_override" not in sc.raw["gains"]
        assert sc.build().criteria_ok


def test_gate_helpers_read_run_outputs():
    csv = (b"t,mu,derived.track_err0,derived.track_err1\n"
           b"0,1,3,4\n0.5,2,0.002,0.004\n")
    assert run.final_tracking_error(csv) == 0.004
    text = ("monitor conservation: pass (max_ratio=1e-07)\n"
            "monitor tracking: FAIL (max_ratio=2, first violation t=0.9)\n")
    assert run.parse_verdicts(text) == {"conservation": True,
                                        "tracking": False}


def test_times_scale_to_reference_speed():
    ref = child.REFERENCE_S
    assert run.at_reference_speed(3.0, [ref, ref]) == pytest.approx(3.0)
    # on a host at half speed the loop and the work both take twice as long
    assert run.at_reference_speed(6.0, [1.5 * ref, 2.5 * ref]) == (
        pytest.approx(3.0))
