"""Benchmark steps that must run in a fresh interpreter.

    python child.py setup <scenario.json>...
        Import dptco, then time load_scenario(path).build() once per file,
        between two runs of the reference loop.  Prints one JSON line:
        {"setup_s": [...], "numpy": <version>, "reference_s": [before,
        after]}.  Exits 1 if a scenario does not build.

    python child.py timed <threads> <dptco arguments>...
        Run one dptco command between two runs of the reference loop on
        <threads> threads (as many as the command runs at once), print
        {"reference_s": [before, after]} as the last line and exit with the
        command's exit code.

    python child.py trace <stats.json> <dptco arguments>...
        Run one dptco command with every layer wrapped in spans, restore
        the originals, write the span summary to stats.json and exit with
        the command's exit code.

dptco must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

from tracer import Tracer

LAYERS = ("timegain", "graph", "costs", "generator", "chain_ctrl",
          "strictfb_ctrl", "sim_engine", "scenario", "svgplot", "cli")

# Size of the reference loop, and about its median time on the machine of
# METRICS.md.  The benchmark reports times scaled to a host that runs the
# loop in REFERENCE_S (run.at_reference_speed).
REFERENCE_ITERS = 25_000
REFERENCE_SLICES = 10
REFERENCE_S = 0.25

# RHS evaluations at or after this share of the integrated span count as
# the tail of the window.
TAIL_START = 0.99


def _count_steps(args, traj, counters):
    counters["sim_engine.steps"] += traj.n_steps
    counters["sim_engine.rejected"] += traj.n_rejected


def _count_newton(args, cert, counters):
    counters["costs.newton_iters"] += cert.iterations


def _count_tail(args, dy, counters):
    system, t = args[0], args[1]
    clock = system.clock
    if t >= clock.t0 + TAIL_START * (clock.t_guard - clock.t0):
        counters["sim_engine.rhs.tail"] += 1


OBSERVERS = {
    "sim_engine.integrate": _count_steps,
    "costs.optimum_oracle": _count_newton,
    "sim_engine.CoupledSystem.rhs": _count_tail,
}


def reference_loop(threads: int = 1) -> float:
    """Seconds this process takes for a fixed mix of interpreter work and
    operations on small numpy arrays, the kind of work dptco does.

    With threads > 1 the loop is split between that many threads run at
    once, which contend for the GIL on every core as a threaded dptco sweep
    does, and the result is their mean time.
    """
    if threads == 1:
        return _loop_share(REFERENCE_ITERS)
    times = []
    workers = [threading.Thread(target=lambda: times.append(
        _loop_share(REFERENCE_ITERS // threads))) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return statistics.mean(times)


def _loop_share(iters: int) -> float:
    """Time of iters iterations of the reference loop, run in
    REFERENCE_SLICES slices: the median slice time times their number, so
    that one stall of the process does not count as a slow host."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 12)
    counts = {}
    acc = 0.0
    slices = []
    for _ in range(REFERENCE_SLICES):
        t0 = time.perf_counter()
        for i in range(iters // REFERENCE_SLICES):
            y = 0.5 * x + np.sin(x)
            x = y - 0.1 * x
            acc += float(y.sum())
            for j in range(20):
                counts[j] = counts.get(j, 0) + j * i
            acc += sum(v % 7 for v in counts.values())
        slices.append(time.perf_counter() - t0)
    return statistics.median(slices) * REFERENCE_SLICES


def install_tracer() -> Tracer:
    """Wrap every layer of dptco; call before any scenario is built."""
    import importlib

    from dptco.costs import CostSet
    from dptco.scenario import Scenario
    from dptco.sim_engine import CoupledSystem

    modules = [importlib.import_module(f"dptco.{m}") for m in LAYERS]
    tracer = Tracer(observers=OBSERVERS)
    tracer.install("dptco", modules, [(CoupledSystem, "rhs"),
                                      (CostSet, "grad_stack"),
                                      (Scenario, "build")])
    return tracer


def setup(paths) -> int:
    import numpy

    from dptco.errors import DptcoError
    from dptco.scenario import load_scenario

    before = reference_loop()
    times = []
    for path in paths:
        t0 = time.perf_counter()
        try:
            load_scenario(path).build()
        except DptcoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        times.append(time.perf_counter() - t0)
    after = reference_loop()
    print(json.dumps({"setup_s": times, "numpy": numpy.__version__,
                      "reference_s": [before, after]}))
    return 0


def timed(threads: int, argv) -> int:
    before = reference_loop(threads)
    from dptco import cli

    code = cli.main(argv)
    after = reference_loop(threads)
    print(json.dumps({"reference_s": [before, after]}))
    return code


def trace(stats_path: str, argv) -> int:
    from dptco import cli

    tracer = install_tracer()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    with open(stats_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1:])
    if len(argv) >= 3 and argv[0] == "timed":
        return timed(int(argv[1]), argv[2:])
    if len(argv) >= 3 and argv[0] == "trace":
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
