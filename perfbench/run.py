"""End-to-end benchmark of the dptco command-line tool.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a source checkout; dptco is imported from its src/.
For one workload the benchmark writes seeded scenario files and runs one
untimed set-up probe, which also checks that every scenario builds.  Then
it repeats cycles in a closed loop, one process at a time, until --seconds
have passed since it started, give or take half a cycle (at least
MIN_CYCLES cycles).  A cycle is:

  --trace 0  the workload's one dptco command (`run`, or `sweep` for
             deadline_sweep), `dptco verify` on every CSV the command
             wrote, and a set-up probe (fresh interpreter,
             `load_scenario().build()` timed per scenario).  Each of these
             processes also runs a reference loop, on as many threads as
             its work, just before and just after its work, and its time is
             reported at reference speed (see `at_reference_speed`).
  --trace 1  the dptco command untraced, then traced, then traced verify;
             deadline_sweep adds one serial sweep per run.

Every cycle passes through the correctness gate (`check_cycle`); a cycle
that fails any check counts in `failed`.  The last line of standard output
is one JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1, each the median over cycles.  The lines before it say what each
metric measures, its quartiles and sample count, the failure share, and
the machine.  Everything the benchmark writes goes under .perfbench_work/
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from child import REFERENCE_S
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
MIN_CYCLES = 2
MIN_TRACE_CYCLES = 1
# A run starts no cycle that would end later than STOP_AFTER_S after the
# run began, and kills a child still running at KILL_AFTER_S, so that it
# ends inside the 180 s a run may take.
STOP_AFTER_S = 150.0
KILL_AFTER_S = 170.0

E2E_UNITS = {"run_s": "s", "setup_s": "s", "verify_s": "s",
             "peak_rss_mb": "MiB"}

# Printed beside the end-to-end metrics: the times as measured, before
# scaling to reference speed, and the reference loop's time.
RAW_METRICS = (("run_s.raw", "s"), ("verify_s.raw", "s"),
               ("setup_s.raw", "s"), ("reference_loop_s", "s"))

# Layer metrics measured on every workload, in report order.  Span metrics
# are "<span name>.<s|self_s|calls|us_per_call>".
LAYER_METRICS = (
    ("graph.build_network.s", "s"),
    ("scenario.Scenario.build.s", "s"),
    ("scenario.load_scenario.s", "s"),
    ("timegain.check_growth_criterion.s", "s"),
    ("costs.optimum_oracle.s", "s"),
    ("costs.newton_iters", "count"),
    ("costs.CostSet.grad_stack.s", "s"),
    ("costs.CostSet.grad_stack.calls", "count"),
    ("sim_engine.integrate.self_s", "s"),
    ("sim_engine.CoupledSystem.rhs.calls", "count"),
    ("sim_engine.CoupledSystem.rhs.us_per_call", "us"),
    ("sim_engine.CoupledSystem.rhs.self_s", "s"),
    ("sim_engine.steps", "count"),
    ("sim_engine.rejected", "count"),
    ("sim_engine.accept_ratio", "frac"),
    ("sim_engine.rhs.tail_frac", "frac"),
    ("scenario.derived_series.self_s", "s"),
    ("generator.error_state.s", "s"),
    ("generator.error_state.calls", "count"),
    ("scenario.evaluate_monitors.self_s", "s"),
    ("generator.envelope_monitor.s", "s"),
    ("timegain.kappa.calls", "count"),
    ("sim_engine.export_csv.s", "s"),
    ("sim_engine.csv_bytes", "bytes"),
    ("svgplot.write_svg.s", "s"),
    ("svgplot.svg_bytes", "bytes"),
    ("cli.read_trajectory_csv.s", "s"),
    ("trace.overhead_frac", "frac"),
)

# Layer metrics of code that runs on some workloads only.  They are printed
# and written to the result file where the layer runs, but are not part of
# the JSON line, which carries one metric list for every workload.
EXTRA_LAYER_METRICS = {
    "strictfb_adaptive": (("costs.estimate_constants.s", "s"),
                          ("strictfb_ctrl.virtual_controls.s", "s"),
                          ("strictfb_ctrl.virtual_controls.calls", "count"),
                          ("strictfb_ctrl.filter_rhs.s", "s"),
                          ("strictfb_ctrl.tau_value.s", "s"),
                          ("strictfb_ctrl.adaptation_rhs.s", "s"),
                          ("strictfb_ctrl.sf_plant_rhs.s", "s")),
    "manipulator_chain": (("chain_ctrl.chain_control.s", "s"),
                          ("chain_ctrl.chain_control.calls", "count"),
                          ("chain_ctrl.el_acceleration.s", "s"),
                          ("chain_ctrl.el_acceleration.calls", "count"),
                          ("chain_ctrl.chain_error_view.s", "s")),
    "deadline_sweep": (("cli.sweep.speedup", "ratio"),),
    "network_large": (),
}


@dataclass
class Proc:
    """A finished child process."""

    code: int
    wall_s: float
    peak_rss_mb: float
    output: str


@dataclass
class Cycle:
    """Samples and gate verdict of one cycle."""

    samples: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


class Bench:
    """One workload at one seed: inputs, child processes and the gate."""

    def __init__(self, name: str, seed: int, trace: bool, began: float):
        self.trace = trace
        self.kill_at = began + KILL_AFTER_S
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.wl: Workload = workloads.generate(name, seed, ROOT,
                                               self.dir / "input")
        nproc = len(os.sched_getaffinity(0))
        self.env = _child_env(nproc)
        # threads the command runs at once: the sweep's pool, one per
        # scenario up to DPTCO_THREADS
        threads = 1 if self.wl.sweep_dir is None else min(
            nproc, len(self.wl.scenarios))
        self.timed_cmd = self.timed(threads)
        self.hashes = {}
        self.numpy = None
        self._n = 0

    # -- child processes --

    def spawn(self, argv, env=None) -> Proc:
        self._n += 1
        log = self.dir / f"log{self._n}.txt"
        with open(log, "w+") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=ROOT, env=env or self.env,
                                 stdout=out, stderr=subprocess.STDOUT)
            status, usage = _wait4(p, self.kill_at)
            wall = time.perf_counter() - t0
            out.seek(0)
            text = out.read()
        return Proc(os.waitstatus_to_exitcode(status), wall,
                    usage.ru_maxrss / 1024.0, text)

    def dptco_argv(self, out: Path) -> list:
        if self.wl.sweep_dir is not None:
            return ["sweep", str(self.wl.sweep_dir), "--out", str(out)]
        return ["run", str(self.wl.scenarios[0]), "--out", str(out)]

    def command(self, out: Path, py: list, env=None) -> Proc:
        return self.spawn(py + self.dptco_argv(out), env)

    def verify(self, out: Path, py, stats_dir: Path | None = None) -> list:
        procs = []
        for scen, csv in self.outputs(out):
            if stats_dir is not None:
                py = self.traced(stats_dir / f"verify-{scen.stem}.json")
            procs.append(self.spawn(py + ["verify", str(csv), str(scen)]))
        return procs

    def setup_probe(self) -> Proc:
        return self.spawn([sys.executable, str(BENCH / "child.py"), "setup"]
                          + [str(s) for s in self.wl.scenarios])

    # How a child runs dptco: as its users do, between two reference
    # loops, or traced.
    PLAIN = [sys.executable, "-m", "dptco.cli"]

    @staticmethod
    def timed(threads: int) -> list:
        return [sys.executable, str(BENCH / "child.py"), "timed",
                str(threads)]

    @staticmethod
    def traced(stats: Path) -> list:
        return [sys.executable, str(BENCH / "child.py"), "trace", str(stats)]

    def outputs(self, out: Path) -> list:
        """(scenario, trajectory.csv) pairs the command writes under out."""
        if self.wl.sweep_dir is None:
            return [(self.wl.scenarios[0], out / "trajectory.csv")]
        return [(s, out / s.stem / "trajectory.csv")
                for s in self.wl.scenarios]

    # -- correctness gate --

    def check_cycle(self, out: Path, cmd: Proc, verifies: list) -> list:
        """Reasons this command's outputs are wrong; empty when correct."""
        if cmd.code != 0:
            return [f"exit code {cmd.code}: {cmd.output[-300:]}"]
        reasons = []
        for (scen, csv), ver in zip(self.outputs(out), verifies):
            reasons += self._check_one(scen, csv, ver)
        return reasons

    def _check_one(self, scen: Path, csv: Path, ver: Proc) -> list:
        tag = scen.stem
        try:
            with open(csv.parent / "manifest.json") as fh:
                run_verdicts = {m["name"]: bool(m["pass"])
                                for m in json.load(fh)["monitors"]}
            with open(csv, "rb") as fh:
                data = fh.read()
            with open(scen) as fh:
                scenario = json.load(fh)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{tag}: unreadable output: {exc!r}"]
        reasons = []
        failed = sorted(n for n, ok in run_verdicts.items() if not ok)
        if failed:
            reasons.append(f"{tag}: monitors failed: {failed}")
        tol = float((scenario["monitors"].get("tracking") or {})
                    .get("tol", 1e-2))
        err = final_tracking_error(data)
        if not err <= tol:
            reasons.append(f"{tag}: final tracking error {err} > tol {tol}")
        if ver.code != 0:
            reasons.append(f"{tag}: verify exit code {ver.code}")
        ver_verdicts = parse_verdicts(ver.output)
        if ver_verdicts != run_verdicts:
            reasons.append(f"{tag}: verify verdicts {ver_verdicts} differ "
                           f"from run verdicts {run_verdicts}")
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.setdefault(tag, digest)
        if digest != first:
            reasons.append(f"{tag}: trajectory.csv differs from the first "
                           "repeat")
        return reasons

    # -- cycles --

    def cycle(self, k: int) -> Cycle:
        c = Cycle()
        out = self.dir / f"out{k}"
        if not self.trace:
            cmd = self.command(out, self.timed_cmd)
            verifies = self.verify(out, self.timed(1))
            probe = self.setup_probe()
            c.failures = self.check_cycle(out, cmd, verifies)
            if probe.code != 0:
                c.failures.append(f"set-up probe exit code {probe.code}: "
                                  f"{probe.output[-300:]}")
            if not c.failures:
                # the process's own time, without its reference loops
                work = [(p.wall_s - sum(last_json(p)["reference_s"]),
                         last_json(p)["reference_s"])
                        for p in [cmd] + verifies]
                info = last_json(probe)
                raw = {"run_s": work[:1], "verify_s": work[1:],
                       "setup_s": [(sum(info["setup_s"]),
                                    info["reference_s"])]}
                for key, parts in raw.items():
                    c.samples[key] = sum(at_reference_speed(t, ref)
                                         for t, ref in parts)
                    c.samples[f"{key}.raw"] = sum(t for t, _ in parts)
                c.samples["reference_loop_s"] = statistics.median(
                    t for _, ref in work for t in ref)
                c.samples["peak_rss_mb"] = cmd.peak_rss_mb
        else:
            cmd = self.command(out, self.PLAIN)
            c.failures = self.check_cycle(out, cmd,
                                          self.verify(out, self.PLAIN))
            stats_dir = self.dir / f"stats{k}"
            stats_dir.mkdir()
            tout = self.dir / f"traced{k}"
            traced = self.command(tout,
                                  self.traced(stats_dir / "command.json"))
            verifies = self.verify(tout, None, stats_dir)
            c.failures += self.check_cycle(tout, traced, verifies)
            if not c.failures:
                c.samples = layer_samples(_load_stats(stats_dir), tout)
                c.samples["run_s"] = cmd.wall_s
                c.samples["trace.overhead_frac"] = (
                    (traced.wall_s - cmd.wall_s) / cmd.wall_s)
            shutil.rmtree(tout, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return c

    def serial_sweep(self) -> tuple:
        """(sum of per-scenario wall_seconds of a one-thread sweep, gate
        failures); the sum is None when the sweep failed."""
        out = self.dir / "serial"
        cmd = self.command(out, self.PLAIN,
                           env=dict(self.env, DPTCO_THREADS="1"))
        failures = self.check_cycle(out, cmd, self.verify(out, self.PLAIN))
        total = None
        if not failures:
            total = 0.0
            for _, csv in self.outputs(out):
                with open(csv.parent / "manifest.json") as fh:
                    total += json.load(fh)["wall_seconds"]
        shutil.rmtree(out, ignore_errors=True)
        return total, failures


def at_reference_speed(seconds: float, reference_s: list) -> float:
    """seconds scaled to a host that runs the reference loop in REFERENCE_S.

    The host's speed drifts: the same dptco command took 1.7 s to 3.6 s
    within a minute on the 2-vCPU machine of METRICS.md, all of it user
    time, and each vCPU drifts on its own.  The median of a 30 s run does
    not average that out.  The reference loop (`child.reference_loop`), run
    in the same process just before and just after the timed work, tracks
    the drift, so a slower host does not read as a slower program; a slower
    program still reads slower by the same factor.  reference_s holds the
    loop's two times.
    """
    return seconds * REFERENCE_S * len(reference_s) / sum(reference_s)


def last_json(proc: Proc) -> dict:
    """The JSON object a child printed as its last line."""
    return json.loads(proc.output.strip().splitlines()[-1])


def final_tracking_error(csv_bytes: bytes) -> float:
    """Largest derived.track_err column in the last row of a run CSV."""
    lines = csv_bytes.rstrip(b"\n").split(b"\n")
    header = lines[0].decode().split(",")
    last = lines[-1].decode().split(",")
    errs = [float(v) for h, v in zip(header, last)
            if h.startswith("derived.track_err")]
    return max(errs) if errs else float("nan")


def parse_verdicts(text: str) -> dict:
    """{monitor: passed} from `dptco verify` output lines
    "monitor <name>: pass|FAIL (...)"."""
    verdicts = {}
    for line in text.splitlines():
        if line.startswith("monitor ") and ": " in line:
            name, rest = line[len("monitor "):].split(": ", 1)
            verdicts[name] = rest.startswith("pass")
    return verdicts


def layer_samples(stats: dict, out: Path) -> dict:
    """Per-layer metric values of one traced cycle."""
    spans, ctr = stats["spans"], stats["counters"]
    samples = {}
    for name, rec in spans.items():
        samples[f"{name}.s"] = rec["s"]
        samples[f"{name}.self_s"] = rec["self_s"]
        samples[f"{name}.calls"] = rec["calls"]
        samples[f"{name}.us_per_call"] = 1e6 * rec["s"] / rec["calls"]
    steps = ctr.get("sim_engine.steps", 0)
    rejected = ctr.get("sim_engine.rejected", 0)
    rhs_calls = spans.get("sim_engine.CoupledSystem.rhs", {}).get("calls", 0)
    samples["sim_engine.steps"] = steps
    samples["sim_engine.rejected"] = rejected
    samples["sim_engine.accept_ratio"] = steps / max(1, steps + rejected)
    samples["sim_engine.rhs.tail_frac"] = (
        ctr.get("sim_engine.rhs.tail", 0) / max(1, rhs_calls))
    samples["costs.newton_iters"] = ctr.get("costs.newton_iters", 0)
    samples["sim_engine.csv_bytes"] = sum(
        p.stat().st_size for p in out.rglob("*.csv"))
    samples["svgplot.svg_bytes"] = sum(
        p.stat().st_size for p in out.rglob("*.svg"))
    return samples


def _load_stats(stats_dir: Path) -> dict:
    """Sum the span summaries of every traced process of a cycle."""
    spans, counters = {}, {}
    for path in sorted(stats_dir.glob("*.json")):
        with open(path) as fh:
            part = json.load(fh)
        for name, rec in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0,
                                          "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for name, n in part["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return {"spans": spans, "counters": counters}


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # the only threads are the sweep's, one per core
    env["DPTCO_THREADS"] = str(nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait4(p: subprocess.Popen, deadline: float):
    """Reap p and return (status, rusage); kill it at the deadline."""
    def on_alarm(signum, frame):
        p.kill()

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL,
                     max(0.01, deadline - time.monotonic()))
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    p.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version()}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench_workload(name: str, seed: int, seconds: float,
                   trace: bool) -> dict:
    began = time.monotonic()
    bench = Bench(name, seed, trace, began)
    # An untimed probe compiles dptco's bytecode, warms the file cache and
    # checks that every generated scenario builds before anything is timed.
    warm = bench.setup_probe()
    cycles = []
    if warm.code != 0:
        cycles.append(Cycle(failures=[f"scenario does not build: "
                                      f"{warm.output[-300:]}"]))
    else:
        bench.numpy = last_json(warm)["numpy"]
        min_cycles = MIN_TRACE_CYCLES if trace else MIN_CYCLES
        start = time.monotonic()
        while True:
            cycles.append(bench.cycle(len(cycles)))
            now = time.monotonic()
            per_cycle = (now - start) / len(cycles)
            if (len(cycles) >= min_cycles
                    and now + per_cycle / 2 > began + seconds):
                break
            if now + per_cycle > began + STOP_AFTER_S:
                break
    attempted = len(cycles)
    failures = [f for c in cycles for f in c.failures]
    failed = sum(1 for c in cycles if c.failures)
    samples = {}
    for c in cycles:
        for key, value in c.samples.items():
            samples.setdefault(key, []).append(value)
    if trace:
        wanted, also = LAYER_METRICS, EXTRA_LAYER_METRICS[name]
        if name == "deadline_sweep" and "run_s" in samples:
            serial, bad = bench.serial_sweep()
            attempted += 1
            failed += bool(bad)
            failures += bad
            if serial is not None:
                samples["cli.sweep.speedup"] = [
                    serial / statistics.median(samples["run_s"])]
    else:
        wanted, also = tuple(E2E_UNITS.items()), RAW_METRICS
    metrics, extra, spread = {}, {}, {}
    for group, keys in ((metrics, wanted), (extra, also)):
        for key, unit in keys:
            values = samples.get(key, [])
            if not values and group is metrics and trace and (
                    "run_s" in samples):
                values = [0]  # the traced cycles never entered this span
            if values:
                group[key] = {"value": statistics.median(values),
                              "unit": unit}
                spread[key] = (len(values),) + quartiles(values)
    facts = dict(machine_facts(), numpy=bench.numpy, seed=seed,
                 reference_s=REFERENCE_S,
                 workload=name, seconds=seconds, trace=int(trace))
    result = {"workload": name, "facts": facts, "attempted": attempted,
              "failed": failed, "failures": failures, "metrics": metrics,
              "extra": extra, "samples": samples}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump(result, fh, indent=1)
    _report(result, spread)
    return result


def _report(result: dict, spread: dict) -> None:
    name = result["workload"]
    print(f"[{name}] machine: " + json.dumps(result["facts"]))
    for key, m in {**result["metrics"], **result["extra"]}.items():
        n, q1, q3 = spread[key]
        print(f"[{name}] {key}: median {m['value']:.6g} {m['unit']} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    att, fail = result["attempted"], result["failed"]
    print(f"[{name}] fail_frac: {fail / att:.6g} ({fail} of {att} runs "
          "failed the correctness gate)")
    for reason in result["failures"][:10]:
        print(f"[{name}] failure: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dptco" / "cli.py").is_file():
        print(f"error: no dptco source under {ROOT / 'src'}; run from the "
              "root of a dptco checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(bench_workload(name, args.seed, args.seconds,
                                      bool(args.trace)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
