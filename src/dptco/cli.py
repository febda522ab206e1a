"""Command-line harness.

Thin shell over the library: every command is a library call plus I/O.
Exit codes: 0 all monitors pass, 2 a monitor failed, 1 parse/config errors
and a malformed command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .costs import optimum_oracle
from .errors import DptcoError, ScenarioError
from .generator import envelope_bound
from .scenario import (ScenarioBuild, derived_series, evaluate_monitors,
                       load_scenario, scenario_hash)
from .sim_engine import Trajectory, export_csv, integrate, trajectory_columns
from .svgplot import write_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MONITOR = 2


def _derived_columns(derived: dict) -> dict:
    """Flatten derived channels into named CSV columns, in the dict's order:
    a (K,) channel is one column, a (K, N) channel one column per agent."""
    cols = {}
    for key, val in derived.items():
        if key in ("mu", "p_sum"):
            continue
        if val.ndim == 1:
            cols[f"derived.{key}"] = val
        else:
            for i in range(val.shape[1]):
                cols[f"derived.{key}{i}"] = val[:, i]
    return cols


def _write_plots(out: Path, build: ScenarioBuild, traj: Trajectory,
                 derived: dict) -> list:
    files = []
    bound = envelope_bound(traj.times, float(derived["e_r_norm"][0]),
                           build.sys.clock, build.sys.alpha,
                           build.gen_constants)
    env_path = out / "envelope.svg"
    write_svg(str(env_path),
              [("||e_r||", traj.times, derived["e_r_norm"]),
               ("envelope", traj.times, bound)],
              title=f"{build.name}: generator error and envelope",
              ylabel="||e_r||")
    files.append(str(env_path))
    series = [(f"agent {i}", traj.times, derived["track_err"][:, i])
              for i in range(build.sys.net.n_agents)]
    if "theta_hat" in derived:
        series.append(("theta_hat 1", traj.times,
                       np.abs(derived["theta_hat"][:, 0])))
        series.append(("||x2^1||", traj.times, derived["x2_norm"][:, 0]))
        if "x3_norm" in derived:
            series.append(("||x3^1||", traj.times, derived["x3_norm"][:, 0]))
    trk_path = out / "tracking.svg"
    write_svg(str(trk_path), series,
              title=f"{build.name}: output tracking",
              ylabel="||y_i - z*||")
    files.append(str(trk_path))
    return files


def _optimum(build: ScenarioBuild):
    """The optimum certificate of build's costs; an oracle error is
    located under the scenario file's costs section."""
    try:
        return optimum_oracle(build.sys.costs)
    except DptcoError as exc:
        raise ScenarioError(f"{build.path}: costs: {exc}") from exc


# the phases of a run that its manifest times, in the order they run
_PHASES = ("build", "oracle", "integrate", "derived", "monitors", "csv",
           "svg")


def run_scenario(scenario_path: str, out_dir: str) -> tuple:
    """Full pipeline: build, solve optimum, integrate, monitor, write files.

    Returns (exit_code, manifest dict); the manifest's `timings` give the
    seconds of each phase of _PHASES, which together take its
    `wall_seconds` but for the manifest's own assembly.
    """
    marks = [time.monotonic()]  # the end of each phase of _PHASES
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DptcoError(f"cannot create {out}: {exc}") from exc
    sc = load_scenario(scenario_path)
    build = sc.build()
    marks.append(time.monotonic())
    cert = _optimum(build)
    marks.append(time.monotonic())
    traj = integrate(build.sys, build.y0, build.sys.clock, build.settings)
    marks.append(time.monotonic())
    derived = derived_series(build, traj, cert.z_star)
    marks.append(time.monotonic())
    monitors = evaluate_monitors(build, traj, derived)
    marks.append(time.monotonic())

    csv_path = out / "trajectory.csv"
    cols = trajectory_columns(build.sys, traj)
    cols.update(_derived_columns(derived))
    export_csv(str(csv_path), cols)
    marks.append(time.monotonic())
    files = [str(csv_path)]
    files += _write_plots(out, build, traj, derived)
    marks.append(time.monotonic())

    all_pass = all(m.passed for m in monitors)
    manifest = {
        "scenario": build.name,
        "scenario_sha256": scenario_hash(sc.raw),
        "versions": {"python": "{}.{}.{}".format(*sys.version_info),
                     "numpy": np.__version__},
        "seed": build.seed,
        "constants": build.constants,
        "criterion_reports": [r.to_dict() for r in build.criterion_reports],
        "override_acknowledged": build.override_acknowledged,
        "optimum": cert.to_dict(),
        "monitors": [m.to_dict() for m in monitors],
        "n_steps": traj.n_steps,
        "n_rejected": traj.n_rejected,
        "n_rhs": traj.n_rhs,
        "integrator": traj.integrator,
        "outputs": files,
        "timings": {phase: b - a for phase, a, b
                    in zip(_PHASES, marks, marks[1:])},
        "wall_seconds": time.monotonic() - marks[0],
    }
    man_path = out / "manifest.json"
    try:
        with open(man_path, "w") as fh:
            json.dump(manifest, fh, indent=2)
    except OSError as exc:
        raise DptcoError(f"cannot write {man_path}: {exc}") from exc
    manifest["manifest_path"] = str(man_path)
    return (EXIT_OK if all_pass else EXIT_MONITOR), manifest


def _monitor_line(m: dict) -> str:
    """The line `run` and `verify` print for one monitor report's dict."""
    status = "pass" if m["pass"] else "FAIL"
    extra = ("" if m["first_violation_t"] is None
             else f", first violation t={m['first_violation_t']:.6g}")
    return (f"monitor {m['name']}: {status} "
            f"(max_ratio={m['max_ratio']:.4g}{extra})")


def cmd_run(args) -> int:
    code, manifest = run_scenario(args.scenario, args.out)
    for m in manifest["monitors"]:
        print(_monitor_line(m))
    print(f"wrote {len(manifest['outputs']) + 1} files to {args.out}")
    return code


def cmd_optimum(args) -> int:
    sc = load_scenario(args.scenario)
    build = sc.build()
    cert = _optimum(build)
    print(json.dumps(cert.to_dict(), indent=2))
    return EXIT_OK


def _bad_body_line(fh, header: list, exc: ValueError) -> str:
    """Where the CSV body on fh first fails to parse: its 1-based file line
    and, for a cell that is not a number, its column's header name; exc is
    numpy's error, the answer when no line is found."""
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue  # numpy skips blank lines
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != len(header):
            return (f"line {lineno}: {len(cells)} cells, the header has "
                    f"{len(header)}")
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                return (f"line {lineno}, column {name}: not a number: "
                        f"{cell!r}")
    return f"malformed body: {exc}"


def read_trajectory_csv(csv_path: str, build: ScenarioBuild) -> Trajectory:
    """Re-import a run CSV; raises ScenarioError on an unreadable file, a
    malformed body (named by its file line and column) or a schema
    mismatch."""
    try:
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            expected = ["t", "mu"] + build.sys.column_names()
            if header[:len(expected)] != expected:
                raise ScenarioError(f"{csv_path}: column schema does not "
                                    f"match the scenario's state layout")
            body = fh.tell()
            try:
                with warnings.catch_warnings():
                    # an empty body is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                # numpy's message counts rows from the body; find the line
                fh.seek(body)
                raise ScenarioError(
                    f"{csv_path}: {_bad_body_line(fh, header, exc)}"
                ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{csv_path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ScenarioError(f"{csv_path}: no data rows")
    if data.shape[1] != len(header):
        raise ScenarioError(f"{csv_path}: {data.shape[1]} columns in the "
                            f"body, {len(header)} in the header")
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        raise ScenarioError(f"{csv_path}: times not strictly increasing")
    states = data[:, 2:2 + build.sys.total_dim]
    return Trajectory(times, states, n_steps=len(times) - 1)


def cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    build = sc.build()
    traj = read_trajectory_csv(args.csv, build)
    cert = _optimum(build)
    derived = derived_series(build, traj, cert.z_star)
    monitors = evaluate_monitors(build, traj, derived)
    all_pass = True
    for m in monitors:
        print(_monitor_line(m.to_dict()))
        all_pass = all_pass and m.passed
    return EXIT_OK if all_pass else EXIT_MONITOR


def _sweep_one(path: str, out_dir: str) -> tuple:
    """Run one sweep file in a worker; returns a tag and never raises."""
    try:
        return ("ok",) + run_scenario(path, out_dir)
    except DptcoError as exc:
        return "config", str(exc)
    except Exception as exc:  # one malformed file must not end the sweep
        return "error", f"{type(exc).__name__}: {exc}"


def _fork_one(path: str, out_dir: str) -> tuple:
    """Fork a worker that runs _sweep_one on one file and writes its result
    as JSON to a pipe; returns (pid, the pipe's read end)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(r)
        os.close(w)
        raise DptcoError(f"cannot start a sweep worker: {exc}") from exc
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(json.dumps(_sweep_one(path, out_dir)).encode())
            code = 0
        finally:
            # never return into the parent's loop, nor flush the stdout
            # buffer inherited from it
            os._exit(code)
    os.close(w)
    return pid, r


def _sweep_forked(jobs: list, workers: int):
    """Run _sweep_one(path, out_dir) for each job of jobs in its own forked
    worker, at most `workers` alive at once; yield (job index, result) as
    each worker is reaped, in the order they finish.

    Each pipe is read to its end before its worker is reaped, so a result
    larger than the pipe's buffer cannot block.  A worker that ends without
    a result gives ("error", <how it ended>).  On the way out, an
    interrupt included, every worker still alive is killed and reaped.
    """
    # imported here: signal's enums and the select extension add about
    # 0.15 MiB to the peak RSS of run and verify, which use neither
    import select
    import signal

    live = {}  # read end -> [job index, pid, chunks read]
    poll = select.poll()
    started = 0
    try:
        while live or started < len(jobs):
            while len(live) < workers and started < len(jobs):
                pid, fd = _fork_one(*jobs[started])
                live[fd] = [started, pid, []]
                poll.register(fd, select.POLLIN)
                started += 1
            for fd, _ in poll.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    live[fd][2].append(chunk)
                    continue
                poll.unregister(fd)
                os.close(fd)
                i, pid, chunks = live.pop(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0 and chunks:
                    yield i, json.loads(b"".join(chunks))
                elif code >= 0:
                    yield i, ("error", f"worker exited with code {code}")
                else:
                    yield i, ("error", f"worker killed by signal {-code}")
    finally:
        for fd, (_, pid, _) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def cmd_sweep(args) -> int:
    # unset or empty: one worker per CPU; anything else a positive integer
    threads = os.environ.get("DPTCO_THREADS", "")
    if threads and not (threads.isascii() and threads.isdigit()
                        and int(threads) > 0):
        print("error: DPTCO_THREADS must be a positive integer, "
              f"got '{threads}'", file=sys.stderr)
        return EXIT_CONFIG
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        print(f"no scenario files in {args.dir}", file=sys.stderr)
        return EXIT_CONFIG
    workers = min(int(threads) if threads else os.cpu_count() or 1,
                  len(paths))
    out_root = Path(args.out)
    jobs = [(str(p), str(out_root / p.stem)) for p in paths]
    results = {}
    worst = EXIT_OK
    # one summary line per file, in file order, as soon as it is known
    shown = 0
    for i, result in _sweep_forked(jobs, workers):
        results[i] = result
        while shown in results:
            tag, *rest = results.pop(shown)
            name = paths[shown].name
            shown += 1
            if tag != "ok":
                label = "config error" if tag == "config" else "error"
                print(f"{name}: {label}: {rest[0]}", file=sys.stderr)
                worst = EXIT_CONFIG
                continue
            code, manifest = rest
            status = "ok" if code == EXIT_OK else "monitor failure"
            print(f"{name}: {status} ({manifest['wall_seconds']:.1f}s)")
            if code != EXIT_OK and worst != EXIT_CONFIG:
                worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dptco",
        description="Distributed prescribed-time convex optimization "
                    "simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_opt = sub.add_parser("optimum", help="print the optimum certificate")
    p_opt.add_argument("scenario")
    p_opt.set_defaults(func=cmd_optimum)

    p_ver = sub.add_parser("verify",
                           help="recompute monitors from a run CSV")
    p_ver.add_argument("csv")
    p_ver.add_argument("scenario")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="run every scenario in a directory")
    p_sw.add_argument("dir")
    p_sw.add_argument("--out", default="sweep_out")
    p_sw.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line, which is the code
        # of a failed monitor here; --help exits 0
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DptcoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
