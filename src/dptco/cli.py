"""Command-line harness.

Thin shell over the library: every command is a library call plus I/O.
Exit codes: 0 all monitors pass, 2 a monitor failed, 1 parse/config errors.
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
from .errors import DptcoError, IoFailure, ScenarioError
from .generator import envelope_bound
from .scenario import (ScenarioBuild, derived_series, evaluate_monitors,
                       load_scenario)
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


def run_scenario(scenario_path: str, out_dir: str, seed: int | None = None,
                 guard_frac: float | None = None) -> tuple:
    """Full pipeline: build, solve optimum, integrate, monitor, write files.

    Returns (exit_code, manifest dict).
    """
    t_start = time.monotonic()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    sc = load_scenario(scenario_path)
    build = sc.build(seed=seed, guard_frac=guard_frac)
    cert = optimum_oracle(build.sys.costs)
    traj = integrate(build.sys, build.y0, build.sys.clock, build.settings)
    derived = derived_series(build, traj, cert.z_star)
    monitors = evaluate_monitors(build, traj, derived)

    csv_path = out / "trajectory.csv"
    cols = trajectory_columns(build.sys, traj)
    cols.update(_derived_columns(derived))
    export_csv(str(csv_path), cols)
    files = [str(csv_path)]
    files += _write_plots(out, build, traj, derived)

    all_pass = all(m.passed for m in monitors)
    manifest = {
        "scenario": build.name,
        "scenario_sha256": build.sha256,
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
        "wall_seconds": time.monotonic() - t_start,
    }
    man_path = out / "manifest.json"
    try:
        with open(man_path, "w") as fh:
            json.dump(manifest, fh, indent=2)
    except OSError as exc:
        raise IoFailure(f"cannot write {man_path}: {exc}") from exc
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
    code, manifest = run_scenario(args.scenario, args.out, seed=args.seed,
                                  guard_frac=args.guard_frac)
    for m in manifest["monitors"]:
        print(_monitor_line(m))
    print(f"wrote {len(manifest['outputs']) + 1} files to {args.out}")
    return code


def cmd_optimum(args) -> int:
    sc = load_scenario(args.scenario)
    build = sc.build()
    cert = optimum_oracle(build.sys.costs)
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
    cert = optimum_oracle(build.sys.costs)
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


def cmd_sweep(args) -> int:
    # imported here: about 16 ms and 1 MiB that no other command needs
    import concurrent.futures
    import multiprocessing

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
    worst = EXIT_OK
    # fork: the workers inherit the imported modules and start in
    # milliseconds; this process runs no other thread when they are forked
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, ctx) as ex:
        futures = [ex.submit(_sweep_one, str(p), str(out_root / p.stem))
                   for p in paths]
        for p, fut in zip(paths, futures):
            try:
                result = fut.result()
            except Exception as exc:  # the worker died (BrokenProcessPool)
                result = "error", f"{type(exc).__name__}: {exc}"
            if result[0] != "ok":
                label = "config error" if result[0] == "config" else "error"
                print(f"{p.name}: {label}: {result[1]}", file=sys.stderr)
                worst = EXIT_CONFIG
                continue
            code, manifest = result[1:]
            status = "ok" if code == EXIT_OK else "monitor failure"
            print(f"{p.name}: {status} ({manifest['wall_seconds']:.1f}s)")
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
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the disturbance seed (non-negative)")
    p_run.add_argument("--guard-frac", type=float, default=None,
                       dest="guard_frac")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DptcoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
