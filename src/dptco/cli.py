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
from pathlib import Path

import numpy as np

from .costs import optimum_oracle
from .errors import DptcoError
from .scenario import (ScenarioBuild, derived_series, evaluate_monitors,
                       load_scenario)
from .sim_engine import Trajectory, export_csv, integrate, trajectory_columns
from .svgplot import write_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MONITOR = 2


def _derived_columns(build: ScenarioBuild, derived: dict) -> dict:
    """Flatten derived channels into named CSV columns."""
    cols = {"derived.e_r_norm": derived["e_r_norm"]}
    for i in range(build.net.n_agents):
        cols[f"derived.track_err{i}"] = derived["track_err"][:, i]
    for key in ("e_s_norm", "e_tilde_norm", "theta_hat", "tau",
                "x2_norm", "x3_norm"):
        if key in derived:
            for i in range(build.net.n_agents):
                cols[f"derived.{key}{i}"] = derived[key][:, i]
    return cols


def _envelope_bound(build: ScenarioBuild, times, e_r0: float) -> np.ndarray:
    from .timegain import kappa

    c = build.constants
    gamma = (c["c3"] / c["c2"]) ** 0.5 * e_r0
    return np.array([gamma * kappa(build.clock, build.alpha, -c["c_star"], t)
                     for t in times])


def _write_plots(out: Path, build: ScenarioBuild, traj: Trajectory,
                 derived: dict) -> list:
    files = []
    bound = _envelope_bound(build, traj.times, float(derived["e_r_norm"][0]))
    env_path = out / "envelope.svg"
    write_svg(str(env_path),
              [("||e_r||", traj.times, derived["e_r_norm"]),
               ("envelope", traj.times, bound)],
              title=f"{build.name}: generator error and envelope",
              ylabel="||e_r||", logy=True)
    files.append(str(env_path))
    series = [(f"agent {i}", traj.times, derived["track_err"][:, i])
              for i in range(build.net.n_agents)]
    if "theta_hat" in derived:
        series.append(("theta_hat 1", traj.times,
                       np.abs(derived["theta_hat"][:, 0])))
        series.append(("||x2^1||", traj.times, derived["x2_norm"][:, 0]))
        if "x3_norm" in derived:
            series.append(("||x3^1||", traj.times, derived["x3_norm"][:, 0]))
    trk_path = out / "tracking.svg"
    write_svg(str(trk_path), series,
              title=f"{build.name}: output tracking",
              ylabel="||y_i - z*||", logy=True)
    files.append(str(trk_path))
    return files


def run_scenario(scenario_path: str, out_dir: str, seed: int | None = None,
                 guard_frac: float | None = None) -> tuple:
    """Full pipeline: build, solve optimum, integrate, monitor, write files.

    Returns (exit_code, manifest dict).
    """
    t_start = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = load_scenario(scenario_path)
    build = sc.build(seed=seed, guard_frac=guard_frac)
    cert = optimum_oracle(build.costs)
    traj = integrate(build.sys.rhs, build.y0, build.clock, build.settings)
    derived = derived_series(build, traj, cert.z_star)
    monitors = evaluate_monitors(build, traj, cert.z_star, derived)

    csv_path = out / "trajectory.csv"
    cols = trajectory_columns(build.sys, traj)
    cols.update(_derived_columns(build, derived))
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
        "outputs": files,
        "wall_seconds": time.monotonic() - t_start,
    }
    man_path = out / "manifest.json"
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    manifest["manifest_path"] = str(man_path)
    return (EXIT_OK if all_pass else EXIT_MONITOR), manifest


def cmd_run(args) -> int:
    code, manifest = run_scenario(args.scenario, args.out, seed=args.seed,
                                  guard_frac=args.guard_frac)
    for m in manifest["monitors"]:
        status = "pass" if m["pass"] else "FAIL"
        print(f"monitor {m['name']}: {status} (max_ratio={m['max_ratio']:.4g})")
    print(f"wrote {len(manifest['outputs']) + 1} files to {args.out}")
    return code


def cmd_optimum(args) -> int:
    sc = load_scenario(args.scenario)
    build = sc.build()
    cert = optimum_oracle(build.costs)
    print(json.dumps(cert.to_dict(), indent=2))
    return EXIT_OK


def read_trajectory_csv(csv_path: str, build: ScenarioBuild) -> Trajectory:
    """Re-import a run CSV; raises ScenarioError on schema mismatch."""
    from .errors import ScenarioError

    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    expected = ["t", "mu"] + build.sys.column_names()
    if header[:len(expected)] != expected:
        raise ScenarioError(f"{csv_path}: column schema does not match the "
                            f"scenario's state layout")
    if not rows:
        raise ScenarioError(f"{csv_path}: no data rows")
    try:
        data = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ScenarioError(f"{csv_path}: non-numeric cell: {exc}") from exc
    if data.shape[1] != len(header):
        raise ScenarioError(f"{csv_path}: ragged rows")
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        raise ScenarioError(f"{csv_path}: times not strictly increasing")
    states = data[:, 2:2 + build.sys.total_dim]
    return Trajectory(times, states, n_steps=len(times) - 1)


def cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    build = sc.build()
    traj = read_trajectory_csv(args.csv, build)
    cert = optimum_oracle(build.costs)
    monitors = evaluate_monitors(build, traj, cert.z_star)
    all_pass = True
    for m in monitors:
        status = "pass" if m.passed else "FAIL"
        extra = ("" if m.first_violation_t is None
                 else f", first violation t={m.first_violation_t:.6g}")
        print(f"monitor {m.name}: {status} "
              f"(max_ratio={m.max_ratio:.4g}{extra})")
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

    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        print(f"no scenario files in {args.dir}", file=sys.stderr)
        return EXIT_CONFIG
    workers = min(int(os.environ.get("DPTCO_THREADS", "0"))
                  or os.cpu_count() or 1, len(paths))
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
                       help="override the disturbance seed")
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
