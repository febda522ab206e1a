"""Write tests/reference_endpoints.json: the endpoint of a tight RK45
reference run (rel_tol 1e-11, abs_tol 1e-13) of each bundled RK45 scenario
at its bundled guard time, and a Richardson-extrapolated RK4 endpoint of
example2 at guard 0.99.

    PYTHONPATH=src python tests/make_reference_endpoints.py

The references are `oracles.integrate_allocating`: plain Dormand-Prince
stepping without the RKC2 hand-over, so they do not depend on the stepping
that `test_acceptance.test_endpoint_within_tolerance_of_reference` checks,
and RK4 under the run's own step rule with every step a half and a quarter
as long, extrapolated as (16 y_1/4 - y_1/2) / 15.  The example2 entry
records the size of that extrapolation's correction, max |y_1/4 - y_1/2| /
15.  example1 takes most of the time, about a minute on a 2-vCPU host.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from dptco.scenario import load_scenario  # noqa: E402

from conftest import scenario_path  # noqa: E402
from oracles import integrate_allocating, rhs_new  # noqa: E402

NAMES = ("ring", "example2_generator", "example1")
REL_TOL, ABS_TOL = 1e-11, 1e-13
# example2's guard: at the bundled 0.999, x3 and xi_3f are round-off sized
# and RK4 endpoints on different step grids do not converge
RK4_GUARD = 0.99


def reference_endpoint(name: str) -> dict:
    build = load_scenario(scenario_path(name)).build()
    settings = dataclasses.replace(build.settings, rel_tol=REL_TOL,
                                   abs_tol=ABS_TOL, log_every=10 ** 9)
    traj = integrate_allocating(lambda t, y: rhs_new(build.sys, t, y),
                                build.y0, build.sys.clock, settings)
    return {"t": float(traj.times[-1]), "rel_tol": REL_TOL,
            "abs_tol": ABS_TOL, "y": [float(v) for v in traj.states[-1]]}


def richardson_endpoint(name: str) -> dict:
    build = load_scenario(scenario_path(name)).build(guard_frac=RK4_GUARD)
    settings = dataclasses.replace(build.settings, log_every=10 ** 9)
    half, quarter = (integrate_allocating(
        lambda t, y: rhs_new(build.sys, t, y), build.y0, build.sys.clock,
        settings, build.sys.stiffness, frac) for frac in (0.5, 0.25))
    assert half.times[-1] == quarter.times[-1]
    y_half, y_quarter = half.states[-1], quarter.states[-1]
    return {"t": float(quarter.times[-1]), "guard_frac": RK4_GUARD,
            "step_fracs": [0.5, 0.25],
            "correction": float(np.abs(y_quarter - y_half).max() / 15.0),
            "y": [float(v) for v in (16.0 * y_quarter - y_half) / 15.0]}


def main() -> None:
    out = {name: reference_endpoint(name) for name in NAMES}
    out["example2"] = richardson_endpoint("example2")
    path = HERE / "reference_endpoints.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
