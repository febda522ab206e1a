"""Write tests/reference_endpoints.json: the endpoint of a tight RK45
reference run (rel_tol 1e-11, abs_tol 1e-13) of each bundled RK45 scenario
at its bundled guard time.

    PYTHONPATH=src python tests/make_reference_endpoints.py

The reference is `oracles.integrate_allocating`, plain Dormand-Prince
stepping without the RKC2 hand-over, so it does not depend on the stepping
that `test_acceptance.test_endpoint_within_tolerance_of_reference` checks.
example1 takes most of the time, about a minute on a 2-vCPU host.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from dptco.scenario import load_scenario  # noqa: E402

from conftest import scenario_path  # noqa: E402
from oracles import integrate_allocating  # noqa: E402

NAMES = ("ring", "example2_generator", "example1")
REL_TOL, ABS_TOL = 1e-11, 1e-13


def reference_endpoint(name: str) -> dict:
    build = load_scenario(scenario_path(name)).build()
    settings = dataclasses.replace(build.settings, rel_tol=REL_TOL,
                                   abs_tol=ABS_TOL, log_every=10 ** 9)
    traj = integrate_allocating(lambda t, y: build.sys.rhs(t, y), build.y0,
                                build.clock, settings)
    return {"t": float(traj.times[-1]), "rel_tol": REL_TOL,
            "abs_tol": ABS_TOL, "y": [float(v) for v in traj.states[-1]]}


def main() -> None:
    out = {name: reference_endpoint(name) for name in NAMES}
    path = HERE / "reference_endpoints.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
