"""Distributed prescribed-time convex optimization (DPTCO) simulator.

Multi-agent agents cooperatively minimize a sum of local convex costs by a
hard deadline T.  A distributed generator produces each agent's optimal
reference trajectory; local prescribed-time controllers (robust
chain-integrator or adaptive strict-feedback) track it.  The package also
ships the ODE engine, growth-criterion checks, runtime monitors for the
convergence envelopes, and a CLI (`dptco run/optimum/verify/sweep`).
"""

from .costs import CostSet, optimum_oracle
from .errors import DptcoError
from .generator import (GeneratorConstants, conservation_monitor,
                        envelope_monitor, error_state, generator_constants)
from .graph import Network, build_network, require_connected
from .scenario import Scenario, load_scenario
from .sim_engine import (CoupledSystem, SolverSettings, Trajectory,
                         export_csv, integrate)
from .timegain import (GainFunction, PrescribedClock, check_growth_criterion,
                       gain_integral, kappa)

__version__ = "0.1.0"
