"""Exception types shared across the library."""


class DptcoError(Exception):
    """Base class for all library errors."""


class TimeOutOfWindow(DptcoError):
    """Time outside the prescribed window [t0, t0 + T)."""


class QuadratureFailure(DptcoError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SelfLoop(DptcoError):
    """Edge (i, i) supplied to the network builder."""


class NegativeWeight(DptcoError):
    """Edge with a weight that is not finite and > 0 supplied to the
    network builder."""


class Disconnected(DptcoError):
    """Communication graph is not connected."""

    def __init__(self, unreached):
        self.unreached = set(unreached)
        super().__init__(f"graph is disconnected, unreached nodes: {sorted(self.unreached)}")

    def __reduce__(self):
        return type(self), (self.unreached,)


class DimensionMismatch(DptcoError):
    """Vector or matrix dimensions do not agree."""


class NonPositiveInput(DptcoError):
    """A constant that must be finite, or strictly positive, was not."""


class NoConvergence(DptcoError):
    """Iterative solver exhausted its iteration budget."""


class NotHurwitz(DptcoError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SingularSystem(DptcoError):
    """Linear system for the Lyapunov solve is singular."""


class GuardExceeded(DptcoError):
    """Controller evaluated beyond the singularity guard."""


class EmptyTrajectory(DptcoError):
    """Monitor invoked on an empty or too-short trajectory."""


class MarginTooSmall(DptcoError):
    """Backstepping parameter margins below the required minimum."""


class NonFiniteState(DptcoError):
    """Integration produced a non-finite state component."""

    def __init__(self, t, component):
        self.t = t
        self.component = component
        super().__init__(f"non-finite state at t={t}: {component}")

    def __reduce__(self):
        return type(self), (self.t, self.component)


class StepUnderflow(DptcoError):
    """Adaptive integrator step shrank below the representable floor."""


class IoFailure(DptcoError):
    """File output failed."""


class ScenarioError(DptcoError):
    """Scenario file failed to parse or validate."""
