"""Exception types shared across the library: every failure it detects is
a DptcoError, and a ScenarioError once located in a scenario file."""


class DptcoError(Exception):
    """Base class for all library errors."""


class ScenarioError(DptcoError):
    """Scenario file failed to parse or validate."""
