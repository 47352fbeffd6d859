"""Exception taxonomy shared across the toolkit.

Each class maps to one CLI exit-code category (see the cli.EXIT_* constants).
"""


class GossipGnError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(GossipGnError, ValueError):
    """Caller passed inconsistent shapes, ranges, or mismatched instances."""


class SingularSystemError(GossipGnError):
    """A normal-equation system is numerically singular or beyond the
    configured condition-number cap."""


class CaseParseError(GossipGnError):
    """Malformed case file. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnsupportedFeatureError(GossipGnError):
    """The case file uses a feature outside the documented subset."""


class PowerFlowError(GossipGnError):
    """The built-in power-flow solve failed to converge."""


class ConfigError(GossipGnError):
    """Invalid experiment configuration. Message includes the field path."""
