"""Exception types shared across the package.

Each class maps to one CLI exit code (see cli.EXIT_CODES), so callers can
distinguish bad inputs from bad files from numerical failures.
"""


class ChanimgError(Exception):
    """Base class for all package errors."""


class UsageError(ChanimgError, ValueError):
    """A command-line argument that does not parse."""


class GeometryError(ChanimgError, ValueError):
    """Degenerate link geometry (coincident endpoints, undefined azimuth)."""


class DataError(ChanimgError, ValueError):
    """Invalid dataset content: empty links, too many paths, degenerate features."""


class FormatError(ChanimgError, ValueError):
    """Malformed or corrupt on-disk artifact."""


class VersionError(FormatError):
    """Artifact written with an unsupported major format version."""


class TrainingDivergedError(ChanimgError, RuntimeError):
    """Non-finite loss or gradient encountered during training.

    A pass raises it with the reason alone, and the training loop raises
    it again with the step it was on.
    """

    def __init__(self, reason, step=None):
        super().__init__(reason if step is None else f"step {step}: {reason}")
        self.reason, self.step = reason, step
