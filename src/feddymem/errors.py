"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions are inconsistent with the operation's contract."""


class NumericError(ArithmeticError):
    """A numeric value violated a contract (NaN/Inf, zero variance, ...)."""


class ConfigError(ValueError):
    """A configuration document failed validation."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class CheckpointError(OSError):
    """A checkpoint file cannot be read whole: its bytes do not parse (bad
    magic, truncated) or a section the checkpoint needs is missing. An I/O
    failure, like a checkpoint file that cannot be opened."""
