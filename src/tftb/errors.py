"""Exception types shared across the package, and the check of a count."""

import numpy as np


class TftbError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(TftbError):
    """An array or parameter set does not match the expected layout."""


class NonFiniteError(TftbError):
    """A NaN or Inf appeared where only finite values are allowed: ``row`` is
    the batch row ``tftb.nn`` found it in, ``sample_id`` the sample the trainer names."""

    def __init__(self, message: str, row: int | None = None, sample_id: int | None = None):
        super().__init__(message)
        self.row = row
        self.sample_id = sample_id


class CorruptDataError(TftbError):
    """An input file violates its documented binary framing."""


class LedgerError(TftbError):
    """Importance-ledger misuse: unknown ids, empty histories, bad scores."""


class SelectionError(TftbError):
    """Subset selection cannot satisfy its size constraints."""


class BudgetError(TftbError):
    """Time-budget accounting failure, e.g. a budget smaller than warm-up."""


class ConfigError(TftbError):
    """Invalid configuration value or unknown configuration key."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as a Python int, refused unless it is an int of at least
    ``least``; a numpy integer counts, a bool does not (``True`` is no count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


class ManifestError(TftbError):
    """A run manifest cannot be parsed, or two manifests cannot be compared."""


class TrainingAbort(TftbError):
    """Training aborted mid-run; carries the diagnostic manifest."""

    def __init__(self, message: str, manifest=None):
        super().__init__(message)
        self.manifest = manifest
