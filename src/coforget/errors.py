"""Exception taxonomy shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration: bad field values, unknown keys, shape mismatches.
    `field` is the section.field at fault, where the error names one."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class InputError(ValueError):
    """A function received arguments outside its contract."""


class StateError(RuntimeError):
    """Stateful invariant violated: duplicate/missing checkpoints, non-finite values."""


class IngestionError(ValueError):
    """External file failed validation; message names the offending lines/ids."""
