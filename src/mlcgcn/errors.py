"""Exception and warning taxonomy shared across the package."""


class ShapeError(ValueError):
    """Tensor or dataset dimensions do not line up."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class ContractError(ValueError):
    """An API precondition was violated by the caller."""


class DataError(ValueError):
    """Dataset loading or validation failed; the message names the record."""


class ForwardError(RuntimeError):
    """Non-finite values appeared during a forward pass."""


class TrainingError(RuntimeError):
    """An optimizer step or training epoch had to be aborted."""


class OracleError(RuntimeError):
    """A verification oracle could not be evaluated."""


class ZeroNormRowsWarning(UserWarning):
    """`where` left `rows` zero-norm rows as zeros."""

    def __init__(self, where, rows):
        super().__init__(f"{where}: {rows} zero-norm row(s) left as zeros")
        self.rows = rows
