"""Exception types shared across the library."""


class FedBilevelError(Exception):
    """Base class for all library errors."""


class ContractViolation(FedBilevelError):
    """An oracle was called with arguments violating its contract (e.g. dimension mismatch)."""


class ClientLookupError(FedBilevelError, KeyError):
    """Unknown client id."""


class ParameterError(FedBilevelError, ValueError):
    """A configuration or hyperparameter violates a documented constraint."""


class ProtocolError(FedBilevelError):
    """The server/client exchange was driven incorrectly (e.g. empty participant set)."""


class DivergenceError(FedBilevelError):
    """An iterate or estimate became non-finite, or an iterate exceeded the divergence guard."""

    def __init__(self, message, k=None, x_norm=None, y_norm=None):
        super().__init__(message)
        self.k = k
        self.x_norm = x_norm
        self.y_norm = y_norm


class ConfigError(FedBilevelError, ValueError):
    """A run configuration file is malformed or violates a validation rule."""
