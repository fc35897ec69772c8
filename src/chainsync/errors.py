"""Exception types shared across the package."""


class ChainSyncError(Exception):
    """Base class for all chainsync errors."""


class InstabilityError(ChainSyncError):
    """The potential matrix is not positive definite: the probe-chain
    coupling is too strong for the chosen frequencies."""

    def __init__(self, min_eigenvalue, tol):
        self.min_eigenvalue = float(min_eigenvalue)
        self.tol = float(tol)
        super().__init__(
            f"potential not positive definite: min eigenvalue "
            f"{self.min_eigenvalue:.6e} <= tolerance {self.tol:.1e}"
        )


class ZeroModeError(ChainSyncError):
    """A chain normal mode has (numerically) zero frequency."""


class StepTooLarge(ChainSyncError):
    """Integration step does not resolve the fastest mode."""


class UncertaintyViolation(ChainSyncError):
    """A covariance matrix violates the Robertson-Schroedinger bound."""


class NonPhysical(ChainSyncError):
    """Symplectic eigenvalue below the vacuum floor on a state claimed
    physical."""


class ConfigError(ChainSyncError):
    """Base class for scenario-configuration problems."""


class ParseError(ConfigError):
    """Malformed config text; carries the offending line number (None for
    a setting given outside a config file)."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


class UnknownKey(ConfigError):
    """Config key not in the documented key set."""


class RangeError(ConfigError):
    """Config value outside its legal range."""
