"""Exception hierarchy shared by all torwave modules."""


class TorwaveError(Exception):
    """Base class for all torwave errors."""


class ConfigurationError(TorwaveError):
    """Invalid or inconsistent configuration (basis, dictionary, symbol, mode)."""


class ResolutionError(TorwaveError):
    """Grid resolution incompatible with the requested levels or filters."""


class ShapeError(TorwaveError):
    """Mismatched dimensions, resolutions or tree layouts."""


class DomainError(TorwaveError, ValueError):
    """Parameter outside its mathematical domain (p < 1, delta outside (0,1], ...)."""


class CancellationError(TorwaveError):
    """Input lacks a required cancellation (nonzero mean where mean zero is needed)."""


class DegeneracyError(TorwaveError):
    """Random construction degenerated repeatedly (e.g. atom orthogonalization)."""


class ContractError(TorwaveError):
    """Operation invoked outside its contract (e.g. sublinear operator where linear is required)."""


class UsageError(TorwaveError):
    """Bad harness/CLI usage: unknown suite, malformed config."""


class FileFormatError(TorwaveError):
    """Malformed sampled-function file."""
