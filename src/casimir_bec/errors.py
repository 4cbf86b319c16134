"""Exception types shared across the package.

No computation guards the float range: a config keeps each input inside its
box (``config._SCHEMA``), refused at its line, and ``run_scenario`` refuses a
NaN or infinity in any output before it writes a file.
"""


class CasimirBecError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CasimirBecError):
    """Bad or incomplete user input (config file, species registry)."""


class PhysicsDomainError(CasimirBecError, ValueError):
    """Argument outside the physical domain of a formula."""


class ExtrapolationError(CasimirBecError):
    """Tabulated response queried outside its grid; never extrapolated silently."""


class UnsupportedConfigurationError(CasimirBecError):
    """Setup outside the implemented scope (e.g. more than two fundamentals)."""


class InstabilityError(CasimirBecError):
    """Bogoliubov-de Gennes spectrum has a genuinely negative E^2 (dynamical instability)."""


class ContractError(CasimirBecError):
    """Mismatched inputs handed between pipeline stages."""
