"""Exception types shared across the package, and the float-range guard that raises one."""

from contextlib import contextmanager

import numpy as np


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


@contextmanager
def float_range(quantity: str):
    """Refuse an overflow, a division by zero or a NaN in the block, naming `quantity`."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise PhysicsDomainError(f"{quantity} leaves the float range ({exc.args[-1]})") from exc
