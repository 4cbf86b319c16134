"""Atom species registry.

The registry ships with Rb-87; run configs may add species or override
individual fields (see config.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigurationError

_FIELDS = ("mass", "scattering_length", "polarizability_volume", "transition_wavelength")


@dataclass(frozen=True)
class AtomSpecies:
    """Parameters of the condensed atom.

    polarizability_volume is the static polarizability over eps0,
    alpha(0)/eps0, in m^3.  transition_wavelength enters regime
    diagnostics only, never a potential formula.
    """

    name: str
    mass: float                   # kg
    scattering_length: float      # m
    polarizability_volume: float  # m^3
    transition_wavelength: float  # m

    def __post_init__(self):
        for field_name in _FIELDS:
            value = getattr(self, field_name)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0.0:
                raise ConfigurationError(
                    f"species {self.name!r}: {field_name} must be positive and finite, got {value!r}"
                )


# Rb-87 mass from the AME2020 atomic-mass evaluation (86.909180 u), D2 line
# at 780.24 nm.  The scattering length is a documented package default, not
# a literature value: a = 5.0 nm puts the derived chemical potential of the
# reference trap within 0.5% of 2*pi*hbar x 493 Hz (see README); the common
# triplet value (~5.3 nm) lands about 4% higher.  Override via config.
RB87 = AtomSpecies(
    name="rb87",
    mass=1.44316060e-25,
    scattering_length=5.0e-9,
    polarizability_volume=47.3e-30,
    transition_wavelength=780.241e-9,
)

_REGISTRY: dict[str, AtomSpecies] = {"rb87": RB87}


def species_lookup(name: str, **overrides) -> AtomSpecies:
    """Return a registered species, optionally with field overrides.

    An unregistered name is accepted only when the overrides supply the
    complete field set.
    """
    unknown = sorted(set(overrides) - set(_FIELDS))
    if unknown:
        raise ConfigurationError(f"unknown species field(s): {', '.join(unknown)}")
    key = name.lower()
    if key in _REGISTRY:
        base = _REGISTRY[key]
        return replace(base, **overrides) if overrides else base
    missing = sorted(set(_FIELDS) - set(overrides))
    if missing:
        raise ConfigurationError(
            f"unknown species {name!r}; supply {', '.join(missing)} to define it"
        )
    return AtomSpecies(name=name, **overrides)

