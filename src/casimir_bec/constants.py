"""Physical constants and unit conversions.

Everything internal runs in SI double precision; energies cross module
boundaries in joules.  Human-facing output converts energies to ordinary
frequencies, f = E / (2*pi*hbar), and lengths to micrometres, which is the
convention used for every benchmark number in this package.
"""

from __future__ import annotations

import math

# SI constants: c and k_B are exact by definition, hbar is the CODATA 2018
# recommended value to the digits stored.
HBAR = 1.054_571_817e-34  # J s
C = 299_792_458.0         # m / s
K_B = 1.380_649e-23       # J / K

TWO_PI = 2.0 * math.pi


def energy_to_frequency(energy):
    """Energy in J to ordinary frequency in Hz, f = E / (2*pi*hbar)."""
    return energy / (TWO_PI * HBAR)


def frequency_to_energy(frequency):
    """Ordinary frequency in Hz to energy in J, E = 2*pi*hbar*f."""
    return TWO_PI * HBAR * frequency
