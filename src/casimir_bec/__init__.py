"""Casimir-Polder band gaps of elongated condensates, and the Bragg
observables that read them back.

Pipeline: surface corrugation -> lateral potential coefficients ->
quasi-1D condensate parameters -> perturbative band gaps (checked against
exact BdG diagonalization) -> dynamic structure factor and momentum
transfer.
"""

from .bdg import (
    BdgBands,
    BdgProblem,
    oracle_compare,
    solve_bdg,
    solve_bdg_bands,
    zone_edge_gap,
)
from .bragg import (
    BraggPulse,
    BraggSignal,
    DsfSpectrum,
    bragg_signal,
    dsf_homogeneous,
    dsf_lda,
)
from .condensate import (
    Quasi1DParams,
    TrapConfig,
    bogoliubov_dispersion,
    coherence_length,
    derive_quasi1d,
    free_kinetic_energy,
    regime_check,
    sound_speed,
    tf_axial_density,
)
from .config import RunConfig, parse_config, parse_config_text
from .constants import energy_to_frequency, frequency_to_energy
from .errors import (
    CasimirBecError,
    ConfigurationError,
    ContractError,
    ExtrapolationError,
    InstabilityError,
    PhysicsDomainError,
    UnsupportedConfigurationError,
)
from .species import RB87, AtomSpecies, species_lookup
from .spectrum import (
    GapEntry,
    GapReport,
    band_branches,
    coupled_mode_gaps,
    multibranch_dispersion,
    perturbative_gaps,
    suppression_factor,
)
from .surface import (
    Corrugation,
    LateralPotential,
    PotentialComponent,
    SurfaceConfig,
    lateral_coefficients,
    lateral_eval,
    load_tabulated_response,
    response_perfect,
)

__version__ = "0.1.0"
