"""Run-configuration files: INI-style sections, unit-suffixed values.

Every physical value carries an explicit unit, e.g.::

    [trap]
    omega_r = 2.7 kHz     # ordinary frequency, converted to angular internally
    omega_x = 0.83 Hz
    atoms   = 1e4

    [surface]
    z_cm     = 3 um
    lambda_c = 9.75 um
    h        = 1 um       # lists allowed: h = 1, 0.5 um
    eta_f    = 1.0

Frequencies in config files are ordinary frequencies (Hz); the package
converts them to angular frequencies (x 2*pi) on ingestion.  Energy-like
keys (u_n_offset) are also given in Hz and converted via E = 2*pi*hbar*f.
Unknown keys are rejected; all problems in a file are reported at once
with their line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import TWO_PI, frequency_to_energy
from .condensate import DENSITY_POINTS_DEFAULT, TrapConfig
from .errors import ConfigurationError
from .species import AtomSpecies, species_lookup
from .surface import Corrugation, SurfaceConfig

_UNIT_TABLES = {
    "frequency": {"Hz": 1.0, "mHz": 1e-3, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
               "nm": 1e-9, "pm": 1e-12},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "temperature": {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "µK": 1e-6, "nK": 1e-9},
    "wavenumber": {"rad/m": 1.0, "rad/um": 1e6, "rad/µm": 1e6},
    "volume": {"m^3": 1.0, "m3": 1.0, "nm^3": 1e-27, "um^3": 1e-18},
    "mass": {"kg": 1.0, "u": 1.66053906660e-27, "amu": 1.66053906660e-27},
}

# kind -> (unit table or None, post-conversion)
_KINDS = {
    "frequency_angular": ("frequency", lambda v: TWO_PI * v),
    "frequency": ("frequency", lambda v: v),
    "energy_hz": ("frequency", frequency_to_energy),
    "length": ("length", lambda v: v),
    "time": ("time", lambda v: v),
    "temperature": ("temperature", lambda v: v),
    "wavenumber": ("wavenumber", lambda v: v),
    "volume": ("volume", lambda v: v),
    "mass": ("mass", lambda v: v),
    "count": (None, lambda v: v),
    "dimensionless": (None, lambda v: v),
    "int": (None, int),
    "string": (None, str),
}

_SPECIES_FIELD_KINDS = {
    "mass": "mass",
    "scattering_length": "length",
    "polarizability_volume": "volume",
    "transition_wavelength": "length",
}

# section -> key -> (kind, required, list allowed)
_SCHEMA: dict[str, dict[str, tuple[str, bool, bool]]] = {
    "species": {
        "name": ("string", False, False),
        "mass": ("mass", False, False),
        "scattering_length": ("length", False, False),
        "polarizability_volume": ("volume", False, False),
        "transition_wavelength": ("length", False, False),
    },
    "trap": {
        "omega_r": ("frequency_angular", True, False),
        "omega_x": ("frequency_angular", True, False),
        "atoms": ("count", True, False),
        "u_n_offset": ("energy_hz", False, False),
        "t_bec": ("temperature", False, False),
    },
    "surface": {
        "z_cm": ("length", True, False),
        "lambda_c": ("length", False, False),
        "k_c": ("wavenumber", False, False),
        "h": ("length", False, True),
        "lambda_c2": ("length", False, False),
        "k_c2": ("wavenumber", False, False),
        "h2": ("length", False, True),
        "eta_f": ("dimensionless", False, False),
        "response_file": ("string", False, False),
        "t_env": ("temperature", False, False),
    },
    "bragg": {
        "q": ("wavenumber", False, False),
        "harmonic": ("int", False, False),
        "omega": ("frequency_angular", False, False),
        "v_b": ("dimensionless", False, False),
        "tau": ("time", False, False),
    },
    "numerics": {
        "density_points": ("int", False, False),
        "bdg_cutoff": ("int", False, False),
        "bdg_bands": ("int", False, False),
        "bdg_qpoints": ("int", False, False),
        "omega_points": ("int", False, False),
        "time_points": ("int", False, False),
        "branch_points": ("int", False, False),
    },
}

_REQUIRED_SECTIONS = ("trap", "surface")


@dataclass(frozen=True)
class BraggSettings:
    """Probe settings; omega/tau default to the resonance and 100*hbar/E_B
    at run time when left unset."""

    harmonic: int = 1
    q: float | None = None       # rad/m; overrides harmonic when set
    omega: float | None = None   # rad/s
    v_b: float = 1.0
    tau: float | None = None     # s


@dataclass(frozen=True)
class Numerics:
    density_points: int = DENSITY_POINTS_DEFAULT
    bdg_cutoff: int = 16
    bdg_bands: int = 8
    bdg_qpoints: int = 33
    omega_points: int = 2001
    time_points: int = 512
    branch_points: int = 129


@dataclass(frozen=True)
class RunConfig:
    species: AtomSpecies
    trap: TrapConfig
    surface: SurfaceConfig
    bragg: BraggSettings
    numerics: Numerics
    t_env: float = 300.0
    t_bec: float = 1e-9
    path: str = "<builtin>"


@dataclass
class _RawValue:
    text: str
    line: int


def _tokenize(path: str, text: str):
    """(section, key) -> raw value with line numbers; duplicate keys and
    stray lines are collected as errors."""
    sections: dict[str, dict[str, _RawValue]] = {}
    section_lines: dict[str, int] = {}
    errors: list[str] = []
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                errors.append(f"{path}:{lineno}: empty section name")
                current = None
            elif current in sections:
                errors.append(f"{path}:{lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
                section_lines[current] = lineno
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"{path}:{lineno}: key outside any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in sections[current]:
            errors.append(f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _RawValue(text=value.strip(), line=lineno)
    return sections, section_lines, errors


def _convert(raw: _RawValue, kind: str, want_list: bool, where: str, errors: list[str]):
    table_name, post = _KINDS[kind]
    if kind == "string":
        return raw.text
    parts = raw.text.split()
    unit_factor = None
    if table_name is not None:
        table = _UNIT_TABLES[table_name]
        if len(parts) >= 2 and parts[-1] in table:
            unit_factor = table[parts[-1]]
            number_text = " ".join(parts[:-1])
        else:
            suffix = parts[-1] if parts and not _is_number_like(parts[-1]) else None
            if suffix is not None:
                errors.append(
                    f"{where}: expected a {table_name} unit ({', '.join(sorted(table))}), "
                    f"got {suffix!r}"
                )
                return None
            errors.append(
                f"{where}: missing {table_name} unit "
                f"({', '.join(sorted(table))}) on value {raw.text!r}"
            )
            return None
    else:
        if len(parts) > 1 and not _is_number_like(parts[-1]):
            errors.append(f"{where}: value {raw.text!r} must be dimensionless (no unit)")
            return None
        number_text = raw.text
        unit_factor = 1.0

    pieces = [p.strip() for p in number_text.split(",")]
    if len(pieces) > 1 and not want_list:
        errors.append(f"{where}: a single value is expected, got a list {raw.text!r}")
        return None
    values = []
    for piece in pieces:
        try:
            number = float(piece)
        except ValueError:
            errors.append(f"{where}: cannot parse number {piece!r}")
            return None
        if not math.isfinite(number):
            errors.append(f"{where}: value must be finite, got {piece!r}")
            return None
        if kind == "int" and number != int(number):
            errors.append(f"{where}: expected an integer, got {piece!r}")
            return None
        values.append(post(number * unit_factor))
    return values if want_list else values[0]


def _is_number_like(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run config; every error in the file is
    reported in one ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text, path=path)


def parse_config_text(text: str, path: str = "<string>") -> RunConfig:
    sections, section_lines, errors = _tokenize(path, text)

    custom_species: dict[str, AtomSpecies] = {}
    values: dict[str, dict[str, object]] = {}

    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            errors.append(f"{path}: missing required section [{name}]")

    for section, keys in sections.items():
        if section.startswith("species."):
            species_name = section.split(".", 1)[1]
            fields = {}
            for key, raw in keys.items():
                where = f"{path}:{raw.line}: [{section}] {key}"
                if key not in _SPECIES_FIELD_KINDS:
                    errors.append(f"{where}: unknown key")
                    continue
                converted = _convert(raw, _SPECIES_FIELD_KINDS[key], False, where, errors)
                if converted is not None:
                    fields[key] = converted
            missing = sorted(set(_SPECIES_FIELD_KINDS) - set(fields))
            if missing:
                errors.append(
                    f"{path}:{section_lines[section]}: [{section}] missing keys: "
                    + ", ".join(missing)
                )
            else:
                try:
                    custom_species[species_name.lower()] = AtomSpecies(name=species_name, **fields)
                except ConfigurationError as exc:
                    errors.append(f"{path}:{section_lines[section]}: {exc}")
            continue
        if section not in _SCHEMA:
            errors.append(f"{path}:{section_lines[section]}: unknown section [{section}]")
            continue
        schema = _SCHEMA[section]
        out: dict[str, object] = {}
        for key, raw in keys.items():
            where = f"{path}:{raw.line}: [{section}] {key}"
            if key not in schema:
                errors.append(f"{where}: unknown key")
                continue
            kind, _, want_list = schema[key]
            converted = _convert(raw, kind, want_list, where, errors)
            if converted is not None:
                out[key] = converted
        missing = sorted(k for k, (_, required, _) in schema.items()
                         if required and k not in keys)
        if missing:
            errors.append(
                f"{path}:{section_lines[section]}: [{section}] missing required keys: "
                + ", ".join(missing)
            )
        _check_ranges(section, keys, out, path, errors)
        values[section] = out

    if errors:
        raise ConfigurationError("\n".join(errors))

    try:
        return _assemble(values, custom_species, path)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


# Lower bound of each range-checked key, as (minimum, whether the minimum
# itself is refused).  A BdG basis needs one plane wave on each side and one
# q-point and band; a sampled table needs two points; the DSF grid needs 8
# (dsf_lda's own floor).  The probe needs a positive wavenumber and pulse
# length; harmonic n probes q = n*k_c/2.  A wavelength sets k_c = 2*pi/lambda.
_MINIMUM = {
    "surface": {"lambda_c": (0, True), "lambda_c2": (0, True)},
    "numerics": {
        "density_points": (2, False),
        "bdg_cutoff": (1, False),
        "bdg_bands": (1, False),
        "bdg_qpoints": (1, False),
        "omega_points": (8, False),
        "time_points": (2, False),
        "branch_points": (2, False),
    },
    "bragg": {
        "harmonic": (1, False),
        "q": (0, True),
        "tau": (0, True),
    },
}


def _check_ranges(section, keys, out, path, errors: list[str]) -> None:
    """Range checks from _MINIMUM, each reported at the line that set the key."""
    for key, (minimum, strict) in _MINIMUM.get(section, {}).items():
        if key in out and (out[key] <= minimum if strict else out[key] < minimum):
            errors.append(f"{path}:{keys[key].line}: [{section}] {key}: "
                          f"must be {'>' if strict else '>='} {minimum}, got {keys[key].text}")
    if section != "numerics":
        return
    cutoff = out.get("bdg_cutoff", Numerics.bdg_cutoff)
    bands = out.get("bdg_bands", Numerics.bdg_bands)
    if cutoff >= 1 and bands > 2 * cutoff + 1:
        key = "bdg_bands" if "bdg_bands" in out else "bdg_cutoff"
        errors.append(f"{path}:{keys[key].line}: [numerics] {key}: bdg_bands = {bands} "
                      f"exceeds the 2*bdg_cutoff + 1 = {2 * cutoff + 1} bands of the basis")


def _assemble(values, custom_species, path) -> RunConfig:
    sp_section = dict(values.get("species", {}))
    name = str(sp_section.pop("name", "rb87"))
    if name.lower() in custom_species:
        base = custom_species[name.lower()]
        species = base if not sp_section else species_lookup(
            name, **{**{f: getattr(base, f) for f in _SPECIES_FIELD_KINDS}, **sp_section}
        )
    else:
        species = species_lookup(name, **sp_section)

    # Only keys the file set are passed on: each default lives in its dataclass.
    # t_bec and t_env are read from [trap] and [surface] but belong to the run.
    trap_v = dict(values["trap"])
    surf_v = dict(values["surface"])
    run_v = {key: section.pop(key)
             for section, key in ((trap_v, "t_bec"), (surf_v, "t_env")) if key in section}
    trap_v["atom_number"] = trap_v.pop("atoms")
    trap = TrapConfig(**trap_v)

    fundamentals = []
    for lam_key, k_key, h_key in (("lambda_c", "k_c", "h"), ("lambda_c2", "k_c2", "h2")):
        has_lam, has_k = lam_key in surf_v, k_key in surf_v
        if has_lam and has_k:
            raise ConfigurationError(f"[surface] give {lam_key} or {k_key}, not both")
        if not (has_lam or has_k):
            if lam_key == "lambda_c":
                raise ConfigurationError("[surface] needs lambda_c or k_c")
            if h_key in surf_v:
                raise ConfigurationError(f"[surface] {h_key} given without {lam_key} or {k_key}")
            continue
        if h_key not in surf_v:
            raise ConfigurationError(f"[surface] missing corrugation amplitudes {h_key}")
        k_c = surf_v[k_key] if has_k else TWO_PI / surf_v[lam_key]
        fundamentals.append(Corrugation(k_c=k_c, amplitudes=tuple(surf_v[h_key])))
    surface = SurfaceConfig(
        fundamentals=tuple(fundamentals),
        z_cm=surf_v["z_cm"],
        **{key: surf_v[key] for key in ("eta_f", "response_file") if key in surf_v},
    )

    return RunConfig(
        species=species,
        trap=trap,
        surface=surface,
        bragg=BraggSettings(**values.get("bragg", {})),
        numerics=Numerics(**values.get("numerics", {})),
        path=path,
        **run_v,
    )
