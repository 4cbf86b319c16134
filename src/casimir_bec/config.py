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
Each key's kind, unit table, conversion and box [low, high] live in one table,
``_SCHEMA``.  Unknown keys are rejected; all problems with single keys in a
file are reported at once, each with its line number.  A rule across keys
or a check of the built dataclasses refuses at the line of the key at fault,
or else at its section's header line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .constants import TWO_PI, frequency_to_energy
from .condensate import TrapConfig
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


class _Key(NamedTuple):
    """Everything the parser knows about one key."""

    kind: str                    # a unit table, or "number", "int", "string"
    required: bool = False
    many: int = 1                # the most values of a comma-separated list
    post: Callable[[float], float] = float  # applied after the unit factor
    box: tuple[float, float] | None = None  # [low, high] in the table's base unit


def _angular(frequency: float) -> float:
    return TWO_PI * frequency


# Every numeric key lies in a closed box, in the base unit of its table (Hz
# before the 2*pi, m, s, K, rad/m, m^3, kg), decades wider than any cold-atom
# setup; README states each box and its reason.  A key that divides has its
# low end away from 0.  Inside the boxes every derived quantity stays finite.
# A BdG basis needs one plane wave on each side, a sampled table two points,
# the DSF grid 8 (dsf_lda's own floor); the grid tops keep one run's arrays
# in the hundreds of MB.  An amplitude list holds at most 64 harmonics.
_SCHEMA: dict[str, dict[str, _Key]] = {
    "species": {
        "name": _Key("string"),
        "mass": _Key("mass", box=(1e-28, 1e-22)),
        "scattering_length": _Key("length", box=(1e-12, 1e-6)),
        "polarizability_volume": _Key("volume", box=(1e-33, 1e-25)),
        "transition_wavelength": _Key("length", box=(1e-9, 1e-3)),
    },
    "trap": {
        "omega_r": _Key("frequency", required=True, post=_angular, box=(1.0, 1e7)),
        "omega_x": _Key("frequency", required=True, post=_angular, box=(1e-3, 1e6)),
        "atoms": _Key("number", required=True, box=(1.0, 1e12)),
        "u_n_offset": _Key("frequency", post=frequency_to_energy, box=(-1e6, 1e6)),
        "t_bec": _Key("temperature", box=(1e-12, 1e-2)),
    },
    "surface": {
        "z_cm": _Key("length", required=True, box=(1e-9, 10.0)),
        "lambda_c": _Key("length", required=True, box=(1e-8, 1e-2)),
        "h": _Key("length", required=True, many=64, box=(0.0, 1e-3)),
        "lambda_c2": _Key("length", box=(1e-8, 1e-2)),
        "h2": _Key("length", many=64, box=(0.0, 1e-3)),
        "eta_f": _Key("number", box=(0.0, 1.0)),
        "response_file": _Key("string"),
        "t_env": _Key("temperature", box=(1e-6, 1e5)),
    },
    "bragg": {
        "q": _Key("wavenumber", box=(1.0, 1e10)),
        "harmonic": _Key("int", post=int, box=(1, 1000)),
        "omega": _Key("frequency", post=_angular, box=(-1e9, 1e9)),
        "v_b": _Key("number", box=(0.0, 1e6)),
        "tau": _Key("time", box=(1e-9, 1e4)),
    },
    "numerics": {
        "density_points": _Key("int", post=int, box=(2, 1_000_000)),
        "bdg_cutoff": _Key("int", post=int, box=(1, 1024)),
        "bdg_bands": _Key("int", post=int, box=(1, 2049)),
        "bdg_qpoints": _Key("int", post=int, box=(1, 10_000)),
        "omega_points": _Key("int", post=int, box=(8, 1_000_000)),
        "time_points": _Key("int", post=int, box=(2, 1_000_000)),
        "branch_points": _Key("int", post=int, box=(2, 1_000_000)),
    },
}


@dataclass(frozen=True)
class BraggSettings:
    """Probe settings; omega/tau default to the resonance and 100*hbar/E_B
    at run time when left unset."""

    harmonic: int = 1
    q: float | None = None       # rad/m; a config sets q or harmonic, not both
    omega: float | None = None   # rad/s
    v_b: float = 1.0
    tau: float | None = None     # s


@dataclass(frozen=True)
class Numerics:
    density_points: int = 2049
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


def _convert(raw: _RawValue, spec: _Key, where: str, errors: list[str]):
    if spec.kind == "string":
        return raw.text
    parts = raw.text.split()
    table = _UNIT_TABLES.get(spec.kind)
    if table is not None:
        if len(parts) < 2 or parts[-1] not in table:
            units = ", ".join(sorted(table))
            if parts and not _is_number_like(parts[-1]):
                errors.append(f"{where}: expected a {spec.kind} unit ({units}), got {parts[-1]!r}")
            else:
                errors.append(f"{where}: missing {spec.kind} unit ({units}) on value {raw.text!r}")
            return None
        unit_factor, number_text = table[parts[-1]], " ".join(parts[:-1])
    elif len(parts) > 1 and not _is_number_like(parts[-1]):
        errors.append(f"{where}: value {raw.text!r} must be dimensionless (no unit)")
        return None
    else:
        unit_factor, number_text = 1.0, raw.text

    pieces = [p.strip() for p in number_text.split(",")]
    if len(pieces) > 1 and spec.many == 1:
        errors.append(f"{where}: a single value is expected, got a list {raw.text!r}")
        return None
    if len(pieces) > spec.many:
        errors.append(f"{where}: at most {spec.many} values, got {len(pieces)}")
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
        if spec.kind == "int" and number != int(number):
            errors.append(f"{where}: expected an integer, got {piece!r}")
            return None
        value, (low, high) = number * unit_factor, spec.box
        if not low <= value <= high:
            unit = next((f" {u}" for u, f in (table or {}).items() if f == 1.0), "")
            errors.append(f"{where}: must lie in [{low:g}{unit}, {high:g}{unit}], "
                          f"got {raw.text}")
            return None
        values.append(spec.post(value))
    return values if spec.many > 1 else values[0]


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text, path=path)


def parse_config_text(text: str, path: str = "<string>") -> RunConfig:
    sections, section_lines, errors = _tokenize(path, text)
    for name in ("trap", "surface"):
        if name not in sections:
            errors.append(f"{path}: missing required section [{name}]")

    values: dict[str, dict[str, object]] = {}
    for section, keys in sections.items():
        schema = _SCHEMA.get(section)
        if schema is None:
            errors.append(f"{path}:{section_lines[section]}: unknown section [{section}]")
            continue
        out: dict[str, object] = {}
        for key, raw in keys.items():
            where = f"{path}:{raw.line}: [{section}] {key}"
            if key not in schema:
                errors.append(f"{where}: unknown key")
                continue
            converted = _convert(raw, schema[key], where, errors)
            if converted is not None:
                out[key] = converted
        missing = sorted(k for k, spec in schema.items() if spec.required and k not in keys)
        if missing:
            errors.append(f"{path}:{section_lines[section]}: [{section}] missing keys: "
                          + ", ".join(missing))
        values[section] = out

    # The one rule across keys: a BdG basis of 2*bdg_cutoff + 1 plane waves
    # holds that many bands.  A key the file set that failed its own check
    # is not compared.
    numerics, raw_numerics = values.get("numerics", {}), sections.get("numerics", {})
    if all(key in numerics or key not in raw_numerics for key in ("bdg_cutoff", "bdg_bands")):
        cutoff = numerics.get("bdg_cutoff", Numerics.bdg_cutoff)
        bands = numerics.get("bdg_bands", Numerics.bdg_bands)
        if bands > 2 * cutoff + 1:
            key = "bdg_bands" if "bdg_bands" in numerics else "bdg_cutoff"
            errors.append(f"{path}:{raw_numerics[key].line}: [numerics] {key}: "
                          f"bdg_bands = {bands} exceeds the 2*bdg_cutoff + 1 = "
                          f"{2 * cutoff + 1} bands of the basis")

    if errors:
        raise ConfigurationError("\n".join(errors))
    return _assemble(values, sections, section_lines, path)


def _assemble(values, sections, section_lines, path) -> RunConfig:
    """Build the run from converted values.  A refusal, from a dataclass
    check or a rule across keys, names the line of the key at fault, or
    else its section's header line."""

    def refuse(section, message, key=None):
        line = sections[section][key].line if key else section_lines[section]
        return ConfigurationError(f"{path}:{line}: [{section}] {message}")

    def build(section, factory, *args, **kwargs):
        try:
            return factory(*args, **kwargs)
        except ConfigurationError as exc:
            raise refuse(section, exc) from None

    sp_v = dict(values.get("species", {}))
    species = build("species", species_lookup, sp_v.pop("name", "rb87"), **sp_v)

    # Only keys the file set are passed on: each default lives in its dataclass.
    # t_bec and t_env are read from [trap] and [surface] but belong to the run.
    trap_v = dict(values["trap"])
    surf_v = dict(values["surface"])
    run_v = {key: section.pop(key)
             for section, key in ((trap_v, "t_bec"), (surf_v, "t_env")) if key in section}
    trap_v["atom_number"] = trap_v.pop("atoms")
    trap = build("trap", TrapConfig, **trap_v)

    # One key of each pair: a response table replaces the kernel eta_f scales, q replaces harmonic.
    for section, first, second in (("surface", "eta_f", "response_file"),
                                   ("bragg", "harmonic", "q")):
        if {first, second} <= sections.get(section, {}).keys():
            raise refuse(section, f"give {first} or {second}, not both", first)
    if ("lambda_c2" in surf_v) != ("h2" in surf_v):
        given, missing = ("lambda_c2", "h2") if "lambda_c2" in surf_v else ("h2", "lambda_c2")
        raise refuse("surface", f"{given} given without {missing}", given)
    fundamentals = [
        build("surface", Corrugation, k_c=TWO_PI / surf_v[lam], amplitudes=tuple(surf_v[h]))
        for lam, h in (("lambda_c", "h"), ("lambda_c2", "h2")) if lam in surf_v]
    if "response_file" in surf_v:  # a relative table lies next to the config file
        surf_v["response_file"] = os.path.join(os.path.dirname(path), surf_v["response_file"])
    surface = build(
        "surface", SurfaceConfig,
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
