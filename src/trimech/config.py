"""Strict plain-text configuration: `key = value` lines in [section]s.

Physical quantities carry a mandatory unit suffix (`wavelength = 1064 nm`);
frequency-type inputs are ordinary frequencies and are multiplied by 2*pi
on ingestion, since the parameter record stores angular rates.  Model-unit
sections are unit-free.  Parsing is strict: unknown keys, missing keys,
missing units and invariant violations are all reported with the line
number and key name.

Serialization helpers emit the structured text records used for pipeline
handoff and audit: `key = value` with 17 significant digits, matrices as
row-major plain-text grids.
"""

import math

import numpy as np

from . import __version__
from .errors import ConfigError
from .geometry import PROFILE_SAMPLES, PumpGeometry
from .params import PhysicalParams

_LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
           "nm": 1e-9, "pm": 1e-12}
_MASS = {"kg": 1.0, "g": 1e-3, "mg": 1e-6, "ug": 1e-9, "µg": 1e-9,
         "ng": 1e-12, "pg": 1e-15}
_FREQ = {"Hz": 1.0, "mHz": 1e-3, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TEMP = {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "µK": 1e-6, "nK": 1e-9}
_POWER = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6, "nW": 1e-9,
          "pW": 1e-12}
_DENSITY = {"kg/m^3": 1.0, "kg/m3": 1.0, "g/cm^3": 1e3, "g/cm3": 1e3}

#: field name -> (unit table or None, angular flag)
_PHYSICAL_FIELDS = {
    "wavelength": (_LENGTH, False),
    "cavity_length": (_LENGTH, False),
    "cavity_decay": (_FREQ, True),
    "mirror_mass": (_MASS, False),
    "mirror_freq": (_FREQ, True),
    "mirror_damping": (_FREQ, True),
    "sphere_radius": (_LENGTH, False),
    "sphere_density": (_DENSITY, False),
    "refractive_index": (None, False),
    "sphere_freq": (_FREQ, True),
    "sphere_damping": (_FREQ, True),
    "cavity_waist": (_LENGTH, False),
    "bath_temp_mirror": (_TEMP, False),
    "bath_temp_sphere": (_TEMP, False),
    "input_power": (_POWER, False),
    "sphere_site": (None, False),
}

_MODEL_KEYS = {"detuning", "detuning_mode"}
#: [sweep] kind -> (keys it requires, optional keys it reads) besides `kind`
_SWEEP_KINDS = {
    "power": (("points", "power_min", "power_max"), ()),
    "squeezing": (("points", "power_min", "power_max"), ()),
    "landscape": (("omega1_min", "omega1_max", "omega1_count",
                   "omega2_min", "omega2_max", "omega2_count"),
                  ("detuning_min", "detuning_max", "drive_min", "drive_max")),
}
_SWEEP_KEYS = {"kind"}.union(*(req + opt for req, opt in _SWEEP_KINDS.values()))
_GEOMETRY_KEYS = {"variant", "length", "wavelength", "reflectivity",
                  "transmissivity", "samples"}

_SECTIONS = {"physical", "model", "sweep", "geometry"}


def parse_sections(text):
    """Split config text into {section: {key: (raw_value, line_no)}}."""
    sections = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=line_no)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=line_no)
        if current is None:
            raise ConfigError("key outside any [section]", line=line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError("expected 'key = value'", key=key or None,
                              line=line_no)
        if key in current:
            raise ConfigError("duplicate key", key=key, line=line_no)
        current[key] = (value, line_no)
    return sections


def _parse_number(raw, key, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}", key=key, line=line) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", key=key,
                          line=line)
    return value


def _parse_count(raw, key, line, least):
    value = _parse_number(raw, key, line)
    if value != int(value) or value < least:
        raise ConfigError(f"expected an integer >= {least}", key=key, line=line)
    return int(value)


def _parse_quantity(raw, units, angular, key, line):
    parts = raw.split()
    if units is None:
        if len(parts) != 1:
            raise ConfigError("unexpected unit on dimensionless quantity",
                              key=key, line=line)
        return _parse_number(parts[0], key, line)
    if len(parts) != 2:
        raise ConfigError("expected '<number> <unit>' with a mandatory unit",
                          key=key, line=line)
    value = _parse_number(parts[0], key, line)
    unit = parts[1]
    if unit not in units:
        raise ConfigError(f"unknown unit {unit!r} (accepted: {sorted(units)})",
                          key=key, line=line)
    value *= units[unit]
    if angular:
        value *= 2.0 * math.pi
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite quantity, got {raw!r}", key=key,
                          line=line)
    return value


def _section(sections, name, keys, required=(), where=""):
    """The body of section [name]: ConfigError if the section is missing,
    holds a key outside `keys` or lacks a key of `required` (`where` ends
    the last two messages)."""
    if name not in sections:
        raise ConfigError(f"missing [{name}] section")
    body = sections[name]
    for key in body:
        if key not in keys:
            raise ConfigError("unknown key" + where, key=key, line=body[key][1])
    for key in required:
        if key not in body:
            raise ConfigError("missing mandatory key" + where, key=key)
    return body


def physical_params(sections) -> PhysicalParams:
    """Build a validated PhysicalParams from the [physical] section."""
    body = _section(sections, "physical", _PHYSICAL_FIELDS, _PHYSICAL_FIELDS)
    values = {}
    for key, (units, angular) in _PHYSICAL_FIELDS.items():
        raw, line = body[key]
        if key == "sphere_site":
            values[key] = raw
        else:
            values[key] = _parse_quantity(raw, units, angular, key, line)
    try:
        return PhysicalParams(**values)
    except ValueError as exc:
        raise ConfigError(f"invariant violation: {exc}") from exc


def model_section(sections):
    """Detuning settings from [model]: (detuning, detuning_mode)."""
    body = _section(sections, "model", _MODEL_KEYS, ("detuning",))
    raw, line = body["detuning"]
    detuning = _parse_number(raw, "detuning", line)
    mode = "effective"
    if "detuning_mode" in body:
        mode, line = body["detuning_mode"]
        if mode not in ("effective", "bare"):
            raise ConfigError("detuning_mode must be 'effective' or 'bare'",
                              key="detuning_mode", line=line)
    return detuning, mode


def sweep_section(sections):
    """Sweep settings from [sweep]: the keys its kind reads, type-checked,
    with power bounds as ordered ("watts" | "drive", value) pairs."""
    kind, line = _section(sections, "sweep", _SWEEP_KEYS, ("kind",))["kind"]
    if kind not in _SWEEP_KINDS:
        raise ConfigError("kind must be power, squeezing or landscape",
                          key="kind", line=line)
    required, optional = _SWEEP_KINDS[kind]
    body = _section(sections, "sweep", ("kind",) + required + optional,
                    required, where=f" for kind = {kind}")
    out = {"kind": kind}
    for key, (raw, line) in body.items():
        if key == "kind":
            continue
        if key in ("points", "omega1_count", "omega2_count"):
            # a frequency axis may be one cell, a drive grid may not
            out[key] = _parse_count(raw, key, line, 2 if key == "points" else 1)
        elif key in ("power_min", "power_max"):
            if len(raw.split()) == 2:  # watts with unit
                out[key] = ("watts", _parse_quantity(raw, _POWER, False, key, line))
            else:               # unit-free model drive
                out[key] = ("drive", _parse_number(raw, key, line))
            if not out[key][1] > 0:  # the sweep grid is logarithmic
                raise ConfigError("expected a positive power", key=key, line=line)
        else:
            out[key] = _parse_number(raw, key, line)
    if kind == "landscape":
        for axis in ("omega1", "omega2"):
            if out[f"{axis}_count"] == 1 and out[f"{axis}_min"] != out[f"{axis}_max"]:
                raise ConfigError(f"a count of 1 needs {axis}_min = {axis}_max",
                                  key=f"{axis}_count", line=body[f"{axis}_count"][1])
        return out
    (lo_unit, lo), (hi_unit, hi) = out["power_min"], out["power_max"]
    line = body["power_max"][1]
    if lo_unit != hi_unit:
        raise ConfigError("power_min and power_max must both be watts or both "
                          "model-unit drives", key="power_max", line=line)
    if not lo < hi:
        raise ConfigError("power_min must be below power_max", key="power_max",
                          line=line)
    return out


def geometry_section(sections):
    """Cavity geometry settings from [geometry]."""
    body = _section(sections, "geometry", _GEOMETRY_KEYS,
                    ("length", "wavelength", "reflectivity", "transmissivity"))
    out = {}
    for key in ("length", "wavelength"):
        raw, line = body[key]
        out[key] = _parse_quantity(raw, _LENGTH, False, key, line)
        if not out[key] > 0:
            raise ConfigError("expected a positive length", key=key, line=line)
    for key in ("reflectivity", "transmissivity"):
        raw, line = body[key]
        out[key] = _parse_number(raw, key, line)
    raw, line = body.get("variant", (PumpGeometry.FROM_FIXED_MIRROR.value, None))
    try:
        out["variant"] = PumpGeometry(raw)
    except ValueError:
        raise ConfigError("unknown geometry variant", key="variant",
                          line=line) from None
    raw, line = body.get("samples", (str(PROFILE_SAMPLES), None))
    out["samples"] = _parse_count(raw, "samples", line, 2)
    return out


# --- structured text records -------------------------------------------------

#: the one number format of every record and table: 17 significant
#: digits in scientific notation, lossless for float64
NUMBER_FORMAT = "%.16e"


def fmt(value) -> str:
    """`value` as a float in NUMBER_FORMAT."""
    return NUMBER_FORMAT % float(value)


def format_record(title, mapping):
    """`key = value` record block with a version header."""
    lines = [f"# trimech {__version__} - {title}"]
    for key, value in mapping.items():
        if isinstance(value, str):
            lines.append(f"{key} = {value}")
        elif isinstance(value, complex):
            lines.append(f"{key} = {fmt(value.real)} {fmt(value.imag)}j")
        else:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def format_matrix(name, matrix):
    """Row-major full-precision plain-text grid."""
    matrix = np.asarray(matrix)
    row = " ".join([NUMBER_FORMAT] * matrix.shape[1])
    lines = [f"# {name} ({matrix.shape[0]}x{matrix.shape[1]}, row-major)"]
    lines.extend(row % tuple(values) for values in matrix.tolist())
    return "\n".join(lines) + "\n"
