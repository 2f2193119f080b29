"""Pumping geometries and the intracavity standing-wave profile.

A one-dimensional cavity can be pumped symmetrically from both ends,
through the fixed mirror, or through the moving mirror.  The choice
decides whether the nodal structure of the intracavity field moves with
the end mirror, which in turn sets the quadratic form (alpha*x1 - x2)^2
coupling the two oscillators:

    symmetric          -> (x1/2 - x2)^2   (chi -> chi/2)
    from_fixed_mirror  -> (x1 - x2)^2     (chi unchanged)
    from_moving_mirror -> x2^2            (chi -> 0, no cross-coupling)

Only the zero-point ratio chi is substituted when switching geometry;
the quadratic rate g2 itself is kept fixed, since it is set by the
sphere's polarizability and the mode geometry rather than by the pump
port.  A resonant cavity pumped through one mirror is symmetric under
coordinate inversion plus time reversal, which is what pins the node
structure tested below in the good-cavity limit.

The intracavity field at distance z from the right mirror is the sum
over round trips of the transmitted input,

    E(z) = t [e^{ik(L-z)} + r e^{ik(L+z)} + r^2 e^{ik(3L-z)} + ...]
         = t e^{ikL} / (1 - r^2 e^{2ikL}) * (r e^{ikz} + e^{-ikz}),

which factorizes into a resonance lineshape and a z-dependent profile.
Identical mirrors with real reflectivity r and transmissivity t are
assumed; reflection phases are absorbed into the effective length L.
In the good-cavity limit r -> -1 the profile reduces to 2|sin(kz)| with
nodes pinned to the right mirror, independent of L.
"""

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: default z samples of `field_profile_samples` and of a [geometry] config
PROFILE_SAMPLES = 2001


class PumpGeometry(enum.Enum):
    SYMMETRIC = "symmetric"
    FROM_FIXED_MIRROR = "from_fixed_mirror"
    FROM_MOVING_MIRROR = "from_moving_mirror"


@dataclass(frozen=True)
class CavitySpec:
    """One-dimensional two-mirror cavity with identical passive mirrors."""

    length: float          # m
    wavenumber: float      # 1/m
    reflectivity: float    # amplitude reflectivity, |r| < 1
    transmissivity: float  # amplitude transmissivity

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be positive")
        if not self.wavenumber > 0:
            raise ValueError("wavenumber must be positive")
        if abs(self.reflectivity) >= 1:
            raise ValueError("|reflectivity| must be < 1")
        if self.reflectivity ** 2 + self.transmissivity ** 2 > 1 + 1e-12:
            raise ValueError("passive mirror requires r^2 + t^2 <= 1")


def chi_for_geometry(geometry: PumpGeometry, chi):
    """Effective zero-point ratio entering the interaction for a geometry."""
    if chi < 0:
        raise ValueError("chi must be >= 0")
    if geometry is PumpGeometry.FROM_FIXED_MIRROR:
        return chi
    if geometry is PumpGeometry.SYMMETRIC:
        return 0.5 * chi
    return 0.0


def lineshape(spec: CavitySpec) -> complex:
    """Resonance factor t e^{ikL} / (1 - r^2 e^{2ikL}).

    |lineshape|^2 is periodic in kL with period pi; raises when the
    round-trip denominator vanishes (lossless mirrors exactly on
    resonance).
    """
    r, t = spec.reflectivity, spec.transmissivity
    kL = spec.wavenumber * spec.length
    denom = 1.0 - r * r * cmath.exp(2j * kL)
    if abs(denom) < 1e-12:
        raise NumericalError("cavity response diverges: r^2 e^{2ikL} = 1")
    return t * cmath.exp(1j * kL) / denom


def profile(z, spec: CavitySpec):
    """Position-dependent factor r e^{ikz} + e^{-ikz} at distance z from
    the right mirror; independent of the cavity length."""
    kz = spec.wavenumber * np.asarray(z, dtype=float)
    return spec.reflectivity * np.exp(1j * kz) + np.exp(-1j * kz)


def intracavity_field(z, spec: CavitySpec):
    """Closed-form intracavity field E(z) normalized to the input field.

    Valid for 0 <= z <= L.  Equals lineshape(spec) * profile(z, spec).
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0) or np.any(z_arr > spec.length):
        raise ValueError("z must lie inside the cavity, 0 <= z <= L")
    return lineshape(spec) * profile(z_arr, spec)


def field_profile_samples(spec: CavitySpec, samples=PROFILE_SAMPLES):
    """Two-column (z, |E(z)|^2) sampling across the cavity for export."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    z = np.linspace(0.0, spec.length, samples)
    intensity = np.abs(intracavity_field(z, spec)) ** 2
    return np.column_stack([z, intensity])
