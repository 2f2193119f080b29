"""Bundled demonstration presets.

Three named presets cover the standard demonstrations of this system:

* ``fig3`` - hybridization power sweep: the mirror branch softens with
  drive until it crosses the sphere branch, where the two oscillators
  exchange occupation (mirror at 10 kappa_c, sphere at 3.4 kappa_c,
  effective detuning -27.2 kappa_c, baths at 1 K).
* ``fig4`` - mechanical squeezing sweep at zero-temperature baths with
  the quadratic coupling scaled up by 100 (mirror at 20 kappa_c, sphere
  at 10 kappa_c, effective detuning -10 kappa_c).
* ``fig2`` - cooling-landscape protocol: minimize the sphere occupation
  over detuning and drive per (omega1, omega2) cell, mirror bath at
  50 mK, sphere bath at 1 K.

The fig3/fig4 coupling constants are pinned to their published rounded
values rather than re-derived, so any discrepancy between the derivation
chain and the quoted set stays visible in tests instead of being masked.
"""

import numpy as np

from .params import (ModelParams, bose_occupation, drive_from_watts,
                     reference_params)
from .sweeps import DETUNING_BOUNDS, DRIVE_BOUNDS

PRESET_NAMES = ("fig2", "fig3", "fig4")

#: mechanical damping rates of the reference set in units of kappa_c
GAMMA1 = 2.8e-3   # 2*pi*140 Hz / (2*pi*50 kHz)
GAMMA2 = 1e-8     # 2*pi*0.5 mHz / (2*pi*50 kHz)

#: logarithmic power points of the fig3 and fig4 sweep grids
SWEEP_POINTS = 200


def fig3_model() -> ModelParams:
    ref = reference_params()
    kappa = ref.cavity_decay
    return ModelParams(
        omega1=10.0, omega2=3.4, gamma1=GAMMA1, gamma2=GAMMA2,
        g1=1.0e-3, g2=-2.4e-10, chi=3.7e-3,
        drive=0.0,
        n1=bose_occupation(10.0 * kappa, 1.0),
        n2=bose_occupation(3.4 * kappa, 1.0),
        detuning=-27.2, detuning_mode="effective",
    )


def fig3_powers_watts():
    """Zero plus a logarithmic power grid bracketing the hybridization
    window and the instability threshold."""
    return np.concatenate([[0.0], np.logspace(np.log10(1.0e-3),
                                              np.log10(3.2e-3), SWEEP_POINTS)])


def fig4_model(scaled=True) -> ModelParams:
    """Squeezing preset; `scaled=False` undoes the x100 on the quadratic
    coupling to recover the directly derived rate."""
    g2 = -8.0e-9 if scaled else -8.0e-11
    return ModelParams(
        omega1=20.0, omega2=10.0, gamma1=GAMMA1, gamma2=GAMMA2,
        g1=7.2e-4, g2=g2, chi=4.5e-3,
        drive=0.0, n1=0.0, n2=0.0,
        detuning=-10.0, detuning_mode="effective",
    )


def fig4_powers_watts():
    return np.concatenate([[0.0], np.logspace(np.log10(1.0e-5),
                                              np.log10(8.0e-4), SWEEP_POINTS)])


def fig2_protocol():
    """Cooling-landscape protocol: grids, bounds and the base parameters."""
    return {
        "base": reference_params(bath_temp_mirror=0.050, bath_temp_sphere=1.0),
        "omega1": np.array([10.0]),
        "omega2": np.array([1.5, 2.0, 2.5, 3.0, 3.4, 4.0, 5.0, 6.5, 8.0]),
        "detuning_bounds": DETUNING_BOUNDS,
        "drive_bounds": DRIVE_BOUNDS,
    }


def preset_drives(name):
    """Drive grid (model units) for a sweep preset."""
    ref = reference_params()
    if name == "fig3":
        return drive_from_watts(ref, fig3_powers_watts())
    if name == "fig4":
        return drive_from_watts(ref, fig4_powers_watts())
    raise ValueError(f"no drive grid for preset {name!r}")
