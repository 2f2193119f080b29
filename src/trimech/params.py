"""Laboratory parameters and their dimensionless model counterparts.

Two parameter records are used throughout:

* ``PhysicalParams`` holds lab-frame quantities in SI units. All
  frequencies, damping and decay rates are *angular* (rad/s); the config
  layer accepts ordinary frequencies in Hz and multiplies by 2*pi before
  constructing this record.
* ``ModelParams`` holds the dimensionless quantities the dynamics code
  works with. Every rate is expressed in units of the cavity amplitude
  decay rate kappa_c, so kappa_c == 1 in these units, and hbar == 1.

The optomechanical coupling rates are derived from first principles:
the linear rate from the cavity-length pull of the end mirror, the
quadratic rate from the polarizability of a small dielectric sphere in
the standing wave (independent of the sphere radius), and the
zero-point-fluctuation ratio chi from the two oscillator masses and
frequencies.  Because the formulas carry the full frequency dependence
(g1 ~ omega1^-1/2, g2 ~ omega2^-1, chi ~ sqrt(omega2/omega1)),
re-deriving at shifted mechanical frequencies applies the scaling laws
automatically.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# CODATA 2018 values.
HBAR = 1.054571817e-34      # J s
C_LIGHT = 2.99792458e8      # m/s
K_BOLTZMANN = 1.380649e-23  # J/K

_SITES = ("node", "antinode")


def _require_finite(record):
    """ValueError naming the first numeric field of `record` that is not
    finite."""
    for name, value in vars(record).items():
        if not isinstance(value, str) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Lab-frame system parameters, SI units, angular rates.  Every
    numeric field must be finite (ValueError naming it)."""

    wavelength: float        # m
    cavity_length: float     # m
    cavity_decay: float      # rad/s, amplitude decay rate kappa_c
    mirror_mass: float       # kg
    mirror_freq: float       # rad/s
    mirror_damping: float    # rad/s
    sphere_radius: float     # m
    sphere_density: float    # kg/m^3
    refractive_index: float  # dimensionless, > 1
    sphere_freq: float       # rad/s
    sphere_damping: float    # rad/s
    cavity_waist: float      # m
    bath_temp_mirror: float  # K
    bath_temp_sphere: float  # K
    input_power: float       # W
    sphere_site: str = "node"

    def __post_init__(self):
        _require_finite(self)
        positive = (
            ("wavelength", self.wavelength),
            ("cavity_length", self.cavity_length),
            ("cavity_decay", self.cavity_decay),
            ("mirror_mass", self.mirror_mass),
            ("mirror_freq", self.mirror_freq),
            ("mirror_damping", self.mirror_damping),
            ("sphere_radius", self.sphere_radius),
            ("sphere_density", self.sphere_density),
            ("sphere_freq", self.sphere_freq),
            ("sphere_damping", self.sphere_damping),
            ("cavity_waist", self.cavity_waist),
        )
        for name, value in positive:
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if self.refractive_index <= 1:
            raise ValueError(
                f"refractive_index must exceed 1, got {self.refractive_index!r}")
        for name, value in (("bath_temp_mirror", self.bath_temp_mirror),
                            ("bath_temp_sphere", self.bath_temp_sphere)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.input_power < 0:
            raise ValueError(f"input_power must be >= 0, got {self.input_power!r}")
        if self.sphere_site not in _SITES:
            raise ValueError(
                f"sphere_site must be one of {_SITES}, got {self.sphere_site!r}")
        if not self.sphere_mass > 0:
            raise ValueError("derived sphere mass is not positive")

    @property
    def sphere_mass(self):
        """Sphere mass from radius and density (kg)."""
        return self.sphere_density * (4.0 / 3.0) * math.pi * self.sphere_radius ** 3

    @property
    def cavity_freq(self):
        """Optical resonance frequency 2*pi*c/wavelength (rad/s)."""
        return 2.0 * math.pi * C_LIGHT / self.wavelength


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless system parameters, rates in units of kappa_c.  Every
    numeric field must be finite (ValueError naming it), and a bare
    detuning must leave its `root_window` a finite width.  The kernel
    reads a model through `rows`, its one-row `ParamRows`."""

    omega1: float    # mirror frequency
    omega2: float    # sphere frequency
    gamma1: float    # mirror damping
    gamma2: float    # sphere damping
    g1: float        # linear coupling rate
    g2: float        # quadratic coupling rate, sign encodes node(-)/antinode(+)
    chi: float       # zero-point-fluctuation ratio x01/x02
    drive: float     # |a_in|^2, input photon flux per kappa_c
    n1: float        # mirror bath occupation
    n2: float        # sphere bath occupation
    detuning: float  # effective or bare detuning, units of kappa_c
    detuning_mode: str = "effective"

    def __post_init__(self):
        _require_finite(self)
        if not self.omega1 > 0 or not self.omega2 > 0:
            raise ValueError("mechanical frequencies must be strictly positive")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("damping rates must be >= 0")
        if self.chi < 0:
            raise ValueError("chi must be >= 0")
        if self.drive < 0:
            raise ValueError("drive must be >= 0")
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("bath occupations must be >= 0")
        if self.detuning_mode not in ("effective", "bare"):
            raise ValueError(
                f"detuning_mode must be 'effective' or 'bare', got {self.detuning_mode!r}")
        if self.detuning_mode == "bare":
            lo, hi = root_window(self.detuning)
            if not math.isfinite(hi - lo):
                raise ValueError(f"bare detuning {self.detuning!r} leaves its root "
                                 f"window ({lo!r}, {hi!r}) no finite width")

    @functools.cached_property
    def rows(self):
        """This model as a one-row `ParamRows`, the record the kernel
        reads; built on first use.  Not a field: it takes no part in
        comparison, hashing, `asdict` or `replace`."""
        return ParamRows.stack([self])


def root_window(detuning):
    """The default window of effective detunings searched for the fixed
    points of a bare detuning: +/- (|detuning| + 50)."""
    half = abs(detuning) + 50.0
    return -half, half


class ParamRows(NamedTuple):
    """Model parameters of N stacked rows and every constant the stacked
    kernel (`steady.fixed_points`, `linear.linear_models`,
    `sweeps.solve_points`) derives from them alone: the one record type
    the kernel reads, so one stack can hold rows of different
    ModelParams, and a ModelParams is read as its one-row `rows`.

    `stack` takes the nine parameters the kernel reads from each model
    and derives the constants from the stacked arrays, the one place they
    are derived.  `take` gathers every field, so a landscape builds its
    cells' constants once and each kernel call of its search only gathers
    its rows'.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    chi: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    two_g2: np.ndarray          # 2 g2
    g2_chi: np.ndarray          # g2 chi
    two_g2_chi: np.ndarray      # (2 g2) chi
    g2_chi2: np.ndarray         # g2 (chi chi)
    two_g2_chi2: np.ndarray     # (2 g2) (chi chi)
    four_g2g2_chi2: np.ndarray  # (4 (g2 g2)) (chi chi)
    base_drift: np.ndarray      # (N, 6, 6)
    diffusion: np.ndarray       # (N, 6, 6)
    diffusion_max: np.ndarray   # max|D| per row, the Lyapunov contract's scale

    @classmethod
    def stack(cls, models):
        """One row per ModelParams of `models`.

        Each product is formed left to right, as the kernel's expressions
        group it, and a square is a product.  `base_drift` holds the drift
        entries that depend on no mean field, zero elsewhere: the cavity
        decay (-1 on both quadratures), omega_j and -2 gamma_j.
        `diffusion` is the symmetrized noise-input covariance D (kappa_c =
        1 units): vacuum optical input contributes 1 per cavity
        quadrature, each mechanical bath 2 gamma_j (2 n_j + 1) on its
        momentum row, and the three independent noises give no
        cross-correlations.
        """
        models = list(models)
        omega1, omega2, gamma1, gamma2, g1, g2, chi, n1, n2 = np.array(
            [[getattr(m, f) for m in models] for f in cls._fields[:9]], dtype=float)
        two_g2, chi2 = 2.0 * g2, chi * chi
        A = np.zeros((len(models), 6, 6))
        A[:, 0, 0] = A[:, 1, 1] = -1.0
        A[:, 2, 3] = omega1
        A[:, 3, 3] = -2.0 * gamma1
        A[:, 4, 5] = omega2
        A[:, 5, 5] = -2.0 * gamma2
        D = np.zeros((len(models), 6, 6))
        D[:, 0, 0] = D[:, 1, 1] = 1.0
        D[:, 3, 3] = 2.0 * gamma1 * (2.0 * n1 + 1.0)
        D[:, 5, 5] = 2.0 * gamma2 * (2.0 * n2 + 1.0)
        return _pass_through_read_only(cls(
            omega1, omega2, gamma1, gamma2, g1, g2, chi, n1, n2, two_g2,
            g2 * chi, two_g2 * chi, g2 * chi2, two_g2 * chi2,
            4.0 * (g2 * g2) * chi2, A, D, np.abs(D).max(axis=(1, 2))))

    @property
    def rows(self):
        """This record, so the kernel reads `m.rows` of a ModelParams and
        of a ParamRows alike."""
        return self

    def take(self, rows):
        """The record of the rows `rows` of this one."""
        rows = np.asarray(rows)
        return _pass_through_read_only(ParamRows(*[field[rows] for field in self]))


def _pass_through_read_only(rows):
    """`rows` with `diffusion` and `diffusion_max` read-only: the kernel
    hands both to its results as they are, so a caller that writes into a
    result's D cannot change the record, which a landscape reuses."""
    rows.diffusion.flags.writeable = False
    rows.diffusion_max.flags.writeable = False
    return rows


def zero_point_spread(mass, omega):
    """Ground-state position spread sqrt(hbar/(m*omega)) in metres."""
    return math.sqrt(HBAR / (mass * omega))


def linear_coupling(p: PhysicalParams) -> float:
    """Linear optomechanical rate of the end mirror (rad/s, positive).

    One zero-point displacement of the mirror changes the cavity length
    and hence pulls the resonance by (omega_c / L) * x_zp.
    """
    return p.cavity_freq / p.cavity_length * zero_point_spread(p.mirror_mass, p.mirror_freq)


def quadratic_coupling(p: PhysicalParams) -> float:
    """Quadratic coupling rate of the dielectric sphere (rad/s, signed).

    For a lossless sphere of refractive index n small against the
    wavelength the rate is

        g2 = +/- 12*pi * (n^2-1)/(n^2+2) * (omega_c/L) * hbar/(rho*(lambda*w)^2*omega2),

    negative when the sphere sits at a node of the intracavity standing
    wave, positive at an antinode.  The sphere radius cancels: the
    polarizability and the zero-point spread both scale with the volume.
    """
    n2 = p.refractive_index ** 2
    magnitude = (12.0 * math.pi * (n2 - 1.0) / (n2 + 2.0)
                 * p.cavity_freq / p.cavity_length
                 * HBAR / (p.sphere_density * (p.wavelength * p.cavity_waist) ** 2
                           * p.sphere_freq))
    return -magnitude if p.sphere_site == "node" else magnitude


def zpf_ratio(p: PhysicalParams) -> float:
    """Ratio of zero-point spreads x_zp,mirror / x_zp,sphere."""
    return math.sqrt(p.sphere_mass * p.sphere_freq / (p.mirror_mass * p.mirror_freq))


def bose_occupation(omega, temperature):
    """Mean thermal occupation of a mode at angular frequency omega.

    T = 0 returns exactly 0; otherwise 1/(exp(hbar*omega/(kB*T)) - 1),
    evaluated via expm1 so the high-T limit kB*T/(hbar*omega) is
    accurate.  ValueError unless omega > 0 and T >= 0, both finite.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not (temperature >= 0 and math.isfinite(temperature)):
        raise ValueError(
            f"temperature must be finite and >= 0, got {temperature!r}")
    if temperature == 0:
        return 0.0
    x = HBAR * omega / (K_BOLTZMANN * temperature)
    if x > 700.0:  # expm1 would overflow; occupation is e^-x to 1e-300
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def drive_from_watts(p: PhysicalParams, power_watts):
    """Input power in watts to model-unit photon flux |a_in|^2 / kappa_c.

    |a_in|^2 = P_in/(hbar*omega_L) with the drive frequency taken at the
    cavity resonance (detunings of tens of kappa_c: a sub-ppb correction).
    """
    return power_watts / (HBAR * p.cavity_freq) / p.cavity_decay


def watts_from_drive(p: PhysicalParams, drive):
    """Inverse of `drive_from_watts`."""
    return drive * p.cavity_decay * HBAR * p.cavity_freq


def nondimensionalize(p: PhysicalParams, detuning, detuning_mode="effective") -> ModelParams:
    """Convert lab parameters to model units (kappa_c == 1).

    `detuning` is given directly in units of kappa_c.  Coupling rates
    are re-derived from the formulas, so mechanical frequencies shifted
    away from any reference set scale g1, g2 and chi consistently.
    """
    kappa = p.cavity_decay
    if not kappa > 0:
        raise ValueError(f"cavity_decay must be positive, got {kappa!r}")
    return ModelParams(
        omega1=p.mirror_freq / kappa,
        omega2=p.sphere_freq / kappa,
        gamma1=p.mirror_damping / kappa,
        gamma2=p.sphere_damping / kappa,
        g1=linear_coupling(p) / kappa,
        g2=quadratic_coupling(p) / kappa,
        chi=zpf_ratio(p),
        drive=drive_from_watts(p, p.input_power),
        n1=bose_occupation(p.mirror_freq, p.bath_temp_mirror),
        n2=bose_occupation(p.sphere_freq, p.bath_temp_sphere),
        detuning=detuning,
        detuning_mode=detuning_mode,
    )


def reference_params(**overrides) -> PhysicalParams:
    """Built-in silica-sphere reference parameter set.

    1064 nm light in a 0.5 cm cavity of 2*pi*50 kHz amplitude decay, a
    40 ng mirror at 2*pi*1 MHz, and a 0.5 um silica sphere (rho = 2650
    kg/m^3, n = 1.5) trapped at 2*pi*200 kHz in a 40 um waist.  Keyword
    arguments override individual fields.
    """
    base = dict(
        wavelength=1064e-9,
        cavity_length=0.5e-2,
        cavity_decay=2.0 * math.pi * 50e3,
        mirror_mass=40e-12,
        mirror_freq=2.0 * math.pi * 1e6,
        mirror_damping=2.0 * math.pi * 140.0,
        sphere_radius=0.5e-6,
        sphere_density=2650.0,
        refractive_index=1.5,
        sphere_freq=2.0 * math.pi * 200e3,
        sphere_damping=2.0 * math.pi * 0.5e-3,
        cavity_waist=40e-6,
        bath_temp_mirror=0.050,
        bath_temp_sphere=1.0,
        input_power=1e-3,
        sphere_site="node",
    )
    base.update(overrides)
    return PhysicalParams(**base)
