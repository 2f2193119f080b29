"""Command-line front end.

Subcommands: derive, steady, linear, sweep, geometry, validate.  Inputs
come from a strict plain-text config (see config.py) or from a bundled
preset; outputs are structured text records, CSV tables (17 significant
digits) and JSON summaries written into the output directory.  Every
output file opens with a header echoing the resolved parameter set and
the tool version, and identical configs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 physics error (no stable
state where one is required, degenerate trap), 4 numerical fault.
"""

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import (NUMBER_FORMAT, ConfigError, fmt, format_matrix,
                     format_record, geometry_section, model_section,
                     parse_sections, physical_params, sweep_section)
from .errors import NumericalError, PhysicsError
from .geometry import CavitySpec, field_profile_samples, lineshape
from .linear import linear_model, physicality_floor
from .params import drive_from_watts, nondimensionalize, reference_params
from .presets import (PRESET_NAMES, fig2_protocol, fig3_model, fig4_model,
                      preset_drives)
from .steady import fixed_point, self_consistent_fixed_points, stationarity_residuals
from .sweeps import (DETUNING_BOUNDS, DRIVE_BOUNDS, check_landscape_inputs,
                     occupation_landscape, power_sweep, solve_points,
                     squeezing_sweep)
from .validate import ODE_TOL, PAIR_TOL, cross_check

EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4

#: presets that define a single model parameter set (steady, linear)
MODEL_PRESETS = {"fig3": fig3_model, "fig4": fig4_model}


def _read_config(args):
    if args.input is None:
        hint = " (or use --preset)" if hasattr(args, "preset") else ""
        raise ConfigError(f"an input config is required for this subcommand{hint}")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_sections(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


@contextmanager
def _config_values():
    """Report a ValueError raised on config values as a ConfigError.

    Only code that checks config input runs under this; a ValueError from
    anywhere else is an internal fault, not a config error.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invariant violation: {exc}") from exc


def _config_model(phys, sections):
    """ModelParams from the [model] section over the physical parameters."""
    detuning, mode = model_section(sections)
    with _config_values():
        return nondimensionalize(phys, detuning, mode)


def _model_from_args(args):
    """ModelParams of the preset, or of the config when no preset is given."""
    if args.preset != "none":
        return MODEL_PRESETS[args.preset]()
    sections = _read_config(args)
    return _config_model(physical_params(sections), sections)


def _branches(m):
    """Every self-consistent branch of a bare detuning, or the one fixed point."""
    if m.detuning_mode == "bare":
        return self_consistent_fixed_points(m)
    return [fixed_point(m)]


def _echo_header(mapping):
    lines = [f"# trimech {__version__}"]
    for key, value in mapping.items():
        lines.append(f"# {key} = {value}")
    return "\n".join(lines) + "\n"


def _model_echo(m):
    return {k: (v if isinstance(v, str) else fmt(v))
            for k, v in asdict(m).items()}


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _csv_table(header_echo, columns, data):
    """CSV text of the equal-length columns `data`, one per name in
    `columns`: each row formatted by one template, numbers in
    NUMBER_FORMAT and string columns as they are."""
    text = [len(col) and isinstance(col[0], str) for col in data]
    row = ",".join(["%s" if is_text else NUMBER_FORMAT for is_text in text])
    cells = [col if is_text else np.asarray(col, dtype=float).tolist()
             for col, is_text in zip(data, text)]
    lines = [header_echo.rstrip("\n"), ",".join(columns)]
    lines.extend(row % values for values in zip(*cells))
    return "\n".join(lines) + "\n"


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- subcommands --------------------------------------------------------------

def cmd_derive(args):
    sections = _read_config(args)
    m = _config_model(physical_params(sections), sections)
    record = format_record("model parameters (units of the cavity decay rate)",
                           asdict(m))
    path = _write(os.path.join(args.output_dir, "model_params.txt"), record)
    print(f"wrote {path}")
    return 0


def cmd_steady(args):
    m = _model_from_args(args)
    states = _branches(m)
    blocks = [_echo_header(_model_echo(m))]
    for i, s in enumerate(states):
        res = stationarity_residuals(m, s)
        blocks.append(format_record(
            f"classical steady state, branch {i} of {len(states)}",
            {
                "a_bar": complex(s.a_bar),
                "photon_number": s.photon_number,
                "x1_bar": s.x1_bar,
                "x2_bar": s.x2_bar,
                "Omega1": s.Omega1,
                "Omega2": s.Omega2,
                "delta_eff": s.delta_eff,
                "residual_cavity": res[0],
                "residual_p1": res[1],
                "residual_p2": res[2],
            }))
    path = _write(os.path.join(args.output_dir, "steady_state.txt"),
                  "\n".join(blocks))
    print(f"wrote {path} ({len(states)} branch(es))")
    return 0


def cmd_linear(args):
    m = _model_from_args(args)
    batch = solve_points(m, [s.delta_eff for s in _branches(m)], m.drive)
    blocks = [_echo_header(_model_echo(m))]
    any_stable = False
    for i in range(len(batch.status)):
        lm = batch.linear.model(i)
        blocks.append(format_matrix(f"drift matrix A, branch {i}", lm.drift))
        blocks.append(format_matrix(f"diffusion matrix D, branch {i}",
                                    lm.diffusion))
        eig_map = {}
        for j, ev in enumerate(np.sort_complex(lm.eigenvalues)):
            eig_map[f"eig_{j}"] = complex(ev)
        eig_map["stable"] = "true" if lm.stable else "false"
        blocks.append(format_record(f"eigenvalues, branch {i}", eig_map))
        if lm.stable:
            cov = batch.row(i)[2]
            blocks.append(format_matrix(f"covariance V, branch {i}", cov.V))
            blocks.append(format_record(f"derived scalars, branch {i}", {
                "n1": cov.n1, "n2": cov.n2,
                "var_x1": cov.var_x1, "var_p1": cov.var_p1,
                "var_x2": cov.var_x2, "var_p2": cov.var_p2,
                "S1": cov.S1, "S2": cov.S2,
                "physicality_floor": physicality_floor(cov.V),
            }))
            any_stable = True
    if not any_stable:
        raise PhysicsError("no stable branch; covariance undefined everywhere")
    path = _write(os.path.join(args.output_dir, "linear.txt"),
                  "\n".join(blocks))
    print(f"wrote {path}")
    return 0


def _sweep_job(args):
    """(kind, model, physical base, grid) of the preset or [sweep] config:
    a power or squeezing grid is its drives; a landscape has no model and
    its grid is (omega1, omega2, detuning_bounds, drive_bounds)."""
    if args.preset == "fig2":
        proto = fig2_protocol()
        return "landscape", None, proto["base"], (
            proto["omega1"], proto["omega2"], proto["detuning_bounds"],
            proto["drive_bounds"])
    if args.preset != "none":
        kind = "power" if args.preset == "fig3" else "squeezing"
        return (kind, MODEL_PRESETS[args.preset](), reference_params(),
                preset_drives(args.preset))
    sections = _read_config(args)
    phys = physical_params(sections)
    spec = sweep_section(sections)
    kind = spec["kind"]
    if kind == "landscape":
        omega1 = np.linspace(spec["omega1_min"], spec["omega1_max"],
                             spec["omega1_count"])
        omega2 = np.linspace(spec["omega2_min"], spec["omega2_max"],
                             spec["omega2_count"])
        bounds_det = (spec.get("detuning_min", DETUNING_BOUNDS[0]),
                      spec.get("detuning_max", DETUNING_BOUNDS[1]))
        bounds_drv = (spec.get("drive_min", DRIVE_BOUNDS[0]),
                      spec.get("drive_max", DRIVE_BOUNDS[1]))
        with _config_values():
            check_landscape_inputs(omega1, omega2, bounds_det, bounds_drv)
        return kind, None, phys, (omega1, omega2, bounds_det, bounds_drv)
    m = _config_model(phys, sections)
    if m.detuning_mode != "effective":
        raise ConfigError(f"{kind} sweeps require detuning_mode = effective")
    unit, lo = spec["power_min"]
    drives = np.logspace(math.log10(lo), math.log10(spec["power_max"][1]),
                         spec["points"])
    if unit == "watts":
        drives = drive_from_watts(phys, drives)
    return kind, m, phys, drives


def cmd_sweep(args):
    kind, m, base, grid = _sweep_job(args)
    if m is None:  # a landscape echoes its physical base and search box
        echo = _echo_header(dict(_model_echo(base), detuning_bounds=str(grid[2]),
                                 drive_bounds=str(grid[3])))
    else:
        echo = _echo_header(_model_echo(m))
    wrote = []
    if kind == "power":
        result = power_sweep(m, grid, base=base)
        columns = ["power_w", "drive", "freq_cavity", "freq_mirror",
                   "freq_sphere", "damp_cavity", "damp_mirror", "damp_sphere",
                   "n1", "n2"]
        data = [result.power_w, result.drive, *result.freqs.T,
                *result.dampings.T, result.n1, result.n2]
        summary = {
            "kind": "power",
            "threshold_bracket_drive": result.threshold_bracket,
            "hybridization": result.hybridization,
        }
    elif kind == "squeezing":
        result = squeezing_sweep(m, grid, base=base)
        columns = ["power_w", "drive", "var_x1", "var_p1", "var_x2", "var_p2",
                   "S1", "S2"]
        data = [result.power_w, result.drive, result.var_x1, result.var_p1,
                result.var_x2, result.var_p2, result.S1, result.S2]
        summary = {
            "kind": "squeezing",
            "threshold_bracket_drive": result.threshold_bracket,
            "max_S2": result.max_S2,
        }
    else:
        result = occupation_landscape(base, *grid)
        columns = ["omega1", "omega2", "n2_min", "n2_thermal", "detuning",
                   "drive", "ok"]
        data = list(zip(*[
            (p.omega1, p.omega2, p.n2_min, p.n2_thermal, p.detuning, p.drive,
             "1" if p.ok else "0")
            for p in result.points
        ]))
        summary = {
            "kind": "landscape",
            "ridge": result.ridge,
            "best": min(
                ({"omega1": p.omega1, "omega2": p.omega2, "n2": p.n2_min,
                  "reduction": p.n2_thermal / p.n2_min}
                 for p in result.points if p.ok and p.n2_min > 0),
                key=lambda d: d["n2"], default=None),
        }
        if args.format in ("csv", "both"):
            # gnuplot-compatible matrix of minimized occupations
            n2_min = np.reshape([p.n2_min if p.ok else np.nan for p in result.points],
                                (result.omega1.size, result.omega2.size))
            wrote.append(_write(os.path.join(args.output_dir, "landscape.dat"),
                                echo + format_matrix("n2_min over (omega1, omega2)",
                                                     n2_min)))

    if args.format in ("csv", "both"):
        wrote.append(_write(os.path.join(args.output_dir, "sweep.csv"),
                            _csv_table(echo, columns, data)))
    if args.format in ("json", "both"):
        payload = {"version": __version__, "preset": args.preset,
                   "summary": summary}
        if m is not None:
            payload["model"] = asdict(m)
        wrote.append(_write(os.path.join(args.output_dir, "summary.json"),
                            _json_text(payload)))
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_geometry(args):
    sections = _read_config(args)
    geo = geometry_section(sections)
    with _config_values():
        spec = CavitySpec(length=geo["length"],
                          wavenumber=2.0 * math.pi / geo["wavelength"],
                          reflectivity=geo["reflectivity"],
                          transmissivity=geo["transmissivity"])
    table = field_profile_samples(spec, geo["samples"])
    echo = _echo_header({
        "variant": geo["variant"].value,
        "length_m": fmt(spec.length),
        "wavenumber_per_m": fmt(spec.wavenumber),
        "reflectivity": fmt(spec.reflectivity),
        "transmissivity": fmt(spec.transmissivity),
        "lineshape_power": fmt(abs(lineshape(spec)) ** 2),
    })
    lines = [echo + "# z_m    intensity_relative"]
    for z, intensity in table:
        lines.append(f"{fmt(z)} {fmt(intensity)}")
    path = _write(os.path.join(args.output_dir, "field_profile.dat"),
                  "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def validation_set(count):
    """The instances `trimech validate` checks, built in its RNG draw
    order: `count` seeded random stable (A, D) pairs, then the fig3 and
    fig4 preset operating points.  Returns (names, A, D, dt) with (N, 6, 6)
    stacks A and D and each row's moment-flow step, None for the default.
    """
    rng = np.random.default_rng(20240917)
    draws = [(rng.normal(size=(6, 6)), rng.uniform(0.05, 1.0), rng.normal(size=(6, 6)))
             for _ in range(count)]
    # shift each R to be stable by a margin: eigvals draws nothing, so the
    # spectra of all R are taken at once
    tops = np.linalg.eigvals(np.reshape([R for R, _, _ in draws], (count, 6, 6)))
    checks = []
    for k, ((R, margin, B), top) in enumerate(zip(draws, tops.real.max(axis=1))):
        R -= (top + margin) * np.eye(6)
        checks.append((f"random_{k}", R, B @ B.T, None))
    # preset operating points: the hybridization optimum and just below
    # the squeezing instability threshold
    for name, m, drive_w in (("fig3_hybridized", fig3_model(), 2.5813e-3),
                             ("fig4_near_threshold", fig4_model(), 5.70e-4)):
        ref = reference_params()
        mi = replace(m, drive=drive_from_watts(ref, drive_w))
        lm = linear_model(mi, fixed_point(mi))
        dt = 0.5 / np.abs(lm.eigenvalues).max()
        checks.append((name, lm.drift, lm.diffusion, dt))
    names, A, D, dt = zip(*checks)
    return list(names), np.array(A), np.array(D), list(dt)


def cmd_validate(args):
    """Three-way solver agreement over the built-in test set, checked as
    one stack."""
    names, A, D, dt = validation_set(args.validate_instances)
    chk = cross_check(A, D, dt=dt)
    worst = {"algebraic_pair": 0.0, "ode_vs_direct": 0.0}
    lines = [_echo_header({"instances": str(len(names))})]
    ok = True
    for name, pair, ode in zip(names, chk["algebraic_pair"].tolist(),
                               chk["ode_vs_direct"].tolist()):
        worst["algebraic_pair"] = max(worst["algebraic_pair"], pair)
        worst["ode_vs_direct"] = max(worst["ode_vs_direct"], ode)
        this_ok = pair < PAIR_TOL and ode < ODE_TOL
        ok = ok and this_ok
        lines.append(f"{name}: algebraic {fmt(pair)} ode {fmt(ode)} "
                     f"{'ok' if this_ok else 'FAIL'}")
    lines.append(f"worst algebraic pair discrepancy: {fmt(worst['algebraic_pair'])}")
    lines.append(f"worst ode discrepancy: {fmt(worst['ode_vs_direct'])}")
    lines.append("verdict: " + ("all below tolerance" if ok else "FAIL"))
    path = _write(os.path.join(args.output_dir, "validation.txt"),
                  "\n".join(lines) + "\n")
    print(f"wrote {path}")
    if not ok:
        raise NumericalError("solver cross-checks exceeded tolerance; "
                             "see validation.txt")
    return 0


def _count(text):
    """A non-negative integer option value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as
    it was, so every `main` call reads its own arguments only."""
    parser = argparse.ArgumentParser(
        prog="trimech",
        description="Three-mode cavity optomechanics simulator")
    parser.add_argument("--version", action="version",
                        version=f"trimech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, config=True, presets=()):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        source = p.add_mutually_exclusive_group() if presets else p
        if config:
            source.add_argument("-i", "--input", default=None,
                                help="config file (strict key = value text)")
        if presets:
            source.add_argument("--preset", choices=("none",) + tuple(presets),
                                default="none")
        p.add_argument("-o", "--output-dir", default=".",
                       help="directory for output files")
        return p

    subcommand("derive", cmd_derive)
    subcommand("steady", cmd_steady, presets=MODEL_PRESETS)
    subcommand("linear", cmd_linear, presets=MODEL_PRESETS)
    p = subcommand("sweep", cmd_sweep, presets=PRESET_NAMES)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    subcommand("geometry", cmd_geometry)
    p = subcommand("validate", cmd_validate, config=False)
    p.add_argument("--validate-instances", type=_count, default=50,
                   help="random instances checked besides the presets")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.output_dir, exist_ok=True)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
