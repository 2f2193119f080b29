"""Config parsing, record emission, CLI subcommands and exit codes."""

import json
import math
import re
import warnings

import numpy as np
import pytest

import trimech.cli as cli
from trimech.cli import _csv_table, build_parser, main
from trimech.config import (ConfigError, fmt, format_matrix, format_record,
                            geometry_section, model_section, parse_sections,
                            physical_params, sweep_section)
from trimech.geometry import PROFILE_SAMPLES, PumpGeometry
from trimech.params import linear_coupling, quadratic_coupling
from trimech.validate import PAIR_TOL

NOMINAL = """
# reference silica-sphere configuration
[physical]
wavelength       = 1064 nm
cavity_length    = 0.5 cm
cavity_decay     = 50 kHz
mirror_mass      = 40 ng
mirror_freq      = 1 MHz
mirror_damping   = 140 Hz
sphere_radius    = 0.5 um
sphere_density   = 2650 kg/m^3
refractive_index = 1.5
sphere_freq      = 200 kHz
sphere_damping   = 0.5 mHz
cavity_waist     = 40 um
bath_temp_mirror = 50 mK
bath_temp_sphere = 1 K
input_power      = 1 mW
sphere_site      = node

[model]
detuning_mode = effective
detuning      = -27.2
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_nominal_round_trip(self):
        sections = parse_sections(NOMINAL)
        p = physical_params(sections)
        assert p.wavelength == pytest.approx(1064e-9)
        assert p.cavity_decay == pytest.approx(2 * math.pi * 50e3)
        assert p.mirror_mass == pytest.approx(40e-12)
        assert p.bath_temp_mirror == pytest.approx(0.050)
        # couplings derived from the parsed record match the quoted scales
        assert abs(linear_coupling(p) - 2 * math.pi * 36) / (2 * math.pi * 36) < 0.03
        assert abs(quadratic_coupling(p) + 2 * math.pi * 10e-6) / (2 * math.pi * 10e-6) < 0.10
        detuning, mode = model_section(sections)
        assert detuning == -27.2 and mode == "effective"

    def test_missing_key_names_it(self):
        text = NOMINAL.replace("cavity_waist     = 40 um\n", "")
        with pytest.raises(ConfigError, match="cavity_waist"):
            physical_params(parse_sections(text))

    def test_unknown_key_rejected(self):
        text = NOMINAL.replace("[model]", "humidity = 40 K\n\n[model]")
        with pytest.raises(ConfigError, match="humidity"):
            physical_params(parse_sections(text))

    def test_missing_unit_rejected(self):
        text = NOMINAL.replace("wavelength       = 1064 nm",
                               "wavelength       = 1064")
        with pytest.raises(ConfigError, match="unit"):
            physical_params(parse_sections(text))

    def test_unknown_unit_rejected(self):
        text = NOMINAL.replace("1064 nm", "1064 furlong")
        with pytest.raises(ConfigError, match="furlong"):
            physical_params(parse_sections(text))

    def test_negative_temperature_rejected(self):
        text = NOMINAL.replace("bath_temp_mirror = 50 mK",
                               "bath_temp_mirror = -1 K")
        with pytest.raises(ConfigError, match="invariant"):
            physical_params(parse_sections(text))

    def test_duplicate_key_rejected(self):
        text = NOMINAL + "\n[model]\n"
        with pytest.raises(ConfigError):
            parse_sections(text + "detuning = -1\n")

    @pytest.mark.parametrize("text, read, message", [
        (NOMINAL.replace("[model]", "[weather]"), physical_params,
         "line 21: unknown section [weather]"),
        ("wavelength = 1064 nm\n" + NOMINAL, physical_params,
         "line 1: key outside any [section]"),
        (NOMINAL.replace("input_power      = 1 mW", "= 1 mW"), physical_params,
         "line 18: expected 'key = value'"),
        (NOMINAL.replace("input_power      = 1 mW", "input_power ="), physical_params,
         "line 18: key 'input_power': expected 'key = value'"),
        (NOMINAL.replace("1064 nm", "ten nm"), physical_params,
         "line 4: key 'wavelength': not a number: 'ten'"),
        (NOMINAL.replace("refractive_index = 1.5", "refractive_index = 1.5 m"),
         physical_params,
         "line 12: key 'refractive_index': unexpected unit on dimensionless quantity"),
        (NOMINAL.split("[model]")[0], model_section, "missing [model] section"),
        (NOMINAL.replace("detuning_mode = effective", "detuning_mode = sideways"),
         model_section,
         "line 22: key 'detuning_mode': detuning_mode must be 'effective' or 'bare'"),
        (NOMINAL + "\n[sweep]\nkind = spiral\n", sweep_section,
         "line 26: key 'kind': kind must be power, squeezing or landscape"),
    ], ids=["unknown-section", "key-outside-section", "empty-key", "empty-value",
            "not-a-number", "unit-on-dimensionless", "missing-section",
            "bad-detuning-mode", "bad-sweep-kind"])
    def test_malformed_input_names_key_and_line(self, text, read, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            read(parse_sections(text))

    def test_line_numbers_reported(self):
        try:
            parse_sections("[physical]\nwavelength 1064 nm\n")
        except ConfigError as exc:
            assert "line 2" in str(exc)
        else:
            raise AssertionError("expected ConfigError")

    def test_geometry_variant_is_a_pump_geometry(self):
        text = "\n".join(["[geometry]", "length = 0.5 cm", "wavelength = 1064 nm",
                          "reflectivity = -0.9", "transmissivity = 0.1", ""])
        geo = geometry_section(parse_sections(text))
        assert geo["variant"] is PumpGeometry.FROM_FIXED_MIRROR
        assert geo["samples"] == PROFILE_SAMPLES
        geo = geometry_section(parse_sections(text + "variant = symmetric\n"))
        assert geo["variant"] is PumpGeometry.SYMMETRIC
        with pytest.raises(ConfigError, match="line 6: key 'variant'"):
            geometry_section(parse_sections(text + "variant = sideways\n"))

    def test_record_formatting(self):
        record = format_record("demo", {"alpha": 1.0, "mode": "effective"})
        assert "alpha = 1.0000000000000000e+00" in record
        assert "mode = effective" in record
        grid = format_matrix("M", np.eye(2))
        assert grid.splitlines()[1].startswith("1.0000000000000000e+00")


class TestCliExitCodes:
    def test_derive_writes_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOMINAL)
        assert main(["derive", "-i", cfg, "-o", str(tmp_path)]) == 0
        text = (tmp_path / "model_params.txt").read_text()
        assert "omega1 = 2.0000000000000000e+01" in text
        g1 = float([ln for ln in text.splitlines()
                    if ln.startswith("g1 =")][0].split("=")[1])
        assert abs(g1 - 7.2e-4) / 7.2e-4 < 0.15

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOMINAL.replace(
            "mirror_mass      = 40 ng\n", ""))
        assert main(["derive", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert "mirror_mass" in capsys.readouterr().err

    def test_invariant_violation_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOMINAL.replace(
            "bath_temp_mirror = 50 mK", "bath_temp_mirror = -1 K"))
        assert main(["derive", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert "invariant" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["derive", "-o", str(tmp_path)]) == 2

    def test_degenerate_trap_linear_exits_3(self, tmp_path, capsys):
        # enormous drive at red detuning inverts the sphere trap
        cfg = write_config(tmp_path, NOMINAL.replace(
            "input_power      = 1 mW", "input_power      = 10 W"))
        code = main(["linear", "-i", cfg, "-o", str(tmp_path)])
        assert code == 3
        assert "physics error: sphere trap degenerate" in capsys.readouterr().err

    def test_no_stable_branch_linear_exits_3(self, tmp_path, capsys):
        # blue detuning: the one branch is unstable
        cfg = write_config(tmp_path, NOMINAL.replace(
            "detuning      = -27.2", "detuning      = 27.2"))
        code = main(["linear", "-i", cfg, "-o", str(tmp_path)])
        assert code == 3
        assert "physics error: no stable branch" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["absent.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name):
        code = main(["derive", "-i", str(tmp_path / name), "-o", str(tmp_path)])
        assert code == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_validate_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        """A discrepancy above PAIR_TOL fails the verdict: validation.txt
        is still written, and the run exits 4."""
        checked = cli.cross_check

        def discrepant(A, D, dt=None):
            out = checked(A, D, dt=dt)
            out["algebraic_pair"][0] = 2.0 * PAIR_TOL
            return out
        monkeypatch.setattr(cli, "cross_check", discrepant)
        code = main(["validate", "-o", str(tmp_path), "--validate-instances", "0"])
        assert code == 4
        assert ("numerical fault: solver cross-checks exceeded tolerance"
                in capsys.readouterr().err)
        lines = (tmp_path / "validation.txt").read_text().splitlines()
        assert sum(line.endswith(" FAIL") for line in lines[:-1]) == 1
        assert lines[-1] == "verdict: FAIL"

    def test_huge_bare_detuning_exits_0(self, tmp_path):
        """|detuning| = 1e300 overflows delta_eff ** 2 without a warning;
        the one branch is the empty cavity at the bare detuning."""
        cfg = write_config(tmp_path, NOMINAL.replace(
            "detuning_mode = effective", "detuning_mode = bare").replace(
            "detuning      = -27.2", "detuning      = -1e300"))
        assert main(["steady", "-i", cfg, "-o", str(tmp_path)]) == 0
        text = (tmp_path / "steady_state.txt").read_text()
        assert f"delta_eff = {fmt(-1e300)}" in text
        assert f"photon_number = {fmt(0.0)}" in text


class TestCliSteadyLinear:
    def test_steady_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOMINAL)
        assert main(["steady", "-i", cfg, "-o", str(tmp_path)]) == 0
        text = (tmp_path / "steady_state.txt").read_text()
        assert "photon_number" in text and "delta_eff" in text

    def test_linear_zero_drive_thermal(self, tmp_path):
        cfg = write_config(tmp_path, NOMINAL.replace(
            "input_power      = 1 mW", "input_power      = 0 W"))
        assert main(["linear", "-i", cfg, "-o", str(tmp_path)]) == 0
        text = (tmp_path / "linear.txt").read_text()
        scalars = {}
        for line in text.splitlines():
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                scalars[key.strip()] = value.strip()
        # occupations equal the configured bath occupations at zero drive
        from trimech.params import bose_occupation
        n1_expect = bose_occupation(2 * math.pi * 1e6, 0.050)
        n2_expect = bose_occupation(2 * math.pi * 200e3, 1.0)
        assert float(scalars["n1"]) == pytest.approx(n1_expect, rel=1e-6)
        assert float(scalars["n2"]) == pytest.approx(n2_expect, rel=1e-6)

    def test_bare_mode_emits_all_branches(self, tmp_path):
        bare = NOMINAL.replace("detuning_mode = effective",
                               "detuning_mode = bare")
        cfg = write_config(tmp_path, bare)
        assert main(["steady", "-i", cfg, "-o", str(tmp_path)]) == 0
        text = (tmp_path / "steady_state.txt").read_text()
        assert "branch 0" in text


class TestCliSweep:
    def test_fig3_zero_power_row(self, tmp_path):
        assert main(["sweep", "--preset", "fig3", "-o", str(tmp_path)]) == 0
        rows = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header = rows[0].split(",")
        first = dict(zip(header, map(float, rows[1].split(","))))
        assert first["power_w"] == 0.0
        assert first["freq_cavity"] == pytest.approx(27.2, abs=1e-6)
        assert first["freq_mirror"] == pytest.approx(10.0, abs=1e-5)
        assert first["freq_sphere"] == pytest.approx(3.4, abs=1e-6)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["summary"]["hybridization"]["occupation_mismatch"] < 0.1

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--preset", "fig4", "-o", str(out)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_header_echo_present(self, tmp_path):
        assert main(["sweep", "--preset", "fig4", "-o", str(tmp_path)]) == 0
        head = (tmp_path / "sweep.csv").read_text().splitlines()[:20]
        assert head[0].startswith("# trimech 0.")
        assert any("detuning" in ln for ln in head)

    def test_config_driven_power_sweep(self, tmp_path):
        cfg = write_config(tmp_path, NOMINAL + "\n".join([
            "", "[sweep]", "kind = power", "points = 20",
            "power_min = 1e-5 W", "power_max = 1e-4 W", ""]))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 0
        rows = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 21  # header + 20 stable points


class TestConfigBoundary:
    """A ValueError is a config error only when config input caused it."""

    LANDSCAPE = NOMINAL + "\n".join([
        "", "[sweep]", "kind = landscape",
        "omega1_min = 10", "omega1_max = 10", "omega1_count = 2",
        "omega2_min = {lo}", "omega2_max = 3.4", "omega2_count = 2", ""])

    def test_bad_omega2_range_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.LANDSCAPE.format(lo="0.5"))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert "omega2" in capsys.readouterr().err

    def test_unordered_landscape_bounds_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.LANDSCAPE.format(lo="3.0")
                           + "detuning_min = -2\ndetuning_max = -45\n")
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert "bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["drive_max = inf", "detuning_min = -inf"])
    def test_infinite_landscape_bound_exits_2(self, tmp_path, capsys, bound):
        """On one cell, an infinite drive bound used to write n2_min = inf
        with exit 0 and an infinite detuning bound to exit 4."""
        cfg = write_config(tmp_path, NOMINAL + "\n".join([
            "", "[sweep]", "kind = landscape",
            "omega1_min = 10", "omega1_max = 10", "omega1_count = 1",
            "omega2_min = 3.4", "omega2_max = 3.4", "omega2_count = 1",
            bound, ""]))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "finite" in err

    @pytest.mark.parametrize("command, old, new", [
        ("derive", "bath_temp_mirror = 50 mK", "bath_temp_mirror = inf K"),
        ("derive", "mirror_freq      = 1 MHz", "mirror_freq = 1e308 GHz"),
        ("steady", "detuning      = -27.2", "detuning = nan"),
        ("sweep", "power_max = 1e-4 W", "power_max = inf W"),
        ("geometry", "transmissivity = 0.1", "transmissivity = nan"),
    ], ids=["physical", "physical-overflow", "model", "sweep", "geometry"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, old, new):
        """One case per section.  An infinite mirror bath used to raise
        ZeroDivisionError, and a NaN detuning to write NaN with exit 0."""
        text = NOMINAL + "\n".join([
            "", "[sweep]", "kind = power", "points = 20", "power_min = 1e-5 W",
            "power_max = 1e-4 W", "", "[geometry]", "length = 0.5 cm",
            "wavelength = 1064 nm", "reflectivity = -0.9",
            "transmissivity = 0.1", ""])
        assert text.count(old) == 1
        text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        assert main([command, "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        line = text.splitlines().index(new) + 1
        key = new.split()[0]
        assert err.startswith(f"config error: line {line}: key '{key}'")
        assert "finite" in err

    def test_one_row_landscape_equals_its_row_of_two(self, tmp_path):
        """A frequency axis of one cell (min = max) needs no dummy row: the
        omega1 = 10 cells equal those of a two-row config whose other row
        (omega1 = 1, below every omega2) is excluded."""
        rows = {}
        for name, lo, count in (("one", 10, 1), ("two", 1, 2)):
            cfg = write_config(tmp_path, NOMINAL + "\n".join([
                "", "[sweep]", "kind = landscape", f"omega1_min = {lo}",
                "omega1_max = 10", f"omega1_count = {count}",
                "omega2_min = 2", "omega2_max = 3.4", "omega2_count = 2", ""]),
                name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["sweep", "-i", cfg, "-o", str(out)]) == 0
            rows[name] = [ln for ln in (out / "sweep.csv").read_text().splitlines()
                          if ln.startswith("1.0000000000000000e+01,")]
        assert len(rows["one"]) == 2
        assert rows["one"] == rows["two"]

    @pytest.mark.parametrize("axis", ["omega1", "omega2"])
    def test_count_of_one_needs_equal_bounds(self, tmp_path, capsys, axis):
        text = self.LANDSCAPE.format(lo="3.0").replace(f"{axis}_count = 2",
                                                       f"{axis}_count = 1")
        if axis == "omega1":
            text = text.replace("omega1_max = 10", "omega1_max = 12")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{axis}_count" in err

    def test_drive_grid_of_one_point_exits_2(self, tmp_path, capsys):
        """A grid of one point, or a count that is no finite number."""
        for points in ("1", "nan", "inf"):
            cfg = write_config(tmp_path, NOMINAL + "\n".join([
                "", "[sweep]", "kind = power", f"points = {points}",
                "power_min = 1e-5 W", "power_max = 1e-4 W", ""]))
            assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and "points" in err

    def test_nonpositive_power_bound_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NOMINAL + "\n".join([
            "", "[sweep]", "kind = power", "points = 20",
            "power_min = 0 W", "power_max = 1e-4 W", ""]))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert "power_min" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [("3 mW", "1 mW"), ("1 mW", "1 mW"),
                                        ("1e8", "1e6")])
    def test_unordered_power_bounds_exit_2(self, tmp_path, capsys, lo, hi):
        cfg = write_config(tmp_path, NOMINAL + "\n".join([
            "", "[sweep]", "kind = power", "points = 20",
            f"power_min = {lo}", f"power_max = {hi}", ""]))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "power_max" in err

    @pytest.mark.parametrize("line, key", [
        ("reflectivity = -1.5", "reflectivity"),
        ("wavelength = 0 nm", "wavelength"),
        ("samples = inf", "samples"),
    ])
    def test_bad_cavity_geometry_exits_2(self, tmp_path, capsys, line, key):
        lines = ["[geometry]", "length = 0.5 cm", "wavelength = 1064 nm",
                 "reflectivity = -0.9", "transmissivity = 0.1", "samples = 101",
                 ""]
        lines = [line if ln.startswith(key) else ln for ln in lines]
        cfg = write_config(tmp_path, "\n".join(lines))
        assert main(["geometry", "-i", cfg, "-o", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, tmp_path,
                                                        monkeypatch):
        import trimech.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "power_sweep", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["sweep", "--preset", "fig3", "-o", str(tmp_path)])


class TestSweepKeys:
    """Each [sweep] kind accepts exactly the keys it reads."""

    SWEEPS = {
        "power": ["points = 20", "power_min = 1e-5 W", "power_max = 1e-4 W"],
        "squeezing": ["points = 20", "power_min = 1e-5 W", "power_max = 1e-4 W"],
        "landscape": ["omega1_min = 10", "omega1_max = 10", "omega1_count = 1",
                      "omega2_min = 3.0", "omega2_max = 3.4",
                      "omega2_count = 2"],
    }
    FOREIGN = {
        "landscape": ["points = 99", "power_min = 1 W", "power_max = 2 W"],
        "power": ["omega1_min = 1", "omega1_max = 10", "omega1_count = 7",
                  "omega2_min = 2", "omega2_max = 3", "omega2_count = 2",
                  "detuning_min = -3", "detuning_max = -2", "drive_min = 1e6",
                  "drive_max = 5"],
    }
    FOREIGN["squeezing"] = FOREIGN["power"]

    @classmethod
    def config(cls, kind, lines):
        return NOMINAL + "\n".join(["", "[sweep]", f"kind = {kind}", *lines, ""])

    @pytest.mark.parametrize("kind, extra", [
        (kind, line) for kind, lines in FOREIGN.items() for line in lines])
    def test_key_of_another_kind_exits_2(self, tmp_path, capsys, kind, extra):
        text = self.config(kind, self.SWEEPS[kind] + [extra])
        key = extra.split(" =")[0]
        line = text.splitlines().index(extra) + 1
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert f"line {line}: key '{key}'" in err and f"kind = {kind}" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kind", ["power", "squeezing"])
    def test_bare_detuning_exits_2(self, tmp_path, capsys, kind):
        text = self.config(kind, self.SWEEPS[kind]).replace(
            "detuning_mode = effective", "detuning_mode = bare")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: {kind} sweeps require detuning_mode = effective")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kind, missing", [
        (kind, line) for kind, lines in SWEEPS.items() for line in lines])
    def test_missing_key_of_the_kind_exits_2(self, tmp_path, capsys, kind,
                                             missing):
        lines = [ln for ln in self.SWEEPS[kind] if ln != missing]
        cfg = write_config(tmp_path, self.config(kind, lines))
        assert main(["sweep", "-i", cfg, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "missing mandatory key" in err
        assert f"key '{missing.split(' =')[0]}'" in err

    @pytest.mark.parametrize("kind", ["power", "squeezing"])
    @pytest.mark.parametrize("lo, hi, message", [
        ("1e-5 W", "1e6", "both be watts"), ("1e6", "1e-4 W", "both be watts"),
        ("2 mW", "1 mW", "below"), ("1e6", "1e6", "below")])
    def test_power_bounds(self, kind, lo, hi, message):
        text = self.config(kind, ["points = 20", f"power_min = {lo}",
                                  f"power_max = {hi}"])
        with pytest.raises(ConfigError, match=message) as exc:
            sweep_section(parse_sections(text))
        assert exc.value.key == "power_max"
        assert exc.value.line == text.splitlines().index(f"power_max = {hi}") + 1


class TestCliGeometryValidate:
    def test_geometry_profile(self, tmp_path):
        cfg = write_config(tmp_path, "\n".join([
            "[geometry]",
            "length = 0.5 cm",
            "wavelength = 1064 nm",
            "reflectivity = -0.9",
            "transmissivity = 0.1",
            "samples = 101",
        ]))
        assert main(["geometry", "-i", cfg, "-o", str(tmp_path)]) == 0
        lines = [ln for ln in (tmp_path / "field_profile.dat").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 101
        z0, i0 = map(float, lines[0].split())
        assert z0 == 0.0 and i0 >= 0.0

    def test_validate_all_below_tolerance(self, tmp_path):
        assert main(["validate", "-o", str(tmp_path),
                     "--validate-instances", "25"]) == 0
        text = (tmp_path / "validation.txt").read_text()
        assert "all below tolerance" in text


class TestCliLandscapePreset:
    def test_fig2_preset_writes_landscape(self, tmp_path):
        """The landscape files.  This and the fig3 and fig4 sweeps run with
        warnings as errors: boundary optima and zero-frequency modes are
        data on the results, and nothing else may escape."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("fig3", "fig4"):
                assert main(["sweep", "--preset", name,
                             "-o", str(tmp_path / name)]) == 0
            assert main(["sweep", "--preset", "fig2", "-o", str(tmp_path)]) == 0
        rows = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header = rows[0].split(",")
        assert header[:3] == ["omega1", "omega2", "n2_min"]
        assert len(rows) == 1 + 9  # one row per omega2 cell
        summary = json.loads((tmp_path / "summary.json").read_text())
        best = summary["summary"]["best"]
        assert best["reduction"] >= 100.0
        assert (tmp_path / "landscape.dat").exists()


class TestCliOptions:
    """Each subcommand takes only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["derive", "--preset", "fig3"],
        ["validate", "-i", "x.cfg"],
        ["linear", "--format", "json"],
        ["steady", "--threads", "2"],
        ["geometry", "--preset", "fig3"],
        ["linear", "--preset", "fig2"],
        ["validate", "--validate-instances", "-3"],
        ["sweep", "--threads", "2"],
        ["steady", "--preset", "fig3", "-i", "x.cfg"],
        ["linear", "--preset", "fig3", "-i", "x.cfg"],
        ["sweep", "--preset", "fig3", "-i", "x.cfg"],
    ])
    def test_unread_option_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", str(tmp_path)])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, hint", [
        ("derive", False), ("geometry", False), ("steady", True),
        ("linear", True), ("sweep", True),
    ])
    def test_missing_input_names_preset_only_where_taken(self, tmp_path,
                                                         capsys, command, hint):
        assert main([command, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "an input config is required" in err
        assert ("--preset" in err) == hint

    @pytest.mark.parametrize("argv", [
        ["validate", "--validate-instances", "0"],
        ["linear", "--preset", "fig3"],
    ])
    def test_trimech_threads_is_not_read(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("TRIMECH_THREADS", "two")
        assert main(argv + ["-o", str(tmp_path)]) == 0


#: every kind of value the row-template writers must write as `fmt` does
EDGE_VALUES = [0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0,
               -2.5e300, 1.0, -3.0, 2.0 ** 53, 1e16, 42.0]


class TestCsvTable:
    """`_csv_table` formats a row at a time with one template; each cell
    reads as `fmt` gives it."""

    ECHO = "# trimech test\n# key = value\n"

    @staticmethod
    def per_cell(header_echo, columns, rows):
        lines = [header_echo.rstrip("\n"), ",".join(columns)]
        for row in rows:
            lines.append(",".join(x if isinstance(x, str) else fmt(x) for x in row))
        return "\n".join(lines) + "\n"

    def test_equals_per_cell_fmt(self):
        values = EDGE_VALUES
        ok = ["1", "0"] * (len(values) // 2) + ["1"] * (len(values) % 2)
        data = [np.array(values), list(values), [np.float64(v) for v in values],
                np.array([values, values]).T[:, 1], ok,
                np.arange(len(values)), ["%s", "%e"] * (len(values) // 2) + ["%"]]
        columns = ["numpy", "python", "scalars", "strided", "ok", "ints", "percent"]
        assert (_csv_table(self.ECHO, columns, data)
                == self.per_cell(self.ECHO, columns, zip(*data)))

    def test_landscape_columns(self):
        # the landscape table: six numeric columns and the string `ok`
        rows = [(1.0, 2.5, 0.125, 40.0, -27.2, 1e9, "1"),
                (10.0, 9.75, math.nan, 12.5, math.nan, math.nan, "0")]
        columns = ["omega1", "omega2", "n2_min", "n2_thermal", "detuning",
                   "drive", "ok"]
        assert (_csv_table(self.ECHO, columns, list(zip(*rows)))
                == self.per_cell(self.ECHO, columns, rows))

    def test_zero_rows_keep_echo_and_header(self):
        assert (_csv_table(self.ECHO, ["drive", "ok"], [np.array([]), []])
                == "# trimech test\n# key = value\ndrive,ok\n")


class TestFormatMatrix:
    """`format_matrix` writes each row with one template, the bytes of a
    per-value `fmt` join."""

    @staticmethod
    def per_value(name, matrix):
        lines = [f"# {name} ({len(matrix)}x{len(matrix[0])}, row-major)"]
        lines.extend(" ".join(fmt(x) for x in row) for row in matrix)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (6, 6)])
    def test_equals_per_value_fmt(self, shape):
        rng = np.random.default_rng(sum(shape))
        matrix = rng.permutation(np.resize(EDGE_VALUES, shape[0] * shape[1]))
        matrix = matrix.reshape(shape)
        assert (format_matrix("M", matrix)
                == self.per_value("M", matrix)
                == self.per_value("M", matrix.tolist()))

    def test_integer_and_list_input(self):
        grid = [[1, -2], [0, 3]]
        assert format_matrix("I", grid) == self.per_value("I", grid)
        assert format_matrix("I", np.eye(3, dtype=int)) == self.per_value(
            "I", np.eye(3))

    def test_fmt_is_seventeen_digit_scientific(self):
        for x in EDGE_VALUES:
            assert fmt(x) == f"{x:.16e}"
            assert fmt(np.float64(x)) == f"{x:.16e}"


class TestCachedParser:
    """`main` builds its parser once per process, and no call's arguments
    reach a later call: each call writes the bytes it writes when made
    first."""

    @staticmethod
    def run(tmp_path, tag, calls):
        written = []
        for k, argv in enumerate(calls):
            out = tmp_path / f"{tag}{k}"
            assert main(argv + ["-o", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        return written

    def both_orders(self, tmp_path, first, second):
        forward = self.run(tmp_path, "forward", [first, second])
        backward = self.run(tmp_path, "backward", [second, first])
        assert forward == backward[::-1]
        return forward

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_sweep_format_does_not_stick(self, tmp_path):
        csv_only, both = self.both_orders(
            tmp_path, ["sweep", "--preset", "fig3", "--format", "csv"],
            ["sweep", "--preset", "fig3"])
        assert list(csv_only) == ["sweep.csv"]
        assert list(both) == ["summary.json", "sweep.csv"]

    def test_linear_preset_does_not_stick(self, tmp_path):
        cfg = write_config(tmp_path, NOMINAL)
        preset, config = self.both_orders(
            tmp_path, ["linear", "--preset", "fig3"], ["linear", "-i", cfg])
        assert preset != config

    def test_validate_instances_return_to_default(self, tmp_path):
        three, default = self.both_orders(
            tmp_path, ["validate", "--validate-instances", "3"], ["validate"])
        assert b"# instances = 5\n" in three["validation.txt"]
        assert b"# instances = 52\n" in default["validation.txt"]
