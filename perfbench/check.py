"""Correctness checks for one operation's outputs.

The checks do not depend on the seed: they apply fixed rules to whatever
the program wrote.  Every `ok` row must be finite, occupations must be
non-negative, and a landscape cell may not end above its thermal
occupation.  A fixed sample of rows (the first, middle and last row of a
sweep, every cell of a landscape, every branch of a linear record) is
recomputed from `trimech.linear.linear_model` and the independent
Kronecker solve `trimech.validate.lyapunov_direct`.

REL_TOL is the agreement required between a reported scalar and its
recomputation, relative to max(|value|, 1).  The eigenbasis and
Kronecker Lyapunov routes differ by up to about 6e-8 of max|V| at
gamma2 = 1e-8, and an occupation is a difference of variances, so the
tolerance sits well above that: the largest discrepancy seen over the
benchmark's inputs is about 5e-12.
"""

import json
import math
from dataclasses import replace

REL_TOL = 1e-6


class CheckError(Exception):
    """An output failed a correctness rule."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _close(name, reported, oracle):
    scale = max(abs(oracle), 1.0)
    _require(abs(reported - oracle) <= REL_TOL * scale,
             f"{name}: reported {reported!r}, recomputed {oracle!r}")


def read_csv(path):
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def read_records(path):
    """Parse `# title` / `key = value` record blocks of a text output."""
    blocks, current = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# trimech ") and " - " in line:
            current = blocks.setdefault(line.split(" - ", 1)[1], {})
        elif current is not None and " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
        elif not line.strip() or line.startswith("#"):
            current = None
    return blocks


def _finite(row, columns, where):
    values = {}
    for col in columns:
        value = float(row[col])
        _require(math.isfinite(value), f"{where}: {col} = {row[col]} is not finite")
        values[col] = value
    return values


def _sample(rows):
    return sorted({0, len(rows) // 2, len(rows) - 1})


class Checker:
    """Checks bound to the trimech modules of the program under test."""

    def __init__(self):
        from trimech import config, linear, params, steady, sweeps, validate
        self.config, self.linear, self.params = config, linear, params
        self.steady, self.sweeps, self.validate = steady, sweeps, validate

    def _oracle(self, m, state):
        """(linear model, covariance) with the Kronecker oracle."""
        lm = self.linear.linear_model(m, state)
        _require(lm.stable, "recomputed point is unstable")
        V = self.validate.lyapunov_direct(lm.drift, lm.diffusion)
        return lm, V

    def _sections(self, op):
        return self.config.parse_sections(op.config)

    def model(self, op):
        """The ModelParams of a config-driven operation."""
        sections = self._sections(op)
        phys = self.config.physical_params(sections)
        detuning, mode = self.config.model_section(sections)
        return self.params.nondimensionalize(phys, detuning, mode)

    def check(self, op, out_dir, extra):
        getattr(self, f"_check_{op.kind}")(op, out_dir, extra)

    def _check_landscape(self, op, out_dir, extra):
        sections = self._sections(op)
        base = self.config.physical_params(sections)
        kappa = base.cavity_decay
        rows = read_csv(out_dir / "sweep.csv")
        ok_rows = 0
        for k, row in enumerate(rows):
            o1, o2 = float(row["omega1"]), float(row["omega2"])
            if o2 >= o1:
                _require(row["ok"] == "0", f"cell {k}: excluded cell marked ok")
                continue
            _require(row["ok"] == "1", f"cell {k}: no stable optimum")
            v = _finite(row, ("n2_min", "n2_thermal", "detuning", "drive"),
                        f"cell {k}")
            _require(v["n2_min"] >= 0.0, f"cell {k}: negative occupation")
            _require(v["n2_min"] <= v["n2_thermal"],
                     f"cell {k}: n2_min above n2_thermal")
            phys = replace(base, mirror_freq=o1 * kappa, sphere_freq=o2 * kappa)
            m = self.params.nondimensionalize(phys, detuning=-1.0)
            m = replace(m, detuning=v["detuning"], drive=v["drive"])
            _, V = self._oracle(m, self.steady.fixed_point(m))
            _close(f"cell {k} n2_min", v["n2_min"], self.linear.occupation(V, 2))
            ok_rows += 1
        _require(ok_rows > 0, "landscape has no optimized cell")
        best = min(float(r["n2_min"]) for r in rows if r["ok"] == "1")
        _require(read_summary(out_dir)["summary"]["best"]["n2"] == best,
                 "summary best differs from the table")

    def _sweep_rows(self, op, out_dir, columns):
        rows = read_csv(out_dir / "sweep.csv")
        _require(len(rows) > 0, "sweep has no rows")
        values = [_finite(row, columns, f"row {k}") for k, row in enumerate(rows)]
        drives = bracket(out_dir)
        _require(drives is not None and drives[0] == values[-1]["drive"]
                 and drives[1] > drives[0],
                 f"sweep did not stop at a threshold bracket: {drives}")
        return self.model(op), values

    def _check_power(self, op, out_dir, extra):
        m, values = self._sweep_rows(op, out_dir, (
            "power_w", "drive", "freq_cavity", "freq_mirror", "freq_sphere",
            "damp_cavity", "damp_mirror", "damp_sphere", "n1", "n2"))
        for k, v in enumerate(values):
            _require(v["n1"] >= 0.0 and v["n2"] >= 0.0,
                     f"row {k}: negative occupation")
        for k in _sample(values):
            mk = replace(m, drive=values[k]["drive"])
            _, V = self._oracle(mk, self.steady.fixed_point(mk))
            _close(f"row {k} n1", values[k]["n1"], self.linear.occupation(V, 1))
            _close(f"row {k} n2", values[k]["n2"], self.linear.occupation(V, 2))

    def _check_squeezing(self, op, out_dir, extra):
        m, values = self._sweep_rows(op, out_dir, (
            "power_w", "drive", "var_x1", "var_p1", "var_x2", "var_p2",
            "S1", "S2"))
        for k in _sample(values):
            mk = replace(m, drive=values[k]["drive"])
            _, V = self._oracle(mk, self.steady.fixed_point(mk))
            _close(f"row {k} S2", values[k]["S2"], self.linear.squeezing(V, 2))
        lo, hi = bracket(out_dir)
        threshold = extra["threshold"]
        _require(lo <= threshold < hi,
                 f"threshold {threshold!r} outside bracket ({lo!r}, {hi!r})")
        _require(self.sweeps.is_stable(replace(m, drive=threshold)),
                 "reported threshold drive is not stable")

    def _check_linear(self, op, out_dir, extra):
        m = self.model(op)
        if m.detuning_mode == "bare":
            states = self.steady.self_consistent_fixed_points(m)
        else:
            states = [self.steady.fixed_point(m)]
        blocks = read_records(out_dir / "linear.txt")
        stable = 0
        for i, state in enumerate(states):
            eigen = blocks.get(f"eigenvalues, branch {i}")
            _require(eigen is not None, f"branch {i} missing")
            if eigen["stable"] != "true":
                continue
            stable += 1
            scalars = blocks[f"derived scalars, branch {i}"]
            v = _finite(scalars, ("n1", "n2", "S1", "S2"), f"branch {i}")
            _require(v["n1"] >= 0.0 and v["n2"] >= 0.0,
                     f"branch {i}: negative occupation")
            _, V = self._oracle(m, state)
            _close(f"branch {i} n1", v["n1"], self.linear.occupation(V, 1))
            _close(f"branch {i} n2", v["n2"], self.linear.occupation(V, 2))
            _close(f"branch {i} S2", v["S2"], self.linear.squeezing(V, 2))
        _require(stable > 0, "no stable branch")
        _require(f"eigenvalues, branch {len(states)}" not in blocks,
                 "more branches reported than recomputed")

    def _check_validate(self, op, out_dir, extra):
        lines = (out_dir / "validation.txt").read_text(encoding="utf-8").splitlines()
        instances = [line for line in lines
                     if line.endswith(" ok") or line.endswith(" FAIL")]
        _require(len(instances) > 0, "validation lists no instances")
        _require(all(line.endswith(" ok") for line in instances),
                 "a validation instance failed")
        _require(lines[-1] == "verdict: all below tolerance",
                 f"validation verdict: {lines[-1]}")


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def bracket(out_dir):
    return read_summary(out_dir)["summary"]["threshold_bracket_drive"]
