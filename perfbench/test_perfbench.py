"""Tests of the benchmark itself: tracer bindings, inputs, checks, smoke mode.

Run from the repository root with `python -m pytest perfbench -q`.
"""

import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import check
import run
import workloads
from tracer import Tracer

trimech = run.load_program()

import trimech.linear  # noqa: E402
import trimech.presets  # noqa: E402
import trimech.sweeps  # noqa: E402
import trimech.validate  # noqa: E402


def _bindings():
    return {
        "trimech.linear.linear_model": (trimech.linear, "linear_model"),
        "trimech.sweeps.linear_model": (trimech.sweeps, "linear_model"),
        "trimech.linear_model": (trimech, "linear_model"),
        "trimech.cli.main": (trimech.cli, "main"),
        "trimech.cli.cmd_sweep": (trimech.cli, "cmd_sweep"),
        "trimech.presets.drive_from_watts": (trimech.presets, "drive_from_watts"),
        "trimech.validate.lyapunov_direct": (trimech.validate, "lyapunov_direct"),
        "numpy.linalg.eigvals": (np.linalg, "eigvals"),
    }


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {key: getattr(owner, attr)
                 for key, (owner, attr) in _bindings().items()}
    tracer = Tracer()
    wrappers = {id(b[3]) for b in tracer.bindings}
    with tracer:
        for key, (owner, attr) in _bindings().items():
            current = getattr(owner, attr)
            assert current is not originals[key], key
            assert id(current) in wrappers, key
            assert current.__wrapped__ is originals[key], key
        assert trimech.sweeps.linear_model is trimech.linear.linear_model
    for key, (owner, attr) in _bindings().items():
        assert getattr(owner, attr) is originals[key], key
    for name, module in list(sys.modules.items()):
        if name == "trimech" or name.startswith("trimech."):
            for attr, value in vars(module).items():
                assert id(value) not in wrappers, f"{name}.{attr} left wrapped"


def test_lazily_imported_fallback_is_attributed_to_its_caller():
    # one eigenvalue pair sum below the 1e-10 floor forces the direct solve
    A = np.diag([-4e-11, -1.0, -1.5, -2.0, -2.5, -3.0])
    tracer = Tracer()
    with tracer, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trimech.linear.solve_lyapunov(A, np.eye(6))
    assert tracer.edges[("linear.solve_lyapunov", "validate.lyapunov_direct")] == 1
    assert tracer.stat("linear.solve_lyapunov").calls == 1


def test_solve_point_counts_three_eigen_solves_today():
    ref = trimech.params.reference_params()
    m = replace(trimech.presets.fig3_model(),
                drive=trimech.sweeps.drive_from_watts(ref, 2e-3))
    tracer = Tracer()
    with tracer:
        trimech.sweeps.solve_point(m)
    point = tracer.stat("sweeps.solve_point")
    assert (point.calls, point.ok_calls, point.ok_eigs) == (1, 1, 3)
    assert tracer.eig_calls == 3
    assert tracer.edges[(None, "sweeps.solve_point")] == 1
    assert point.total_s >= point.self_s > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pool_depends_only_on_the_seed(tmp_path, name):
    first = workloads.make_pool(name, 7, tmp_path / "a")
    again = workloads.make_pool(name, 7, tmp_path / "b")
    other = workloads.make_pool(name, 8, tmp_path / "c")
    assert [op.config for op in first] == [op.config for op in again]
    assert [op.config for op in first] != [op.config for op in other]
    assert [op.index for op in first] == list(range(len(first)))


def test_landscape_pairs_take_one_cell_from_each_stratum(tmp_path):
    lo, hi = workloads.LANDSCAPE_OMEGA2

    def stratum(omega2):
        return int((omega2 - lo) / (hi - lo) * 8)

    pairs = {tuple(float(op.config.split(f"omega2_{end} = ")[1].split()[0])
                   for end in ("min", "max"))
             for op in workloads.make_pool("landscape", 3, tmp_path)}
    assert pairs == set(workloads.LANDSCAPE_PAIRS)
    assert sorted(stratum(o2) for pair in pairs for o2 in pair) == list(range(8))
    assert all(stratum(low) + stratum(high) == 7 for low, high in pairs)


def test_check_rejects_a_corrupted_occupation(tmp_path):
    ops = workloads.make_pool("point", 0, tmp_path / "inputs")
    runner = run.Runner(trimech, tmp_path)
    op = ops[0]
    _, _, (code, extra, _) = runner.timed(op)
    assert code == 0
    runner.checker.check(op, runner.out, extra)
    path = runner.out / "linear.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("n2 = "))
    value = float(lines[k].split(" = ")[1])
    lines[k] = f"n2 = {value * (1 + 1e-5):.16e}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(check.CheckError, match="n2"):
        runner.checker.check(op, runner.out, extra)


def test_repeated_input_with_new_bytes_fails(tmp_path):
    ops = workloads.make_pool("point", 0, tmp_path / "inputs")
    runner = run.Runner(trimech, tmp_path)
    op = ops[0]
    _, _, (code, extra, log) = runner.timed(op)
    assert runner.verify(op, code, extra, log)[1]
    _, _, (code, extra, log) = runner.timed(op)
    with open(runner.out / "linear.txt", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert not runner.verify(op, code, extra, log)[1]
    assert "differ" in runner.problems[-1]


def test_tail_keeps_ten_samples_above_and_never_drops_below_median():
    assert run._tail(list(range(100))) == (89, 10)
    assert run._tail(list(range(9))) == (4, 4)
    assert run._tail([1.0]) == (1.0, 0)


def test_usage_counts_live_children_and_leaves_out_the_excluded_one():
    # two children burn CPU and stay alive, so RUSAGE_CHILDREN sees neither
    code = ("import sys, time\nend = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass\nsys.stdin.read()")
    kept, left_out = (subprocess.Popen([sys.executable, "-c", code],
                                       stdin=subprocess.PIPE) for _ in range(2))
    try:
        usage = run.Usage(exclude=left_out.pid)
        before = usage.cpu_s()
        time.sleep(1.0)
        used = usage.cpu_s() - before
    finally:
        for child in (kept, left_out):
            child.communicate(timeout=30)
    assert 0.2 <= used < 0.55
    assert usage.live_kb > 0


def test_calibration_samples_inside_a_long_request_and_reports_the_pauses():
    calibration = run.Calibration()
    start = time.perf_counter()
    with calibration.interrupting() as paused:
        while time.perf_counter() - start < 0.5:
            pass
        wall, cpu = paused()
    ticks = len(calibration.samples)
    assert ticks >= 2
    assert wall == pytest.approx(sum(calibration.samples), rel=0.2)
    assert 0 < cpu <= wall * 1.5
    time.sleep(2 * run.CALIBRATION_INTERVAL_S)
    assert len(calibration.samples) == ticks  # the timer stops with the block


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke(name):
    assert run.smoke(trimech, [name], seed=0) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path, ".perfbench_out", "results").exists()
