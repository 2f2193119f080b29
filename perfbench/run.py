"""trimech benchmark: closed-loop CLI workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # every workload, minimal size

One client drives `trimech.cli.main(argv)` in process, each request
starting when the previous one returns.  The inputs are config files
generated from `--seed` (see workloads.py).  Every request is checked
outside the timed region (see check.py); a request whose exit code is
not 0, whose outputs break a rule, or whose output bytes differ from an
earlier run of the same input counts as failed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every
request untraced and then traced (tracer.py), requires identical output
bytes, and reports the per-layer metrics.  The last line of standard
output is one JSON object; the full record, with the machine stamp and
the output digests, goes to `.perfbench_out/results/`.
"""

import argparse
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed for setup_s, spread evenly through the run,
#: after one untimed probe that leaves the byte-code cache warm
SETUP_PROBES = 20
#: samples that must lie above the order statistic reported as run_tail_s
TAIL_BEYOND = 10
#: calibration kernel time that defines the reference machine, and the
#: share of measured request time spent re-timing the kernel between
#: requests (see Calibration)
CALIBRATION_REF_S = 7.0e-3
CALIBRATION_SHARE = 0.05
CALIBRATION_LOCAL = 8
#: wall seconds between kernel samples taken inside a request
CALIBRATION_INTERVAL_S = CALIBRATION_REF_S / CALIBRATION_SHARE
ENV_KEYS = ("TRIMECH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def load_program():
    """Import trimech from this checkout's src/, or exit with status 2."""
    if not (SRC / "trimech" / "cli.py").is_file():
        sys.exit(f"perfbench: no trimech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trimech.cli
    if Path(trimech.__file__).resolve().parent != SRC / "trimech":
        sys.exit(f"perfbench: imported trimech from {trimech.__file__}, "
                 f"not from {SRC}")
    return trimech


import check  # noqa: E402  (benchmark modules sit next to this file)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# --- machine and environment --------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp(trimech):
    env = {key: os.environ.get(key) for key in ENV_KEYS}
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "trimech": trimech.__version__,
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_average": list(os.getloadavg()),
        "git_revision": _git_revision(),
        "env": env,
        "trimech_threads_set": env["TRIMECH_THREADS"] is not None,
    }


# --- one request ----------------------------------------------------------------

@dataclass
class Sample:
    index: int      # pool position of the input
    wall_s: float
    cpu_s: float
    ok: bool
    mark: int = 0   # calibration samples taken before this request
    last: int = 0   # ... and by its end


class Usage:
    """CPU time and peak memory of this process and its descendants.

    RUSAGE_CHILDREN covers only children that have been waited for, so the
    live descendants (a persistent worker pool, say) are read from /proc
    at every `cpu_s` call: their user+sys time, including that of the
    children they reaped, and their peak resident memory (VmHWM).  A
    descendant born and reaped within one request is counted in full for
    CPU, but only through the largest reaped child for memory.  The
    process `exclude` (the set-up probe launcher) and its descendants
    are left out: their work is not the workload's.
    """

    TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

    def __init__(self, exclude=None):
        self.exclude = str(exclude)
        self.live_kb = 0   # largest VmHWM sum of the live descendants seen

    def _live(self):
        """(CPU seconds, summed VmHWM in kB) of the live descendants."""
        ticks = kb = 0
        todo = ["self"]
        while todo:
            for path in glob.glob(f"/proc/{todo.pop()}/task/*/children"):
                try:
                    pids = Path(path).read_text(encoding="ascii").split()
                except OSError:
                    continue
                for pid in pids:
                    if pid == self.exclude:
                        continue
                    try:
                        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
                        status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
                    except OSError:  # gone since the listing
                        continue
                    # utime, stime, cutime, cstime: fields 14-17 of stat
                    ticks += sum(map(int, stat.rsplit(")", 1)[1].split()[11:15]))
                    kb += sum(int(line.split()[1]) for line in status.splitlines()
                              if line.startswith("VmHWM:"))
                    todo.append(pid)
        return ticks * self.TICK_S, kb

    def cpu_s(self):
        live_s, live_kb = self._live()
        self.live_kb = max(self.live_kb, live_kb)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() + children.ru_utime + children.ru_stime
                + live_s)

    def peak_rss_mb(self):
        """Peak RSS of this process plus the larger of the largest reaped
        child and the largest live-descendant sum seen."""
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (self_kb + max(reaped_kb, self.live_kb)) / 1024.0


def _tail(values):
    """Highest order statistic with TAIL_BEYOND samples above it, never
    below the median; returns (value, samples above it)."""
    ordered = sorted(values)
    index = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[index], len(ordered) - 1 - index


class Runner:
    """Executes operations, checks them, and keeps their output digests."""

    def __init__(self, trimech, work, exclude=None):
        self.trimech = trimech
        self.usage = Usage(exclude)
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.checker = check.Checker()
        self.first = {}       # pool index -> (sha256, problem or None)
        self.problems = []
        self.bytes_written = 0

    def execute(self, op):
        """Run one request; returns (exit code, extra results, captured log)."""
        log = io.StringIO()
        extra = {}
        with redirect_stdout(log), redirect_stderr(log):
            try:
                code = self.trimech.cli.main(op.argv(self.out))
                if code == 0 and op.kind == "squeezing":
                    extra["threshold"] = self._threshold(op)
            except Exception:  # a crash is a failed request, not a benchmark error
                traceback.print_exc()
                code = -1
        return code, extra, log.getvalue()

    def _threshold(self, op):
        lo, hi = check.bracket(self.out)
        return self.trimech.sweeps.instability_threshold(
            self.checker.model(op), lo, hi)

    def clear(self):
        for path in self.out.iterdir():
            path.unlink()

    def digest(self, extra):
        h = hashlib.sha256()
        size = 0
        for path in sorted(self.out.iterdir()):
            data = path.read_bytes()
            size += len(data)
            h.update(f"{path.name}\0{len(data)}\0".encode())
            h.update(data)
        if "threshold" in extra:
            h.update(f"threshold\0{extra['threshold']!r}".encode())
        return h.hexdigest(), size

    def verify(self, op, code, extra, log, expect=None):
        """Check one finished request; returns its digest, records problems."""
        sha, size = self.digest(extra)
        self.bytes_written += size
        if code != 0:
            problem = f"exit code {code}: {log.strip()[-300:]}"
        elif expect is not None and sha != expect:
            problem = "traced run wrote different bytes than the untraced run"
        elif op.index in self.first:
            first_sha, first_problem = self.first[op.index]
            problem = first_problem or (
                None if sha == first_sha else
                "output bytes differ from an earlier run of this input")
        else:
            try:
                self.checker.check(op, self.out, extra)
                problem = None
            except check.CheckError as exc:
                problem = str(exc)
            except Exception:  # malformed output that the checks cannot read
                problem = traceback.format_exc(limit=2).strip().splitlines()[-1]
            self.first[op.index] = (sha, problem)
        if problem is not None:
            self.problems.append(f"{op.name}: {problem}")
        return sha, problem is None

    def timed(self, op, tracer=None):
        self.clear()
        c0 = self.usage.cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            result = self.execute(op)
        else:
            with tracer:
                result = self.execute(op)
        wall = time.perf_counter() - t0
        return wall, self.usage.cpu_s() - c0, result

    def output_digests(self, ops):
        ran = {op.index: op for op in ops if op.index in self.first}
        per_input = {f"{i:02d}-{ran[i].name}": self.first[i][0] for i in sorted(ran)}
        combined = hashlib.sha256("".join(
            f"{name}:{sha}\n" for name, sha in per_input.items()).encode())
        return {"inputs_covered": len(ran), "inputs_in_pool": len(ops),
                "combined": combined.hexdigest(), "per_input": per_input}


# --- measurement ----------------------------------------------------------------

def warm_up(runner):
    """One untimed request so lazy numpy and byte-code set-up is done."""
    runner.clear()
    with redirect_stdout(io.StringIO()):
        runner.trimech.cli.main(["linear", "--preset", "fig3", "-o", str(runner.out)])


def _more(done, pool, measured, seconds):
    """Whether a run goes on: until `seconds` are measured, then to the end
    of the current pass when a whole pass fits in `seconds`, so every input
    of a short pool is measured equally often."""
    if measured < seconds:
        return True
    return done % pool != 0 and measured / done * pool <= seconds


class Calibration:
    """Machine speed around each request, from a fixed kernel timed between
    requests.

    The host's speed drifts: on a shared 2-CPU Xeon VM the same requests ran
    15-30% slower in one half-minute than in the next, in wall and CPU
    time alike, and the kernel's time swung between 6 and 15 ms from one
    second to the next.  The kernel (small-matrix numpy calls and a Python
    loop, like trimech's own work) is timed between requests, often enough
    to take CALIBRATION_SHARE of the run.  Inside a request longer than
    CALIBRATION_INTERVAL_S, a wall-clock timer also runs the kernel every
    CALIBRATION_INTERVAL_S: the signal handler runs in the main thread
    between byte-codes, so the request pauses meanwhile, and `interrupting`
    reports the pauses for the caller to take out of the request's wall and
    CPU time.  `scale` turns a request's times into those on a machine
    where the kernel takes CALIBRATION_REF_S, from the kernel times inside
    the request and the CALIBRATION_LOCAL on each side of it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(6, 6))
        self.vector = rng.normal(size=6)
        self.samples = []
        self.paused_wall_s = 0.0  # kernel time inside requests
        self.paused_cpu_s = 0.0

    def sample(self):
        start = time.perf_counter()
        total = 0.0
        for i in range(150):
            a = self.matrix + i * 1e-3
            total += np.linalg.eigvals(a).real.sum()
            total += np.linalg.solve(a, self.vector).sum()
            for j in range(100):
                total += j * 1e-9
        self.samples.append(time.perf_counter() - start)
        return total

    def keep_up(self, measured):
        """Sample until the kernel has taken its share of `measured`;
        returns the number of samples taken so far."""
        while (len(self.samples) < CALIBRATION_LOCAL
               or sum(self.samples) < CALIBRATION_SHARE * measured):
            self.sample()
        return len(self.samples)

    def _tick(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.sample()
        self.paused_wall_s += time.perf_counter() - wall
        self.paused_cpu_s += time.process_time() - cpu

    @contextmanager
    def interrupting(self):
        """Sample on the timer while the block runs; yields a function that
        returns the (wall, CPU) seconds the samples have taken so far."""
        wall, cpu = self.paused_wall_s, self.paused_cpu_s
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        try:
            yield lambda: (self.paused_wall_s - wall, self.paused_cpu_s - cpu)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, mark, last=None):
        """Factor for a request or probe run after the first `mark` samples,
        during which the samples up to `last` were taken."""
        last = mark if last is None else last
        near = self.samples[max(0, mark - CALIBRATION_LOCAL):last + CALIBRATION_LOCAL]
        return CALIBRATION_REF_S / statistics.median(near)


def measure(runner, ops, seconds, calibration, probes):
    samples = []
    measured = 0.0
    while _more(len(samples), len(ops), measured, seconds):
        probes.keep_up(measured / seconds, len(calibration.samples))
        mark = calibration.keep_up(measured)
        op = ops[len(samples) % len(ops)]
        with calibration.interrupting() as paused:
            wall, cpu, (code, extra, log) = runner.timed(op)
            paused_wall, paused_cpu = paused()
        wall -= paused_wall
        cpu -= paused_cpu
        measured += wall
        _, ok = runner.verify(op, code, extra, log)
        samples.append(Sample(op.index, wall, cpu, ok, mark,
                              len(calibration.samples)))
    probes.keep_up(1.0, len(calibration.samples))
    for _ in range(CALIBRATION_LOCAL):
        calibration.sample()
    return samples


def measure_traced(runner, ops, seconds, tracer):
    plain, traced = [], []
    measured = 0.0
    while measured < seconds:
        op = ops[len(plain) % len(ops)]
        wall, cpu, (code, extra, log) = runner.timed(op)
        sha, ok = runner.verify(op, code, extra, log)
        plain.append(Sample(op.index, wall, cpu, ok))
        wall_t, cpu_t, (code, extra, log) = runner.timed(op, tracer)
        _, ok = runner.verify(op, code, extra, log, expect=sha)
        traced.append(Sample(op.index, wall_t, cpu_t, ok))
        measured += wall + wall_t
    return plain, traced


#: the launcher reads one line per probe and answers with the probe's time
#: from spawn to an imported CLI with its parser built, on the monotonic
#: clock both processes share
LAUNCHER = """
import subprocess, sys, time
probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "import trimech.cli; trimech.cli.build_parser(); "
         "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
for _ in sys.stdin:
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", probe, sys.argv[1]],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    print(repr(float(out.splitlines()[-1]) - start), flush=True)
"""


class SetupProbes:
    """Fresh-interpreter probes for setup_s, spread through the run.

    The host's speed drifts in phases of seconds to minutes, so probes
    taken in a row sample one phase; spread over the run, they sample
    the same phases as the requests.  A launcher process spawns and
    reaps them, so their CPU time and memory stay out of the workload's
    `cpu_s` and `peak_rss_mb` (Usage leaves the launcher out).
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(SRC)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.pid = self.proc.pid
        self.times = []
        self.marks = []   # calibration samples taken before each probe

    def __enter__(self):
        try:
            self.probe()  # untimed: leaves the byte-code cache warm
        except BaseException:
            self.__exit__()
            raise
        self.times.clear()
        return self

    def __exit__(self, *exc_info):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return False

    def probe(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a set-up probe failed")
        self.times.append(float(line))

    def keep_up(self, share, mark):
        """Probe until `share` of the SETUP_PROBES probes are done."""
        while len(self.times) < SETUP_PROBES * min(share, 1.0):
            self.probe()
            self.marks.append(mark)


def _timings(walls, cpus):
    tail, beyond = _tail(walls)
    return {"run_s": statistics.median(walls), "run_tail_s": tail,
            "cpu_s": sum(cpus) / len(cpus)}, beyond


def end_to_end_metrics(samples, rss_mb, setup_probes, calibration):
    ok = sum(s.ok for s in samples)
    scales = [calibration.scale(s.mark, s.last) for s in samples]
    raw, _ = _timings([s.wall_s for s in samples], [s.cpu_s for s in samples])
    scaled, beyond = _timings([s.wall_s * f for s, f in zip(samples, scales)],
                              [s.cpu_s * f for s, f in zip(samples, scales)])
    raw["setup_s"] = statistics.median(setup_probes.times)
    scaled["setup_s"] = statistics.median(
        t * calibration.scale(mark)
        for t, mark in zip(setup_probes.times, setup_probes.marks))
    metrics = {name: (value, "s") for name, value in scaled.items()}
    metrics.update({
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (ok / len(samples), "ratio"),
        "setup_s": metrics.pop("setup_s"),
    })
    notes = {"samples": len(samples), "tail_samples_beyond": beyond,
             "fail_frac": 1.0 - ok / len(samples),
             "unscaled_s": raw, "scale_median": statistics.median(scales),
             "calibration_s": calibration.samples,
             "setup_probes_s": setup_probes.times,
             "setup_probe_marks": setup_probes.marks}
    return metrics, notes


def _per(value, count):
    return value / count if count else 0.0


def layer_metrics(tracer, plain, traced, bytes_per_op):
    n = len(traced)
    st = tracer.stat
    point = st("sweeps.solve_point")
    fixed = st("steady.fixed_point")
    lyap = st("linear.solve_lyapunov")
    optimize = st("sweeps.optimize_scalar")
    wall = sum(s.wall_s for s in traced)
    rejected = (point.errors.get("UnstableSystemError", 0)
                + point.errors.get("DegenerateTrapError", 0))
    faults = (point.errors.get("NumericalError", 0)
              + point.errors.get("LinAlgError", 0))
    metrics = {
        "sweeps.solve_point.calls": (point.calls / n, "count"),
        "sweeps.solve_point.self_s": (point.self_s / n, "s"),
        "sweeps.solve_point.us_per_call": (_per(point.total_s, point.calls) * 1e6, "us"),
        "sweeps.solve_point.rejected_frac": (_per(rejected, point.calls), "ratio"),
        "sweeps.solve_point.numerical_faults": (faults / n, "count"),
        "sweeps.points_per_s": (_per(point.calls, wall), "1/s"),
        "sweeps.optimize_scalar.self_s": (optimize.self_s / n, "s"),
        "sweeps.evaluations_per_cell": (_per(optimize.evaluations, optimize.ok_calls), "count"),
        "sweeps.power_sweep.self_s": (st("sweeps.power_sweep").self_s / n, "s"),
        "sweeps.squeezing_sweep.self_s": (st("sweeps.squeezing_sweep").self_s / n, "s"),
        "sweeps.is_stable.calls": (st("sweeps.is_stable").calls / n, "count"),
        "sweeps.instability_threshold.self_s": (st("sweeps.instability_threshold").self_s / n, "s"),
    }
    for name in ("linear.linear_model", "linear.stability", "linear.solve_lyapunov",
                 "steady.fixed_point", "validate.lyapunov_direct",
                 "validate.integrate_moments"):
        metrics[f"{name}.calls"] = (st(name).calls / n, "count")
        metrics[f"{name}.self_s"] = (st(name).self_s / n, "s")
    for name in ("linear.steady_covariance", "linear.normal_modes", "linear.match_modes"):
        metrics[f"{name}.self_s"] = (st(name).self_s / n, "s")
    consistent = st("steady.self_consistent_fixed_points")
    metrics.update({
        "linear.eigs_per_point": (_per(point.ok_eigs, point.ok_calls), "count"),
        "linear.lyapunov_fallback_frac": (_per(tracer.edges.get(
            ("linear.solve_lyapunov", "validate.lyapunov_direct"), 0), lyap.calls), "ratio"),
        "steady.degenerate_frac": (_per(fixed.errors.get("DegenerateTrapError", 0),
                                        fixed.calls), "ratio"),
        "steady.self_consistent.calls": (consistent.calls / n, "count"),
        "steady.self_consistent.self_s": (consistent.self_s / n, "s"),
        "validate.cross_check.calls": (st("validate.cross_check").calls / n, "count"),
        "params.self_s": (tracer.layer_self_s("params") / n, "s"),
        "config.self_s": (tracer.layer_self_s("config") / n, "s"),
        "cli.self_s": (tracer.layer_self_s("cli") / n, "s"),
        "cli.bytes_written": (bytes_per_op, "bytes"),
        "trace.overhead_frac": (statistics.median(s.wall_s for s in traced)
                                / statistics.median(s.wall_s for s in plain) - 1.0,
                                "ratio"),
        "trace.unattributed_s": ((wall - tracer.root_s) / n, "s"),
    })
    return metrics


# --- entry points ---------------------------------------------------------------

def run(args, trimech):
    stamp = machine_stamp(trimech)
    if stamp["trimech_threads_set"]:
        print("perfbench: warning: TRIMECH_THREADS is set; the workloads "
              "assume it is unset", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        ops = workloads.make_pool(args.workload, args.seed, work / "inputs")
        if args.trace:
            runner = Runner(trimech, work)
            warm_up(runner)
            tracer = Tracer()
            plain, traced = measure_traced(runner, ops, args.seconds, tracer)
            samples = plain + traced
            bytes_per_op = runner.bytes_written / len(samples)
            metrics = layer_metrics(tracer, plain, traced, bytes_per_op)
            notes = {"samples": len(traced),
                     "functions": {k: v.as_dict() for k, v in sorted(tracer.stats.items())},
                     "edges": [[a, b, c] for (a, b), c in sorted(
                         tracer.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
                     "eig_calls": tracer.eig_calls}
        else:
            calibration = Calibration()
            with SetupProbes() as probes:
                runner = Runner(trimech, work, exclude=probes.pid)
                warm_up(runner)
                samples = measure(runner, ops, args.seconds, calibration, probes)
                rss = runner.usage.peak_rss_mb()
            metrics, notes = end_to_end_metrics(samples, rss, probes,
                                                calibration)
        digests = runner.output_digests(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": stamp,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "outputs_sha256": digests,
              "samples": [[s.index, s.wall_s, s.cpu_s, s.ok, s.mark, s.last]
                          for s in samples],
              "attempted": len(samples), "failed": failed,
              "problems": runner.problems[:50]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")

    print(f"perfbench {tag}: {len(samples)} requests, {failed} failed")
    print(f"machine: python {stamp['python']}, numpy {stamp['numpy']}, "
          f"scipy {stamp['scipy']}, nproc {stamp['nproc']}, "
          f"{stamp['cpu_model']}, load {stamp['load_average'][0]:.2f}, "
          f"git {stamp['git_revision']}")
    print(f"outputs: sha256 {digests['combined']} over "
          f"{digests['inputs_covered']}/{digests['inputs_in_pool']} inputs")
    for problem in runner.problems[:5]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_frac':40s} {notes['fail_frac']:.6g} ratio "
              f"({failed}/{len(samples)}); run_tail_s has "
              f"{notes['tail_samples_beyond']} samples above it")
        print("  times above are scaled (median factor {:.4f}) to the reference "
              "machine; unscaled: {}".format(notes["scale_median"], ", ".join(
                  f"{k} {v:.6g} s" for k, v in notes["unscaled_s"].items())))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke(trimech, names, seed):
    """One request of each kind per workload, untraced and traced; returns
    the list of problems."""
    problems = []
    for name in names:
        work = OUT / "work" / f"smoke-{name}-{os.getpid()}"
        try:
            ops = workloads.make_pool(name, seed, work / "inputs")
            firsts = list({op.variant: op for op in reversed(ops)}.values())
            runner = Runner(trimech, work)
            tracer = Tracer()
            for op in sorted(firsts, key=lambda o: o.index):
                _, _, (code, extra, log) = runner.timed(op)
                sha, _ = runner.verify(op, code, extra, log)
                _, _, (code, extra, log) = runner.timed(op, tracer)
                runner.verify(op, code, extra, log, expect=sha)
                print(f"smoke {name} {op.name}: {sha[:16]}")
            problems += [f"{name}: {p}" for p in runner.problems]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload at minimal size and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    trimech = load_program()
    if args.smoke:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        problems = smoke(trimech, names, args.seed)
        for problem in problems:
            print(f"FAILED {problem}")
        print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
        return 1 if problems else 0
    return run(args, trimech)


if __name__ == "__main__":
    sys.exit(main())
