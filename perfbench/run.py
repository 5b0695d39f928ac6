"""Benchmark harness for the shannop command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload helmholtz-512sq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every sample spawns a fresh interpreter that runs the real CLI
(``shannop.cli.main``) from ``src/`` through ``perfbench/child.py``.  Inputs
come from ``shannop gen-field --seed`` before anything is timed, and every
output is checked against the exact modewise oracles (``exact_solve``,
``exact_leray``) or closed-form rate formulas outside the timed windows.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
one run, with times as CPU time of the CLI processes (wall time is printed
beside them).  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# One numeric thread per child: the machine is shared and small, and numpy's
# FFT is single-threaded anyway.  SHANNOP_THREADS is not used: numpy is
# imported before the CLI reads it.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before this process imports numpy

CHILD_TIMEOUT_S = 120.0
MIN_SAMPLES = 3  # untraced samples per --trace 0 run
MIN_TRACE_PAIRS = 2  # (untraced, traced) pairs per --trace 1 run
HELD_OUT_SEED = 20070104  # claims must also hold on this seed (README)

# Correctness thresholds, shared with `shannop verify`.
REL_TOL = 1e-9
# A divergence residual counts as roundoff below this many units of
# max|k| * ||input||, four orders of magnitude above the observed level.
DIV_ROUNDOFF = 1e-12
# Recomputed closed-form rates must match the CSV to this relative error.
RATE_RTOL = 1e-12

ALPHA = 1e6

# The reference kernel (class Reference) takes this much CPU time on the
# machine the baseline was measured on (README); reported times are scaled
# to that speed.
REFERENCE_NOMINAL_S = 0.16


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation; ``stamps`` are its first compute calls."""

    name: str
    argv: list
    stamps: list
    check: str


@dataclass
class Workload:
    name: str
    grid: str
    components: int
    commands: list
    oracle: str | None


def _workloads(d: Path) -> dict:
    inp = str(d / "in.swf")
    cube = "128x128x128"
    helmholtz = Workload(
        "helmholtz-512sq", "512x512", 2,
        [Command("helmholtz",
                 ["helmholtz", "--in", inp, "--out-div", str(d / "div.swf"),
                  "--out-curl", str(d / "curl.swf"), "--report",
                  str(d / "helmholtz.json")],
                 ["shannop.solver:helmholtz_decompose"], "helmholtz")],
        "leray",
    )
    ilap = Workload(
        "ilap-128cube", cube, 1,
        [Command("solve-ilap",
                 ["solve-ilap", "--alpha", repr(ALPHA), "--in", inp, "--out",
                  str(d / "u.swf"), "--report", str(d / "ilap.json")],
                 ["shannop.solver:richardson_solve"], "ilap")],
        "ilap",
    )
    certify = Workload(
        "certify-128cube", cube, 1,
        [Command("decompose",
                 ["decompose", "--in", inp, "--packet-depth", "2"],
                 ["shannop.bands:analyze", "shannop.bands:synthesize"],
                 "decompose"),
         Command("rates-ilap",
                 ["rates", "--alpha", repr(ALPHA), "--packet-depth", "1",
                  "--grid", cube, "--csv", str(d / "rates-ilap.csv")],
                 ["shannop.precond:sampled_contraction"], "rates"),
         Command("rates-leray",
                 ["rates", "--operator", "leray", "--packet-depth", "1",
                  "--grid", cube, "--csv", str(d / "rates-leray.csv")],
                 ["shannop.precond:leray_rate_bounds",
                  "shannop.precond:leray_lambda"], "rates"),
         Command("rates-mra",
                 ["rates", "--alpha", repr(ALPHA), "--scheme", "mra",
                  "--grid", cube, "--csv", str(d / "rates-mra.csv")],
                 ["shannop.precond:sampled_contraction"], "rates")],
        None,
    )
    return {w.name: w for w in (helmholtz, ilap, certify)}


WORKLOAD_NAMES = tuple(_workloads(Path(".")))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class Spawn:
    """Spawn-to-exit of one child, its CPU time, exit status and peak RSS."""

    wall_s: float
    cpu_s: float
    returncode: int
    maxrss_mib: float
    t_spawn: float


class Launcher:
    """The small process that spawns and reaps every child (launcher.py).

    Start it before this process imports numpy.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list, stdout: Path, stderr: Path) -> Spawn:
        request = {"argv": argv, "cwd": str(ROOT), "env": _child_env(),
                   "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Spawn(reply["wall_s"], reply["cpu_s"], reply["returncode"],
                     reply["maxrss_mib"], reply["t_spawn"])

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        finally:
            self.proc.kill()  # no-op once it has exited
            self.proc.wait()
            self.proc.stdout.close()


@dataclass
class CommandRun:
    command: Command
    spawn: Spawn
    record: dict | None
    stdout: Path
    stderr: Path

    def _stamps(self, suffix: str) -> tuple:
        rec = self.record or {}
        return rec.get("first_entry" + suffix), rec.get("last_exit" + suffix)

    @property
    def setup_s(self) -> float | None:
        """CPU time from process start to the first stamped entry."""
        return self._stamps("_cpu")[0]

    @property
    def solve_s(self) -> float | None:
        """CPU time from the first stamped entry to the last stamped exit."""
        first, last = self._stamps("_cpu")
        return None if first is None or last is None else last - first

    @property
    def setup_wall_s(self) -> float | None:
        first = self._stamps("")[0]
        return None if first is None else first - self.spawn.t_spawn

    @property
    def solve_wall_s(self) -> float | None:
        first, last = self._stamps("")
        return None if first is None or last is None else last - first


def run_command(launcher: Launcher, cmd: Command, d: Path, mode: str) -> CommandRun:
    """mode: 'plain' (stamps only) or 'trace'."""
    record = d / f"{cmd.name}.{mode}.record.json"
    record.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), "--stamp",
            ",".join(cmd.stamps), "--record", str(record)]
    if mode == "trace":
        argv.append("--trace")
    argv += ["--"] + cmd.argv
    stdout, stderr = d / f"{cmd.name}.stdout", d / f"{cmd.name}.stderr"
    sp = launcher.spawn(argv, stdout, stderr)
    rec = json.loads(record.read_text()) if record.exists() else None
    return CommandRun(cmd, sp, rec, stdout, stderr)


# ---------------------------------------------------------------------------
# Correctness checks (never inside a timed window)
# ---------------------------------------------------------------------------


class Checker:
    """Holds the input field and the oracle output for one workload run."""

    def __init__(self, wl: Workload, d: Path):
        from shannop.io import read_field
        from shannop.solver import exact_leray, exact_solve
        from shannop.symbols import ImplicitLaplacian

        oracles = {
            "leray": lambda f: exact_leray(f)[0],
            "ilap": lambda f: exact_solve(ImplicitLaplacian(ALPHA), f),
        }
        self.d = d
        self.read_field = read_field
        self.field = read_field(d / "in.swf")
        self.oracle_s = 0.0
        self.reference = None
        if wl.oracle:
            t = time.process_time()  # CPU time, like solve_s
            self.reference = oracles[wl.oracle](self.field)
            self.oracle_s = time.process_time() - t
        self.iterations = []
        self.mra_worst = None

    def check(self, run: CommandRun) -> list:
        """Failed checks of one full command run (empty when it passed)."""
        if run.spawn.returncode != 0:
            tail = run.stderr.read_text(errors="replace").strip()[-400:]
            return [f"{run.command.name}: exit {run.spawn.returncode}: {tail}"]
        if run.setup_s is None:
            return [f"{run.command.name}: stamped call {run.command.stamps} never ran"]
        try:
            return getattr(self, f"_check_{run.command.check}")(run)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            return [f"{run.command.name}: unreadable output: {exc!r}"]

    def _report(self, path: Path, fails: list) -> dict:
        report = json.loads(path.read_text())
        if report.get("converged") is not True:
            fails.append(f"{path.name}: not converged")
        self.iterations.append(report.get("iterations"))
        return report

    def _check_helmholtz(self, run: CommandRun) -> list:
        fails: list = []
        report = self._report(self.d / "helmholtz.json", fails)
        udiv = self.read_field(self.d / "div.swf")
        ucurl = self.read_field(self.d / "curl.swf")
        norm = self.field.l2_norm()
        err = (udiv - self.reference).l2_norm() / norm
        if not err <= REL_TOL:
            fails.append(f"helmholtz: u_div vs exact_leray rel err {err:.3e}")
        sum_err = (udiv + ucurl - self.field).l2_norm() / norm
        if not sum_err <= REL_TOL:
            fails.append(f"helmholtz: u_div + u_curl - u rel err {sum_err:.3e}")
        kmax = math.sqrt(sum((n // 2) ** 2 for n in self.field.grid.sizes))
        div = (report.get("divergence_residuals") or [math.inf])[-1]
        if not div <= DIV_ROUNDOFF * kmax * norm:
            fails.append(f"helmholtz: last divergence residual {div:.3e}")
        return fails

    def _check_ilap(self, run: CommandRun) -> list:
        fails: list = []
        self._report(self.d / "ilap.json", fails)
        u = self.read_field(self.d / "u.swf")
        err = (u - self.reference).l2_norm() / self.reference.l2_norm()
        if not err <= REL_TOL:
            fails.append(f"solve-ilap: u vs exact_solve rel err {err:.3e}")
        return fails

    def _check_decompose(self, run: CommandRun) -> list:
        lines = run.stdout.read_text().strip().splitlines()
        last = lines[-1] if lines else ""
        if "reconstruction_rel_err 0.000e+00" not in last:
            return [f"decompose: reconstruction not bit-exact: {last!r}"]
        return []

    def _check_rates(self, run: CommandRun) -> list:
        csv = Path(run.command.argv[run.command.argv.index("--csv") + 1])
        rows = csv.read_text().strip().splitlines()[1:]
        fails: list = []
        if not rows:
            fails.append(f"{run.command.name}: empty rate table")
        worst = 0.0
        for row in rows:
            _, a, b, theo, samp, formula = row.split(",")
            a, b, theo, samp = float(a), float(b), float(theo), float(samp)
            if formula == "implicit-laplacian":
                expect = ALPHA * (b * b - a * a) / (2.0 + ALPHA * (a * a + b * b))
            elif formula == "kantorovich":
                expect = 0.25 * (a / b + b / a) ** 2 - 1.0
            else:
                expect = math.nan
            if not (abs(theo - expect) <= RATE_RTOL * max(1.0, abs(expect))
                    and math.isfinite(samp)):
                fails.append(f"{run.command.name}: row {row!r} disagrees with "
                             f"{formula} recomputed ({expect!r})")
                break
            worst = max(worst, theo)
        if run.command.name == "rates-mra":
            # Criterion 04 (d/(d+2)) is the test suite's gate; recorded only.
            self.mra_worst = worst
        return fails


# ---------------------------------------------------------------------------
# CPU speed reference
# ---------------------------------------------------------------------------


class Reference:
    """A fixed numpy kernel that measures how fast the CPU is just now.

    On a shared host the CPU time of the same command moves by up to 60%
    from one minute to the next, with the load of other guests.  The harness
    times this kernel before the first sample and after each one, and
    scales the run's times by ``REFERENCE_NOMINAL_S`` over the median of
    those reference times.  The kernel mixes what the workloads spend their
    time on: 2-D FFTs, a gather and scatter through a fixed permutation, and
    elementwise complex arithmetic, on arrays of the workloads' size.  Its
    inputs never change, so every call does the same work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.square = (rng.standard_normal((512, 512))
                       + 1j * rng.standard_normal((512, 512)))
        self.flat = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
        self.perm = rng.permutation(1 << 20)
        self.gathered = np.empty_like(self.flat)
        self.scattered = np.empty_like(self.flat)
        self.measure()  # first touch of the buffers, untimed

    def measure(self) -> float:
        """CPU seconds of one pass of the kernel."""
        np = self.np
        t = time.process_time()
        for _ in range(2):
            np.fft.ifft2(np.fft.fft2(self.square))
            np.take(self.flat, self.perm, out=self.gathered)
            self.gathered *= 1.0000001
            self.gathered += self.flat
            self.scattered[self.perm] = self.gathered
        return time.process_time() - t


# ---------------------------------------------------------------------------
# Traces -> per-layer metrics
# ---------------------------------------------------------------------------


def span_times(spans: list) -> tuple[dict, dict]:
    """(inclusive time of outermost spans by name, self time by module)."""
    n = len(spans)
    child = [0.0] * n
    inner = [False] * n  # nested inside a span of the same name
    ancestors = [frozenset()] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
            inner[i] = name in ancestors[i]
    incl: dict = {}
    self_by_module: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        if not inner[i]:
            incl[name] = incl.get(name, 0.0) + (end - start)
        module = name.split(".")[1]
        self_by_module[module] = (self_by_module.get(module, 0.0)
                                  + (end - start) - child[i])
    return incl, self_by_module


COUNT_KEYS = ("io.bytes_read", "io.bytes_written", "grid.fft_calls",
              "grid.fft_bytes_computed", "bands.nbands", "bands.dc_modes",
              "precond.sampled_contraction_calls")


def layer_metrics(runs: list) -> dict:
    """Per-layer metrics of one traced sample (all commands of a workload)."""
    incl: dict = {}
    self_t: dict = {}
    counts = {k: 0 for k in COUNT_KEYS}
    m = {"cli.import_s": 0.0, "solver.sweeps": 0, "solver.fitted_rate": 0.0,
         "precond.worst_rho": 0.0, "proc.rss_after_setup_mib": 0.0,
         "proc.rss_after_solve_mib": 0.0}
    for run in runs:
        rec = run.record
        i, s = span_times(rec["spans"])
        for k, v in i.items():
            incl[k] = incl.get(k, 0.0) + v
        for k, v in s.items():
            self_t[k] = self_t.get(k, 0.0) + v
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        m["cli.import_s"] += rec["import_s"]
        if rec["report"]:
            m["solver.sweeps"] += rec["report"][0]
            m["solver.fitted_rate"] = rec["report"][1]
        if rec["worst_rho"] is not None:
            m["precond.worst_rho"] = max(m["precond.worst_rho"], rec["worst_rho"])
        for key in ("rss_after_setup_mib", "rss_after_solve_mib"):
            m[f"proc.{key}"] = max(m[f"proc.{key}"], rec[key] or 0.0)

    def t(*names: str) -> float:
        return sum(incl.get(f"shannop.{n}", 0.0) for n in names)

    for module in ("cli", "io", "grid", "symbols", "bands", "precond", "solver"):
        m[f"{module}.self_s"] = self_t.get(module, 0.0)
    m.update({
        "io.read_s": t("io.read_field"),
        "io.write_s": t("io.write_field"),
        "grid.fft_s": t("grid.forward_transform", "grid.inverse_transform"),
        "grid.evaluate_on_grid_s": t("grid.evaluate_on_grid"),
        "symbols.eval_many_s": t("symbols.eval_many"),
        "symbols.pseudo_inverse_s": t("symbols.pseudo_inverse"),
        "bands.partition_s": t("bands.build_tensorial_partition",
                               "bands.build_mra_partition",
                               "bands.refine_packet"),
        "bands.flat_indices_s": t("bands.FrequencyBand.flat_indices"),
        "bands.analyze_s": t("bands.analyze"),
        "bands.synthesize_s": t("bands.synthesize"),
        "precond.build_s": t("precond.implicit_laplacian_precond",
                             "precond.scalar_optimal"),
        "precond.rate_bounds_s": t("precond.BandPreconditioner.rate_bounds",
                                   "precond.leray_rate_bounds"),
        "precond.sampled_contraction_s": t("precond.sampled_contraction"),
    })
    m.update(counts)
    sweeps = m["solver.sweeps"]
    m["solver.sweep_ms"] = 1e3 * m["solver.self_s"] / sweeps if sweeps else 0.0
    return m


# (name, unit) of every per-layer metric, in BENCHMARK.json order.
LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "io.self_s": "s", "io.read_s": "s", "io.write_s": "s",
    "io.bytes_read": "bytes", "io.bytes_written": "bytes",
    "grid.self_s": "s", "grid.fft_s": "s", "grid.fft_calls": "count",
    "grid.fft_bytes_computed": "bytes", "grid.evaluate_on_grid_s": "s",
    "symbols.self_s": "s", "symbols.eval_many_s": "s",
    "symbols.pseudo_inverse_s": "s",
    "bands.self_s": "s", "bands.partition_s": "s", "bands.nbands": "count",
    "bands.dc_modes": "count", "bands.flat_indices_s": "s",
    "bands.analyze_s": "s", "bands.synthesize_s": "s",
    "precond.self_s": "s", "precond.build_s": "s", "precond.rate_bounds_s": "s",
    "precond.sampled_contraction_s": "s",
    "precond.sampled_contraction_calls": "count", "precond.worst_rho": "ratio",
    "solver.self_s": "s", "solver.sweeps": "count", "solver.sweep_ms": "ms",
    "solver.oracle_s": "s", "solver.oracle_ratio": "ratio",
    "solver.fitted_rate": "ratio",
    "proc.rss_after_setup_mib": "MiB", "proc.rss_after_solve_mib": "MiB",
    "trace.overhead_s": "s",
}
EXACT_KEYS = ("solver.sweeps",) + COUNT_KEYS

# Gated end-to-end metrics.  The times are CPU time (user + system) of the
# CLI processes, scaled to the reference speed (class Reference).  Wall time
# also counts the time a hypervisor gives the vCPU to other guests; on a
# shared 2-vCPU VM that moved it by 20-40% from one minute to the next.
# The unscaled times are printed beside them (INFO_UNITS).
E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
INFO_UNITS = {"wall_s": "s", "setup_wall_s": "s", "solve_wall_s": "s",
              "cpu_unscaled_s": "s", "setup_unscaled_s": "s",
              "solve_unscaled_s": "s", "reference_s": "s"}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One execution of all of a workload's commands."""

    runs: list
    fails: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.spawn.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.spawn.cpu_s for r in self.runs)

    def total(self, name: str) -> float | None:
        """A per-command time summed over the commands."""
        parts = [getattr(r, name) for r in self.runs]
        return None if None in parts else sum(parts)

    @property
    def peak_rss_mib(self) -> float:
        return max(r.spawn.maxrss_mib for r in self.runs)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, fails: list) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(fails)


def run_sample(launcher: Launcher, wl: Workload, d: Path, mode: str,
               checker: Checker, tally: Tally) -> Sample:
    sample = Sample([run_command(launcher, c, d, mode) for c in wl.commands])
    for run in sample.runs:
        fails = checker.check(run)
        tally.add(fails)
        sample.fails.extend(fails)
    return sample


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "shannop").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_exact_counts(key: str, counts: dict, tally: Tally) -> None:
    """Exact counts must repeat in every run of the same code and seed."""
    store = WORK / "exact_counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.setdefault(key, {})
    fails = [f"exact count {k} = {v}, an earlier run of the same code had "
             f"{previous[k]}" for k, v in counts.items()
             if k in previous and previous[k] != v]
    tally.add(fails)
    previous.update(counts)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def same(values: list, name: str) -> list:
    return [] if len(set(values)) <= 1 else [f"{name} differs between samples: {values}"]


def summarize(values: list) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.6g}"
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} {vals[n - 11]:.6g}"
    return text + f" (n={n})"


def run_workload(launcher: Launcher, reference: Reference, name: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    d = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    wl = _workloads(d)[name]
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    gen = launcher.spawn([sys.executable, "-m", "shannop.cli", "gen-field", "--grid",
                 wl.grid, "--components", str(wl.components), "--kind",
                 "random", "--seed", str(seed), "--out", str(d / "in.swf")],
                d / "gen.stdout", d / "gen.stderr")
    if gen.returncode != 0:
        raise RuntimeError("gen-field failed: "
                           + (d / "gen.stderr").read_text(errors="replace")[-400:])
    checker = Checker(wl, d)
    tally = Tally()
    plain, traced = [], []
    start = time.monotonic()
    references = [reference.measure()]
    while True:
        plain.append(run_sample(launcher, wl, d, "plain", checker, tally))
        references.append(reference.measure())
        if trace:
            traced.append(run_sample(launcher, wl, d, "trace", checker, tally))
        # Stop before a further round would run past the window.
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        enough = len(plain) >= (MIN_TRACE_PAIRS if trace else MIN_SAMPLES)
        if enough and elapsed + per_round > seconds:
            break

    fails = same(checker.iterations, "iterations")
    result = {"workload": wl.name, "seed": seed, "trace": trace,
              "samples": len(plain), "oracle_s": checker.oracle_s,
              "iterations": checker.iterations[0] if checker.iterations else 0,
              "mra_worst_rho": checker.mra_worst,
              "input_bytes": (d / "in.swf").stat().st_size}
    good = [s for s in plain if not s.fails]
    if good:
        # One factor per run: the median of the reference times taken
        # between its samples.
        scale = REFERENCE_NOMINAL_S / statistics.median(references)
        unscaled = {
            "cpu_s": [s.cpu_s for s in good],
            "setup_s": [s.total("setup_s") for s in good],
            "solve_s": [s.total("solve_s") for s in good],
        }
        result["e2e"] = {k: [v * scale for v in vals]
                         for k, vals in unscaled.items()}
        result["e2e"]["peak_rss_mib"] = [s.peak_rss_mib for s in good]
        result["info"] = {
            "wall_s": [s.wall_s for s in good],
            "setup_wall_s": [s.total("setup_wall_s") for s in good],
            "solve_wall_s": [s.total("solve_wall_s") for s in good],
            "reference_s": references,
        }
        result["info"].update({k.replace("_s", "_unscaled_s"): v
                               for k, v in unscaled.items()})
    exact = {"iterations": result["iterations"]}
    if trace:
        traced = [s for s in traced if not s.fails]
        layers = [layer_metrics(s.runs) for s in traced]
        for k in EXACT_KEYS:
            fails += same([m[k] for m in layers], k)
        if layers and good:
            walls = [s.wall_s for s in traced]
            # Exact counts are identical across samples (checked above).
            lm = {k: layers[0][k] if k in EXACT_KEYS
                  else statistics.median([m[k] for m in layers])
                  for k in LAYER_UNITS if k in layers[0]}
            solve = statistics.median(result["info"]["solve_unscaled_s"])
            lm["solver.oracle_s"] = checker.oracle_s
            lm["solver.oracle_ratio"] = (solve / checker.oracle_s
                                         if checker.oracle_s else 0.0)
            lm["trace.overhead_s"] = (statistics.median(walls)
                                      - statistics.median(result["info"]["wall_s"]))
            if lm["solver.sweeps"] != result["iterations"]:
                fails.append(f"traced solver.sweeps {lm['solver.sweeps']} != "
                             f"untraced iterations {result['iterations']}")
            result["layers"] = lm
            exact.update({k: layers[0][k] for k in EXACT_KEYS})
    tally.add(fails)
    check_exact_counts(f"{wl.name}/seed{seed}/{source_digest()}", exact, tally)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  messages=tally.messages)
    for p in d.glob("*.swf"):
        p.unlink()
    (d / "result.json").write_text(json.dumps(result, indent=1))
    return result


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    meminfo = _read("/proc/meminfo") or ""
    ram = next((line.split(":", 1)[1].strip() for line in meminfo.splitlines()
                if line.startswith("MemTotal")), "unknown")
    try:
        import numpy.fft._pocketfft  # noqa: F401

        backend = "numpy.fft (pocketfft)"
    except ImportError:
        backend = "numpy.fft"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "ram": ram,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": backend,
        "thread_env": dict(THREAD_ENV),
    }


def _size_bytes(text: str | None) -> int:
    if not text:
        return 0
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def print_report(res: dict, machine: dict) -> None:
    llc = max((_size_bytes(v) for v in machine["caches"].values()), default=0)
    print(f"== {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
          f"{res['samples']} samples, {res['attempted']} operations, "
          f"{res['failed']} failed")
    errate = res["failed"] / res["attempted"]
    print(f"  error_rate {errate:.6g} fraction "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    print(f"  iterations {res['iterations']} count")
    e2e = res.get("e2e", {})
    for name, values in e2e.items():
        print(f"  {name} {summarize(values)} {E2E_UNITS[name]}")
    for name, values in res.get("info", {}).items():
        print(f"  {name} {summarize(values)} {INFO_UNITS[name]} (not gated)")
    rss = statistics.median(e2e["peak_rss_mib"]) if e2e else 0
    print(f"  working set: input {res['input_bytes']} bytes, peak RSS "
          f"{rss * 2**20:.0f} bytes, LLC {llc} bytes")
    if res["mra_worst_rho"] is not None:
        print(f"  rates-mra worst rho_theoretical {res['mra_worst_rho']!r} "
              f"(criterion 04 bound d/(d+2) = 0.6 is not gated here)")
    for name, value in res.get("layers", {}).items():
        print(f"  {name} {value!r} {LAYER_UNITS[name]}")
    for msg in res["messages"]:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shannop" / "cli.py").is_file():
        print(f"error: {SRC / 'shannop'} not found; run from the root of a "
              f"shannop source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    with Launcher() as launcher:
        machine = machine_record()
        reference = Reference()
        print("machine " + json.dumps(machine))
        print(f"held-out seed {HELD_OUT_SEED}")
        for name in names:
            res = run_workload(launcher, reference, name, args.seed,
                               args.seconds, bool(args.trace))
            print_report(res, machine)
            results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    if len(results) == 1:
        res = results[0]
        if args.trace:
            metrics = {k: {"value": res["layers"][k], "unit": u}
                       for k, u in LAYER_UNITS.items() if k in res.get("layers", {})}
        elif "e2e" in res:
            metrics = {k: {"value": statistics.median(res["e2e"][k]), "unit": u}
                       for k, u in E2E_UNITS.items()}
    correct = failed == 0 and bool(metrics or len(results) > 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
