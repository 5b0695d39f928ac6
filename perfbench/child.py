"""Run one `shannop` CLI command in this (fresh) process, with measurement.

Usage:
    python3 perfbench/child.py --stamp MOD:FUNC[,MOD:FUNC...] --record FILE
        [--trace] -- <shannop arguments>

The command is the real CLI: ``shannop.cli.main(argv)``, exactly what the
``shannop`` console script calls.  The functions named by ``--stamp`` (the
command's first compute call, e.g. ``shannop.solver:richardson_solve``) get
a thin wrapper that notes, at the first entry and the last exit, the
monotonic clock and this process's CPU time.  The parent read the monotonic
clock before spawning, so it can split spawn-to-exit into set-up and compute
(CLOCK_MONOTONIC is shared by every process on the machine); the CPU time
counts from the start of this process, so it splits the same way.

``--trace`` also wraps every public function of the seven library modules,
wherever a shannop module binds it, plus two public methods.  Each call
appends a span (name, start, end, parent) to an in-memory list, plus a few
exact counts taken from arguments and results; all of it is written to the
record file when the command ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

TRACED_MODULES = ("cli", "io", "grid", "symbols", "bands", "precond", "solver")
TRACED_METHODS = (
    ("shannop.bands", "FrequencyBand", "flat_indices"),
    ("shannop.precond", "BandPreconditioner", "rate_bounds"),
)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Record:
    """Stamps, spans and counts of one command, kept in memory."""

    def __init__(self, path: str):
        self.path = path
        self.first_entry = None
        self.last_exit = None
        self.first_entry_cpu = None
        self.last_exit_cpu = None
        self.rss_after_setup_mib = None
        self.rss_after_solve_mib = None
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = {}
        self.worst_rho = None
        self.partition = None  # (nbands, dc_modes) of the last partition built
        self.report = None  # (iterations, fitted_rate) of the last solve
        self.import_s = None

    def dump(self, **extra) -> None:
        payload = {
            "first_entry": self.first_entry,
            "last_exit": self.last_exit,
            "first_entry_cpu": self.first_entry_cpu,
            "last_exit_cpu": self.last_exit_cpu,
            "rss_after_setup_mib": self.rss_after_setup_mib,
            "rss_after_solve_mib": self.rss_after_solve_mib,
            "import_s": self.import_s,
            "spans": self.spans,
            "counts": self.counts,
            "worst_rho": self.worst_rho,
            "partition": self.partition,
            "report": self.report,
        }
        payload.update(extra)
        with open(self.path, "w") as fh:
            json.dump(payload, fh)

    # -- stamps -----------------------------------------------------------

    def enter_stamped(self) -> None:
        if self.first_entry is None:
            self.first_entry = time.monotonic()
            self.first_entry_cpu = time.process_time()
            self.rss_after_setup_mib = _maxrss_mib()

    def exit_stamped(self) -> None:
        self.last_exit = time.monotonic()
        self.last_exit_cpu = time.process_time()
        self.rss_after_solve_mib = _maxrss_mib()

    # -- counts -----------------------------------------------------------

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def rho(self, value: float) -> None:
        if self.worst_rho is None or value > self.worst_rho:
            self.worst_rho = float(value)

    def observe(self, name: str, args, result) -> None:
        """Exact counts read from a traced call's arguments and result."""
        if name == "shannop.io.read_field":
            self.add("io.bytes_read", os.path.getsize(args[0]))
        elif name == "shannop.io.write_field":
            self.add("io.bytes_written", os.path.getsize(args[1]))
        elif name == "shannop.grid.forward_transform":
            self.add("grid.fft_calls", 1)
            self.add("grid.fft_bytes_computed",
                     args[0].values.nbytes + result.modes.nbytes)
        elif name == "shannop.grid.inverse_transform":
            self.add("grid.fft_calls", 1)
            self.add("grid.fft_bytes_computed",
                     args[0].modes.nbytes + result.values.nbytes)
        elif name in ("shannop.bands.build_tensorial_partition",
                      "shannop.bands.build_mra_partition",
                      "shannop.bands.refine_packet"):
            self.partition = (len(result.bands), len(result.dc_indices))
        elif name in ("shannop.solver.richardson_solve",
                      "shannop.solver.helmholtz_decompose"):
            report = result[-1]
            self.report = (report.iterations, report.fitted_rate)
        elif name == "shannop.precond.sampled_contraction":
            self.add("precond.sampled_contraction_calls", 1)
            self.rho(result)
        elif name in ("shannop.precond.BandPreconditioner.rate_bounds",
                      "shannop.precond.leray_rate_bounds"):
            for rb in result:
                self.rho(rb.rho)
        elif name in ("shannop.precond.rate_implicit_laplacian",
                      "shannop.precond.rate_kantorovich"):
            self.rho(result)


def _stamp_wrapper(rec: Record, fn):
    def wrapper(*args, **kwargs):
        rec.enter_stamped()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit_stamped()

    wrapper.__wrapped__ = fn
    return wrapper


def _span_wrapper(rec: Record, name: str, fn):
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter

    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        rec.observe(name, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original, replacement) -> None:
    """Replace ``original`` everywhere a shannop module binds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "shannop" or modname.startswith("shannop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install_stamps(rec: Record, targets) -> None:
    for target in targets:
        modname, func = target.split(":")
        original = getattr(sys.modules[modname], func)
        _rebind(original, _stamp_wrapper(rec, original))


def _is_public_function(mod, name: str, obj) -> bool:
    if name.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


def install_tracer(rec: Record) -> None:
    for short in TRACED_MODULES:
        mod = sys.modules[f"shannop.{short}"]
        for name, obj in list(vars(mod).items()):
            if _is_public_function(mod, name, obj):
                _rebind(obj, _span_wrapper(rec, f"{mod.__name__}.{name}", obj))
    for modname, clsname, meth in TRACED_METHODS:
        cls = getattr(sys.modules[modname], clsname)
        fn = getattr(cls, meth)
        setattr(cls, meth, _span_wrapper(rec, f"{modname}.{clsname}.{meth}", fn))


def main(argv) -> int:
    if "--" not in argv:
        print("usage: child.py --stamp T[,T...] --record FILE [--trace] -- "
              "<shannop arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    stamps = opts[opts.index("--stamp") + 1].split(",")
    record_path = opts[opts.index("--record") + 1]
    rec = Record(record_path)

    t0 = time.perf_counter()
    import shannop.cli as cli  # noqa: E402  (timed on purpose)
    rec.import_s = time.perf_counter() - t0

    if "--trace" in opts:
        install_tracer(rec)
    install_stamps(rec, stamps)
    rc = cli.main(cli_argv)
    if rec.partition is not None:
        rec.counts["bands.nbands"], rec.counts["bands.dc_modes"] = rec.partition
    rec.dump(returncode=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
