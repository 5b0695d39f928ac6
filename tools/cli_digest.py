"""Fingerprint the command-line outputs of a source tree.

Usage: python3 tools/cli_digest.py TREE OUTDIR

Runs a fixed list of ``shannop`` commands from ``TREE/src``, each in a
fresh process with OUTDIR as its working directory, and prints one
``sha256  name`` line per output file and per command's stdout, in list
order.  Run it on two trees and ``diff`` the two listings: a clean diff
means both trees write the same bytes for every command below.

The list: ``gen-field`` of all four kinds; ``decompose`` dumps and stdout
at 64^3, packet depths 0-3, tensorial and MRA, and of the 3-component
64^3 field at depth 1; ``solve-ilap`` outputs and reports at 128^3,
depths 0-3, one MRA solve at 64^3 and one of the 3-component 64^3 field;
``helmholtz`` outputs and reports at 512^2, depths 0 and 3, and of
3-component 64^3 splits at depths 0 and 1; the ``rates`` CSVs of the certify-128cube
workload, one of ``--operator "nlap + 2"`` and one of ``--operator nlap``
on MRA packet bands at depth 2; and ``verify --suite all``.  The largest
command, ``solve-ilap`` at 128^3 and depth 3, peaks at 135 MiB RSS (the
``ru_maxrss`` of the children), and the whole list took 11.3-12.8 s wall
on a 2-vCPU VM, one command at a time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

FIELDS = [
    # name, grid, components, kind, seed
    ("f64", "64x64x64", 1, "random", 7),
    ("f128", "128x128x128", 1, "random", 101),
    ("f512", "512x512", 2, "random", 101),
    ("v64", "64x64x64", 3, "random", 5),
    ("grad32", "32x32", 2, "gradient", 3),
    ("sol32", "32x32x32", 3, "solenoidal", 4),
    ("corner32", "32x32", 2, "corner-mode", 0),
]


def commands():
    """(name, argv, output files) per command, in run order."""
    for name, grid, comps, kind, seed in FIELDS:
        argv = ["gen-field", "--grid", grid, "--components", str(comps),
                "--kind", kind, "--seed", str(seed), "--out", f"{name}.swf"]
        yield f"gen-{name}", argv, [f"{name}.swf"]
    for scheme in ("tensorial", "mra"):
        for depth in range(4):
            name = f"decompose-{scheme}-d{depth}"
            argv = ["decompose", "--in", "f64.swf", "--scheme", scheme,
                    "--packet-depth", str(depth), "--out", f"{name}.txt"]
            yield name, argv, [f"{name}.txt"]
    argv = ["decompose", "--in", "v64.swf", "--packet-depth", "1",
            "--out", "decompose-3c-d1.txt"]
    yield "decompose-3c-d1", argv, ["decompose-3c-d1.txt"]
    solves = [(f"ilap128-d{d}", "f128.swf", "tensorial", d) for d in range(4)]
    solves.append(("ilap64-mra", "f64.swf", "mra", 0))
    solves.append(("ilap64-3c", "v64.swf", "tensorial", 0))
    for name, infile, scheme, depth in solves:
        argv = ["solve-ilap", "--alpha", "1e6", "--in", infile, "--scheme",
                scheme, "--packet-depth", str(depth), "--out", f"{name}.swf",
                "--report", f"{name}.json"]
        yield name, argv, [f"{name}.swf", f"{name}.json"]
    splits = [("helm512-d0", "f512.swf", 0), ("helm512-d3", "f512.swf", 3),
              ("helm64-3c", "v64.swf", 0), ("helm64-3c-d1", "v64.swf", 1)]
    for name, infile, depth in splits:
        outs = [f"{name}-div.swf", f"{name}-curl.swf", f"{name}.json"]
        argv = ["helmholtz", "--in", infile, "--packet-depth", str(depth),
                "--out-div", outs[0], "--out-curl", outs[1], "--report", outs[2]]
        yield name, argv, outs
    rates = [
        ("rates-ilap-p1", ["--alpha", "1e6", "--packet-depth", "1"]),
        ("rates-leray-p1", ["--operator", "leray", "--packet-depth", "1"]),
        ("rates-ilap-mra", ["--alpha", "1e6", "--scheme", "mra"]),
        ("rates-nlap2", ["--operator", "nlap + 2"]),
        ("rates-nlap-mra-p2", ["--operator", "nlap", "--scheme", "mra",
                               "--packet-depth", "2"]),
    ]
    for name, extra in rates:
        argv = ["rates", "--grid", "128x128x128", *extra, "--csv", f"{name}.csv"]
        yield name, argv, [f"{name}.csv"]
    yield "verify-all", ["verify", "--suite", "all"], []


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    out = Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args, files in commands():
        run = subprocess.run(
            [sys.executable, "-m", "shannop.cli", *args],
            cwd=out, env=env, stdout=subprocess.PIPE, check=True,
        )
        for label, data in [(f"{name}.stdout", run.stdout)] + [
            (f, (out / f).read_bytes()) for f in files
        ]:
            print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
