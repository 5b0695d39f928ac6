"""The CLI as a property: any argument list drawn for gen-field, decompose,
solve-ilap, helmholtz or rates ends in a documented exit code (0, 2, 3 or
4, argparse's usage exit counting as 2), and no other exception escapes
``cli.main``.  Runs in process on grids of at most 16 per axis; pytest
turns every RuntimeWarning into an error."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shannop import cli


def mixed(valid, junk):
    """Half the draws from ``valid``, half from ``junk``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(junk))


NUMBERS = mixed(["1", "1e6", "1e-8"],
                ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e-320", "1e308", "x"])
DEPTHS = mixed(["0", "1", "2", "3"], ["-1", "52", "53", "60"])
MAX_ITER = mixed(["3", "200"], ["0", "-1", "1", "nan"])
OPERATORS = mixed(
    ["leray", "nlap", "-nlap", "ilap(1e6)", "id", "2+nlap", "xi(1)*xiinv(1)"],
    ["ilap(-1)", "nlap*1e-310", "1e-320", "1e999", "xi(1.5)", "delta(1,1)",
     "grad", "bogus(3", "", "(", "nlap*"],
)
GRIDS = st.one_of(
    st.lists(st.sampled_from(["4", "8", "16"]), min_size=1, max_size=3).map("x".join),
    st.sampled_from(["2", "0x8", "-4", "x", "8x8x8x8", "3x4", ""]),
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Inputs of each dimension and component count, and bad paths."""
    d = tmp_path_factory.mktemp("cli")
    inputs = []
    for grid, comps in (("16", 1), ("8x8", 2), ("16x16", 1), ("4x4x4", 3)):
        path = d / f"f{grid}-{comps}.swf"
        assert cli.main(["gen-field", "--grid", grid, "--components",
                         str(comps), "--seed", "1", "--out", str(path)]) == 0
        inputs.append(str(path))
    junk = d / "junk.swf"
    junk.write_bytes(b"not a field")
    outputs = [str(d / "out.swf")], [str(d / "no-such-dir" / "out.swf"), str(d)]
    return mixed(inputs, [str(junk), str(d / "missing.swf")]), mixed(*outputs)


def options(draw, required, optional):
    """A value for each required (flag, values) pair, and each optional
    pair present or left out."""
    argv = []
    for flag, values in required + [o for o in optional if draw(st.booleans())]:
        argv.append(f"{flag}={draw(values)}")  # so "-1" is not read as a flag
    return argv


@st.composite
def argument_lists(draw, inputs, outputs):
    command = draw(st.sampled_from(
        ["gen-field", "decompose", "solve-ilap", "helmholtz", "rates"]))
    depth = ("--packet-depth", DEPTHS)
    scheme = ("--scheme", mixed(["tensorial", "mra"], ["junk"]))
    infile, out = ("--in", inputs), outputs
    max_iter = ("--max-iter", MAX_ITER)
    if command == "gen-field":
        required = [("--grid", GRIDS), ("--out", out)]
        optional = [
            ("--components", mixed(["1", "2", "3"], ["0", "-1"])),
            ("--kind", mixed(["random", "gradient", "solenoidal", "corner-mode"],
                             ["junk"])),
            ("--seed", mixed(["0", "101"], ["-1"])),
        ]
    elif command == "decompose":
        required, optional = [infile], [scheme, depth, ("--out", out)]
    elif command == "solve-ilap":
        required = [infile, ("--alpha", NUMBERS)]
        optional = [scheme, depth, ("--tol", NUMBERS), max_iter, ("--out", out),
                    ("--report", out)]
    elif command == "helmholtz":
        required = [infile]
        optional = [depth, ("--tol", NUMBERS), max_iter, ("--out-div", out),
                    ("--out-curl", out), ("--report", out)]
    else:
        required = [("--grid", GRIDS)]
        optional = [("--operator", OPERATORS), ("--alpha", NUMBERS), scheme, depth,
                    ("--csv", out)]
    return [command] + options(draw, required, optional)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_exit_is_documented(paths, data):
    argv = data.draw(argument_lists(*paths), label="argv")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in (0, 2, 3, 4), argv
