"""Command-line behavior: files, reports, exit codes, determinism."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shannop as sp
from shannop import cli
from shannop.errors import ArityError, BoundViolationError, DivergenceError
from shannop.solver import spectral_divergence


def strict_json(text: str):
    """Parse RFC 8259 JSON, refusing the NaN and Infinity extensions."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def child_env(threads):
    """The environment of a child process that imports this source tree and
    runs ``threads`` BLAS threads."""
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(sp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run(argv):
    return cli.main(argv)


class TestGenField:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.swf", tmp_path / "b.swf"
        for path in (a, b):
            assert run([
                "gen-field", "--grid", "32x32", "--components", "2",
                "--kind", "random", "--seed", "9", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gradient_kind_is_pure_curl(self, tmp_path):
        path = tmp_path / "g.swf"
        run(["gen-field", "--grid", "32x32", "--components", "2",
             "--kind", "gradient", "--seed", "1", "--out", str(path)])
        field = sp.read_field(path)
        udiv, _ = sp.exact_leray(field)
        assert udiv.l2_norm() <= 1e-12 * field.l2_norm()

    def test_solenoidal_kind_divergence_free(self, tmp_path):
        path = tmp_path / "s.swf"
        run(["gen-field", "--grid", "32x32", "--components", "2",
             "--kind", "solenoidal", "--seed", "2", "--out", str(path)])
        field = sp.read_field(path)
        div = spectral_divergence(sp.forward_transform(field))
        assert np.max(np.abs(div)) <= 1e-12 * field.l2_norm()

    def test_corner_mode_unit_energy(self, tmp_path):
        path = tmp_path / "c.swf"
        run(["gen-field", "--grid", "64x64", "--kind", "corner-mode",
             "--seed", "0", "--out", str(path)])
        field = sp.read_field(path)
        assert abs(field.l2_norm() - 1.0) < 1e-12

    def test_bad_grid_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen-field", "--grid", "48x48", "--out",
                 str(tmp_path / "x.swf")])
        assert err.value.code == 2


class TestSolveIlap:
    def test_alpha_zero_identity(self, tmp_path):
        vpath, upath, rpath = (tmp_path / n for n in ("v.swf", "u.swf", "r.json"))
        run(["gen-field", "--grid", "32x32", "--kind", "random",
             "--seed", "3", "--out", str(vpath)])
        code = run(["solve-ilap", "--alpha", "0", "--in", str(vpath),
                    "--out", str(upath), "--report", str(rpath)])
        assert code == 0
        v, u = sp.read_field(vpath), sp.read_field(upath)
        assert (u - v).l2_norm() <= 1e-12 * v.l2_norm()
        report = strict_json(rpath.read_text())
        assert report["iterations"] == 1 and report["converged"]
        assert report["fitted_rate"] is None  # fewer than three residuals

    def test_large_alpha_rate(self, tmp_path):
        vpath, rpath = tmp_path / "v.swf", tmp_path / "r.json"
        run(["gen-field", "--grid", "128x128", "--kind", "random",
             "--seed", "4", "--out", str(vpath)])
        code = run(["solve-ilap", "--alpha", "1e6", "--in", str(vpath),
                    "--report", str(rpath)])
        assert code == 0
        report = json.loads(rpath.read_text())
        assert report["fitted_rate"] <= 0.62

    def test_packet_depth_rate(self, tmp_path):
        vpath, rpath = tmp_path / "v.swf", tmp_path / "r.json"
        run(["gen-field", "--grid", "128x128", "--kind", "random",
             "--seed", "5", "--out", str(vpath)])
        code = run(["solve-ilap", "--alpha", "1e6", "--packet-depth", "1",
                    "--in", str(vpath), "--report", str(rpath)])
        assert code == 0
        assert json.loads(rpath.read_text())["fitted_rate"] <= 0.40

    def test_corrupt_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.swf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run(["solve-ilap", "--alpha", "1", "--in", str(bad)])
        assert code == 2

    def test_zero_component_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.swf"
        empty.write_bytes(b"SWF1" + struct.pack("<II2I", 2, 0, 16, 16))
        code = run(["solve-ilap", "--alpha", "1", "--in", str(empty)])
        assert code == 2


class TestHelmholtzCommand:
    def test_outputs_sum_to_input(self, tmp_path):
        vpath = tmp_path / "v.swf"
        dpath, cpath, rpath = (
            tmp_path / n for n in ("d.swf", "c.swf", "r.json")
        )
        run(["gen-field", "--grid", "64x64", "--components", "2",
             "--kind", "random", "--seed", "6", "--out", str(vpath)])
        code = run(["helmholtz", "--in", str(vpath), "--out-div", str(dpath),
                    "--out-curl", str(cpath), "--report", str(rpath)])
        assert code == 0
        v = sp.read_field(vpath)
        total = sp.read_field(dpath) + sp.read_field(cpath)
        assert (total - v).l2_norm() <= 1e-9 * v.l2_norm()
        report = json.loads(rpath.read_text())
        assert report["fitted_rate"] <= 0.58
        assert "divergence_residuals" in report
        assert len(report["divergence_residuals"]) == report["iterations"]


class TestRates:
    def test_leray_table(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run(["rates", "--operator", "leray", "--grid", "64x64",
                    "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows
        for row in rows:
            assert abs(float(row["rho_theoretical"]) - 0.5625) < 1e-12
            assert float(row["rho_sampled"]) <= 0.5625 + 1e-12
            assert row["formula"] == "kantorovich"

    def test_ilap_table(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run(["rates", "--alpha", "1e8", "--grid", "64x64",
                    "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows:
            theo = float(row["rho_theoretical"])
            assert 0.59 <= theo <= 0.6
            assert float(row["rho_sampled"]) <= theo + 1e-12

    def test_identity_table_zeros(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run(["rates", "--operator", "id", "--grid", "32x32",
                    "--csv", str(out)])
        assert code == 0
        for row in csv.DictReader(out.read_text().splitlines()):
            assert float(row["rho_theoretical"]) == 0.0
            assert float(row["rho_sampled"]) == 0.0

    def test_bad_operator_exits_2(self, tmp_path):
        code = run(["rates", "--operator", "bogus(3", "--grid", "32x32",
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("operator,position", [
        (" + ".join(["id"] * 3000), 3 + 5 * 255),  # the 256th '+'
        ("(" * 400 + "id" + ")" * 400, 255),  # the 256th '('
        ("-" * 300 + "id", 255),  # the 256th '-'
    ], ids=["sum", "parentheses", "minus"])
    def test_too_deeply_nested_operator_exits_2(self, capsys, operator, position):
        code = run(["rates", f"--operator={operator}", "--grid", "8x8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: expression nested deeper than 256 levels "
            f"(at position {position})"
        ]

    @pytest.mark.parametrize("operator", [
        " + ".join(["id"] * 256),
        "(" * 255 + "id" + ")" * 255,
        "-" * 254 + "(nlap)",
        " * ".join(["nlap"] * 128) + " - " + " - ".join(["id"] * 128),
    ], ids=["sum", "parentheses", "minus", "product-difference"])
    def test_operator_nested_at_the_bound_exits_0(self, capsys, operator):
        code = run(["rates", f"--operator={operator}", "--grid", "8x8"])
        assert code == 0
        assert capsys.readouterr().out.startswith("band_id,")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("operator,message", [
        ("1e999", "non-finite number (at position 0)"),
        ("nlap*1e300*1e300", "symbol is not finite on band (0, 0)"),
    ])
    def test_non_finite_operator_exits_2(self, capsys, operator, message):
        code = run(["rates", "--operator", operator, "--grid", "8x8"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-1", "inf", "nan"])
    def test_bad_alpha_exits_2(self, capsys, alpha):
        code = run(["rates", f"--alpha={alpha}", "--grid", "8x8"])
        assert code == 2
        assert "alpha must be finite and nonnegative" in capsys.readouterr().err

    def test_non_integer_axis_exits_2(self, capsys):
        code = run(["rates", "--operator", "xi(1.5)*xiinv(1.5)", "--grid", "8x8"])
        assert code == 2
        assert "integer axis arguments (at position 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("operator", ["nlap", "leray"])
    def test_alpha_with_operator_exits_2(self, capsys, operator):
        code = run(["rates", "--operator", operator, "--alpha", "5",
                    "--grid", "8x8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --alpha")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("operator,entry", [
        ("1e-320", "[[1e-320]]"), ("nlap*1e-310", "[[2e-310]]"),
    ])
    def test_overflowing_band_entry_exits_2(self, capsys, operator, entry):
        code = run(["rates", "--operator", operator, "--grid", "8x8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the entry {entry} on band (0, 0) has no finite inverse"
                in captured.err)

    def test_leray_on_a_1d_grid_exits_2(self, capsys):
        code = run(["rates", "--operator", "leray", "--grid", "16"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leray rates need a 2D or 3D grid, got '16'" in captured.err

    def test_leray_on_an_mra_partition_exits_2(self, capsys):
        code = run(["rates", "--operator", "leray", "--scheme", "mra",
                    "--grid", "32x32"])
        assert code == 2
        err = capsys.readouterr().err
        assert "band (0, (0, 1)) touches zero frequency" in err


class TestSweepCap:
    """Reaching --max-iter before --tol exits 3 and says so on stderr."""

    @pytest.mark.parametrize("command,components", [
        (["solve-ilap", "--alpha", "1e6"], "1"),
        (["helmholtz"], "2"),
    ])
    def test_exit_3_with_message(self, tmp_path, capsys, command, components):
        vpath = tmp_path / "v.swf"
        run(["gen-field", "--grid", "16x16", "--components", components,
             "--seed", "1", "--out", str(vpath)])
        code = run(command + ["--tol", "1e-300", "--max-iter", "3",
                              "--in", str(vpath)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: not converged after 3 sweeps (residual ")
        assert "> tol 1e-300)" in err

    def test_zero_initial_residual_exits_with_one_message(self, tmp_path, capsys):
        # A constant field has no band modes, so the first residual is 0,
        # and its 1e200 values overflow the reference norm, which no stop
        # test could be relative to: the split is refused before any sweep.
        path = tmp_path / "c.swf"
        grid = sp.GridSpec((16, 16))
        sp.write_field(sp.RealField(grid, np.full((2, 16, 16), 1e200)), path)
        code = run(["helmholtz", "--in", str(path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error: ") for line in lines) == 1


class TestExitCodeMapping:
    def test_divergence_maps_to_3(self, monkeypatch, tmp_path):
        def boom(args):
            raise DivergenceError(None)

        monkeypatch.setattr(cli, "cmd_gen_field", boom)
        code = run(["gen-field", "--grid", "8x8", "--out",
                    str(tmp_path / "x.swf")])
        assert code == 3

    def test_bound_violation_maps_to_4(self, monkeypatch, tmp_path):
        def boom(args):
            raise BoundViolationError((0, 0), 1.25)

        monkeypatch.setattr(cli, "cmd_gen_field", boom)
        code = run(["gen-field", "--grid", "8x8", "--out",
                    str(tmp_path / "x.swf")])
        assert code == 4

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path):
        # The child caps its own address space at 2 GiB, so the 8 GiB field
        # fails to allocate at once instead of reaching the machine's memory.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from shannop.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "gen-field", "--grid",
             "1024x1024x1024", "--out", "big.swf"],
            cwd=tmp_path, env=child_env(1), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith("error: out of memory: ")
        assert "8.00 GiB" in line and "(1, 1024, 1024, 1024)" in line
        assert not (tmp_path / "big.swf").exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["gen-field", "--grid", "8x8", "--out", "x", "--nope"])
        assert err.value.code == 2


class TestDecompose:
    def test_dump_matches_library(self, tmp_path, capsys):
        vpath = tmp_path / "v.swf"
        run(["gen-field", "--grid", "16x16", "--kind", "random",
             "--seed", "7", "--out", str(vpath)])
        out = tmp_path / "dump.txt"
        code = run(["decompose", "--in", str(vpath), "--scheme", "mra",
                    "--out", str(out)])
        assert code == 0
        expected = sp.dump_partition(sp.build_mra_partition(sp.GridSpec((16, 16))))
        assert out.read_text() == expected
        summary = capsys.readouterr().out
        assert "band_energy_rel_err" in summary

    def test_non_finite_total_energy_exits_2(self, tmp_path, capsys):
        # The samples and the spectrum are finite, but their squares
        # overflow float64.
        from shannop.generate import random_field
        from shannop.io import write_field

        grid = sp.GridSpec((16, 16))
        path = tmp_path / "big.swf"
        field = random_field(grid, 1, seed=1)
        write_field(sp.RealField(grid, field.values * 1e300), path)
        code = run(["decompose", "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: the field's total energy")
        assert "not finite" in err
        assert "total_energy" not in out
        assert "inf" not in out + err and "nan" not in out + err


class TestThreadIndependence:
    """Reports and energies must not depend on the BLAS thread count: a
    BLAS dot splits its sum per thread, so its last digits do.  512^2 is
    large enough for OpenBLAS to split a dot."""

    @staticmethod
    def shannop(argv, threads, cwd):
        done = subprocess.run(
            [sys.executable, "-m", "shannop.cli", *argv], cwd=cwd,
            env=child_env(threads), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_outputs_equal_under_one_and_two_threads(self, tmp_path):
        run(["gen-field", "--grid", "512x512", "--components", "2",
             "--kind", "random", "--seed", "101", "--out",
             str(tmp_path / "v.swf")])
        outputs = []
        for threads in (1, 2):
            report = f"r{threads}.json"
            self.shannop(["helmholtz", "--in", "v.swf", "--report", report],
                         threads, tmp_path)
            summary = self.shannop(["decompose", "--in", "v.swf"], threads,
                                   tmp_path).splitlines()[-1]
            outputs.append(((tmp_path / report).read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_solve_ilap_report_equal_under_one_and_two_threads(self, tmp_path):
        run(["gen-field", "--grid", "512x512", "--kind", "random",
             "--seed", "101", "--out", str(tmp_path / "v.swf")])
        reports = []
        for threads in (1, 2):
            report = tmp_path / f"r{threads}.json"
            self.shannop(["solve-ilap", "--alpha", "1e6", "--in", "v.swf",
                          "--report", report.name], threads, tmp_path)
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestVerify:
    def test_rates_suite_passes(self, capsys):
        code = run(["verify", "--suite", "rates"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5


class TestInputErrors:
    @staticmethod
    def field(tmp_path):
        path = tmp_path / "v.swf"
        assert run(["gen-field", "--grid", "16x16", "--seed", "1",
                    "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        vpath = self.field(tmp_path)
        code = run(["solve-ilap", "--alpha", "1", f"--tol={tol}",
                    "--in", str(vpath)])
        assert code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    @staticmethod
    def assert_norm_refused(capsys, code):
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: the field's norm")
        assert "not finite in float64" in err
        assert "inf" not in out + err and "nan" not in out + err

    @pytest.mark.parametrize("value", [1e160, 1e200])
    def test_overflowing_norm_exits_2_in_helmholtz(self, tmp_path, capsys, value):
        # The samples are finite but the squares of the mean mode overflow,
        # so the reference norm is not finite and no stop test can hold.
        path = tmp_path / "c.swf"
        grid = sp.GridSpec((16, 16))
        sp.write_field(sp.RealField(grid, np.full((2, 16, 16), value)), path)
        self.assert_norm_refused(capsys, run(["helmholtz", "--in", str(path)]))

    def test_overflowing_norm_exits_2_in_solve_ilap(self, tmp_path, capsys):
        from shannop.generate import random_field

        grid = sp.GridSpec((16, 16))
        path = tmp_path / "big.swf"
        field = random_field(grid, 1, seed=1)
        sp.write_field(sp.RealField(grid, field.values * 1e160), path)
        code = run(["solve-ilap", "--alpha", "1", "--in", str(path)])
        self.assert_norm_refused(capsys, code)

    def test_nan_tol_exits_2_in_helmholtz(self, tmp_path):
        vpath = tmp_path / "w.swf"
        run(["gen-field", "--grid", "16x16", "--components", "2",
             "--seed", "1", "--out", str(vpath)])
        code = run(["helmholtz", "--tol", "nan", "--in", str(vpath)])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_bad_alpha_exits_2(self, tmp_path, capsys, alpha):
        vpath = self.field(tmp_path)
        code = run(["solve-ilap", f"--alpha={alpha}", "--in", str(vpath)])
        assert code == 2
        assert "alpha must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("components", ["0", "-1"])
    def test_components_below_one_exit_2(self, tmp_path, capsys, components):
        out = tmp_path / "z.swf"
        code = run(["gen-field", "--grid", "16x16", "--components",
                    components, "--out", str(out)])
        assert code == 2
        assert "components must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.swf"
        code = run(["gen-field", "--grid", "16x16", "--seed", "-1",
                    "--out", str(out)])
        assert code == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sample_exits_2_naming_the_file(self, tmp_path, capsys, value):
        path = self.field(tmp_path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", value)  # the last sample
        path.write_bytes(bytes(data))
        code = run(["decompose", "--in", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: field values must be finite\n"
        )

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run(["decompose", "--in", str(tmp_path / "missing.swf")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = run(["gen-field", "--grid", "16x16",
                    "--out", str(tmp_path / "no-such-dir" / "z.swf")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_alpha_exits_2(self, tmp_path, capsys):
        vpath = self.field(tmp_path)
        code = run(["solve-ilap", "--alpha", "1e308", "--in", str(vpath)])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha 1e+308" in err and "band (0, 0)" in err

    def test_header_whose_mode_count_overflows_int64_exits_2(
        self, tmp_path, capsys
    ):
        # 2^93 points: a product in int64 wraps to 0 and lets an empty
        # sample section pass the length check.
        path = tmp_path / "huge.swf"
        path.write_bytes(b"SWF1" + struct.pack("<II3I", 3, 1, *[2**31] * 3))
        code = run(["decompose", "--in", str(path)])
        assert code == 2
        assert "expected" in capsys.readouterr().err

    def test_grid_too_large_for_an_int32_layout_exits_2(self, capsys):
        code = run(["rates", "--grid", "65536x65536"])
        assert code == 2
        assert "int32" in capsys.readouterr().err

    def test_packet_depth_beyond_exact_box_edges_exits_2(self, capsys):
        code = run(["rates", "--grid", "16x16", "--packet-depth", "1100"])
        assert code == 2
        assert "packet depth 1100 is above 52" in capsys.readouterr().err

    def test_overflowing_alpha_in_library(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16, 16)))
        with pytest.raises(ArityError, match=r"alpha .* band \(0, 0\)"):
            sp.implicit_laplacian_precond(1e308, part)

    def test_library_rejects_non_finite_arguments(self):
        from shannop.errors import ArityError, StructuralError
        from shannop.generate import make_field

        for tol in (float("nan"), float("inf")):
            with pytest.raises(ArityError):
                sp.SolveConfig(tol=tol)
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(ArityError):
                sp.ImplicitLaplacian(alpha)
        for components in (0, -1):
            with pytest.raises(StructuralError):
                make_field(sp.GridSpec((8, 8)), "random", components, 0)
