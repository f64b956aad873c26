"""Exit codes, output shapes and determinism of the command-line front end."""

import json
import math

import numpy as np
import pytest

from gateqsl import catalog
from gateqsl.cli import MAX_DIM, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, u):
    u = np.asarray(u, dtype=complex)
    payload = {"n": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}
    path.write_text(json.dumps(payload))


class TestBoundsCommand:
    def test_fourier_with_spectrum(self, capsys):
        code, out, _ = run_cli(["bounds", "--fourier", "4", "--spectrum", "0,1,2,3"], capsys)
        assert code == 0

        def value(label):
            row = next(line for line in out.splitlines() if line.startswith(label))
            return float(row[len(label):].split()[0])

        assert value("n ") == 4
        assert value("|tr U|") == pytest.approx(math.sqrt(2), abs=1e-9)
        # E = 1.5; frozen oracle value of the scaled ML bound
        assert value("ml ") == pytest.approx(0.608297341058149, abs=1e-12)
        assert value("combined") == pytest.approx(0.836660026534076, abs=1e-12)

    def test_identity_file_all_zero(self, tmp_path, capsys):
        path = tmp_path / "id4.json"
        write_matrix(path, np.eye(4))
        code, out, _ = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 0
        for name in ("ml", "mt", "dual_ml", "width_ml", "width_mt", "combined"):
            row = next(line for line in out.splitlines() if line.startswith(name))
            assert float(row.split()[1]) == 0.0

    def test_grover_trace(self, capsys):
        code, out, _ = run_cli(["bounds", "--grover", "4"], capsys)
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("|tr U|"))
        assert float(row.split()[2]) == pytest.approx(1.0, abs=1e-12)

    def test_unreadable_file_exits_2(self, capsys):
        code, _, err = run_cli(["bounds", "--file", "/nonexistent/u.json"], capsys)
        assert code == 2
        assert "error" in err

    def test_invalid_schema_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "re": [[1, 0], [0, 1]]}')
        code, _, _ = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 2

    def test_non_unitary_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "scaled.json"
        write_matrix(path, 2.0 * np.eye(3))
        code, _, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 3
        assert "not unitary" in err

    def test_spectrum_length_mismatch_exits_2(self, capsys):
        code, _, _ = run_cli(["bounds", "--fourier", "4", "--spectrum", "0,1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("spectrum", ["1,1", "1,2,3", "1.5e308,-1.5e308", "1e308,-1e308",
                                          "0,1e-310"])
    def test_spectrum_error_prints_nothing_on_stdout(self, spectrum, capsys, recwarn):
        # "1,1" leaves the bounds undefined; "1,2,3" has the wrong length;
        # the width of the next two overflows, and so do the bounds of the
        # last, whose mean energy is 5e-311
        code, out, err = run_cli(["bounds", "--fourier", "2", "--spectrum", spectrum], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert not recwarn.list

    def test_wide_spectrum_within_float64(self, capsys, recwarn):
        # squaring the deviations of these levels would overflow
        code, out, err = run_cli(["bounds", "--fourier", "2", "--spectrum", "0,1e200"], capsys)
        assert code == 0
        assert err == ""
        assert not recwarn.list
        rows = {line[:11].strip(): float(line[11:].split()[0]) for line in out.splitlines()}
        # r = 4.3e-17 rounds out of both products: ml = (pi/2) / 5e199, mt = 1 / 5e199
        assert rows["ml"] == pytest.approx(math.pi * 1e-200, rel=1e-11)
        assert rows["mt"] == pytest.approx(2e-200, rel=1e-11)
        assert rows["width_mt"] == pytest.approx(2e-200, rel=1e-11)

    def test_file_trace_overshoot_clamped(self, tmp_path, capsys):
        # unitary to the file tolerance, yet |tr U| exceeds n by 8e-7
        path = tmp_path / "overshoot.json"
        write_matrix(path, 1.0000004 * np.eye(2))
        code, out, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 0
        assert err == ""
        rows = {line[:11].strip(): line[11:].split()[0] for line in out.splitlines()}
        assert rows["|tr U|"] == "2"
        assert rows["r=|trU|/n"] == "1"

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "re": %s, "im": [[0, 0], [0, 0]]}'
                        % ("[" * depth + "]" * depth))
        code, out, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["true", "1.0", '"1"'])
    def test_non_integer_n_exits_2(self, n, tmp_path, capsys):
        path = tmp_path / "bool_n.json"
        path.write_text('{"n": %s, "re": [[1.0]], "im": [[0.0]]}' % n)
        code, out, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_file_n_above_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big_n.json"
        path.write_text('{"n": %d, "re": [[1.0]], "im": [[0.0]]}' % (MAX_DIM + 1))
        code, out, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag, value, builder", [
        ("--fourier", str(MAX_DIM + 1), "fourier"),
        ("--grover", str(MAX_DIM + 1), "grover"),
        ("--permutation", ",".join(map(str, range(MAX_DIM + 1))), "permutation"),
    ], ids=["fourier", "grover", "permutation"])
    def test_named_gate_above_cap_exits_2(self, flag, value, builder, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("gate built above the cap")

        monkeypatch.setattr(catalog, builder, refuse)
        code, out, err = run_cli(["bounds", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_spectrum_from_file(self, tmp_path, capsys):
        levels_file = tmp_path / "levels.txt"
        levels_file.write_text("0\n1\n2\n3\n")
        code, out, _ = run_cli(
            ["bounds", "--fourier", "4", "--spectrum", f"@{levels_file}"], capsys
        )
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("ml"))
        assert float(row.split()[1]) == pytest.approx(0.608297341058149, abs=1e-12)

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--fourier", "4", "--grover", "2"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_small_run_exit_zero(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify", "--dims", "2,3", "--samples", "20", "--seed", "7",
             "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["samples"] == 40
        assert report["failures"] == 0
        assert report["seed"] == 7
        assert report["dims"] == [2, 3]
        assert report["worst_margin"] >= -1e-9
        assert "elapsed" not in report

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(["verify", "--dims", "2", "--samples", "5", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["samples"] == 5

    def test_identical_invocations_identical_json(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            run_cli(["verify", "--dims", "2,3", "--samples", "15", "--seed", "3",
                     "-o", str(p)], capsys)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_zero_samples_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "0"])
        assert exc.value.code == 2

    def test_bad_dims_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dims", "1,2", "--samples", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dims", [str(MAX_DIM + 1), f"2,{4 * MAX_DIM}"])
    def test_dims_above_cap_exits_2(self, dims, capsys):
        code, out, err = run_cli(["verify", "--dims", dims, "--samples", "1"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_pinned_near_identity_seed_passes(self, capsys):
        # r = 1 - 1e-8: a false FAIL at -2.07e-8 when 1 - r^2 came from the rounded trace
        code, out, _ = run_cli(["verify", "--dims", "2", "--samples", "1",
                                "--seed", "119294153"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_failure_exits_1_report_still_written(self, tmp_path, capsys, monkeypatch):
        from gateqsl import cli
        from gateqsl.harness import VerificationReport

        def broken_campaign(dims, samples, seed):
            return VerificationReport(samples=3, failures=2, cross_checked=1, worst_margin=-0.5,
                                      seed=seed, dims=tuple(dims), elapsed=0.1)

        monkeypatch.setattr(cli.harness, "run_random_campaign", broken_campaign)
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(
            ["verify", "--dims", "2", "--samples", "3", "-o", str(out_path)], capsys
        )
        assert code == 1
        assert "FAILED" in err
        assert json.loads(out_path.read_text())["failures"] == 2

    def test_env_seed_used_when_no_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("QSL_SEED", "99")
        code, out, _ = run_cli(["verify", "--dims", "2", "--samples", "3"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QSL_SEED", "abc")
        code, out, err = run_cli(["verify", "--dims", "2", "--samples", "3"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "QSL_SEED" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QSL_SEED", "99")
        code, out, _ = run_cli(["verify", "--dims", "2", "--samples", "3", "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 5


    def test_cross_check_failure_exits_4(self, capsys, monkeypatch):
        from gateqsl import harness

        exact = harness.phases_from_levels

        def perturbed(levels, t):
            ph = exact(levels, t)
            ph[-1, -1] += 1e-6
            return ph

        # draw 0 is cross-checked; its spectral phases are off by 1e-6
        monkeypatch.setattr(harness, "phases_from_levels", perturbed)
        code, out, err = run_cli(["verify", "--dims", "3", "--samples", "1", "--seed", "7"],
                                 capsys)
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: internal cross-check failed: draw (seed 7, n 3, index 0)")


class TestParserReuse:
    def test_one_parser_for_every_call(self):
        from gateqsl import cli

        assert cli._parser() is cli._parser()

    def test_seed_does_not_carry_over(self, capsys, monkeypatch):
        argv = ["verify", "--dims", "2", "--samples", "1"]
        assert json.loads(run_cli(argv + ["--seed", "3"], capsys)[1])["seed"] == 3
        monkeypatch.setenv("QSL_SEED", "99")
        assert json.loads(run_cli(argv, capsys)[1])["seed"] == 99
        monkeypatch.delenv("QSL_SEED")
        assert json.loads(run_cli(argv, capsys)[1])["seed"] == 12345

    def test_each_bounds_call_builds_its_own_gate(self, capsys):
        def trace(argv):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            return float(next(line for line in out.splitlines()
                              if line.startswith("|tr U|")).split()[2])

        assert trace(["bounds", "--fourier", "4"]) == pytest.approx(math.sqrt(2), abs=1e-11)
        assert trace(["bounds", "--grover", "4"]) == pytest.approx(1.0, abs=1e-11)
        assert trace(["bounds", "--fourier", "4"]) == pytest.approx(math.sqrt(2), abs=1e-11)

    def test_dims_default_unchanged(self, capsys):
        from gateqsl import cli

        run_cli(["verify", "--dims", "3,4", "--samples", "1"], capsys)
        code, out, _ = run_cli(["verify", "--samples", "1", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["dims"] == list(range(2, 9))
        assert cli._parser().parse_args(["verify"]).dims == tuple(range(2, 9))


class TestFigureCommand:
    def test_qubit_csv_golden_first_row(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(["figure", "qubit", "-o", str(out_path), "-r", "200"], capsys)
        assert code == 0
        raw = out_path.read_bytes()
        assert raw.count(b"\r\n") == 202
        lines = raw.decode().splitlines()
        assert len(lines) == 202
        assert lines[0] == "abscissa,exact,ml,mt"
        assert lines[1] == "0,1.57079632679,1.57079632679,1"
        assert lines[-1] == "2,0,0,0"

    def test_two_row_figure(self, tmp_path, capsys):
        out_path = tmp_path / "tiny.csv"
        code, _, _ = run_cli(["figure", "qubit", "-o", str(out_path), "-r", "1"], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3

    def test_qutrit_blocks_and_empty_mt(self, tmp_path, capsys):
        out_path = tmp_path / "fig4.csv"
        code, _, _ = run_cli(["figure", "qutrit-u1", "-o", str(out_path), "-r", "9"], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        # header + 4 x-blocks of 10 rows
        assert len(lines) == 41
        assert all(line.endswith(",") for line in lines[1:])
        assert lines[1].split(",")[0] == "0"

    def test_deterministic_csv(self, tmp_path, capsys):
        blobs = []
        for name in ("one.csv", "two.csv"):
            p = tmp_path / name
            run_cli(["figure", "qutrit-u2", "-o", str(p), "-r", "8"], capsys)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(["figure", "qubit-mub", "-r", "4"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "abscissa,exact,ml,mt"
        assert len(lines) == 6

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run_cli(["figure", "qubit", "-o", "/nonexistent/dir/f.csv", "-r", "2"],
                               capsys)
        assert code == 2
        assert "error" in err

    def test_bad_resolution_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "qubit", "-r", "0"])
        assert exc.value.code == 2

    def test_unknown_name_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "nope"])
        assert exc.value.code == 2


class TestCatalogCommand:
    def test_lists_gate_families(self, capsys):
        code, out, _ = run_cli(["catalog"], capsys)
        assert code == 0
        for name in ("fourier", "grover", "permutation", "hadamard-power",
                     "qubit", "qutrit-mub"):
            assert name in out


def test_console_entry_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
