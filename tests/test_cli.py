"""Exit codes, output shapes and determinism of the command-line front end."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gateqsl import catalog
from gateqsl.cli import MAX_DIM, MAX_RESOLUTION, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, u):
    u = np.asarray(u, dtype=complex)
    payload = {"n": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}
    path.write_text(json.dumps(payload))


# Files the bad-input routes below read, by name.
BAD_FILES = {
    "schema.json": '{"n": 2, "re": [[1, 0], [0, 1]]}',
    "bool_n.json": '{"n": true, "re": [[1.0]], "im": [[0.0]]}',
    "big_n.json": '{"n": %d, "re": [[1.0]], "im": [[0.0]]}' % (MAX_DIM + 1),
    "garbled.json": '{"n": 2, "re": [[1, 0], [0, 1]], "im": ',
    "scaled.json": '{"n": 2, "re": [[2, 0], [0, 2]], "im": [[0, 0], [0, 0]]}',
    "string_entries.json": '{"n": 2, "re": [["1", "0"], ["0", "1"]], "im": [[0, 0], [0, 0]]}',
    "bool_entries.json": '{"n": 2, "re": [[true, false], [false, true]], "im": [[0, 0], [0, 0]]}',
    "null_entry.json": '{"n": 1, "re": [[1]], "im": [[null]]}',
}

# Every bounds, verify and figure input that parses but is refused,
# with its exit code.
BAD_INPUT_ROUTES = [
    (["bounds", "--file", "{tmp}/missing.json"], {}, 2),
    (["bounds", "--file", "{tmp}/schema.json"], {}, 2),
    (["bounds", "--file", "{tmp}/bool_n.json"], {}, 2),
    (["bounds", "--file", "{tmp}/big_n.json"], {}, 2),
    (["bounds", "--file", "{tmp}/garbled.json"], {}, 2),
    (["bounds", "--file", "{tmp}/scaled.json"], {}, 3),
    (["bounds", "--file", "{tmp}/string_entries.json"], {}, 2),
    (["bounds", "--file", "{tmp}/bool_entries.json"], {}, 2),
    (["bounds", "--file", "{tmp}/null_entry.json"], {}, 2),
    (["bounds", "--fourier", "0"], {}, 2),
    (["bounds", "--fourier", str(MAX_DIM + 1)], {}, 2),
    (["bounds", "--grover", "1"], {}, 2),
    (["bounds", "--grover", "4", "--target", "9"], {}, 2),
    (["bounds", "--fourier", "4", "--target", "9"], {}, 2),
    (["bounds", "--permutation", "0,0,1"], {}, 2),
    (["bounds", "--hadamard-power", "11"], {}, 2),
    (["bounds", "--fourier", "2", "--spectrum", "a,b"], {}, 2),
    (["bounds", "--fourier", "2", "--spectrum", "@{tmp}/missing.txt"], {}, 2),
    (["bounds", "--fourier", "2", "--spectrum", "1,2,3"], {}, 2),
    (["bounds", "--fourier", "2", "--spectrum", "1,1"], {}, 2),
    (["bounds", "--fourier", "2", "--spectrum", "0,1e-310"], {}, 2),
    (["verify", "--dims", "2", "--samples", "1"], {"QSL_SEED": "abc"}, 2),
    (["verify", "--dims", str(MAX_DIM + 1), "--samples", "1"], {}, 2),
    (["verify", "--dims", "1,2", "--samples", "1"], {}, 2),
    (["verify", "--dims", "2,2", "--samples", "1"], {}, 2),
    (["verify", "--dims", "2", "--samples", "0"], {}, 2),
    (["verify", "--dims", "2", "--samples", "1", "--seed", "-1"], {}, 2),
    (["verify", "--dims", "2", "--samples", "1", "-o", "{tmp}/no/dir/r.json"], {}, 2),
    (["verify", "--dims", "2", "--samples", "1", "-o", ""], {}, 2),
    (["figure", "qubit", "-r", "0"], {}, 2),
    (["figure", "qubit", "-r", "-5"], {}, 2),
    (["figure", "qubit", "-r", str(MAX_RESOLUTION + 1)], {}, 2),
    (["figure", "qubit", "-r", "2", "-o", "{tmp}/no/dir/f.csv"], {}, 2),
    (["figure", "qubit", "-r", "2", "-o", ""], {}, 2),
]


@pytest.mark.parametrize("argv, env, code", BAD_INPUT_ROUTES,
                         ids=[" ".join(argv) for argv, _, _ in BAD_INPUT_ROUTES])
def test_bad_input_ends_with_one_line(argv, env, code, tmp_path, capsys, monkeypatch):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.delenv("QSL_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    got, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and err.endswith("\n")


class TestBoundsCommand:
    @pytest.mark.parametrize("spectrum, rows", [
        (None, ["ml         0.912446011587  [units 1/E]",
                "mt         0.935414346693  [units 1/dE]",
                "dual_ml    0.912446011587  [units 1/(Emax-mean)]",
                "width_ml   1.82489202317  [units 1/width]",
                "width_mt   1.87082869339  [units 1/width]",
                "combined   0.935414346693  [max(ml, mt) at E = dE = 1]"]),
        ("0,1,2,3", ["ml         0.608297341058  [time]",
                     "mt         0.836660026534  [time]",
                     "dual_ml    0.608297341058  [time]",
                     "width_ml   0.608297341058  [time]",
                     "width_mt   0.623609564462  [time]",
                     "combined   0.836660026534  [time, max(ml, mt)]"]),
    ], ids=["products", "times"])
    def test_fourier4_golden_stdout(self, spectrum, rows, capsys):
        argv = ["bounds", "--fourier", "4"] + ([] if spectrum is None else ["--spectrum", spectrum])
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["n          4", "|tr U|     1.41421356237",
                                    "r=|trU|/n  0.353553390593", *rows]
        assert out.endswith("\n")

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

    @pytest.mark.parametrize("a", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_near_identity_mt_below_reaching_time(self, a, capsys):
        # --qubit 0,a,0,0 is exp(-i H T) with H = diag(-a, a) and T = 1, so no
        # bound may exceed 1; its MT bound is sin(a) / a.  Taking 1 - r^2 from
        # the rounded trace printed mt 1.0000444493 at a = 1e-6.
        code, out, err = run_cli(["bounds", f"--qubit=0,{a},0,0", f"--spectrum=-{a},{a}"],
                                 capsys)
        assert (code, err) == (0, "")
        rows = {line[:11].strip(): float(line[11:].split()[0]) for line in out.splitlines()}
        slack = 10.0 * np.finfo(float).eps / a
        for name in ("mt", "width_mt", "combined"):
            assert rows[name] <= 1.0 + slack
            assert abs(rows[name] - math.sin(a) / a) <= slack

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

    # numpy reads each of these as an int64 or float64 array
    @pytest.mark.parametrize("text", [
        '{"n": 2, "re": [[true, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"n": 2, "re": [[1.0, 0.0], [0.0, true]], "im": [[0, 0], [0, 0]]}',
        '{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, false], [0, 0]]}',
        '{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0.0, 0.0], [false, 0.0]]}',
    ], ids=["int_re", "float_re", "int_im", "float_im"])
    def test_boolean_among_numbers_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "u.json"
        path.write_text(text)
        code, out, err = run_cli(["bounds", "--file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: cannot build gate: re/im entries must be JSON numbers\n"
        # the same file with its boolean written as a number is a gate
        path.write_text(text.replace("true", "1").replace("false", "0"))
        assert run_cli(["bounds", "--file", str(path)], capsys)[0] == 0

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

    @pytest.mark.parametrize("flag, value, reason", [
        ("--qubit", "nan,0,0,0", "qubit parameters must be finite"),
        ("--qutrit-mub", "1,inf,0", "qutrit parameters must be finite"),
    ])
    def test_non_finite_parameters_name_the_reason(self, flag, value, reason, capsys):
        assert main(["bounds", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument {flag}: {reason}")
        assert "_params" not in err

    @pytest.mark.parametrize("q", ["11", "1000000000"])
    def test_hadamard_power_above_cap_exits_2(self, q, capsys):
        code, out, err = run_cli(["bounds", f"--hadamard-power={q}"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_requires_exactly_one_source(self, capsys):
        assert main(["bounds", "--fourier", "4", "--grover", "2"]) == 2

    @pytest.mark.parametrize("source", ["--file={tmp}/missing.json", "--hadamard-power=11"])
    def test_target_without_grover_refused_before_the_gate(self, source, tmp_path, capsys):
        # a missing file or an over-cap power would be named, had the gate been built
        argv = ["bounds", source.format(tmp=tmp_path), "--target", "1"]
        assert run_cli(argv, capsys) == (2, "", "error: --target is taken only with --grover\n")


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
        code, out, err = run_cli(["verify", "--samples", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: need at least one sample per dimension\n"

    def test_bad_dims_usage_error(self, capsys):
        code, out, err = run_cli(["verify", "--dims", "1,2", "--samples", "5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: dims must be a nonempty list of integers >= 2\n"

    def test_negative_seed_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(["verify", "--dims", "2", "--samples", "1", "--seed", "-1"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "error: seed must be nonnegative\n"
        monkeypatch.setenv("QSL_SEED", "-3")
        assert run_cli(["verify", "--dims", "2", "--samples", "1"], capsys) == (2, "", err)

    def test_value_error_in_a_pass_is_not_bad_input(self, monkeypatch):
        from gateqsl import harness

        def broken(seed, pieces):
            raise ValueError("a bug inside a pass")

        monkeypatch.setattr(harness, "_judge", broken)
        with pytest.raises(ValueError, match="a bug inside a pass"):
            main(["verify", "--dims", "2", "--samples", "1", "--seed", "1"])

    @pytest.mark.parametrize("dims", [str(MAX_DIM + 1), f"2,{4 * MAX_DIM}"])
    def test_dims_above_cap_exits_2(self, dims, capsys):
        code, out, err = run_cli(["verify", "--dims", dims, "--samples", "1"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_repeated_dims_exit_2(self, capsys):
        code, out, err = run_cli(["verify", "--dims=2,2", "--samples", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: dims must be distinct\n"

    def test_pinned_near_identity_seed_passes(self, capsys):
        # levels 9.009095474041372 and 9.009192045146664, T = 0.7595 and
        # r = 1 - 6.7e-10: a false FAIL at -1.9e-8 when 1 - r^2 comes from
        # the rounded trace
        code, out, _ = run_cli(["verify", "--dims", "2", "--samples", "1",
                                "--seed", "42348"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_seed_above_64_bits(self, capsys):
        # the draw streams take any nonnegative seed, here 2^70
        argv = ["verify", "--dims", "2,3", "--samples", "3", "--seed", str(2**70)]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["seed"] == 2**70
        assert run_cli(argv, capsys) == (0, out, "")

    def test_failure_exits_1_report_still_written(self, tmp_path, capsys, monkeypatch):
        from gateqsl import cli
        from gateqsl.harness import VerificationReport

        def broken_campaign(dims, samples, seed):
            return VerificationReport(samples=3, failures=2, cross_checked=1, worst_margin=-0.5,
                                      seed=seed, dims=tuple(dims))

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


# Every row of each figure at -r 4, the header aside.
GOLDEN_FIGURES = {
    "qubit": [
        "0,1.57079632679,1.57079632679,1",
        "0.5,1.31811607165,1.10527235452,0.968245836552",
        "1,1.0471975512,0.639748382236,0.866025403784",
        "1.5,0.722734247813,0.174224409956,0.661437827766",
        "2,0,0,0",
    ],
    "qubit-mub": [
        "0,0.785398163397,0.25409569638,0.707106781187",
        "0.785398163397,1.0471975512,0.639748382236,0.866025403784",
        "1.57079632679,1.57079632679,1.57079632679,1",
        "2.35619449019,1.0471975512,0.639748382236,0.866025403784",
        "3.14159265359,0.785398163397,0.25409569638,0.707106781187",
    ],
    "qutrit-u1": [
        "0,1.57079632679,0.950097697089,",
        "1.57079632679,1.35000680072,0.878496962186,",
        "3.14159265359,1.69346893593,1.21243580585,",
        "4.71238898038,1.96225698579,1.38529527113,",
        "6.28318530718,1.57079632679,0.950097697089,",
        "0,1.37952111358,0.854075284902,",
        "1.57079632679,1.02323954235,0.591737176142,",
        "3.14159265359,1.37952111358,0.854075284902,",
        "4.71238898038,1.85308397572,1.30845821804,",
        "6.28318530718,1.37952111358,0.854075284902,",
        "0,1.3962634016,0.950097697089,",
        "1.57079632679,0.872664625997,0.528213436349,",
        "3.14159265359,1.10342062987,0.622663508667,",
        "4.71238898038,1.80805380136,1.12667523263,",
        "6.28318530718,1.3962634016,0.950097697089,",
        "0,1.69346893593,1.21243580585,",
        "1.57079632679,1.23209547397,0.712820257091,",
        "3.14159265359,1.0471975512,0.622663508667,",
        "4.71238898038,1.60023484533,1.0311157105,",
        "6.28318530718,1.69346893593,1.21243580585,",
    ],
    "qutrit-u2": [
        "0,1.57079632679,0.950097697089,",
        "1.57079632679,1.90514663704,1.38529527113,",
        "3.14159265359,1.85934885308,1.21243580585,",
        "4.71238898038,1.66376143592,0.878496962186,",
        "6.28318530718,1.57079632679,0.950097697089,",
        "0,1.74532925199,1.21243580585,",
        "1.57079632679,1.74532925199,1.21243580585,",
        "3.14159265359,1.74532925199,1.21243580585,",
        "4.71238898038,1.74532925199,1.21243580585,",
        "6.28318530718,1.74532925199,1.21243580585,",
        "0,2.09439510239,1.57079632679,",
        "1.57079632679,1.77763912905,1.06399801785,",
        "3.14159265359,1.59962750926,0.854075284902,",
        "4.71238898038,1.63062353833,1.06399801785,",
        "6.28318530718,2.09439510239,1.57079632679,",
        "0,1.85934885308,1.21243580585,",
        "1.57079632679,1.67287659777,1.0311157105,",
        "3.14159265359,1.47891539372,0.622663508667,",
        "4.71238898038,1.50103072777,0.712820257091,",
        "6.28318530718,1.85934885308,1.21243580585,",
    ],
}


class TestFigureCommand:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FIGURES))
    def test_golden_csv(self, name, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, out, err = run_cli(["figure", name, "-o", str(out_path), "-r", "4"], capsys)
        assert (code, out, err) == (0, "", "")
        rows = ["abscissa,exact,ml,mt"] + GOLDEN_FIGURES[name]
        assert out_path.read_bytes() == "".join(row + "\r\n" for row in rows).encode()

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

    @pytest.mark.parametrize("to_file", [True, False])
    def test_broken_bound_exits_1(self, to_file, tmp_path, capsys, monkeypatch):
        from gateqsl import bounds

        ml = bounds.ml_product
        monkeypatch.setattr(bounds, "ml_product", lambda r: ml(r) + 2.0)
        out_path = tmp_path / "broken.csv"
        code, out, err = run_cli(["figure", "qubit", "-r", "4"]
                                 + (["-o", str(out_path)] if to_file else []), capsys)
        assert code == 1
        assert out == ""
        assert not out_path.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("FAILED: dominance violated at abscissa 0.0: ")

    def test_bad_resolution_usage_error(self, capsys):
        code, out, err = run_cli(["figure", "qubit", "-r", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --resolution must be at least 1\n"

    @pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 1, 10**12])
    def test_resolution_above_cap_exits_2(self, resolution, capsys, monkeypatch):
        from gateqsl import harness

        # the cap is checked before any grid is built
        monkeypatch.setattr(harness, "_grid", None)
        code, out, err = run_cli(["figure", "qutrit-u1", "-r", str(resolution)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --resolution must be at most {MAX_RESOLUTION}\n"

    def test_unknown_name_usage_error(self, capsys):
        assert main(["figure", "nope"]) == 2


class TestCatalogCommand:
    def test_lists_gate_families(self, capsys):
        code, out, _ = run_cli(["catalog"], capsys)
        assert code == 0
        for name in ("fourier", "grover", "permutation", "hadamard-power",
                     "qubit", "qutrit-mub"):
            assert name in out


def test_console_entry_help(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: gateqsl")


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_with_stdout(argv, stdout, buffering, prefix=()) -> subprocess.CompletedProcess:
    """``python -m gateqsl.cli argv`` in a new interpreter, started through
    the command ``prefix``, stdout on ``stdout``, buffered as Python does by
    default or unbuffered, whatever the caller's environment says."""
    drop = ("QSL_SEED", "PYTHONUNBUFFERED", "PYTHONDEVMODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([*prefix, sys.executable, "-m", "gateqsl.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("argv", [["bounds", "--fourier", "4"], ["catalog"],
                                  ["verify", "--dims", "2", "--samples", "2"],
                                  ["figure", "qubit", "-r", "2"], ["--help"],
                                  ["bounds", "--help"]],
                         ids=["bounds", "catalog", "verify", "figure", "help", "bounds-help"])
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
class TestUnwritableStdout:
    """Every command's stdout, help included, goes through one checked
    writer: an unwritable stdout exits 2 with one line, never a traceback,
    also when the unwritten bytes sit in stdout's buffer until the
    interpreter exits."""

    @staticmethod
    def assert_one_line(proc):
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: cannot write ")

    def test_closed_pipe(self, argv, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            self.assert_one_line(run_with_stdout(argv, write_end, buffering))
        finally:
            os.close(write_end)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device(self, argv, buffering):
        with open("/dev/full", "w") as full:
            self.assert_one_line(run_with_stdout(argv, full, buffering))

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no POSIX shell")
    def test_closed_stdout(self, argv, buffering):
        # the shell starts the interpreter with fd 1 closed: sys.stdout is None
        prefix = ("/bin/sh", "-c", 'exec "$@" >&-', "sh")
        self.assert_one_line(run_with_stdout(argv, None, buffering, prefix))
