import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bmmci.bounds
import bmmci.cli
import bmmci.oracle
from bmmci import (FlipProfile, canonicalize, closest_pair, count_matrices,
                   format_matrix_text)
from bmmci.cli import dumps_report, main
from test_oracle import reference_closest_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(func):
    """``func()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def write_matrix(path, rows, n_cols):
    path.write_text(format_matrix_text(canonicalize(rows, n_cols)))
    return str(path)


class TestSerialization:
    def test_seventeen_digit_floats(self):
        assert dumps_report({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}'

    def test_infinity_as_string(self):
        assert '"inf"' in dumps_report({"x": math.inf})

    def test_round_trippable_json(self):
        blob = dumps_report({"a": [1, 2.5], "b": {"c": None, "d": True}})
        assert json.loads(blob) == {"a": [1, 2.5], "b": {"c": None, "d": True}}


class TestCiCommand:
    def test_computes_value(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", [0, 1, 1], 1)
        b = write_matrix(tmp_path / "b.txt", [0, 0, 1], 1)
        code, out, _ = run_cli(capsys, "ci", "--a", a, "--b", b, "--flip", "0.1")
        assert code == 0
        report = json.loads(out)
        eta = 0.8 / 3
        assert report["schema_version"] == 1
        assert report["value_nats"] == pytest.approx(
            -0.5 * math.log1p(-eta * eta), abs=1e-10)
        assert report["lambda_star"] == pytest.approx(0.5, abs=1e-6)

    def test_per_column_profile(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", [0, 1], 2)
        b = write_matrix(tmp_path / "b.txt", [0, 2], 2)
        code, out, _ = run_cli(capsys, "ci", "--a", a, "--b", b,
                               "--flips", "0.3,0.1")
        assert code == 0
        assert json.loads(out)["profile"] == [0.3, 0.1]

    def test_outcome_budget_exits_three(self, tmp_path, capsys):
        # one row of 30 columns: an 8 GiB vector over the 2**30 outcomes
        a = write_matrix(tmp_path / "a.txt", [0], 30)
        b = write_matrix(tmp_path / "b.txt", [1], 30)
        (code, _, err), peak = traced_peak(lambda: run_cli(
            capsys, "ci", "--a", a, "--b", b, "--flip", "0.1"))
        assert code == 3
        assert str(8 << 30) in err
        assert peak < 64 * 2 ** 20

    def test_outcome_budget_counts_every_vector(self, tmp_path, capsys):
        # a 1 GiB vector over the 2**27 outcomes: the gather alone fits the
        # budget, but the index, the kernel and the words beside it do not
        a = write_matrix(tmp_path / "a.txt", [0], 27)
        b = write_matrix(tmp_path / "b.txt", [1], 27)
        (code, _, err), peak = traced_peak(lambda: run_cli(
            capsys, "ci", "--a", a, "--b", b, "--flip", "0.1"))
        assert code == 3
        assert str(5 << 30) in err
        assert peak < 64 * 2 ** 20

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", [0], 1)
        code, _, err = run_cli(capsys, "ci", "--a", a, "--b",
                               str(tmp_path / "nope.txt"), "--flip", "0.1")
        assert code == 2
        assert "nope.txt" in err

    def test_missing_profile_is_usage_error(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", [0], 1)
        code, _, err = run_cli(capsys, "ci", "--a", a, "--b", a)
        assert code == 2

    def test_flip_and_flips_are_exclusive(self, tmp_path):
        a = write_matrix(tmp_path / "a.txt", [0, 1], 2)
        with pytest.raises(SystemExit) as err:
            main(["ci", "--a", a, "--b", a, "--flip", "0.1",
                  "--flips", "0.3,0.1"])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["ci", "--bogus"])
        assert err.value.code == 2

    def test_differing_shapes_exit_two(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", [0, 1], 2)
        b = write_matrix(tmp_path / "b.txt", [0, 1, 3], 2)
        code, out, err = run_cli(capsys, "ci", "--a", a, "--b", b,
                                 "--flip", "0.1")
        assert (code, out) == (2, "")
        assert "matrix shapes differ: 2x2 vs 3x2" in err


class TestBoundsCommand:
    def test_tight_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--l", "2",
                               "--flip", "0.1")
        assert code == 0
        report = json.loads(out)
        assert report["tight"] is True
        assert report["regime"] == "low_noise_odd"
        assert report["lower_nats"] == report["upper_nats"]

    def test_profile_regime(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--l", "2",
                               "--flips", "0.3,0.1")
        report = json.loads(out)
        assert report["regime"] == "generalized"
        assert report["decomposition"]["cal"] == 1

    @pytest.mark.parametrize("n,l,flip", [("5", "3", "0.499"),
                                          ("1000000000", "3", "0.1"),
                                          ("2", "1", "0.5")])
    def test_small_gaps_print_no_negative_zero(self, capsys, n, l, flip):
        code, out, _ = run_cli(capsys, "bounds", "--n", n, "--l", l,
                               "--flip", flip)
        assert code == 0
        assert ": -0" not in out
        report = json.loads(out)
        assert report["upper_nats"] >= report["lower_nats"]
        assert report["lower_nats"] > 0 or flip == "0.5"

    def test_quiet_profile_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "3", "--l", "2",
                               "--flips", "0.1,0.2")
        assert code == 2
        assert "1/4" in err


class TestClosestPairCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "closest-pair", "--n", "2", "--l", "2",
                               "--flip", "0.3")
        assert code == 0
        report = json.loads(out)
        direct = closest_pair(2, 2, FlipProfile.constant(0.3, 2))
        assert report["min_ci_nats"] == pytest.approx(direct.min_ci, abs=1e-12)
        assert report["pair_a"] == ["00", "11"]
        assert report["pair_b"] == ["10", "01"]
        assert report["candidates"] == 45

    def test_cap_exceeded_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "closest-pair", "--n", "12", "--l", "3",
                               "--flip", "0.3", "--max-matrices", "10000")
        assert code == 3
        assert "50388" in err

    def test_table_budget_exits_three(self, capsys):
        # 524,800 sources within the cap, but a 4 GiB table
        (code, _, err), peak = traced_peak(lambda: run_cli(
            capsys, "closest-pair", "--n", "2", "--l", "10", "--flip", "0.1"))
        assert code == 3
        assert str(524800 * 8 * 1024) in err
        assert peak < 64 * 2 ** 20

    def test_rows_budget_exits_three(self, capsys):
        # 100,001 sources within the cap and a 1.6 MB table, but an 80 GB
        # (M, N) rows array
        (code, _, err), peak = traced_peak(lambda: run_cli(
            capsys, "closest-pair", "--n", "100000", "--l", "1", "--flip",
            "0.1"))
        assert code == 3
        assert str(100001 * 8 * 100000) in err
        assert peak < 2 ** 20

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["closest-pair", "verify", "simulate"])
    def test_cap_below_one_exits_two(self, tmp_path, capsys, command, cap):
        # no family fits under such a cap, so it is refused as input, not
        # as a family too large for it
        if command == "simulate":
            argv = [command, "--truth",
                    write_matrix(tmp_path / "t.txt", [0, 1, 1], 3),
                    "--flip", "0.1", "--m-values", "5,10,15", "--trials",
                    "10", "--seed", "0"]
        else:
            argv = [command, "--n", "2", "--l", "3", "--flip", "0.1"]
        code, _, err = run_cli(capsys, *argv, "--max-matrices", cap)
        assert code == 2
        assert f"cap must be at least 1, got {cap}" in err

    @pytest.mark.parametrize("command", ["closest-pair", "verify"])
    def test_zero_threads_flag(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--n", "2", "--l", "1",
                               "--flip", "0.3", "--threads", "0")
        assert code == 2
        assert "--threads" in err


class TestParserReuse:
    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys):
        truth = write_matrix(tmp_path / "t.txt", [0, 1, 1], 1)
        calls = [
            ("closest-pair", "--n", "2", "--l", "2", "--flip", "0.3"),
            ("verify", "--n", "2", "--l", "1", "--flip", "0.3",
             "--threads", "0"),
            ("simulate", "--truth", truth, "--flip", "0.1",
             "--m-values", "5,10,15", "--trials", "500", "--seed", "3"),
        ]
        together = [run_cli(capsys, *argv) for argv in calls]
        alone = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "bmmci", *argv],
                                  capture_output=True, text=True)
            alone.append((done.returncode, done.stdout, done.stderr))
        assert together == alone
        assert [code for code, _, _ in together] == [0, 2, 0]
        assert bmmci.cli.build_parser() is bmmci.cli.build_parser()


class TestGoldenScans:
    """The benchmark's scan calls, pinned to their recorded reports."""

    @pytest.mark.parametrize("argv,expected", [
        (("closest-pair", "--n", "4", "--l", "4", "--flip", "0.3"),
         {"min_ci_nats": 0.002052205792546058,
          "pair_a": ["0000", "1100", "1010", "0110"],
          "pair_b": ["1000", "0100", "0010", "1110"],
          "candidates": 7509750, "zero_ci": False}),
        (("closest-pair", "--n", "4", "--l", "4", "--flip", "0"),
         {"min_ci_nats": 0.03468818523201739,
          "pair_a": ["0000", "0000", "0000", "1000"],
          "pair_b": ["0000", "0000", "1000", "1000"],
          "candidates": 7509750, "zero_ci": False}),
        (("verify", "--n", "3", "--l", "5", "--flip", "0.3", "--threads", "2"),
         {"oracle_min_ci_nats": 0.00592732726964762,
          "pair_a": ["00000", "00000", "00101"],
          "pair_b": ["00000", "00100", "00001"],
          "candidates": 17901136, "zero_ci": False,
          "status": "within-bounds"}),
    ])
    def test_report(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        for key, value in expected.items():
            if key.endswith("min_ci_nats"):
                assert report[key] == pytest.approx(value, rel=1e-12, abs=0)
            else:
                assert report[key] == value


GOLDEN = Path(__file__).parent / "golden"


class TestReportBytes:
    """Every command's report, pinned byte for byte to its recorded text,
    on stdout and through ``--out`` alike."""

    CALLS = {
        "ci_flip.json": ("ci", "--a", "a.txt", "--b", "b.txt",
                         "--flip", "0.1"),
        "ci_flips.json": ("ci", "--a", "a.txt", "--b", "b.txt",
                          "--flips", "0.3,0.1"),
        "bounds_flip.json": ("bounds", "--n", "3", "--l", "2",
                             "--flip", "0.1"),
        "bounds_flips.json": ("bounds", "--n", "5", "--l", "3",
                              "--flips", "0.3,0.1,0.45"),
        "closest_pair.json": ("closest-pair", "--n", "3", "--l", "2",
                              "--flip", "0.3"),
        "construct.json": ("construct", "--kind", "near-optimal", "--n", "4",
                           "--l", "3", "--flip", "0.3",
                           "--out-a", "pair_a.txt", "--out-b", "pair_b.txt"),
        "sweep.csv": ("sweep", "--n", "3", "--l", "3", "--steps", "8"),
        "sweep.json": ("sweep", "--n", "3", "--l", "3", "--steps", "8",
                       "--format", "json"),
        "simulate.json": ("simulate", "--truth", "truth.txt", "--flip", "0.3",
                          "--m-values", "5,15,25", "--trials", "500",
                          "--seed", "9"),
        # the benchmark's 3x6 call: its 45,759 rivals reach the screened
        # tiles past the first
        "simulate_exponent.json": ("simulate", "--truth", "truth36.txt",
                                   "--flip", "0.2", "--m-values",
                                   "10,20,30,40", "--trials", "4096",
                                   "--seed", "1"),
        # the same truth at low noise with a flip-free and an always-flipped
        # column: the rivals' ratios hold log-zero sentinels, and most
        # trials reach the screened tiles
        "simulate_zeros.json": ("simulate", "--truth", "truth36.txt",
                                "--flips", "0,0.05,0.05,0.05,0.05,1",
                                "--m-values", "5,10,15,20", "--trials",
                                "2000", "--seed", "3"),
        "verify.json": ("verify", "--n", "4", "--l", "2", "--flip", "0.1"),
    }

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix(tmp_path / "a.txt", [0, 1, 3], 2)
        write_matrix(tmp_path / "b.txt", [0, 2, 3], 2)
        write_matrix(tmp_path / "truth.txt", [0, 1, 1], 1)
        (tmp_path / "truth36.txt").write_text("000000\n101000\n100100\n")

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_report(self, tmp_path, capsys, name):
        expected = (GOLDEN / name).read_text()
        assert run_cli(capsys, *self.CALLS[name]) == (0, expected, "")
        assert run_cli(capsys, *self.CALLS[name], "--out", "report") == (
            0, "", "")
        assert (tmp_path / "report").read_text() == expected

    def test_construct_files(self, tmp_path, capsys):
        assert run_cli(capsys, *self.CALLS["construct.json"])[0] == 0
        for name in ("pair_a.txt", "pair_b.txt"):
            assert (tmp_path / name).read_text() == (
                GOLDEN / f"construct_{name}").read_text()


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error, exit 2."""

    @pytest.mark.parametrize("argv,flag", [
        (("closest-pair", "--n", "2", "--l", "2", "--flip", "0.3"), "--out"),
        (("sweep", "--n", "3", "--l", "3", "--steps", "5"), "--out"),
        (("construct", "--kind", "hamming-one", "--n", "3", "--l", "2",
          "--flip", "0.1", "--out-b", "b.txt"), "--out-a"),
    ], ids=["json", "csv", "construct"])
    @pytest.mark.parametrize("target", ["missing/x", "."],
                             ids=["missing-directory", "directory"])
    def test_exits_two(self, tmp_path, monkeypatch, capsys, argv, flag,
                       target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, flag, target)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target!r}: ")


class TestConstructCommand:
    @pytest.mark.parametrize("kind,n,l,f", [
        ("hamming-one", 5, 2, 0.1),
        ("near-optimal", 4, 3, 0.3),
        ("near-optimal", 4, 2, 0.3),   # nonzero remainder
        ("even-almost", 4, 2, 0.1),
    ])
    def test_round_trip_reproduces_prediction(self, tmp_path, capsys,
                                              kind, n, l, f):
        out_a = str(tmp_path / "a.txt")
        out_b = str(tmp_path / "b.txt")
        code, out, _ = run_cli(capsys, "construct", "--kind", kind,
                               "--n", str(n), "--l", str(l), "--flip", str(f),
                               "--out-a", out_a, "--out-b", out_b)
        assert code == 0
        predicted = json.loads(out)["predicted_ci_nats"]
        code, out, _ = run_cli(capsys, "ci", "--a", out_a, "--b", out_b,
                               "--flip", str(f))
        assert code == 0
        assert json.loads(out)["value_nats"] == pytest.approx(predicted,
                                                              abs=1e-9)

    def test_control_characters_in_paths(self, tmp_path, capsys):
        # the report stays valid JSON; other characters go out unescaped
        out_a = str(tmp_path / "a\tbé.txt")
        out_b = str(tmp_path / "c\nd.txt")
        code, out, _ = run_cli(capsys, "construct", "--kind", "hamming-one",
                               "--n", "3", "--l", "2", "--flip", "0.1",
                               "--out-a", out_a, "--out-b", out_b)
        assert code == 0
        report = json.loads(out)
        assert (report["file_a"], report["file_b"]) == (out_a, out_b)
        assert "bé.txt" in out

    def test_even_rows_rejected_for_odd_kind(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "--kind", "hamming-one",
                               "--n", "4", "--l", "2", "--flip", "0.1",
                               "--out-a", str(tmp_path / "a"),
                               "--out-b", str(tmp_path / "b"))
        assert code == 2


class TestSweepCommand:
    def test_csv_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--l", "3",
                               "--f-min", "0", "--f-max", "0.5",
                               "--steps", "500", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f,bound_low_noise_nats,bound_high_noise_nats"
        assert len(lines) == 502
        rows = [tuple(float(tok) for tok in line.split(","))
                for line in lines[1:]]
        below = [r for r in rows if r[0] < 0.25]
        above = [r for r in rows if 0.25 < r[0] < 0.5]
        at = [r for r in rows if r[0] == 0.25]
        end = [r for r in rows if r[0] == 0.5]
        assert all(low < high for _, low, high in below)
        assert all(low > high for _, low, high in above)
        assert len(at) == 1 and at[0][1] == at[0][2]
        # at f = 1/2 the channel destroys all information: both bounds vanish
        assert end == [(0.5, 0.0, 0.0)]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--l", "2",
                               "--steps", "4", "--format", "json")
        report = json.loads(out)
        assert len(report["rows"]) == 5


class TestVerifyCommand:
    def test_tight_match(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--l", "2",
                               "--flip", "0.1")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "tight-match"
        assert abs(report["oracle_min_ci_nats"] - report["lower_nats"]) <= 1e-9

    def test_within_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--l", "2",
                               "--flip", "0.1")
        report = json.loads(out)
        assert report["status"] == "within-bounds"

    @pytest.mark.parametrize("flip", ["1e-09", "1e-17", "5e-324"])
    def test_single_row_tiny_flip(self, capsys, flip):
        # the bound used to be read off the gap 1 - 2f, which rounds away a
        # tiny flip: 1.4e-8 nats too low at 1e-9, infinite below 2**-54
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--l", "1",
                               "--flip", flip)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "tight-match"
        assert math.isfinite(report["upper_nats"])

    def test_bound_violation_exits_four(self, capsys, monkeypatch):
        # The true minimum at N=3, L=2, f=0.1 is about 0.037 nats.
        real = bmmci.cli.bounds_mod.worst_case_ci_bounds(3, 2, 0.1)
        monkeypatch.setattr(
            bmmci.cli.bounds_mod, "worst_case_ci_bounds",
            lambda *args: dataclasses.replace(real, lower=1.0, upper=2.0,
                                              tight=False))
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--l", "2",
                               "--flip", "0.1")
        assert code == 4
        assert out == (GOLDEN / "verify_violation.json").read_text()
        report = json.loads(out)
        assert report["status"] == "bound-violation"
        assert report["oracle_min_ci_nats"] < report["lower_nats"]


class TestSimulateCommand:
    def test_report_fields(self, tmp_path, capsys):
        truth = write_matrix(tmp_path / "t.txt", [0, 1, 1], 1)
        code, out, _ = run_cli(capsys, "simulate", "--truth", truth,
                               "--flip", "0.3", "--m-values", "5,15,25",
                               "--trials", "2000", "--seed", "9")
        assert code == 0
        report = json.loads(out)
        assert len(report["per_m"]) == 3
        assert report["exact_exponent_nats"] > 0
        assert report["slope_nats_per_sample"] > 0

    def test_family_enumerated_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = bmmci.oracle.canonical_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bmmci.oracle, "canonical_rows", counting)
        truth = write_matrix(tmp_path / "t.txt", [0, 1, 3], 2)
        code, _, _ = run_cli(capsys, "simulate", "--truth", truth,
                             "--flip", "0.1", "--m-values", "5,15,25",
                             "--trials", "500", "--seed", "9")
        assert code == 0
        assert calls == [(3, 2, bmmci.cli.DEFAULT_MAX_MATRICES)]

    def test_table_budget_exits_three(self, tmp_path, capsys):
        truth = write_matrix(tmp_path / "t.txt", [0, 1023], 10)
        (code, _, err), peak = traced_peak(lambda: run_cli(
            capsys, "simulate", "--truth", truth, "--flip", "0.1",
            "--m-values", "5,15,25", "--trials", "500", "--seed", "9"))
        assert code == 3
        assert "budget" in err
        assert peak < 64 * 2 ** 20

    def test_bad_m_values_exit_two(self, tmp_path, capsys):
        truth = write_matrix(tmp_path / "t.txt", [0, 1, 1], 1)
        code, out, err = run_cli(capsys, "simulate", "--truth", truth,
                                 "--flip", "0.1", "--m-values", "10,x",
                                 "--trials", "10", "--seed", "0")
        assert (code, out) == (2, "")
        assert "--m-values must be a comma list of ints" in err

    def test_estimation_failure_exits_one(self, tmp_path, capsys):
        truth = write_matrix(tmp_path / "t.txt", [0, 1], 1)
        code, _, err = run_cli(capsys, "simulate", "--truth", truth,
                               "--flip", "0.0", "--m-values", "5,10,15",
                               "--trials", "200", "--seed", "1")
        assert code == 1
        assert "error rate" in err

    def test_no_errors_from_counts_off_the_support(self, tmp_path, capsys):
        # the truth's last outcome has probability 0, and at m = 10**15
        # numpy's multinomial leaves counts there; scored as drawn, they
        # make 14% of trials errors where the true rate is 0
        truth = write_matrix(tmp_path / "t.txt", [0, 5, 9], 6)
        code, out, _ = run_cli(capsys, "simulate", "--truth", truth,
                               "--flips", "0.3,0.3,0.3,0.3,0.3,0",
                               "--m-values", "10,20,40,1000000000000000",
                               "--trials", "300", "--seed", "4")
        assert code == 0
        assert [point["error_rate"] for point in json.loads(out)["per_m"]] \
            == [0.9966666666666667, 0.98, 0.9333333333333333, 0]

    def test_byte_identical_reports(self, tmp_path):
        truth_path = tmp_path / "t.txt"
        truth_path.write_text(format_matrix_text(canonicalize([0, 1, 1], 1)))
        argv = [sys.executable, "-m", "bmmci", "simulate", "--truth",
                str(truth_path), "--flip", "0.3", "--m-values", "5,15,25",
                "--trials", "1000", "--seed", "4242"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()


class TestModuleEntryPoint:
    """``python -m bmmci`` is ``bmmci.cli.main`` run in a process."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    @pytest.mark.parametrize("argv,code", [
        (["closest-pair", "--n", "2", "--l", "2", "--flip", "0.3"], 0),
        (["closest-pair", "--n", "0", "--l", "2", "--flip", "0.3"], 2),
    ], ids=["answer", "refusal"])
    def test_matches_main(self, capsys, argv, code):
        ran = subprocess.run([sys.executable, "-m", "bmmci", *argv],
                             capture_output=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": self.SRC})
        in_process, out, _ = run_cli(capsys, *argv)
        assert (ran.returncode, ran.stdout) == (in_process, out.encode())
        assert in_process == code
        assert ran.stderr.startswith(b"error: ") == (code == 2)


BIG = "1" + "0" * 400  # 10**400: an int that no float holds


class TestIntegerLimits:
    """Integers the library cannot hold exit with their typed error."""

    @pytest.mark.parametrize("flags,message", [
        (("--m-values", "5,10,15", "--seed", "-1"), "seed must be >= 0"),
        (("--m-values", ",".join(str(k * 10 ** 30) for k in (1, 2, 3)),
          "--seed", "1"), "int64"),
    ])
    def test_simulate(self, tmp_path, capsys, flags, message):
        truth = write_matrix(tmp_path / "t.txt", [0, 1, 1], 1)
        code, _, err = run_cli(capsys, "simulate", "--truth", truth,
                               "--flip", "0.1", "--trials", "100", *flags)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("command,code", [
        ("bounds", 2), ("verify", 2), ("sweep", 2),
        # the enumeration cap refuses it first, as before
        ("closest-pair", 3),
    ])
    def test_rows_beyond_a_float(self, capsys, command, code):
        flags = ("--steps", "2") if command == "sweep" else ("--flip", "0.3")
        got, _, err = run_cli(capsys, command, "--n", BIG, "--l", "3", *flags)
        assert got == code
        if code == 2:
            assert "does not fit in a float" in err

    @pytest.mark.parametrize("argv", [
        ("closest-pair", "--n", "3", "--l", "15000", "--flip", "0.1"),
        ("sweep", "--n", "3", "--l", "3", "--steps", "1" + "0" * 4299),
    ], ids=["family", "steps"])
    def test_counts_past_the_printable_digits(self, tmp_path, monkeypatch,
                                              capsys, argv):
        # counts of about 13,500 and 4,303 digits: more than Python
        # converts to str
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("resource limit: ")

    def test_largest_float_rows_still_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1" + "0" * 307,
                               "--l", "3", "--flip", "0.3")
        assert code == 0
        assert json.loads(out)["regime"] == "high_noise"


class TestSizeArguments:
    """Size arguments are charged to the budget before what they count is
    built: by the sweep, the pair builders, a --flip profile, the bounds
    report and the construct text."""

    PROFILE_COLUMN_BYTES = bmmci.cli._PROFILE_COLUMN_BYTES
    PAIR_FILES = ("--out-a", "a.txt", "--out-b", "b.txt")

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("argv,max_peak", [
        (("sweep", "--n", "3", "--l", "3", "--steps", "100000000"),
         64 * 2 ** 20),
        (("sweep", "--n", "3", "--l", "3", "--steps", "100000000",
          "--format", "json"), 64 * 2 ** 20),
        (("construct", "--kind", "hamming-one", "--n", "100000001", "--l",
          "3", "--flip", "0.1") + PAIR_FILES, 64 * 2 ** 20),
        (("construct", "--kind", "near-optimal", "--n", "1" + "0" * 30,
          "--l", "3", "--flip", "0.1") + PAIR_FILES, 64 * 2 ** 20),
        (("bounds", "--n", "3", "--l", "1" + "0" * 90, "--flip", "0.1"),
         64 * 2 ** 20),
        (("closest-pair", "--n", "3", "--l", "1" + "0" * 90, "--flip",
          "0.1"), 64 * 2 ** 20),
        # the profile is built, at its charge, and the report is refused
        (("bounds", "--n", "3", "--l", "11000000", "--flip", "0.1"),
         11000000 * PROFILE_COLUMN_BYTES + 2 ** 20),
    ])
    def test_over_budget_exits_three(self, tmp_path, capsys, argv, max_peak):
        (code, _, err), peak = traced_peak(lambda: run_cli(capsys, *argv))
        assert code == 3
        assert "budget" in err
        assert peak < max_peak
        assert not (tmp_path / "a.txt").exists()

    @pytest.mark.parametrize("argv,message", [
        (("construct", "--kind", "hamming-one", "--n", "100000000", "--l",
          "3", "--flip", "0.1") + PAIR_FILES, "odd row count"),
        (("construct", "--kind", "even-almost", "--n", "100000000", "--l",
          "31", "--flip", "0.1") + PAIR_FILES, "n_cols"),
        (("bounds", "--n", "0", "--l", "11000000", "--flip", "0.1"),
         "need N >= 1"),
    ])
    def test_cheaper_errors_come_first(self, capsys, argv, message):
        # each failed with exit 2 before it built anything its size counts
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err

    def test_long_profile_within_budget(self, capsys):
        (code, out, _), peak = traced_peak(lambda: run_cli(
            capsys, "bounds", "--n", "3", "--l", "100000", "--flip", "0.1"))
        assert code == 0
        assert len(json.loads(out)["profile"]) == 100000
        assert peak < 100000 * (self.PROFILE_COLUMN_BYTES
                                + bmmci.cli._REPORT_COLUMN_BYTES)

    @pytest.mark.parametrize("rate,flag,argv", [
        (bmmci.cli._STEP_BYTES["csv"], "--steps",
         ("sweep", "--n", "3", "--l", "3", "--format", "csv")),
        (bmmci.cli._STEP_BYTES["json"], "--steps",
         ("sweep", "--n", "3", "--l", "3", "--format", "json")),
        (bmmci.bounds._ROW_BYTES + bmmci.cli._TEXT_ROW_BYTES + 3 * 3, "--n",
         ("construct", "--kind", "near-optimal", "--l", "3", "--flip", "0.3")
         + PAIR_FILES),
        (bmmci.bounds._ROW_BYTES + bmmci.cli._TEXT_ROW_BYTES + 3 * 30, "--n",
         ("construct", "--kind", "hamming-one", "--l", "30", "--flip", "0.3")
         + PAIR_FILES),
        (PROFILE_COLUMN_BYTES + bmmci.cli._REPORT_COLUMN_BYTES, "--l",
         ("bounds", "--n", "3", "--flip", "0.1")),
    ], ids=["csv", "json", "construct", "construct-30", "bounds"])
    def test_charge_covers_traced_growth(self, capsys, rate, flag, argv):
        # what a call traces beyond a call half its size stays within the
        # charges for the difference; the report goes to a file, not to a
        # capture buffer
        peaks = []
        for size in (10001, 20001):
            (code, _, _), peak = traced_peak(lambda: run_cli(
                capsys, *argv, flag, str(size), "--out", "report"))
            assert code == 0
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 10000 * rate


# a flip rate at an edge of [0, 1], at 1/2, or strictly inside
_FLIPS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _scan_argv(draw):
    """``closest-pair``, ``verify`` or ``bounds`` on a small family, with
    sizes, caps and profiles that may be out of range."""
    command = draw(st.sampled_from(["closest-pair", "verify", "bounds"]))
    # sampled, not drawn as integers, so that 0 (exit 2) stays rare
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 0]))
    l = draw(st.sampled_from([1, 2, 3, 0]))
    argv = [command, "--n", str(n), "--l", str(l)]
    if draw(st.booleans()):
        argv += ["--flip", repr(draw(_FLIPS))]
    else:
        width = draw(st.sampled_from([l, l, l, l + 1]))
        argv += ["--flips", ",".join(
            repr(f) for f in draw(st.lists(_FLIPS, min_size=width,
                                           max_size=width)))]
    if command != "bounds" and draw(st.booleans()):
        argv += ["--max-matrices", str(draw(st.integers(-1, 1000)))]
    return argv


class TestArgumentFuzz:
    """Every drawn call either answers or exits with its typed error."""

    # run_cli drains capsys on each call, so examples share nothing
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_scan_argv())
    def test_exit_codes_and_answers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code != 0 or argv[0] != "closest-pair":
            return
        report = json.loads(out)
        n, l = report["N"], report["L"]
        if count_matrices(n, l) > 60:
            return
        value, a, b, lam, _ = reference_closest_pair(
            n, l, FlipProfile(tuple(report["profile"])))
        assert float(report["min_ci_nats"]) == value
        assert report["pair_a"] == format_matrix_text(a).splitlines()
        assert report["pair_b"] == format_matrix_text(b).splitlines()
        assert report["lambda_star"] == lam


@st.composite
def _matrix_text(draw, n_rows, n_cols):
    words = draw(st.lists(st.integers(0, 2 ** n_cols - 1),
                          min_size=n_rows, max_size=n_rows))
    return format_matrix_text(canonicalize(words, n_cols))


@st.composite
def _profile_flags(draw, n_cols, flips=_FLIPS):
    """``--flip``, ``--flips`` of the right or a wrong width, or neither."""
    kind = draw(st.sampled_from(["flip", "flip", "flips", "flips", "none"]))
    if kind == "flip":
        return ["--flip", repr(draw(flips))]
    if kind == "none":
        return []
    width = draw(st.sampled_from([n_cols, n_cols, n_cols, n_cols + 1]))
    return ["--flips", ",".join(repr(f) for f in draw(
        st.lists(flips, min_size=width, max_size=width)))]


@st.composite
def _file_argv(draw):
    """``simulate``, ``construct``, ``ci`` or ``sweep`` on small inputs, and
    the matrix files they read, with arguments that may be out of range."""
    command = draw(st.sampled_from(["simulate", "construct", "ci", "sweep"]))
    n = draw(st.sampled_from([1, 2, 3, 4, 0]))
    l = draw(st.sampled_from([1, 2, 3, 0]))
    rows, cols = max(n, 1), max(l, 1)  # the shape of a matrix file
    files = {}
    if command == "simulate":
        files["truth.txt"] = draw(_matrix_text(rows, cols))
        # mostly counts and flips at which some trials, not all, fail
        m_values = sorted(draw(st.lists(
            st.sampled_from([5, 8, 13, 21, 40, 1, 2, 3, 0, -1]),
            min_size=3, max_size=4, unique=True)))
        argv = ["simulate", "--truth", "truth.txt",
                *draw(_profile_flags(cols, st.floats(0.05, 0.45) | _FLIPS)),
                # "=" keeps argparse from reading "-1,5" as an option
                "--m-values=" + ",".join(map(str, m_values)),
                "--trials", str(draw(st.sampled_from([200, 120, 60, 1, 0]))),
                "--seed", str(draw(st.integers(-1, 2 ** 32)))]
        if draw(st.booleans()):
            argv += ["--max-matrices", str(draw(st.integers(-1, 100)))]
    elif command == "construct":
        kind = draw(st.sampled_from(["hamming-one", "even-almost",
                                     "near-optimal"]))
        argv = ["construct", "--kind", kind, "--n", str(n), "--l", str(l),
                "--flip", repr(draw(_FLIPS)),
                "--out-a", "a.txt", "--out-b", "b.txt"]
    elif command == "ci":
        files["a.txt"] = draw(_matrix_text(rows, cols))
        files["b.txt"] = draw(_matrix_text(
            rows, draw(st.sampled_from([cols, cols, cols, cols + 1]))))
        argv = ["ci", "--a", "a.txt", "--b", "b.txt",
                *draw(_profile_flags(cols))]
    else:
        argv = ["sweep", "--n", str(n), "--l", str(l),
                "--f-min", repr(draw(_FLIPS)), "--f-max", repr(draw(_FLIPS)),
                "--steps", str(draw(st.sampled_from([1, 2, 7, 50, 0, -1]))),
                "--format", draw(st.sampled_from(["csv", "json"]))]
    return argv, files


class TestFileArgumentFuzz:
    """The commands that read or write files answer or exit with their
    typed error on every drawn call."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_file_argv())
    def test_exit_codes(self, tmp_path, monkeypatch, capsys, drawn):
        argv, files = drawn
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err
        assert bool(out) == (code == 0), (argv, err)
