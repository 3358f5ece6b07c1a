import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mqshape import Mode, ProblemSpec, derive_constants
from mqshape.cli import build_parser, main
from mqshape.criterion import finite_cap, log_h_unified
from mqshape.optimizer import curve_range


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["constants", "--n", "2", "--beta", "-1", "--delta", "1e-22", "--b0", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        dc = derive_constants(
            ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=1e-22, b0=1.0)
        )
        assert abs(doc["log_c_min"] - dc.log_c_min.log_value) <= 1e-12
        assert abs(doc["log_c0"] - dc.log_c0.log_value) <= 1e-12
        assert abs(doc["eta_log_abs"] - dc.eta_log_abs) <= 1e-12
        assert doc["rho"] == 1.0 and doc["log_delta_product"] == 0.0

    def test_classic_example(self, capsys):
        code, out, _ = run_cli(
            capsys, ["constants", "--n", "1", "--beta", "-1", "--delta", "0.01"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["log_c_min"] == pytest.approx(math.log(0.24) + 4.0, rel=1e-12)
        assert doc["log_c0"] is None

    def test_rejects_even_beta(self, capsys):
        code, out, err = run_cli(
            capsys, ["constants", "--n", "1", "--beta", "2", "--delta", "0.01"]
        )
        assert code == 2
        assert out == ""
        assert "beta" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["constants", "--n", "1", "--beta", "-1", "--delta", "0.01", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestCriterionCommand:
    def test_two_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "criterion", "--n", "2", "--beta", "-1", "--delta", "1e-26",
                "--c-lo", "0.5", "--c-hi", "2.0", "--count", "2",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,logH"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.5
        assert float(lines[2].split(",")[0]) == 2.0

    @pytest.mark.parametrize("mode", ["practical", "fixed-b0", "dilation-invariant"])
    @pytest.mark.parametrize("n, beta", [(1, "-1"), (2, "1")])
    def test_csv_rows_are_repr_pairs(self, capsys, n, beta, mode):
        # the rows are repr(c),repr(log H(c)): exactly what csv.writer
        # writes for those strings, and they read back to the same doubles
        argv = [
            "criterion", "--n", str(n), "--beta", beta, "--sigma", "0.7",
            "--delta", "1e-3", "--b0", "2", "--mode", mode, "--count", "300",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        spec = ProblemSpec(n=n, beta=float(beta), sigma=0.7, delta=1e-3, b0=2.0, mode=Mode(mode))
        dc = derive_constants(spec)
        cs = [float(row[0]) for row in list(csv.reader(io.StringIO(out)))[1:]]
        written = io.StringIO()
        writer = csv.writer(written, lineterminator="\n")
        writer.writerow(["c", "logH"])
        writer.writerows([repr(c), repr(log_h_unified(c, spec, dc))] for c in cs)
        assert len(cs) == 300 and out == written.getvalue()

    def test_uncovered_spec_is_refused_before_its_range(self, capsys):
        # n + beta = 0.5: no criterion, whatever the range
        code, _, err = run_cli(
            capsys,
            ["criterion", "--n", "2", "--beta", "-1.5", "--delta", "0.1", "--c-lo", "1e300"],
        )
        assert code == 2
        assert "no criterion" in err

    def test_deterministic(self, capsys):
        argv = [
            "criterion", "--n", "1", "--beta", "-1", "--delta", "0.1",
            "--b0", "1", "--mode", "fixed-b0", "--count", "50",
        ]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_classic_fixed_b0_curve_argmin_left_of_knee(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "criterion", "--n", "1", "--beta", "-1", "--delta", "0.1",
                "--b0", "1", "--mode", "fixed-b0", "--count", "2000",
            ],
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        cs = np.array([float(r[0]) for r in rows])
        hs = np.array([float(r[1]) for r in rows])
        c0 = 3.0 * math.exp(4.0)
        assert cs[int(np.argmin(hs))] < c0

    def test_practical_and_fixed_b0_differ_by_constant_beyond_knee(self, capsys):
        c0 = 3.0 * math.exp(4.0)
        base = [
            "--n", "1", "--beta", "-1", "--delta", "0.01", "--b0", "1",
            "--c-lo", str(c0), "--c-hi", str(10.0 * c0), "--count", "20",
        ]
        _, out_pr, _ = run_cli(capsys, ["criterion", *base, "--mode", "practical"])
        _, out_fb, _ = run_cli(capsys, ["criterion", *base, "--mode", "fixed-b0"])
        h_pr = [float(r.split(",")[1]) for r in out_pr.strip().splitlines()[1:]]
        h_fb = [float(r.split(",")[1]) for r in out_fb.strip().splitlines()[1:]]
        diffs = [a - b for a, b in zip(h_fb, h_pr)]
        expected = math.log(2.0 / 3.0) / (4.0 * 2.0 * 0.01)
        for d in diffs:
            assert d == pytest.approx(expected, abs=1e-10 * max(1.0, abs(h_pr[0])))

    def test_unrepresentable_default_range_requires_explicit_lo(self, capsys):
        code, out, err = run_cli(
            capsys, ["criterion", "--n", "4", "--beta", "-1", "--delta", "0.01"]
        )
        assert code == 3 and out == "" and "--c-lo" in err
        code, out, _ = run_cli(
            capsys,
            [
                "criterion", "--n", "4", "--beta", "-1", "--delta", "0.01",
                "--c-lo", "0.1", "--c-hi", "10", "--count", "5",
            ],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    def test_default_range_ends_at_the_finite_cap(self, capsys, beta):
        # 10 * c0 ~ 1e205 lies past the cap, where log H is nan
        flags = ["--n", "3", "--beta", repr(beta), "--delta", "1e-200", "--b0", "1",
                 "--mode", "fixed-b0"]
        code, out, _ = run_cli(capsys, ["criterion", *flags])
        assert code == 0
        rows = list(csv.reader(out.splitlines()))[1:]
        assert len(rows) == 200 and all(math.isfinite(float(h)) for _, h in rows)
        code, out, _ = run_cli(capsys, ["optimize", *flags])
        assert code == 0 and float(rows[-1][0]) == json.loads(out)["bracket"][1]

    def test_default_range_covers_the_minimizer(self, capsys):
        # c* ~ 1.9e17, far past both 1e3 * c_lo and 10 * c0
        flags = ["--n", "2", "--beta", "1", "--sigma", "0.493", "--delta", "1.2e-40",
                 "--mode", "dilation-invariant"]
        code, out, _ = run_cli(capsys, ["criterion", *flags])
        assert code == 0
        rows = list(csv.reader(out.splitlines()))[1:]
        assert all(math.isfinite(float(c)) and math.isfinite(float(h)) for c, h in rows)
        code, out, _ = run_cli(capsys, ["optimize", *flags])
        assert code == 0 and float(rows[-1][0]) >= json.loads(out)["c_star"]

    def test_default_range_ends_at_the_cap_when_the_criterion_still_falls(self, capsys):
        # the minimizer ~1e200 lies past the cap, so optimize refuses it;
        # eta c overflows from c ~ 4.7e111, below the cap, so the range
        # ends there
        flags = ["--n", "1", "--beta", "1", "--delta", "1e-200", "--mode", "dilation-invariant"]
        code, _, err = run_cli(capsys, ["optimize", *flags])
        assert code == 3 and "cap" in err
        code, out, _ = run_cli(capsys, ["criterion", *flags])
        assert code == 0
        rows = list(csv.reader(out.splitlines()))[1:]
        assert len(rows) == 200 and all(math.isfinite(float(h)) for _, h in rows)
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=1e-200, mode=Mode.DILATION_INVARIANT)
        dc = derive_constants(spec)
        assert math.exp(708.0 - dc.eta_log_abs) < float(rows[-1][0]) <= math.exp(709.0 - dc.eta_log_abs)
        assert float(rows[-1][0]) == finite_cap(spec, dc)

    @pytest.mark.parametrize("b0", ["1e150", "1e100"])
    def test_fixed_b0_default_range_ends_where_eta_c_is_finite(self, capsys, b0):
        # below the knee c0 ~ 3 e^4 b0 the factor is e^{-eta c}, whose eta c
        # overflows from c ~ 4.7e111; beyond the knee it is a constant
        flags = ["--n", "1", "--beta", "1", "--delta", "1e-200", "--b0", b0, "--mode", "fixed-b0"]
        code, out, _ = run_cli(capsys, ["criterion", *flags])
        assert code == 0
        rows = list(csv.reader(out.splitlines()))[1:]
        assert len(rows) == 200 and all(math.isfinite(float(h)) for _, h in rows)
        dc = derive_constants(ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=1e-200, b0=float(b0)))
        end = float(rows[-1][0])
        if b0 == "1e100":  # the knee comes first: the range is 10 c0 as before
            assert end == pytest.approx(10.0 * dc.log_c0.value, rel=1e-12)
        else:
            assert math.exp(708.0 - dc.eta_log_abs) < end <= math.exp(709.0 - dc.eta_log_abs)

    @pytest.mark.parametrize("mode", ["practical", "dilation-invariant"])
    def test_default_range_ignores_b0_in_modes_without_a_knee(self, capsys, mode):
        # neither mode has a knee, so a cube side must not move the range
        flags = ["--n", "1", "--beta", "-1", "--delta", "1e-3", "--mode", mode]
        code, out, _ = run_cli(capsys, ["criterion", *flags])
        code_b0, out_b0, _ = run_cli(capsys, ["criterion", *flags, "--b0", "1e10"])
        assert code == code_b0 == 0
        assert out.splitlines()[-1] == out_b0.splitlines()[-1]

    def test_default_range_without_a_minimizer_still_draws(self, capsys):
        # delta = 0.3 breaks optimize's fixed-b0 precondition (delta < 0.125)
        flags = ["--n", "1", "--beta", "-1", "--delta", "0.3", "--b0", "1", "--mode", "fixed-b0"]
        assert run_cli(capsys, ["optimize", *flags])[0] == 4
        code, out, _ = run_cli(capsys, ["criterion", *flags, "--count", "5"])
        assert code == 0 and len(out.strip().splitlines()) == 6

    def test_default_range_beyond_the_finite_cap_is_refused(self, capsys):
        # c_min ~ 5.8e166 lies past the cap ~ 8.9e153
        code, out, err = run_cli(
            capsys,
            ["criterion", "--n", "3", "--beta", "1", "--delta", "1e-40", "--b0", "1"],
        )
        assert code == 3 and out == "" and "--c-lo" in err

    def test_explicit_range_start_beyond_the_finite_cap_is_refused(self, capsys):
        # the message names the given start and the cap, not a range end
        # the user never gave
        code, out, err = run_cli(
            capsys,
            ["criterion", "--n", "2", "--beta", "1", "--delta", "1e-30", "--c-lo", "1e160"],
        )
        assert code == 3 and out == ""
        assert "c_lo = 1e+160" in err and "8.94427e+153" in err and "--c-lo" in err

    def test_explicit_range_end_beyond_the_finite_cap_is_refused(self, capsys):
        # past the cap ~ 8.9e153 the rows were nan, with exit 0
        code, out, err = run_cli(
            capsys,
            ["criterion", "--n", "2", "--beta", "1", "--delta", "1e-3", "--c-hi", "1e200"],
        )
        assert code == 3 and out == ""
        assert "c_hi = 1e+200" in err and "8.94427e+153" in err and "--c-hi" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n", "1", "--beta", "-1", "--delta", "1e-4", "--b0", "1", "--mode", "fixed-b0"],
            ["--n", "2", "--beta", "1", "--sigma", "0.5", "--delta", "1e-3"],
            ["--n", "1", "--beta", "1", "--delta", "1e-5", "--mode", "dilation-invariant"],
            ["--n", "3", "--beta", "-1", "--delta", "1e-200", "--b0", "1", "--c-lo", "2"],
        ],
    )
    def test_range_is_the_library_curve_range(self, capsys, flags):
        # the one owner of the range: the rows start and end on its ends, bit for bit
        code, out, _ = run_cli(capsys, ["criterion", *flags, "--count", "5"])
        assert code == 0
        args = build_parser().parse_args(["criterion", *flags])
        spec = ProblemSpec(
            n=args.n, beta=args.beta, sigma=args.sigma, delta=args.delta, b0=args.b0,
            mode=Mode(args.mode),
        )
        rows = list(csv.reader(out.splitlines()))[1:]
        got = (float(rows[0][0]), float(rows[-1][0]))
        assert got == curve_range(spec, derive_constants(spec), args.c_lo, args.c_hi)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "criterion", "--n", "1", "--beta", "-1", "--delta", "0.1",
                "--c-lo", "1", "--c-hi", "2", "--count", "3", "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 3 and {"c", "logH"} == set(doc[0])


class TestOptimizeCommand:
    def test_interior_minimum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["optimize", "--n", "3", "--beta", "1", "--delta", "1e-208"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c_star"] == pytest.approx(0.408248, abs=1e-4)
        assert doc["clamped_lower"] is False

    def test_clamped(self, capsys):
        code, out, _ = run_cli(
            capsys, ["optimize", "--n", "1", "--beta", "1", "--delta", "0.01"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["clamped_lower"] is True

    def test_deterministic(self, capsys):
        argv = ["optimize", "--n", "1", "--beta", "-1", "--delta", "1e-5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_fill_distance_precondition_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["optimize", "--n", "1", "--beta", "-1", "--delta", "0.2", "--b0", "1"],
        )
        assert code == 4
        assert out == ""
        assert "0.125" in err

    def test_unrepresentable_endpoint_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, ["optimize", "--n", "4", "--beta", "-1", "--delta", "0.01"]
        )
        assert code == 3
        assert "log" in err

    def test_minimum_at_the_knee_for_tiny_delta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "optimize", "--n", "1", "--beta", "1", "--sigma", "1.93",
                "--delta", "3.2e-249", "--b0", "1", "--mode", "fixed-b0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        # the knee c0 = 3 b0 rho sqrt(n) e^{2 n gamma_n} = 3 e^4 here
        assert doc["c_star"] == pytest.approx(3.0 * math.exp(4.0), rel=1e-12)
        assert doc["clamped_lower"] is False


    def test_knee_past_the_finite_cap_is_not_a_candidate(self, capsys):
        # xi*^2 overflows below the knee c0 ~ 1.8e153 for sigma = 16, where
        # log H is about +6.5e306, not the -5.6e152 once returned as the
        # minimum; the true minimum is at c_min
        code, out, _ = run_cli(
            capsys,
            ["optimize", "--n", "1", "--beta", "-1", "--sigma", "16", "--delta", "1e-3",
             "--b0", "1.1e151", "--mode", "fixed-b0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["clamped_lower"] is True and doc["c_star"] == doc["bracket"][0]
        assert doc["log_h_star"] == pytest.approx(4.17, abs=0.01)


class TestFitCommand:
    def test_combined_csv(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        xs = np.linspace(0.0, 1.0, 5)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            for x in xs:
                writer.writerow([x, math.sin(x)])
        code, out, _ = run_cli(
            capsys,
            ["fit", "--n", "1", "--beta", "-1", "--c", "1.0", "--nodes", str(path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_nodes"] == 5
        assert doc["node_residual"] < 1e-10

    def test_separate_values_csv(self, capsys, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        values_path = tmp_path / "values.csv"
        xs = np.linspace(0.0, 1.0, 5)
        nodes_path.write_text("".join(f"{x}\n" for x in xs))
        values_path.write_text("".join(f"{math.sin(x)}\n" for x in xs))
        code, out, _ = run_cli(
            capsys,
            [
                "fit", "--n", "1", "--beta", "-1", "--c", "1.0",
                "--nodes", str(nodes_path), "--values", str(values_path),
            ],
        )
        assert code == 0
        assert json.loads(out)["node_residual"] < 1e-10

    def test_malformed_row_names_line(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0.0,1.0\n0.5,oops\n1.0,2.0\n")
        code, out, err = run_cli(
            capsys,
            ["fit", "--n", "1", "--beta", "-1", "--c", "1.0", "--nodes", str(path)],
        )
        assert code == 2
        assert out == ""
        assert "row 2" in err

    def test_overflowing_shape_parameter_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        code, out, err = run_cli(
            capsys,
            ["fit", "--n", "1", "--beta", "-1", "--c", "1e200", "--nodes", str(path)],
        )
        assert code == 3
        assert out == ""
        assert "numeric failure" in err

    def test_infinite_shape_parameter_is_an_input_error(self, capsys, tmp_path):
        # c = inf is no shape parameter: exit 2, not the numeric failure
        # (exit 3) of a finite c whose square overflows
        path = tmp_path / "nodes.csv"
        path.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        code, out, err = run_cli(
            capsys, ["fit", "--n", "1", "--beta", "-1", "--c", "inf", "--nodes", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: shape parameter c must be a positive finite real, got inf\n"

    @pytest.mark.parametrize(
        "beta, count, c", [("-1", 11, "0.5"), ("-1", 41, "20"), ("1", 11, "0.5")]
    )
    def test_non_finite_value_is_an_input_error(self, capsys, tmp_path, beta, count, c):
        # well-conditioned systems (and a Cholesky breakdown for 41 nodes
        # at c = 20): exit 2 for bad data, not 3 for conditioning
        path = tmp_path / "nodes.csv"
        xs = np.linspace(0.0, 1.0, count)
        rows = [f"{x},{math.sin(x)}\n" for x in xs]
        rows[count // 2] = f"{xs[count // 2]},nan\n"
        path.write_text("".join(rows))
        code, out, err = run_cli(
            capsys, ["fit", "--n", "1", "--beta", beta, "--c", c, "--nodes", str(path)]
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["fit", "--n", "1", "--beta", "-1", "--c", "1.0",
             "--nodes", str(tmp_path / "nope.csv")],
        )
        assert code == 2
        assert "nope.csv" in err


class TestVerifyCommand:
    def test_satisfied_experiment(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        xs = np.linspace(0.0, 1.0, 11)
        path.write_text("".join(f"{x}\n" for x in xs))
        c = 24.0 * math.exp(4.0) * 0.05 * 1.2
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0",
                "--b0", "1.0", "--gauss-a", "0.25", "--c", str(c),
                "--nodes", str(path), "--eval-grid", "401",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is True
        assert doc["delta_measured"] == pytest.approx(0.05, rel=1e-4)

    def test_output_is_strict_json(self, capsys, tmp_path):
        # zero data: the bound's log is -inf, which strict JSON cannot carry
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{x}\n" for x in np.linspace(0.0, 1.0, 11)))
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0",
                "--b0", "1.0", "--gauss-a", "0.25", "--amplitude", "0",
                "--c", str(24.0 * math.exp(4.0) * 0.06), "--nodes", str(path),
                "--eval-grid", "101",
            ],
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["log_bound"] is None
        assert doc["max_error_measured"] == 0.0

    @pytest.mark.parametrize(
        "flags", [["--eval-grid", "0"], ["--eval-grid", "-3"], ["--grid-per-side", "0"]]
    )
    def test_grid_sizes_below_two_exit_2(self, capsys, tmp_path, flags):
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{x}\n" for x in np.linspace(0.0, 1.0, 11)))
        code, out, err = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0",
                "--b0", "1.0", "--gauss-a", "0.25", "--c", "30",
                "--nodes", str(path), *flags,
            ],
        )
        assert code == 2
        assert out == ""
        assert "integer >= 2" in err

    def test_fill_distance_grid_on_the_nodes_exits_2(self, capsys, tmp_path):
        # three nodes at 0, 0.5 and 1 and a 3-point grid, which --eval-grid
        # also sets for the fill distance: delta measures 0, and the error
        # names the grid, not a delta the user never passed
        path = tmp_path / "nodes.csv"
        path.write_text("0\n0.5\n1\n")
        code, out, err = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--b0", "1", "--gauss-a", "0.25",
                "--c", "5", "--nodes", str(path), "--eval-grid", "3",
            ],
        )
        assert code == 2
        assert out == ""
        assert "--grid-per-side" in err and "positive finite" not in err

    def test_infinite_shape_parameter_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{x}\n" for x in np.linspace(0.0, 1.0, 11)))
        code, out, err = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0",
                "--b0", "1.0", "--gauss-a", "0.25", "--c", "inf", "--nodes", str(path),
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: shape parameter c must be a positive finite real, got inf\n"

    def test_mode_leaves_the_document_unchanged(self, capsys, tmp_path):
        # the bound takes its convergence factor from --b0, which verify
        # requires, so --mode changes nothing
        path = tmp_path / "nodes.csv"
        path.write_text("".join(f"{x}\n" for x in np.linspace(0.0, 1.0, 11)))
        outs = set()
        for mode in ["practical", "fixed-b0", "dilation-invariant"]:
            code, out, err = run_cli(
                capsys,
                [
                    "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0",
                    "--b0", "1.0", "--gauss-a", "0.25", "--c", "65.5",
                    "--nodes", str(path), "--mode", mode,
                ],
            )
            assert (code, err) == (0, "")
            outs.add(out)
        assert len(outs) == 1 and json.loads(outs.pop())["satisfied"] is True

    def test_requires_cube_side(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("0.5\n")
        code, _, err = run_cli(
            capsys,
            [
                "verify", "--n", "1", "--beta", "-1", "--gauss-a", "0.25",
                "--c", "30", "--nodes", str(path),
            ],
        )
        assert code == 2
        assert "b0" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--n", "1"])  # missing required flags
    assert exc.value.code == 2


SRC = Path(__file__).resolve().parents[1] / "src"
SPEC_FLAGS = ["--n", "1", "--beta", "-1", "--delta", "0.1", "--b0", "1"]


def scipy_modules_after(argv):
    """Exit code of ``cli.main(argv)`` (None for a bare ``import mqshape``)
    and the scipy modules loaded, plus ``numpy`` when it is loaded, in a
    fresh interpreter that imports mqshape from this checkout."""
    probe = "import contextlib, io, sys\nimport mqshape\ncode = None\n"
    if argv is not None:
        probe += (
            "from mqshape.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
        )
    probe += (
        "print(code, *sorted(m for m in sys.modules"
        " if m == 'numpy' or m.split('.')[0] == 'scipy'))\n"
    )
    code, *modules = run_fresh(probe).split()
    return code, set(modules)


def run_fresh(source):
    """stdout of ``source`` run by a fresh interpreter that imports mqshape
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["optimize", *SPEC_FLAGS],
        ["criterion", *SPEC_FLAGS, "--count", "50"],
        ["constants", *SPEC_FLAGS],
    ],
)
def test_selection_commands_load_no_scipy(argv):
    code, modules = scipy_modules_after(argv)
    assert code == ("None" if argv is None else "0")
    assert modules == set()


VERIFY_ARGV = [
    "verify", "--n", "1", "--beta", "-1", "--sigma", "1.0", "--b0", "1.0",
    "--gauss-a", "0.25", "--c", str(24.0 * math.exp(4.0) * 0.06),
    "--eval-grid", "101",
]


HEAVY_STDLIB = ("dataclasses", "inspect")


def heavy_stdlib_after(source):
    """The modules of HEAVY_STDLIB loaded after ``source`` has run in a
    fresh interpreter."""
    probe = source + f"\nprint('loaded', *(m for m in {HEAVY_STDLIB!r} if m in sys.modules))\n"
    return set(run_fresh(probe).split()[1:])


@pytest.mark.parametrize("command", ["constants", "criterion", "optimize", "fit", "verify"])
def test_commands_load_no_dataclasses(tmp_path, command):
    # dataclasses and the inspect module it imports cost a fresh process
    # ~10 ms; numpy loads inspect, but no command loads dataclasses
    preloaded = heavy_stdlib_after("import sys")
    if preloaded:
        pytest.skip(f"a bare interpreter here already loads {sorted(preloaded)}")
    path = tmp_path / "nodes.csv"
    xs = np.linspace(0.0, 1.0, 11)
    if command == "fit":
        path.write_text("".join(f"{x},{math.sin(x)}\n" for x in xs))
        argv = ["fit", "--n", "1", "--beta", "-1", "--c", "0.5", "--nodes", str(path)]
    elif command == "verify":
        path.write_text("".join(f"{x}\n" for x in xs))
        argv = [*VERIFY_ARGV, "--nodes", str(path)]
    else:
        argv = [command, *SPEC_FLAGS]
    source = (
        "import contextlib, io, sys\n"
        "from mqshape.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    loaded = heavy_stdlib_after(source)
    assert "dataclasses" not in loaded
    if command not in ("fit", "verify"):
        assert loaded == set()


CYTHON_LINALG = {"scipy.linalg.cython_lapack", "scipy.linalg.cython_blas"}
F2PY_LINALG = {"scipy.linalg", "scipy.linalg._flapack", "scipy.linalg._fblas"}


def assert_lapack_without_scipy_linalg(modules):
    """scipy's Cython LAPACK and BLAS modules are loaded, and neither its
    f2py extensions, the ``scipy.linalg`` package nor scipy.special or
    scipy.spatial is."""
    assert CYTHON_LINALG <= modules
    assert not F2PY_LINALG & modules
    assert not {m for m in modules if m.startswith(("scipy.special", "scipy.spatial"))}


def test_verify_loads_lapack_but_not_scipy_linalg(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("".join(f"{x}\n" for x in np.linspace(0.0, 1.0, 11)))
    code, modules = scipy_modules_after([*VERIFY_ARGV, "--nodes", str(path)])
    assert code == "0"
    assert_lapack_without_scipy_linalg(modules)


@pytest.mark.parametrize("command", ["fit", "fit-tail", "verify"])
def test_rbf_commands_load_numpy_and_lapack_but_not_scipy_linalg(tmp_path, command):
    # every fit forms its residuals by a BLAS product, and a beta = +1 fit
    # ("fit-tail") also reduces its saddle by a BLAS rank-2 update
    path = tmp_path / "nodes.csv"
    xs = np.linspace(0.0, 1.0, 11)
    if command.startswith("fit"):
        path.write_text("".join(f"{x},{math.sin(x)}\n" for x in xs))
        beta = "1" if command == "fit-tail" else "-1"
        argv = ["fit", "--n", "1", "--beta", beta, "--c", "0.5", "--nodes", str(path)]
    else:
        path.write_text("".join(f"{x}\n" for x in xs))
        argv = [*VERIFY_ARGV, "--nodes", str(path)]
    code, modules = scipy_modules_after(argv)
    assert code == "0"
    assert "numpy" in modules
    assert_lapack_without_scipy_linalg(modules)


FIT_PROBE = """
from mqshape import rbf
nodes = rbf.uniform_grid([0.0], 1.0, 11, 1)
interp = rbf.fit(rbf.Kernel(c=0.5, beta=1.0, n=1), nodes, np.sin(nodes.points[:, 0]))
assert interp.factorization == 'cholesky'
used = sys.modules['scipy.linalg.cython_lapack']
used_blas = sys.modules['scipy.linalg.cython_blas']
"""

# the fit alone loads scipy's Cython modules and no f2py extension
ONLY_CYTHON_PROBE = f"""
assert set({sorted(CYTHON_LINALG)!r}) <= sys.modules.keys()
assert not set({sorted(F2PY_LINALG)!r}) & sys.modules.keys()
"""

SCIPY_LINALG_PROBE = """
import scipy.linalg
"""

SAME_LAPACK_PROBE = """
from scipy.linalg import cython_blas, cython_lapack
assert sys.modules['scipy.linalg.cython_lapack'] is used is cython_lapack
assert sys.modules['scipy.linalg.cython_blas'] is used_blas is cython_blas
assert 'dpotrf' in used.__pyx_capi__ and 'dsyr2' in used_blas.__pyx_capi__
a = np.array([[4.0, 1.0], [2.0, 3.0]])
x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), [1.0, 2.0])
assert np.allclose(a @ x, [1.0, 2.0])
print('ok')
"""


# hides the extension file from the first lookup of it, which is rbf's
NO_SPEC_PROBE = """
import importlib.machinery
real_find_spec = importlib.machinery.PathFinder.find_spec
hidden = []
def find_spec(name, path=None, target=None):
    if name == 'scipy.linalg.cython_lapack' and not hidden:
        hidden.append(name)
        return None
    return real_find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = staticmethod(find_spec)
"""

FELL_BACK_PROBE = """
assert 'scipy.linalg' in sys.modules
"""


@pytest.mark.parametrize(
    "steps",
    [
        [FIT_PROBE, ONLY_CYTHON_PROBE, SCIPY_LINALG_PROBE],
        [SCIPY_LINALG_PROBE, FIT_PROBE],
        [NO_SPEC_PROBE, FIT_PROBE, FELL_BACK_PROBE, SCIPY_LINALG_PROBE],
    ],
    ids=["fit-first", "scipy-linalg-first", "no-spec-fallback"],
)
def test_one_lapack_module_with_scipy_linalg(steps):
    # mqshape's loader and an import of scipy.linalg, in either order,
    # share one copy of each Cython module, LAPACK's and BLAS's, and
    # scipy.linalg still works; where no module file is found, the loader
    # imports the package
    source = "import sys\nimport numpy as np\n" + "".join(steps) + SAME_LAPACK_PROBE
    assert run_fresh(source).split() == ["ok"]


LAZY_EXPORTS_PROBE = """
import importlib, sys
import mqshape

assert 'numpy' not in sys.modules
assert set(mqshape.__all__) <= set(dir(mqshape))
assert 'rbf' in dir(mqshape) and 'verify' in dir(mqshape)
interp = mqshape.rbf.fit(
    mqshape.rbf.Kernel(c=0.5, beta=-1.0, n=1),
    mqshape.rbf.uniform_grid([0.0], 1.0, 5, 1),
    [0.0, 1.0, 0.0, 1.0, 0.0],
)
assert interp.node_residual < 1e-8
for name in mqshape.__all__:
    value = getattr(mqshape, name)
    home = importlib.import_module('mqshape.' + value.__module__.split('.')[-1])
    assert getattr(home, name) is value, name
namespace = {}
exec('from mqshape import *', namespace)
assert all(namespace[name] is getattr(mqshape, name) for name in mqshape.__all__)
try:
    mqshape.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError('unknown attribute resolved')
print('ok')
"""


def test_lazy_exports_resolve():
    assert run_fresh(LAZY_EXPORTS_PROBE).split() == ["ok"]
