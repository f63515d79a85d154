import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qollide import (
    NumericError,
    bath_from_csv,
    bath_to_csv,
    basis_ordering,
    ladder_history,
    prepare_thermal_dicke,
    thermal_hec_state,
)
from qollide.cli import main, parse_n_range

from conftest import fmt_float

TRAJECTORY_HEADER = "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_config_error(result, *fragments):
    """Exit 2 with a one-line ``error:`` message and nothing written."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestParseNRange:
    def test_colon_range(self):
        assert parse_n_range("4:64:4") == list(range(4, 65, 4))
        assert parse_n_range("2:10") == list(range(2, 11))

    def test_comma_list(self):
        assert parse_n_range("4,8,12") == [4, 8, 12]

    def test_single(self):
        assert parse_n_range("8") == [8]

    def test_bad_input(self):
        from qollide import ValidationError

        with pytest.raises(ValidationError):
            parse_n_range("4:2")
        with pytest.raises(ValidationError):
            parse_n_range("x:y")


class TestCoeffs:
    def test_dicke_values(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--bath", "dicke", "--N", "8", "--k", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]["r_e"] == 18.0
        assert payload["coefficients"]["r_d"] == 20.0
        assert payload["bath"] == {"kind": "dicke", "N": 8, "k": 3}

    def test_product_values(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--bath", "product", "--N", "3", "--pe", "0.2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]["r_e"] == pytest.approx(0.6)
        assert payload["coefficients"]["r_d"] == pytest.approx(2.4)

    def test_explicit_maximally_mixed(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        rows = ["N=2,basis=excitation-sorted"]
        for i in range(4):
            rows.append(",".join("0.25+0j" if i == j else "0+0j" for j in range(4)))
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "coeffs", "--bath", "explicit", "--file", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]["r_e"] == pytest.approx(1.0, abs=1e-12)
        assert payload["coefficients"]["r_d"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [-1, 0, 2000])
    def test_bath_csv_header_outside_cap_exit_2(self, capsys, tmp_path, N):
        path = tmp_path / "rho.csv"
        path.write_text(f"N={N},basis=excitation-sorted\n1+0j\n")
        for command in ("coeffs", "classify"):
            result = run(capsys, command, "--bath", "explicit", "--file", str(path))
            assert_config_error(result, f"bath csv: N={N} outside allowed range 1..12")

    def test_nan_entry_exit_2(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("N=1,basis=excitation-sorted\nnan+0j,0+0j\n0+0j,1+0j\n")
        result = run(capsys, "coeffs", "--bath", "explicit", "--file", str(path))
        assert_config_error(result, "finiteness check failed")

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_non_finite_nbar_exit_2(self, capsys, n_bar):
        result = run(
            capsys, "coeffs", "--bath", "thermal-hec", "--N", "4", "--nbar", n_bar
        )
        assert_config_error(result, "n_bar: must be finite")

    @pytest.mark.parametrize(
        "flag, value",
        [("g", "nan"), ("g", "inf"), ("tau", "inf"), ("tau", "nan"), ("p", "inf"), ("omega0", "nan")],
    )
    def test_non_finite_collision_parameter_exit_2(self, capsys, flag, value):
        result = run(
            capsys, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1", f"--{flag}", value
        )
        assert_config_error(result, f"{flag}: must be finite")

    def test_nbar_too_large_for_normalization_exit_2(self, capsys):
        result = run(
            capsys, "coeffs", "--bath", "thermal-hec", "--N", "4", "--nbar", "1e16"
        )
        assert_config_error(result, "n_bar: 1e+16 is too large for N=4")

    def test_missing_field_exit_2(self, capsys):
        code, _, err = run(capsys, "coeffs", "--bath", "dicke", "--N", "8")
        assert code == 2
        assert "k" in err

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run(
            capsys, "coeffs", "--bath", "product", "--N", "3", "--pe", "1.4"
        )
        assert code == 2
        assert "p_e" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = dicke\nN = 8\nk = 2  # overridden below\n")
        code, out, _ = run(capsys, "coeffs", "--config", str(cfg), "--k", "3")
        assert code == 0
        assert json.loads(out)["bath"]["k"] == 3

    def test_bad_config_line_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath dicke\n")
        code, _, err = run(capsys, "coeffs", "--config", str(cfg))
        assert code == 2
        assert "config" in err


class TestEvolve:
    def test_analytic_csv(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys,
            "evolve",
            "--bath",
            "dicke",
            "--N",
            "4",
            "--k",
            "1",
            "--t-end",
            "0.5",
            "--n-points",
            "6",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy"
        assert len(lines) == 7
        last = [float(x) for x in lines[-1].split(",")]
        # t = 0.5, mu = 1: well past t_q = 0.1, close to steady 0.4
        assert last[2] == pytest.approx(0.4, abs=3e-3)

    def test_zero_grid_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys,
            "evolve",
            "--bath",
            "dicke",
            "--N",
            "4",
            "--k",
            "1",
            "--t-end",
            "1.0",
            "--n-points",
            "0",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == (
            "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy\n"
        )

    @pytest.mark.parametrize("engine", ["analytic", "ode", "collisions"])
    def test_negative_grid_header_only(self, capsys, tmp_path, engine):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "evolve", "--engine", engine, "--bath", "dicke", "--N", "4",
            "--k", "1", "--t-end", "0.01", "--dt", "0.001", "--n-points", "-1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == TRAJECTORY_HEADER

    @pytest.mark.parametrize(
        "engine", ["analytic", "ode", "collisions", "collisions-second-order"]
    )
    @pytest.mark.parametrize(
        "bath, fragment",
        [
            (["--bath", "dicke", "--N", "4", "--k", "99"], "k: must be in 0..4"),
            (["--bath", "product", "--N", "4", "--pe", "7"], "p_e: must be in [0, 1]"),
        ],
        ids=["k", "pe"],
    )
    @pytest.mark.parametrize("n_points", ["0", "1"])
    def test_zero_grid_checks_bath(self, capsys, tmp_path, engine, bath, fragment, n_points):
        # an empty grid is refused for the same configurations as a
        # one-point grid, and writes nothing
        engine, _, mode = engine.partition("-")
        out_path = tmp_path / "traj.csv"
        result = run(
            capsys, "evolve", "--engine", engine, *bath,
            *(["--mode", mode] if mode else []),
            "--t-end", "0.01", "--dt", "0.001", "--n-points", n_points,
            "--out", str(out_path),
        )
        assert_config_error(result, fragment)
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["exact", "second-order"])
    @pytest.mark.parametrize("n_points", ["0", "1"])
    def test_zero_grid_checks_qubit_cap(self, capsys, mode, n_points):
        result = run(
            capsys, "evolve", "--engine", "collisions", "--mode", mode,
            "--bath", "dicke", "--N", "30", "--k", "1",
            "--t-end", "0.01", "--dt", "0.001", "--n-points", n_points,
        )
        assert_config_error(result, "basis_ordering: N=30 outside allowed range 1..12")

    def test_engines_agree(self, capsys, tmp_path):
        common = [
            "--bath", "dicke", "--N", "4", "--k", "1",
            "--g", "0.05", "--tau", "1.0", "--p", "400",
            "--t-end", "0.1", "--n-points", "5",
        ]
        paths = {}
        for engine, extra in (
            ("analytic", []),
            ("ode", ["--dt", "0.0001"]),
            ("collisions", ["--dt", "0.00005"]),
        ):
            path = tmp_path / f"{engine}.csv"
            code, _, _ = run(
                capsys, "evolve", "--engine", engine, *common, *extra,
                "--out", str(path),
            )
            assert code == 0
            rows = [
                [float(x) for x in line.split(",")]
                for line in path.read_text().splitlines()[1:]
            ]
            paths[engine] = np.array(rows)
        np.testing.assert_allclose(
            paths["analytic"][:, 2], paths["ode"][:, 2], atol=1e-6
        )
        np.testing.assert_allclose(
            paths["analytic"][:, 2], paths["collisions"][:, 2], atol=1e-2
        )

    def test_second_order_collisions_over_cap_exit_2(self, capsys):
        code, out, err = run(
            capsys, "evolve", "--engine", "collisions", "--mode", "second-order",
            "--bath", "dicke", "--N", "20", "--k", "3",
            "--t-end", "0.01", "--dt", "0.001",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=20" in err

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_collisions_non_finite_nbar_exit_2(self, capsys, n_bar):
        result = run(
            capsys, "evolve", "--engine", "collisions",
            "--bath", "thermal-hec", "--N", "4", "--nbar", n_bar,
            "--t-end", "0.01", "--dt", "0.001",
        )
        assert_config_error(result, "n_bar: must be finite")

    @pytest.mark.parametrize(
        "engine, t_end, dt, fragment",
        [
            ("ode", "nan", "0.1", "t_end: must be finite"),
            ("ode", "1", "inf", "dt: must be finite"),
            ("collisions", "1", "nan", "dt: must be finite"),
            ("collisions", "inf", "0.1", "t_end: must be finite"),
            ("analytic", "inf", None, "t_end: must be finite"),
            ("analytic", "1", "nan", "dt: must be finite"),
        ],
    )
    def test_non_finite_time_grid_exit_2(self, capsys, engine, t_end, dt, fragment):
        argv = ["evolve", "--engine", engine, "--bath", "dicke", "--N", "4", "--k", "1"]
        argv += ["--t-end", t_end] + (["--dt", dt] if dt else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            result = run(capsys, *argv)
        assert_config_error(result, fragment)

    @pytest.mark.parametrize("engine", ["ode", "collisions"])
    def test_step_count_overflow_exit_2(self, capsys, engine):
        result = run(
            capsys, "evolve", "--engine", engine, "--bath", "dicke", "--N", "4", "--k", "1",
            "--t-end", "1e300", "--dt", "1e-300", "--n-points", "3",
        )
        assert_config_error(result, "t_end/dt: inf steps exceed the limit of 2**53")

    def test_every_step_over_record_limit_exit_2(self, capsys):
        result = run(
            capsys, "evolve", "--engine", "ode", "--bath", "dicke", "--N", "4", "--k", "1",
            "--t-end", "1e6", "--dt", "1e-3",
        )
        assert_config_error(result, "1000000001 records exceed the limit of 1000000")

    def test_every_engine_held_to_the_record_limit(self, capsys, monkeypatch):
        import qollide.dynamics as dynamics

        real = np.linspace

        def no_over_limit_grid(start, stop, num, *args, **kwargs):
            assert num <= 10, "grid allocated before the record limit"
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(dynamics, "MAX_RECORDS", 10)
        monkeypatch.setattr(np, "linspace", no_over_limit_grid)
        bath = ["--bath", "dicke", "--N", "4", "--k", "1", "--t-end", "1"]
        for engine in ("analytic", "ode", "collisions"):
            argv = ["evolve", "--engine", engine, *bath, "--dt", "0.001"]
            result = run(capsys, *argv, "--n-points", "11")
            assert_config_error(
                result, "n_records: 11 records exceed the limit of 10; record fewer points"
            )
            code, out, _ = run(capsys, *argv, "--n-points", "10")
            assert code == 0 and out.count("\n") == 11
        # the analytic default of 101 points is over this limit too
        result = run(capsys, "evolve", *bath)
        assert_config_error(result, "n_records: 101 records exceed the limit of 10")

    def test_collisions_nbar_too_large_exit_2(self, capsys):
        result = run(
            capsys, "evolve", "--engine", "collisions",
            "--bath", "thermal-hec", "--N", "4", "--nbar", "1e16",
            "--t-end", "0.01", "--dt", "0.001",
        )
        assert_config_error(result, "too large")

    def test_stochastic_seeded_reruns_identical(self, capsys, tmp_path):
        args = [
            "evolve", "--engine", "collisions", "--scheme", "stochastic",
            "--seed", "7", "--trajectories", "50",
            "--bath", "dicke", "--N", "3", "--k", "1",
            "--t-end", "0.02", "--dt", "0.0001", "--n-points", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "evolve", "--bath", "thermal-hec", "--N", "3", "--nbar", "1.0",
            "--t-end", "0.3", "--n-points", "20",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestSweep:
    def test_product_slope_json(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        slopes_path = tmp_path / "slopes.json"
        code, _, _ = run(
            capsys,
            "sweep",
            "--family",
            "product",
            "--pe",
            "0.2",
            "--N",
            "2:32:2",
            "--out",
            str(csv_path),
            "--slopes-out",
            str(slopes_path),
        )
        assert code == 0
        slopes = json.loads(slopes_path.read_text())
        assert slopes["slope_t_q"] == pytest.approx(-1.0, abs=0.01)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,k,r_e,r_d,t_q,T_q"
        assert len(lines) == 17

    def test_thermal_hec_temperature_constant(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--family", "thermal-hec", "--nbar", "1",
            "--N", "2:10", "--out", str(csv_path),
        )
        assert code == 0
        temps = {line.split(",")[5] for line in csv_path.read_text().splitlines()[1:]}
        assert len(temps) == 1  # byte-identical temperature column

    def test_deterministic_across_worker_counts(self, capsys, tmp_path):
        outputs = []
        for run_index in (1, 2):
            csv_path = tmp_path / f"sweep_{run_index}.csv"
            slopes_path = tmp_path / f"slopes_{run_index}.json"
            code, _, _ = run(
                capsys, "sweep", "--family", "dicke", "--krule", "half-minus-one",
                "--N", "4:64:4", "--out", str(csv_path),
                "--slopes-out", str(slopes_path),
            )
            assert code == 0
            outputs.append(csv_path.read_bytes() + slopes_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_thermal_hec_nbar_too_large_exit_2(self, capsys):
        result = run(
            capsys, "sweep", "--family", "thermal-hec", "--N", "4:8", "--nbar", "1e16"
        )
        assert_config_error(result, "too large")

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_thermal_hec_non_finite_nbar_exit_2(self, capsys, n_bar):
        result = run(
            capsys, "sweep", "--family", "thermal-hec", "--N", "4:8", "--nbar", n_bar
        )
        assert_config_error(result, "n_bar: must be finite")

    def test_missing_krule_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "dicke", "--N", "4:8:4")
        assert code == 2
        assert "k_rule" in err

    def test_undefined_slope_serializes_as_null(self, capsys, tmp_path):
        # N=1 quarter rule gives k=0 and zero temperature: no log-log fit
        slopes_path = tmp_path / "slopes.json"
        code, _, _ = run(
            capsys, "sweep", "--family", "dicke", "--krule", "quarter",
            "--N", "1,2", "--out", str(tmp_path / "s.csv"),
            "--slopes-out", str(slopes_path),
        )
        assert code == 0
        slopes = json.loads(slopes_path.read_text())  # strict JSON parses
        assert slopes["slope_T_q"] is None
        assert slopes["slope_t_q"] is not None

    @pytest.mark.parametrize(
        "family, extra, n_list",
        [
            ("product", ["--pe", "0.2"], "1,1"),
            ("product", ["--pe", "0.2"], "4,4"),
            ("dicke", ["--krule", "quarter"], "8,8,8"),
            ("thermal-hec", ["--nbar", "1"], "5"),
        ],
    )
    def test_fewer_than_two_distinct_n_null_slopes(self, capfd, tmp_path, family, extra, n_list):
        # capfd also sees what LAPACK would print on the C level
        slopes_path = tmp_path / "slopes.json"
        argv = ["sweep", "--family", family, *extra, "--N", n_list,
                "--out", str(tmp_path / "s.csv"), "--slopes-out", str(slopes_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RankWarning either
            code = main(argv)
        captured = capfd.readouterr()
        assert (code, captured.out, captured.err) == (0, "", "")
        slopes = json.loads(slopes_path.read_text())
        assert slopes["slope_t_q"] is None and slopes["slope_T_q"] is None
        assert slopes["points"] == len(n_list.split(","))


class TestClassify:
    def test_n2_block_map(self, capsys):
        code, out, _ = run(capsys, "classify", "--bath", "dicke", "--N", "2", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["block_sizes"] == [1, 2, 1]
        assert payload["counts"] == {
            "population": 4,
            "displacement": 8,
            "squeezing": 2,
            "hec": 2,
            "ineffective": 0,
        }
        squeezing = [e for e in payload["entries"] if e["primary"] == "squeezing"]
        assert len(squeezing) == 1  # unordered pair (gg, ee)
        assert {squeezing[0]["state_i"], squeezing[0]["state_j"]} == {"gg", "ee"}

    def test_n4_central_complements_ineffective(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--bath", "product", "--N", "4", "--pe", "0.3"
        )
        assert code == 0
        payload = json.loads(out)
        pairs = {
            frozenset((e["state_i"], e["state_j"])): e["primary"]
            for e in payload["entries"]
        }
        assert pairs[frozenset(("eegg", "ggee"))] == "ineffective"
        assert pairs[frozenset(("egeg", "gege"))] == "ineffective"

    def test_n1_has_no_squeezing_or_hec(self, capsys):
        code, out, _ = run(capsys, "classify", "--bath", "product", "--N", "1", "--pe", "0")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert counts["squeezing"] == 0
        assert counts["hec"] == 0
        assert counts["displacement"] == 2

    def test_over_cap_n_exit_2(self, capsys):
        # rejected by the operator size cap before the 2^20 bath is built
        code, out, err = run(capsys, "classify", "--bath", "dicke", "--N", "20", "--k", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=20" in err


class TestPrepare:
    def test_step_count_overflow_exit_2(self, capsys):
        result = run(
            capsys, "prepare", "--N", "2", "--nbar", "1", "--gamma0", "1",
            "--t-end", "1e300", "--dt", "1e-300", "--n-points", "2",
        )
        assert_config_error(result, "t_end/dt")

    def test_long_run_block_ratios(self, capsys, tmp_path):
        ladder_path = tmp_path / "ladder.csv"
        state_path = tmp_path / "state.csv"
        code, _, _ = run(
            capsys, "prepare", "--N", "4", "--nbar", "1", "--gamma0", "1",
            "--t-end", "15", "--dt", "0.002", "--n-points", "11",
            "--out-ladder", str(ladder_path), "--out-state", str(state_path),
        )
        assert code == 0
        n, rho = bath_from_csv(state_path.read_text())
        assert n == 4
        basis = basis_ordering(4)
        traces = [
            np.trace(rho[basis.block_slice(k), basis.block_slice(k)]).real
            for k in range(5)
        ]
        for k in range(4):
            assert traces[k + 1] / traces[k] == pytest.approx(0.5, abs=1e-6)
        header = ladder_path.read_text().splitlines()[0]
        assert header == "t,rho_0,rho_1,rho_2,rho_3,rho_4"

    def test_single_qubit_excited_fraction(self, capsys, tmp_path):
        ladder_path = tmp_path / "ladder.csv"
        state_path = tmp_path / "state.csv"
        code, _, _ = run(
            capsys, "prepare", "--N", "1", "--nbar", "0.5", "--gamma0", "1",
            "--t-end", "30", "--dt", "0.001",
            "--out-ladder", str(ladder_path), "--out-state", str(state_path),
        )
        assert code == 0
        last = ladder_path.read_text().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(0.25, abs=1e-6)

    def test_zero_point_grid_still_writes_state(self, capsys, tmp_path):
        ladder_path = tmp_path / "ladder.csv"
        state_path = tmp_path / "state.csv"
        code, _, _ = run(
            capsys, "prepare", "--N", "2", "--nbar", "1", "--gamma0", "1",
            "--t-end", "15", "--dt", "0.002", "--n-points", "0",
            "--out-ladder", str(ladder_path), "--out-state", str(state_path),
        )
        assert code == 0
        assert ladder_path.read_text() == "t,rho_0,rho_1,rho_2\n"
        _, rho = bath_from_csv(state_path.read_text())
        np.testing.assert_allclose(rho, thermal_hec_state(2, 1.0), atol=1e-6)

    def test_single_point_grid_writes_final_state(self, capsys, tmp_path):
        # the bath state is the one at t_end even when only t = 0 is recorded
        states = []
        for n_points in ("1", "2"):
            state_path = tmp_path / f"state{n_points}.csv"
            code, _, _ = run(
                capsys, "prepare", "--N", "2", "--nbar", "1", "--gamma0", "1",
                "--t-end", "5", "--dt", "0.01", "--n-points", n_points,
                "--out-ladder", str(tmp_path / f"ladder{n_points}.csv"),
                "--out-state", str(state_path),
            )
            assert code == 0
            states.append(state_path.read_text())
        assert states[0] == states[1]
        _, rho = bath_from_csv(states[0])
        assert rho[0, 0].real < 0.6  # not the ground state

    def test_zero_time_initial_ladder(self, capsys, tmp_path):
        ladder_path = tmp_path / "ladder.csv"
        state_path = tmp_path / "state.csv"
        code, _, _ = run(
            capsys, "prepare", "--N", "3", "--nbar", "1", "--gamma0", "1",
            "--t-end", "0", "--dt", "0.01",
            "--out-ladder", str(ladder_path), "--out-state", str(state_path),
        )
        assert code == 0
        lines = ladder_path.read_text().splitlines()
        assert len(lines) == 2
        assert [float(x) for x in lines[1].split(",")] == [0.0, 1.0, 0.0, 0.0, 0.0]

    def test_state_file_matches_closed_form(self, capsys, tmp_path):
        state_path = tmp_path / "state.csv"
        code, _, _ = run(
            capsys, "prepare", "--N", "2", "--nbar", "1", "--gamma0", "1",
            "--t-end", "15", "--dt", "0.002",
            "--out-ladder", str(tmp_path / "l.csv"), "--out-state", str(state_path),
        )
        assert code == 0
        _, rho = bath_from_csv(state_path.read_text())
        np.testing.assert_allclose(rho, thermal_hec_state(2, 1.0), atol=1e-6)

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_non_finite_nbar_exit_2(self, capsys, tmp_path, n_bar):
        state = tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "4", "--nbar", n_bar, "--gamma0", "1",
            "--t-end", "1", "--dt", "0.1", "--out-state", str(state),
        )
        assert_config_error(result, "n_bar: must be finite")
        assert not state.exists()

    @pytest.mark.parametrize(
        "gamma0, t_end, dt, fragment",
        [
            ("nan", "1", "0.1", "gamma0: must be finite"),
            ("inf", "1", "0.1", "gamma0: must be finite"),
            ("1", "nan", "0.1", "t_end: must be finite"),
            ("1", "1", "inf", "dt: must be finite"),
        ],
    )
    def test_non_finite_rate_or_grid_exit_2(self, capsys, tmp_path, gamma0, t_end, dt, fragment):
        state = tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "3", "--nbar", "1", "--gamma0", gamma0,
            "--t-end", t_end, "--dt", dt, "--out-state", str(state),
        )
        assert_config_error(result, fragment)
        assert not state.exists()

    def test_transient_negativity_exit_3_with_any_grid(self, capsys, tmp_path):
        # the RK4 step map of this run has negative entries, so every step
        # is checked, as in prepare_thermal_dicke, however few are recorded
        with pytest.raises(NumericError) as info:
            prepare_thermal_dicke(3, 0.2, 1.0, t_end=12.0, dt=0.3)
        assert "population negativity -6.480e-05 at step 1;" in str(info.value)
        for n_points in (["--n-points", "2"], ["--n-points", "0"], []):
            state = tmp_path / "state.csv"
            code, out, err = run(
                capsys, "prepare", "--N", "3", "--nbar", "0.2", "--gamma0", "1",
                "--t-end", "12", "--dt", "0.3", *n_points, "--out-state", str(state),
            )
            assert (code, out) == (3, "")
            assert err == f"numeric error: {info.value}\n"
            assert not state.exists()

    @pytest.mark.parametrize("N", [2, 3, 6])
    @pytest.mark.parametrize("n_bar", [0.2, 1.0])
    @pytest.mark.parametrize("dt", [0.05, 0.3, 1.0])
    def test_verdict_and_state_match_library(self, capsys, tmp_path, N, n_bar, dt):
        try:
            _, rho = prepare_thermal_dicke(N, n_bar, 1.0, t_end=6.0, dt=dt)
        except NumericError as exc:
            rho, failure = None, f"numeric error: {exc}\n"
        n_steps = int(6.0 / dt + 1e-9)
        for n_points in (None, -1, 0, 1, 2, 5, n_steps + 1, n_steps + 7):
            state = tmp_path / "state.csv"
            grid = [] if n_points is None else ["--n-points", str(n_points)]
            code, _, err = run(
                capsys, "prepare", "--N", str(N), "--nbar", repr(n_bar),
                "--gamma0", "1", "--t-end", "6", "--dt", repr(dt), *grid,
                "--out-ladder", str(tmp_path / "ladder.csv"), "--out-state", str(state),
            )
            if rho is None:
                assert (code, err) == (3, failure)
                continue
            assert code == 0
            text = state.read_text()
            state.unlink()
            if n_points is not None and n_points <= 0:
                # the library's own grid: bit for bit the same state
                assert text == bath_to_csv(rho, N)
            else:
                # other grids reach t_end through other matrix powers
                np.testing.assert_allclose(bath_from_csv(text)[1], rho, rtol=0, atol=1e-12)

    def test_negative_step_map_over_record_limit_exit_2(self, capsys, tmp_path):
        # every step of a negative step map is checked, so recording fewer
        # points cannot help: the message names the step map and dt
        ladder, state = tmp_path / "ladder.csv", tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "3", "--nbar", "0.2", "--gamma0", "1",
            "--t-end", "600000", "--dt", "0.3", "--n-points", "5",
            "--out-ladder", str(ladder), "--out-state", str(state),
        )
        assert_config_error(
            result, "dt: the ladder step map at dt=0.3 has a negative entry",
            "2000001 steps", "reduce dt",
        )
        assert "record fewer points" not in result[2]
        assert not ladder.exists() and not state.exists()

    def test_over_cap_n_exit_2_writes_nothing(self, capsys, tmp_path):
        ladder, state = tmp_path / "ladder.csv", tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "13", "--nbar", "0.2", "--gamma0", "1",
            "--t-end", "6", "--dt", "0.05",
            "--out-ladder", str(ladder), "--out-state", str(state),
        )
        assert_config_error(result, "basis_ordering: N=13 outside allowed range 1..12")
        assert not ladder.exists() and not state.exists()

    def test_failed_state_writes_no_file(self, capsys, monkeypatch, tmp_path):
        import qollide.cli as cli

        def fail(rho, N):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.setattr(cli, "bath_to_csv", fail)
        ladder, state = tmp_path / "ladder.csv", tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "4", "--nbar", "1", "--gamma0", "1",
            "--t-end", "1", "--dt", "0.01",
            "--out-ladder", str(ladder), "--out-state", str(state),
        )
        assert result == (2, "", "error: out of memory: Unable to allocate 1.00 GiB\n")
        assert not ladder.exists() and not state.exists()

    @pytest.mark.parametrize("n_points", [None, 0, 1, 4])
    def test_ladder_csv_matches_per_value_format(self, capsys, tmp_path, n_points):
        ladder_path = tmp_path / "ladder.csv"
        grid = [] if n_points is None else ["--n-points", str(n_points)]
        code, _, _ = run(
            capsys, "prepare", "--N", "3", "--nbar", "0.7", "--gamma0", "1",
            "--t-end", "0.5", "--dt", "0.05", *grid, "--out-ladder", str(ladder_path),
            "--out-state", str(tmp_path / "state.csv"),
        )
        assert code == 0
        times, history, _ = ladder_history(3, 0.7, 1.0, 0.5, 0.05, n_records=n_points)
        lines = ["t,rho_0,rho_1,rho_2,rho_3"]
        for t, row in zip(times, history):
            lines.append(",".join(fmt_float(x) for x in (t, *row)))
        assert ladder_path.read_text() == "\n".join(lines) + "\n"

    def test_numeric_failure_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "prepare", "--N", "6", "--nbar", "1", "--gamma0", "1",
            "--t-end", "10", "--dt", "1.0",
            "--out-ladder", str(tmp_path / "l.csv"),
            "--out-state", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert "numeric" in err


class TestFigures:
    def test_writes_all_datasets_deterministically(self, capsys, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for out_dir in (dir_a, dir_b):
            code, out, _ = run(capsys, "figures", "--out-dir", str(out_dir))
            assert code == 0
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == [
            "decay_dicke_N4_k1.csv",
            "decay_dicke_N8_k2.csv",
            "decay_dicke_N8_k3.csv",
            "decay_mixed_N4.csv",
            "decay_mixed_N8.csv",
            "temperature_dicke_N12_k5.csv",
            "temperature_dicke_N4_k1.csv",
            "temperature_dicke_N8_k3.csv",
            "temperature_mixed_N12.csv",
            "temperature_mixed_N4.csv",
            "temperature_mixed_N8.csv",
        ]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_temperature_dataset_asymptote(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "temperature_dicke_N12_k5.csv").read_text().splitlines()
        last_T = float(lines[-1].split(",")[6])
        assert last_T == pytest.approx(-1.0 / math.log(40.0 / 42.0), abs=1e-9)


class TestUnwritableOutputs:
    """An output that cannot be written exits 2 with one ``error:`` line,
    prints nothing, and leaves none of the command's files behind."""

    def test_every_output_flag(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bad = blocker / "x"  # a path under a regular file
        good = tmp_path / "good"
        dicke = ["--bath", "dicke", "--N", "4", "--k", "1"]
        prepare = ["prepare", "--N", "3", "--nbar", "0.5", "--gamma0", "1",
                   "--t-end", "0.5", "--dt", "0.05"]
        sweep = ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2"]
        cases = [
            (["coeffs", *dicke, "--out", str(bad)], bad),
            (["evolve", *dicke, "--t-end", "1", "--out", str(bad)], bad),
            (["classify", *dicke, "--out", str(bad)], bad),
            ([*sweep, "--out", str(bad), "--slopes-out", str(good)], bad),
            ([*sweep, "--out", str(good), "--slopes-out", str(bad)], bad),
            ([*sweep, "--slopes-out", str(bad)], bad),
            ([*prepare, "--out-ladder", str(bad), "--out-state", str(good)], bad),
            ([*prepare, "--out-ladder", str(good), "--out-state", str(bad)], bad),
            ([*prepare, "--out-state", str(bad)], bad),
        ]
        for argv, path in cases:
            result = run(capsys, *argv)
            assert_config_error(result, f"output: cannot write {path}: Not a directory")
            assert not good.exists(), argv
        result = run(capsys, "figures", "--out-dir", str(bad))
        assert_config_error(result, f"output: cannot create {bad}: Not a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        # the last figure's target is a directory: the ten before it are
        # removed and no path is printed
        figures = tmp_path / "figures"
        (figures / "temperature_mixed_N12.csv").mkdir(parents=True)
        result = run(capsys, "figures", "--out-dir", str(figures))
        assert_config_error(
            result,
            f"output: cannot write {figures / 'temperature_mixed_N12.csv'}: Is a directory",
        )
        assert [p.name for p in figures.iterdir()] == ["temperature_mixed_N12.csv"]

    def test_only_created_regular_files_removed(self, capsys, tmp_path):
        # a symlink, a FIFO or an existing file given as an output is left
        # as it was when a later output cannot be opened
        bad = tmp_path / "missing" / "x"
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        sweep = ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2"]
        prepare = ["prepare", "--N", "3", "--nbar", "0.5", "--gamma0", "1",
                   "--t-end", "0.5", "--dt", "0.05"]
        try:
            for first in (link, fifo):
                result = run(capsys, *sweep, "--out", str(first), "--slopes-out", str(bad))
                assert_config_error(result, f"output: cannot write {bad}: No such file or directory")
            result = run(capsys, *prepare, "--out-ladder", str(old), "--out-state", str(bad))
            assert_config_error(result, f"output: cannot write {bad}: No such file or directory")
            assert os.read(reader, 1) == b""
        finally:
            os.close(reader)
        assert os.readlink(link) == os.devnull
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert old.read_text() == "old\n"
        # a run that succeeds replaces the existing file's bytes
        coeffs = ["coeffs", "--bath", "dicke", "--N", "4", "--k", "1"]
        assert run(capsys, *coeffs, "--out", str(old))[0] == 0
        assert old.read_text() == run(capsys, *coeffs)[1]

    def test_failed_write_removes_created_files(self, capsys, tmp_path):
        # every output opens; the write to a full device fails afterwards
        full = tmp_path / "full"
        full.symlink_to("/dev/full")
        ladder = tmp_path / "ladder.csv"
        result = run(capsys, "prepare", "--N", "3", "--nbar", "0.5", "--gamma0", "1",
                     "--t-end", "0.5", "--dt", "0.05",
                     "--out-ladder", str(ladder), "--out-state", str(full))
        assert_config_error(result, f"output: cannot write {full}: No space left on device")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["full"]


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qollide", "coeffs", "--bath", "dicke", "--N", "4", "--k", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficients"]["r_e"] == 4.0


class TestUnexpectedFailures:
    @pytest.mark.parametrize(
        "exc, code, line",
        [
            (np.linalg.LinAlgError("SVD did not\nconverge"), 3,
             "numeric error: linear algebra failed: SVD did not converge\n"),
            (MemoryError("Unable to allocate 16.0 TiB"), 2,
             "error: out of memory: Unable to allocate 16.0 TiB\n"),
            (MemoryError(), 2, "error: out of memory: MemoryError\n"),
        ],
    )
    def test_mapped_to_exit_code_without_traceback(self, capsys, monkeypatch, exc, code, line):
        import qollide.cli as cli

        def fail(args, config):
            raise exc

        monkeypatch.setattr(cli, "cmd_coeffs", fail)
        assert run(capsys, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1") == (code, "", line)
