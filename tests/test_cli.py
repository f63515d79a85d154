import errno
import gc
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qollide import (
    BathSpec,
    bath_from_csv,
    bath_to_csv,
    basis_ordering,
    classify_coherences,
    ladder_history,
    prepare_thermal_dicke,
    validate_bath,
)
from qollide import dynamics
from qollide.cli import main, parse_n_range

from conftest import fmt_float

TRAJECTORY_HEADER = "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy\n"

#: The two ``python -m`` entries; both run ``cli.console_main``.
MODULE_ENTRIES = ("qollide", "qollide.cli")


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

    @pytest.mark.parametrize("token", ["1_0+2j", "j", "1+j"])
    def test_entry_numpy_does_not_parse_exit_2(self, capsys, tmp_path, token):
        path = tmp_path / "rho.csv"
        path.write_text(f"N=1,basis=excitation-sorted\n{token},0\n0,1+0j\n")
        result = run(capsys, "coeffs", "--bath", "explicit", "--file", str(path))
        assert_config_error(result, "bath csv: bad entry: ", repr(token))

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

    @pytest.mark.parametrize("engine", ["ode", "collisions"])
    def test_stepped_engine_needs_dt(self, capsys, engine):
        result = run(capsys, "evolve", *DICKE_4_1, "--engine", engine, "--t-end", "1")
        assert result == (2, "", f"error: dt: required for the {engine} engine\n")

    def test_ode_trace_drift_exit_3(self, capsys, monkeypatch):
        from qollide import dynamics

        real = dynamics._propagate

        def drifted(*args):
            rows = real(*args)
            rows[-1, 0] -= 1e-6  # the trace of the final state
            return rows

        monkeypatch.setattr(dynamics, "_propagate", drifted)
        argv = ("evolve", *DICKE_4_1, "--engine", "ode", "--t-end", "0.01", "--dt", "0.001")
        assert run(capsys, *argv) == (
            3, "", "numeric error: integrate_master: trace drift 1.000e-06 at step 10\n"
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
            ("analytic", "1", "0", "dt: must be finite and positive, got 0.0"),
            ("analytic", "1", "-1", "dt: must be finite and positive, got -1.0"),
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
        import qollide.errors as errors
        from qollide import ValidationError

        real = np.linspace

        def no_over_limit_grid(start, stop, num, *args, **kwargs):
            assert num <= 10, "grid allocated before the record limit"
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(errors, "MAX_RECORDS", 10)
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
        # the ladder of prepare, and the points of a sweep, in the list or
        # the range that parse_n_range reads
        prepare = ["prepare", "--N", "3", "--nbar", "1"]
        result = run(capsys, *prepare, "--gamma0", "1", "--t-end", "1", "--dt", "0.01",
                     "--n-points", "11")
        assert_config_error(result, "n_records: 11 records exceed the limit of 10")
        result = run(capsys, *prepare, "--gamma0", "10", "--t-end", "10", "--dt", "1")
        assert_config_error(result, "n_records: 11 records exceed the limit of 10")
        code, out, _ = run(capsys, *prepare, "--gamma0", "10", "--t-end", "10", "--dt", "1",
                           "--n-points", "10")
        assert code == 0 and out.startswith("t,rho_0,rho_1,rho_2,rho_3\n0,1,0,0,0\n")
        for text in ("1:11", ",".join(["4"] * 11)):
            result = run(capsys, "sweep", "--family", "dicke", "--krule", "quarter", "--N", text)
            assert_config_error(result, "N: 11 points exceed the limit of 10; sweep fewer N")
            with pytest.raises(ValidationError, match="^N: 11 points exceed the limit of 10;"):
                parse_n_range(text)
        assert len(parse_n_range("1:10")) == 10

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    def test_collisions_grid_refused_before_the_map(self, capsys, monkeypatch, scheme):
        import qollide.dynamics as dynamics

        def unreachable(*args, **kwargs):
            raise AssertionError("collision map built")

        # the N = 12 map alone takes tens of seconds
        monkeypatch.setattr(dynamics, "collision_superoperator", unreachable)
        result = run(
            capsys, "evolve", "--engine", "collisions", "--scheme", scheme,
            "--bath", "dicke", "--N", "12", "--k", "6", "--t-end", "1", "--dt", "1e-7",
        )
        assert_config_error(
            result, "n_records: 10000001 records exceed the limit of 1000000; record fewer points"
        )

    @pytest.mark.parametrize("n_bar", ["1e9", "1e16"])
    def test_collisions_large_nbar_answers(self, capsys, n_bar):
        # the state's weights share the closed form's exponent, so its trace
        # is 1 and the collision engine agrees with coeffs
        code, out, err = run(
            capsys, "evolve", "--engine", "collisions",
            "--bath", "thermal-hec", "--N", "4", "--nbar", n_bar,
            "--t-end", "0.01", "--dt", "0.001",
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == 12

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

    def test_second_order_trace_growth_advised(self, capsys, tmp_path):
        # the output is written as before, with one advisory on its trace
        out_path = tmp_path / "traj.csv"
        with pytest.warns(UserWarning, match="^second-order collisions moved the trace by 1.45, more than 1%"):
            code, out, _ = run(
                capsys, "evolve", "--engine", "collisions", "--mode", "second-order",
                "--bath", "dicke", "--N", "8", "--k", "3", "--t-end", "1", "--dt", "1e-3",
                "--out", str(out_path),
            )
        assert (code, out) == (0, "")
        # trace 2.453348574741912; a 50-digit replay gives 2.45334857474170787
        assert out_path.read_text().splitlines()[-1] == (
            "1,1.0000000000000002,1.1651714594399392,1.2881771153019728,0,0,9.9641412045377979,0"
        )

    def test_exact_collision_trace_drift_exit_3(self, capsys, tmp_path, monkeypatch):
        real = dynamics.collision_superoperator
        monkeypatch.setattr(
            dynamics, "collision_superoperator", lambda *a, **k: 1.001 * real(*a, **k)
        )
        out_path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "evolve", "--engine", "collisions", "--bath", "dicke", "--N", "4",
            "--k", "1", "--t-end", "0.01", "--dt", "0.001", "--out", str(out_path),
        )
        assert (code, out) == (3, "")
        assert "collision_chain: trace drift" in err and "at step 1" in err
        assert not out_path.exists()

    def test_exact_collisions_follow_the_bath_trace(self, capsys, tmp_path):
        # a bath accepted with trace 1 + 9e-11: 1000 collisions move the
        # target's trace by 9e-8, as the bath says, so the run is written
        path = tmp_path / "rho.csv"
        rho = validate_bath(BathSpec.product_mixed(2, 0.5))
        path.write_text(bath_to_csv(rho * (1.0 + 9e-11), 2))
        out_path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "evolve", "--engine", "collisions", "--bath", "explicit",
            "--file", str(path), "--t-end", "10", "--dt", "1e-3", "--n-points", "3",
            "--out", str(out_path),
        )
        assert (code, out, err) == (0, "", "")
        assert len(out_path.read_text().splitlines()) == 4


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

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_thermal_hec_non_finite_nbar_exit_2(self, capsys, n_bar):
        result = run(
            capsys, "sweep", "--family", "thermal-hec", "--N", "4:8", "--nbar", n_bar
        )
        assert_config_error(result, "n_bar: must be finite")

    @pytest.mark.parametrize("n_range", ["1:2:3:4", "1:", ":", "4:2", "1:9:0", "1,,2", "2.5"])
    def test_unparsable_range_exit_2(self, capsys, n_range):
        result = run(capsys, "sweep", "--family", "product", "--pe", "0.2", "--N", n_range)
        assert result == (
            2,
            "",
            f"error: N: cannot parse range {n_range!r} (use start:stop[:step] or a comma list)\n",
        )

    def test_missing_krule_exit_2(self, capsys):
        result = run(capsys, "sweep", "--family", "dicke", "--N", "4:8:4")
        assert result == (2, "", "error: krule: missing required value\n")

    @pytest.mark.parametrize("family, flag", [("product", "pe"), ("thermal-hec", "nbar")])
    def test_missing_parameter_names_its_flag(self, capsys, family, flag):
        result = run(capsys, "sweep", "--family", family, "--N", "4:8:4")
        assert result == (2, "", f"error: {flag}: missing required value\n")

    @pytest.mark.parametrize(
        "family, own, others",
        [
            ("product", ["--pe", "0.2"], ["--nbar", "abc", "--krule", "third"]),
            ("thermal-hec", ["--nbar", "1"], ["--pe", "abc", "--krule", "third"]),
            ("dicke", ["--krule", "quarter"], ["--pe", "abc", "--nbar", "abc"]),
        ],
        ids=["product", "thermal-hec", "dicke"],
    )
    def test_other_families_parameters_unread(self, capsys, tmp_path, family, own, others):
        # a malformed value of another family's flag or config key is not
        # read, as coeffs does not read it
        argv = ["sweep", "--family", family, "--N", "4:8:4", *own]
        want = run(capsys, *argv)
        assert want[0] == 0
        assert run(capsys, *argv, *others) == want
        config = tmp_path / "other.cfg"
        pairs = zip(others[::2], others[1::2])
        config.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in pairs))
        assert run(capsys, *argv, "--config", str(config)) == want

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

    def test_explicit_file_same_map_as_named_bath(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text(bath_to_csv(validate_bath(BathSpec.product_mixed(3, 0.3)), 3))
        named = run(capsys, "classify", "--bath", "product", "--N", "3", "--pe", "0.3")
        assert named[0] == 0
        assert run(capsys, "classify", "--bath", "explicit", "--file", str(path)) == named

    def test_explicit_file_not_positive_exit_2(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text(bath_to_csv(np.diag([1.5, -0.5]), 1))
        result = run(capsys, "classify", "--bath", "explicit", "--file", str(path))
        assert result == (
            2,
            "",
            "error: explicit bath: positivity check failed "
            "(min eigenvalue = -5.000e-01, tol 1.0e-08)\n",
        )

    def test_over_cap_n_exit_2(self, capsys):
        # rejected by the operator size cap before the 2^20 bath is built
        code, out, err = run(capsys, "classify", "--bath", "dicke", "--N", "20", "--k", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=20" in err

    FAMILIES = (
        ("product", "--pe", "0.3", lambda N: BathSpec.product_mixed(N, 0.3)),
        ("thermal-hec", "--nbar", "0.7", lambda N: BathSpec.thermal_hec(N, 0.7)),
        ("dicke", "--k", "1", lambda N: BathSpec.dicke(N, 1)),
    )

    @pytest.mark.parametrize("N", range(1, 11))
    def test_named_family_bytes_unchanged_without_its_state(self, capsys, monkeypatch, N):
        # want: the map made from the validated state, as before; got: the
        # command, which must not build that state at all
        import qollide.cli as cli

        wants = {}
        for kind, flag, value, spec in self.FAMILIES:
            cmap = classify_coherences(N)
            wants[kind] = json.dumps(cmap.to_json_dict(), indent=2) + "\n"

        def unreachable(spec):
            raise AssertionError("bath state built")

        monkeypatch.setattr(cli, "validate_bath", unreachable)
        for kind, flag, value, _ in self.FAMILIES:
            argv = ("classify", "--bath", kind, "--N", str(N), flag, value)
            assert run(capsys, *argv) == (0, wants[kind], "")

    def test_no_collective_operators_built(self, capsys, monkeypatch, tmp_path):
        # the map depends on N alone: with the ladder blocks out of reach,
        # a named family at the cap and an explicit bath, which is still
        # validated, write the JSON they wrote before
        from qollide import cli, collective, master_equation

        path = tmp_path / "rho.csv"
        path.write_text(bath_to_csv(validate_bath(BathSpec.thermal_hec(3, 0.4)), 3))
        runs = (
            ("classify", "--bath", "dicke", "--N", "12", "--k", "3"),
            ("classify", "--bath", "explicit", "--file", str(path)),
        )
        wants = [run(capsys, *argv) for argv in runs]

        def unreachable(N):
            raise AssertionError("collective operators built")

        for module in (cli, collective, dynamics, master_equation):
            monkeypatch.setattr(module, "build_collective_ops", unreachable, raising=False)
        assert [run(capsys, *argv) for argv in runs] == wants
        assert [code for code, _, _ in wants] == [0, 0]
        # ordered pairs: N one-qubit flips of each state; k(N-k) equal-
        # excitation and C(k,2) + C(N-k,2) gap-2 two-qubit flips of a
        # k-excitation state, each summing to N(N-1) 2^(N-2)
        dim, two_flips = 2**12, 12 * 11 * 2**10
        assert json.loads(wants[0][1])["counts"] == {
            "population": dim,
            "displacement": 12 * dim,
            "squeezing": two_flips,
            "hec": two_flips,
            "ineffective": dim * dim - 13 * dim - 2 * two_flips,
        }
        assert json.loads(wants[1][1]) == classify_coherences(3).to_json_dict()

        path.write_text(bath_to_csv(np.diag([0.5, 0.5, 0.5, 0.5, -1.0, 0, 0, 0]), 3))
        code, out, err = run(capsys, *runs[1])
        assert (code, out) == (2, "")
        assert err.startswith("error: explicit bath: positivity check failed")

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["dicke", "--N", "3", "--k", "9"], "k: must be in 0..3, got 9"),
            (["dicke", "--N", "3", "--k", "-1"], "k: must be in 0..3, got -1"),
            (["product", "--N", "3", "--pe", "1.5"], "p_e: must be in [0, 1], got 1.5"),
            (["product", "--N", "3", "--pe", "nan"], "p_e: must be in [0, 1], got nan"),
            (["thermal-hec", "--N", "3", "--nbar", "-1"], "n_bar: must be finite and >= 0, got -1.0"),
            (["thermal-hec", "--N", "3", "--nbar", "inf"], "n_bar: must be finite and >= 0, got inf"),
            # over the qubit cap too: each family's first check is reported
            (["dicke", "--N", "13", "--k", "99"], "k: must be in 0..13, got 99"),
            (["product", "--N", "13", "--pe", "2"], "p_e: must be in [0, 1], got 2.0"),
            (["thermal-hec", "--N", "13", "--nbar", "-1"],
             "basis_ordering: N=13 outside allowed range 1..12"),
        ],
    )
    def test_out_of_range_parameter_exit_2(self, capsys, flags, line):
        assert run(capsys, "classify", "--bath", *flags) == (2, "", f"error: {line}\n")


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
        np.testing.assert_allclose(rho, validate_bath(BathSpec.thermal_hec(2, 1.0)), atol=1e-6)

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
        np.testing.assert_allclose(rho, validate_bath(BathSpec.thermal_hec(2, 1.0)), atol=1e-6)

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

    def test_long_step_writes_the_exact_state_with_any_grid(self, capsys, tmp_path):
        # a dt far beyond any RK4 step for these rates: the ladder is exact,
        # and at t = 12 the state is the thermal-hec one to rounding
        _, rho = prepare_thermal_dicke(3, 0.2, 1.0, t_end=12.0, dt=0.3)
        np.testing.assert_allclose(rho, validate_bath(BathSpec.thermal_hec(3, 0.2)), atol=1e-15)
        for n_points in (["--n-points", "2"], ["--n-points", "0"], []):
            state = tmp_path / "state.csv"
            code, out, err = run(
                capsys, "prepare", "--N", "3", "--nbar", "0.2", "--gamma0", "1",
                "--t-end", "12", "--dt", "0.3", *n_points, "--out-state", str(state),
            )
            assert (code, err) == (0, "")
            assert out.startswith("t,rho_0,rho_1,rho_2,rho_3\n")  # the ladder CSV
            assert state.read_text() == bath_to_csv(rho, 3)

    @pytest.mark.parametrize("N", [2, 3, 6])
    @pytest.mark.parametrize("n_bar", [0.2, 1.0])
    @pytest.mark.parametrize("dt", [0.05, 0.3, 1.0])
    def test_verdict_and_state_match_library(self, capsys, tmp_path, N, n_bar, dt):
        # the state at t_end is a product of its own: the library's bytes
        # on every grid
        _, rho = prepare_thermal_dicke(N, n_bar, 1.0, t_end=6.0, dt=dt)
        n_steps = int(6.0 / dt + 1e-9)
        for n_points in (None, -1, 0, 1, 2, 5, n_steps + 1, n_steps + 7):
            state = tmp_path / "state.csv"
            grid = [] if n_points is None else ["--n-points", str(n_points)]
            code, _, err = run(
                capsys, "prepare", "--N", str(N), "--nbar", repr(n_bar),
                "--gamma0", "1", "--t-end", "6", "--dt", repr(dt), *grid,
                "--out-ladder", str(tmp_path / "ladder.csv"), "--out-state", str(state),
            )
            assert (code, err) == (0, "")
            assert state.read_text() == bath_to_csv(rho, N)
            state.unlink()

    def test_long_grid_held_only_to_its_records(self, capsys, tmp_path):
        # 2,000,000 steps of a dt far beyond any RK4 step: five rows cost
        # five products, and the last is the thermal state
        ladder, state = tmp_path / "ladder.csv", tmp_path / "state.csv"
        result = run(
            capsys, "prepare", "--N", "3", "--nbar", "0.2", "--gamma0", "1",
            "--t-end", "600000", "--dt", "0.3", "--n-points", "5",
            "--out-ladder", str(ladder), "--out-state", str(state),
        )
        assert result == (0, "", "")
        rows = ladder.read_text().splitlines()
        assert len(rows) == 6 and rows[-1].startswith("600000,")
        np.testing.assert_allclose(bath_from_csv(state.read_text())[1],
                                   validate_bath(BathSpec.thermal_hec(3, 0.2)), atol=1e-15)

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

    def test_numeric_failure_exit_3(self, capsys, monkeypatch, tmp_path):
        # the ladder's checks guard its rounding: with no tolerance left,
        # the first checked state is refused and neither file is written
        monkeypatch.setattr(dynamics, "TOL_DRIFT", -1.0)
        code, out, err = run(
            capsys, "prepare", "--N", "6", "--nbar", "1", "--gamma0", "1",
            "--t-end", "10", "--dt", "1.0",
            "--out-ladder", str(tmp_path / "l.csv"),
            "--out-state", str(tmp_path / "s.csv"),
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: ladder integration: normalization drift ")
        assert err.endswith(" at step 0\n")
        assert not any(tmp_path.iterdir())


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

    def test_same_file_twice_exit_2(self, capsys, tmp_path):
        # two outputs that reach one regular file: refused before anything
        # is opened, so nothing is created or changed
        target = tmp_path / "out.csv"
        link = tmp_path / "link.csv"
        sweep = ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2"]
        prepare = ["prepare", "--N", "3", "--nbar", "0.5", "--gamma0", "1",
                   "--t-end", "0.5", "--dt", "0.05"]
        flags = [("--out", "--slopes-out"), ("--out-ladder", "--out-state")]
        for command, (first, second) in zip((sweep, prepare), flags):
            for a, b in [(target, target), (target, f"{tmp_path}/./out.csv")]:
                result = run(capsys, *command, first, str(a), second, str(b))
                assert_config_error(result, f"output: {a} and {b} are the same file")
                assert list(tmp_path.iterdir()) == []
        target.write_text("old\n")
        link.symlink_to(target)
        for command, (first, second) in zip((sweep, prepare), flags):
            result = run(capsys, *command, first, str(link), second, str(target))
            assert_config_error(result, f"output: {link} and {target} are the same file")
            assert target.read_text() == "old\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "out.csv"]

    def test_dev_null_twice_answers(self, capsys):
        for argv in (
            ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2",
             "--out", os.devnull, "--slopes-out", os.devnull],
            ["prepare", "--N", "3", "--nbar", "0.5", "--gamma0", "1", "--t-end", "0.5",
             "--dt", "0.05", "--out-ladder", os.devnull, "--out-state", os.devnull],
        ):
            assert run(capsys, *argv) == (0, "", "")

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

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_failed_stdout_exit_2(self, capsys, monkeypatch, tmp_path, method):
        # stdout is written and flushed inside the same error handling: the
        # file written beside it is removed
        def fail(self, *args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", type("Full", (io.StringIO,), {method: fail})())
        slopes = tmp_path / "slopes.json"
        for argv in (
            ["coeffs", *DICKE_4_1],
            ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2",
             "--slopes-out", str(slopes)],
        ):
            result = run(capsys, *argv)
            assert result == (2, "", "error: output: cannot write <stdout>: No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_as_stdout_exit_2(self):
        # a short JSON and a CSV longer than the stream's buffer, with stdout
        # buffered and unbuffered: one line, and no second failure when the
        # interpreter flushes the buffered bytes at exit
        buffered = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
        for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
            for argv in (
                ["coeffs", *DICKE_4_1],
                ["evolve", "--engine", "analytic", *DICKE_4_1, "--t-end", "5", "--dt", "0.001"],
            ):
                for module in MODULE_ENTRIES:
                    with open("/dev/full", "w") as full:
                        proc = subprocess.run(
                            [sys.executable, "-m", module, *argv], stdout=full,
                            stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                        )
                    assert (proc.returncode, proc.stderr) == (
                        2, "error: output: cannot write <stdout>: No space left on device\n"
                    ), module


def _module_env():
    """The environment of a child Python that imports qollide from ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_import_loads_no_slow_optional_modules():
    # numpy.polynomial alone costs ~19 ms of every process start; the CLI
    # module is what every command imports
    code = "import sys, qollide.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"numpy.polynomial", "fractions", "decimal"}


_EVOLVE_DICKE = ["evolve", "--bath", "dicke", "--N", "4", "--k", "1", "--t-end", "0.01"]


@pytest.mark.parametrize(
    "argv, loads_random",
    [
        ([*_EVOLVE_DICKE, "--engine", "analytic", "--n-points", "7"], False),
        ([*_EVOLVE_DICKE, "--engine", "ode", "--dt", "1e-4", "--n-points", "7"], False),
        ([*_EVOLVE_DICKE, "--engine", "collisions", "--dt", "1e-4", "--n-points", "7"], False),
        ([*_EVOLVE_DICKE, "--engine", "collisions", "--scheme", "stochastic",
          "--trajectories", "3", "--dt", "1e-4", "--n-points", "7"], True),
        (["prepare", "--N", "4", "--nbar", "0.5", "--gamma0", "1", "--t-end", "0.1",
          "--dt", "1e-3", "--n-points", "7", "--out-ladder", "ladder.csv",
          "--out-state", "state.csv"], False),
        (["sweep", "--family", "dicke", "--N", "4:64:4", "--krule", "half-minus-one",
          "--slopes-out", "slopes.json"], False),
        (["figures", "--out-dir", "figures"], False),
    ],
    ids=["analytic", "ode", "collisions", "stochastic", "prepare", "sweep", "figures"],
)
def test_cli_run_imports_no_masked_arrays(tmp_path, argv, loads_random):
    # np.unique imports numpy.ma (about 30 ms and 1.2 MiB of every process
    # that calls it); no command uses masked arrays, and only the stochastic
    # scheme draws random numbers.  -X importtime lists every import.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qollide", *argv],
        capture_output=True, text=True, env=_module_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "qollide.cli" in loaded
    assert "numpy.ma" not in loaded
    assert ("numpy.random" in loaded) == loads_random


def test_module_entry_point(tmp_path):
    procs = [
        subprocess.run(
            [sys.executable, "-m", module, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1"],
            capture_output=True,
            env=_module_env(),
        )
        for module in MODULE_ENTRIES
    ]
    results = [(proc.returncode, proc.stdout, proc.stderr) for proc in procs]
    assert results[0] == results[1]
    assert (procs[0].returncode, procs[0].stderr) == (0, b"")
    assert json.loads(procs[0].stdout)["coefficients"]["r_e"] == 4.0


@pytest.mark.parametrize(
    "argv, code",
    [(["coeffs", "--bath", "dicke", "--N", "4", "--k", "1"], 0),
     (["coeffs", "--bath", "dicke", "--N", "4", "--k", "9"], 2)],
    ids=["success", "refused"],
)
def test_main_leaves_the_collector_unfrozen(capsys, argv, code):
    # main is what in-process callers run; only the process entry freezes
    frozen = gc.get_freeze_count()
    assert run(capsys, *argv)[0] == code
    assert gc.get_freeze_count() == frozen


def test_console_main_freezes_before_main(monkeypatch):
    import qollide.cli as cli

    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert (calls, exc.value.code) == (["freeze", "main"], 3)


def test_advisory_is_one_warning_line():
    # pytest records warnings before they are printed, so only a child
    # process shows the stderr a user sees
    proc = subprocess.run(
        [sys.executable, "-m", "qollide", "evolve", "--engine", "ode", "--bath", "dicke",
         "--N", "4", "--k", "1", "--t-end", "0.02", "--dt", "0.01", "--g", "0.5"],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert (proc.returncode, proc.stdout.count("\n")) == (0, 4)
    assert proc.stderr == (
        "warning: g*tau = 0.5 exceeds 0.3; the second-order collision expansion may be "
        "inaccurate\n"
    )


_OVERFLOW = ["--bath", "product", "--pe", "0.5", "--N", "9007199254740992", "--p", "1e302"]
_RATE_REFUSED = (
    "error: mu*(r_e + r_d): the relaxation rate overflows a float at mu = 1e+300; "
    "lower p or g*tau\n"
)


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["evolve", *_OVERFLOW, "--t-end", "1", "--n-points", "2"], 2, "", _RATE_REFUSED),
        (["evolve", *_OVERFLOW, "--t-end", "1", "--engine", "ode", "--dt", "0.5"], 2, "",
         _RATE_REFUSED),
        (["sweep", "--family", "product", "--pe", "0.5", "--N", "9007199254740992",
          "--p", "1e302"], 2, "", _RATE_REFUSED),
        (["evolve", "--engine", "analytic", "--bath", "dicke", "--N", "2", "--k", "1",
          "--t-end", "1e308", "--n-points", "3"], 0,
         TRAJECTORY_HEADER + "0,0,0,1,0,0,0,0\n"
         "5.0000000000000001e+307,5.0000000000000011e+307,0.5,0.5,0,0,inf,0.69314718055994529\n"
         "1e+308,1.0000000000000002e+308,0.5,0.5,0,0,inf,0.69314718055994529\n", ""),
        (["evolve", "--engine", "analytic", "--bath", "dicke", "--N", "2", "--k", "1",
          "--t-end", "1e300", "--p", "1e20", "--n-points", "2"], 0,
         TRAJECTORY_HEADER + "0,0,0,1,0,0,0,0\n"
         "1.0000000000000001e+300,inf,0.5,0.5,0,0,inf,0.69314718055994529\n", ""),
        (["evolve", "--engine", "ode", "--bath", "dicke", "--N", "4", "--k", "1",
          "--t-end", "1", "--dt", "0.5", "--p", "1e3"], 0,
         TRAJECTORY_HEADER + "0,0,0,1,0,0,0,0\n"
         "0.5,5.0000000000000009,0.40000000000000013,0.59999999999999987,0,0,"
         "2.4663034623764353,0.67301166700925652\n"
         "1,10.000000000000002,0.40000000000000013,0.59999999999999987,0,0,"
         "2.4663034623764353,0.67301166700925652\n", ""),
        # 1e9 steps of t_q/40, three records: the trace stays exact
        (["evolve", "--engine", "ode", "--bath", "dicke", "--N", "4", "--k", "1",
          "--t-end", "2.5e6", "--dt", "0.0025", "--n-points", "3"], 0,
         TRAJECTORY_HEADER + "0,0,0,1,0,0,0,0\n"
         "1250000,1250000.0000000002,0.39999999999999997,0.60000000000000009,0,0,"
         "2.4663034623764299,0.6730116670092563\n"
         "2500000,2500000.0000000005,0.39999999999999997,0.60000000000000009,0,0,"
         "2.4663034623764299,0.6730116670092563\n", ""),
    ],
    ids=["analytic-rate", "ode-rate", "sweep-rate", "long-time", "long-mu-t", "ode-long-step",
         "ode-long-run"],
)
def test_module_output_pinned(argv, code, stdout, stderr):
    # the stderr a user sees, numpy warnings included, shows only in a child
    proc = subprocess.run(
        [sys.executable, "-m", "qollide", *argv], capture_output=True, text=True,
        env=_module_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def test_coeffs_forms_no_relaxation_rate(capsys):
    code, out, err = run(capsys, "coeffs", *_OVERFLOW)
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"]["mu"] == 1.0000000000000002e300


def test_main_restores_warning_format(capsys):
    before = warnings.formatwarning
    assert run(capsys, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1")[0] == 0
    assert warnings.formatwarning is before


def test_parser_built_once_and_reused(capsys):
    import qollide.cli as cli

    assert cli.build_parser() is cli.build_parser()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: qollide evolve")
    first = run(capsys, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1")
    assert run(capsys, "classify", "--bath", "dicke", "--N", "2", "--k", "1")[0] == 0
    assert run(capsys, "coeffs", "--bath", "dicke", "--N", "4", "--k", "1") == first


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


DICKE_4_1 = ["--bath", "dicke", "--N", "4", "--k", "1"]


class TestOverflowingRates:
    """Collision rates that overflow a float are refused by every command
    that takes them, with one error line (satellite of the rate check)."""

    COMMANDS = {
        "coeffs": ["coeffs", *DICKE_4_1],
        "analytic": ["evolve", "--engine", "analytic", *DICKE_4_1, "--t-end", "1"],
        "ode": ["evolve", "--engine", "ode", *DICKE_4_1, "--t-end", "1", "--dt", "0.001"],
        "collisions": [
            "evolve", "--engine", "collisions", *DICKE_4_1, "--t-end", "1", "--dt", "1e-12"
        ],
        "sweep": ["sweep", "--family", "product", "--pe", "0.2", "--N", "2:8:2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "rates", [["--g", "1e200"], ["--g", "1e150", "--p", "1e10"]], ids=["pow", "mu-inf"]
    )
    def test_exit_2(self, capsys, command, rates):
        result = run(capsys, *self.COMMANDS[command], *rates)
        assert_config_error(result, "collision rates", "must be finite")


class TestNegativeZeroNbar:
    """A float option of ``-0`` is that option at ``0``: ``--nbar -0`` has
    x = inf, and every such run the same bytes."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["coeffs", "--bath", "thermal-hec", "--N", "4"], "--nbar"),
            (["sweep", "--family", "thermal-hec", "--N", "1:6"], "--nbar"),
            (["evolve", "--bath", "thermal-hec", "--N", "3", "--t-end", "0.1",
              "--n-points", "5"], "--nbar"),
            (["evolve", "--engine", "collisions", "--bath", "thermal-hec", "--N", "3",
              "--t-end", "0.01", "--dt", "0.001"], "--nbar"),
            (["coeffs", "--bath", "product", "--N", "4"], "--pe"),
            (["coeffs", "--bath", "dicke", "--N", "4", "--k", "1"], "--g"),
        ],
        ids=["coeffs", "sweep", "evolve-analytic", "evolve-collisions", "product-pe", "dicke-g"],
    )
    def test_same_bytes_as_zero(self, capsys, argv, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero = run(capsys, *argv, flag, "0")
            negative = run(capsys, *argv, flag, "-0")
        assert zero[0] == 0 and zero[2] == ""
        assert negative == zero
        assert "-0.0" not in zero[1]


class TestClosedFormNRange:
    @pytest.mark.parametrize(
        "bath",
        [["product", "--pe", "0.2"], ["dicke", "--k", "1"], ["thermal-hec", "--nbar", "1"]],
        ids=["product", "dicke", "thermal-hec"],
    )
    @pytest.mark.parametrize("N", [str(2**53 + 1), "1" + "0" * 400])
    def test_coeffs_above_2_pow_53_exit_2(self, capsys, bath, N):
        result = run(capsys, "coeffs", "--bath", *bath, "--N", N)
        assert_config_error(result, "N: must be <= 2**53")

    def test_coeffs_at_2_pow_53_answers(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--bath", "dicke", "--k", "1", "--N", str(2**53))
        assert code == 0
        assert json.loads(out)["coefficients"]["r_e"] == 2.0**53


class TestThermalHecAtTheTopOfTheRange:
    def test_coeffs_at_2_pow_53_answers_at_once(self, capsys):
        # O(1) in N: D = (N+1) coth((N+1) x/2) - coth(x/2) = N - 2 at n_bar = 1
        N = 2**53
        start = time.process_time()
        code, out, _ = run(capsys, "coeffs", "--bath", "thermal-hec", "--nbar", "1", "--N", str(N))
        assert time.process_time() - start < 1.0
        assert code == 0
        rates = json.loads(out)["coefficients"]
        assert rates["r_e"] == pytest.approx(N - 2, rel=4e-15, abs=0.0)
        assert rates["r_d"] == pytest.approx(2 * (N - 2), rel=4e-15, abs=0.0)


class TestSweepPointCap:
    def test_refused_before_the_list_is_built(self, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            result = run(capsys, "sweep", "--family", "product", "--pe", "0.2", "--N", "1:100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_config_error(result, "N: 100000000 points exceed the limit of 1000000; sweep fewer N")
        assert peak < 2**20  # a list of 10^8 ints would be GBs

    def test_range_past_sys_maxsize_refused(self, capsys):
        result = run(capsys, "sweep", "--family", "dicke", "--krule", "quarter", "--N", f"1:{10**30}")
        assert_config_error(result, f"N: {10**30} points exceed the limit")

    def test_limit_shared_with_library(self, capsys, monkeypatch):
        import qollide.errors as errors
        from qollide import CollisionParams, ValidationError, scaling_sweep

        monkeypatch.setattr(errors, "MAX_RECORDS", 3)
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        assert len(scaling_sweep("product", range(1, 4), params, p_e=0.2).N) == 3
        for N_list in (range(1, 5), [4, 3, 2, 1]):
            with pytest.raises(ValidationError, match="^N: 4 points exceed the limit of 3;"):
                scaling_sweep("product", N_list, params, p_e=0.2)
        assert parse_n_range("2:6:2") == [2, 4, 6]
        for text in ("1:4", "1,2,3,4"):
            result = run(capsys, "sweep", "--family", "product", "--pe", "0.2", "--N", text)
            assert_config_error(result, "N: 4 points exceed the limit of 3")


class TestZeroTimeGrid:
    ENGINES = [
        ["--engine", "analytic"],
        ["--engine", "ode", "--dt", "0.001"],
        ["--engine", "collisions", "--dt", "0.001"],
        ["--engine", "collisions", "--dt", "0.001", "--scheme", "stochastic", "--trajectories", "3"],
    ]

    @pytest.mark.parametrize("n_points", [[], ["--n-points", "5"], ["--n-points", "1"]])
    def test_every_engine_writes_one_row(self, capsys, n_points):
        outputs = set()
        for engine in self.ENGINES:
            code, out, err = run(capsys, "evolve", *engine, *DICKE_4_1, "--t-end", "0", *n_points)
            assert (code, err) == (0, "")
            outputs.add(out)
        assert outputs == {TRAJECTORY_HEADER + "0,0,0,1,0,0,0,0\n"}

    def test_increasing_grid_unchanged(self, capsys):
        from qollide import BathSpec, CollisionParams, analytic_trajectory, coefficients_for, ground_state

        code, out, _ = run(capsys, "evolve", *DICKE_4_1, "--t-end", "0.3", "--n-points", "7")
        c = coefficients_for(BathSpec.dicke(4, 1), CollisionParams(g=0.1, tau=1.0, p=100.0))
        want = analytic_trajectory(ground_state(), c, np.linspace(0.0, 0.3, 7)).to_csv()
        assert code == 0 and out == want


class TestBathFlags:
    """``--bath`` and the flag each kind reads, with their refusals in the
    order they are checked."""

    @pytest.mark.parametrize(
        "flags, spec",
        [
            (["product", "--N", "5", "--pe", "0.3"], BathSpec.product_mixed(5, 0.3)),
            (["product", "--N", "5", "--pe", "-0"], BathSpec.product_mixed(5, 0.0)),
            (["thermal-hec", "--N", "5", "--nbar", "0.7"], BathSpec.thermal_hec(5, 0.7)),
            (["dicke", "--N", "5", "--k", "2"], BathSpec.dicke(5, 2)),
        ],
    )
    def test_named_kind_reads_its_flag(self, capsys, flags, spec):
        from qollide import CollisionParams, coefficients_for

        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        want = {
            "bath": spec.describe(),
            "params": {"g": 0.1, "tau": 1.0, "p": 100.0, "omega0": 1.0},
            "coefficients": coefficients_for(spec, params).to_json_dict(),
        }
        code, out, err = run(capsys, "coeffs", "--bath", *flags)
        assert (code, err) == (0, "")
        assert out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize(
        "flags, line",
        [
            ([], "bath: missing required value"),
            (["--bath", "dicke"], "N: missing required value"),
            (["--bath", "dicke", "--pe", "0.3", "--nbar", "1"], "N: missing required value"),
            (["--bath", "product", "--N", "3", "--k", "1"], "pe: missing required value"),
            (["--bath", "thermal-hec", "--N", "3", "--pe", "0.3"], "nbar: missing required value"),
            (["--bath", "dicke", "--N", "3", "--nbar", "1"], "k: missing required value"),
            (["--bath", "explicit", "--N", "3"], "file: missing required value"),
            (["--bath", "qutrit", "--N", "3"],
             "bath: must be one of ('product', 'thermal-hec', 'dicke', 'explicit'), got 'qutrit'"),
        ],
    )
    def test_missing_or_unknown_exit_2(self, capsys, flags, line):
        assert run(capsys, "coeffs", *flags) == (2, "", f"error: {line}\n")

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        for path in (tmp_path / "missing.csv", tmp_path):
            for command in ("coeffs", "classify"):
                result = run(capsys, command, "--bath", "explicit", "--file", str(path))
                assert_config_error(result, f"error: file: cannot read {path}: ")

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        # a bad byte in the header, in the first chunk the header's read
        # decodes, or past it, in the rows np.loadtxt reads
        path = tmp_path / "bad.csv"
        header = b"N=8,basis=excitation-sorted\n"
        rows = (",".join(["0"] * 256) + "\n").encode() * 255
        for data in (b"\xff=4\n", header + b"\xff\n", header + rows + b"\xff\n"):
            path.write_bytes(data)
            for command in ("coeffs", "classify"):
                result = run(capsys, command, "--bath", "explicit", "--file", str(path))
                line = f"error: file: cannot read {path}: not UTF-8 text (invalid start byte)\n"
                assert result == (2, "", line)

    def test_n_flag_checked_against_csv_header(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text(bath_to_csv(np.eye(4) / 4.0, 2))
        argv = ["--bath", "explicit", "--file", str(path)]
        for command in ("coeffs", "classify"):
            result = run(capsys, command, *argv, "--N", "3")
            assert result == (2, "", "error: N: flag value 3 conflicts with csv header N=2\n")
            assert run(capsys, command, *argv, "--N", "2") == run(capsys, command, *argv)
            assert run(capsys, command, *argv)[0] == 0


class TestConfigValues:
    def config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return ["--config", str(path)]

    def test_unparsable_value(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "bath = dicke\nN = 4\nk = abc\n")
        assert_config_error(run(capsys, "coeffs", *cfg), "k: cannot parse config value 'abc'")

    def test_value_outside_choices(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "engine = warp\nbath = dicke\nN = 4\nk = 1\nt_end = 1\n")
        assert_config_error(
            run(capsys, "evolve", *cfg),
            "engine: must be one of ('analytic', 'ode', 'collisions'), got 'warp'",
        )

    def test_missing_required_value(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "bath = thermal-hec\nN = 4\n")
        assert_config_error(run(capsys, "coeffs", *cfg), "nbar: missing required value")

    def test_hyphenated_keys(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "bath = dicke\nN = 4\nk = 1\nt-end = 0.5\nn-points = 3\n")
        code, out, _ = run(capsys, "evolve", *cfg)
        flags = run(capsys, "evolve", *DICKE_4_1, "--t-end", "0.5", "--n-points", "3")
        assert code == 0 and out.count("\n") == 4
        assert (code, out) == flags[:2]

    def test_flag_beats_typed_config_value(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "bath = dicke\nN = 4\nk = 1\ng = 0.1\n")
        code, out, _ = run(capsys, "coeffs", *cfg, "--g", "0.2")
        assert code == 0
        assert json.loads(out)["params"]["g"] == 0.2

    def test_unreadable_config(self, capsys, tmp_path):
        for path in (tmp_path / "missing.cfg", tmp_path):
            result = run(capsys, "coeffs", "--config", str(path), *DICKE_4_1)
            assert_config_error(result, f"config: cannot read {path}")

    def test_undecodable_config(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"N = 4\xff\n")
        result = run(capsys, "coeffs", "--config", str(path), "--bath", "dicke", "--k", "1")
        line = f"error: config: cannot read {path}: not UTF-8 text (invalid start byte)\n"
        assert result == (2, "", line)


#: Each subcommand's usage line, as the parser printed it before its options
#: were declared in one table (COLUMNS=80).
USAGE = {
    "coeffs": """\
usage: qollide coeffs [-h] [--config CONFIG] [--bath BATH] [--N N] [--pe PE]
                      [--nbar NBAR] [--k K] [--file FILE] [--g G] [--tau TAU]
                      [--p P] [--omega0 OMEGA0] [--out OUT]
""",
    "evolve": """\
usage: qollide evolve [-h] [--config CONFIG] [--bath BATH] [--N N] [--pe PE]
                      [--nbar NBAR] [--k K] [--file FILE] [--g G] [--tau TAU]
                      [--p P] [--omega0 OMEGA0] [--engine ENGINE]
                      [--t-end T_END] [--dt DT] [--n-points N_POINTS]
                      [--init-ee INIT_EE] [--init-eg-re INIT_EG_RE]
                      [--init-eg-im INIT_EG_IM] [--mode MODE]
                      [--scheme SCHEME] [--seed SEED]
                      [--trajectories TRAJECTORIES] [--out OUT]
""",
    "sweep": """\
usage: qollide sweep [-h] [--config CONFIG] [--family FAMILY] [--N N]
                     [--pe PE] [--nbar NBAR] [--krule KRULE] [--g G]
                     [--tau TAU] [--p P] [--omega0 OMEGA0] [--out OUT]
                     [--slopes-out SLOPES_OUT]
""",
    "classify": """\
usage: qollide classify [-h] [--config CONFIG] [--bath BATH] [--N N] [--pe PE]
                        [--nbar NBAR] [--k K] [--file FILE] [--out OUT]
""",
    "prepare": """\
usage: qollide prepare [-h] [--config CONFIG] [--N N] [--nbar NBAR]
                       [--gamma0 GAMMA0] [--t-end T_END] [--dt DT]
                       [--n-points N_POINTS] [--out-ladder OUT_LADDER]
                       [--out-state OUT_STATE]
""",
    "figures": """\
usage: qollide figures [-h] [--config CONFIG] [--out-dir OUT_DIR]
""",
}


class TestOptionTable:
    """Every option is declared once; flag and config values are read alike,
    and a parser failure is one ``error:`` line."""

    def help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", USAGE)
    def test_usage_line_unchanged(self, capsys, monkeypatch, command):
        usage = self.help_text(capsys, monkeypatch, command).split("\n\n")[0] + "\n"
        assert usage == USAGE[command]

    def test_shared_help_fits_every_subcommand(self, capsys, monkeypatch):
        sweep = " ".join(self.help_text(capsys, monkeypatch, "sweep").split())
        assert "--N N number of bath qubits; sweep takes a list, e.g. 4:64:4 or 4,8,12" in sweep
        for command in ("evolve", "prepare"):
            text = " ".join(self.help_text(capsys, monkeypatch, command).split())
            assert "--dt DT time step (evolve's ode and collisions engines, prepare)" in text

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["coeffs", "--bath", "dicke", "--N", "abc", "--k", "1"],
             "N: cannot parse flag value 'abc'"),
            (["evolve", *DICKE_4_1, "--t-end", "1", "--trajectories", "1e3"],
             "trajectories: cannot parse flag value '1e3'"),
            (["coeffs", *DICKE_4_1, "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["coeffs", *DICKE_4_1, "--k"], "argument --k: expected one argument"),
            ([], "the following arguments are required: command"),
            (["cooefs"], "argument command: invalid choice: 'cooefs' (choose from 'coeffs', "
             "'evolve', 'sweep', 'classify', 'prepare', 'figures')"),
        ],
        ids=["bad-int", "bad-count", "unknown-flag", "missing-value", "no-command", "bad-command"],
    )
    def test_parser_failure_is_one_line(self, capsys, argv, line):
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, rest",
        [
            (["sweep", "--family", "dicke", "--N", "4:8:4", "--kr", "quarter"], "--kr quarter"),
            (["sweep", "--family", "dicke", "--N", "4:8:4", "--k", "2"], "--k 2"),
            (["coeffs", *DICKE_4_1, "--ou", "x.json"], "--ou x.json"),
        ],
        ids=["sweep-krule-prefix", "sweep-k-is-not-krule", "coeffs-out-prefix"],
    )
    def test_flag_prefix_refused(self, capsys, tmp_path, monkeypatch, argv, rest):
        # a flag is spelled in full, as a config key is
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (2, "", f"error: unrecognized arguments: {rest}\n")
        assert list(tmp_path.iterdir()) == []

    def test_full_flags_read(self, capsys, tmp_path):
        sweep = ["sweep", "--family", "dicke", "--N", "4:8:4"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("krule = quarter\n")
        by_flag = run(capsys, *sweep, "--krule", "quarter")
        assert by_flag[0] == 0 and by_flag == run(capsys, *sweep, "--config", str(cfg))
        out = tmp_path / "x.json"
        assert run(capsys, "coeffs", *DICKE_4_1, "--out", str(out)) == (0, "", "")
        assert out.read_text() == run(capsys, "coeffs", *DICKE_4_1)[1]

    def test_malformed_flag_reported_in_read_order(self, capsys):
        # the bath kind is read before N, so its refusal comes first
        result = run(capsys, "coeffs", "--bath", "qutrit", "--N", "abc")
        assert_config_error(result, "error: bath: must be one of")

    @pytest.mark.parametrize("flag, value", [("k", "abc"), ("N", "4.0"), ("g", "0.1.2")])
    def test_flag_and_config_value_refused_alike(self, capsys, tmp_path, flag, value):
        base = {"bath": "dicke", "N": "4", "k": "1", flag: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in base.items()))
        from_flags = [arg for key, text in base.items() for arg in (f"--{key}", text)]
        flag_result = run(capsys, "coeffs", *from_flags)
        config_result = run(capsys, "coeffs", "--config", str(cfg))
        assert_config_error(flag_result, f"error: {flag}: cannot parse flag value {value!r}\n")
        assert_config_error(config_result, f"error: {flag}: cannot parse config value {value!r}\n")

    def test_config_typo_refused_and_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("engin = ode\nsed = 5\n")
        result = run(capsys, "evolve", "--config", str(cfg), *DICKE_4_1, "--t-end", "0.1")
        assert result == (2, "", "error: config: line 1: unknown key 'engin'\n")
        cfg.write_text("# a run\nbath = dicke\n t-ned = 1 \n")
        result = run(capsys, "coeffs", "--config", str(cfg))
        assert result == (2, "", "error: config: line 3: unknown key 't-ned'\n")

    def test_key_of_another_subcommand_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = dicke\nN = 4\nk = 1\nengine = ode\nt-end = 0.5\nout-dir = x\n")
        assert run(capsys, "coeffs", "--config", str(cfg)) == run(capsys, "coeffs", *DICKE_4_1)
        assert run(capsys, "coeffs", "--config", str(cfg))[0] == 0

    def test_negative_zero_flag_reads_as_zero(self, capsys):
        argv = ["evolve", *DICKE_4_1, "--t-end", "0.1", "--n-points", "3", "--init-eg-im"]
        code, out, err = run(capsys, *argv, "-0")
        assert (code, out, err) == (*run(capsys, *argv, "0")[:2], "")
        assert ",-0," not in out and code == 0


class TestStochasticWorkLimit:
    """A stochastic run whose draws and trajectories would take more than
    about a minute is refused before the collision map is built."""

    BASE = [
        "evolve", "--engine", "collisions", "--scheme", "stochastic",
        "--bath", "product", "--N", "3", "--pe", "0.2",
    ]

    @pytest.mark.parametrize(
        "flags, last, count",
        [
            (["--trajectories", "100000000000", "--t-end", "0.05", "--dt", "0.001"],
             50, 100000000000),
            (["--trajectories", "100000000000", "--t-end", "0", "--dt", "0.001"],
             0, 100000000000),
            (["--trajectories", "1", "--t-end", "1e9", "--dt", "1e-3", "--n-points", "3"],
             1000000000000, 1),
        ],
        ids=["draws", "no-draws", "long-grid"],
    )
    def test_refused_at_once(self, capsys, flags, last, count):
        start = time.perf_counter()
        result = run(capsys, *self.BASE, *flags)
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", (
            f"error: n_trajectories: {count} trajectories x ({last} draws + 720 per trajectory) "
            "exceed the limit of 4e+09 draws; reduce the trajectories or t_end/dt\n"
        ))


class TestPrepareStateIndependentOfGrid:
    def test_state_bytes_same_for_every_grid(self, capsys, tmp_path):
        # the state at t_end is a product of its own, whatever the grid;
        # rho_0 is 0.83721128788988878 to 17 digits (mpmath expm at 50
        # digits), 2.6e-16 from the bytes pinned here
        states = set()
        for n_points in ("0", "5", "7", "121"):
            state = tmp_path / f"state{n_points}.csv"
            code, _, err = run(
                capsys, "prepare", "--N", "2", "--nbar", "0.2", "--gamma0", "1",
                "--t-end", "6", "--dt", "0.05", "--n-points", n_points,
                "--out-ladder", str(tmp_path / "ladder.csv"), "--out-state", str(state),
            )
            assert (code, err) == (0, "")
            assert state.read_text().splitlines()[1].startswith("0.83721128788988852+0j,")
            states.add(state.read_bytes())
            # a recorded last step is that same state
            if n_points != "0":
                last = (tmp_path / "ladder.csv").read_text().splitlines()[-1]
                assert last.startswith("6,0.83721128788988852,")
        assert len(states) == 1


class TestArgumentVectors:
    """Generated argument vectors over every subcommand: odd numbers and
    text, unknown flags and config files with a mistyped key.  Every run
    exits 0, 2 or 3, a failure prints exactly one line, nothing raises (a
    numpy ``RuntimeWarning`` included), and no accepted run takes more than
    a few seconds."""

    #: Small accepted runs (``N <= 6`` wherever a ``2**N`` structure is built).
    BASES = [
        ["coeffs", "--bath", "dicke", "--N", "6", "--k", "2"],
        ["coeffs", "--bath", "thermal-hec", "--N", "40", "--nbar", "0.5"],
        ["evolve", "--bath", "product", "--N", "3", "--pe", "0.2", "--t-end", "0.5"],
        ["evolve", "--engine", "ode", "--bath", "dicke", "--N", "4", "--k", "1",
         "--t-end", "0.5", "--dt", "0.01", "--init-ee", "0.5", "--init-eg-re", "0.1"],
        ["evolve", "--engine", "collisions", "--mode", "second-order", "--bath", "dicke",
         "--N", "5", "--k", "2", "--t-end", "0.05", "--dt", "0.001", "--n-points", "5"],
        ["evolve", "--engine", "collisions", "--scheme", "stochastic", "--trajectories", "20",
         "--seed", "3", "--bath", "product", "--N", "3", "--pe", "0.2", "--t-end", "0.05",
         "--dt", "0.001", "--n-points", "5"],
        ["sweep", "--family", "dicke", "--krule", "quarter", "--N", "4:64:4"],
        ["sweep", "--family", "product", "--pe", "0.2", "--N", "2,4,8"],
        ["classify", "--bath", "thermal-hec", "--N", "3", "--nbar", "1"],
        ["prepare", "--N", "3", "--nbar", "0.2", "--gamma0", "1", "--t-end", "2", "--dt", "0.05",
         "--n-points", "5"],
        ["figures"],
    ]
    OUTPUTS = {
        "coeffs": ["--out", "out.json"],
        "evolve": ["--out", "out.csv"],
        "sweep": ["--out", "out.csv", "--slopes-out", "slopes.json"],
        "classify": ["--out", "out.json"],
        "prepare": ["--out-ladder", "ladder.csv", "--out-state", "state.csv"],
        "figures": ["--out-dir", "figures"],
    }
    #: The value options of each subcommand (its paths and config excluded).
    OPTIONS = {
        "coeffs": ["bath", "N", "pe", "nbar", "k", "g", "tau", "p", "omega0"],
        "evolve": ["bath", "N", "pe", "nbar", "k", "g", "tau", "p", "omega0", "engine",
                   "t-end", "dt", "n-points", "init-ee", "init-eg-re", "init-eg-im", "mode",
                   "scheme", "seed", "trajectories"],
        "sweep": ["family", "N", "pe", "nbar", "krule", "g", "tau", "p", "omega0"],
        "classify": ["bath", "N", "pe", "nbar", "k"],
        "prepare": ["N", "nbar", "gamma0", "t-end", "dt", "n-points"],
        "figures": [],
    }
    ODD_VALUES = [
        "-1", "0", "-0", "-0.0", "1e-300", "1e300", "100000000000", "9007199254740993",
        "1e400", "nan", "-nan", "inf", "-inf", "abc", "", "4.5", "0x10", "1:", "6",
        "1", "2", "0.5",
    ]
    UNKNOWN_FLAGS = [["--bogus"], ["--bogus", "1"], ["--t_end", "1"], ["-x"], ["--nn", "3"]]
    CONFIG_TYPOS = ["engin = ode", "sed = 5", "t_ned = 1", "N_ = 4", "out dir = x"]

    #: A base run and up to three edits of it.
    VECTORS = st.tuples(
        st.sampled_from(BASES),
        st.lists(
            st.one_of(
                st.tuples(st.just("value"), st.integers(0, 19), st.sampled_from(ODD_VALUES)),
                st.tuples(st.just("flag"), st.sampled_from(UNKNOWN_FLAGS)),
                st.tuples(st.just("typo"), st.sampled_from(CONFIG_TYPOS)),
            ),
            max_size=3,
        ),
    )

    @staticmethod
    def apply(base, edits):
        """``(argv, config lines, refusal expected)`` of ``base`` with
        ``edits`` applied: a value edit sets one of the command's options
        (the ``i``-th modulo their number), the other two add an unknown
        flag or a mistyped config key."""
        argv, config, refused = list(base), [], False
        options = TestArgumentVectors.OPTIONS[base[0]]
        for edit in edits:
            if edit[0] == "value" and options:
                flag = "--" + options[edit[1] % len(options)]
                if flag in argv:
                    argv[argv.index(flag) + 1] = edit[2]
                else:
                    argv += [flag, edit[2]]
            elif edit[0] == "flag":
                argv += edit[1]
                refused = True
            elif edit[0] == "typo":
                config.append(edit[1])
                refused = True
        return argv, config, refused

    def test_exit_codes_and_one_line_errors(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def timeout(signum, frame):
            raise AssertionError("accepted run did not finish in 5 s")

        @settings(
            max_examples=300, derandomize=True, database=None, deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(self.VECTORS)
        # a relaxation rate that overflows; closed forms past the float
        # range of t/t_q; an ode step that drives a population negative
        @example((["evolve", *_OVERFLOW, "--t-end", "1", "--n-points", "2"], []))
        @example((["evolve", *_OVERFLOW, "--t-end", "1", "--engine", "ode", "--dt", "0.5"], []))
        @example((["sweep", "--family", "product", *_OVERFLOW[2:]], []))
        @example((["evolve", "--bath", "dicke", "--N", "2", "--k", "1", "--t-end", "1e308",
                   "--n-points", "3"], []))
        @example((["evolve", "--bath", "dicke", "--N", "2", "--k", "1", "--t-end", "1e300",
                   "--p", "1e20", "--n-points", "2"], []))
        @example((["evolve", "--engine", "ode", "--bath", "dicke", "--N", "4", "--k", "1",
                   "--t-end", "1", "--dt", "0.5", "--p", "1e3"], []))
        def check(case):
            argv, config, refused = self.apply(*case)
            argv += self.OUTPUTS[argv[0]]
            if config:
                (tmp_path / "run.cfg").write_text("\n".join(config) + "\n")
                argv += ["--config", "run.cfg"]
            previous = signal.signal(signal.SIGALRM, timeout)
            signal.alarm(5)
            try:
                with warnings.catch_warnings():  # accuracy advisories are not errors
                    warnings.simplefilter("ignore", UserWarning)
                    code, out, err = run(capsys, *argv)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            assert code in (0, 2, 3), (argv, err)
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
                assert err.startswith("numeric error: " if code == 3 else "error: "), (argv, err)
                assert out == ""
            assert not refused or code == 2, (argv, config, err)
            engine = argv[argv.index("--engine") + 1] if "--engine" in argv else None
            if code == 0 and engine == "ode":
                # an accepted ode run has no population below the checked bound
                with open("out.csv", encoding="utf-8") as fh:
                    rows = [line.split(",") for line in fh.read().splitlines()[1:]]
                assert all(float(p) >= -1e-10 for row in rows for p in row[2:4]), argv

        check()
