"""The exact ladder of ``ladder_history``: oracles for the spectral solution,
the three properties its rounding must keep, and regressions at the
extremes of its rates and times."""

import math

import numpy as np
import pytest

from qollide import NumericError, ladder_history
from qollide import dynamics
from qollide.baths import thermal_hec_weights
from qollide.dynamics import MIN_POPULATION, TOL_DRIFT

from test_dynamics import _ladder_generator_oracle

#: The grid of the long-time oracle: every N with every n_bar.
LIMIT_N = (1, 2, 8, 64, 1024)
LIMIT_N_BAR = (0.0, 0.1, 1.0, 1e9)


def _eig_oracle(N, n_bar, gamma0, times):
    """Populations from the ground state by ``np.linalg.eig`` of the
    non-symmetric rate matrix, one row per time."""
    lam, vecs = np.linalg.eig(_ladder_generator_oracle(N, n_bar, gamma0))
    coeffs = np.linalg.solve(vecs, np.eye(N + 1)[0])
    return np.real(np.exp(np.multiply.outer(times, lam)) * coeffs @ vecs.T)


class TestOracles:
    @pytest.mark.parametrize("N", LIMIT_N)
    @pytest.mark.parametrize("n_bar", LIMIT_N_BAR)
    def test_thermal_weights_at_long_times(self, N, n_bar):
        # every mode but the stationary one has decayed past the float range
        _, history, final = ladder_history(N, n_bar, 1.0, 1e300, 1e299, n_records=2)
        want = thermal_hec_weights(N, n_bar)
        assert np.max(np.abs(final - want)) <= 1e-14
        assert final.tobytes() == history[-1].tobytes()

    @pytest.mark.parametrize("N", [1, 2, 5, 12])
    @pytest.mark.parametrize("n_bar", [0.0, 0.3, 1.0, 4.0])
    @pytest.mark.parametrize("gamma0", [0.37, 1.0])
    def test_matches_eig_of_the_rate_matrix(self, N, n_bar, gamma0):
        times, history, final = ladder_history(N, n_bar, gamma0, 0.5, 0.01, n_records=11)
        want = _eig_oracle(N, n_bar, gamma0, np.append(times, 0.5))
        np.testing.assert_allclose(history, want[:-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, want[-1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 5, 12, 200])
    @pytest.mark.parametrize("n_bar", [0.0, 1e-3, 0.7, 30.0])
    def test_normalized_and_nonnegative_at_every_record(self, N, n_bar):
        _, history, final = ladder_history(N, n_bar, 1.0, 2.0, 0.002)
        rows = np.vstack((history, final))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-13
        assert rows.min() >= MIN_POPULATION


class TestRoundingKept:
    """Three properties the product ``Q diag(exp(lam t)) Q^T`` loses to
    rounding, each written into the solution."""

    @pytest.mark.parametrize("N", range(1, 41))
    @pytest.mark.parametrize("n_bar", [0.2, 1.0, 7.0])
    def test_zero_time_row_exact(self, N, n_bar):
        ground = np.eye(1, N + 1)[0]
        _, history, _ = ladder_history(N, n_bar, 1.0, 1.0, 0.5, n_records=3)
        assert history[0].tobytes() == ground.tobytes()
        _, history, final = ladder_history(N, n_bar, 1.0, 0.0, 0.5)
        assert history[0].tobytes() == final.tobytes() == ground.tobytes()

    def test_final_bytes_independent_of_the_grid(self):
        # early enough that the fast modes still show: inside one product
        # with the records, the final state took 3 byte strings here
        finals = set()
        for n_records in (None, 0, 1, 2, 3, 7, 101, 999):
            _, history, final = ladder_history(300, 0.7, 1.0, 0.05, 0.00005, n_records)
            finals.add(final.tobytes())
            if n_records is None or n_records >= 2:  # the last step is recorded
                assert history[-1].tobytes() == final.tobytes()
        assert len(finals) == 1

    @pytest.mark.parametrize(
        "N, n_bar, gamma0",
        [(3, 0.2, 1e300), (1024, 1e300, 1.0), (1024, 1.0, 1.0), (64, 1e300, 1e300)],
    )
    def test_stationary_mode_does_not_decay(self, N, n_bar, gamma0):
        # a stationary eigenvalue rounded below 0 decays the steady state at
        # a huge time; rounded above 0, it overflows
        _, _, final = ladder_history(N, n_bar, gamma0, 1e300, 1e299, n_records=0)
        assert np.max(np.abs(final - thermal_hec_weights(N, n_bar))) <= 1e-14


class TestExtremes:
    """Finite, normalized rows at the extremes of rates and times, with no
    numpy warning (the suite turns a ``RuntimeWarning`` into an error)."""

    def test_stiff_grid_at_the_limit(self):
        # the RK4 ladder overflowed its sum here, with a warning, before it
        # refused the run
        times, history, final = ladder_history(1024, 1.0, 1.0, 0.01, 3e-6, n_records=201)
        assert len(times) == 201 and np.all(np.isfinite(history))
        assert np.max(np.abs(history.sum(axis=1) - 1.0)) <= TOL_DRIFT
        assert history.min() >= MIN_POPULATION and final.tobytes() == history[-1].tobytes()

    def test_huge_n_bar_is_uniform(self):
        _, _, final = ladder_history(1024, 1e300, 1.0, 1.0, 0.1, n_records=0)
        assert np.max(np.abs(final - 1.0 / 1025)) <= 1e-14

    def test_huge_rate_is_thermal_at_once(self):
        # r = n_bar/(n_bar+1) = 1/6: every record after t = 0 is the steady state
        times, history, final = ladder_history(3, 0.2, 1e300, 2.0, 0.05, n_records=5)
        want = np.array([1.0, 1 / 6, 1 / 36, 1 / 216]) / (1 + 1 / 6 + 1 / 36 + 1 / 216)
        assert times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert history[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        np.testing.assert_allclose(history[1:], np.tile(want, (4, 1)), rtol=0, atol=1e-15)
        assert final.tobytes() == history[-1].tobytes()

    @pytest.mark.parametrize("N", [1, 12, 1024])
    def test_no_absorption_stays_in_the_ground_state(self, N):
        _, history, final = ladder_history(N, 0.0, 1.0, 3.0, 0.5)
        ground = np.eye(1, N + 1)[0]
        assert all(row.tobytes() == ground.tobytes() for row in (*history, final))

    def test_negativity_text_names_no_step_size(self, monkeypatch):
        # dt sets no accuracy, so the refusal asks for no smaller one
        monkeypatch.setattr(dynamics, "MIN_POPULATION", math.inf)
        with pytest.raises(NumericError) as info:
            ladder_history(2, 1.0, 1.0, 1.0, 0.5)
        assert str(info.value) == "ladder integration: population negativity 0.000e+00 at step 0"
