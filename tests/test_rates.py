"""Finite-SNR Gaussian-signaling rate estimates and slope fits.

The oracle for every slope is the exact symbol-count DoF certified by the
noiseless decoder (point Q of the region).
"""

import numpy as np
import pytest

from doflab.regions import point_Q
from doflab.scheme import SchemeError, plan_two_user, rate_slope_estimate
from doflab.serialize import rate_curve_to_csv

SNR_WINDOW = [30.0, 40.0, 50.0, 60.0]


def test_rate_slopes_432_within_five_percent():
    spec = plan_two_user(4, 3, 2)
    target = point_Q(4, 3, 2)  # (12/5, 4/5)
    curve = rate_slope_estimate(spec, seed=1, snr_db_list=SNR_WINDOW)
    for u in (0, 1):
        assert curve.slopes[u] == pytest.approx(float(target[u]), rel=0.05)


def test_rate_sum_slope_211():
    spec = plan_two_user(2, 1, 1)
    curve = rate_slope_estimate(spec, seed=1, snr_db_list=SNR_WINDOW)
    assert sum(curve.slopes) == pytest.approx(4.0 / 3.0, rel=0.05)


def test_rates_vanish_at_zero_power():
    spec = plan_two_user(4, 3, 2)
    curve = rate_slope_estimate(spec, seed=2, snr_db_list=[-100.0, -95.0, -90.0])
    assert float(np.max(curve.rates)) < 1e-6


def test_rates_increase_with_snr():
    spec = plan_two_user(4, 3, 2)
    curve = rate_slope_estimate(spec, seed=2, snr_db_list=SNR_WINDOW)
    assert np.all(np.diff(curve.rates[:, 0]) > 0)
    assert np.all(np.diff(curve.rates[:, 1]) > 0)


def test_slope_non_decreasing_in_window_upper_end():
    spec = plan_two_user(4, 3, 2)
    low = rate_slope_estimate(spec, seed=2, snr_db_list=[30.0, 40.0, 50.0])
    high = rate_slope_estimate(spec, seed=2, snr_db_list=[30.0, 40.0, 50.0, 60.0])
    assert high.slopes[0] >= low.slopes[0] - 1e-9
    assert high.slopes[1] >= low.slopes[1] - 1e-9


def test_rate_needs_three_points():
    spec = plan_two_user(4, 3, 2)
    for snr_db in (
        [30.0, 60.0],
        [30.0, 30.0, 30.0],  # one distinct point: the fit is rank deficient
        [30.0, 40.0, float("nan")],
        [30.0, 40.0, 50.0, float("inf")],
    ):
        with pytest.raises(SchemeError, match="3 distinct finite SNR points"):
            rate_slope_estimate(spec, seed=0, snr_db_list=snr_db)
    for snr_db in (
        [30.0, 40.0, 4000.0],  # the linear power overflows a float
        [30.0, 40.0, 3079.0],  # the power is finite, the rates are not
    ):
        with pytest.raises(SchemeError, match="overflows the rate computation"):
            rate_slope_estimate(spec, seed=0, snr_db_list=snr_db)


def test_rate_case_a_time_division():
    spec = plan_two_user(2, 3, 2)  # even split, single-user slots
    curve = rate_slope_estimate(spec, seed=4, snr_db_list=SNR_WINDOW)
    assert curve.slopes[0] == pytest.approx(1.0, rel=0.05)
    assert curve.slopes[1] == pytest.approx(1.0, rel=0.05)


def test_rate_deterministic_given_seed():
    spec = plan_two_user(3, 2, 1)
    a = rate_slope_estimate(spec, seed=9, snr_db_list=SNR_WINDOW)
    b = rate_slope_estimate(spec, seed=9, snr_db_list=SNR_WINDOW)
    assert np.array_equal(a.rates, b.rates)
    assert a.slopes == b.slopes


def test_rate_curve_csv():
    spec = plan_two_user(2, 1, 1)
    curve = rate_slope_estimate(spec, seed=3, snr_db_list=SNR_WINDOW)
    text = rate_curve_to_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "snr_db,rate_user1,rate_user2"
    assert len(lines) == 5
    assert lines[1].startswith("30,")
