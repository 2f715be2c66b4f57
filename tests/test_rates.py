"""Finite-SNR Gaussian-signaling rate estimates and slope fits.

The oracle for every slope is the exact symbol-count DoF certified by the
noiseless decoder (point Q of the region).  The grouped rate model is
also checked against the same model built as one dense matrix per user.
"""

import numpy as np
import pytest

from doflab.regions import point_Q
from doflab.scheme import SchemeError, generate_channels, plan_two_user, rate_slope_estimate

SNR_WINDOW = [30.0, 40.0, 50.0, 60.0]

# every two-user plan with M <= 12 and N2 <= N1 <= 6 (all within
# MAX_GRAM_COLUMNS), plus the time division that gives user 1 all the air time
DENSE_PLANS = [
    plan_two_user(m, n1, n2, time_weights=weights)
    for n1 in range(1, 7)
    for n2 in range(1, n1 + 1)
    for m in range(1, 13)
    for weights in ([None, (1, 0)] if m <= n1 else [None])
]


def _dense_block_diagonal(blocks, rows, cols):
    g = np.zeros((len(blocks) * rows, len(blocks) * cols), dtype=complex)
    for k, block in enumerate(blocks):
        g[k * rows : (k + 1) * rows, k * cols : (k + 1) * cols] = block
    return g


def _dense_rate_curve(spec, seed, snr_db):
    """The rate model as one dense matrix per user, G = [blockdiag(direct); whitened].

    Phase 3 forwards user i's LCs N_i per slot in (source slot, row) order;
    each phase-3 slot's rows are whitened by the Cholesky factor of
    I + S S^H / E, S the channel under the other user's LCs.
    """
    channels = generate_channels(spec, seed)
    hs = (channels.h1, channels.h2)
    t1, t2, t3 = spec.phase_lengths
    e = spec.effective_m
    ns, needed = (spec.N1, spec.N2), (spec.needed1, spec.needed2)
    own, lo = (slice(0, t1), slice(t1, t1 + t2)), (0, e - spec.N2)
    eigs, powers = [], []
    for i in (0, 1):
        j, n, s = 1 - i, ns[i], spec.symbols_per_slot[i]
        lcmap = _dense_block_diagonal(hs[j][own[i], : needed[i], :s], needed[i], s)
        rows = [_dense_block_diagonal(hs[i][own[i], :, :s], n, s)]
        for k, h in enumerate(hs[i][t1 + t2 :]):
            side = h[:, lo[j] : lo[j] + ns[j]] / np.sqrt(e)
            chol = np.linalg.cholesky(np.eye(n) + side @ side.conj().T)
            g3 = h[:, lo[i] : lo[i] + n] / np.sqrt(e) @ lcmap[k * n : (k + 1) * n]
            rows.append(np.linalg.solve(chol, g3))
        g = np.concatenate(rows)
        eigs.append(np.maximum(np.linalg.eigvalsh(g.conj().T @ g), 0.0))
        powers.append(1.0 / (s if spec.case == "A" else spec.N1 + spec.N2))
    rates = np.array([[np.sum(np.log2(1.0 + 10.0 ** (snr / 10.0) * p * eig)) / spec.total_slots
                       for p, eig in zip(powers, eigs)] for snr in snr_db])
    log2p = np.array(snr_db) / 10.0 * np.log2(10.0)
    return rates, [np.polyfit(log2p, rates[:, u], 1)[0] for u in (0, 1)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_rate_model_matches_dense_model(seed):
    snr_db = [20.0, 30.0, 40.0, 50.0]
    for spec in DENSE_PLANS:
        curve = rate_slope_estimate(spec, seed, snr_db)
        rates, slopes = _dense_rate_curve(spec, seed, snr_db)
        where = "M=%d N=%d,%d %s %r" % (spec.M, spec.N1, spec.N2, spec.case, spec.phase_lengths)
        np.testing.assert_allclose(curve.rates, rates, rtol=1e-9, atol=0, err_msg=where)
        np.testing.assert_allclose(curve.slopes, slopes, rtol=1e-9, atol=0, err_msg=where)


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
