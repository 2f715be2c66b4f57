"""Three-phase alignment simulator: planning, routing, decoding, accounting."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from doflab import scheme
from doflab.exactgeom import contains
from doflab.regions import DominantFace, point_Q, two_user_region
from doflab.scheme import (
    SchemeError,
    SingularChannelError,
    decode,
    draw_symbols,
    generate_channels,
    plan_two_user,
    run_phases,
    simulate_single_user,
    simulate_trials,
    validate_routing,
)
from doflab.serialize import report_document, transcript_document

# every three-phase setup in the acceptance scope
SCHEME_CONFIGS = [
    (m, n1, n2)
    for n1 in range(1, 5)
    for n2 in range(1, n1 + 1)
    for m in range(n1 + 1, 9)
]


def _run(m, n1, n2, seed=5):
    spec = plan_two_user(m, n1, n2)
    channels = generate_channels(spec, seed)
    symbols = draw_symbols(spec, seed + 1)
    return spec, run_phases(spec, channels, symbols)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_case_b_432():
    spec = plan_two_user(4, 3, 2)
    assert spec.case == "B"
    assert spec.effective_m == 4
    assert spec.phase_lengths == (6, 2, 2)
    assert spec.symbols_per_slot == (4, 4, 0)
    assert spec.total_slots == 10
    assert spec.symbol_counts == (24, 8)


def test_plan_case_c_321():
    spec = plan_two_user(3, 2, 1)
    assert spec.case == "C"
    assert spec.effective_m == 3
    assert spec.phase_lengths == (4, 1, 2)
    assert spec.symbol_counts == (12, 3)


def test_plan_case_c_ignores_extra_antennas():
    # only N1+N2 transmit antennas are used once M passes N1+N2
    for m in (5, 6, 8):
        spec = plan_two_user(m, 3, 2)
        assert spec.case == "C"
        assert spec.effective_m == 5
        assert spec.phase_lengths == (9, 4, 6)


def test_plan_case_a():
    spec = plan_two_user(1, 3, 2)
    assert spec.case == "A"
    assert spec.phase_lengths == (1, 1, 0)
    assert spec.symbols_per_slot == (1, 1, 0)
    assert spec.lc_routing == ()


def test_plan_case_a_weights():
    spec = plan_two_user(2, 3, 2, time_weights=(F(1, 3), F(2, 3)))
    assert spec.phase_lengths == (1, 2, 0)
    assert spec.target_dof() == (F(2, 3), F(4, 3))
    with pytest.raises(SchemeError):
        plan_two_user(2, 3, 2, time_weights=(F(1, 2), F(1, 3)))
    with pytest.raises(SchemeError):
        plan_two_user(4, 3, 2, time_weights=(F(1), F(0)))


def test_plan_rejects_bad_antennas():
    with pytest.raises(SchemeError):
        plan_two_user(4, 2, 3)
    with pytest.raises(SchemeError):
        plan_two_user(0, 1, 1)
    with pytest.raises(SchemeError):
        plan_two_user(4, 3, 0)  # single-user setups are out of plan scope


@pytest.mark.parametrize("m,n1,n2", SCHEME_CONFIGS)
def test_routing_structure(m, n1, n2):
    spec = plan_two_user(m, n1, n2)
    validate_routing(spec)
    t1, t2, t3 = spec.phase_lengths
    e = spec.effective_m
    if spec.case == "B":
        assert (t1, t2, t3) == (n1 * (m - n2), n2 * (m - n1), (m - n1) * (m - n2))
        assert spec.total_slots == n1 * (m - n2) + m * (m - n1)
    else:
        assert e == n1 + n2
        assert (t1, t2, t3) == (n1 * n1, n2 * n2, n1 * n2)
    # conservation: T3*N1 forwarded = T1*(E-N1) owed, same for user 2
    assert t3 * n1 == t1 * spec.needed1
    assert t3 * n2 == t2 * spec.needed2
    for slot in spec.lc_routing:
        assert len(slot.user1_lcs) == n1
        assert len(slot.user2_lcs) == n2


def test_routing_is_lexicographic():
    spec = plan_two_user(4, 3, 2)
    assert spec.lc_routing[0].user1_lcs == ((0, 0), (1, 0), (2, 0))
    assert spec.lc_routing[1].user1_lcs == ((3, 0), (4, 0), (5, 0))
    assert spec.lc_routing[0].user2_lcs == ((6, 0), (6, 1))
    assert spec.lc_routing[1].user2_lcs == ((7, 0), (7, 1))


# ---------------------------------------------------------------------------
# channels and symbols
# ---------------------------------------------------------------------------

def test_channels_deterministic_per_seed():
    spec = plan_two_user(4, 3, 2)
    a = generate_channels(spec, 123)
    b = generate_channels(spec, 123)
    c = generate_channels(spec, 124)
    assert np.array_equal(a.h1, b.h1) and np.array_equal(a.h2, b.h2)
    assert not np.array_equal(a.h1, c.h1)


def test_channel_entries_unit_variance():
    spec = plan_two_user(4, 3, 2)
    draws = np.concatenate(
        [generate_channels(spec, seed).h1.ravel() for seed in range(900)]
    )
    assert draws.size > 100000
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02


def test_symbol_shapes_and_power():
    spec = plan_two_user(4, 3, 2)
    u1, u2 = draw_symbols(spec, 3, power=2.0)
    assert u1.shape == (4, 6) and u2.shape == (4, 2)
    assert abs(np.mean(np.abs(u1) ** 2) - 2.0) < 0.5


# ---------------------------------------------------------------------------
# run_phases
# ---------------------------------------------------------------------------

def test_transmit_structure_432():
    spec, tr = _run(4, 3, 2)
    # phase-1/2 slots put one symbol on each of the 4 antennas
    assert np.array_equal(tr.x[0], tr.u1[:, 0])
    assert np.array_equal(tr.x[6], tr.u2[:, 0])
    # slot 9 of the worked example: entries 1,2 carry user-1 LCs, entry 3 a
    # sum of one user-1 and one user-2 LC, entry 4 a user-2 LC
    x9 = tr.x[8]
    slot = spec.lc_routing[0]
    assert x9[0] == tr.lc_user1[slot.user1_lcs[0]]
    assert x9[1] == tr.lc_user1[slot.user1_lcs[1]]
    assert x9[2] == tr.lc_user1[slot.user1_lcs[2]] + tr.lc_user2[slot.user2_lcs[0][0] - 6, slot.user2_lcs[0][1]]
    assert x9[3] == tr.lc_user2[slot.user2_lcs[1][0] - 6, slot.user2_lcs[1][1]]


def test_transmit_case_c_has_no_overlap():
    spec, tr = _run(3, 2, 1)
    t1, t2, t3 = spec.phase_lengths
    for k in range(t3):
        x = tr.x[t1 + t2 + k]
        # positions 0..N1-1 and N1..N1+N2-1 are disjoint at M = N1+N2
        slot = spec.lc_routing[k]
        for j, lc in enumerate(slot.user1_lcs):
            assert x[j] == tr.lc_user1[lc]
        for j, lc in enumerate(slot.user2_lcs):
            assert x[spec.effective_m - spec.N2 + j] == tr.lc_user2[lc[0] - t1, lc[1]]


def test_overheard_lcs_match_channel_rows_exactly():
    spec, tr = _run(4, 3, 2)
    for t in range(6):
        expected = tr.channels.h2[t][:1, :4] @ tr.u1[:, t]
        assert np.array_equal(tr.lc_user1[t], expected)
    for t in range(2):
        expected = tr.channels.h1[6 + t][:2, :4] @ tr.u2[:, t]
        assert np.array_equal(tr.lc_user2[t], expected)


def test_run_phases_shape_mismatch():
    spec = plan_two_user(4, 3, 2)
    channels = generate_channels(spec, 0)
    u1, u2 = draw_symbols(spec, 0)
    with pytest.raises(SchemeError):
        run_phases(spec, channels, (u1[:, :-1], u2))
    other = generate_channels(plan_two_user(3, 2, 1), 0)
    with pytest.raises(SchemeError):
        run_phases(spec, other, (u1, u2))


def test_transcript_reproducible():
    _, tr_a = _run(4, 3, 2, seed=77)
    _, tr_b = _run(4, 3, 2, seed=77)
    assert np.array_equal(tr_a.x, tr_b.x)
    assert np.array_equal(tr_a.y1, tr_b.y1)
    assert np.array_equal(tr_a.y2, tr_b.y2)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_432_counts_and_residual():
    spec, tr = _run(4, 3, 2)
    report = decode(tr)
    assert (report.symbols_user1, report.symbols_user2) == (24, 8)
    assert report.residual_user1 < 1e-8
    assert report.residual_user2 < 1e-8
    assert report.spec.target_dof() == (F(12, 5), F(4, 5))


def test_decode_321_counts():
    spec, tr = _run(3, 2, 1)
    report = decode(tr)
    assert (report.symbols_user1, report.symbols_user2) == (12, 3)
    assert report.spec.target_dof() == (F(12, 7), F(3, 7))


def test_decode_singular_channel_reports_slot():
    spec = plan_two_user(4, 3, 2)
    channels = generate_channels(spec, 9)
    channels.h1[8] = 0.0  # kill the first alignment slot for user 1
    tr = run_phases(spec, channels, draw_symbols(spec, 9))
    with pytest.raises(SingularChannelError) as err:
        decode(tr)
    assert err.value.slot == 8


def test_decode_with_noise_still_solves():
    spec = plan_two_user(4, 3, 2)
    channels = generate_channels(spec, 11)
    tr = run_phases(spec, channels, draw_symbols(spec, 12), noise_std=1e-6, noise_seed=13)
    report = decode(tr)
    assert 0 < report.residual_user1 < 1e-3


@pytest.mark.parametrize("m,n1,n2", SCHEME_CONFIGS)
def test_achieved_dof_equals_point_q(m, n1, n2):
    spec, tr = _run(m, n1, n2, seed=101)
    report = decode(tr)
    achieved = report.spec.target_dof()
    assert (report.symbols_user1, report.symbols_user2) == spec.symbol_counts
    corner = point_Q(m, n1, n2)
    assert achieved == corner
    region = two_user_region(m, n1, n2)
    assert contains(region, achieved)
    assert region.halfspaces[0].active(achieved)
    assert region.halfspaces[1].active(achieved)
    assert report.residual_user1 < 1e-8 and report.residual_user2 < 1e-8


def test_case_a_decode_on_dominant_face():
    spec = plan_two_user(2, 3, 2, time_weights=(F(1), F(0)))
    channels = generate_channels(spec, 21)
    report = decode(run_phases(spec, channels, draw_symbols(spec, 22)))
    assert report.spec.target_dof() == (F(2), F(0))
    face = point_Q(2, 3, 2)
    assert isinstance(face, DominantFace)
    assert face.line.active((F(2), F(0)))


# ---------------------------------------------------------------------------
# Monte Carlo wrapper
# ---------------------------------------------------------------------------

def test_simulate_trials_basics():
    summary = simulate_trials(4, 3, 2, trials=25, seed=7)
    assert summary.trials == 25
    assert summary.failures == ()
    assert summary.achieved == (F(12, 5), F(4, 5))
    assert summary.matches_corner
    assert summary.max_residual < 1e-8
    assert summary.max_condition < 1e8


def test_simulate_trials_residual_above_tolerance_misses_corner(monkeypatch):
    real = scheme.run_phases

    def noisy(spec, channels, symbols):
        return real(spec, channels, symbols, noise_std=1e-3, noise_seed=0)

    monkeypatch.setattr(scheme, "run_phases", noisy)
    summary = simulate_trials(4, 3, 2, trials=3, seed=7)
    assert summary.failures == ()
    assert summary.max_residual >= scheme.RESIDUAL_TOL
    assert summary.matches_corner is False


@pytest.mark.parametrize("m,n1,n2,trials,time_weights,zeroed,blocks", [
    (3, 3, 3, 12, None, {}, 1),  # case A
    (4, 3, 2, 30, None, {}, 1),  # case B
    (3, 2, 1, 20, None, {}, 1),  # case C
    (8, 4, 4, 50, None, {}, 3),  # 21 trials fit one block
    (2, 3, 2, 10, (1, 0), {}, 1),  # empty phases 2 and 3
    # trial -> (channel, slot) zeroed: a phase-3, a phase-1 and a phase-2 slot
    (4, 3, 2, 12, None, {1: ("h1", 8), 4: ("h2", 0), 7: ("h1", 6)}, 1),
])
def test_batched_trials_match_per_trial_decode(monkeypatch, m, n1, n2, trials, time_weights,
                                               zeroed, blocks):
    real_channels, real_run = scheme.generate_channels, scheme.run_phases
    drawn, runs = [], []

    def channels(spec, seed):
        ch = real_channels(spec, seed)
        if len(drawn) in zeroed:
            name, slot = zeroed[len(drawn)]
            getattr(ch, name)[slot] = 0.0
        drawn.append(seed)
        return ch

    def run(spec, ch, symbols):
        runs.append(ch.h1.shape[0])
        return real_run(spec, ch, symbols)

    monkeypatch.setattr(scheme, "generate_channels", channels)
    monkeypatch.setattr(scheme, "run_phases", run)
    summary = simulate_trials(m, n1, n2, trials, seed=11, time_weights=time_weights)
    assert len(runs) == blocks and sum(runs) == trials

    # reference: the seeds simulate_trials spawns, one trial at a time
    drawn.clear()
    spec = plan_two_user(m, n1, n2, time_weights=time_weights)
    failures, solves, ill, max_cond, max_res = [], 0, 0, 0.0, 0.0
    for i, child in enumerate(np.random.SeedSequence(11).spawn(trials)):
        ch_seed, sym_seed = child.spawn(2)
        transcript = real_run(spec, channels(spec, ch_seed), draw_symbols(spec, sym_seed))
        try:
            report = decode(transcript)
        except SingularChannelError as err:
            failures.append((i, err.slot, err.cond))
            continue
        solves += report.solves
        ill += report.ill_conditioned
        max_cond = max(max_cond, report.max_condition)
        max_res = max(max_res, report.residual_user1, report.residual_user2)
    assert [f[:2] for f in failures] == [(i, slot) for i, (_, slot) in sorted(zeroed.items())]
    assert summary.failures == tuple(failures)
    assert (summary.solves, summary.ill_conditioned) == (solves, ill)
    assert summary.max_condition == max_cond
    assert summary.max_residual == max_res


def test_simulate_trials_reproducible():
    a = simulate_trials(3, 2, 1, trials=5, seed=40)
    b = simulate_trials(3, 2, 1, trials=5, seed=40)
    assert a.achieved == b.achieved
    assert a.max_residual == b.max_residual
    assert a.max_condition == b.max_condition


def test_simulate_trials_case_c_532():
    summary = simulate_trials(5, 3, 2, trials=25, seed=3)
    assert summary.achieved == (F(45, 19), F(20, 19))
    assert summary.failures == ()


def test_simulate_trials_case_a_face():
    summary = simulate_trials(2, 3, 2, trials=5, seed=1, time_weights=(F(1), F(0)))
    assert summary.achieved == (F(2), F(0))
    assert summary.matches_corner


def test_simulate_trials_validation():
    with pytest.raises(SchemeError):
        simulate_trials(4, 3, 2, trials=0, seed=0)


def test_every_config_decodes_cleanly_over_100_seeds():
    # noiseless residual < 1e-8 on every in-scope setup; inverted matrices
    # are well conditioned (< 1e8) with empirical probability >= 0.99
    solves = 0
    ill = 0
    for m, n1, n2 in SCHEME_CONFIGS:
        summary = simulate_trials(m, n1, n2, trials=100, seed=m * 100 + n1 * 10 + n2)
        assert summary.failures == ()
        assert summary.max_residual < 1e-8, (m, n1, n2)
        solves += summary.solves
        ill += summary.ill_conditioned
    assert ill <= 0.01 * solves


def test_simulate_single_user():
    summary = simulate_single_user(3, 2, trials=10, seed=5)
    assert summary.achieved == (2, 0)
    assert summary.max_residual < 1e-8
    assert summary.failures == ()


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def test_transcript_document_shapes():
    spec, tr = _run(4, 3, 2)
    doc = transcript_document(tr)
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["config"] == {"M": 4, "N1": 3, "N2": 2, "case": "B"}
    assert len(parsed["transmitted"]) == 10
    assert len(parsed["transmitted"][0]) == 4
    entry = parsed["transmitted"][0][0]
    assert len(entry) == 2  # [re, im]
    assert entry[0] == pytest.approx(tr.x[0, 0].real)


def test_report_document():
    spec, tr = _run(3, 2, 1)
    doc = report_document(decode(tr))
    assert doc["achieved_dof"] == ["12/7", "3/7"]
    assert doc["symbols_user1"] == 12
