"""Three-phase alignment simulator: planning, routing, decoding, accounting."""

import math
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import lu

from doflab import _seeds, scheme
from doflab.exactgeom import contains
from doflab.regions import AntennaConfig, DominantFace, point_Q, two_user_region
from doflab.scheme import (
    SchemeError,
    SingularChannelError,
    decode,
    draw_symbols,
    generate_channels,
    plan_two_user,
    run_phases,
    simulate_runs,
    simulate_single_user,
    simulate_trials,
)

# every three-phase setup in the acceptance scope
SCHEME_CONFIGS = [
    (m, n1, n2)
    for n1 in range(1, 5)
    for n2 in range(1, n1 + 1)
    for m in range(n1 + 1, 9)
]
# the simulate_trials setups of the benchmark's montecarlo workload, with their trial counts
MONTECARLO_SETUPS = [
    (3, 3, 3, 100), (6, 6, 6, 100), (2, 1, 1, 100), (3, 2, 2, 70), (3, 2, 1, 70), (4, 2, 2, 60),
    (5, 3, 3, 65), (4, 3, 2, 90), (5, 4, 2, 80), (6, 3, 3, 57), (7, 4, 3, 60), (8, 4, 4, 65),
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
    assert spec.needed1 == spec.needed2 == 0  # nothing is overheard, nothing forwarded


def test_plan_case_a_weights():
    spec = plan_two_user(2, 3, 2, time_weights=(F(1, 3), F(2, 3)))
    assert spec.phase_lengths == (1, 2, 0)
    assert spec.target_dof() == (F(2, 3), F(4, 3))
    with pytest.raises(SchemeError):
        plan_two_user(2, 3, 2, time_weights=(F(1, 2), F(1, 3)))
    with pytest.raises(SchemeError):
        plan_two_user(4, 3, 2, time_weights=(F(1), F(0)))


@pytest.mark.parametrize("weights", ["10", (1,), (1, 0, 0)])
def test_plan_case_a_refuses_weights_that_are_not_a_pair(weights):
    with pytest.raises(SchemeError, match=re.escape(repr(weights))):
        plan_two_user(2, 3, 2, time_weights=weights)


def test_plan_rejects_bad_antennas():
    with pytest.raises(SchemeError):
        plan_two_user(4, 2, 3)
    with pytest.raises(SchemeError):
        plan_two_user(0, 1, 1)
    with pytest.raises(SchemeError):
        plan_two_user(4, 3, 0)  # single-user setups are out of plan scope


@pytest.mark.parametrize("build, value", [
    (lambda: AntennaConfig(4, (2.5, 1)), "2.5"),
    (lambda: AntennaConfig(4.5, (2, 1)), "4.5"),
    (lambda: AntennaConfig(F(4), (2, 1)), "Fraction(4, 1)"),
    (lambda: plan_two_user(4.5, 2, 1), "4.5"),
    (lambda: plan_two_user(4, 2, 1.0), "1.0"),
], ids=["config-N", "config-M", "config-fraction-M", "plan-M", "plan-N2"])
def test_non_integral_antenna_counts_are_refused(build, value):
    with pytest.raises(ValueError, match=re.escape(value)):
        build()
    # numpy's integers are integers, kept as ints so that they serialize
    config = AntennaConfig(np.int64(4), (np.int64(2), 1))
    spec = plan_two_user(np.int64(4), np.int64(2), np.int64(1))
    assert (config.M, config.N, spec.M, spec.N1, spec.N2, spec.phase_lengths) == (4, (2, 1), 4, 2, 1, (4, 1, 2))
    assert {type(x) for x in (config.M, *config.N, spec.M, spec.N1, spec.N2)} == {int}


@pytest.mark.parametrize("m,n1,n2", SCHEME_CONFIGS)
def test_routing_structure(m, n1, n2):
    spec = plan_two_user(m, n1, n2)
    t1, t2, t3 = spec.phase_lengths
    e = spec.effective_m
    if spec.case == "B":
        assert (t1, t2, t3) == (n1 * (m - n2), n2 * (m - n1), (m - n1) * (m - n2))
        assert spec.total_slots == n1 * (m - n2) + m * (m - n1)
    else:
        assert e == n1 + n2
        assert (t1, t2, t3) == (n1 * n1, n2 * n2, n1 * n2)
    # side information: each LC one receiver owes the other is a row the
    # other receiver observed, so it can subtract it in phase 3
    assert spec.needed1 <= n2
    assert spec.needed2 <= n1
    # conservation: T3*N1 forwarded = T1*(E-N1) owed, same for user 2
    assert t3 * n1 == t1 * spec.needed1
    assert t3 * n2 == t2 * spec.needed2


def test_routing_is_lexicographic():
    # (4,3,2), slots 0-based: x[9] carries the user-1 LCs of phase-1 slots
    # 3..5 and both user-2 LCs of phase-2 slot 7, after the ones x[8] carries
    _, tr = _run(4, 3, 2)
    lc1, lc2 = tr.lc_user1, tr.lc_user2
    assert np.array_equal(tr.x[9], [lc1[3, 0], lc1[4, 0], lc1[5, 0] + lc2[1, 0], lc2[1, 1]])


def _phase3_reference(spec, tr):
    """Phase-3 signals built slot by slot: each user's LCs are taken in
    (source slot, row) order, N_i of them per slot."""
    t1, t2, t3 = spec.phase_lengths
    eff, n1, n2 = spec.effective_m, spec.N1, spec.N2
    lcs1 = [tr.lc_user1[t, r] for t in range(t1) for r in range(spec.needed1)]
    lcs2 = [tr.lc_user2[t, r] for t in range(t2) for r in range(spec.needed2)]
    x3 = np.zeros((t3, spec.M), dtype=complex)
    for k in range(t3):
        for j in range(n1):
            x3[k, j] += lcs1[k * n1 + j]
        for j in range(n2):
            x3[k, eff - n2 + j] += lcs2[k * n2 + j]
    return x3


@pytest.mark.parametrize("m,n1,n2", SCHEME_CONFIGS)
def test_phase3_matches_slot_by_slot_reference(m, n1, n2):
    spec, tr = _run(m, n1, n2)
    t1, t2, _ = spec.phase_lengths
    assert np.array_equal(tr.x[t1 + t2 :], _phase3_reference(spec, tr))


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


def _crandn(rng, shape):
    """One complex array the way the draw contract defines it: real parts, then imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@pytest.mark.parametrize("m,n1,n2,time_weights", [
    (3, 3, 3, None), (4, 3, 2, None), (3, 2, 1, None), (2, 3, 2, (1, 0)), (2, 3, 2, (0, 1)),
])
def test_draws_follow_the_per_array_contract(m, n1, n2, time_weights):
    spec = plan_two_user(m, n1, n2, time_weights=time_weights)
    rng = np.random.default_rng(17)
    channels = generate_channels(spec, 17)
    assert channels.h1.tobytes() == _crandn(rng, (spec.total_slots, n1, m)).tobytes()
    assert channels.h2.tobytes() == _crandn(rng, (spec.total_slots, n2, m)).tobytes()
    for power in (1.0, 2.0):
        rng = np.random.default_rng(18)
        for user, u in zip(scheme._users(spec), draw_symbols(spec, 18, power=power)):
            assert u.tobytes() == (np.sqrt(power) * _crandn(rng, (user.s, user.t))).tobytes()
    # receiver noise: y1's draws, then y2's, from the one noise generator
    symbols = draw_symbols(spec, 18)
    clean = run_phases(spec, channels, symbols)
    noisy = run_phases(spec, channels, symbols, noise_std=0.5, noise_seed=19)
    rng = np.random.default_rng(19)
    for y, y_noisy in ((clean.y1, noisy.y1), (clean.y2, noisy.y2)):
        assert y_noisy.tobytes() == (y + 0.5 * _crandn(rng, y.shape)).tobytes()


def _block_draws(monkeypatch, *args, **kwargs):
    """simulate_trials' stacked (h1, h2, u1, u2) per block, in block order."""
    real_run, blocks = scheme.run_phases, []

    def run(spec, channels, symbols):
        blocks.append((channels.h1, channels.h2, *symbols))
        return real_run(spec, channels, symbols)

    with monkeypatch.context() as patch:
        patch.setattr(scheme, "run_phases", run)
        simulate_trials(*args, **kwargs)
    return blocks


def _per_trial_draws(spec, children):
    """generate_channels and draw_symbols on each child's two spawned seeds, stacked."""
    draws = []
    for child in children:
        ch_seed, sym_seed = child.spawn(2)
        channels = generate_channels(spec, ch_seed)
        draws.append((channels.h1, channels.h2, *draw_symbols(spec, sym_seed)))
    return [np.stack(a) for a in zip(*draws)]


@pytest.mark.parametrize("m,n1,n2,trials,time_weights,blocks", [
    (3, 3, 3, 12, None, 1),  # case A
    (4, 3, 2, 30, None, 1),  # case B
    (3, 2, 1, 20, None, 1),  # case C
    (8, 4, 4, 50, None, 3),  # 21 trials fit one block
    (2, 3, 2, 10, (1, 0), 1),  # empty phases 2 and 3
])
def test_block_draws_match_per_trial_draws(monkeypatch, m, n1, n2, trials, time_weights, blocks):
    got = _block_draws(monkeypatch, m, n1, n2, trials, seed=23, time_weights=time_weights)
    assert len(got) == blocks
    spec = plan_two_user(m, n1, n2, time_weights=time_weights)
    want = _per_trial_draws(spec, np.random.SeedSequence(23).spawn(trials))
    for stacked, reference in zip(zip(*got), want):
        joined = np.concatenate(stacked)
        assert joined.shape == reference.shape
        assert joined.tobytes() == reference.tobytes()


def test_block_draws_advance_a_callers_seed_sequence(monkeypatch):
    root = np.random.SeedSequence(29)
    first = _block_draws(monkeypatch, 4, 3, 2, 7, seed=root)
    assert root.n_children_spawned == 7
    second = _block_draws(monkeypatch, 4, 3, 2, 5, seed=root)
    assert root.n_children_spawned == 12
    spec = plan_two_user(4, 3, 2)
    children = np.random.SeedSequence(29).spawn(12)
    for got, kids in ((first, children[:7]), (second, children[7:])):
        (block,) = got
        for stacked, reference in zip(block, _per_trial_draws(spec, kids)):
            assert stacked.tobytes() == reference.tobytes()


def test_simulate_trials_advances_a_seed_sequence_as_its_spawn_does():
    root, spawned = (np.random.SeedSequence(29, spawn_key=(3,), n_children_spawned=2) for _ in "ab")
    simulate_trials(4, 3, 2, 7, seed=root)
    spawned.spawn(7)
    assert root.state == spawned.state and np.array_equal(root.pool, spawned.pool)
    assert [c.state for c in root.spawn(3)] == [c.state for c in spawned.spawn(3)]


# roots of the spawn trees simulate_trials hashes: run entropy shorter than,
# as long as and longer than the pool; a spawn key, as the cli's three-user
# components have; children spawned already; a larger pool
SEED_ROOTS = [
    {"entropy": 0}, {"entropy": 1}, {"entropy": 2**32 - 1}, {"entropy": 2**32},
    {"entropy": 2**64 + 5}, {"entropy": 2**130 + 3}, {"entropy": [1, 2, 3]},
    {"entropy": 41, "spawn_key": (2,)}, {"entropy": 41, "n_children_spawned": 9},
    {"entropy": 41, "pool_size": 8},
]


@pytest.mark.parametrize("root", SEED_ROOTS, ids=repr)
def test_hashed_trial_seeds_match_numpys_spawn_tree(root):
    for trials in (1, 2, 6, 33):
        hashed = np.random.SeedSequence(**root)
        seeds = _seeds.trial_seeds(hashed, trials)  # channel seeds, symbol seeds
        assert hashed.n_children_spawned == root.get("n_children_spawned", 0)
        assert [len(s) for s in seeds] == [trials, trials]
        for i, child in enumerate(np.random.SeedSequence(**root).spawn(trials)):
            for j, grandchild in enumerate(child.spawn(2)):
                got = np.random.PCG64(seeds[j][i]).state["state"]
                assert got == np.random.PCG64(grandchild).state["state"]  # state and inc


def test_simulate_trials_int_seed_and_its_seed_sequence_agree():
    for args in ((4, 3, 2, 9), (8, 4, 4, 50)):  # one block, three blocks
        by_int = simulate_trials(*args, seed=31)
        by_sequence = simulate_trials(*args, seed=np.random.SeedSequence(31))
        assert vars(by_int) == vars(by_sequence)


class _UnspawnableSequence(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("spawned %d children" % n_children)


def test_simulate_trials_refuses_a_seed_sequence_whose_spawn_counter_would_wrap(monkeypatch):
    # numpy's spawn never returns from its uint32 counter past 2**32 - 1;
    # the refusal comes before any seed is hashed or spawned
    root = _UnspawnableSequence(0, n_children_spawned=2**32 - 2)
    with monkeypatch.context() as patch:
        patch.setattr(_seeds, "trial_seeds", None)
        with pytest.raises(SchemeError, match="spawned 4294967294 children"):
            simulate_trials(4, 3, 2, 2, seed=root)
    # one more child still fits, and draws what numpy's spawn tree would
    root = np.random.SeedSequence(0, n_children_spawned=2**32 - 2)
    (block,) = _block_draws(monkeypatch, 4, 3, 2, 1, seed=root)
    assert root.n_children_spawned == 2**32 - 1
    reference = _per_trial_draws(plan_two_user(4, 3, 2),
                                 np.random.SeedSequence(0, n_children_spawned=2**32 - 2).spawn(1))
    for stacked, want in zip(block, reference):
        assert stacked.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# run_phases
# ---------------------------------------------------------------------------

def test_transmit_structure_432():
    spec, tr = _run(4, 3, 2)
    # phase-1/2 slots put one symbol on each of the 4 antennas
    assert np.array_equal(tr.x[0], tr.u1[:, 0])
    assert np.array_equal(tr.x[6], tr.u2[:, 0])
    # slot 9 of the worked example: entries 1,2 carry the user-1 LCs of
    # phase-1 slots 1,2, entry 3 the sum of phase-1 slot 3's user-1 LC and
    # the first user-2 LC of phase-2 slot 7, entry 4 that slot's second
    x9 = tr.x[8]
    lc1, lc2 = tr.lc_user1, tr.lc_user2
    assert x9[0] == lc1[0, 0]
    assert x9[1] == lc1[1, 0]
    assert x9[2] == lc1[2, 0] + lc2[0, 0]
    assert x9[3] == lc2[0, 1]


def test_transmit_case_c_has_no_overlap():
    spec, tr = _run(3, 2, 1)
    t1, t2, t3 = spec.phase_lengths
    # (3,2,1): user 1 owes one LC per phase-1 slot 0..3, user 2 two in slot 4
    assert (t1, t2, t3) == (4, 1, 2)
    # positions 0..N1-1 and N1..N1+N2-1 are disjoint at M = N1+N2: no sums
    lc1, lc2 = tr.lc_user1, tr.lc_user2
    assert np.array_equal(tr.x[5], [lc1[0, 0], lc1[1, 0], lc2[0, 0]])
    assert np.array_equal(tr.x[6], [lc1[2, 0], lc1[3, 0], lc2[0, 1]])


def test_overheard_lcs_match_channel_rows_exactly():
    spec, tr = _run(4, 3, 2)
    for t in range(6):
        expected = tr.channels.h2[t][:1, :4] @ tr.u1[:, t]
        assert np.array_equal(tr.lc_user1[t], expected)
    for t in range(2):
        expected = tr.channels.h1[6 + t][:2, :4] @ tr.u2[:, t]
        assert np.array_equal(tr.lc_user2[t], expected)


@pytest.mark.parametrize("m, n1, n2", [(4, 3, 2), (3, 3, 3), (3, 2, 1), (2, 3, 3), (3, 4, 2)])
def test_cut_windows_are_the_phase3_channel_under_each_users_lcs(m, n1, n2):
    # align and side are a user's channel in the last T3 slots under the
    # antennas of its own LCs and of the other user's; with M <= N1 there is
    # no phase-3 slot, and both are empty stacks of their shape
    spec = plan_two_user(m, n1, n2)
    channels = generate_channels(spec, 3)
    t3 = spec.phase_lengths[2]
    users = scheme._users(spec)
    cuts = scheme._cuts(spec, channels.h1, channels.h2)
    for user, other, h, cut in zip(users, users[::-1], (channels.h1, channels.h2), cuts):
        assert cut.align.shape == (t3, user.n, user.n)
        assert cut.side.shape == (t3, user.n, other.n)
        if t3:
            phase3 = h[spec.total_slots - t3 :]
            assert np.array_equal(cut.align, phase3[:, :, user.lo : user.lo + user.n])
            assert np.array_equal(cut.side, phase3[:, :, other.lo : other.lo + other.n])


def test_run_phases_cuts_no_phase3_window(monkeypatch):
    # run_phases reads only the LC maps; the phase-3 windows are decode's
    def refuse(cut, antennas):
        raise AssertionError("run_phases cut a phase-3 window")

    monkeypatch.setattr(scheme._Cut, "_window", refuse)
    spec, tr = _run(4, 3, 2)
    assert tr.x.shape == (spec.total_slots, 4)


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


def test_decode_stack_in_which_every_trial_fails():
    spec = plan_two_user(4, 3, 2)
    channels = [generate_channels(spec, seed) for seed in (1, 2)]
    stack = scheme.ChannelRealization(h1=np.stack([c.h1 for c in channels]),
                                      h2=np.stack([c.h2 for c in channels]))
    stack.h1[:, 8] = 0.0
    symbols = tuple(np.stack(u) for u in zip(draw_symbols(spec, 3), draw_symbols(spec, 4)))
    report = decode(run_phases(spec, stack, symbols))
    assert [f[:2] for f in report.failures] == [(0, 8), (1, 8)]
    assert report.solves == 0
    assert report.residual_user1 == report.residual_user2 == 0.0


# trial -> channel slots zeroed, and the (slot, what) its decode fails at:
# alignment before data, user 1 before user 2 within a phase-3 slot
FAILURE_KINDS = [
    ((("h1", 8), ("h2", 8)), (8, "user-1 alignment solve")),
    ((("h2", 8),), (8, "user-2 alignment solve")),
    ((("h1", 0), ("h2", 9)), (9, "user-2 alignment solve")),
    ((("h2", 6),), (6, "user-2 data solve")),
    ((("h2", 0),), (0, "user-1 data solve")),
    ((("h1", 7),), (7, "user-2 data solve")),
]


def test_decode_failure_kinds_and_tie_order():
    spec = plan_two_user(4, 3, 2)
    assert spec.phase_lengths == (6, 2, 2)
    channels = [generate_channels(spec, 40 + i) for i in range(len(FAILURE_KINDS))]
    for ch, (zeroed, _) in zip(channels, FAILURE_KINDS):
        for name, slot in zeroed:
            getattr(ch, name)[slot] = 0.0
    stack = scheme.ChannelRealization(h1=np.stack([c.h1 for c in channels]),
                                      h2=np.stack([c.h2 for c in channels]))
    symbols = [draw_symbols(spec, 50 + i) for i in range(len(FAILURE_KINDS))]
    report = decode(run_phases(spec, stack, tuple(np.stack(u) for u in zip(*symbols))))
    assert [(i, slot, what) for i, slot, _, what in report.failures] == [
        (i, *expected) for i, (_, expected) in enumerate(FAILURE_KINDS)
    ]
    assert report.solves == 0
    # a single run raises the same kind at the same slot
    with pytest.raises(SingularChannelError) as err:
        decode(run_phases(spec, channels[3], symbols[3]))
    assert (err.value.slot, err.value.what) == (6, "user-2 data solve")


def _conditioned(rng, conds, n):
    """Complex n x n matrices U diag(sigma) V^H, sigma log-spaced from 1 to 1/cond."""
    conds = np.asarray(conds, dtype=float)
    u, v = (np.linalg.qr(rng.standard_normal((2, conds.size, n, n))
                         + 1j * rng.standard_normal((2, conds.size, n, n)))[0])
    sigma = conds[:, None] ** -np.linspace(0.0, 1.0, n)
    return (u * sigma[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)


def _screens(stacks):
    """The kappa_F screens that decode's solves give each stack."""
    return [scheme._screened_solve(m, np.zeros(m.shape[:-1], dtype=complex))[1] for m in stacks]


def test_screened_conditions_match_svd():
    rng = np.random.default_rng(2024)
    trials, k = 10, 6
    stacks = []
    for n in range(1, 9):
        # trials 0-4 span [1, 1e13]; trials 5-9 stay below the screen and decode
        logs = np.concatenate([rng.uniform(0, 13, (5, k)), rng.uniform(0, 2.8, (5, k))])
        stacks.append(_conditioned(rng, 10.0 ** logs.ravel(), n).reshape(trials, k, n, n))
    for trial, limit in enumerate((scheme.SCREEN, scheme.ILL_CONDITIONED, scheme.COND_LIMIT)):
        stacks[3][trial, :2] = _conditioned(rng, [limit * (1 - 1e-3), limit * (1 + 1e-3)], 4)
    stacks[7][4, :2] = _conditioned(rng, [scheme.SCREEN * (1 - 1e-9), scheme.SCREEN * (1 + 1e-9)], 8)
    stacks[1][3, 0] = 0.0
    # Gram matrices that underflow to a few subnormals, and one that overflows
    stacks[1][4] = np.geomspace(1.2e-160, 1.2e-159, k)[:, None, None] * _conditioned(rng, [1e9] * k, 2)
    stacks[2][4, 3] = 1e200 * _conditioned(rng, [10.0], 3)[0]
    # the decoded maximum: two equal matrices, and six more a hair below them,
    # closer than the screen can tell apart
    top = _conditioned(rng, [900.0], 5)[0]
    stacks[4][6, 2] = stacks[4][8, 2] = top
    for n in (6, 7, 8):
        stacks[n - 1][5:7, 3] = _conditioned(rng, [900.0 * (1 - 1e-12)] * 2, n)

    got = np.concatenate(scheme._conditions(stacks, _screens(stacks)), axis=1)
    want = np.concatenate([np.linalg.cond(m) for m in stacks], axis=1)
    finite = np.isfinite(want)
    assert (np.isfinite(got) == finite).all() and not finite.all()
    # the SVD's value wherever decode reads it (below); elsewhere kappa_F,
    # between kappa_2 and n kappa_2 up to rounding
    n = np.repeat([m.shape[-1] for m in stacks], [m.shape[1] for m in stacks])[None, :]
    got_f, want_f, n_f = got[finite], want[finite], np.broadcast_to(n, got.shape)[finite]
    assert (want_f <= got_f * (1 + 1e-9)).all() and (got_f <= n_f * want_f * (1 + 1e-9)).all()
    high = ~(got < scheme.SCREEN)
    assert high.sum() > 40 and (got[high] == want[high]).all()
    for limit in (scheme.ILL_CONDITIONED, scheme.COND_LIMIT):
        assert np.count_nonzero(got > limit) == np.count_nonzero(want > limit)
    kept = ~scheme._unusable(want).any(axis=1)
    assert kept[5:].all()
    assert got[kept].max() == want[kept].max() == np.linalg.cond(top)
    # np.linalg.cond raises on a NaN entry; the screen gives it condition inf
    stacks[0][0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(stacks[0])
    got[0, 0] = np.inf
    assert np.array_equal(np.concatenate(scheme._conditions(stacks, _screens(stacks)), axis=1), got)


def _all_svd(stacks, screens, runs=None):
    """Reference ``_conditions``: the SVD of every matrix, inf for a non-finite one,
    whatever the runs."""
    out = []
    for m in stacks:
        c = np.full(m.shape[:2], np.inf)
        finite = np.isfinite(m).all(axis=(-2, -1))
        c[finite] = np.linalg.cond(m[finite])
        out.append(c)
    return out


def _report_fields(spec, channels, symbols):
    report = decode(run_phases(spec, channels, symbols))
    return (report.failures, report.solves, report.ill_conditioned, report.max_condition,
            report.residual_user1, report.residual_user2)


def _first_block(m, n1, n2, trials, seed):
    """The channels and symbols of the first block ``simulate_trials`` decodes."""
    spec = plan_two_user(m, n1, n2)
    block = max(1, scheme._BLOCK_ENTRIES // spec.channel_entries)
    children = np.random.SeedSequence(seed).spawn(trials)[:block]
    ch_seeds, sym_seeds = zip(*(child.spawn(2) for child in children))
    return spec, scheme._channels(spec, ch_seeds), scheme._symbols(spec, sym_seeds)


def _straddling_block(scale):
    """Eight (8,4,4) trials with matrices planted on both sides of SCREEN,
    ILL_CONDITIONED and COND_LIMIT, near-equal candidates for the maximum
    and a zeroed slot, all channels times ``scale``."""
    rng = np.random.default_rng(77)
    spec, channels, symbols = _first_block(8, 4, 4, 8, 5)
    h1, h2 = channels.h1, channels.h2

    def align(user, trial, slot, cond):  # the user's 4x4 alignment matrix at a phase-3 slot
        (h1[trial, slot, :, :4] if user == 1 else h2[trial, slot, :, 4:])[...] = \
            _conditioned(rng, [cond], 4)[0]

    def data(user, trial, slot, cond):  # the user's 8x8 data matrix at one of its own slots
        a = _conditioned(rng, [cond], 8)[0]
        own, other = (h1, h2) if user == 1 else (h2, h1)
        own[trial, slot], other[trial, slot, :4] = a[:4], a[4:]

    below, above = 1 - 1e-3, 1 + 1e-3
    align(1, 0, 32, scheme.SCREEN * below)
    data(2, 0, 16, scheme.SCREEN * above)
    data(1, 1, 3, scheme.ILL_CONDITIONED * below)
    align(2, 1, 40, scheme.ILL_CONDITIONED * above)
    data(2, 2, 20, scheme.COND_LIMIT * below)
    align(1, 3, 47, scheme.COND_LIMIT * above)
    h2[4, 35] = 0.0
    for trial, slot in ((5, 33), (6, 44), (7, 45)):  # the largest of trials 5-7, 1e-12 apart
        align(1 + trial % 2, trial, slot, 999.0 * (1 - 1e-12 * (trial - 5)))
    return spec, scheme.ChannelRealization(h1 * scale, h2 * scale), symbols


@pytest.mark.parametrize("m,n1,n2,trials", MONTECARLO_SETUPS)
@pytest.mark.parametrize("seed", [0, 1])
def test_decode_matches_all_svd_reference_on_first_blocks(monkeypatch, m, n1, n2, trials, seed):
    spec, channels, symbols = _first_block(m, n1, n2, trials, seed)
    got = _report_fields(spec, channels, symbols)
    monkeypatch.setattr(scheme, "_conditions", _all_svd)
    assert _report_fields(spec, channels, symbols) == got


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("trials", [range(8), [0, 3, 4, 5, 6, 7], [5, 6, 7]])
def test_decode_matches_all_svd_reference_across_thresholds(monkeypatch, scale, trials):
    spec, channels, symbols = _straddling_block(scale)
    trials = list(trials)
    channels = scheme.ChannelRealization(channels.h1[trials], channels.h2[trials])
    symbols = tuple(u[trials] for u in symbols)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = _report_fields(spec, channels, symbols)
        monkeypatch.setattr(scheme, "_conditions", _all_svd)
        assert _report_fields(spec, channels, symbols) == got
    failures, solves, ill, max_condition = got[:4]
    assert solves > 0
    if 3 in trials:
        assert [f[:2] for f in failures] == [(trials.index(3), 47), (trials.index(4), 35)]
    if 1 in trials:
        assert ill == 2 and scheme.ILL_CONDITIONED < max_condition < scheme.COND_LIMIT
    if trials == [5, 6, 7]:
        assert 998.0 < max_condition < scheme.SCREEN and failures == ()


@pytest.mark.parametrize("scale", [1.0, 1e150])
@pytest.mark.parametrize("runs", [(8,), (3, 2, 3), (5, 3), (1,) * 8, (2, 6)])
def test_decode_runs_report_as_if_each_decoded_alone(scale, runs):
    # the straddling block split into contiguous runs: trial 1 holds two
    # ill-conditioned matrices, trials 3 and 4 fail, trials 5-7 hold near-equal maxima
    spec, channels, symbols = _straddling_block(scale)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        whole = _report_fields(spec, channels, symbols)
        transcript = run_phases(spec, channels, symbols)
        report = decode(transcript, runs)
        assert len(report.runs) == (len(runs) if len(runs) > 1 else 0)
        again = decode(transcript, iter(runs))  # any iterable of trial counts
        first = 0
        for n, part in zip(runs, report.runs or (report,)):
            rows = slice(first, first + n)
            alone = _report_fields(spec, scheme.ChannelRealization(channels.h1[rows], channels.h2[rows]),
                                   tuple(u[rows] for u in symbols))
            assert (part.failures, part.solves, part.ill_conditioned, part.max_condition,
                    part.residual_user1, part.residual_user2) == alone
            first += n
    assert (report.failures, report.solves, report.ill_conditioned, report.max_condition,
            report.residual_user1, report.residual_user2) == whole

    def fields(r):
        return r.failures, r.solves, r.ill_conditioned, r.max_condition, r.residual_user1, r.residual_user2

    assert [fields(r) for r in (again, *again.runs)] == [fields(r) for r in (report, *report.runs)]


def test_decode_refuses_runs_that_do_not_split_the_stack():
    spec, channels, symbols = _first_block(4, 3, 2, 5, 0)
    transcript = run_phases(spec, channels, symbols)
    for runs in ((2, 2), (3, 3), (5, 0), ()):
        with pytest.raises(SchemeError, match="do not split a stack of 5"):
            decode(transcript, runs)


@pytest.mark.parametrize("n", range(2, 9))
def test_worst_pivot_growth_screens_high_and_returns_the_svd(n):
    # Wilkinson's matrix: 1 on the diagonal and in the last column, -1 below;
    # partial pivoting swaps no row and grows the last column to 2^(n-1)
    w = np.eye(n) - np.tril(np.ones((n, n)), -1)
    w[:, -1] = 1.0
    # its first column scaled down: the same pivots and growth, kappa_2 in [1e8, 1e13]
    mats = np.stack([w * np.r_[s, np.ones(n - 1)] for s in (1e-8, 10**-10.25, 10**-12.5)])
    mats = mats.astype(complex)
    for a in mats:
        p, _, u = lu(a)
        assert np.array_equal(p, np.eye(n)) and np.abs(u).max() == 2.0 ** (n - 1)
    want = np.linalg.cond(mats)
    assert ((1e8 <= want) & (want <= 1e13)).all()
    with np.errstate(all="ignore"):
        assert (np.linalg.cond(mats, "fro") >= scheme.SCREEN).all()
    assert np.array_equal(scheme._conditions([mats[None]], _screens([mats[None]]))[0][0], want)
    # exactly singular and finite: the screen gives inf and raises nothing,
    # and the value returned is the SVD's, which fails the trial
    z = w.astype(complex)
    z[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            assert np.linalg.cond(z, "fro") == np.inf
        got = scheme._conditions([z[None, None]], _screens([z[None, None]]))[0]
    assert got[0, 0] == np.linalg.cond(z) and scheme._unusable(got).all()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("trials", [1, 5, 200])
def test_screened_solve_is_numpys_solve_and_cond(n, trials):
    rng = np.random.default_rng(1000 * n + trials)
    m = (rng.standard_normal((trials, 3, n, n)) + 1j * rng.standard_normal((trials, 3, n, n)))
    b = rng.standard_normal((trials, 3, n)) + 1j * rng.standard_normal((trials, 3, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, screens = scheme._screened_solve(m, b)
        assert np.array_equal(x, np.linalg.solve(m, b[..., None])[..., 0])
        assert np.array_equal(screens, np.linalg.cond(m, "fro"))
        # an empty (trials, 0, n, n) stack, the shape of case A's alignment stacks
        x, screens = scheme._screened_solve(m[:, :0], b[:, :0])
        assert (x.shape, x.dtype, screens.shape, screens.dtype) == (
            (trials, 0, n), np.dtype(complex), (trials, 0), np.dtype(float))
        assert np.array_equal(screens, np.linalg.cond(m[:, :0], "fro"))
        # an exactly singular matrix, a zero row, and one with a NaN entry:
        # solved with the rest, they raise and warn about nothing
        m[0, 1, -1] = 0.0
        m[-1, 2, 0, -1] = np.nan
        x, screens = scheme._screened_solve(m, b)
        assert np.array_equal(screens, np.linalg.cond(m, "fro"), equal_nan=True)
        assert screens[0, 1] == np.inf and np.isnan(screens[-1, 2])
        regular = np.isfinite(screens)
        assert regular.sum() == 3 * trials - 2
        want = np.linalg.solve(m[regular], b[regular][..., None])[..., 0]
        assert np.array_equal(x[regular], want)
        # the NaN entry screens as inf once the SVD is re-taken
        conds = scheme._conditions([m], [screens])[0]
    assert conds[-1, 2] == np.inf and scheme._unusable(conds[0, 1])


@pytest.mark.parametrize("shape", [(4, 0, 3, 3), (0, 2, 3, 3), (0, 0, 1, 1)])
def test_screened_solve_of_an_empty_stack_calls_no_lapack(monkeypatch, shape):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty stack")

    monkeypatch.setattr(scheme._umath_linalg, "solve", refuse)
    x, screens = scheme._screened_solve(np.empty(shape, dtype=complex),
                                        np.empty(shape[:-1], dtype=complex))
    assert (x.shape, x.dtype) == (shape[:-1], np.dtype(complex))
    assert (screens.shape, screens.dtype) == (shape[:-2], np.dtype(float))


# a single-user plan has no alignment stack and no user-2 data stack, a
# case-A plan no alignment stack: 7 trials of each, seeded from 5, decode to
# the reports they gave when every stack went through LAPACK, empty or not
EMPTY_STACK_REPORTS = {
    (2, 2, 2, (1, 0)): (2, 0, 1.676859480936123e-15, 0.0, 38.45521675943287, 7, 0, ()),
    (3, 3, 2, None): (3, 2, 2.898533462539736e-15, 4.451856111102413e-16, 45.01569044047728, 14, 0, ()),
}


@pytest.mark.parametrize("plan", EMPTY_STACK_REPORTS, ids=["single-user", "case-A"])
def test_decode_with_empty_stacks_keeps_its_report(plan):
    spec = plan_two_user(*plan[:3], time_weights=plan[3])
    channel_seeds, symbol_seeds = _seeds.trial_seeds(np.random.SeedSequence(5), 7)
    report = decode(run_phases(spec, scheme._channels(spec, channel_seeds),
                               scheme._symbols(spec, symbol_seeds)))
    assert (report.symbols_user1, report.symbols_user2, report.residual_user1,
            report.residual_user2, report.max_condition, report.solves,
            report.ill_conditioned, report.failures) == EMPTY_STACK_REPORTS[plan]


def test_svd_retakes_stay_few(monkeypatch):
    # the matrices whose SVD decode takes, over two seeds of each setup:
    # 145 when this test was written, against 772 for a band read off the
    # lower bound kappa_F / n in place of the largest SVD value taken
    real_cond, taken = np.linalg.cond, []

    def cond(x, p=None):
        if p is None:
            taken.append(len(x))
        return real_cond(x, p)

    monkeypatch.setattr(np.linalg, "cond", cond)
    for seed in (0, 1):
        for m, n1, n2, trials in MONTECARLO_SETUPS:
            simulate_trials(m, n1, n2, trials, seed)
    assert 0 < sum(taken) <= 290


@pytest.mark.parametrize("screen", [0.0, scheme.SCREEN], ids=["every-matrix", "screened"])
def test_svd_retakes_take_one_call_per_matrix_size_and_round(monkeypatch, screen):
    # (3,2,2) inverts 2x2 alignment and 3x3 data matrices, each size in both
    # users' stacks; each re-take round (SCREEN, each stack's first of largest
    # value, the band) takes the SVD of a size's matrices in one call
    spec = plan_two_user(3, 2, 2)
    channel_seeds, symbol_seeds = _seeds.trial_seeds(np.random.SeedSequence(11), 20)
    transcript = run_phases(spec, scheme._channels(spec, channel_seeds), scheme._symbols(spec, symbol_seeds))
    real_cond, calls = np.linalg.cond, []

    def cond(x, p=None):
        if p is None:
            calls.append((x.shape[-1], len(x)))
        return real_cond(x, p)

    monkeypatch.setattr(np.linalg, "cond", cond)
    monkeypatch.setattr(scheme, "SCREEN", screen)
    report = decode(transcript, (5, 15))
    if not screen:  # the SCREEN round takes every matrix, both users' of a size at once
        assert calls == [(2, 20 * 2 * 1), (3, 20 * (2 + 2))]
    else:  # nothing reaches SCREEN; each stack's first of largest value in each of the two
        # runs, four matrices of each size in one call; no other matrix reaches the band
        assert calls == [(2, 4), (3, 4)]
    assert report.solves == 20 * 6 and report.max_condition == max(r.max_condition for r in report.runs)


def test_failed_trials_solved_first_stay_silent_and_out_of_the_report(monkeypatch):
    # trial 3 has a matrix above COND_LIMIT and trial 4 a zeroed slot; both
    # are solved with the rest before they fail
    spec, channels, symbols = _straddling_block(1.0)

    def pick(trials):  # the channels and symbols of some trials, or of one
        return (scheme.ChannelRealization(channels.h1[trials], channels.h2[trials]),
                tuple(u[trials] for u in symbols))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _report_fields(spec, channels, symbols)
        assert [f[:2] for f in got[0]] == [(3, 47), (4, 35)]
        alone = _report_fields(spec, *pick([0, 1, 2, 5, 6, 7]))
        assert alone[0] == () and alone[1:] == got[1:]
        for trial, slot in ((3, 47), (4, 35)):
            with pytest.raises(SingularChannelError) as err:
                decode(run_phases(spec, *pick(trial)))
            assert err.value.slot == slot
    monkeypatch.setattr(scheme, "_conditions", _all_svd)
    assert _report_fields(spec, channels, symbols) == got


def test_decode_max_condition_with_a_failed_trial():
    spec = plan_two_user(8, 4, 4)
    assert spec.phase_lengths == (16, 16, 16)
    channels = [generate_channels(spec, 60 + i) for i in range(8)]
    channels[3].h2[40] = 0.0  # trial 3 fails at the user-2 alignment of slot 40
    # and holds the stack's largest finite condition number: two near-equal rows
    channels[3].h1[0, 1] = channels[3].h1[0, 0] + 1e-5 * channels[3].h1[0, 1]
    stack = scheme.ChannelRealization(h1=np.stack([c.h1 for c in channels]),
                                      h2=np.stack([c.h2 for c in channels]))
    symbols = [draw_symbols(spec, 70 + i) for i in range(8)]
    report = decode(run_phases(spec, stack, tuple(np.stack(u) for u in zip(*symbols))))
    assert [(i, slot, what) for i, slot, _, what in report.failures] == [
        (3, 40, "user-2 alignment solve")]

    h1, h2 = stack.h1, stack.h2
    matrices = [h1[:, 32:, :, :4], h2[:, 32:, :, 4:],
                np.concatenate([h1[:, :16], h2[:, :16, :4]], axis=2),
                np.concatenate([h2[:, 16:32], h1[:, 16:32, :4]], axis=2)]
    conds = [np.linalg.cond(m) for m in matrices]
    kept = np.arange(8) != 3
    assert max(c[3][np.isfinite(c[3])].max() for c in conds) > scheme.SCREEN
    assert report.max_condition == max(c[kept].max() for c in conds) < scheme.SCREEN
    assert report.solves == 7 * 64


def test_decode_non_finite_channel_fails_its_trial(capfd):
    spec = plan_two_user(4, 3, 2)
    assert spec.phase_lengths == (6, 2, 2)
    channels = [generate_channels(spec, 80 + i) for i in range(3)]
    channels[0].h1[9, 0, 0] = np.nan  # the user-1 alignment matrix of the last slot
    channels[1].h2[0, 0, 0] = np.inf  # the overheard row of user 1's first data matrix
    symbols = [draw_symbols(spec, 90 + i) for i in range(3)]
    stack = scheme.ChannelRealization(h1=np.stack([c.h1 for c in channels]),
                                      h2=np.stack([c.h2 for c in channels]))
    with np.errstate(invalid="ignore"):
        report = decode(run_phases(spec, stack, tuple(np.stack(u) for u in zip(*symbols))))
        assert report.failures == ((0, 9, np.inf, "user-1 alignment solve"),
                                   (1, 0, np.inf, "user-1 data solve"))
        assert report.solves == 12 and report.residual_user1 < scheme.RESIDUAL_TOL
        for trial, (slot, what) in enumerate(((9, "user-1 alignment solve"),
                                              (0, "user-1 data solve"))):
            with pytest.raises(SingularChannelError) as err:
                decode(run_phases(spec, channels[trial], symbols[trial]))
            assert (err.value.slot, err.value.cond, err.value.what) == (slot, np.inf, what)
    assert capfd.readouterr().err == ""


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


@pytest.mark.parametrize("m,n1,n2", SCHEME_CONFIGS)
def test_rate_model_covariances_are_at_least_identity(m, n1, n2):
    # each side-information covariance is I + S S^H / E, so its smallest
    # eigenvalue is 1 and the Cholesky whitening needs no conditioning check
    spec = plan_two_user(m, n1, n2)
    models = scheme._user_models(spec, generate_channels(spec, m * 100 + n1 * 10 + n2))
    *own, t3 = spec.phase_lengths
    assert len(models) == 2
    for (model, cov), t, n, s, needed, symbols in zip(
        models, own, (n1, n2), spec.symbols_per_slot, (spec.needed1, spec.needed2),
        spec.symbol_counts,
    ):
        # a group of lcm(needed, N) LCs spans a own slots: its a direct
        # blocks over its phase-3 rows make one square (a s) x (a s) block
        a = math.lcm(needed, n) // needed
        assert model.shape == (t // a, a * s, a * s)
        assert model.shape[0] * model.shape[2] == symbols
        assert cov.shape == (t3, n, n)
        assert np.linalg.eigvalsh(cov).min() >= 1 - 1e-12


@pytest.mark.parametrize("m,n1,n2,layout", [
    (9, 6, 3, ((18, 18), (9, 9))),  # (groups, block width) per user
    (10, 5, 5, ((25, 10), (25, 10))),
    (12, 6, 6, ((36, 12), (36, 12))),
    (4, 3, 2, ((2, 12), (2, 4))),
])
def test_rate_model_group_layout(m, n1, n2, layout):
    spec = plan_two_user(m, n1, n2)
    models = scheme._user_models(spec, generate_channels(spec, 3))
    assert tuple(model.shape for model, _ in models) == tuple((k, w, w) for k, w in layout)
    assert tuple(k * w for k, w in layout) == spec.symbol_counts


@pytest.mark.parametrize("weights", [None, (1, 0), (F(1, 3), F(2, 3))])
def test_rate_model_case_a_groups_are_single_slots(weights):
    # time division forwards no LC: each group is one slot, N_i x s_i
    spec = plan_two_user(2, 3, 2, time_weights=weights)
    models = scheme._user_models(spec, generate_channels(spec, 4))
    for (model, cov), t, n, s in zip(models, spec.phase_lengths, (3, 2), spec.symbols_per_slot):
        assert model.shape == (t, n, s)
        assert cov.shape == (0, n, n)


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
    real_channels, real_run = scheme._channels, scheme.run_phases
    drawn, runs = [], []

    def channels(spec, seeds):
        ch = real_channels(spec, seeds)
        for k, seed in enumerate(seeds):
            if len(drawn) in zeroed:
                name, slot = zeroed[len(drawn)]
                getattr(ch, name)[k, slot] = 0.0
            drawn.append(seed)
        return ch

    def run(spec, ch, symbols):
        runs.append(ch.h1.shape[0])
        return real_run(spec, ch, symbols)

    monkeypatch.setattr(scheme, "_channels", channels)
    monkeypatch.setattr(scheme, "run_phases", run)
    summary = simulate_trials(m, n1, n2, trials, seed=11, time_weights=time_weights)
    assert len(runs) == blocks and sum(runs) == trials

    # reference: the seeds simulate_trials spawns, one trial at a time
    drawn.clear()
    spec = plan_two_user(m, n1, n2, time_weights=time_weights)
    failures, solves, ill, max_cond, max_res = [], 0, 0, 0.0, 0.0
    for i, child in enumerate(np.random.SeedSequence(11).spawn(trials)):
        ch_seed, sym_seed = child.spawn(2)
        transcript = real_run(spec, generate_channels(spec, ch_seed), draw_symbols(spec, sym_seed))
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


def _alone(m, n1, n2, trials, seeds, time_weights=None):
    """One simulate_trials call per seed."""
    return [simulate_trials(m, n1, n2, trials, seed, time_weights=time_weights) for seed in seeds]


@pytest.mark.parametrize("m,n1,n2,trials,time_weights", [
    *((*setup, None) for setup in MONTECARLO_SETUPS),
    (2, 2, 2, 10, (1, 0)),  # a three-user plan's single-user component
])
def test_simulate_runs_match_separate_calls(m, n1, n2, trials, time_weights):
    seeds = [3, 14, 15]
    stacked = simulate_runs(m, n1, n2, trials, seeds, time_weights=time_weights)
    assert len(stacked) == len(seeds)
    for got, want in zip(stacked, _alone(m, n1, n2, trials, seeds, time_weights)):
        assert vars(got) == vars(want)


def test_simulate_runs_straddle_blocks(monkeypatch):
    # 37-trial runs in 21-trial blocks: the second block holds the end of run
    # 0 and the start of run 1, the fourth the end of run 1 and the start of run 2
    sizes = []
    real = scheme.run_phases

    def run(spec, channels, symbols):
        sizes.append(len(channels.h1))
        return real(spec, channels, symbols)

    seeds = [5, 6, 7]
    with monkeypatch.context() as patch:
        patch.setattr(scheme, "run_phases", run)
        stacked = simulate_runs(8, 4, 4, 37, seeds)
    assert sizes == [21] * 5 + [6]
    for got, want in zip(stacked, _alone(8, 4, 4, 37, seeds)):
        assert vars(got) == vars(want)


def test_simulate_runs_keep_a_failed_trial_in_its_own_run(monkeypatch):
    # trial 30 of the middle run, in the second 21-trial block, is zeroed
    target = _seeds.trial_seeds(np.random.SeedSequence(6), 37)[0][30].words
    real = scheme._channels

    def channels(spec, seeds):
        ch = real(spec, seeds)
        for k, seed in enumerate(seeds):
            if np.array_equal(seed.words, target):
                ch.h1[k] = 0.0
        return ch

    seeds = [5, 6, 7]
    clean = _alone(8, 4, 4, 37, seeds)
    monkeypatch.setattr(scheme, "_channels", channels)
    stacked = simulate_runs(8, 4, 4, 37, seeds)
    alone = _alone(8, 4, 4, 37, seeds)
    assert [f[0] for f in stacked[1].failures] == [30]
    assert stacked[1].matches_corner is False and stacked[1].solves == 36 * 64
    for got, want in zip(stacked, alone):
        assert vars(got) == vars(want)
    for i in (0, 2):
        assert vars(stacked[i]) == vars(clean[i])


def test_simulate_runs_advance_seed_sequences_as_separate_calls_do():
    # the same sequence twice advances twice, in order, as spawn would
    def roots():
        a = np.random.SeedSequence(29, spawn_key=(3,), n_children_spawned=2)
        return [a, np.random.SeedSequence(41), a]

    stacked_roots, alone_roots, spawned = roots(), roots(), roots()
    stacked = simulate_runs(4, 3, 2, 9, stacked_roots)
    for got, want in zip(stacked, _alone(4, 3, 2, 9, alone_roots)):
        assert vars(got) == vars(want)
    for root in spawned[:2]:
        root.spawn(9 * spawned.count(root))
    for got, want in zip(stacked_roots, spawned):
        assert got.n_children_spawned == want.n_children_spawned
        assert got.state == want.state and np.array_equal(got.pool, want.pool)
    assert stacked_roots[0].n_children_spawned == 2 + 18


def test_simulate_runs_refuse_per_run_as_simulate_trials_does():
    # the limits apply to one run's trials, not to the stack's
    spec = plan_two_user(4, 3, 2)
    trials = scheme.MAX_SLOT_TRIALS // spec.total_slots
    with pytest.raises(SchemeError, match="exceed the limit"):
        simulate_runs(4, 3, 2, trials + 1, [0, 1])
    with pytest.raises(SchemeError, match="need at least one trial"):
        simulate_runs(4, 3, 2, 0, [0, 1])
    assert simulate_runs(4, 3, 2, 3, []) == ()


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
