"""Two-user three-phase retrospective interference-alignment simulator.

The transmitter first sends fresh symbols to user 1 (phase 1) and user 2
(phase 2) on all effective antennas.  Delayed CSI lets it reconstruct the
linear combinations (LCs) each transmission dumped on the other receiver;
phase 3 retransmits those LCs so that every receiver can cancel what it
already overheard and gain the equations it is missing.

Plan geometry for effective antenna count E = min(M, N1+N2):

* phase lengths  T1 = N1 (E - N2),  T2 = N2 (E - N1),  T3 = (E-N1)(E-N2)
* each phase-1 slot leaves user 1 short E - N1 combinations, taken from
  the first E - N1 antennas of user 2 (symmetrically for user 2)
* each phase-3 slot carries N1 user-1-destined LCs on antennas 1..N1 and
  N2 user-2-destined LCs on the last N2 effective antennas; when
  E < N1 + N2 the overlapping antennas transmit sums.

M <= N1 needs no alignment: plain time division between single-user
transmissions traces the region's dominant face.  It runs through the same
phase machinery with an empty phase 3 and no overheard combinations, and a
single-user component of a three-user plan is a time-division plan on
min(M, N) antennas that gives user 1 all the air time.

Decoding is by exact linear solves; the noiseless decode certifies the
DoF corner by symbol accounting.  The Monte Carlo wrapper runs and decodes
its trials in blocks, as arrays over a leading trial axis: the phase-3
routing is a set of index arrays, and every kind of matrix a trial inverts
gets one condition-number pass and one batched solve over the whole block.
A trial that fails the conditioning check is still reported with its slot.
A finite-SNR harness estimates Gaussian-signaling rates from the same
end-to-end linear model, with the receivers' noisy side information
entering as colored noise.

Runaway inputs are refused up front: more than MAX_SLOT_TRIALS trials x
slots, and rate models with more than MAX_GRAM_COLUMNS symbols per user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactgeom import rat
from .regions import DominantFace, point_Q

__all__ = [
    "SchemeError",
    "SingularChannelError",
    "Phase3Slot",
    "SchemeSpec",
    "ChannelRealization",
    "Transcript",
    "DecodingReport",
    "TrialSummary",
    "RateCurve",
    "plan_two_user",
    "validate_routing",
    "generate_channels",
    "draw_symbols",
    "run_phases",
    "decode",
    "simulate_trials",
    "rate_slope_estimate",
]

COND_LIMIT = 1e10  # a decoding matrix above this condition number fails the trial
ILL_CONDITIONED = 1e8  # solves above this condition number are counted, not failed
RESIDUAL_TOL = 1e-8  # largest symbol error of a decode that certifies the corner
MAX_SLOT_TRIALS = 10**6  # simulate_trials refuses more trials x slots than this
MAX_GRAM_COLUMNS = 2048  # rate_slope_estimate refuses a larger per-user Gram matrix
_BLOCK_ENTRIES = 1 << 16  # complex channel entries stacked per block of trials


class SchemeError(ValueError):
    pass


class SingularChannelError(RuntimeError):
    """A decoding matrix failed the conditioning check."""

    def __init__(self, slot: int, cond: float, what: str):
        self.slot = slot
        self.cond = cond
        self.what = what
        super().__init__(
            "singular channel: %s at slot %d (condition %.3e)" % (what, slot, cond)
        )


@dataclass(frozen=True)
class Phase3Slot:
    """LC placement for one alignment slot.

    ``user1_lcs`` ride on antenna positions 0..N1-1 and ``user2_lcs`` on
    the last N2 effective positions; each entry is (source_slot, row),
    naming the receive antenna row whose overheard combination is being
    forwarded.
    """

    user1_lcs: tuple
    user2_lcs: tuple


@dataclass(frozen=True)
class SchemeSpec:
    M: int
    N1: int
    N2: int
    case: str  # "A", "B", or "C"
    effective_m: int
    phase_lengths: tuple  # (T1, T2, T3) slot counts
    symbols_per_slot: tuple  # fresh symbols per slot in phases 1 and 2
    lc_routing: tuple  # Phase3Slot per alignment slot; empty in case A
    time_weights: tuple | None  # case A split between the two users

    @property
    def total_slots(self) -> int:
        return sum(self.phase_lengths)

    @property
    def needed1(self) -> int:
        """Extra LCs user 1 is short per phase-1 slot."""
        return max(self.symbols_per_slot[0] - self.N1, 0)

    @property
    def needed2(self) -> int:
        return max(self.symbols_per_slot[1] - self.N2, 0)

    @property
    def symbol_counts(self) -> tuple:
        t1, t2, _ = self.phase_lengths
        s1, s2, _ = self.symbols_per_slot
        return (t1 * s1, t2 * s2)

    def target_dof(self) -> tuple:
        """The exact DoF pair this plan realizes."""
        total = self.total_slots
        n1, n2 = self.symbol_counts
        return (Fraction(n1, total), Fraction(n2, total))


def _build_routing(t1: int, t2: int, n1: int, n2: int, need1: int, need2: int):
    """Deterministic LC partition: lexicographic by (source slot, antenna row)."""
    ids1 = [(t, r) for t in range(t1) for r in range(need1)]
    ids2 = [(t1 + t, r) for t in range(t2) for r in range(need2)]
    t3 = len(ids1) // n1
    assert len(ids1) == t3 * n1 and len(ids2) == t3 * n2
    slots = []
    for k in range(t3):
        slots.append(
            Phase3Slot(
                tuple(ids1[k * n1 : (k + 1) * n1]),
                tuple(ids2[k * n2 : (k + 1) * n2]),
            )
        )
    return tuple(slots)


def plan_two_user(M: int, N1: int, N2: int, time_weights=None) -> SchemeSpec:
    """Plan the transmission for antenna setup (M, N1, N2).

    M <= N1 yields the case-A time-division plan; ``time_weights`` then
    splits the air time between the users (defaults to an even split) and
    must be two nonnegative rationals summing to one.  Larger M yields the
    three-phase alignment plan (case B below N1+N2, case C at or above,
    where only N1+N2 transmit antennas are used).
    """
    if not 1 <= N2 <= N1:
        raise SchemeError("need N1 >= N2 >= 1, got N1=%d N2=%d" % (N1, N2))
    if M < 1:
        raise SchemeError("need M >= 1")

    if M <= N1:
        if time_weights is None:
            time_weights = (Fraction(1, 2), Fraction(1, 2))
        w1, w2 = (rat(w) for w in time_weights)
        if w1 < 0 or w2 < 0 or w1 + w2 != 1:
            raise SchemeError("time weights must be nonnegative and sum to 1")
        scale = math.lcm(w1.denominator, w2.denominator)
        t1, t2 = int(w1 * scale), int(w2 * scale)
        return SchemeSpec(
            M=M,
            N1=N1,
            N2=N2,
            case="A",
            effective_m=M,
            phase_lengths=(t1, t2, 0),
            symbols_per_slot=(min(M, N1), min(M, N2), 0),
            lc_routing=(),
            time_weights=(w1, w2),
        )

    if time_weights is not None:
        raise SchemeError("time weights apply only to the time-division case (M <= N1)")
    eff = min(M, N1 + N2)
    case = "B" if M < N1 + N2 else "C"
    t1 = N1 * (eff - N2)
    t2 = N2 * (eff - N1)
    t3 = (eff - N1) * (eff - N2)
    routing = _build_routing(t1, t2, N1, N2, eff - N1, eff - N2)
    assert len(routing) == t3
    return SchemeSpec(
        M=M,
        N1=N1,
        N2=N2,
        case=case,
        effective_m=eff,
        phase_lengths=(t1, t2, t3),
        symbols_per_slot=(eff, eff, 0),
        lc_routing=routing,
        time_weights=None,
    )


def validate_routing(spec: SchemeSpec):
    """Structural checks on the phase-3 placement map.

    Verifies the partition property (each overheard LC forwarded exactly
    once), the per-slot delivery counts, and side-information sufficiency:
    every LC a receiver must subtract is a row of its own earlier received
    signal.
    """
    t1, t2, t3 = spec.phase_lengths
    seen1, seen2 = set(), set()
    for slot in spec.lc_routing:
        if len(slot.user1_lcs) != spec.N1 or len(slot.user2_lcs) != spec.N2:
            raise SchemeError("phase-3 slot must carry N1 + N2 combinations")
        for src, row in slot.user1_lcs:
            # overheard at user 2 during phase 1, subtracted by user 2 later
            if not (0 <= src < t1 and 0 <= row < spec.needed1 and row < spec.N2):
                raise SchemeError("user-1-destined LC (%d, %d) is not observable" % (src, row))
            seen1.add((src, row))
        for src, row in slot.user2_lcs:
            if not (t1 <= src < t1 + t2 and 0 <= row < spec.needed2 and row < spec.N1):
                raise SchemeError("user-2-destined LC (%d, %d) is not observable" % (src, row))
            seen2.add((src, row))
    if len(seen1) != t3 * spec.N1 or len(seen2) != t3 * spec.N2:
        raise SchemeError("LC partition must forward every combination exactly once")
    if len(seen1) != t1 * spec.needed1 or len(seen2) != t2 * spec.needed2:
        raise SchemeError("LC totals do not match the per-slot deficits")


@dataclass(eq=False)
class ChannelRealization:
    """I.i.d. Rayleigh channel draws for every slot and user."""

    h1: np.ndarray  # ([trials,] total_slots, N1, M)
    h2: np.ndarray  # ([trials,] total_slots, N2, M)
    seed: object  # one seed, or a tuple of them for a stack of trials

    @property
    def total_slots(self) -> int:
        return self.h1.shape[-3]


def _crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def generate_channels(spec: SchemeSpec, seed) -> ChannelRealization:
    """Standard complex Gaussian H_i(t), reproducible from the seed."""
    rng = np.random.default_rng(seed)
    t = spec.total_slots
    h1 = _crandn(rng, (t, spec.N1, spec.M))
    h2 = _crandn(rng, (t, spec.N2, spec.M))
    return ChannelRealization(h1=h1, h2=h2, seed=seed)


def draw_symbols(spec: SchemeSpec, seed, power: float = 1.0):
    """I.i.d. complex Gaussian data symbols for both users."""
    rng = np.random.default_rng(seed)
    t1, t2, _ = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    scale = np.sqrt(power)
    u1 = scale * _crandn(rng, (s1, t1))
    u2 = scale * _crandn(rng, (s2, t2))
    return u1, u2


@dataclass(eq=False)
class Transcript:
    """Everything one run produced: channels, symbols, LCs, signals.

    Every array may carry a leading trial axis; a single run has none.
    """

    spec: SchemeSpec
    channels: ChannelRealization
    u1: np.ndarray  # ([trials,] s1, T1) user-1 data symbols
    u2: np.ndarray  # ([trials,] s2, T2)
    lc_user1: np.ndarray  # ([trials,] T1, needed1) overheard combinations destined to user 1
    lc_user2: np.ndarray  # ([trials,] T2, needed2)
    x: np.ndarray  # ([trials,] T, M) transmitted signals
    y1: np.ndarray  # ([trials,] T, N1) received signals
    y2: np.ndarray  # ([trials,] T, N2)
    noise_std: float


def _routing_indices(spec: SchemeSpec):
    """The phase-3 routing as index arrays (src1, row1, src2, row2).

    Entry [k, j] of the user-i pair names the LC that slot k carries at
    position j of user i's antennas; each array has shape (T3, N_i).
    """
    lcs1 = np.array([s.user1_lcs for s in spec.lc_routing], dtype=np.intp).reshape(-1, spec.N1, 2)
    lcs2 = np.array([s.user2_lcs for s in spec.lc_routing], dtype=np.intp).reshape(-1, spec.N2, 2)
    return lcs1[..., 0], lcs1[..., 1], lcs2[..., 0], lcs2[..., 1]


def _phase3_windows(spec: SchemeSpec, h1, h2):
    """Phase-3 channels under each user's LC positions, stacked over slots.

    Returns (h1 under user-1 positions, h1 under user-2 positions, h2 under
    user-1 positions, h2 under user-2 positions), shaped ([trials,] T3,
    N_i, N_j): user-1 LCs ride on antennas 0..N1-1 and user-2 LCs on the
    last N2 effective ones.  With M <= N1 there is no phase-3 slot and the
    windows are empty stacks of the same shapes.
    """
    t1, t2, t3 = spec.phase_lengths
    eff, n1, n2 = spec.effective_m, spec.N1, spec.N2
    return tuple(
        h[..., t1 + t2 :, :, lo : lo + k].reshape(h.shape[:-3] + (t3, n, k))
        for h, n in ((h1, n1), (h2, n2))
        for lo, k in ((0, n1), (eff - n2, n2))
    )


def _apply(h, v):
    """Stacked matrix-vector products h @ v over all leading axes."""
    return (h @ v[..., None])[..., 0]


def run_phases(spec: SchemeSpec, channels: ChannelRealization, symbols,
               noise_std: float = 0.0, noise_seed=None) -> Transcript:
    """Execute the planned phases over one channel realization or a stack.

    ``symbols`` is the (u1, u2) pair from draw_symbols, or those arrays
    stacked along a leading trial axis that the channels share.  The
    transmitter reconstructs every overheard LC exactly from delayed CSI
    and the known symbols; receiver noise (optional) only affects the
    received signals.
    """
    u1, u2 = symbols
    h1, h2 = channels.h1, channels.h2
    t1, t2, _ = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    eff, n1, n2 = spec.effective_m, spec.N1, spec.N2
    total = spec.total_slots
    trials = u1.shape[:-2]
    if u1.shape != trials + (s1, t1) or u2.shape != trials + (s2, t2):
        raise SchemeError(
            "symbol shapes %r/%r do not match the plan" % (u1.shape, u2.shape)
        )
    if channels.total_slots != total:
        raise SchemeError("channel realization covers %d slots, plan needs %d"
                          % (channels.total_slots, total))
    if h1.shape[:-3] != trials or h2.shape[:-3] != trials:
        raise SchemeError("channels and symbols stack different trial counts")

    x = np.zeros(trials + (total, spec.M), dtype=complex)
    x[..., :t1, :s1] = np.swapaxes(u1, -1, -2)
    x[..., t1 : t1 + t2, :s2] = np.swapaxes(u2, -1, -2)
    # overheard combinations, reconstructed from delayed CSI
    lc1 = _apply(h2[..., :t1, : spec.needed1, :s1], np.swapaxes(u1, -1, -2))
    lc2 = _apply(h1[..., t1 : t1 + t2, : spec.needed2, :s2], np.swapaxes(u2, -1, -2))
    if spec.lc_routing:  # phase 3 forwards every overheard LC once
        src1, row1, src2, row2 = _routing_indices(spec)
        x[..., t1 + t2 :, :n1] += lc1[..., src1, row1]
        x[..., t1 + t2 :, eff - n2 : eff] += lc2[..., src2 - t1, row2]

    y1 = np.einsum("...tnm,...tm->...tn", h1, x)
    y2 = np.einsum("...tnm,...tm->...tn", h2, x)
    if noise_std > 0.0:
        nrng = np.random.default_rng(noise_seed)
        y1 = y1 + noise_std * _crandn(nrng, y1.shape)
        y2 = y2 + noise_std * _crandn(nrng, y2.shape)
    return Transcript(
        spec=spec, channels=channels, u1=u1, u2=u2,
        lc_user1=lc1, lc_user2=lc2, x=x, y1=y1, y2=y2, noise_std=noise_std,
    )


@dataclass(eq=False)
class DecodingReport:
    """Decoding outcome of one run, or of the trials of a stack that decoded."""

    symbols_user1: int  # per trial
    symbols_user2: int
    residual_user1: float
    residual_user2: float
    max_condition: float
    solves: int  # matrices inverted
    ill_conditioned: int  # of those, how many exceeded ILL_CONDITIONED
    spec: SchemeSpec  # the decoded plan, whose target_dof() the symbols realize
    failures: tuple  # (trial, slot, condition, what) per failed trial of a stack


def _solve(matrices, rhs):
    return np.linalg.solve(matrices, rhs[..., None])[..., 0]


def decode(transcript: Transcript) -> DecodingReport:
    """Recover both users' symbols by exact linear solves.

    Phase 3: each receiver subtracts the forwarded LCs it already holds
    (rows of its own earlier received signal) and inverts the square
    submatrix of its channel under the other LCs' antenna positions.
    Phases 1-2: each user stacks its direct observations with the
    recovered combinations and solves one square system per slot on its
    first s_i rows and columns, s_i the symbols sent per slot: the whole
    stack in cases B/C, the direct rows alone in case A.

    A trial inverts, in order: per phase-3 slot the user-1 then the user-2
    alignment matrix, then the phase-1 and the phase-2 data matrices.  All
    of them depend only on the channels, so every condition number is
    taken up front, one stack per kind.  A trial fails at its first matrix
    that is not finite or above COND_LIMIT and then counts toward nothing
    else; the others are solved together, one stack per kind.  A single
    run that fails raises SingularChannelError; a stack of trials lists its
    failed trials in ``failures``.
    """
    spec = transcript.spec
    t1, t2, t3 = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    eff, n1, n2 = spec.effective_m, spec.N1, spec.N2
    single = transcript.u1.ndim == 2
    h1, h2, y1, y2, u1, u2 = (
        a[None] if single else a
        for a in (transcript.channels.h1, transcript.channels.h2,
                  transcript.y1, transcript.y2, transcript.u1, transcript.u2)
    )
    p1, p2, p3 = slice(0, t1), slice(t1, t1 + t2), slice(t1 + t2, None)
    h1_own, h1_side, h2_side, h2_own = _phase3_windows(spec, h1, h2)
    matrices = (
        h1_own,  # user-1 alignment solves
        h2_own,  # user-2 alignment solves
        np.concatenate([h1[:, p1, :, :s1], h2[:, p1, : spec.needed1, :s1]], axis=2)[:, :, :s1],
        np.concatenate([h2[:, p2, :, :s2], h1[:, p2, : spec.needed2, :s2]], axis=2)[:, :, :s2],
    )
    c3a, c3b, c1, c2 = (np.linalg.cond(m) for m in matrices)
    conds = np.concatenate([np.stack([c3a, c3b], axis=2).reshape(len(h1), 2 * t3), c1, c2], axis=1)
    slots = np.concatenate([np.repeat(np.arange(t1 + t2, t1 + t2 + t3), 2), np.arange(t1 + t2)])
    what = (["user-1 alignment solve", "user-2 alignment solve"] * t3
            + ["user-1 data solve"] * t1 + ["user-2 data solve"] * t2)
    bad = ~np.isfinite(conds) | (conds > COND_LIMIT)
    failed, first = bad.any(axis=1), bad.argmax(axis=1)
    failures = tuple(
        (int(i), int(slots[first[i]]), float(conds[i, first[i]]), what[first[i]])
        for i in np.flatnonzero(failed)
    )
    if single and failures:
        raise SingularChannelError(*failures[0][1:])
    ok = ~failed
    align1, align2, data1, data2 = (m[ok] for m in matrices)
    h1_side, h2_side, y1, y2, u1, u2 = (a[ok] for a in (h1_side, h2_side, y1, y2, u1, u2))
    src1, row1, src2, row2 = _routing_indices(spec)

    # user 1 cancels the user-2-destined LCs: rows of its own phase-2 signal
    rec1 = np.empty((len(y1), t1, spec.needed1), dtype=complex)
    rec1[:, src1, row1] = _solve(align1, y1[:, p3] - _apply(h1_side, y1[:, src2, row2]))
    # user 2 cancels the user-1-destined LCs: rows of its phase-1 signal
    rec2 = np.empty((len(y2), t2, spec.needed2), dtype=complex)
    rec2[:, src2 - t1, row2] = _solve(align2, y2[:, p3] - _apply(h2_side, y2[:, src1, row1]))
    u1_hat = _solve(data1, np.concatenate([y1[:, p1], rec1], axis=2)[:, :, :s1])
    u2_hat = _solve(data2, np.concatenate([y2[:, p2], rec2], axis=2)[:, :, :s2])

    kept = conds[ok]
    return DecodingReport(
        symbols_user1=s1 * t1,
        symbols_user2=s2 * t2,
        residual_user1=float(np.abs(np.swapaxes(u1_hat, 1, 2) - u1).max(initial=0.0)),
        residual_user2=float(np.abs(np.swapaxes(u2_hat, 1, 2) - u2).max(initial=0.0)),
        max_condition=float(kept.max(initial=0.0)),
        solves=int(kept.size),
        ill_conditioned=int(np.count_nonzero(kept > ILL_CONDITIONED)),
        spec=spec,
        failures=failures,
    )


@dataclass(eq=False)
class TrialSummary:
    spec: SchemeSpec
    trials: int
    failures: tuple  # (trial index, slot, condition) triples
    max_residual: float
    max_condition: float
    solves: int
    ill_conditioned: int
    achieved: tuple  # the plan's exact DoF pair
    matches_corner: bool  # achieved is the corner and every trial decoded within RESIDUAL_TOL


def simulate_trials(M: int, N1: int, N2: int, trials: int, seed,
                    time_weights=None) -> TrialSummary:
    """Monte Carlo wrapper: plan once, then run/decode independent trials.

    Each trial draws its channels and symbols from its own spawned seed;
    the draws are stacked in blocks of at most _BLOCK_ENTRIES channel
    entries (one trial at least) and each block is run and decoded as one
    stack.  Refuses more than MAX_SLOT_TRIALS trials times slots up front.
    """
    if trials < 1:
        raise SchemeError("need at least one trial")
    spec = plan_two_user(M, N1, N2, time_weights=time_weights)
    if trials * spec.total_slots > MAX_SLOT_TRIALS:
        raise SchemeError("%d trials of %d slots exceed the limit of %d slot-trials"
                          % (trials, spec.total_slots, MAX_SLOT_TRIALS))
    children = _seed_sequence(seed).spawn(trials)
    block = max(1, _BLOCK_ENTRIES // (spec.total_slots * (N1 + N2) * M))
    failures = []
    max_res = 0.0
    max_cond = 0.0
    solves = 0
    ill = 0
    for start in range(0, trials, block):
        draws = []
        for child in children[start : start + block]:
            ch_seed, sym_seed = child.spawn(2)
            draws.append((generate_channels(spec, ch_seed), draw_symbols(spec, sym_seed)))
        channels = ChannelRealization(
            h1=np.stack([c.h1 for c, _ in draws]),
            h2=np.stack([c.h2 for c, _ in draws]),
            seed=tuple(c.seed for c, _ in draws),
        )
        symbols = tuple(np.stack(u) for u in zip(*(sym for _, sym in draws)))
        report = decode(run_phases(spec, channels, symbols))
        failures.extend((start + i, slot, cond) for i, slot, cond, _ in report.failures)
        max_res = max(max_res, report.residual_user1, report.residual_user2)
        max_cond = max(max_cond, report.max_condition)
        solves += report.solves
        ill += report.ill_conditioned
    achieved = spec.target_dof()
    corner = point_Q(M, N1, N2)
    if isinstance(corner, DominantFace):
        matches = corner.line.active(achieved)
    else:
        matches = achieved == corner
    matches = matches and not failures and max_res < RESIDUAL_TOL
    return TrialSummary(
        spec=spec,
        trials=trials,
        failures=tuple(failures),
        max_residual=max_res,
        max_condition=max_cond,
        solves=solves,
        ill_conditioned=ill,
        achieved=achieved,
        matches_corner=matches,
    )


def simulate_single_user(M: int, N: int, trials: int, seed) -> TrialSummary:
    """Point-to-point check: the time-division plan on min(M, N) antennas
    with all air time given to user 1, decoded by simulate_trials.

    Used when a time-sharing component turns every other user off.
    """
    return simulate_trials(min(M, N), N, N, trials, seed, time_weights=(1, 0))


# ---------------------------------------------------------------------------
# Finite-SNR Gaussian-signaling rate estimates
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RateCurve:
    snr_db: tuple
    rates: np.ndarray  # (len(snr_db), 2) bits per slot
    slopes: tuple  # fitted d rate / d log2(P) per user


def _whitened_model(direct, g3, cov, first_slot):
    """One receiver's whitened observation matrix.

    Stacks the white ``direct`` rows over the phase-3 blocks ``g3``
    (T3, n, cols), each whitened by the Cholesky factor of its noise
    covariance ``cov`` (T3, n, n).  Phase-3 slot k is slot first_slot + k;
    the first whose covariance fails the conditioning check raises.
    """
    cond = np.linalg.cond(cov)
    bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
    if bad.any():
        k = int(bad.argmax())
        raise SingularChannelError(first_slot + k, float(cond[k]), "side-information covariance")
    t3, n, cols = g3.shape
    whitened = np.linalg.solve(np.linalg.cholesky(cov), g3)
    return np.concatenate([direct, whitened.reshape(t3 * n, cols)])


def _block_diagonal(h):
    """(T, n, s) per-slot channels as the (T n, T s) block-diagonal matrix."""
    t, n, s = h.shape
    g = np.zeros((t, n, t, s), dtype=complex)
    g[np.arange(t), :, np.arange(t)] = h
    return g.reshape(t * n, t * s)


def _user_models(spec: SchemeSpec, channels: ChannelRealization):
    """End-to-end linear observation models (user by user).

    Returns one (direct, g3, cov) triple per user: the direct observations
    (white noise) as one block-diagonal matrix, and the phase-3
    observations after subtracting the receiver's noisy side information,
    stacked over slots with their colored-noise covariances.  Phase-3
    transmissions are scaled by 1/sqrt(E) so each phase meets the average
    power constraint.
    """
    t1, t2, t3 = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    n1, n2 = spec.N1, spec.N2
    h1, h2 = channels.h1, channels.h2
    scale = 1.0 / np.sqrt(spec.effective_m)
    h1_own, h1_side, h2_side, h2_own = _phase3_windows(spec, h1, h2)
    src1, row1, src2, row2 = _routing_indices(spec)
    slot3 = np.arange(t3)[:, None]

    # row j of slot k's user-1 map picks the symbols of LC (src1, row1)[k, j]
    amap = np.zeros((t3, n1, t1, s1), dtype=complex)
    amap[slot3, np.arange(n1), src1] = h2[src1, row1, :s1]
    g1 = scale * h1_own @ amap.reshape(t3, n1, s1 * t1)
    cov1 = np.eye(n1) + (scale ** 2) * h1_side @ np.swapaxes(h1_side.conj(), 1, 2)

    bmap = np.zeros((t3, n2, t2, s2), dtype=complex)
    bmap[slot3, np.arange(n2), src2 - t1] = h1[src2, row2, :s2]
    g2 = scale * h2_own @ bmap.reshape(t3, n2, s2 * t2)
    cov2 = np.eye(n2) + (scale ** 2) * h2_side @ np.swapaxes(h2_side.conj(), 1, 2)
    return (
        (_block_diagonal(h1[:t1, :, :s1]), g1, cov1),
        (_block_diagonal(h2[t1 : t1 + t2, :, :s2]), g2, cov2),
    )


def rate_slope_estimate(spec: SchemeSpec, seed, snr_db_list) -> RateCurve:
    """Gaussian mutual-information rates and their high-SNR slope fit.

    For each SNR, computes I(u_i; observations)/T via log-determinants of
    the whitened end-to-end model and fits a least-squares line against
    log2(P).  Needs at least three distinct finite SNR points, each low
    enough that its linear power and rates stay finite.
    """
    snr_db = tuple(float(s) for s in snr_db_list)
    if not all(math.isfinite(s) for s in snr_db) or len(set(snr_db)) < 3:
        raise SchemeError("need at least 3 distinct finite SNR points for a slope fit, got %s"
                          % ",".join("%g" % s for s in snr_db))
    if max(spec.symbol_counts) > MAX_GRAM_COLUMNS:
        raise SchemeError("the rate model needs a %d-column Gram matrix, above the limit of %d"
                          % (max(spec.symbol_counts), MAX_GRAM_COLUMNS))
    channels = generate_channels(spec, seed)
    total = spec.total_slots
    t1, t2, _ = spec.phase_lengths

    eigs = []
    for model in _user_models(spec, channels):  # user 1's blocks are checked first
        gw = _whitened_model(*model, first_slot=t1 + t2)
        eigs.append(np.maximum(np.linalg.eigvalsh(gw.conj().T @ gw), 0.0))

    if spec.case == "A":
        s1, s2, _ = spec.symbols_per_slot
        sym_power = (1.0 / s1, 1.0 / s2)
    else:
        per_symbol = 1.0 / (spec.N1 + spec.N2)
        sym_power = (per_symbol, per_symbol)

    rates = np.zeros((len(snr_db), 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, snr in enumerate(snr_db):
            p = np.float64(10.0) ** (snr / 10.0)  # inf, not OverflowError, past ~3080 dB
            for u in (0, 1):
                rates[i, u] = float(np.sum(np.log2(1.0 + p * sym_power[u] * eigs[u]))) / total
    if not np.isfinite(rates).all():
        raise SchemeError("SNR of %g dB overflows the rate computation" % max(snr_db))
    log2p = np.array([snr / 10.0 * np.log2(10.0) for snr in snr_db])
    slopes = tuple(float(np.polyfit(log2p, rates[:, u], 1)[0]) for u in (0, 1))
    return RateCurve(snr_db=snr_db, rates=rates, slopes=slopes)
