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
DoF corner by symbol accounting.  A finite-SNR harness estimates
Gaussian-signaling rates from the same end-to-end linear model, with the
receivers' noisy side information entering as colored noise.
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

    h1: np.ndarray  # (total_slots, N1, M)
    h2: np.ndarray  # (total_slots, N2, M)
    seed: object

    @property
    def total_slots(self) -> int:
        return self.h1.shape[0]


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
    """Everything one run produced: channels, symbols, LCs, signals."""

    spec: SchemeSpec
    channels: ChannelRealization
    u1: np.ndarray  # (s1, T1) user-1 data symbols
    u2: np.ndarray  # (s2, T2)
    lc_user1: np.ndarray  # (T1, needed1) overheard combinations destined to user 1
    lc_user2: np.ndarray  # (T2, needed2)
    x: np.ndarray  # (T, M) transmitted signals
    y1: np.ndarray  # (T, N1) received signals
    y2: np.ndarray  # (T, N2)
    noise_std: float


def run_phases(spec: SchemeSpec, channels: ChannelRealization, symbols,
               noise_std: float = 0.0, noise_seed=None) -> Transcript:
    """Execute the planned phases over one channel realization.

    ``symbols`` is the (u1, u2) pair from draw_symbols.  The transmitter
    reconstructs every overheard LC exactly from delayed CSI and the known
    symbols; receiver noise (optional) only affects the received signals.
    """
    u1, u2 = symbols
    t1, t2, t3 = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    eff = spec.effective_m
    total = spec.total_slots
    if u1.shape != (s1, t1) or u2.shape != (s2, t2):
        raise SchemeError(
            "symbol shapes %r/%r do not match the plan" % (u1.shape, u2.shape)
        )
    if channels.total_slots != total:
        raise SchemeError("channel realization covers %d slots, plan needs %d"
                          % (channels.total_slots, total))

    x = np.zeros((total, spec.M), dtype=complex)
    for t in range(t1):
        x[t, :s1] = u1[:, t]
    for t in range(t2):
        x[t1 + t, :s2] = u2[:, t]
    # overheard combinations, reconstructed from delayed CSI
    lc1 = np.empty((t1, spec.needed1), dtype=complex)
    for t in range(t1):
        lc1[t] = channels.h2[t][: spec.needed1, :s1] @ u1[:, t]
    lc2 = np.empty((t2, spec.needed2), dtype=complex)
    for t in range(t2):
        lc2[t] = channels.h1[t1 + t][: spec.needed2, :s2] @ u2[:, t]
    for k, slot in enumerate(spec.lc_routing):
        t = t1 + t2 + k
        for j, (src, row) in enumerate(slot.user1_lcs):
            x[t, j] += lc1[src, row]
        for j, (src, row) in enumerate(slot.user2_lcs):
            x[t, eff - spec.N2 + j] += lc2[src - t1, row]

    y1 = np.einsum("tnm,tm->tn", channels.h1, x)
    y2 = np.einsum("tnm,tm->tn", channels.h2, x)
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
    symbols_user1: int
    symbols_user2: int
    residual_user1: float
    residual_user2: float
    max_condition: float
    solves: int  # matrices inverted
    ill_conditioned: int  # of those, how many exceeded ILL_CONDITIONED
    spec: SchemeSpec  # the decoded plan, whose target_dof() the symbols realize


def _checked_solve(matrix, rhs, slot, what):
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularChannelError(slot, float(cond), what)
    return np.linalg.solve(matrix, rhs), cond


def decode(transcript: Transcript) -> DecodingReport:
    """Recover both users' symbols by exact linear solves.

    Phase 3: each receiver subtracts the forwarded LCs it already holds
    (rows of its own earlier received signal) and inverts the square
    submatrix of its channel under the other LCs' antenna positions.
    Phases 1-2: each user stacks its direct observations with the
    recovered combinations and solves one square system per slot on its
    first s_i rows and columns, s_i the symbols sent per slot: the whole
    stack in cases B/C, the direct rows alone in case A.
    """
    spec = transcript.spec
    ch = transcript.channels
    t1, t2, t3 = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    eff = spec.effective_m
    n1, n2 = spec.N1, spec.N2
    conds = []  # condition number of every inverted matrix

    rec1 = {}  # (source slot, row) -> recovered user-1-destined LC value
    rec2 = {}
    for k, slot in enumerate(spec.lc_routing):
        t = t1 + t2 + k
        # user 1 cancels the user-2-destined LCs: rows of its own phase-2 signal
        known2 = np.array(
            [transcript.y1[src][row] for src, row in slot.user2_lcs], dtype=complex
        )
        resid = transcript.y1[t] - ch.h1[t][:, eff - n2 : eff] @ known2
        vals, cond = _checked_solve(
            ch.h1[t][:, :n1], resid, t, "user-1 alignment solve"
        )
        conds.append(cond)
        for j, lc_id in enumerate(slot.user1_lcs):
            rec1[lc_id] = vals[j]
        # user 2 cancels the user-1-destined LCs: rows of its phase-1 signal
        known1 = np.array(
            [transcript.y2[src][row] for src, row in slot.user1_lcs], dtype=complex
        )
        resid = transcript.y2[t] - ch.h2[t][:, :n1] @ known1
        vals, cond = _checked_solve(
            ch.h2[t][:, eff - n2 : eff], resid, t, "user-2 alignment solve"
        )
        conds.append(cond)
        for j, lc_id in enumerate(slot.user2_lcs):
            rec2[lc_id] = vals[j]

    u1_hat = np.zeros_like(transcript.u1)
    for t in range(t1):
        g = np.vstack([ch.h1[t][:, :s1], ch.h2[t][: spec.needed1, :s1]])
        rhs = np.concatenate(
            [transcript.y1[t], [rec1[(t, r)] for r in range(spec.needed1)]]
        )
        sol, cond = _checked_solve(g[:s1], rhs[:s1], t, "user-1 data solve")
        u1_hat[:, t] = sol
        conds.append(cond)
    u2_hat = np.zeros_like(transcript.u2)
    for t in range(t2):
        g = np.vstack([ch.h2[t1 + t][:, :s2], ch.h1[t1 + t][: spec.needed2, :s2]])
        rhs = np.concatenate(
            [transcript.y2[t1 + t], [rec2[(t1 + t, r)] for r in range(spec.needed2)]]
        )
        sol, cond = _checked_solve(g[:s2], rhs[:s2], t1 + t, "user-2 data solve")
        u2_hat[:, t] = sol
        conds.append(cond)

    res1 = float(np.max(np.abs(u1_hat - transcript.u1))) if transcript.u1.size else 0.0
    res2 = float(np.max(np.abs(u2_hat - transcript.u2))) if transcript.u2.size else 0.0
    return DecodingReport(
        symbols_user1=int(transcript.u1.size),
        symbols_user2=int(transcript.u2.size),
        residual_user1=res1,
        residual_user2=res2,
        max_condition=max(conds, default=0.0),
        solves=len(conds),
        ill_conditioned=sum(1 for c in conds if c > ILL_CONDITIONED),
        spec=spec,
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
    """Monte Carlo wrapper: plan once, then run/decode independent trials."""
    if trials < 1:
        raise SchemeError("need at least one trial")
    spec = plan_two_user(M, N1, N2, time_weights=time_weights)
    children = _seed_sequence(seed).spawn(trials)
    failures = []
    max_res = 0.0
    max_cond = 0.0
    solves = 0
    ill = 0
    for i, child in enumerate(children):
        ch_seed, sym_seed = child.spawn(2)
        channels = generate_channels(spec, ch_seed)
        symbols = draw_symbols(spec, sym_seed)
        transcript = run_phases(spec, channels, symbols)
        try:
            report = decode(transcript)
        except SingularChannelError as err:
            failures.append((i, err.slot, err.cond))
            continue
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


def _whitened_blocks(blocks):
    """Whiten (G, cov, slot) blocks; cov=None means white noise."""
    out = []
    for g, cov, slot in blocks:
        if cov is None:
            out.append(g)
            continue
        cond = np.linalg.cond(cov)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularChannelError(slot, float(cond), "side-information covariance")
        chol = np.linalg.cholesky(cov)
        out.append(np.linalg.solve(chol, g))
    return np.vstack(out) if out else np.zeros((0, 0))


def _user_models(spec: SchemeSpec, channels: ChannelRealization):
    """End-to-end linear observation models (user by user).

    Returns two block lists [(G, cov, slot)] where each row block is what
    the receiver actually processes: direct observations (white noise) and
    phase-3 observations after subtracting the receiver's noisy side
    information (colored noise).  Phase-3 transmissions are scaled by
    1/sqrt(E) so each phase meets the average power constraint.
    """
    t1, t2, t3 = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    eff = spec.effective_m
    n1, n2 = spec.N1, spec.N2
    scale = 1.0 / np.sqrt(eff)
    cols1 = s1 * t1
    cols2 = s2 * t2
    blocks1 = []
    for t in range(t1):
        g = np.zeros((n1, cols1), dtype=complex)
        g[:, t * s1 : (t + 1) * s1] = channels.h1[t][:, :s1]
        blocks1.append((g, None, t))
    blocks2 = []
    for t in range(t2):
        g = np.zeros((n2, cols2), dtype=complex)
        g[:, t * s2 : (t + 1) * s2] = channels.h2[t1 + t][:, :s2]
        blocks2.append((g, None, t1 + t))
    for k, slot in enumerate(spec.lc_routing):
        t = t1 + t2 + k
        amap = np.zeros((n1, cols1), dtype=complex)
        for j, (src, row) in enumerate(slot.user1_lcs):
            amap[j, src * s1 : (src + 1) * s1] = channels.h2[src][row, :s1]
        g1 = scale * channels.h1[t][:, :n1] @ amap
        side1 = channels.h1[t][:, eff - n2 : eff]
        cov1 = np.eye(n1) + (scale ** 2) * side1 @ side1.conj().T
        blocks1.append((g1, cov1, t))

        bmap = np.zeros((n2, cols2), dtype=complex)
        for j, (src, row) in enumerate(slot.user2_lcs):
            bmap[j, (src - t1) * s2 : (src - t1 + 1) * s2] = channels.h1[src][row, :s2]
        g2 = scale * channels.h2[t][:, eff - n2 : eff] @ bmap
        side2 = channels.h2[t][:, :n1]
        cov2 = np.eye(n2) + (scale ** 2) * side2 @ side2.conj().T
        blocks2.append((g2, cov2, t))
    return blocks1, blocks2


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
    channels = generate_channels(spec, seed)
    blocks1, blocks2 = _user_models(spec, channels)
    total = spec.total_slots

    eigs = []
    for blocks in (blocks1, blocks2):
        if blocks:
            gw = _whitened_blocks(blocks)
            gram = gw.conj().T @ gw
            lam = np.maximum(np.linalg.eigvalsh(gram), 0.0)
        else:
            lam = np.zeros(0)
        eigs.append(lam)

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
