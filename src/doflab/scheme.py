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
* phase 3 forwards each user's LCs once, in (source slot, row) order, N_i
  per slot: the routing is a row-major reshape of the (T_i, E - N_i) LC
  array into (T3, N_i).

The two users are handled alike.  ``_users`` states the layout once, one
entry per user i: the slots of its own phase, the symbols s_i sent per
slot, N_i, the LCs it is owed per slot and the first phase-3 antenna of
those LCs (0 for user 1, E - N2 for user 2); the other user is 1 - i.
``_cuts`` states each user's channel cuts by that table once, and
``run_phases``, ``decode`` and the rate model read them; the phase-3
windows are cut only where they are read.

M <= N1 needs no alignment: plain time division between single-user
transmissions traces the region's dominant face.  It runs through the same
phase machinery with an empty phase 3 and no overheard combinations, and a
single-user component of a three-user plan is a time-division plan on
min(M, N) antennas that gives user 1 all the air time.

Decoding is by floating-point LU solves, checked against RESIDUAL_TOL; a
noiseless decode within it certifies the DoF corner by exact symbol
accounting.  The Monte Carlo wrapper runs and decodes its trials in blocks,
as arrays over a leading trial axis, and every kind of matrix a trial
inverts gets one batched LAPACK solve over the whole block, against
[I | b]: each matrix is factored once, and that one LU gives both the
solution and the inverse that screens its condition number as
kappa_F = |H|_F |H^-1|_F, between the 2-norm value and n times it.  The
SVD (``np.linalg.cond``) is re-taken only where that bound could matter
(``_conditions``), so every threshold test, failure and maximum reads the
SVD's value.  Every draw goes through ``_draw``: each trial's generator
fills its row of the block's buffer with one call, and each complex array
is built once per block.  The trials' seeds are numpy's SeedSequence spawn
tree, hashed for the whole call at once (``_seeds``), bit for bit.
``simulate_runs`` stacks the trials of several seeds' runs on one plan,
run after run, and ``decode`` reports each run as if decoded alone.
A trial that fails the conditioning check is still reported with its slot;
a matrix with a NaN or inf entry fails it with condition inf, without an SVD.
A finite-SNR harness estimates Gaussian-signaling rates from the same
end-to-end linear model, with the receivers' noisy side information
entering as colored noise.  The routing reshape makes that model
block-diagonal: lcm(needed_i, N_i) consecutive LCs of user i fill whole
own slots and whole phase-3 slots, so each such group is one small
block, and one batched eigvalsh of the blocks' Gram matrices gives the
rates.

Runaway inputs are refused up front: more than MAX_SLOT_TRIALS trials x
slots, a trial of more than MAX_TRIAL_ENTRIES channel entries (slots x
(N1 + N2) x M), rate models with more than MAX_GRAM_COLUMNS symbols per
user, and trials whose seed sequence would spawn past MAX_SPAWNED children.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import index
from typing import NamedTuple

import numpy as np
# numpy's own private ufunc module behind np.linalg.cond, inv and solve, loaded
# with numpy.linalg.  Its batched gesv against [I | b] gives np.linalg.solve's
# solution and np.linalg.inv's inverse bit for bit: a property of the LAPACK
# beneath (verified on numpy 2.4.6 with scipy-openblas 0.3.31 only), which
# tests/test_scheme.py pins.
from numpy.linalg import _umath_linalg

from .exactgeom import rat
from .regions import DominantFace, point_Q

__all__ = [
    "SchemeError",
    "SingularChannelError",
    "SchemeSpec",
    "ChannelRealization",
    "Transcript",
    "DecodingReport",
    "TrialSummary",
    "RateCurve",
    "plan_two_user",
    "generate_channels",
    "draw_symbols",
    "run_phases",
    "decode",
    "check_trial_size",
    "simulate_trials",
    "simulate_runs",
    "rate_slope_estimate",
]

COND_LIMIT = 1e10  # a decoding matrix above this condition number fails the trial
ILL_CONDITIONED = 1e8  # solves above this condition number are counted, not failed
RESIDUAL_TOL = 1e-8  # largest symbol error of a decode that certifies the corner
MAX_SLOT_TRIALS = 10**6  # simulate_trials refuses more trials x slots than this, per run
MAX_TRIAL_ENTRIES = 10**7  # simulate_trials refuses a trial of more channel entries than this
MAX_GRAM_COLUMNS = 2048  # rate_slope_estimate refuses more symbols than this for one user
MAX_SPAWNED = 2**32 - 1  # numpy's SeedSequence.spawn never returns past this many children
_BLOCK_ENTRIES = 1 << 16  # complex channel entries stacked per block of trials
# decode screens condition numbers with kappa_F = |H|_F |H^-1|_F, a two-sided
# bound on the 2-norm value: kappa_2 <= kappa_F <= n kappa_2.
# decode takes the inverse from its LU solve with partial pivoting against
# [I | b], as numpy.linalg.inv does against I, so each column x_j of
# the computed inverse X solves (H + dH_j) x_j = e_j with |dH_j| <= delta |H|,
# where delta is about gamma_3n c(n) 2^(n-1), below 1e-9 for n <= 8 even at
# the worst pivot growth (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, ch. 9 and 14).  Then |X|_F >= 1 / (sigma_min +
# delta |H|), so a matrix with kappa_2 >= ILL_CONDITIONED screens at about
# 1e7 or more, far above SCREEN = 1e3; below SCREEN the screened value is
# off by a relative SCREEN delta at most, far under BAND = 1e-6.  If the
# squares of H's entries underflow, those of H^-1's overflow: the screen
# gives inf or NaN, and the matrix is re-taken.  The SVD is re-taken for
# every value a threshold can see and, as no matrix holds a kappa_2 above
# its kappa_F, for every kept matrix whose kappa_F reaches within BAND of
# the largest kept SVD value taken.
SCREEN = 1e3
BAND = 1e-6


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
class SchemeSpec:
    M: int
    N1: int
    N2: int
    case: str  # "A", "B", or "C"
    effective_m: int
    phase_lengths: tuple  # (T1, T2, T3) slot counts
    symbols_per_slot: tuple  # fresh symbols per slot in phases 1 and 2

    @property
    def total_slots(self) -> int:
        return sum(self.phase_lengths)

    @property
    def channel_entries(self) -> int:
        """Complex channel entries one trial draws: slots x (N1 + N2) x M."""
        return self.total_slots * (self.N1 + self.N2) * self.M

    @property
    def needed1(self) -> int:
        """Extra LCs user 1 is short per phase-1 slot."""
        return max(self.symbols_per_slot[0] - self.N1, 0)

    @property
    def needed2(self) -> int:
        return max(self.symbols_per_slot[1] - self.N2, 0)

    @property
    def symbol_counts(self) -> tuple:
        return tuple(t * s for t, s in zip(self.phase_lengths[:2], self.symbols_per_slot))

    def target_dof(self) -> tuple:
        """The exact DoF pair this plan realizes."""
        return tuple(Fraction(n, self.total_slots) for n in self.symbol_counts)


def plan_two_user(M: int, N1: int, N2: int, time_weights=None) -> SchemeSpec:
    """Plan the transmission for antenna setup (M, N1, N2).

    M <= N1 yields the case-A time-division plan; ``time_weights`` then
    splits the air time between the users (defaults to an even split) and
    must be a pair of nonnegative rationals summing to one.  Larger M
    yields the three-phase alignment plan (case B below N1+N2, case C at or
    above, where only N1+N2 transmit antennas are used).  Antenna counts
    must be integers; numpy's are taken as ints.
    """
    try:  # numpy's integers pass, as ints; floats and Fractions do not
        M, N1, N2 = index(M), index(N1), index(N2)
    except TypeError:
        raise SchemeError("antenna counts must be integers, got M=%r N1=%r N2=%r" % (M, N1, N2)) from None
    if not 1 <= N2 <= N1:
        raise SchemeError("need N1 >= N2 >= 1, got N1=%d N2=%d" % (N1, N2))
    if M < 1:
        raise SchemeError("need M >= 1")

    if M <= N1:
        if time_weights is None:
            time_weights = (Fraction(1, 2), Fraction(1, 2))
        if not (isinstance(time_weights, (tuple, list)) and len(time_weights) == 2
                and all(isinstance(w, Rational) for w in time_weights)):
            raise SchemeError("time weights must be a pair of rationals, got %r" % (time_weights,))
        w1, w2 = (rat(w) for w in time_weights)
        if w1 < 0 or w2 < 0 or w1 + w2 != 1:
            raise SchemeError("time weights must be nonnegative and sum to 1")
        scale = math.lcm(w1.denominator, w2.denominator)
        case, eff = "A", M
        lengths = (int(w1 * scale), int(w2 * scale), 0)
        symbols = (M, min(M, N2), 0)
    elif time_weights is not None:
        raise SchemeError("time weights apply only to the time-division case (M <= N1)")
    else:
        case, eff = "B" if M < N1 + N2 else "C", min(M, N1 + N2)
        lengths = (N1 * (eff - N2), N2 * (eff - N1), (eff - N1) * (eff - N2))
        symbols = (eff, eff, 0)
    return SchemeSpec(M=M, N1=N1, N2=N2, case=case, effective_m=eff,
                      phase_lengths=lengths, symbols_per_slot=symbols)


class _User(NamedTuple):
    """One user's share of the two-user layout; the other user is 1 - i."""

    own: slice  # the slots of the user's own phase
    t: int  # their count, T_i
    s: int  # fresh symbols sent per slot, s_i
    n: int  # receive antennas, N_i
    needed: int  # LCs the user is owed per own-phase slot
    lo: int  # first phase-3 antenna of the user's LCs


@functools.cache
def _users(spec: SchemeSpec):
    """The per-user table, user 1 then user 2 (see the module docstring)."""
    t1, t2, _ = spec.phase_lengths
    s1, s2, _ = spec.symbols_per_slot
    return (
        _User(slice(0, t1), t1, s1, spec.N1, spec.needed1, 0),
        _User(slice(t1, t1 + t2), t2, s2, spec.N2, spec.needed2, spec.effective_m - spec.N2),
    )


class _Cut(NamedTuple):
    """One user's channel cuts, over the channels' leading trial axes, as views.

    ``direct`` and ``lcmap`` are cut with the ``_Cut``; the phase-3 windows
    ``align`` and ``side`` are cut each time they are read, as
    ``run_phases`` reads neither.  With M <= N1 there is no phase-3 slot,
    and each window is an empty stack of its shape.
    """

    direct: np.ndarray  # (..., T_i, N_i, s_i) its channel in its own phase, on its symbols
    lcmap: np.ndarray  # (..., T_i, needed_i, s_i) the other receiver's there, under the LCs
    h: np.ndarray  # (..., T, N_i, M) its whole channel
    phase3: slice  # the phase-3 slots
    own: slice  # the phase-3 antennas of its own LCs
    other: slice  # the phase-3 antennas of the other user's LCs

    @property
    def align(self):  # (..., T3, N_i, N_i) its phase-3 channel under its own LCs' antennas
        return self._window(self.own)

    @property
    def side(self):  # (..., T3, N_i, N_other) its phase-3 channel under the other user's LCs
        return self._window(self.other)

    def _window(self, antennas):
        window = self.h[..., self.phase3, :, antennas]
        width = antennas.stop - antennas.start
        if window.shape[-1] == width:
            return window
        return window.reshape(window.shape[:-1] + (width,))  # no slot: an empty stack


def _cuts(spec: SchemeSpec, h1, h2):
    """Each user's ``_Cut`` of the channels h1 and h2, user 1 then user 2."""
    users, hs = _users(spec), (h1, h2)
    total = spec.total_slots
    phase3 = slice(total - spec.phase_lengths[2], total)
    antennas = [slice(user.lo, user.lo + user.n) for user in users]
    return tuple(_Cut(h[..., user.own, :, : user.s], heard[..., user.own, : user.needed, : user.s],
                      h, phase3, own, other)
                 for user, h, heard, own, other in zip(users, hs, hs[::-1], antennas, antennas[::-1]))


@functools.cache
def _solve_order(spec: SchemeSpec):
    """The slots and the names of the matrices a trial inverts, in decode's
    order: per phase-3 slot the user-1 then the user-2 alignment matrix,
    then the phase-1 and the phase-2 data matrices."""
    total, t3 = spec.total_slots, spec.phase_lengths[2]
    users = _users(spec)
    slots = [slot for slot in range(total - t3, total) for _ in users] + list(range(total - t3))
    what = (["user-%d alignment solve" % (i + 1) for _ in range(t3) for i in range(len(users))]
            + ["user-%d data solve" % (i + 1) for i, user in enumerate(users) for _ in range(user.t)])
    return tuple(slots), tuple(what)


@functools.cache
def _corner(spec: SchemeSpec):
    """The plan's exact DoF pair, and whether it is the corner point_Q names
    for (M, N1, N2), or lies on the dominant face it names."""
    achieved = spec.target_dof()
    corner = point_Q(spec.M, spec.N1, spec.N2)
    if isinstance(corner, DominantFace):
        return achieved, corner.line.active(achieved)
    return achieved, achieved == corner


@dataclass(eq=False)
class ChannelRealization:
    """I.i.d. Rayleigh channel draws for every slot and user."""

    h1: np.ndarray  # ([trials,] total_slots, N1, M)
    h2: np.ndarray  # ([trials,] total_slots, N2, M)

    @property
    def total_slots(self) -> int:
        return self.h1.shape[-3]


def _draw(seeds, shapes):
    """Standard complex Gaussian arrays of ``shapes``, stacked over ``seeds``.

    Each seed (an int, a SeedSequence or ``_seeds.SeedWords``) gets its own
    PCG64 generator, which fills one row of a float buffer with a single
    ``standard_normal`` call: per shape in turn, the real parts and then the
    imaginary parts, in C order.  PCG64 draws a fused call's numbers in the
    same order as one call per part, so a seed's row is what separate calls
    would draw.  Each complex array is then built once for the whole stack,
    shaped (len(seeds),) + shape, in one pass: its real and imaginary parts
    are copied in from the buffer and the array is scaled by 1/sqrt(2) in
    place, the same bits as (re + 1j im) / sqrt(2) without its temporaries.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.empty((len(seeds), 2 * sum(sizes)))
    for row, seed in zip(buffer, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    out, at = [], 0
    for shape, size in zip(shapes, sizes):
        part = buffer[:, at : at + 2 * size].reshape((len(seeds), 2) + shape)  # re, then im
        z = np.empty((len(seeds),) + shape, dtype=complex)
        z.real, z.imag = part[:, 0], part[:, 1]
        z /= np.sqrt(2.0)
        out.append(z)
        at += 2 * size
    return out


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _channels(spec: SchemeSpec, seeds) -> ChannelRealization:
    """``generate_channels`` for each seed, stacked over a leading trial axis."""
    return ChannelRealization(*_draw(seeds, [(spec.total_slots, user.n, spec.M)
                                             for user in _users(spec)]))  # h1 drawn first


def _symbols(spec: SchemeSpec, seeds, power: float = 1.0):
    """``draw_symbols`` for each seed, stacked over a leading trial axis."""
    scale = np.sqrt(power)
    return tuple(scale * u for u in _draw(seeds, [(user.s, user.t) for user in _users(spec)]))  # u1 first


def generate_channels(spec: SchemeSpec, seed) -> ChannelRealization:
    """Standard complex Gaussian H_i(t), reproducible from the seed."""
    stack = _channels(spec, [seed])
    return ChannelRealization(stack.h1[0], stack.h2[0])


def draw_symbols(spec: SchemeSpec, seed, power: float = 1.0):
    """I.i.d. complex Gaussian data symbols for both users."""
    return tuple(u[0] for u in _symbols(spec, [seed], power))


@dataclass(eq=False)
class Transcript:
    """Everything one run produced: channels, symbols, LCs, signals.

    Every array may carry a leading trial axis; a single run has none.  The
    received signals carry the receiver noise, if any was drawn; its level
    is not kept.
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
    users = _users(spec)
    hs = (channels.h1, channels.h2)
    total, t3 = spec.total_slots, spec.phase_lengths[2]
    trials = symbols[0].shape[:-2]
    if any(u.shape != trials + (user.s, user.t) for user, u in zip(users, symbols)):
        raise SchemeError(
            "symbol shapes %r/%r do not match the plan" % tuple(u.shape for u in symbols)
        )
    if channels.total_slots != total:
        raise SchemeError("channel realization covers %d slots, plan needs %d"
                          % (channels.total_slots, total))
    if any(h.shape[:-3] != trials for h in hs):
        raise SchemeError("channels and symbols stack different trial counts")

    x = np.zeros(trials + (total, spec.M), dtype=complex)
    lcs = []
    for user, cut, u in zip(users, _cuts(spec, *hs), symbols):
        sent = np.swapaxes(u, -1, -2)
        x[..., user.own, : user.s] = sent
        lc = _apply(cut.lcmap, sent)  # what the other receiver overheard, from delayed CSI
        if t3:  # phase 3 forwards every overheard LC once: the routing reshape
            x[..., total - t3 :, user.lo : user.lo + user.n] += lc.reshape(trials + (t3, user.n))
        lcs.append(lc)

    ys = [np.einsum("...tnm,...tm->...tn", h, x) for h in hs]
    if noise_std > 0.0:  # drawn for y1 first, then y2
        ys = [y + noise_std * z[0] for y, z in zip(ys, _draw([noise_seed], [y.shape for y in ys]))]
    return Transcript(
        spec=spec, channels=channels, u1=symbols[0], u2=symbols[1],
        lc_user1=lcs[0], lc_user2=lcs[1], x=x, y1=ys[0], y2=ys[1],
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
    runs: tuple = ()  # each run's own report, when the stack holds more than one


def _screened_solve(matrices, rhs):
    """Solve (..., n, n) ``matrices`` against (..., n) ``rhs`` and screen them.

    One batched LAPACK gesv against [I | rhs] factors each matrix once and
    gives its inverse and its solution, each bit for bit what
    ``np.linalg.inv`` and ``np.linalg.solve`` give.  Returns the solutions
    and the screens kappa_F = |H|_F |H^-1|_F, ``np.linalg.cond(m, "fro")``
    bit for bit: a singular matrix, whose solution is NaN, screens as inf
    and one with a NaN entry as NaN.  An empty stack returns at once, with
    no LAPACK call.  Raises and warns about nothing; the inverses are
    dropped here.
    """
    n = matrices.shape[-1]
    if not matrices.size:
        return np.empty(matrices.shape[:-1], dtype=complex), np.empty(matrices.shape[:-2])
    b = np.empty(matrices.shape[:-1] + (n + 1,), dtype=complex)
    b[..., :n] = np.eye(n)
    b[..., n] = rhs
    with np.errstate(all="ignore"):
        x = _umath_linalg.solve(matrices, b, signature="DD->D")
        screens = _frobenius(matrices) * _frobenius(x[..., :n])
    nan = np.isnan(screens)
    if nan.any():
        screens[nan & ~np.isnan(matrices).any(axis=(-2, -1))] = np.inf
    return x[..., n].copy(), screens


def _frobenius(x):
    """``np.linalg.norm(x, "fro", axis=(-2, -1))`` of a complex stack, by
    numpy's own formula for it, without the wrapper's argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def _unusable(conds):
    """The condition numbers at which a trial fails: not finite or above COND_LIMIT."""
    return ~np.isfinite(conds) | (conds > COND_LIMIT)


def _conditions(stacks, screens, runs=(slice(None),)):
    """``np.linalg.cond`` of (trials, k, n, n) stacks, wherever decode reads it.

    ``screens`` holds each stack's kappa_F, (trials, k), from the inverses
    of the LU that solved it (``_screened_solve``): a singular matrix
    screens as inf and one with a NaN entry as NaN.  The SVD is re-taken
    for every matrix not screened below SCREEN, NaN and inf included.  For
    the maximum over each run's trials without an unusable matrix, it is
    re-taken for each stack's first kept matrix of largest value in the run
    and then, since kappa_2 <= kappa_F, for every kept matrix whose kappa_F
    reaches within BAND of the run's largest SVD value so taken: no other
    can hold the run's maximum.  ``runs`` holds the row slices of the
    contiguous runs of trials, in order, by default one run of every row.
    Each round of re-takes makes one ``np.linalg.cond`` call per matrix
    size, over the picked matrices of every stack of that size.
    ``np.linalg.cond`` factors each matrix of a stack on its own, so a
    re-taken value is the full stack's bit for bit; the rest are kappa_F,
    between kappa_2 and n kappa_2 (see SCREEN).  A matrix with a NaN or inf
    entry is given condition inf without an SVD.
    No value depends on the order of the stacks.
    Returns the values, (trials, k) per stack, views of one array that
    holds the stacks' columns in turn; ``screens`` is left as it is.
    """
    c = np.concatenate(screens, axis=1)
    trials = len(c)
    exact = np.zeros(c.shape, dtype=bool)  # which values are the SVD's
    spans, sizes = [], {}  # each stack's columns of c; the spans of each matrix size
    for m, hi in zip(stacks, itertools.accumulate(screen.shape[1] for screen in screens)):
        spans.append((m, hi - m.shape[1], hi))
        sizes.setdefault(m.shape[-1], []).append(spans[-1])

    def retake(where):  # one np.linalg.cond call per matrix size
        where &= ~exact
        if not np.count_nonzero(where):
            return
        exact[where] = True
        for group in sizes.values():
            picked = [(m[w], lo, hi, w) for m, lo, hi in group if np.count_nonzero(w := where[:, lo:hi])]
            if not picked:
                continue
            sub = np.concatenate([p[0] for p in picked])
            finite = np.isfinite(sub).all(axis=(-2, -1))  # LAPACK fails or complains on the rest
            values = np.full(len(sub), np.inf)
            values[finite] = np.linalg.cond(sub[finite])
            at = 0
            for taken, lo, hi, w in picked:
                c[:, lo:hi][w] = values[at : at + len(taken)]
                at += len(taken)

    retake(~(c < SCREEN))  # returns at once when every screen is below SCREEN
    kept = ~_unusable(c).any(axis=1)[:, None]
    top = np.where(kept, c, 0.0)
    first = np.zeros(c.shape, dtype=bool)
    starts = [rows.indices(trials)[0] for rows in runs]
    for rows, start in zip(runs, starts):
        for _, lo, hi in spans:
            block = top[rows, lo:hi]
            if block.size:  # the stack's first kept matrix of largest value in the run
                row, col = divmod(int(block.argmax()), hi - lo)
                first[start + row, lo + col] = top[start + row, lo + col] > 0
    retake(first)
    if trials:  # each run's rows compare with its own largest value
        peaks = np.maximum.reduceat(np.where(kept & exact, c, 0.0).max(axis=1), starts)
        band = np.repeat((1.0 - BAND) * peaks, np.diff(starts + [trials]))[:, None]
        retake(kept & (c >= band))
    return [c[:, lo:hi] for _, lo, hi in spans]


def decode(transcript: Transcript, runs=None) -> DecodingReport:
    """Recover both users' symbols by floating-point linear solves.

    Each solve is an LU solve; a noiseless decode certifies the corner when
    its largest symbol error is below RESIDUAL_TOL.  Both users decode
    alike, each in one pass over its ``_cuts``.
    Phase 3: each receiver subtracts the forwarded LCs it already holds
    (rows of its own signal in the other user's phase) and inverts the
    square submatrix of its channel under its own LCs' antenna positions.
    Phases 1-2: each user stacks its direct observations with the
    recovered combinations and solves one square system per slot on its
    first s_i rows and columns, s_i the symbols sent per slot: the whole
    stack in cases B/C, the direct rows alone in case A.

    Each user's alignment matrices, whose solutions complete its data
    right-hand sides, then its data matrices, are solved for every trial of
    the stack by one LAPACK call each (``_screened_solve``): each matrix is
    factored once, and the same LU gives its kappa_F screen.  A trial
    inverts, in order (``_solve_order``): per phase-3 slot the user-1 then
    the user-2 alignment matrix, then the phase-1 and the phase-2 data
    matrices.  ``_conditions`` then re-takes the SVD for the values at or
    above SCREEN and for the kept matrices that may hold the maximum, so
    the failures, ``ill_conditioned`` and ``max_condition`` all read the
    SVD's value.  A trial fails at its first matrix that is not finite or
    above COND_LIMIT; its solutions are dropped and it counts toward
    nothing else.  A single run that fails raises SingularChannelError; a
    stack of trials lists its failed trials in ``failures``.

    ``runs``, the trial counts of the contiguous runs a stack holds in
    order (any iterable), splits it into runs that are each reported as if
    decoded alone: ``_conditions`` re-takes the SVD for each run's maximum,
    and, for more than one run, ``runs`` of the report holds one report per
    run, its failures numbered from the run's first trial.  The report's
    own fields cover the whole stack.
    """
    spec = transcript.spec
    users = _users(spec)
    total, t3 = spec.total_slots, spec.phase_lengths[2]
    single = transcript.u1.ndim == 2
    hs, ys, us = (
        [a[None] if single else a for a in pair]
        for pair in ((transcript.channels.h1, transcript.channels.h2),
                     (transcript.y1, transcript.y2), (transcript.u1, transcript.u2))
    )
    trials = len(hs[0])
    # per user, for every trial, the alignment solves and then the data
    # solves, whose right-hand sides the alignment solutions complete
    stacks, screens, u_hats = [], [], []
    for user, other, cut, y in zip(users, users[::-1], _cuts(spec, *hs), ys):
        # the routing reshape: the other user's LCs are rows of this
        # receiver's signal in the other user's phase; its side channel
        # under them cancels them
        known = y[:, other.own, : other.needed].reshape(trials, t3, other.n)
        align = cut.align
        lc, align_screen = _screened_solve(align, y[:, total - t3 :] - _apply(cut.side, known))
        data = np.concatenate([cut.direct, cut.lcmap], axis=2)[:, :, : user.s]
        u_hat, data_screen = _screened_solve(data, np.concatenate(
            [y[:, user.own], lc.reshape(trials, user.t, user.needed)], axis=2)[:, :, : user.s])
        stacks += [align, data]
        screens += [align_screen, data_screen]
        u_hats.append(u_hat)
    if runs is None:
        bounds = [slice(None)]
    else:
        runs = tuple(runs)
        ends = list(itertools.accumulate(runs))
        if min(runs, default=0) < 1 or ends[-1] != trials:
            raise SchemeError("runs of %r trials do not split a stack of %d" % (runs, trials))
        bounds = [slice(end - n, end) for n, end in zip(runs, ends)]
    align1, data1, align2, data2 = _conditions(stacks, screens, bounds)
    # decode's order: the two users' alignment matrices slot by slot, then the data matrices
    align = np.stack([align1, align2], axis=2).reshape(trials, 2 * t3)
    conds = np.concatenate([align, data1, data2], axis=1)
    slots, what = _solve_order(spec)
    bad = _unusable(conds)
    failed, first = bad.any(axis=1), bad.argmax(axis=1)
    if single and failed[0]:
        raise SingularChannelError(slots[first[0]], float(conds[0, first[0]]), what[first[0]])

    # per trial without a failure, each user's largest symbol error and the
    # largest condition, and whether it counts and its values above
    # ILL_CONDITIONED; a failed trial counts toward nothing
    peaks = np.stack([np.abs(np.swapaxes(u_hat, 1, 2) - u).max(axis=(1, 2), initial=0.0)
                      for u_hat, u in zip(u_hats, us)] + [conds.max(axis=1, initial=0.0)])
    counts = np.stack([~failed, np.count_nonzero(conds > ILL_CONDITIONED, axis=1)])
    failures = [(int(i), int(slots[first[i]]), float(conds[i, first[i]]), what[first[i]])
                for i in np.flatnonzero(failed)]
    if failures:
        peaks[:, failed] = 0.0
        counts[:, failed] = 0

    def report(peak, count, failures, runs=()):
        return DecodingReport(*spec.symbol_counts, *peak[:2], max_condition=peak[2],
                              solves=count[0] * conds.shape[1], ill_conditioned=count[1],
                              spec=spec, failures=tuple(failures), runs=runs)

    parts = ()
    if len(bounds) > 1:  # each run's own maxima and sums, its failures numbered from its first trial
        starts = [rows.start for rows in bounds]
        parts = tuple(
            report(peak, count, [(i - rows.start, *f) for i, *f in failures if rows.start <= i < rows.stop])
            for peak, count, rows in zip(np.maximum.reduceat(peaks, starts, axis=1).T.tolist(),
                                         np.add.reduceat(counts, starts, axis=1).T.tolist(), bounds))
    return report(peaks.max(axis=1, initial=0.0).tolist(), counts.sum(axis=1).tolist(), failures, parts)


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


def check_trial_size(spec: SchemeSpec, trials: int) -> None:
    """Refuse ``trials`` runs of ``spec`` before anything is drawn: more than
    MAX_SLOT_TRIALS trials x slots, or a trial of more than
    MAX_TRIAL_ENTRIES channel entries."""
    if trials * spec.total_slots > MAX_SLOT_TRIALS:
        raise SchemeError("%d trials of %d slots exceed the limit of %d slot-trials"
                          % (trials, spec.total_slots, MAX_SLOT_TRIALS))
    if spec.channel_entries > MAX_TRIAL_ENTRIES:
        raise SchemeError("a trial of %d slots draws %d channel entries, above the limit of %d"
                          % (spec.total_slots, spec.channel_entries, MAX_TRIAL_ENTRIES))


def simulate_runs(M: int, N1: int, N2: int, trials: int, seeds,
                  time_weights=None) -> tuple:
    """Monte Carlo wrapper over several seeds: one ``simulate_trials`` run
    of ``trials`` trials per seed, all stacked as one.

    Returns one TrialSummary per seed, in order, each bit for bit what
    ``simulate_trials`` gives for that seed alone, its failures numbered
    from its own first trial.  Each seed's trial seeds are hashed by
    ``_seeds.trial_seeds`` and a SeedSequence seed advanced as
    ``simulate_trials`` does it, in order.  The runs' trials, one run
    after another, then go in blocks of at most _BLOCK_ENTRIES channel
    entries, as ``simulate_trials``'s do, and ``decode`` learns where each
    run starts within a block.  ``check_trial_size`` refuses the trials of one
    run, as ``simulate_trials`` would, before anything is hashed.
    """
    if trials < 1:
        raise SchemeError("need at least one trial")
    spec = plan_two_user(M, N1, N2, time_weights=time_weights)
    check_trial_size(spec, trials)
    from ._seeds import trial_seeds  # loads numpy.random on first use, not at import

    ch_seeds, sym_seeds = [], []
    for seed in seeds:
        root = _seed_sequence(seed)
        if root.n_children_spawned + trials > MAX_SPAWNED:
            raise SchemeError("the seed sequence has spawned %d children; %d more would pass "
                              "numpy's limit of %d" % (root.n_children_spawned, trials, MAX_SPAWNED))
        ch, sym = trial_seeds(root, trials)
        ch_seeds += ch
        sym_seeds += sym
        if root is seed:  # a caller's sequence moves past the children hashed here
            # as root.spawn(trials) would, without building the children it
            # drops: numpy's counter is read-only, and the same entropy, spawn
            # key and pool size give the same pool again
            root.__init__(root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size,
                          n_children_spawned=root.n_children_spawned + trials)
    block = max(1, _BLOCK_ENTRIES // spec.channel_entries)
    parts = [[] for _ in range(len(ch_seeds) // trials)]  # (first trial, report) per block a run meets
    for start in range(0, len(ch_seeds), block):
        stop = min(start + block, len(ch_seeds))
        # where the block's parts of runs start, and their trial counts
        firsts = [start, *range(start - start % trials + trials, stop, trials)]
        runs = [end - first for first, end in zip(firsts, firsts[1:] + [stop])]
        report = decode(run_phases(spec, _channels(spec, ch_seeds[start:stop]),
                                   _symbols(spec, sym_seeds[start:stop])), runs)
        for first, part in zip(firsts, report.runs or (report,)):
            parts[first // trials].append((first % trials, part))
    achieved, matches = _corner(spec)
    summaries = []
    for run in parts:
        failures = []
        max_res = 0.0
        max_cond = 0.0
        solves = 0
        ill = 0
        for first, report in run:
            failures.extend((first + i, slot, cond) for i, slot, cond, _ in report.failures)
            max_res = max(max_res, report.residual_user1, report.residual_user2)
            max_cond = max(max_cond, report.max_condition)
            solves += report.solves
            ill += report.ill_conditioned
        summaries.append(TrialSummary(
            spec=spec,
            trials=trials,
            failures=tuple(failures),
            max_residual=max_res,
            max_condition=max_cond,
            solves=solves,
            ill_conditioned=ill,
            achieved=achieved,
            matches_corner=matches and not failures and max_res < RESIDUAL_TOL,
        ))
    return tuple(summaries)


def simulate_trials(M: int, N1: int, N2: int, trials: int, seed,
                    time_weights=None) -> TrialSummary:
    """Monte Carlo wrapper: plan once, then run/decode independent trials.

    Trial i draws its channels and symbols from the seeds
    ``SeedSequence(seed).spawn(trials)[i].spawn(2)``, exactly as
    ``generate_channels`` and ``draw_symbols`` would.  Those seeds are hashed
    for the whole call at once by ``_seeds.trial_seeds``, bit for bit as
    numpy would, and a SeedSequence ``seed`` is advanced by ``trials``
    children, as its own ``spawn`` would.  The trials go in blocks of at
    most _BLOCK_ENTRIES channel entries (one trial at least): each trial's
    generator fills its row of the block's buffer, the block's complex
    stacks are built once, and the block is run and decoded as one stack.
    ``check_trial_size`` runs first, and a SeedSequence ``seed`` that would
    pass MAX_SPAWNED children is refused before anything is spawned.
    This is the one-seed case of ``simulate_runs``.
    """
    return simulate_runs(M, N1, N2, trials, [seed], time_weights=time_weights)[0]


def simulate_single_user(M: int, N: int, trials: int, seed) -> TrialSummary:
    """Point-to-point check: the time-division plan on min(M, N) antennas
    with all air time given to user 1, decoded by simulate_trials.

    The CLI no longer calls it: it runs a component that turns every other
    user off through ``simulate_runs`` with ``time_weights=(1, 0)``.  It
    stays while ``bench/spans.py`` resolves it by name.
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


def _block_diagonal(h):
    """(..., a, n, s) slot blocks as (..., a n, a s) block-diagonal matrices."""
    *lead, a, n, s = h.shape
    g = np.zeros((*lead, a, n, a, s), dtype=complex)
    g[..., np.arange(a), :, np.arange(a), :] = np.moveaxis(h, -3, 0)
    return g.reshape(*lead, a * n, a * s)


def _user_models(spec: SchemeSpec, channels: ChannelRealization):
    """End-to-end whitened linear observation models, user by user, in groups.

    Returns one (model, cov) pair per user.  Phase 3 forwards the user's
    LCs N_i per slot in (source slot, row) order, so a run of
    g = lcm(needed_i, N_i) LCs fills a = g / needed_i own slots and
    b = g / N_i phase-3 slots and meets no other slot: the model is
    block-diagonal over such groups, and ``model`` stacks them, shaped
    (groups, a N_i + g, a s_i), square in cases B/C.  Case A forwards
    nothing, and each of its groups is one slot.  A group's model stacks
    its a direct observations (white noise), block-diagonal, over its b
    phase-3 observations after subtracting the receiver's noisy side
    information, each phase-3 slot's rows whitened by the Cholesky factor
    of its colored-noise covariance; ``cov`` is those covariances,
    (T3, N_i, N_i).  Each is I + S S^H / E, S the receiver's channel under
    the other user's LCs, so every eigenvalue is at least 1 and the
    factorization needs no conditioning check.  Phase-3 transmissions are
    scaled by 1/sqrt(E) so each phase meets the average power constraint.
    """
    scale = 1.0 / np.sqrt(spec.effective_m)
    models = []
    for user, cut in zip(_users(spec), _cuts(spec, channels.h1, channels.h2)):
        # gcd(0, N_i) = N_i: in case A a group is one own slot and no LC
        d = math.gcd(user.needed, user.n)
        a, b = user.n // d, user.needed // d
        groups, g = user.t // a, b * user.n
        direct = _block_diagonal(cut.direct.reshape(groups, a, user.n, user.s))
        # the group's LCs as a block-diagonal map from its symbols, N_i rows per phase-3 slot
        lcmap = _block_diagonal(cut.lcmap.reshape(groups, a, user.needed, user.s)).reshape(
            groups, b, user.n, a * user.s)
        side = cut.side
        cov = np.eye(user.n) + (scale ** 2) * side @ np.swapaxes(side.conj(), 1, 2)
        whitened = np.linalg.solve(np.linalg.cholesky(cov), scale * cut.align).reshape(
            groups, b, user.n, user.n)
        g3 = (whitened @ lcmap).reshape(groups, g, a * user.s)
        models.append((np.concatenate([direct, g3], axis=1), cov))
    return models


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
        raise SchemeError("the rate model needs %d symbols per user, above the limit of %d"
                          % (max(spec.symbol_counts), MAX_GRAM_COLUMNS))
    check_trial_size(spec, 1)  # the model draws one trial's channels
    channels = generate_channels(spec, seed)
    total = spec.total_slots
    eigs = [np.maximum(np.linalg.eigvalsh(np.swapaxes(m.conj(), 1, 2) @ m), 0.0).ravel()
            for m, _ in _user_models(spec, channels)]

    # case A spreads each slot's power over its s_i symbols, cases B/C over N1 + N2
    sym_power = [1.0 / (user.s if spec.case == "A" else spec.N1 + spec.N2)
                 for user in _users(spec)]

    rates = np.zeros((len(snr_db), len(eigs)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, snr in enumerate(snr_db):
            p = np.float64(10.0) ** (snr / 10.0)  # inf, not OverflowError, past ~3080 dB
            for u, (power, eig) in enumerate(zip(sym_power, eigs)):
                rates[i, u] = float(np.sum(np.log2(1.0 + p * power * eig))) / total
    if not np.isfinite(rates).all():
        raise SchemeError("SNR of %g dB overflows the rate computation" % max(snr_db))
    log2p = np.array([snr / 10.0 * np.log2(10.0) for snr in snr_db])
    slopes = tuple(float(np.polyfit(log2p, rates[:, u], 1)[0]) for u in range(len(eigs)))
    return RateCurve(snr_db=snr_db, rates=rates, slopes=slopes)
