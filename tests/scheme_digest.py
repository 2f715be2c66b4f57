"""One sha256 over the seeded outputs that a scheme refactor must leave alone.

    PYTHONPATH=src python3 tests/scheme_digest.py

It hashes, for each of the 150 two-user setups M = 1..10, 1 <= N2 <= N1 <= 5:

* a seeded transcript without noise and one with noise: channels,
  symbols, overheard LCs, transmitted and received signals;
* the single-run decode report of the noiseless transcript, or the slot,
  condition and kind of the SingularChannelError it raises;
* the summary of a 30-trial ``simulate_trials`` run;
* a ``rate_slope_estimate`` curve;
* for M <= N1, all four for the time weights (1, 0);

one stacked (4,3,2) decode of six trials, five of them with channel
slots zeroed, including its failure tuples and their kinds, decoded whole
and again as runs of (2, 1, 3) trials, with every run's report; and the
summaries of ``simulate_runs`` over three int seeds and two SeedSequence
children, on RUN_SETUPS, among them (8,4,4) at 37 trials, whose runs
straddle its 21-trial blocks, with the children's spawn counts after.

Floats are hashed by their bytes, so the digest is comparable only between
runs on one machine with one numpy build: run it on the parent checkout and
on the change, side by side, and compare the lines.  Not a test module, so
pytest does not collect it.
"""

import hashlib

import numpy as np

from doflab.scheme import (
    ChannelRealization,
    SingularChannelError,
    decode,
    draw_symbols,
    generate_channels,
    plan_two_user,
    rate_slope_estimate,
    run_phases,
    simulate_runs,
    simulate_trials,
)

SETUPS = [(m, n1, n2) for n1 in range(1, 6) for n2 in range(1, n1 + 1) for m in range(1, 11)]
SNR_DB = (20.0, 30.0, 40.0)
TRIALS = 30
# trial -> (channel, slot) pairs zeroed in the stacked (4,3,2) decode
ZEROED = {0: (("h1", 8), ("h2", 8)), 1: (("h2", 8),), 2: (("h1", 0), ("h2", 9)),
          3: (("h2", 6),), 5: (("h1", 7),)}
STACKED_RUNS = (2, 1, 3)
# (M, N1, N2, trials, time_weights) of the simulate_runs lines
RUN_SETUPS = [(8, 4, 4, 37, None), (4, 3, 2, 9, None), (3, 2, 1, 5, None), (2, 2, 1, 4, (1, 0)),
              (2, 2, 2, 6, None)]


def _array(a):
    a = np.asarray(a)
    return "%s %s %s" % (a.dtype, a.shape, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())


def _transcript(tr):
    names = ("u1", "u2", "lc_user1", "lc_user2", "x", "y1", "y2")
    yield "  h " + _array(tr.channels.h1) + " " + _array(tr.channels.h2)
    yield from ("  %s %s" % (n, _array(getattr(tr, n))) for n in names)


def _report(report):
    return "  report %d %d %r %r %r %d %d %r" % (
        report.symbols_user1, report.symbols_user2, report.residual_user1,
        report.residual_user2, report.max_condition, report.solves,
        report.ill_conditioned, report.failures)


def _summary(s):
    return "  trials %r %r %r %d %d %r %r" % (s.failures, s.max_residual, s.max_condition,
                                            s.solves, s.ill_conditioned, s.achieved,
                                            s.matches_corner)


def _decode(tr):
    try:
        return _report(decode(tr))
    except SingularChannelError as err:
        return "  singular %d %r %s" % (err.slot, err.cond, err.what)


def setup_lines(m, n1, n2, time_weights=None):
    seed = 1000 * m + 10 * n1 + n2
    spec = plan_two_user(m, n1, n2, time_weights=time_weights)
    yield "setup %d %d %d %r %s %r" % (m, n1, n2, time_weights, spec.case, spec.phase_lengths)
    channels = generate_channels(spec, seed)
    symbols = draw_symbols(spec, seed + 1)
    clean = run_phases(spec, channels, symbols)
    yield from _transcript(clean)
    yield from _transcript(run_phases(spec, channels, symbols, noise_std=1e-3, noise_seed=seed + 2))
    yield _decode(clean)
    yield _summary(simulate_trials(m, n1, n2, TRIALS, seed, time_weights=time_weights))
    curve = rate_slope_estimate(spec, seed + 3, SNR_DB)
    yield "  rates %s %r" % (_array(curve.rates), curve.slopes)


def stacked_lines():
    spec = plan_two_user(4, 3, 2)
    draws = [generate_channels(spec, 70 + i) for i in range(6)]
    for i, pairs in ZEROED.items():
        for name, slot in pairs:
            getattr(draws[i], name)[slot] = 0.0
    channels = ChannelRealization(h1=np.stack([c.h1 for c in draws]),
                                  h2=np.stack([c.h2 for c in draws]))
    symbols = tuple(np.stack(u) for u in zip(*(draw_symbols(spec, 80 + i) for i in range(6))))
    transcript = run_phases(spec, channels, symbols)
    yield "stacked 4 3 2"
    yield _report(decode(transcript))
    report = decode(transcript, STACKED_RUNS)
    yield "stacked 4 3 2 runs %r" % (STACKED_RUNS,)
    yield _report(report)
    yield from (_report(run) for run in report.runs)


def runs_lines(m, n1, n2, trials, time_weights):
    seed = 1000 * m + 10 * n1 + n2
    children = np.random.SeedSequence(seed).spawn(2)
    yield "runs %d %d %d %d %r" % (m, n1, n2, trials, time_weights)
    summaries = simulate_runs(m, n1, n2, trials, [seed, seed + 1, seed + 2, *children],
                              time_weights=time_weights)
    yield from (_summary(s) for s in summaries)
    yield "  spawned %r" % ([child.n_children_spawned for child in children],)


def main():
    digest = hashlib.sha256()
    lines = [setup_lines(*s) for s in SETUPS]
    lines += [setup_lines(*s, time_weights=(1, 0)) for s in SETUPS if s[0] <= s[1]]
    lines.append(stacked_lines())
    lines += [runs_lines(*s) for s in RUN_SETUPS]
    headers = 0
    for block in lines:
        for line in block:
            headers += not line.startswith(" ")
            digest.update(line.encode() + b"\n")
    print("%s  runs=%d" % (digest.hexdigest(), headers))


if __name__ == "__main__":
    main()
