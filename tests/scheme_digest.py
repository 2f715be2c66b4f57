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

and one stacked (4,3,2) decode of six trials, five of them with channel
slots zeroed, including its failure tuples and their kinds.

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
    simulate_trials,
)

SETUPS = [(m, n1, n2) for n1 in range(1, 6) for n2 in range(1, n1 + 1) for m in range(1, 11)]
SNR_DB = (20.0, 30.0, 40.0)
TRIALS = 30
# trial -> (channel, slot) pairs zeroed in the stacked (4,3,2) decode
ZEROED = {0: (("h1", 8), ("h2", 8)), 1: (("h2", 8),), 2: (("h1", 0), ("h2", 9)),
          3: (("h2", 6),), 5: (("h1", 7),)}


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
    s = simulate_trials(m, n1, n2, TRIALS, seed, time_weights=time_weights)
    yield "  trials %r %r %r %d %d %r %r" % (s.failures, s.max_residual, s.max_condition,
                                           s.solves, s.ill_conditioned, s.achieved,
                                           s.matches_corner)
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
    yield "stacked 4 3 2"
    yield _report(decode(run_phases(spec, channels, symbols)))


def main():
    digest = hashlib.sha256()
    lines = [setup_lines(*s) for s in SETUPS]
    lines += [setup_lines(*s, time_weights=(1, 0)) for s in SETUPS if s[0] <= s[1]]
    lines.append(stacked_lines())
    headers = 0
    for block in lines:
        for line in block:
            headers += not line.startswith(" ")
            digest.update(line.encode() + b"\n")
    print("%s  runs=%d" % (digest.hexdigest(), headers))


if __name__ == "__main__":
    main()
