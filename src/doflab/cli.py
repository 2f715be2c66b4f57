"""Command-line front end.

Subcommands: ``region`` (build and export a region), ``compare`` (two-user
sweep over M with sum-DoF scalars), ``simulate`` (run the alignment scheme
and certify the corner point), ``slice`` (three-user plane cross-section).

Exit codes: 0 success, 1 usage error, 2 verification failure.  All CSV and
JSON output is byte-identical across identical invocations; SVG output is
presentation-only.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import stat
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import exactgeom, regions, scheme, serialize
from ._svg import RegionFigure
from .exactgeom import rat_str
from .regions import AntennaConfig, DominantFace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class CliError(Exception):
    """A usage error: ``main`` prints it and exits with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError("%s: %s" % (self.prog, message))


def _entries(text):
    """The comma-separated entries of ``text``: none when every token is
    empty ("" or ","), else every token, so that an empty one is refused."""
    tokens = text.split(",")
    return tokens if any(tokens) else []


def _int_list(text):
    try:
        return [int(tok) for tok in _entries(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


def _float_list(text):
    try:
        return [float(tok) for tok in _entries(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %r" % text)


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _digit_limit():
    """The int-string digit limit, or Python's default when it is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _rational(text):
    """``Fraction(text)``, refused as a usage error past the int-string digit
    limit: a literal whose exponent's magnitude reaches the limit, before
    ``Fraction`` is called, which would spend minutes on the power of ten;
    a numerator, denominator or mantissa with more digits than the limit,
    which ``Fraction`` refuses only while the limit is on; and a value whose
    numerator or denominator has more digits than the limit, which could not
    be printed."""
    limit = _digit_limit()
    exponent = _EXPONENT.search(text)
    mantissa = text[:exponent.start()] if exponent else text
    if len(mantissa) > limit and any(sum(map(str.isdecimal, part)) > limit for part in mantissa.split("/")):
        raise _past_the_limit(text, limit)
    try:
        huge = exponent is not None and abs(int(exponent.group(1))) >= limit
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational like 3 or 12/5, got %r" % text)
    if huge:
        raise argparse.ArgumentTypeError("the exponent of %r reaches the limit of %d digits" % (text, limit))
    # without an exponent no part of the value has more digits than the text
    if (exponent or len(text) > limit) and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise _past_the_limit(text, limit)
    return value


def _past_the_limit(text, limit):
    shown = repr(text) if len(text) <= 32 else "%r... (%d characters)" % (text[:16], len(text))
    return argparse.ArgumentTypeError("%s has more than the limit of %d digits" % (shown, limit))


def _rational_list(text):
    tokens = _entries(text)
    if "" in tokens:
        raise argparse.ArgumentTypeError("expected comma-separated rationals, got %r" % text)
    return [_rational(tok) for tok in tokens]


def _default_seed(args):
    source, seed = "--seed", args.seed
    if seed is None:
        source, env = "DOFLAB_SEED", os.environ.get("DOFLAB_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise CliError("DOFLAB_SEED must be an integer, got %r" % env)
    if seed < 0:
        raise CliError("%s must be a non-negative integer, got %d" % (source, seed))
    return seed


def _out_paths(args):
    """The files a command writes: ``--out`` and, for a region in CSV, its
    half-spaces beside it."""
    if not args.out:
        return []
    if args.command == "region" and args.format == "csv":
        out = Path(args.out)
        return [out, out.with_suffix(".halfspaces" + (out.suffix or ".csv"))]
    return [args.out]


def _check_writable(paths):
    """Refuse, before the command does any work, an output that is a
    directory or whose directory does not exist, with ``_write``'s message.
    It only stats: nothing is created, and a failure that only opening the
    file shows (no permission, say) is still reported by ``_write``."""
    for path in paths:
        try:
            try:
                if stat.S_ISDIR(os.stat(path).st_mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            except FileNotFoundError:  # a new file, in a directory that must exist
                os.stat(os.path.dirname(path) or ".")
        except OSError as err:
            raise CliError("cannot write %s: %s" % (path, err.strerror))


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise CliError("cannot write %s: %s" % (path, err.strerror))
    print("wrote %s" % path)


def _point_str(point):
    return ", ".join(rat_str(x) for x in point)


def _line_endpoints(hs):
    """Axis intercepts of coeffs . d = bound for a 2-D half-space."""
    a1, a2 = hs.coeffs
    b = hs.bound
    return (b / a1, Fraction(0)), (Fraction(0), b / a2)


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def _build_region(args):
    if args.model == "outer":
        config = AntennaConfig(args.M, tuple(args.N))
        return config, regions.outer_bound_region(config)
    if args.model == "two-user":
        if len(args.N) != 2:
            raise CliError("two-user model needs --N N1,N2")
        config = AntennaConfig(args.M, tuple(args.N))
        return config, regions.two_user_region(args.M, args.N[0], args.N[1])
    if len(args.N) != 1:  # three-user, the last of the --model choices
        raise CliError("three-user model needs --N N (one equal receiver count)")
    n = args.N[0]
    config = AntennaConfig(args.M, (n, n, n))
    return config, regions.three_user_region(args.M, n)


def _region_svg(config, region, verts):
    axis_max = min(config.M, config.N[0] + config.N[1])
    fig = RegionFigure(axis_max=axis_max, title="M=%d N=%s" % (config.M, ",".join(map(str, config.N))))
    fig.add_polygon([(v[0], v[1]) for v in verts])
    for i, hs in enumerate(region.halfspaces, start=1):
        p, q = _line_endpoints(hs)
        fig.add_line(p, q, label="L%d" % i)
    corner = regions.point_Q(config.M, config.N[0], config.N[1])
    if not isinstance(corner, DominantFace):
        fig.add_point(corner[0], corner[1], label="Q = (%s)" % _point_str(corner))
    return fig.render()


def cmd_region(args) -> int:
    config, region = _build_region(args)
    if args.out and args.format == "svg" and region.dimension != 2:
        raise CliError("svg output needs a 2-dimensional region")
    verts = exactgeom.vertex_enumerate(region)
    print("model=%s M=%d N=%s" % (args.model, config.M, ",".join(map(str, config.N))))
    print("halfspaces:")
    for hs in region.halfspaces:
        print("  %s" % hs.render())
    print("vertices:")
    for v in verts:
        print("  %s" % ",".join(rat_str(x) for x in v))
    if args.out:
        if args.format == "csv":
            vertices_out, halfspaces_out = _out_paths(args)
            _write(vertices_out, serialize.vertices_to_csv(verts, region.dimension))
            _write(halfspaces_out, serialize.halfspaces_to_csv(region))
        elif args.format == "json":
            _write(args.out, serialize.json_text(serialize.region_document(config, region, verts)))
        elif args.format == "svg":
            _write(args.out, _region_svg(config, region, verts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    if len(args.N) != 2:
        raise CliError("compare needs --N N1,N2")
    if not args.M:
        raise CliError("compare needs at least one --M value")
    n1, n2 = args.N
    sweep = []
    for m in args.M:
        config = AntennaConfig(m, (n1, n2))
        region = regions.two_user_region(m, n1, n2)
        sum_dof = {
            "perfect": regions.benchmark_sum_dof(config, "perfect"),
            "none": regions.benchmark_sum_dof(config, "none"),
            "delayed": exactgeom.lp_max(region, (Fraction(1), Fraction(1))),
        }
        sweep.append((config, region, exactgeom.vertex_enumerate(region), sum_dof))
    print("M,perfect,none,delayed")
    for config, _, _, sum_dof in sweep:
        print("%d,%s,%s,%s" % (
            config.M, rat_str(sum_dof["perfect"]), rat_str(sum_dof["none"]), rat_str(sum_dof["delayed"]),
        ))
    if args.out:
        if args.format == "csv":
            _write(args.out, serialize.sweep_to_csv(sweep))
        elif args.format == "json":
            _write(args.out, serialize.json_text(serialize.sweep_document(args.N, sweep)))
        elif args.format == "svg":
            axis_max = max(min(m, n1 + n2) for m in args.M)
            fig = RegionFigure(axis_max=axis_max, title="N1=%d N2=%d" % (n1, n2))
            for config, _, verts, _ in sweep:
                fig.add_polygon([(v[0], v[1]) for v in verts], label="M=%d" % config.M)
            _write(args.out, fig.render())
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_two_user(args, seed) -> int:
    if args.target is not None:
        raise CliError("--target applies only to three-user simulation")
    n1, n2 = args.N
    curve = None
    if args.snr_db is not None:  # a bad SNR list, empty too, fails before any trial runs
        curve = scheme.rate_slope_estimate(scheme.plan_two_user(args.M, n1, n2), seed, args.snr_db)
    summary = scheme.simulate_trials(args.M, n1, n2, args.trials, seed)
    print("achieved_dof = %s; failures %d" % (_point_str(summary.achieved), len(summary.failures)))
    print("case %s, %d slots/trial, max_residual %.3e, max_condition %.3e" % (
        summary.spec.case, summary.spec.total_slots, summary.max_residual, summary.max_condition,
    ))
    if curve is not None:
        print("rate_slopes = %.4f, %.4f (bits/slot per log2 P)" % curve.slopes)
    if args.out:
        _write(args.out, serialize.json_text(serialize.trials_document(summary, curve)))
    return EXIT_OK if summary.matches_corner else EXIT_VERIFY


def _simulate_three_user(args, seed) -> int:
    """Check a three-user target through its exact time-sharing plan.

    Component i of the plan draws from child i of ``SeedSequence(seed)``.
    A two-user component runs the (M, n, n) two-user plan, and a
    single-user one the 1-slot plan on min(M, n) antennas that gives user 1
    all the air time.  All the components on one plan run as one stack, one
    ``scheme.simulate_runs`` call, and each summary is the one a separate
    ``simulate_trials`` call would give.  Each plan present is checked by
    ``check_trial_size``, and every line of the plan rendered, before
    anything runs or prints; a weight with more digits than the int-string
    limit is a usage error.  Exits 2 unless every simulated component
    matches its corner and no component needs the external three-user
    scheme.
    """
    if len(set(args.N)) != 1:
        raise CliError("three-user simulation needs equal receiver counts")
    if args.target is None:
        raise CliError("three-user simulation needs --target d1,d2,d3")
    if args.snr_db is not None:
        raise CliError("--snr-db applies only to two-user simulation")
    n = args.N[0]
    plan = regions.achievability_plan(args.M, n, tuple(args.target))
    try:  # rat_str raises ValueError past the int-string digit limit
        labels = ["%-18s weight %-8s point (%s): " % (comp.source, rat_str(comp.weight), _point_str(comp.point))
                  for comp in plan.components]
    except ValueError:
        raise CliError("a weight of the plan has more than the limit of %d digits" % sys.get_int_max_str_digits())
    # achievability_plan raises unless the weighted sum is the target
    identity = "target = (%s); plan identity exact" % _point_str(plan.target)
    stacks = []  # (component indices, M, time weights) per plan present
    for source, m, weights in ((regions.SOURCE_TWO_USER, args.M, None),
                               (regions.SOURCE_SINGLE_USER, min(args.M, n), (1, 0))):
        picked = [i for i, comp in enumerate(plan.components) if comp.source == source]
        if picked:
            scheme.check_trial_size(scheme.plan_two_user(m, n, n, weights), args.trials)
            stacks.append((picked, m, weights))
    seeds = np.random.SeedSequence(seed).spawn(max(len(plan.components), 1))
    summaries = {}  # component index -> TrialSummary
    for picked, m, weights in stacks:
        summaries.update(zip(picked, scheme.simulate_runs(
            m, n, n, args.trials, [seeds[i] for i in picked], time_weights=weights)))
    runs = []  # (status, failures, max_residual) per component
    ok = True
    for i, comp in enumerate(plan.components):
        if comp.source == regions.SOURCE_EXTERNAL:
            runs.append(("not simulated (external three-user corner scheme)", None, None))
            ok = False
        elif i in summaries:
            summary = summaries[i]
            runs.append(("simulated", len(summary.failures), summary.max_residual))
            ok = ok and summary.matches_corner
        else:
            runs.append(("silent", None, None))
        print(labels[i] + runs[-1][0])
    print(identity)
    if args.out:
        config = AntennaConfig(args.M, tuple(args.N))
        _write(args.out, serialize.json_text(serialize.plan_run_document(config, plan, runs)))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_simulate(args) -> int:
    seed = _default_seed(args)
    if args.trials < 1:
        raise CliError("need at least one trial")
    if len(args.N) == 2:
        return _simulate_two_user(args, seed)
    if len(args.N) == 3:
        return _simulate_three_user(args, seed)
    raise CliError("simulate needs --N N1,N2 or --N N,N,N")


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def _slice_lines(slc, M, n):
    lines = ["slice M=%d N=%d d3=%s" % (M, n, rat_str(slc.d3)), "bounds:"]
    for name, hs in slc.bounds.items():
        tag = " (redundant)" if name in slc.redundant_bounds else ""
        lines.append("  %s: %s%s" % (name, hs.render(), tag))
    for name in sorted(slc.special_points):
        point = slc.special_points[name]
        if point is None:
            lines.append("  %s absent" % name)
        else:
            lines.append("  %s = (%s, %s)" % (name, rat_str(point[0]), rat_str(point[1])))
    return lines


def _slice_file(args, slc, corners, n):
    """The text ``--out`` gets, in ``args.format``."""
    if args.format == "csv":
        return serialize.slice_to_csv(slc, corners)
    if args.format == "json":
        return serialize.json_text(serialize.slice_document(slc, corners))
    fig = RegionFigure(axis_max=min(args.M, 2 * n), title="S(d3=%s) M=%d N=%d" % (rat_str(slc.d3), args.M, n))
    fig.add_polygon([(c[0], c[1]) for c in corners])
    for name, hs in slc.bounds.items():
        p, q = _line_endpoints(hs)
        fig.add_line(p, q, label=name)
    for name in sorted(slc.special_points):
        point = slc.special_points[name]
        if point is not None:
            fig.add_point(point[0], point[1], label=name)
    return fig.render()


def cmd_slice(args) -> int:
    """Print the slice and write ``--out``.  Every line and the file are
    rendered before anything is printed or written: a bound or point with
    more digits than the int-string limit is a usage error, with no output."""
    if len(args.N) != 1:
        raise CliError("slice needs --N N (one equal receiver count)")
    n = args.N[0]
    slc = regions.plane_slice(args.M, n, args.d3)
    corners = exactgeom.vertex_enumerate(slc.region)
    try:  # rat_str raises ValueError past the int-string digit limit
        lines = _slice_lines(slc, args.M, n)
        text = _slice_file(args, slc, corners, n) if args.out else None
    except ValueError:
        raise CliError("a number of the slice has more than the limit of %d digits" % _digit_limit())
    print("\n".join(lines))
    if args.out:
        _write(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``doflab`` command line.

    It binds no command function: ``args.command`` names the subcommand, and
    ``main`` calls the module's ``cmd_<command>`` when it dispatches.  Its
    ``commands`` maps each command name to that command's parser, the
    ``choices`` of its subparsers action.  ``main`` builds this parser once
    per process and reuses it.
    """
    parser = _Parser(prog="doflab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for main

    p_region = sub.add_parser("region", help="construct a DoF region and export it")
    p_region.add_argument("--model", required=True, choices=("outer", "two-user", "three-user"))
    p_region.add_argument("--M", type=int, required=True)
    p_region.add_argument("--N", type=_int_list, required=True)
    p_region.add_argument("--out")
    p_region.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p_compare = sub.add_parser("compare", help="two-user regions across a sweep of M")
    p_compare.add_argument("--M", type=_int_list, required=True)
    p_compare.add_argument("--N", type=_int_list, required=True)
    p_compare.add_argument("--out")
    p_compare.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p_sim = sub.add_parser("simulate", help="run the alignment scheme and certify the corner")
    p_sim.add_argument("--M", type=int, required=True)
    p_sim.add_argument("--N", type=_int_list, required=True)
    p_sim.add_argument("--trials", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--snr-db", dest="snr_db", type=_float_list, default=None)
    p_sim.add_argument("--target", type=_rational_list, default=None,
                       help="three-user DoF target d1,d2,d3 (rationals)")
    p_sim.add_argument("--out")

    p_slice = sub.add_parser("slice", help="three-user plane cross-section at fixed d3")
    p_slice.add_argument("--M", type=int, required=True)
    p_slice.add_argument("--N", type=_int_list, required=True)
    p_slice.add_argument("--d3", type=_rational, required=True)
    p_slice.add_argument("--out")
    p_slice.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse(argv):
    """``_parser().parse_args(argv)``, parsed once.

    When the first word names a command, the rest goes straight to that
    command's parser, the one the full parser would hand it to.  The full
    parser takes the rest: a first word that is no command (``--help``, an
    unknown command, no word at all) and words the command's parser leaves
    over, so every usage message, help text and exit code is its own.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one ``doflab`` command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  The parser is built on the first
    call and reused by every later call in the process; parsing keeps no
    state between calls, and a command's words are parsed once, by that
    command's parser (``_parse``).  Every file the command would write is
    checked first (``_check_writable``).  The subcommand runs through the
    module attribute ``cmd_<command>``, looked up at call time, so a
    function rebound after the first call is the one that runs.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _check_writable(_out_paths(args))
        return globals()["cmd_" + args.command](args)
    except (CliError, ValueError) as err:  # SchemeError and GeometryError are ValueErrors
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
