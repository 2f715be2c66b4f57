"""CLI contract: flags, artifacts, determinism, exit codes."""

import argparse
import contextlib
import errno
import io
import json
import os
import sys
import time
from fractions import Fraction

import pytest

from doflab import cli, exactgeom, scheme
from doflab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from test_exactgeom import count_double_descriptions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def test_region_two_user_csv(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code, stdout, _ = run_cli(
        capsys, "region", "--model", "two-user", "--M", "4", "--N", "3,2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == "d1,d2"
    assert "12/5,4/5" in text
    side = tmp_path / "region.halfspaces.csv"
    assert side.read_text().splitlines()[0] == "d1,d2,bound"
    assert "1/4,1/2,1" in side.read_text()


def test_region_outer_single_user_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "region", "--model", "outer", "--M", "1", "--N", "1")
    assert code == EXIT_OK
    assert "d1 <= 1" in stdout


def test_region_three_user_lists_three_inequalities(capsys):
    code, stdout, _ = run_cli(capsys, "region", "--model", "three-user", "--M", "2", "--N", "1")
    assert code == EXIT_OK
    lines = [ln.strip() for ln in stdout.splitlines()]
    ineq = [ln for ln in lines if "<=" in ln]
    assert len(ineq) == 3
    assert "2 d1 + d2 + d3 <= 2" in ineq


def test_region_json_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "region", "--model", "two-user", "--M", "4", "--N", "3,2",
            "--out", str(out), "--format", "json",
        )
        assert code == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert ["12/5", "4/5"] in doc["vertices"]


def test_region_svg(tmp_path, capsys):
    out = tmp_path / "region.svg"
    code, _, _ = run_cli(
        capsys, "region", "--model", "two-user", "--M", "4", "--N", "3,2",
        "--out", str(out), "--format", "svg",
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("<svg")
    assert "Q = (12/5, 4/5)" in text


def test_region_svg_needs_two_dimensions(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "region", "--model", "three-user", "--M", "2", "--N", "1",
        "--out", str(tmp_path / "x.svg"), "--format", "svg",
    )
    assert code == EXIT_USAGE


def test_region_svg_checks_dimension_before_vertex_enumeration(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("vertices were enumerated before the svg dimension was checked")

    monkeypatch.setattr(exactgeom, "vertex_enumerate", refuse)
    out = tmp_path / "x.svg"
    code, stdout, err = run_cli(
        capsys, "region", "--model", "outer", "--M", "4", "--N", "3,2,1",
        "--out", str(out), "--format", "svg",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "svg output needs a 2-dimensional region" in err
    assert not out.exists()


def test_region_usage_errors(capsys):
    code, _, err = run_cli(capsys, "region", "--model", "weird", "--M", "4", "--N", "3,2")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "region", "--model", "two-user", "--M", "4", "--N", "3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "region", "--model", "three-user", "--M", "9", "--N", "1")
    assert code == EXIT_USAGE  # out of the theorem's scope


def test_region_outer_beyond_vertex_limit_fails_fast(capsys):
    # K=6 is refused before its 720 permutation inequalities are built
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "region", "--model", "outer", "--M", "4", "--N", "1,1,1,1,1,1")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE
    assert "K <= 5, got K=6" in err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "compare", "--N", "3,2", "--M", "2,3,4,5,6", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "M,perfect,none,delayed" in stdout
    assert "4,4,3,16/5" in stdout.splitlines()
    rows = out.read_text().splitlines()
    assert rows[0] == "M,d1,d2"
    verts5 = {r[2:] for r in rows if r.startswith("5,")}
    verts6 = {r[2:] for r in rows if r.startswith("6,")}
    assert verts5 == verts6  # saturation at M >= N1+N2


def test_compare_single_m_triangle(capsys):
    code, stdout, _ = run_cli(capsys, "compare", "--N", "3,2", "--M", "1")
    assert code == EXIT_OK
    assert "1,1,1,1" in stdout.splitlines()


def test_compare_refuses_empty_m_list(tmp_path, capsys):
    for fmt in ("csv", "json", "svg"):
        out = tmp_path / ("sweep." + fmt)
        code, stdout, err = run_cli(
            capsys, "compare", "--N", "3,2", "--M", "", "--out", str(out), "--format", fmt,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "at least one --M" in err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("region", "--model", "outer", "--M", "3", "--N", "2,,1"),
     "expected comma-separated integers, got '2,,1'"),
    (("region", "--model", "outer", "--M", "3", "--N", "2,1,"),
     "expected comma-separated integers, got '2,1,'"),
    (("compare", "--N", "3,2", "--M", ",4"), "expected comma-separated integers, got ',4'"),
    (("simulate", "--M", "4", "--N", "3,2", "--snr-db", "30,,40"),
     "expected comma-separated numbers, got '30,,40'"),
    (("simulate", "--M", "4", "--N", "2,2,2", "--target", "1,,1"),
     "expected comma-separated rationals, got '1,,1'"),
], ids=["inner", "trailing", "leading", "floats", "rationals"])
def test_list_flags_refuse_an_empty_token(capsys, argv, message):
    # an empty token was skipped, so "2,,1" ran the two-user bound and exited 0
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert stdout == ""
    assert message in err


@pytest.mark.parametrize("argv, literal", [
    (("slice", "--M", "3", "--N", "2", "--d3", "1e30000000"), "1e30000000"),
    (("simulate", "--M", "3", "--N", "2,2,2", "--target", "1/3,1/3,1e-30000000"), "1e-30000000"),
    (("slice", "--M", "3", "--N", "2", "--d3", "1E+4300"), "1E+4300"),
], ids=["slice", "simulate-target", "at-the-limit"])
def test_rationals_with_huge_exponents_are_refused_at_once(capsys, argv, literal):
    # the slice ran 38 s and then printed Python's int-string limit message,
    # and the plan was still running after 120 s
    start = time.perf_counter()
    code, stdout, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "the exponent of %r reaches the limit of 4300 digits" % literal in err


@pytest.mark.parametrize("text, value", [("3e-1", "3/10"), ("1e4299", "1" + "0" * 4299),
                                         ("1e-4299", "1/1" + "0" * 4299), ("2.5E+2", "250")])
def test_rationals_with_exponents_below_the_limit_parse(text, value):
    assert str(cli._rational(text)) == value


@pytest.mark.parametrize("argv, message", [
    (("slice", "--M", "3", "--N", "2", "--d3", "99e4299"),
     "'99e4299' has more than the limit of 4300 digits"),
    (("simulate", "--M", "3", "--N", "2,2,2", "--target", "1/3,1/3,1e-4299", "--trials", "1"),
     "a weight of the plan has more than the limit of 4300 digits"),
], ids=["slice", "simulate-plan-weight"])
def test_rationals_too_long_to_print_are_refused_at_once(capsys, monkeypatch, argv, message):
    # both exited 1 with Python's int-string limit message, the simulate one
    # only after its trials ran
    _refuse_trials(monkeypatch)
    start = time.perf_counter()
    code, stdout, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "error: " in err and message in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("m, n, d3, fits", [
    (3, 2, "1e-4299", True),  # every number of this slice has at most 4300 digits
    (4, 3, "1e-4299", False),
    (3, 2, "1/" + "9" * 4300, False),
    (4, 3, "1/" + "9" * 4300, False),
], ids=["3-2-1e-4299", "4-3-1e-4299", "3-2-1_over_4300_nines", "4-3-1_over_4300_nines"])
def test_slice_numbers_past_the_digit_limit_print_and_write_nothing(tmp_path, capsys, m, n, d3, fits):
    # a bound's or point's numerator or denominator can grow past the limit
    # that d3's passed: the slice printed its first lines and then exited 1
    # with Python's int-string limit message
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        out = tmp_path / "slice.json"
        code, stdout, err = run_cli(capsys, "slice", "--M", str(m), "--N", str(n), "--d3", d3,
                                    "--out", str(out), "--format", "json")
    finally:
        sys.set_int_max_str_digits(saved)
    if fits:
        assert code == EXIT_OK and stdout.endswith("wrote %s\n" % out) and out.is_file()
        return
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err == "error: a number of the slice has more than the limit of 4300 digits\n"
    assert not out.exists()


def _short(text):
    """A test id for a literal that may run to thousands of digits."""
    if len(text) > 16:
        return "%s-%d-chars" % (text[:4], len(text))
    return text.replace(" ", "_") or "empty"


@pytest.mark.parametrize("text", ["0", "7", "12/5", "6/4", "007/010", "0/5", "\u0661\u0662/\u0665", " 1/2", "+3",
                                  "-3/4", "1_0/3", "1.5", "3e-1", ".5E+1", "9" * 4300, "1/" + "9" * 4300], ids=_short)
def test_rationals_parse_as_fraction_does(text):
    value = cli._rational(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize("text", ["3/0", "/3", "3/", "", "1 / 2", "1/2/3", "\u00bd", "\u00b2", "1/\u00b2", "0x10",
                                  "x" * 4301], ids=_short)
def test_rationals_that_fraction_refuses_are_usage_errors(text):
    with pytest.raises(argparse.ArgumentTypeError, match="expected a rational like 3 or 12/5"):
        cli._rational(text)


@pytest.fixture(params=[4300, 0], ids=["limit-on", "limit-off"])
def int_digit_limit(request):
    """Run a test with Python's int-string digit limit at its default and off
    (as PYTHONINTMAXSTRDIGITS=0 sets it); doflab's limit is 4300 in both."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text", ["99e4299", "-99e4299", "1.23e-4299", "0." + "0" * 4299 + "1", "." + "0" * 4299 + "1",
                                  "9" * 4301, "1/" + "9" * 4301, "9" * 4301 + "/1", "9" * 4301 + "e-1"], ids=_short)
def test_rationals_past_the_digit_limit_are_refused(int_digit_limit, text):
    with pytest.raises(argparse.ArgumentTypeError, match="has more than the limit of 4300 digits") as refused:
        cli._rational(text)
    assert len(str(refused.value)) < 100


@pytest.mark.parametrize("text", ["9" * 4300, "-9" + "9" * 4299, "0.5e-4299", "1/" + "9" * 4300,
                                  "9" * 4300 + "/" + "9" * 4300, "." + "0" * 4298 + "1"], ids=_short)
def test_rationals_at_the_digit_limit_parse(int_digit_limit, text):
    value = cli._rational(text)
    assert value == Fraction(text)
    sys.set_int_max_str_digits(4300)
    exactgeom.rat_str(value)  # printable


def test_compare_svg(tmp_path, capsys):
    out = tmp_path / "sweep.svg"
    code, _, _ = run_cli(
        capsys, "compare", "--N", "3,2", "--M", "2,4,6", "--out", str(out),
        "--format", "svg",
    )
    assert code == EXIT_OK
    assert "M=6" in out.read_text()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_432(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "20",
        "--seed", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "achieved_dof = 12/5, 4/5; failures 0" in stdout
    doc = json.loads(out.read_text())
    assert doc["achieved_dof"] == ["12/5", "4/5"]
    assert doc["failures"] == []
    assert doc["matches_corner"] is True
    assert doc["max_residual"] < 1e-8


def test_simulate_case_a(capsys):
    code, stdout, _ = run_cli(capsys, "simulate", "--M", "2", "--N", "3,2", "--trials", "3", "--seed", "1")
    assert code == EXIT_OK
    assert "case A" in stdout


def test_simulate_case_c_532(capsys):
    code, stdout, _ = run_cli(capsys, "simulate", "--M", "5", "--N", "3,2", "--trials", "10", "--seed", "2")
    assert code == EXIT_OK
    assert "achieved_dof = 45/19, 20/19; failures 0" in stdout


def test_simulate_with_rates(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "--M", "2", "--N", "1,1", "--trials", "3",
        "--seed", "5", "--snr-db", "30,40,50,60",
    )
    assert code == EXIT_OK
    assert "rate_slopes" in stdout


def test_simulate_degenerate_snr_list_is_usage_error(capsys):
    for snr_db in ("30,30,30", "30,40,nan", ","):
        code, _, err = run_cli(
            capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "2", "--snr-db", snr_db,
        )
        assert code == EXIT_USAGE
        assert "distinct finite SNR points" in err


def test_simulate_checks_snr_list_before_trials(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trials ran before the SNR list was checked")

    monkeypatch.setattr(scheme, "simulate_trials", refuse)
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "8", "--N", "4,4", "--trials", "500", "--snr-db", "30,30,30",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "distinct finite SNR points" in err


def test_simulate_overflowing_snr_is_usage_error(capsys):
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "2", "--snr-db", "30,40,4000",
    )
    assert code == EXIT_USAGE
    assert "overflows the rate computation" in err
    assert "rate_slopes" not in stdout


def _refuse_trials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trials ran before the flags were checked")

    for entry in ("simulate_trials", "simulate_runs"):
        monkeypatch.setattr(scheme, entry, refuse)


def test_simulate_two_user_refuses_target(capsys, monkeypatch):
    _refuse_trials(monkeypatch)
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--target", "1,1,1", "--trials", "3",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--target applies only to three-user simulation" in err


def test_simulate_three_user_refuses_snr_list(capsys, monkeypatch):
    _refuse_trials(monkeypatch)
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "3", "--N", "2,2,2", "--target", "1,1,0", "--snr-db", "10,20,30",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--snr-db applies only to two-user simulation" in err


def test_simulate_three_user_checks_trials_before_any_output(capsys, monkeypatch):
    _refuse_trials(monkeypatch)
    for target, trials, message in (
        ("0,0,0", "0", "need at least one trial"),  # no component is simulated
        ("1,1/2,0", "0", "need at least one trial"),  # single-user components
        ("1/2,1/2,1/2", "200001", "exceed the limit of %d slot-trials" % scheme.MAX_SLOT_TRIALS),
    ):
        code, stdout, err = run_cli(
            capsys, "simulate", "--M", "3", "--N", "2,2,2", "--target", target, "--trials", trials,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert message in err


def test_simulate_three_user_stacks_the_components_of_each_plan(capsys, monkeypatch):
    # the interior plan has two two-user and three single-user components:
    # one stack of each, the components' seeds in plan order
    real, calls = scheme.simulate_runs, []

    def stack(m, n1, n2, trials, seeds, time_weights=None):
        calls.append((m, n1, n2, trials, [s.spawn_key for s in seeds], time_weights))
        return real(m, n1, n2, trials, seeds, time_weights=time_weights)

    monkeypatch.setattr(scheme, "simulate_runs", stack)
    code, stdout, _ = run_cli(capsys, "simulate", "--M", "3", "--N", "2,2,2",
                              "--target", "1/2,1/3,1/5", "--trials", "4", "--seed", "1")
    assert code == EXIT_OK and stdout.count(": simulated") == 5
    assert calls == [(3, 2, 2, 4, [(2,), (4,)], None), (2, 2, 2, 4, [(1,), (3,), (5,)], (1, 0))]


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("channels were drawn before the input limit was checked")

    monkeypatch.setattr(scheme, "_draw", refuse)


def test_simulate_refuses_too_many_slot_trials_up_front(capsys, monkeypatch):
    # 1000 trials of a 1200-slot plan: 1.2e6 slot-trials
    _refuse_draws(monkeypatch)
    start = time.perf_counter()
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "40", "--N", "20,20", "--trials", "1000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "exceed the limit of %d slot-trials" % scheme.MAX_SLOT_TRIALS in err


def test_simulate_refuses_oversized_rate_model_up_front(capsys, monkeypatch):
    # 16000 symbols per user: 400 Gram blocks of 40 x 40, eight times the limit of 2048
    _refuse_draws(monkeypatch)
    start = time.perf_counter()
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "40", "--N", "20,20", "--trials", "1", "--snr-db", "30,40,50",
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "needs 16000 symbols per user, above the limit of 2048" in err


@pytest.mark.parametrize("argv, slots, entries", [
    (("--M", "120", "--N", "60,60"), 10800, 155520000),  # simulate_trials
    (("--M", "120", "--N", "60,60,60", "--target", "1,1,0"), 10800, 155520000),  # two-user part
    (("--M", "3001", "--N", "3000,3000,3000", "--target", "1,0,0"), 1, 18000000),  # single-user
    # 2045 symbols per user pass the rate model's own limit of 2048
    (("--M", "2045", "--N", "2094,2094", "--snr-db", "10,20,30"), 2, 17128920),
], ids=["two-user", "three-user-pair", "three-user-single", "rate-model"])
def test_simulate_refuses_oversized_trial_up_front(capsys, monkeypatch, argv, slots, entries):
    # one trial, far inside the slot-trial limit, whose draw alone would take gigabytes
    _refuse_draws(monkeypatch)
    code, stdout, err = run_cli(capsys, "simulate", *argv, "--trials", "1")
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error: a trial of %d slots draws %d channel entries, above the limit of %d"
                          % (slots, entries, scheme.MAX_TRIAL_ENTRIES))


def test_simulate_failed_trial_misses_corner(tmp_path, capsys, monkeypatch):
    real = scheme._channels
    calls = []

    def zero_second_trial(spec, seeds):
        channels = real(spec, seeds)
        for k, seed in enumerate(seeds):
            calls.append(seed)
            if len(calls) == 2:
                channels.h1[k] = 0
        return channels

    monkeypatch.setattr(scheme, "_channels", zero_second_trial)
    summary = scheme.simulate_trials(4, 3, 2, trials=3, seed=7)
    assert [f[0] for f in summary.failures] == [1]
    assert summary.matches_corner is False
    calls.clear()
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "3", "--seed", "7",
        "--out", str(out),
    )
    assert code == EXIT_VERIFY
    assert json.loads(out.read_text())["matches_corner"] is False


def test_simulate_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOFLAB_SEED", "7")
    out_env = tmp_path / "env.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "5", "--out", str(out_env),
    )
    assert code == EXIT_OK
    monkeypatch.delenv("DOFLAB_SEED")
    out_flag = tmp_path / "flag.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--M", "4", "--N", "3,2", "--trials", "5",
        "--seed", "7", "--out", str(out_flag),
    )
    assert code == EXIT_OK
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_simulate_refuses_negative_seed(capsys, monkeypatch):
    _refuse_draws(monkeypatch)
    code, stdout, err = run_cli(capsys, "simulate", "--M", "4", "--N", "3,2", "--seed", "-1")
    assert (code, stdout) == (EXIT_USAGE, "")
    assert "--seed must be a non-negative integer, got -1" in err
    monkeypatch.setenv("DOFLAB_SEED", "-1")
    code, stdout, err = run_cli(capsys, "simulate", "--M", "4", "--N", "3,2")
    assert (code, stdout) == (EXIT_USAGE, "")
    assert "DOFLAB_SEED must be a non-negative integer, got -1" in err


def test_simulate_three_user_executable_plan(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--M", "2", "--N", "1,1,1", "--target", "2/3,0,2/3",
        "--trials", "5", "--seed", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "two-user-scheme" in stdout
    doc = json.loads(out.read_text())
    assert doc["components"][0]["status"] == "simulated"


def test_simulate_three_user_external_not_simulated(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "--M", "2", "--N", "1,1,1", "--target", "1/2,1/2,1/2",
        "--trials", "2", "--seed", "3",
    )
    assert code == EXIT_VERIFY
    assert "not simulated" in stdout


def test_simulate_three_user_target_outside_region_is_rendered_exactly(capsys, monkeypatch):
    _refuse_trials(monkeypatch)
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "2", "--N", "1,1,1", "--target", "2/3,2/3,2/3", "--trials", "1",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "target (2/3, 2/3, 2/3) is outside the three-user region" in err
    assert "Fraction" not in err


def test_simulate_three_user_needs_target(capsys):
    code, _, err = run_cli(capsys, "simulate", "--M", "2", "--N", "1,1,1")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def test_slice_symmetric_point(tmp_path, capsys):
    out = tmp_path / "slice.csv"
    code, stdout, _ = run_cli(
        capsys, "slice", "--M", "2", "--N", "1", "--d3", "1/2", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "P12 = (1/2, 1/2)" in stdout
    assert "L0" in stdout and "(redundant)" in stdout
    rows = out.read_text().splitlines()
    assert rows[0] == "name,d1,d2,d3"
    assert "P12,1/2,1/2,1/2" in rows


def test_slice_zero_matches_two_user_region(capsys):
    code, stdout, _ = run_cli(capsys, "slice", "--M", "2", "--N", "1", "--d3", "0")
    assert code == EXIT_OK
    assert "P12 = (2/3, 2/3)" in stdout


def test_slice_case4_point(capsys):
    code, stdout, _ = run_cli(capsys, "slice", "--M", "3", "--N", "2", "--d3", "1")
    assert code == EXIT_OK
    assert "P01 = (1, 1/2)" in stdout


def test_slice_json_and_svg(tmp_path, capsys):
    out = tmp_path / "slice.json"
    code, _, _ = run_cli(
        capsys, "slice", "--M", "3", "--N", "2", "--d3", "1", "--out", str(out),
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["special_points"]["P01"] == ["1", "1/2", "1"]
    svg = tmp_path / "slice.svg"
    code, _, _ = run_cli(
        capsys, "slice", "--M", "3", "--N", "2", "--d3", "1", "--out", str(svg),
        "--format", "svg",
    )
    assert code == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_slice_d3_out_of_range(capsys):
    code, _, err = run_cli(capsys, "slice", "--M", "2", "--N", "1", "--d3", "9/10")
    assert code == EXIT_USAGE
    assert "outside" in err


def test_slice_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "slice", "--M", "4", "--N", "3", "--d3", "6/7", "--out", str(out),
        )
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# one double description per region
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, builds", [
    (("region", "--model", "outer", "--M", "4", "--N", "3,2,1"), 1),
    (("region", "--model", "outer", "--M", "3", "--N", "1,1,1,1,1"), 1),
    (("compare", "--N", "3,2", "--M", "4"), 1),
    (("compare", "--N", "3,2", "--M", "2,3,4,5,6"), 5),
    (("slice", "--M", "5", "--N", "3", "--d3", "1"), 1),
], ids=["region-outer", "region-outer-five-users", "compare-one-m", "compare-five-m", "slice"])
def test_command_builds_one_double_description_per_region(tmp_path, capsys, monkeypatch, argv, builds):
    # region: the raw outer bound, whose rays the reduced bound reuses for its
    # vertices; compare: one per M, shared by the sum DoF and the vertices;
    # slice: the slice polygon, shared by its redundancy and its corners
    calls = count_double_descriptions(monkeypatch)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out.json"), "--format", "json")
    assert code == EXIT_OK
    assert len(calls) == builds


# ---------------------------------------------------------------------------
# main: one parser per process, re-entrant
# ---------------------------------------------------------------------------

REGION = ("region", "--model", "two-user", "--M", "4", "--N", "3,2")
SIMULATE = ("simulate", "--M", "4", "--N", "3,2", "--trials", "3")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    real = cli.build_parser
    assert real() is not real()  # the public builder still returns a fresh parser
    built = []

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (REGION, ("compare", "--N", "3,2", "--M", "4"),
                     ("slice", "--M", "2", "--N", "1", "--d3", "1/2"), SIMULATE, REGION):
            assert run_cli(capsys, *argv)[0] == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def _full_parse(argv):
    """How ``main`` parsed before each command was parsed once: the whole
    ``argv`` through the top-level parser."""
    return cli._parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    REGION,
    ("region", "--model=outer", "--M=3", "--N=2,1,1", "--format=json", "--out", "r.json"),
    ("region", "--mod", "three-user", "--M", "3", "--N", "2", "--for", "svg"),
    ("compare", "--N=3,2", "--M", "1,2"),
    ("compare", "--M", "1", "--N", "1,1", "--M", "2,3,4", "--format", "csv", "--format", "json"),
    SIMULATE + ("--seed", "4", "--snr-db", "30,40"),
    ("simulate", "--M", "4", "--N", "3,2", "--tri", "3", "--see", "5", "--snr", "30", "--out=--"),
    ("simulate", "--N", "2,2,2", "--M", "3", "--target", "1/2,1/3,1/5", "--trials", "2", "--trials", "4"),
    ("slice", "--M", "3", "--N", "2", "--d3", "1/2"),
    ("slice", "--d3=-1/2", "--N", "2", "--M", "3", "--d", "0", "--o", "s.csv"),
], ids=["region", "region-equals", "region-abbreviated", "compare-equals", "compare-repeated",
        "simulate", "simulate-abbreviated", "simulate-three-user-repeated", "slice", "slice-abbreviated"])
def test_each_command_is_parsed_once_to_the_full_parsers_namespace(argv, monkeypatch):
    full = cli.build_parser().parse_args(argv)
    parsers = []
    real = cli._Parser.parse_known_args

    def counted(parser, *args, **kwargs):
        parsers.append(parser.prog)
        return real(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    assert cli._parse(list(argv)) == full
    assert parsers == ["doflab " + argv[0]]


def _through_main(argv):
    """Exit code, standard output and standard error of ``main(argv)``; a
    help text's ``SystemExit`` gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_info:
            code = ("exit", exit_info.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    REGION + ("extra",),
    REGION + ("region",),
    ("slice", "--M", "3", "--N", "2", "--d3", "1/2", "--bogus", "x"),
    SIMULATE + ("--",),
    REGION + ("--", "x"),
    ("compare", "--N", "3,2"),
    ("simulate", "--M", "4", "--", "--N", "3,2"),
    ("region", "--model", "bogus", "--M", "4", "--N", "3,2"),
    ("simulate", "--M", "four", "--N", "3,2"),
    ("slice", "--M", "3", "--N", "2", "--d3", "1/0"),
    ("simulate", "--s", "3", "--M", "4", "--N", "3,2"),
    ("region", "-h"),
    ("slice", "--help"),
    ("compare", "--M", "3", "--he"),
    ("-h",),
    ("--help",),
    ("--he", "region"),
    ("frobnicate",),
    ("frobnicate", "--M", "3"),
    ("--M", "3"),
    ("",),
    (),
], ids=["extra", "extra-command-name", "unknown-flag", "trailing-double-dash", "double-dash", "missing-flag",
        "flag-after-double-dash", "bad-choice", "bad-type", "bad-rational", "ambiguous", "region-h",
        "slice-help", "compare-help-abbreviated", "h", "help", "help-abbreviated", "unknown-command",
        "unknown-command-flags", "no-command", "empty-word", "empty"])
def test_usage_errors_and_help_are_the_full_parsers(argv, monkeypatch):
    once = _through_main(argv)
    monkeypatch.setattr(cli, "_parse", _full_parse)
    full = _through_main(argv)
    assert once == full
    assert once[0] in (EXIT_USAGE, ("exit", 0))
    assert ("usage: doflab" in once[1]) if once[0] == ("exit", 0) else ("error: doflab" in once[2])


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["doflab", *REGION])
    assert main() == EXIT_OK
    assert capsys.readouterr().out.startswith("model=two-user M=4 N=3,2\n")
    monkeypatch.setattr("sys.argv", ["doflab", "region", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: doflab region")


@pytest.mark.parametrize("argv", [
    REGION + ("--format", "json"),
    ("compare", "--N", "3,2", "--M", "2,3,4"),
    ("slice", "--M", "4", "--N", "3", "--d3", "6/7", "--format", "json"),
    SIMULATE + ("--seed", "4", "--snr-db", "30,40,50"),
    ("simulate", "--M", "2", "--N", "1,1,1", "--target", "2/3,0,2/3", "--trials", "3"),
], ids=["region", "compare", "slice", "simulate", "simulate-three-user"])
def test_main_twice_in_one_process_writes_identical_artifacts(tmp_path, capsys, argv):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(capsys, *argv, "--out", str(out))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_main_keeps_no_parse_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOFLAB_SEED", "7")
    seeded, from_env, seven = (tmp_path / name for name in ("5.json", "env.json", "7.json"))
    assert run_cli(capsys, *SIMULATE, "--seed", "5", "--out", str(seeded))[0] == EXIT_OK
    assert run_cli(capsys, *SIMULATE, "--out", str(from_env))[0] == EXIT_OK
    assert run_cli(capsys, *SIMULATE, "--seed", "7", "--out", str(seven))[0] == EXIT_OK
    assert from_env.read_bytes() == seven.read_bytes() != seeded.read_bytes()

    rates, plain = tmp_path / "rates.json", tmp_path / "plain.json"
    _, stdout, _ = run_cli(capsys, *SIMULATE, "--snr-db", "30,40,50", "--out", str(rates))
    assert "rate_slopes" in stdout and "rate_curve" in json.loads(rates.read_text())
    _, stdout, _ = run_cli(capsys, *SIMULATE, "--out", str(plain))
    assert "rate_slopes" not in stdout and "rate_curve" not in json.loads(plain.read_text())

    as_json, as_csv = tmp_path / "region.json", tmp_path / "region.csv"
    run_cli(capsys, *REGION, "--format", "json", "--out", str(as_json))
    run_cli(capsys, *REGION, "--out", str(as_csv))
    assert as_csv.read_text().splitlines()[0] == "d1,d2"
    assert (tmp_path / "region.halfspaces.csv").is_file()


def test_main_runs_after_a_usage_error_and_help(capsys):
    for argv in (("region", "--model", "bogus", "--M", "4", "--N", "3,2"),  # argparse
                 ("simulate", "--M", "4", "--N", "3,2", "--trials", "0"),  # the command
                 ("frobnicate",)):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert "error:" in err
        assert run_cli(capsys, *REGION)[0] == EXIT_OK
    for argv in (("--help",), ("simulate", "--help")):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 0
        assert "usage: doflab" in capsys.readouterr().out
        assert run_cli(capsys, *REGION)[0] == EXIT_OK


def test_main_dispatches_to_the_command_bound_at_call_time(capsys, monkeypatch):
    assert run_cli(capsys, *REGION)[0] == EXIT_OK  # the parser exists from here on
    seen = []
    monkeypatch.setattr(cli, "cmd_region", lambda args: seen.append(args.model) or 42)
    assert main(list(REGION)) == 42
    assert seen == ["two-user"]


@pytest.mark.parametrize("argv", [REGION, SIMULATE], ids=["region", "simulate"])
@pytest.mark.parametrize("target, code", [("missing/x.out", errno.ENOENT), (".", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target, code):
    out = tmp_path / target
    status, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert status == EXIT_USAGE
    assert err == "error: cannot write %s: %s\n" % (out, os.strerror(code))
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    SIMULATE,
    ("simulate", "--M", "2", "--N", "1,1,1", "--target", "1/2,0,0"),  # a single-user component
    ("simulate", "--M", "3", "--N", "2,2,2", "--target", "6/5,6/5,0"),  # a two-user component
], ids=["two-user", "single-user", "three-user"])
def test_simulate_checks_out_before_any_trial(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    for entry in ("simulate_trials", "simulate_runs"):
        monkeypatch.setattr(scheme, entry, refuse)
    out = tmp_path / "missing" / "x.json"
    status, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert status == EXIT_USAGE and stdout == ""
    assert err == "error: cannot write %s: %s\n" % (out, os.strerror(errno.ENOENT))


def test_region_csv_checks_both_outputs_before_writing(tmp_path, capsys):
    # the half-spaces path is a directory: neither file is written, and a
    # vertices file that exists already is left as it was
    (tmp_path / "x.halfspaces.csv").mkdir()
    out = tmp_path / "x.csv"
    for before in (None, "kept\n"):
        if before is not None:
            out.write_text(before)
        status, stdout, err = run_cli(capsys, *REGION, "--out", str(out))
        assert status == EXIT_USAGE and stdout == ""
        assert err == "error: cannot write %s: %s\n" % (tmp_path / "x.halfspaces.csv",
                                                       os.strerror(errno.EISDIR))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["x.halfspaces.csv"] + ([] if before is None else ["x.csv"]))
    assert out.read_text() == "kept\n"
