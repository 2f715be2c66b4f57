"""CLI contract: flags, artifacts, determinism, exit codes."""

import json
import time

from doflab import scheme
from doflab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


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


def test_region_usage_errors(capsys):
    code, _, err = run_cli(capsys, "region", "--model", "weird", "--M", "4", "--N", "3,2")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "region", "--model", "two-user", "--M", "4", "--N", "3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "region", "--model", "three-user", "--M", "9", "--N", "1")
    assert code == EXIT_USAGE  # out of the theorem's scope


def test_region_outer_beyond_vertex_limit_fails_fast(capsys):
    # building the K=5 outer bound alone takes tens of seconds
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "region", "--model", "outer", "--M", "4", "--N", "1,1,1,1,1")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE
    assert "K <= 4, got K=5" in err


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
    for snr_db in ("30,30,30", "30,40,nan"):
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


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("channels were drawn before the input limit was checked")

    monkeypatch.setattr(scheme, "generate_channels", refuse)


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
    # 16000 symbols per user: a 16000 x 16000 complex Gram matrix, about 4 GB
    _refuse_draws(monkeypatch)
    start = time.perf_counter()
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "40", "--N", "20,20", "--trials", "1", "--snr-db", "30,40,50",
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "16000-column Gram matrix" in err


def test_simulate_failed_trial_misses_corner(tmp_path, capsys, monkeypatch):
    real = scheme.generate_channels
    calls = []

    def zero_second_trial(spec, seed):
        channels = real(spec, seed)
        calls.append(seed)
        if len(calls) == 2:
            channels.h1[:] = 0
        return channels

    monkeypatch.setattr(scheme, "generate_channels", zero_second_trial)
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
