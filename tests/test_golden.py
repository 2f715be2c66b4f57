"""Golden corpus: the CSV/JSON artifacts of fixed invocations, pinned.

Every file under ``tests/golden/`` was written by ``write_corpus`` below:
the artifacts and stdout of the ``doflab`` invocations in ``CLI_CASES``,
and the plan documents in ``LIBRARY``.  CSV and exact-rational JSON
artifacts must match byte for byte.  The ``simulate`` reports carry Monte
Carlo floats and are compared field by field: integers, strings and
booleans exactly, floats within a relative 1e-6, and every residual only
against the decoding tolerance, since its value is rounding noise.

The 252 slices, the 1206 plans and the 629 outer bounds with K <= 4 of
``tests/sweep_digest.py`` are pinned as one sha256 each, of their lines
with a newline after each.

Regenerate only for an intended format change, then review the diff:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from doflab import cli, scheme
from doflab.regions import achievability_plan
from doflab.serialize import plan_document
from sweep_digest import plan_lines, slice_lines, small_outer_bound_lines

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-6
RESIDUAL_TOL = 1e-8
OUT_DIR = "OUT"  # stands for the run's output directory in golden stdout

# (name, argv without --out/--format, formats, expected exit code).  A case
# with formats writes one artifact per format; simulate writes JSON only.
CLI_CASES = [
    ("region-outer-4-32", ["region", "--model", "outer", "--M", "4", "--N", "3,2"], ("csv", "json"), 0),
    ("region-outer-3-111", ["region", "--model", "outer", "--M", "3", "--N", "1,1,1"], ("csv", "json"), 0),
    ("region-outer-3-1111", ["region", "--model", "outer", "--M", "3", "--N", "1,1,1,1"], ("csv", "json"), 0),
    ("region-outer-4-11111", ["region", "--model", "outer", "--M", "4", "--N", "1,1,1,1,1"], ("csv", "json"), 0),
    ("region-two-user-4-32", ["region", "--model", "two-user", "--M", "4", "--N", "3,2"], ("csv", "json"), 0),
    ("region-two-user-2-32", ["region", "--model", "two-user", "--M", "2", "--N", "3,2"], ("csv", "json"), 0),
    ("region-two-user-6-22", ["region", "--model", "two-user", "--M", "6", "--N", "2,2"], ("csv", "json"), 0),
    ("region-three-user-3-2", ["region", "--model", "three-user", "--M", "3", "--N", "2"], ("csv", "json"), 0),
    ("region-three-user-2-2", ["region", "--model", "three-user", "--M", "2", "--N", "2"], ("csv", "json"), 0),
    ("compare-32", ["compare", "--M", "1,2,3,4,5,6", "--N", "3,2"], ("csv", "json"), 0),
    ("compare-11", ["compare", "--M", "1,2,3", "--N", "1,1"], ("csv", "json"), 0),
    ("slice-3-2-half", ["slice", "--M", "3", "--N", "2", "--d3", "1/2"], ("csv", "json"), 0),
    ("slice-3-2-zero", ["slice", "--M", "3", "--N", "2", "--d3", "0"], ("csv", "json"), 0),
    ("slice-3-2-max", ["slice", "--M", "3", "--N", "2", "--d3", "6/5"], ("csv", "json"), 0),
    ("slice-4-3-mid", ["slice", "--M", "4", "--N", "3", "--d3", "6/5"], ("csv", "json"), 0),
    ("simulate-a", ["simulate", "--M", "2", "--N", "3,2", "--trials", "5", "--seed", "3"], (), 0),
    ("simulate-a-snr", ["simulate", "--M", "2", "--N", "3,2", "--trials", "5", "--seed", "3",
                        "--snr-db", "30,40,50"], (), 0),
    ("simulate-b", ["simulate", "--M", "4", "--N", "3,2", "--trials", "5", "--seed", "3"], (), 0),
    ("simulate-b-snr", ["simulate", "--M", "4", "--N", "3,2", "--trials", "5", "--seed", "3",
                        "--snr-db", "30,40,50,60"], (), 0),
    ("simulate-c", ["simulate", "--M", "5", "--N", "2,2", "--trials", "5", "--seed", "3"], (), 0),
    ("simulate-c-snr", ["simulate", "--M", "5", "--N", "2,2", "--trials", "5", "--seed", "3",
                        "--snr-db", "30,40,50"], (), 0),
    ("simulate-3u-single", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "2,0,0",
                            "--trials", "4", "--seed", "1"], (), 0),
    ("simulate-3u-pair", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "6/5,6/5,0",
                          "--trials", "4", "--seed", "1"], (), 0),
    ("simulate-3u-time-division", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "1,1/2,0",
                                   "--trials", "4", "--seed", "1"], (), 0),
    ("simulate-3u-external", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "6/7,6/7,6/7",
                              "--trials", "4", "--seed", "1"], (), 2),
    ("simulate-3u-mixed", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "1/2,1/2,1/2",
                           "--trials", "4", "--seed", "1"], (), 2),
    ("simulate-3u-interior", ["simulate", "--M", "3", "--N", "2,2,2", "--target", "1/2,1/3,1/5",
                              "--trials", "4", "--seed", "1"], (), 0),
]

PLANS = {
    "plan-2-1-mixed": (2, 1, (F(7, 12), F(1, 4), F(7, 12))),
    "plan-3-2-all-sources": (3, 2, (F(1, 2), F(1, 2), F(1, 2))),
    "plan-3-2-time-division": (3, 2, (F(1), F(1, 2), F(0))),
}


def _runs():
    for name, argv, formats, code in CLI_CASES:
        for fmt in formats or (None,):
            yield name, argv, fmt, code


def _run_cli(name, argv, fmt, out_dir: Path):
    """Run one invocation; returns (exit code, stdout, {file name: bytes})."""
    out = out_dir / ("%s.%s" % (name, fmt or "json"))
    argv = list(argv) + ["--out", str(out)] + (["--format", fmt] if fmt else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, stdout.getvalue().replace(str(out_dir), OUT_DIR), files


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# {file name: function returning its text} for the plan documents, which
# no command writes on its own
LIBRARY = {
    name + ".json": lambda m=m, n=n, target=target: _json_text(plan_document(achievability_plan(m, n, target)))
    for name, (m, n, target) in PLANS.items()
}


def _corpus_names():
    """The name of every file ``write_corpus`` writes."""
    names = set(LIBRARY)
    for name, argv, fmt, _ in _runs():
        names.add("%s.%s" % (name, fmt or "json"))
        if argv[0] == "region" and fmt == "csv":
            names.add(name + ".halfspaces.csv")
        if argv[0] != "simulate":
            names.add("%s.%s.stdout" % (name, fmt))
    return names


# ---------------------------------------------------------------------------
# comparison of float-bearing artifacts
# ---------------------------------------------------------------------------

def _compare(expected, actual, path, problems):
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            problems.append("%s: expected a number, got %r" % (path, actual))
        elif "residual" in path.rsplit(".", 1)[-1]:
            if not actual < RESIDUAL_TOL:
                problems.append("%s: residual %r is not below %g" % (path, actual, RESIDUAL_TOL))
        elif abs(actual - expected) > FLOAT_RTOL * abs(expected):
            problems.append("%s: %r differs from %r" % (path, actual, expected))
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            problems.append("%s: keys %r, expected %r" % (
                path, sorted(actual) if isinstance(actual, dict) else actual, sorted(expected)))
            return
        for key in expected:
            _compare(expected[key], actual[key], "%s.%s" % (path, key), problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append("%s: %r, expected %r" % (path, actual, expected))
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, "%s[%d]" % (path, i), problems)
    elif type(expected) is not type(actual) or expected != actual:
        problems.append("%s: %r, expected %r" % (path, actual, expected))


def _assert_json_matches(expected_text, actual_text):
    actual = json.loads(actual_text)
    # the layout is pinned even where float digits may differ
    assert actual_text == json.dumps(actual, indent=2, sort_keys=True) + "\n"
    problems = []
    _compare(json.loads(expected_text), actual, "doc", problems)
    assert problems == []


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,argv,fmt,code", list(_runs()), ids=["%s-%s" % (r[0], r[2] or "json") for r in _runs()]
)
def test_cli_artifacts_match_golden(tmp_path, name, argv, fmt, code):
    actual_code, stdout, files = _run_cli(name, argv, fmt, tmp_path)
    assert actual_code == code
    suffix = "." + (fmt or "json")
    expected = sorted(p.name for p in GOLDEN.glob(name + ".*") if p.name.endswith(suffix))
    assert sorted(files) == expected
    for file_name, data in files.items():
        golden = (GOLDEN / file_name).read_bytes()
        if argv[0] == "simulate":
            _assert_json_matches(golden.decode(), data.decode())
        else:
            assert data == golden, file_name
    if argv[0] != "simulate":
        assert stdout == (GOLDEN / ("%s%s.stdout" % (name, suffix))).read_text()


@pytest.mark.parametrize("file_name", sorted(LIBRARY))
def test_library_formats_match_golden(file_name):
    assert LIBRARY[file_name]() == (GOLDEN / file_name).read_text()


def test_golden_directory_holds_only_the_corpus():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(_corpus_names())


def _strict_json(text):
    """``json.loads`` refusing the NaN and Infinity tokens RFC 8259 JSON has no place for."""
    def refuse(token):
        raise ValueError("non-standard JSON constant %s" % token)
    return json.loads(text, parse_constant=refuse)


def test_json_artifacts_are_standard_json(tmp_path, monkeypatch):
    for name in sorted(_corpus_names()):
        if name.endswith(".json"):
            _strict_json((GOLDEN / name).read_text())
    # a simulate report whose trial 1 fails at a zero channel, condition inf
    real = scheme._channels

    def zero_trial_1(spec, seeds):
        channels = real(spec, seeds)
        channels.h1[1] = 0
        return channels

    monkeypatch.setattr(scheme, "_channels", zero_trial_1)
    code, _, files = _run_cli("failed", ["simulate", "--M", "4", "--N", "3,2", "--trials", "3",
                                         "--seed", "7"], None, tmp_path)
    assert code == 2
    assert _strict_json(files["failed.json"].decode())["failures"] == [[1, 8, "inf"]]


SWEEP_DIGESTS = {
    "slices": (slice_lines, "44f14d68475237d78c2827d2969cdca913349eba22583a20eadfcea71dc4491f"),
    "plans": (plan_lines, "ff25e91da00fbad55c263ac43123898d3f2e213b20f3cab3fbcfeb20d8e0233b"),
    "outer-bounds-k4": (small_outer_bound_lines,
                        "211ab7495c4c361e1c76f38d014dc8c8497e2c939cd5ab8ba19a96360573cca1"),
}


@pytest.mark.parametrize("corpus", sorted(SWEEP_DIGESTS))
def test_sweep_corpus_digest(corpus):
    lines, expected = SWEEP_DIGESTS[corpus]
    digest = hashlib.sha256()
    for line in lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == expected


def write_corpus():
    """Rewrite every golden file from the current sources."""
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    scratch = GOLDEN / "_run"
    for name, argv, fmt, code in _runs():
        scratch.mkdir()
        actual_code, stdout, files = _run_cli(name, argv, fmt, scratch)
        if actual_code != code:
            raise SystemExit("%s exited %d, expected %d" % (name, actual_code, code))
        for file_name, data in files.items():
            (GOLDEN / file_name).write_bytes(data)
            (scratch / file_name).unlink()
        scratch.rmdir()
        if argv[0] != "simulate":
            (GOLDEN / ("%s.%s.stdout" % (name, fmt))).write_text(stdout)
    for file_name, build in LIBRARY.items():
        (GOLDEN / file_name).write_text(build())


if __name__ == "__main__":
    write_corpus()
