"""Every CSV and JSON artifact doflab writes.

Rationals render as "p/q" (plain "p" when q == 1) and point columns are
named "d1,...,dK".  CSV is a header row plus data rows, each line ending in
a newline.  JSON is indented by two spaces with sorted keys and ends in a
newline.  Identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .exactgeom import DimensionMismatchError, GeometryError, rat_str

__all__ = [
    "json_text", "vertices_to_csv", "halfspaces_to_csv", "parse_vertices_csv",
    "region_document", "sweep_to_csv", "sweep_document", "slice_to_csv", "slice_document",
    "plan_to_csv", "plan_document", "plan_run_document", "trials_document",
    "transcript_document", "report_document", "rate_curve_to_csv",
]


def _rats(values) -> list:
    return [rat_str(x) for x in values]


def _point_header(dimension: int) -> list:
    return ["d%d" % (i + 1) for i in range(dimension)]


def _csv_text(header, rows) -> str:
    """Header and rows of string cells as CSV text."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _config_dict(config) -> dict:
    return {"M": config.M, "N": list(config.N)}


def _halfspace_dict(hs) -> dict:
    return {"coeffs": _rats(hs.coeffs), "bound": rat_str(hs.bound)}


def vertices_to_csv(vertices, dimension: int) -> str:
    for v in vertices:
        if len(v) != dimension:
            raise DimensionMismatchError("vertex of length %d, expected %d" % (len(v), dimension))
    return _csv_text(_point_header(dimension), [_rats(v) for v in vertices])


def halfspaces_to_csv(region) -> str:
    return _csv_text(
        _point_header(region.dimension) + ["bound"],
        [_rats(hs.coeffs) + [rat_str(hs.bound)] for hs in region.halfspaces],
    )


def parse_vertices_csv(text: str):
    """Inverse of vertices_to_csv; returns (dimension, list of points)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise GeometryError("vertex CSV is empty: no header line")
    header = lines[0].split(",")
    dimension = len(header)
    if header != _point_header(dimension):
        raise GeometryError("unexpected CSV header: %r" % lines[0])
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != dimension:
            raise DimensionMismatchError("CSV row of length %d, expected %d" % (len(cells), dimension))
        try:
            points.append(tuple(Fraction(c) for c in cells))
        except (ValueError, ZeroDivisionError):
            raise GeometryError("CSV row %r is not a row of rationals" % ln)
    return dimension, points


def region_document(config, region, vertices) -> dict:
    return {
        "config": _config_dict(config),
        "halfspaces": [_halfspace_dict(hs) for hs in region.halfspaces],
        "vertices": [_rats(v) for v in vertices],
    }


# A two-user sweep over M holds one (config, region, vertices, sum_dof) entry
# per M; sum_dof maps "perfect", "none" and "delayed" to rationals.

def sweep_to_csv(sweep) -> str:
    return _csv_text(
        ["M"] + _point_header(2),
        [[str(config.M)] + _rats(v) for config, _, vertices, _ in sweep for v in vertices],
    )


def sweep_document(N, sweep) -> dict:
    return {
        "N": list(N),
        "sweep": [
            {
                "M": config.M,
                **region_document(config, region, vertices),
                "sum_dof": {csit: rat_str(value) for csit, value in sum_dof.items()},
            }
            for config, region, vertices, sum_dof in sweep
        ],
    }


def slice_to_csv(slc, corners) -> str:
    """Named special points, then the slice corners V0, V1, ... at height d3."""
    rows = [[name] + _rats(p) for name, p in sorted(slc.special_points.items()) if p is not None]
    rows += [["V%d" % i] + _rats(c) + [rat_str(slc.d3)] for i, c in enumerate(corners)]
    return _csv_text(["name"] + _point_header(3), rows)


def slice_document(slc, corners) -> dict:
    return {
        "M": slc.M,
        "N": slc.N,
        "d3": rat_str(slc.d3),
        "bounds": {name: _halfspace_dict(hs) for name, hs in slc.bounds.items()},
        "redundant": sorted(slc.redundant_bounds),
        "special_points": {
            name: None if p is None else _rats(p) for name, p in slc.special_points.items()
        },
        "corners": [_rats(c) for c in corners],
    }


def plan_to_csv(plan) -> str:
    return _csv_text(
        _point_header(len(plan.target)) + ["weight", "source", "users"],
        [
            _rats(comp.point)
            + [rat_str(comp.weight), comp.source, " ".join(str(u + 1) for u in comp.users)]
            for comp in plan.components
        ],
    )


def plan_document(plan) -> dict:
    return {
        "target": _rats(plan.target),
        "components": [
            {
                "point": _rats(comp.point),
                "weight": rat_str(comp.weight),
                "source": comp.source,
                "users": [u + 1 for u in comp.users],
            }
            for comp in plan.components
        ],
    }


def plan_run_document(config, plan, runs) -> dict:
    """A plan with the outcome of each component's simulation.

    ``runs`` holds one (status, failures, max_residual) triple per
    component; the last two are None for a component not simulated.
    """
    doc = plan_document(plan)
    doc["config"] = _config_dict(config)
    for entry, (status, failures, max_residual) in zip(doc["components"], runs):
        entry["status"] = status
        if failures is not None:
            entry["failures"] = failures
            entry["max_residual"] = max_residual
    return doc


def trials_document(summary, curve=None) -> dict:
    """Monte Carlo summary, with the finite-SNR rate curve if one was run."""
    spec = summary.spec
    doc = {
        "config": {"M": spec.M, "N1": spec.N1, "N2": spec.N2},
        "case": spec.case,
        "trials": summary.trials,
        "failures": [list(f) for f in summary.failures],
        "max_residual": summary.max_residual,
        "max_condition": summary.max_condition,
        "achieved_dof": _rats(summary.achieved),
        "matches_corner": summary.matches_corner,
    }
    if curve is not None:
        doc["rate_slopes"] = list(curve.slopes)
        doc["rate_curve"] = [
            {"snr_db": snr, "rate_user1": float(r[0]), "rate_user2": float(r[1])}
            for snr, r in zip(curve.snr_db, curve.rates)
        ]
    return doc


def _complex_array(a: np.ndarray):
    """Nested lists with each complex entry as an [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def transcript_document(transcript) -> dict:
    spec = transcript.spec
    return {
        "config": {"M": spec.M, "N1": spec.N1, "N2": spec.N2, "case": spec.case},
        "phase_lengths": list(spec.phase_lengths),
        "channels_user1": _complex_array(transcript.channels.h1),
        "channels_user2": _complex_array(transcript.channels.h2),
        "symbols_user1": _complex_array(transcript.u1),
        "symbols_user2": _complex_array(transcript.u2),
        "overheard_user1": _complex_array(transcript.lc_user1),
        "overheard_user2": _complex_array(transcript.lc_user2),
        "transmitted": _complex_array(transcript.x),
        "received_user1": _complex_array(transcript.y1),
        "received_user2": _complex_array(transcript.y2),
        "noise_std": transcript.noise_std,
    }


def report_document(report) -> dict:
    return {
        "symbols_user1": report.symbols_user1,
        "symbols_user2": report.symbols_user2,
        "residual_user1": report.residual_user1,
        "residual_user2": report.residual_user2,
        "max_condition": report.max_condition,
        "solves": report.solves,
        "ill_conditioned": report.ill_conditioned,
        "achieved_dof": _rats(report.spec.target_dof()),
    }


def rate_curve_to_csv(curve) -> str:
    return _csv_text(
        ["snr_db", "rate_user1", "rate_user2"],
        [["%.6g" % snr, "%.12g" % r1, "%.12g" % r2] for snr, (r1, r2) in zip(curve.snr_db, curve.rates)],
    )
