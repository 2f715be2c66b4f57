"""Every CSV and JSON artifact doflab writes.

Rationals render as "p/q" (plain "p" when q == 1) and point columns are
named "d1,...,dK".  CSV is a header row plus data rows, each line ending in
a newline.  JSON is RFC 8259 JSON, indented by two spaces with sorted keys,
ending in a newline; an infinite condition number is the string "inf".
Identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import math

from .exactgeom import DimensionMismatchError, rat_str

__all__ = [
    "json_text", "vertices_to_csv", "halfspaces_to_csv", "region_document",
    "sweep_to_csv", "sweep_document", "slice_to_csv", "slice_document",
    "plan_document", "plan_run_document", "trials_document",
]


def _rats(values) -> list:
    return [rat_str(x) for x in values]


def _point_header(dimension: int) -> list:
    return ["d%d" % (i + 1) for i in range(dimension)]


def _csv_text(header, rows) -> str:
    """Header and rows of string cells as CSV text."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
        "failures": [[trial, slot, "inf" if math.isinf(cond) else cond]
                     for trial, slot, cond in summary.failures],
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
