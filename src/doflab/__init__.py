"""doflab: exact DoF-region polytopes and retrospective interference
alignment for broadcast channels with delayed CSIT.

The package splits into four layers:

* ``exactgeom``: exact rational half-space regions (membership, and from
  one double description: linear maximization, vertex enumeration,
  redundancy removal, equality).
* ``regions``: the region/point/scalar constructors and the three-user
  plane-slice geometry with exact time-sharing decompositions.
* ``scheme``: a seeded simulator of the two-user three-phase alignment
  scheme with exact decoding, DoF accounting, and a finite-SNR
  Gaussian-rate harness.
* ``cli``: the ``doflab`` command.

``serialize`` holds every CSV and JSON artifact format the layers write.
"""

from .exactgeom import (
    DoFRegion,
    HalfSpace,
    contains,
    lp_max,
    rat,
    regions_equal,
    remove_redundant,
    vertex_enumerate,
)
from .regions import (
    AchievabilityPlan,
    AntennaConfig,
    DominantFace,
    PlaneSlice,
    achievability_plan,
    benchmark_sum_dof,
    outer_bound_region,
    plane_slice,
    point_Q,
    sum_dof_closed_form,
    three_user_region,
    two_user_region,
)
from .scheme import (
    SchemeSpec,
    decode,
    generate_channels,
    plan_two_user,
    rate_slope_estimate,
    run_phases,
    simulate_trials,
)

__all__ = [
    "DoFRegion",
    "HalfSpace",
    "contains",
    "lp_max",
    "rat",
    "regions_equal",
    "remove_redundant",
    "vertex_enumerate",
    "AchievabilityPlan",
    "AntennaConfig",
    "DominantFace",
    "PlaneSlice",
    "achievability_plan",
    "benchmark_sum_dof",
    "outer_bound_region",
    "plane_slice",
    "point_Q",
    "sum_dof_closed_form",
    "three_user_region",
    "two_user_region",
    "SchemeSpec",
    "decode",
    "generate_channels",
    "plan_two_user",
    "rate_slope_estimate",
    "run_phases",
    "simulate_trials",
]

__version__ = "0.1.0"
