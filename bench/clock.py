"""Op timing scaled to a fixed machine speed.

On a shared machine the speed of the same code can move by almost 2x for
seconds at a time, which no amount of averaging inside one run removes.
So every op is timed between two runs of a fixed calibration kernel, and its
wall time is scaled to a machine on which that kernel takes ``KERNEL_REF_S``:

    scaled = wall * KERNEL_REF_S / mean(kernel before, kernel after)

The kernel has two parts, one for each kind of work doflab does: exact
``Fraction`` arithmetic and small dense numpy linear algebra, each about
1 ms here.  The two kinds of work slow down by different amounts, so each
workload weights the parts by the work it does (``workloads.KERNEL_WEIGHTS``).
The kernel never calls doflab, so a change to doflab moves the scaled time
just as it moves the wall time.  Wall times are reported next to the scaled
ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Scaled times read as seconds on a machine where one kernel run takes 1 ms.
KERNEL_REF_S = 1e-3


class Clock:
    """Scale factors for consecutive ops; each kernel run serves two ops.

    ``weights`` weigh the kernel's (``Fraction``, numpy) parts.
    """

    def __init__(self, weights):
        import numpy

        self.weights = weights
        self.matrix = numpy.random.default_rng(0).standard_normal((6, 6))
        self.kernel_seconds()  # the first run pays numpy's lazy set-up
        self.last = self.kernel_seconds()

    def kernel_seconds(self) -> float:
        """Weighted mean wall time of the kernel's two parts."""
        import numpy

        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i % 97 + 1)
        middle = time.perf_counter()
        for _ in range(20):
            numpy.linalg.cond(self.matrix)
            numpy.linalg.solve(self.matrix, self.matrix[0])
        end = time.perf_counter()
        w_fraction, w_numpy = self.weights
        return (w_fraction * (middle - start) + w_numpy * (end - middle)) / (w_fraction + w_numpy)

    def factor(self) -> float:
        """Scale factor for the op that just ended."""
        now = self.kernel_seconds()
        factor = KERNEL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor
