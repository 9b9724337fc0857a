"""Device models whose uses are i.i.d. given one hidden label.

An IidDevice plays one box at every use.  A MixtureDevice draws a label
once, from its weights, and then plays that component at every use.  The
protocol reads only each device's selected (setting, outcome) pair, so
under a position-only source either kind is fixed by the one table its
selected use is drawn from (protocol._reduced_table).
"""

from __future__ import annotations

import numpy as np

from .boxes import NsBox


class IidDevice:
    """Same box at every use, independent of history."""

    def __init__(self, box):
        self.box = box if isinstance(box, NsBox) else NsBox(box)


class MixtureDevice:
    """Convex mixture of sub-devices sharing one hidden label.

    weights must be a 1-D vector with one entry per component, forming a
    distribution: entries nonnegative, summing to 1 within 1e-12; anything
    else raises ValueError.
    """

    def __init__(self, components, weights):
        self.components = list(components)
        # a private read-only copy: the engines read weights, so they must stay fixed
        self.weights = np.array(weights, dtype=float)
        self.weights.setflags(write=False)
        if self.weights.ndim != 1 or len(self.weights) != len(self.components) or not self.components:
            raise ValueError(
                f"weights must be a 1-D vector with one entry per component "
                f"({len(self.components)}), got shape {self.weights.shape}"
            )
        # numpy's sum, and so its rounding; written so that NaN weights fail
        # the comparisons (a NaN that min skips makes the sum NaN)
        if not (min(self.weights.tolist()) >= 0 and abs(np.add.reduce(self.weights) - 1.0) <= 1e-12):
            raise ValueError("weights must form a distribution")
