"""Adversarial device models: boxes whose behaviour may depend on their own past.

A device is queried once per use with the full history of (setting, outcome)
pairs it has produced so far and must answer with a valid no-signaling box.
Time-ordered no-signaling across uses is automatic in this representation:
the box at use l is a function of the past only.
"""

from __future__ import annotations

import numpy as np

from .boxes import NsBox, as_table


class DeviceError(RuntimeError):
    """A device returned something that is not a valid box."""


class ZeroProbabilityHistoryError(ValueError):
    """Conditioning on a history every component assigns probability zero."""


class TimeOrderedDevice:
    def box_given(self, history) -> NsBox:
        raise NotImplementedError


class IidDevice(TimeOrderedDevice):
    """Same box at every use, independent of history."""

    def __init__(self, box):
        self.box = box if isinstance(box, NsBox) else NsBox(box)

    def box_given(self, history) -> NsBox:
        return self.box


class SequenceDevice(TimeOrderedDevice):
    """A fixed schedule of boxes, one per use."""

    def __init__(self, boxes):
        self.boxes = [b if isinstance(b, NsBox) else NsBox(b) for b in boxes]
        if not self.boxes:
            raise ValueError("need at least one box")

    def box_given(self, history) -> NsBox:
        if len(history) >= len(self.boxes):
            raise DeviceError(
                f"schedule exhausted: use {len(history) + 1} of {len(self.boxes)}"
            )
        return self.boxes[len(history)]


class MixtureDevice(TimeOrderedDevice):
    """Convex mixture of sub-devices sharing one hidden label.

    The conditional box at use l is the posterior-weighted average of the
    component boxes, the posterior being the Bayes update of the prior by the
    likelihood each component assigns to the observed history.
    """

    def __init__(self, components, weights):
        self.components = list(components)
        self.weights = np.asarray(weights, dtype=float)
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("need one weight per component")
        if np.min(self.weights) < 0 or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must form a distribution")

    def posterior(self, history) -> np.ndarray:
        like = np.array(
            [history_likelihood(c, history) for c in self.components], dtype=float
        )
        joint = self.weights * like
        total = joint.sum()
        if total <= 0.0:
            raise ZeroProbabilityHistoryError(
                f"history of length {len(history)} has zero probability under every component"
            )
        return joint / total

    def box_given(self, history) -> NsBox:
        """Posterior-weighted sum of the component boxes.  Each must be an
        NsBox; a convex combination of boxes valid within tol is valid within
        tol, so the sum is not validated again."""
        post = self.posterior(history)
        table = np.zeros((16, 16))
        for w, comp in zip(post, self.components):
            if w > 0:
                box = comp.box_given(history)
                if not isinstance(box, NsBox):
                    raise DeviceError(f"component returned {type(box).__name__}, not a box")
                table += w * box.table
        return NsBox(table, validate=False)


def history_likelihood(device: TimeOrderedDevice, history) -> float:
    """Probability the device assigns to an observed (setting, outcome) list,
    conditional on those settings."""
    p = 1.0
    for l, (u, x) in enumerate(history):
        if p == 0.0:
            return 0.0
        table = as_table(device.box_given(history[:l]))
        p *= float(table[x, u])
    return p


class ConditionedDevice(TimeOrderedDevice):
    """A device with a fixed prefix of uses already spent."""

    def __init__(self, device: TimeOrderedDevice, prefix):
        self.device = device
        self.prefix = tuple(prefix)

    def box_given(self, history) -> NsBox:
        return self.device.box_given(self.prefix + tuple(history))


def condition_device(device: TimeOrderedDevice, history) -> TimeOrderedDevice:
    """Pin a history prefix; raises if the device gives it probability zero."""
    history = tuple(history)
    if isinstance(device, MixtureDevice):
        device.posterior(history)  # surfaces ZeroProbabilityHistoryError
    elif history_likelihood(device, history) <= 0.0:
        raise ZeroProbabilityHistoryError(
            f"history of length {len(history)} has zero probability"
        )
    return ConditionedDevice(device, history)


def sample_outcome(device: TimeOrderedDevice, history, setting: int, rng) -> int:
    """Draw an outcome for the given setting; validates the returned box."""
    box = device.box_given(tuple(history))
    if not isinstance(box, NsBox):
        raise DeviceError(f"device returned {type(box).__name__}, not a box")
    col = box.table[:, setting]
    cdf = np.cumsum(col)
    r = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, r, side="right"), 15))
