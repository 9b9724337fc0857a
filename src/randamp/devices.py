"""Adversarial device models: boxes whose behaviour may depend on their own past.

A device is queried once per use with the full history of (setting, outcome)
pairs it has produced so far and must answer with a valid no-signaling box.
Time-ordered no-signaling across uses is automatic in this representation:
the box at use l is a function of the past only.
"""

from __future__ import annotations

import math

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


class MixtureDevice(TimeOrderedDevice):
    """Convex mixture of sub-devices sharing one hidden label.

    The conditional box at use l is the posterior-weighted average of the
    component boxes, the posterior being the Bayes update of the prior by the
    likelihood each component assigns to the observed history.

    weights must be a 1-D vector with one entry per component, forming a
    distribution: entries nonnegative, summing to 1 within 1e-12; anything
    else raises ValueError.
    """

    def __init__(self, components, weights):
        self.components = list(components)
        # a private read-only copy: the posteriors read _prior, copied below,
        # and the vectorized engine reads weights, so both must stay fixed
        self.weights = np.array(weights, dtype=float)
        self.weights.setflags(write=False)
        if self.weights.ndim != 1 or len(self.weights) != len(self.components) or not self.components:
            raise ValueError(
                f"weights must be a 1-D vector with one entry per component "
                f"({len(self.components)}), got shape {self.weights.shape}"
            )
        self._prior = self.weights.tolist()
        # rounded as numpy's sum, so every decision is numpy's: numpy sums
        # fewer than eight entries left to right and longer vectors pairwise
        if len(self._prior) < 8:
            total = 0.0
            for w in self._prior:
                total += w
        else:
            total = float(self.weights.sum())
        # written so that NaN weights fail the comparisons: a NaN that min
        # skips still makes the sum NaN
        if not (min(self._prior) >= 0 and abs(total - 1.0) <= 1e-12):
            raise ValueError("weights must form a distribution")
        self._last = ((), [(0.5, 1)] * len(self.components))

    def _likelihoods(self, history) -> list:
        """The likelihood of the history under each component
        (_scaled_likelihood), so a long history cannot underflow it.  The
        last (history, likelihoods) pair is kept: a history one use longer
        than it costs one factor per component, the same float product in
        the same order up to exact powers of two; any other history is
        recomputed from the start."""
        history = tuple(history)
        prev, like = self._last
        if len(history) == len(prev) + 1 and history[:-1] == prev:
            u, x = history[-1]
            like = [
                _scaled(m * float(as_table(c.box_given(prev))[x, u]), e) if m != 0.0 else (m, e)
                for (m, e), c in zip(like, self.components)
            ]
        elif history != prev:
            like = [_scaled_likelihood(c, history) for c in self.components]
        self._last = (history, like)
        return like

    def posterior(self, history) -> np.ndarray:
        """Prior times likelihood, normalized.  Every likelihood is scaled by
        the same power of two first, so the result is the plain
        weights * likelihoods / total whenever those do not underflow."""
        like = self._likelihoods(history)
        supported = [e for w, (m, e) in zip(self._prior, like) if w > 0.0 and m != 0.0]
        if not supported:
            raise ZeroProbabilityHistoryError(
                f"history of length {len(history)} has zero probability under every component"
            )
        top = max(supported)
        joint = np.array([w * math.ldexp(m, e - top) for w, (m, e) in zip(self._prior, like)])
        return joint / joint.sum()

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


def _scaled(value: float, exponent: int) -> tuple:
    """value * 2**exponent as a (mantissa, exponent) pair; exact."""
    m, e = math.frexp(value)
    return m, e + exponent


def _scaled_likelihood(device: TimeOrderedDevice, history) -> tuple:
    """The probability the device assigns to an observed (setting, outcome)
    list, conditional on those settings, as a (mantissa, exponent) pair from
    math.frexp; (0.0, e) once a factor is 0, after which the device is not
    queried again."""
    m, e = 0.5, 1
    for l, (u, x) in enumerate(history):
        if m == 0.0:
            break
        m, e = _scaled(m * float(as_table(device.box_given(history[:l]))[x, u]), e)
    return m, e


def sample_outcome(device: TimeOrderedDevice, history, setting: int, rng) -> int:
    """Draw an outcome for the given setting.  The device must return an
    NsBox (DeviceError otherwise); the box is not validated again."""
    box = device.box_given(tuple(history))
    if not isinstance(box, NsBox):
        raise DeviceError(f"device returned {type(box).__name__}, not a box")
    col = box.table[:, setting]
    cdf = np.cumsum(col)
    r = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, r, side="right"), 15))
