"""Four-qubit realization achieving the algebraic minimum of the Bell expression.

State vectors are flat length-16 complex arrays with qubit 1 on the most
significant bit (C-order flatten of the (q1, q2, q3, q4) amplitude tensor).
Party i measures qubit i; input 0 selects the X basis, input 1 the Z basis.

_born_table contracts the Born amplitudes party by party, party 4 first, so
the ideal box is exact: its vanishing entries are exactly 0 and its Bell value
is exactly 0.  The noisy box for the state (1 - m) |psi><psi| + m I/16 is the
mixture (1 - m) p_psi + m/16 of that box with the uniform one, which is the
Born rule for the mixed state because every product basis vector has unit
norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .boxes import NsBox

SQRT2 = np.sqrt(2.0)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = (KET0 + KET1) / SQRT2
MINUS = (KET0 - KET1) / SQRT2

PHI_MINUS = (np.kron(KET0, KET0) - np.kron(KET1, KET1)) / SQRT2
PSI_PLUS = (np.kron(KET0, KET1) + np.kron(KET1, KET0)) / SQRT2
PHI_TILDE_PLUS = (np.kron(KET0, PLUS) + np.kron(KET1, MINUS)) / SQRT2
PSI_TILDE_MINUS = (np.kron(KET0, MINUS) - np.kron(KET1, PLUS)) / SQRT2


@functools.cache
def build_state() -> np.ndarray:
    """Equal superposition of phi- x phi~+ (qubits 12 x 34) and psi+ x psi~-,
    built once: every call returns the same read-only array."""
    state = (np.kron(PHI_MINUS, PHI_TILDE_PLUS) + np.kron(PSI_PLUS, PSI_TILDE_MINUS)) / SQRT2
    state.setflags(write=False)
    return state


def xz_bases() -> np.ndarray:
    """bases[party, input_bit, outcome, component]; input 0 -> {+,-}, input 1 -> {0,1}."""
    b = np.empty((4, 2, 2, 2), dtype=complex)
    for party in range(4):
        b[party, 0, 0] = PLUS
        b[party, 0, 1] = MINUS
        b[party, 1, 0] = KET0
        b[party, 1, 1] = KET1
    b.setflags(write=False)
    return b


def validate_bases(bases: np.ndarray, tol: float = 1e-12) -> None:
    bases = np.asarray(bases, dtype=complex)
    if bases.shape != (4, 2, 2, 2):
        raise ValueError(f"bases must have shape (4, 2, 2, 2), got {bases.shape}")
    # every party's and input's Gram matrix at once, [party, input, row, col]
    gram = bases @ bases.conj().swapaxes(-1, -2)
    # an absolute tolerance only: the diagonal, like the rest, may miss by tol
    orthonormal = (np.abs(gram - np.eye(2)) <= tol).all(axis=(-2, -1))
    if not orthonormal.all():
        party, u = np.argwhere(~orthonormal)[0]
        raise ValueError(f"party {party + 1}, input {u}: basis not orthonormal")


def validate_state(state: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (16,):
        raise ValueError("state must have 16 amplitudes")
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= tol:  # false for NaN too
        raise ValueError(f"state norm {norm} != 1")
    return state


def _born_table(state: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The (16, 16) table |<basis vectors|state>|^2 of a pure state, unchecked.

    The amplitudes are contracted party by party, party 4 first: each of four
    einsums folds one party's conjugated basis into one qubit of the state, so
    every amplitude is a chain of two-term sums.  For the canonical state in
    the X/Z bases the amplitudes that vanish come out exactly 0, so the ideal
    box has all 64 of its zero entries and Bell value exactly 0.  The last
    einsum leaves the axes in table order (x4 x3 x2 x1, u4 u3 u2 u1)."""
    conj = np.asarray(bases, dtype=complex).conj()
    # u, x: the party's input and outcome; a-d: qubits 1-4 of the state;
    # upper case: inputs and outcomes of the parties already folded in
    amp = np.einsum("uxd,abcd->xuabc", conj[3], state.reshape(2, 2, 2, 2))
    amp = np.einsum("uxc,XUabc->XxUuab", conj[2], amp)
    amp = np.einsum("uxb,XYUVab->XYxUVua", conj[1], amp)
    amp = np.einsum("uxa,XYZUVWa->XYZxUVWu", conj[0], amp)
    return (amp.real**2 + amp.imag**2).reshape(16, 16)


def born_box(state: np.ndarray, bases: np.ndarray, tol: float = 1e-9) -> NsBox:
    """Measurement box p(x|u) = |<basis vectors|state>|^2 for a pure state
    (_born_table), after checking the state's norm and the bases'
    orthonormality; the box is validated too."""
    state = validate_state(state)
    validate_bases(bases)
    return NsBox(_born_table(state, bases), tol=tol)


@dataclass(frozen=True)
class NoiseSpec:
    """state_mixing m replaces the state by (1-m) rho + m I/16; basis_rotation
    tilts every measurement vector by the given angle about the Bloch y axis."""

    state_mixing: float = 0.0
    basis_rotation: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.state_mixing <= 1.0:
            raise ValueError("state_mixing must lie in [0, 1]")
        if not np.isfinite(self.basis_rotation):
            raise ValueError("basis_rotation must be finite")


def rotate_bases(bases: np.ndarray, angle: float) -> np.ndarray:
    """Rotate each basis vector about the Bloch y axis, which is orthogonal to
    both the X and Z measurement axes."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return np.einsum("cd,puxd->puxc", rot, np.asarray(bases, dtype=complex))


def noisy_box(noise: NoiseSpec, tol: float = 1e-9) -> NsBox:
    """Measurement box of the canonical state under the given noise.

    Every product basis vector has unit norm, so the Born rule for
    (1 - m) |psi><psi| + m I/16 is the mixture (1 - m) p_psi(x|u) + m/16 of
    the pure state's box (_born_table, in the rotated bases) with the uniform
    box.  The canonical state has unit norm and a rotation keeps the X/Z
    bases orthonormal, so the pure table is a box by construction, and so is
    the mixture: neither the inputs nor the box are validated."""
    m = noise.state_mixing
    pure = _born_table(build_state(), rotate_bases(xz_bases(), noise.basis_rotation))
    return NsBox((1.0 - m) * pure + m / 16.0, tol=tol, validate=False)
