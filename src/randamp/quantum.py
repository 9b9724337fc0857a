"""Four-qubit realization achieving the algebraic minimum of the Bell expression.

State vectors are flat length-16 complex arrays with qubit 1 on the most
significant bit (C-order flatten of the (q1, q2, q3, q4) amplitude tensor).
Party i measures qubit i; input 0 selects the X basis, input 1 the Z basis.
"""

from __future__ import annotations

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


def build_state() -> np.ndarray:
    """Equal superposition of phi- x phi~+ (qubits 12 x 34) and psi+ x psi~-."""
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
    orthonormal = np.isclose(gram, np.eye(2), atol=tol).all(axis=(-2, -1))
    if not orthonormal.all():
        party, u = np.argwhere(~orthonormal)[0]
        raise ValueError(f"party {party + 1}, input {u}: basis not orthonormal")


def validate_state(state: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (16,):
        raise ValueError("state must have 16 amplitudes")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state norm {norm} != 1")
    return state


def born_box(state: np.ndarray, bases: np.ndarray, tol: float = 1e-9) -> NsBox:
    """Measurement box p(x|u) = |<basis vectors|state>|^2 for a pure state."""
    state = validate_state(state)
    validate_bases(bases)
    psi = state.reshape(2, 2, 2, 2)
    conj = np.asarray(bases, dtype=complex).conj()
    amp = np.einsum(
        "aiw,bjx,cky,dlz,wxyz->abcdijkl",
        conj[0], conj[1], conj[2], conj[3], psi,
    )
    prob = np.abs(amp) ** 2
    table = prob.transpose(7, 6, 5, 4, 3, 2, 1, 0).reshape(16, 16)
    return NsBox(table, tol=tol)


def _product_vectors(bases: np.ndarray) -> np.ndarray:
    """vecs[a, b, c, d, i, j, k, l] = the product of party 1's basis vector
    for outcome a at input i, ..., party 4's for outcome d at input l, as a
    flat length-16 vector.  Party p's (outcome, input, component) axes sit at
    positions p, 4 + p and 8 + p of a 12-axis broadcast."""
    factors = []
    for party in range(4):
        shape = [1] * 12
        shape[party] = shape[4 + party] = shape[8 + party] = 2
        factors.append(bases[party].reshape(shape))
    vecs = factors[0] * factors[1] * factors[2] * factors[3]
    return vecs.reshape(2, 2, 2, 2, 2, 2, 2, 2, 16)


def born_box_mixed(rho: np.ndarray, bases: np.ndarray, tol: float = 1e-9) -> NsBox:
    """Measurement box for a density operator (16 x 16, same index order as states)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise ValueError("rho must be 16 x 16")
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("rho must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    validate_bases(bases)
    vecs = _product_vectors(np.asarray(bases, dtype=complex))
    prob = np.einsum("...w,wv,...v->...", vecs.conj(), rho, vecs).real
    table = prob.transpose(7, 6, 5, 4, 3, 2, 1, 0).reshape(16, 16)
    return NsBox(table, tol=tol)


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


def apply_noise(state: np.ndarray, bases: np.ndarray, noise: NoiseSpec):
    """Return (rho, bases) for the noisy preparation and tilted measurements."""
    state = validate_state(state)
    m = noise.state_mixing
    rho = (1.0 - m) * np.outer(state, state.conj()) + m * np.eye(16) / 16.0
    return rho, rotate_bases(bases, noise.basis_rotation)


def noisy_box(noise: NoiseSpec, tol: float = 1e-9) -> NsBox:
    """Measurement box of the canonical state under the given noise."""
    rho, bases = apply_noise(build_state(), xz_bases(), noise)
    return born_box_mixed(rho, bases, tol=tol)
