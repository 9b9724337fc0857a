import numpy as np
import pytest
from helpers import apply_noise, born_box_mixed, product_vectors, product_vectors_einsum

import randamp.boxes
import randamp.quantum
from randamp.boxes import bell_value, is_no_signaling, uniform_box
from randamp.protocol import ProtocolParams, _IidSampler
from randamp.quantum import (
    NoiseSpec,
    born_box,
    build_state,
    noisy_box,
    rotate_bases,
    validate_bases,
    validate_state,
    xz_bases,
)
from randamp.sv import HonestBits

# Amplitudes of the target state, worked out by hand from the two-pair
# expansion.  With qubit 1 on the most significant bit:
#   q1q2=00 pairs phi- (+1/sqrt2) with the tilde-plus block (+,+,+,-)/2,
#   q1q2=01 and 10 pair psi+ (+1/sqrt2) with the tilde-minus block (+,-,-,-)/2,
#   q1q2=11 pairs phi- (-1/sqrt2) with the tilde-plus block.
# Every amplitude is a sign times 1/4.
STATE_SIGNS = np.array(
    [+1, +1, +1, -1,
     +1, -1, -1, -1,
     +1, -1, -1, -1,
     -1, -1, -1, +1],
    dtype=float,
)

# Regression values for the basis-rotation sweep, measured once from the
# implementation.  Growth is quadratic in the angle (about 32 * theta^2).
ROTATION_SWEEP = {
    1e-3: 3.19999573334217e-05,
    1e-2: 0.0031995733560881336,
    1e-1: 0.3157560239884589,
}


def test_state_amplitudes():
    state = build_state()
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(state.imag)) == 0.0
    assert np.allclose(state.real, STATE_SIGNS / 4.0, atol=1e-14)
    assert state[0] == pytest.approx(0.25)


def test_clean_bell_value_is_algebraic_minimum():
    box = born_box(build_state(), xz_bases())
    assert abs(bell_value(box)) <= 1e-12


def test_ideal_box_is_exact():
    """The party-by-party contraction leaves no rounding dust: every entry
    that vanishes for the ideal box is exactly 0 (8 outcomes at each of the
    16 settings, 64 of them), the Bell value is exactly 0, and no selected
    pair ever scores."""
    for box in (born_box(build_state(), xz_bases()), noisy_box(NoiseSpec())):
        assert np.count_nonzero(box.table == 0.0) == 64
        assert bell_value(box) == 0.0
        sampler = _IidSampler(ProtocolParams(0.1, 0.8, 0.9, 5), box.table, HonestBits())
        assert np.all(sampler.law[2:] == 0.0)
    assert bell_value(noisy_box(NoiseSpec(state_mixing=0.05))) == 0.2


def test_global_phase_invariance():
    state = build_state()
    shifted = np.exp(1.234j) * state
    a = born_box(state, xz_bases()).table
    b = born_box(shifted, xz_bases()).table
    assert np.max(np.abs(a - b)) <= 1e-14


def test_born_box_mixed_matches_pure():
    state = build_state()
    rho = np.outer(state, state.conj())
    a = born_box(state, xz_bases()).table
    b = born_box_mixed(rho, xz_bases()).table
    assert np.max(np.abs(a - b)) <= 1e-12


def test_state_mixing_scales_bell_linearly():
    for m in (0.0, 0.1, 0.25, 0.5, 1.0):
        box = noisy_box(NoiseSpec(state_mixing=m))
        assert bell_value(box) == pytest.approx(4.0 * m, abs=1e-9)
    full = noisy_box(NoiseSpec(state_mixing=1.0))
    assert np.allclose(full.table, uniform_box().table, atol=1e-12)


def test_basis_rotation_sweep_frozen():
    values = {}
    for theta, frozen in ROTATION_SWEEP.items():
        values[theta] = bell_value(noisy_box(NoiseSpec(basis_rotation=theta)))
        assert values[theta] == pytest.approx(frozen, rel=1e-10)
    # strictly increasing over the sweep, continuous at zero
    ordered = [values[t] for t in sorted(values)]
    assert ordered == sorted(ordered)
    assert ordered[0] < 1e-4
    # linear envelope with the constant measured at the top of the range
    c = values[0.1] / 0.1
    for theta in (0.003, 0.01, 0.03, 0.1):
        assert bell_value(noisy_box(NoiseSpec(basis_rotation=theta))) <= c * theta + 1e-12


def test_combined_noise_stays_no_signaling():
    box = noisy_box(NoiseSpec(state_mixing=0.3, basis_rotation=0.2))
    ok, violations = is_no_signaling(box.table, tol=1e-9)
    assert ok, violations
    assert bell_value(box) > 0.0


def test_random_states_and_bases_are_no_signaling():
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = raw / np.linalg.norm(raw)
        bases = np.empty((4, 2, 2, 2), dtype=complex)
        for party in range(4):
            for u in range(2):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                q, r = np.linalg.qr(g)
                bases[party, u] = q * np.sign(np.diag(r).real)
        box = born_box(state, bases, tol=1e-9)  # constructor validates
        assert is_no_signaling(box.table, tol=1e-9)[0]


def test_rotation_preserves_orthonormality():
    rotated = rotate_bases(xz_bases(), 0.7)
    validate_bases(rotated)


def test_validation_errors():
    with pytest.raises(ValueError):
        validate_state(np.ones(16))
    with pytest.raises(ValueError):
        validate_state(np.ones(8) / np.sqrt(8.0))
    with pytest.raises(ValueError, match="norm nan"):
        validate_state(np.full(16, np.nan))
    bad = np.array(xz_bases())
    bad[0, 0, 1] = bad[0, 0, 0]
    with pytest.raises(ValueError):
        validate_bases(bad)
    with pytest.raises(ValueError):
        NoiseSpec(state_mixing=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(basis_rotation=float("nan"))


def test_validate_bases_names_party_and_input():
    for party, u in ((0, 0), (2, 1), (3, 1)):
        bad = np.array(xz_bases())
        bad[party, u, 1] = bad[party, u, 0]
        with pytest.raises(ValueError, match=f"party {party + 1}, input {u}: "):
            validate_bases(bad)
    # two bad bases: the first in (party, input) order is named
    bad = np.array(xz_bases())
    bad[3, 0] *= 1.1
    bad[1, 1, 0] *= 1.1j
    with pytest.raises(ValueError, match="party 2, input 1: "):
        validate_bases(bad)


def test_validate_bases_diagonal_tolerance_is_absolute():
    """A basis vector of norm 1 + 1e-8 is off the Gram diagonal by 2e-8, far
    past tol = 1e-12; a relative tolerance must not let it through."""
    bad = np.array(xz_bases())
    bad[2, 1, 0] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="party 3, input 1: "):
        validate_bases(bad)


@pytest.mark.parametrize("angle", [0.0, 0.2, -1.3])
def test_product_vectors_match_einsum_bitwise(angle):
    bases = rotate_bases(xz_bases(), angle)
    assert np.array_equal(product_vectors(bases), product_vectors_einsum(bases))


def test_noisy_box_matches_density_matrix_oracle():
    """noisy_box, the mixture of the pure box with the uniform one, is the
    Born rule for the mixed state, computed as <v|rho|v>."""
    for m in (0.0, 0.01, 0.05, 0.3, 1.0):
        for angle in (0.0, 0.2, 0.7, -1.3):
            noise = NoiseSpec(m, angle)
            oracle = born_box_mixed(*apply_noise(build_state(), xz_bases(), noise)).table
            assert np.max(np.abs(noisy_box(noise).table - oracle)) <= 1e-15, (m, angle)


def test_noisy_box_is_a_box_without_validation(monkeypatch):
    """noisy_box checks neither the canonical state, the rotated bases nor
    the Born table; over a grid of noise its box is no-signaling at 1e-12
    and equals the validated path, born_box mixed with uniform, bit for bit."""
    grid = [(m, angle) for m in (0.0, 0.05, 0.3, 0.999, 1.0) for angle in (0.0, 1e-6, 0.2, -0.7, 3.0, 40.0)]
    validated = {
        (m, angle): (1.0 - m) * born_box(build_state(), rotate_bases(xz_bases(), angle)).table + m / 16.0
        for m, angle in grid
    }

    def refuse(*args, **kwargs):
        raise AssertionError("noisy_box validated something")

    for name in ("validate_state", "validate_bases"):
        monkeypatch.setattr(randamp.quantum, name, refuse)
    monkeypatch.setattr(randamp.boxes, "is_no_signaling", refuse)
    noisy = {key: noisy_box(NoiseSpec(*key)) for key in grid}
    monkeypatch.undo()
    for key, box in noisy.items():
        ok, violations = is_no_signaling(box.table, tol=1e-12)
        assert ok, (key, violations)
        assert box.table.tobytes() == validated[key].tobytes(), key


def test_born_box_mixed_rejects_bad_density():
    state = build_state()
    rho = np.outer(state, state.conj())
    with pytest.raises(ValueError):
        born_box_mixed(rho[:8, :8], xz_bases())
    with pytest.raises(ValueError):
        born_box_mixed(2.0 * rho, xz_bases())
    skew = rho.copy()
    skew[0, 1] += 0.05j
    with pytest.raises(ValueError):
        born_box_mixed(skew, xz_bases())


def test_apply_noise_identity():
    state = build_state()
    rho, bases = apply_noise(state, xz_bases(), NoiseSpec())
    assert np.allclose(rho, np.outer(state, state.conj()), atol=1e-14)
    assert np.allclose(bases, xz_bases(), atol=1e-14)
