import math

import numpy as np
import pytest

import helpers
from entroscope import (
    ValidationError,
    axis_angle,
    basis_rotation,
    cat_chain,
    epr_singlet,
    ghz,
    random_density,
    random_pure,
    spin_observable,
    von_neumann_entropy,
)
from entroscope.linalg import partial_trace
from entroscope.states import PAULI_X, PAULI_Z

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_epr_singlet_amplitudes():
    amps = epr_singlet().amplitudes
    assert amps[0] == 0.0 and amps[3] == 0.0
    assert amps[1] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert amps[2] == pytest.approx(-SQRT_HALF, abs=1e-15)


def test_epr_singlet_marginals_and_global_entropy():
    rho = epr_singlet().to_density()
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    for side in (0, 1):
        red = partial_trace(rho, (side,))
        assert np.max(np.abs(red.matrix - np.eye(2) / 2.0)) < 1e-12


def test_epr_singlet_rotation_invariance():
    # R(theta) x R(theta) leaves the singlet fixed up to global phase
    psi = epr_singlet().amplitudes
    rng = np.random.default_rng(2)
    for theta in rng.uniform(0.0, math.pi, size=10):
        rr = np.kron(basis_rotation(theta), basis_rotation(theta))
        fidelity = abs(np.vdot(psi, rr @ psi))
        assert fidelity == pytest.approx(1.0, abs=1e-9)


def test_ghz_amplitudes_and_size_check():
    amps = ghz(3).amplitudes
    assert amps[0] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert amps[7] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert np.count_nonzero(amps) == 2
    with pytest.raises(ValidationError):
        ghz(2)


def test_ghz_reductions():
    rho = ghz(3).to_density()
    assert helpers.purity(rho) == pytest.approx(1.0, abs=1e-12)
    pair = partial_trace(rho, (0, 1)).matrix
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(pair - expect)) < 1e-12
    for i in range(3):
        single = partial_trace(rho, (i,)).matrix
        assert np.max(np.abs(single - np.eye(2) / 2.0)) < 1e-12


def test_cat_chain_structure():
    short = cat_chain(with_observer=False)
    assert short.dims == (2, 2, 2)
    assert np.count_nonzero(short.amplitudes) == 2
    assert short.amplitudes[0] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert short.amplitudes[7] == pytest.approx(SQRT_HALF, abs=1e-15)

    full = cat_chain(with_observer=True)
    assert full.dims == (2, 2, 2, 2)
    assert np.array_equal(full.amplitudes, ghz(4).amplitudes)


def test_axis_angle_normalization():
    assert axis_angle(0.0) == 0.0
    assert axis_angle(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert axis_angle(-math.pi / 4) == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert axis_angle(2 * math.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValidationError):
        axis_angle(float("nan"))
    with pytest.raises(ValidationError):
        axis_angle(float("inf"))


def test_axis_angle_takes_real_numbers_and_returns_a_float():
    for value in (1, np.float32(0.5), np.float64(0.25), np.int64(3), -4.0):
        t = axis_angle(value)
        assert type(t) is float and 0.0 <= t < math.pi
        assert t == float(value) % math.pi


def test_basis_rotation_uses_the_axis():
    # theta and theta + pi are one axis: the same rotation, not its negative
    for theta in (0.3, 2.0, -1.0):
        for turn in (math.pi, -2 * math.pi):
            assert np.max(np.abs(basis_rotation(theta + turn) - basis_rotation(theta))) < 1e-12
    with pytest.raises(ValidationError, match="finite"):
        basis_rotation(math.nan)


def test_spin_observable_endpoints():
    assert np.array_equal(spin_observable(0.0), PAULI_Z)
    assert np.max(np.abs(spin_observable(math.pi / 2) - PAULI_X)) < 1e-15


def test_basis_rotation_endpoints():
    assert np.max(np.abs(basis_rotation(0.0) - np.eye(2))) < 1e-15
    rx = basis_rotation(math.pi / 2)
    assert np.max(np.abs(np.abs(rx) - SQRT_HALF)) < 1e-12


def test_basis_rotation_diagonalizes_spin_observable():
    rng = np.random.default_rng(3)
    for theta in list(rng.uniform(0.0, math.pi, size=12)) + [0.0, math.pi / 2]:
        r = basis_rotation(theta)
        m = spin_observable(theta)
        assert np.max(np.abs(r @ r.conj().T - np.eye(2))) < 1e-12
        assert np.max(np.abs(r @ m @ r.conj().T - np.diag([1.0, -1.0]))) < 1e-12
        # rows of R are the observable's eigenvectors
        plus = r[0, :]
        assert np.max(np.abs(m @ plus - plus)) < 1e-12


def test_random_density_contract():
    rho = random_density((2, 2), seed=42)
    again = random_density((2, 2), seed=42)
    assert rho.matrix.tobytes() == again.matrix.tobytes()
    other = random_density((2, 2), seed=43)
    assert not np.array_equal(rho.matrix, other.matrix)


def test_random_density_entropy_statistics():
    total = 0.0
    for seed in range(100):
        total += von_neumann_entropy(random_density((2, 2), seed=seed))
    mean = total / 100.0
    assert 0.0 < mean < 2.0


def test_random_pure_contract():
    psi = random_pure((2, 2, 2), seed=7)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12
    assert np.array_equal(psi.amplitudes, random_pure((2, 2, 2), seed=7).amplitudes)


@pytest.mark.parametrize("build", [
    lambda: ghz(3.7),
    lambda: random_pure((2.9, 2), seed=1),
    lambda: random_density((2.5, 2), seed=1),
], ids=["ghz", "random_pure", "random_density"])
def test_fractional_sizes_are_refused(build):
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


def test_numpy_integer_sizes_still_work():
    assert ghz(np.int64(3)).dims == (2, 2, 2)
    assert random_pure((np.int32(2), np.int64(3)), seed=1).dims == (2, 3)
    assert random_density(np.array([2, 2]), seed=1).dims == (2, 2)
