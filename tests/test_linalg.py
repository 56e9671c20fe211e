import copy
import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import random_density, random_pure
from entroscope import (
    DensityOperator,
    NumericalFaultError,
    PureState,
    ValidationError,
    epr_singlet,
    ghz,
)
from entroscope.linalg import (
    hermitian_eig,
    hermitian_eigenvalues,
    partial_trace,
)
from entroscope.states import PAULI_X, PAULI_Z

I2 = np.eye(2)

# sigma_z (x) sigma_x expanded entry by entry
SIGMA_Z_X = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, -1, 0],
    ],
    dtype=complex,
)


def test_kron_identities():
    assert np.array_equal(np.kron(I2, I2), np.eye(4))
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    assert np.array_equal(np.kron(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_pauli_blocks():
    assert np.array_equal(np.kron(PAULI_Z, PAULI_X), SIGMA_Z_X)


def test_kron_associative():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    left = np.kron(np.kron(a, b), c)
    right = np.kron(a, np.kron(b, c))
    assert np.max(np.abs(left - right)) < 1e-15 * np.max(np.abs(left))


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError, match="squared norm"):
        PureState(np.array([1.0, 1.0]), (2,))


def test_pure_state_shape_must_match():
    with pytest.raises(ValidationError, match="amplitudes"):
        PureState(np.array([1.0, 0.0, 0.0]), (2,))


def test_factor_dims_must_be_integers():
    amps = np.full(4, 0.5)
    with pytest.raises(ValidationError, match="factor dim must be an integer, got 2.9"):
        PureState(amps, (2.9, 2))
    with pytest.raises(ValidationError, match="factor dim must be an integer"):
        DensityOperator(np.eye(4) / 4.0, (2.0, 2))
    assert PureState(amps, (np.int64(2), np.uint8(2))).dims == (2, 2)


def test_pure_state_is_immutable():
    psi = epr_singlet()
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_density_validation_messages():
    with pytest.raises(ValidationError, match="hermitian check failed"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
    with pytest.raises(ValidationError, match="trace ="):
        DensityOperator(np.diag([0.5, 0.48]), (2,))
    # finite entries whose pairwise sum overflows to inf - inf = nan
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match="trace = nan"):
        DensityOperator(np.diag([1e308, 1e308, -1e308, -1e308]), (2, 2))
    with pytest.raises(ValidationError, match="does not match factor dims"):
        DensityOperator(np.eye(4) / 4.0, (2,))


def _off_hermitian(d: int, seed: int) -> np.ndarray:
    """A unit-trace d x d matrix up to 2.9e-13 from Hermitian, with exact
    and signed zeros among its imaginary parts."""
    rng = np.random.default_rng(seed)
    m = 1e-13 * (rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d)))
    m.imag[rng.random((d, d)) < 0.25] = -0.0
    m[rng.random((d, d)) < 0.25] = 0.0
    np.fill_diagonal(m, rng.random(d))
    m[0, 0] += 1.0 - m.trace()
    return m


@pytest.mark.parametrize("d", [2, 63, 64, 65, 130, 256])
def test_density_matrix_is_the_hermitian_part_bit_for_bit(d):
    # tiles of 64 x 64 and row blocks of 4096 // d rows: sizes on and off their edges
    m = _off_hermitian(d, seed=d)
    rho = DensityOperator(m, (d,))
    assert rho.matrix.tobytes() == helpers.hermitian_part(m).tobytes()
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert not rho.matrix.flags.writeable and rho.matrix is not m


@pytest.mark.parametrize("d", [2, 65, 256])
def test_hermitian_deviation_is_the_whole_matrix_maximum(d):
    m = _off_hermitian(d, seed=d + 1)
    m[d - 1, d // 3] += 3e-9
    m[d // 2, 0] -= 2e-9j
    dev = float(np.max(np.abs(m - m.conj().T)))
    for call in (lambda: DensityOperator(m, (d,)), lambda: hermitian_eig(m)):
        with pytest.raises(ValidationError, match=re.escape(f"max deviation {dev:.3e}")):
            call()


def test_density_construction_holds_one_copy_of_the_matrix():
    # the copy of the caller's array, plus tiles; four matrices at 2**8 before
    m = random_density((2,) * 8, seed=5).matrix.copy()
    DensityOperator(m, (2,) * 8)
    tracemalloc.start()
    try:
        rho = DensityOperator(m, (2,) * 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.matrix.nbytes == m.nbytes
    assert peak <= 1.25 * m.nbytes, f"peaked at {peak / m.nbytes:.2f} matrices"


def test_to_density_holds_one_copy_of_the_matrix():
    # the outer product is made Hermitian in place, plus tiles; it was
    # copied into the constructor before, 2.2 matrices at 2**8
    psi = random_pure((2,) * 8, seed=6)
    psi.to_density()
    tracemalloc.start()
    try:
        rho = psi.to_density()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rho.matrix.nbytes, f"peaked at {peak / rho.matrix.nbytes:.2f} matrices"


@pytest.mark.parametrize("dims", [(2,) * 7, (3,) * 6, (2,) * 10])
def test_to_density_is_the_constructors_matrix_bit_for_bit(dims):
    # to_density forms the outer product in blocks of rows; across block
    # edges, zero amplitudes and negative zeros it matches one np.outer call
    rng = np.random.default_rng(len(dims))
    psi = random_pure(dims, seed=len(dims)).amplitudes.copy()
    psi[rng.random(psi.size) < 0.2] = 0.0
    psi.imag[rng.random(psi.size) < 0.2] = -0.0
    psi = PureState(psi / np.linalg.norm(psi), dims)
    twin = DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), dims)
    assert psi.to_density().matrix.tobytes() == twin.matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1),
       off=st.floats(-0.9e-12, 0.9e-12), pure=st.booleans(), data=st.data())
def test_derived_states_hold_the_constructor_invariants(dims, seed, off, pure, data):
    # to_density and partial_trace build their results without the
    # constructor's checks, which run here as the oracle, on inputs whose
    # trace or squared norm sits up to 0.9e-12 from 1
    if pure:
        psi = PureState(random_pure(dims, seed).amplitudes * math.sqrt(1.0 + off), dims)
        rho = psi.to_density()
        twin = DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), dims)
        assert rho.matrix.tobytes() == twin.matrix.tobytes() and not rho.matrix.flags.writeable
    else:
        rho = DensityOperator(random_density(dims, seed).matrix * (1.0 + off), dims)
    keep = data.draw(st.sets(st.integers(0, len(dims) - 1), min_size=1))
    m = partial_trace(rho, keep).matrix
    assert np.array_equal(m, m.conj().T) and np.isfinite(m).all() and not m.flags.writeable
    bound = rho.dim * np.finfo(float).eps + abs(np.trace(rho.matrix) - 1.0)
    assert abs(np.trace(m) - 1.0) <= bound


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_derived_states_at_the_tolerance_edge_survive_copy_and_pickle(round_trip):
    # the reductions of a density whose trace sits 0.9999e-12 above 1: two
    # of the six have a trace past 1 + 1e-12, which the constructor refuses
    p = np.random.default_rng(2).random(8)
    rho = DensityOperator(np.diag(p / p.sum() * (1.0 + 0.9999e-12)), (2, 2, 2))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        red = partial_trace(rho, keep)
        back = round_trip(red)
        assert type(back) is DensityOperator and back.dims == red.dims
        assert back.matrix.tobytes() == red.matrix.tobytes() and not back.matrix.flags.writeable


def test_density_psd_is_checked_on_demand():
    # hermitian, trace 1, but one eigenvalue well below the clamp window
    m = np.diag([1.1, -0.1])
    rho = DensityOperator(m, (2,))
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        rho.validate_psd()


def test_partial_trace_singlet_marginal():
    rho = epr_singlet().to_density()
    for keep in ((0,), (1,)):
        red = partial_trace(rho, keep)
        assert np.max(np.abs(red.matrix - I2 / 2.0)) < 1e-12


def test_partial_trace_product_factorizes():
    rho_a = DensityOperator(np.diag([0.75, 0.25]), (2,))
    rho_b = DensityOperator(np.diag([0.6, 0.4]), (2,))
    joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), (2, 2))
    assert np.max(np.abs(partial_trace(joint, (0,)).matrix - rho_a.matrix)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, (1,)).matrix - rho_b.matrix)) < 1e-12


def test_partial_trace_ghz_pair():
    red = partial_trace(ghz(3).to_density(), (0, 1))
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(red.matrix - expect)) < 1e-12


def test_partial_trace_matches_index_contraction():
    for seed, dims in ((0, (2, 2, 2)), (1, (2, 2, 2, 2)), (2, (2, 3))):
        rho = random_density(dims, seed=seed)
        n = len(dims)
        for mask in range(1, 2**n - 1):
            keep = tuple(i for i in range(n) if mask >> i & 1)
            ours = partial_trace(rho, keep).matrix
            oracle = helpers.brute_partial_trace(rho.matrix, dims, keep)
            assert np.max(np.abs(ours - oracle)) < 1e-12


def test_partial_trace_composes_and_preserves_trace():
    rho = random_density((2, 2, 2, 2), seed=9)
    two_step = partial_trace(partial_trace(rho, (0, 1, 3)), (0, 1))
    one_step = partial_trace(rho, (0, 1))
    assert np.max(np.abs(two_step.matrix - one_step.matrix)) < 1e-12
    assert abs(np.trace(one_step.matrix) - 1.0) < 1e-12


def test_partial_trace_keep_must_be_integers():
    rho = epr_singlet().to_density()
    with pytest.raises(ValidationError, match="keep index must be an integer, got 0.5"):
        partial_trace(rho, [0.5])
    assert partial_trace(rho, [np.intp(1)]).dims == (2,)


def test_partial_trace_rejects_empty_keep():
    rho = epr_singlet().to_density()
    with pytest.raises(ValidationError, match="must keep at least one factor"):
        partial_trace(rho, ())
    with pytest.raises(ValidationError, match="out of range"):
        partial_trace(rho, (2,))


def test_eigenvalues_diagonal_input():
    w = hermitian_eigenvalues(np.diag([0.75, 0.25]))
    assert np.allclose(w, [0.25, 0.75], atol=1e-14)


def test_eigenvalues_half_i_plus_sigma_x():
    w = hermitian_eigenvalues((np.eye(2) + PAULI_X) / 2.0)
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_eigenvalues_singlet_projector():
    rho = epr_singlet().to_density()
    w = hermitian_eigenvalues(rho.matrix)
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    # cross-check against the characteristic polynomial route
    oracle = helpers.charpoly_eigenvalues(rho.matrix)
    assert np.max(np.abs(w - oracle)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_eig_agrees_with_jacobi(n):
    # the library is LAPACK; the independent route is the Jacobi oracle
    rng = np.random.default_rng(n)
    for _ in range(4):
        a = helpers.random_hermitian(rng, n)
        w = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - helpers.jacobi_eig(a)[0])) < 1e-10


def test_eig_degenerate_spectra():
    for a in (np.eye(4), np.eye(8) / 8.0, np.diag([1.0, 1.0, 0.0, 0.0])):
        assert np.max(np.abs(hermitian_eig(a) - helpers.jacobi_eig(a)[0])) < 1e-12


def test_non_finite_entries_are_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="amplitudes has NaN or infinite"):
            PureState(np.array([bad, 1.0]), (2,))
        m = np.array([[0.5, bad], [bad, 0.5]])
        with pytest.raises(ValidationError, match="density matrix has NaN or infinite"):
            DensityOperator(m, (2,))
        with pytest.raises(ValidationError, match="matrix has NaN or infinite"):
            hermitian_eig(m)
        with pytest.raises(ValidationError, match="matrix has NaN or infinite"):
            hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_is_hermitian_eig():
    a = helpers.random_hermitian(np.random.default_rng(3), 16)
    assert np.array_equal(hermitian_eigenvalues(a), hermitian_eig(a))


def test_lapack_failure_is_a_numerical_fault(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalFaultError, match="eigensolver failed"):
        hermitian_eig(np.eye(2))


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="hermitian check failed"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="square"):
        hermitian_eig(np.zeros((2, 3)))


def _stored_as_complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    m = np.empty(real.shape, complex)
    m.real, m.imag = real, imag
    return m


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), scale=st.integers(-8, 8))
def test_real_symmetric_matrices_take_the_real_solver(n, seed, scale):
    # Imaginary parts of +0.0 and -0.0 count as zero, and the real solver
    # (dsyevd) runs on the real part; a 1 x 1 matrix needs no solver.  Both
    # solvers are backward stable, so their spectra differ by at most a
    # small multiple of n eps ||m||.
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n)) * 10.0**scale
    r += r.T
    m = _stored_as_complex(r, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))
    calls = []

    def spy(a):
        calls.append(a.dtype)
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", spy):
        w = hermitian_eig(m)
    assert calls == ([] if n == 1 else [np.float64]) and w.dtype == np.float64
    bound = 16 * n * np.finfo(float).eps * np.linalg.norm(r)
    assert np.max(np.abs(w - eigvalsh(m))) <= bound
    # one nonzero imaginary entry, however small, keeps the complex
    # solver's result bit for bit, and a 1 x 1 matrix gives LAPACK's
    i, j = rng.integers(n, size=2)
    tilted = m.copy()
    tilted[i, j] += 5e-324j
    if i != j:
        tilted[j, i] = np.conj(tilted[i, j])
    for a in (tilted, m[:1, :1]):
        assert np.array_equal(hermitian_eig(a).view(np.uint64), eigvalsh(a).view(np.uint64))
    # and the checks still run before either solver
    if n > 1:
        skewed = m.copy()
        skewed[0, 1] += 1e-9 * max(1.0, np.abs(r).max())
        with pytest.raises(ValidationError, match="hermitian check failed"):
            hermitian_eig(skewed)
    m[i, j] = math.nan
    with pytest.raises(ValidationError, match="matrix has NaN or infinite"):
        hermitian_eig(m)


def test_eig_rejects_an_empty_matrix():
    for m in (np.zeros((0, 0)), np.zeros((0, 3))):
        with pytest.raises(ValidationError, match=r"nonempty square matrix, got shape \(0, \d\)"):
            hermitian_eig(m)


def test_density_eigenvalues_sum_to_one():
    for seed in range(10):
        rho = random_density((2, 2, 2), seed=seed)
        w = hermitian_eigenvalues(rho.matrix)
        assert abs(w.sum() - 1.0) < 1e-10


def test_purity_and_purity_check():
    assert helpers.purity(epr_singlet().to_density()) >= 1 - 1e-9
    mixed = DensityOperator(I2 / 2.0, (2,))
    assert helpers.purity(mixed) < 1 - 1e-9
    assert abs(helpers.purity(mixed) - 0.5) < 1e-12
    # either marginal of the singlet is maximally mixed
    marginal = partial_trace(epr_singlet().to_density(), (0,))
    assert helpers.purity(marginal) < 1 - 1e-9
