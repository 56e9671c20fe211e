import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import random_pure
from entroscope import (
    MeasurementSetup,
    PartitionSpec,
    PureState,
    ValidationError,
    chsh_value,
    chsh_values,
    correlator,
    device_joints,
    epr_singlet,
    full_partition,
    grouped_entropies,
    mutual_entropy,
    outcome_probabilities,
    premeasure,
    sample_records,
    ternary_center,
    venn_atoms,
)
from entroscope import _pcg64, linalg, scenarios
from entroscope.linalg import partial_trace
from entroscope.measurement import CLASSICAL_BOUND, MAX_SHOTS, TSIRELSON_BOUND

SQRT_HALF = 1.0 / math.sqrt(2.0)


def parallel_setup():
    return MeasurementSetup.of((0, 0.0, "A1"), (1, 0.0, "A2"))


def orthogonal_setup():
    return MeasurementSetup.of((0, 0.0, "A1"), (1, math.pi / 2, "A2"))


def test_setup_validation():
    with pytest.raises(ValidationError, match="at least one tap"):
        MeasurementSetup.of()
    with pytest.raises(ValidationError, match="distinct"):
        MeasurementSetup.of((0, 0.0, "A1"), (0, 0.5, "A2"))
    with pytest.raises(ValidationError, match="distinct"):
        MeasurementSetup.of((0, 0.0, "A1"), (1, 0.5, "A1"))


def test_tap_factors_must_be_integers():
    with pytest.raises(ValidationError, match="factor must be an integer, got 0.9"):
        MeasurementSetup.of((0.9, 0.0, "A"))
    assert MeasurementSetup.of((np.int32(1), 0.0, "A")).taps == ((1, 0.0, "A"),)


def test_premeasure_rejects_bad_taps():
    with pytest.raises(ValidationError, match="targets factor"):
        premeasure(epr_singlet(), MeasurementSetup.of((2, 0.0, "A1")))
    qutrit = PureState(np.array([1.0, 0.0, 0.0]), (3,))
    with pytest.raises(ValidationError, match="qubits"):
        premeasure(qutrit, MeasurementSetup.of((0, 0.0, "A1")))


@pytest.mark.parametrize("dims, factors", [
    ((2, 3, 2), (0,)),
    ((2, 3, 2), (2, 0)),
    ((2, 2, 3, 2), (3, 0, 1)),
], ids=["one-tap", "two-taps-apart", "three-taps"])
def test_premeasure_matches_kron_circuit(dims, factors):
    rng = np.random.default_rng(len(dims) * 10 + len(factors))
    for seed in range(3):
        state = random_pure(dims, seed=700 + seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=len(factors))
        setup = MeasurementSetup.of(
            *((f, a, f"P{i}") for i, (f, a) in enumerate(zip(factors, angles)))
        )
        post = premeasure(state, setup)
        assert post.dims == dims + (2,) * len(factors)
        want = helpers.premeasure_kron(state, setup)
        np.testing.assert_allclose(post.amplitudes, want, rtol=0.0, atol=1e-12)


def test_premeasure_parallel_amplitudes():
    # copying the z-basis bits of (|01> - |10>)/sqrt(2) onto two ancillas
    post = premeasure(epr_singlet(), parallel_setup())
    assert post.dims == (2, 2, 2, 2)
    expect = np.zeros(16, dtype=complex)
    expect[0b0101] = SQRT_HALF
    expect[0b1010] = -SQRT_HALF
    assert np.max(np.abs(post.amplitudes - expect)) < 1e-12


def test_premeasure_classical_copy():
    zero = PureState(np.array([1.0, 0.0]), (2,))
    post = premeasure(zero, MeasurementSetup.of((0, 0.0, "A")))
    expect = np.zeros(4, dtype=complex)
    expect[0] = 1.0
    assert np.array_equal(post.amplitudes, expect)


def test_premeasure_preserves_purity():
    rng = np.random.default_rng(13)
    for _ in range(15):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        setup = MeasurementSetup.of((0, float(t1), "A1"), (1, float(t2), "A2"))
        post = premeasure(epr_singlet(), setup)
        assert helpers.purity(post.to_density()) == pytest.approx(1.0, abs=1e-9)


def test_repeated_measurement_agrees():
    # a second device at the same angle on the same qubit reads the same bit
    for theta in (0.0, 0.7, math.pi / 2):
        first = premeasure(epr_singlet(), MeasurementSetup.of((0, theta, "A1")))
        second = premeasure(first, MeasurementSetup.of((0, theta, "B1")))
        rho = second.to_density()
        pair = partial_trace(rho, (2, 3)).matrix.diagonal().real
        assert pair[0b01] == pytest.approx(0.0, abs=1e-12)
        assert pair[0b10] == pytest.approx(0.0, abs=1e-12)
        joints = grouped_entropies(rho, PartitionSpec.of(A1=[2], B1=[3]))
        assert mutual_entropy(joints, "A1", "B1") == pytest.approx(1.0, abs=1e-9)


def test_device_diagram_parallel():
    post = premeasure(epr_singlet(), parallel_setup())
    joints = device_joints(post, parallel_setup())
    atoms = venn_atoms(joints)
    assert atoms[("A1",)] == pytest.approx(0.0, abs=1e-9)
    assert atoms[("A2",)] == pytest.approx(0.0, abs=1e-9)
    assert atoms[("A1", "A2")] == pytest.approx(1.0, abs=1e-9)


def test_device_diagram_orthogonal():
    post = premeasure(epr_singlet(), orthogonal_setup())
    joints = device_joints(post, orthogonal_setup())
    atoms = venn_atoms(joints)
    assert atoms[("A1",)] == pytest.approx(1.0, abs=1e-9)
    assert atoms[("A2",)] == pytest.approx(1.0, abs=1e-9)
    assert atoms[("A1", "A2")] == pytest.approx(0.0, abs=1e-9)


def test_device_diagrams_stay_classical():
    rng = np.random.default_rng(19)
    for _ in range(12):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        setup = MeasurementSetup.of((0, float(t1), "A1"), (1, float(t2), "A2"))
        post = premeasure(epr_singlet(), setup)
        joints = device_joints(post, setup)
        atoms = venn_atoms(joints)
        assert all(v >= -1e-9 for v in atoms.values())


def test_system_device_center_vanishes():
    setup = parallel_setup()
    post = premeasure(epr_singlet(), setup)
    joints = grouped_entropies(post.to_density(), full_partition(post, setup))
    assert ternary_center(venn_atoms(joints)) == pytest.approx(0.0, abs=1e-9)


def test_full_partition_label_collision():
    setup = MeasurementSetup.of((0, 0.0, "Q"))
    post = premeasure(epr_singlet(), setup)
    with pytest.raises(ValidationError, match="collides"):
        full_partition(post, setup)


def test_outcome_probabilities_parallel():
    post = premeasure(epr_singlet(), parallel_setup())
    p = outcome_probabilities(post, parallel_setup())
    assert np.max(np.abs(p - np.array([0.0, 0.5, 0.5, 0.0]))) < 1e-12
    assert abs(p.sum() - 1.0) < 1e-12


def test_outcome_probabilities_orthogonal_uniform():
    post = premeasure(epr_singlet(), orthogonal_setup())
    p = outcome_probabilities(post, orthogonal_setup())
    assert np.max(np.abs(p - 0.25)) < 1e-12


def test_outcome_agreement_follows_angle_difference():
    # P(A1 = A2) = sin^2((t1 - t2)/2) on the singlet
    rng = np.random.default_rng(29)
    for _ in range(15):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        setup = MeasurementSetup.of((0, float(t1), "A1"), (1, float(t2), "A2"))
        p = outcome_probabilities(premeasure(epr_singlet(), setup), setup)
        agree = float(p[0b00] + p[0b11])
        assert agree == pytest.approx(math.sin((t1 - t2) / 2.0) ** 2, abs=1e-9)


def test_outcome_probabilities_match_the_devices_reduced_diagonal():
    # the marginal of |amplitudes|^2 against an explicit partial trace of
    # rho, on random states with system factors of dim 2 and 3
    rng = np.random.default_rng(31)
    for k in range(20):
        dims = ((2, 2), (2, 3, 2), (3, 2))[k % 3]
        qubits = [i for i, d in enumerate(dims) if d == 2]
        taps = [(f, float(rng.uniform(-7.0, 7.0)), f"D{f}") for f in qubits]
        setup = MeasurementSetup.of(*taps)
        post = premeasure(random_pure(dims, seed=500 + k), setup)
        rho = post.to_density().matrix
        devices = range(len(dims), post.num_factors)
        diag = helpers.brute_partial_trace(rho, post.dims, devices).diagonal().real
        p = outcome_probabilities(post, setup)
        assert p.shape == (2 ** len(taps),)
        assert np.max(np.abs(p - diag)) < 1e-12
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) < 1e-12


def test_sampling_builds_no_density_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a density matrix was built")

    setup = MeasurementSetup.of((0, 0.4, "A1"), (1, 1.9, "A2"))
    post = premeasure(epr_singlet(), setup)
    expect = outcome_probabilities(post, setup)
    records = sample_records(post, setup, shots=300, seed=4)
    monkeypatch.setattr(PureState, "to_density", dense)
    monkeypatch.setattr(linalg, "partial_trace", dense)
    assert np.array_equal(outcome_probabilities(post, setup), expect)
    assert np.array_equal(sample_records(post, setup, shots=300, seed=4), records)


def test_sample_records_deterministic_per_seed():
    post = premeasure(epr_singlet(), parallel_setup())
    a = sample_records(post, parallel_setup(), shots=200, seed=5)
    b = sample_records(post, parallel_setup(), shots=200, seed=5)
    assert np.array_equal(a, b)
    c = sample_records(post, parallel_setup(), shots=200, seed=6)
    assert not np.array_equal(a, c)


def test_sample_records_shape_and_order():
    post = premeasure(epr_singlet(), parallel_setup())
    records = sample_records(post, parallel_setup(), shots=100, seed=1)
    loop = helpers.sample_records_loop(post, parallel_setup(), shots=100, seed=1)
    assert isinstance(records, np.ndarray) and records.shape == (100,)
    assert records.dtype == np.uint8  # one byte per shot
    assert [r.shot for r in loop] == list(range(100))
    bits = helpers.record_bits(records, 2)
    assert bits.shape == (100, 2)
    # shot order: row i of the array is shot i of the loop
    assert [tuple(row) for row in bits.tolist()] == [r.bits for r in loop]
    assert set(map(tuple, bits.tolist())) <= {(0, 1), (1, 0)}  # parallel devices anticorrelate


def test_sample_records_deterministic_distribution():
    zero = PureState(np.array([1.0, 0.0]), (2,))
    setup = MeasurementSetup.of((0, 0.0, "A"))
    post = premeasure(zero, setup)
    records = sample_records(post, setup, shots=50, seed=3)
    assert helpers.record_bits(records, 1).tolist() == [[0]] * 50
    assert records.tolist() == [0] * 50


@settings(max_examples=100, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=4).filter(lambda d: 2 in d),
       seed=st.integers(0, 2**32 - 1), off=st.floats(-0.9e-12, 0.9e-12), data=st.data())
def test_premeasure_keeps_the_squared_norm(dims, seed, off, data):
    # premeasure builds its state without the constructor's norm check:
    # a unitary keeps the checked input's norm, up to 0.9e-12 from 1 here
    qubits = [i for i, d in enumerate(dims) if d == 2]
    taps = data.draw(st.lists(st.sampled_from(qubits), min_size=1, unique=True))
    angles = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(taps), max_size=len(taps)))
    psi = PureState(random_pure(dims, seed).amplitudes * math.sqrt(1.0 + off), dims)
    setup = MeasurementSetup(tuple((f, a, f"A{i}") for i, (f, a) in enumerate(zip(taps, angles))))
    post = premeasure(psi, setup)
    norm2 = [float(np.sum(np.abs(s.amplitudes) ** 2)) for s in (psi, post)]
    assert abs(norm2[1] - norm2[0]) <= 1e-14
    assert np.isfinite(post.amplitudes).all() and not post.amplitudes.flags.writeable


def test_sample_records_frequencies_converge():
    post = premeasure(epr_singlet(), parallel_setup())
    records = sample_records(post, parallel_setup(), shots=20000, seed=8)
    n01 = int(np.sum((helpers.record_bits(records, 2) == (0, 1)).all(axis=1)))
    assert n01 == np.count_nonzero(records == 0b01)
    assert n01 / 20000 == pytest.approx(0.5, abs=0.02)


@settings(max_examples=60, deadline=None)
@given(
    shots=st.integers(1, 5000),
    seed=st.integers(0, 2**63 - 1),
    angles=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
    lanes=st.sampled_from([2**k for k in range(7)]) | st.just(_pcg64._LANES),
)
def test_sample_records_match_per_shot_loop(shots, seed, angles, lanes):
    # few lanes split the shots into many blocks of draws and of bincount
    # calls; the loop oracle draws them all in one Generator.choice call
    setup = MeasurementSetup.of((0, angles[0], "A1"), (1, angles[1], "A2"))
    post = premeasure(epr_singlet(), setup)
    with mock.patch.object(_pcg64, "_LANES", lanes):
        records = sample_records(post, setup, shots=shots, seed=seed)
        sampled = scenarios._sampled_block(post, setup, shots, seed, exact_mutual=0.0)
    loop = helpers.sample_records_loop(post, setup, shots=shots, seed=seed)
    assert len(records) == len(loop) == shots
    assert records.dtype == np.uint8
    assert [tuple(row) for row in helpers.record_bits(records, 2).tolist()] == [r.bits for r in loop]
    assert all(r.devices == sampled["devices"] == ("A1", "A2") for r in loop)
    assert sampled["counts"] == {
        f"{b0}{b1}": sum(1 for r in loop if r.bits == (b0, b1)) for b0 in (0, 1) for b1 in (0, 1)
    }


def test_sample_records_validation():
    post = premeasure(epr_singlet(), parallel_setup())
    with pytest.raises(ValidationError, match="shots"):
        sample_records(post, parallel_setup(), shots=0, seed=0)
    # over MAX_SHOTS, so nothing is allocated
    with pytest.raises(ValidationError, match="too many"):
        sample_records(post, parallel_setup(), shots=10**15, seed=0)


def test_sample_records_over_the_cap_fails_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drawing started")

    post = premeasure(epr_singlet(), parallel_setup())
    monkeypatch.setattr(_pcg64, "uniforms", no_draw)
    with pytest.raises(ValidationError, match=f"^{MAX_SHOTS + 1} shots are too many to hold in memory$"):
        sample_records(post, parallel_setup(), shots=MAX_SHOTS + 1, seed=0)


_STREAM_SEEDS = st.integers(0, 2**128) | st.just(10**4299)  # the CLI's 4,300-digit limit


@settings(max_examples=40, deadline=None)
@given(seed=_STREAM_SEEDS, spawn_key=st.sampled_from([(), (0,)]),
       n=st.integers(1, 3 * _pcg64._LANES) | st.sampled_from([_pcg64._LANES, 3 * _pcg64._LANES]))
def test_stream_equals_numpy_generator_random(seed, spawn_key, n):
    # numpy's SeedSequence, PCG64 and Generator.random are the oracle; the
    # blocks are whole lanes but the last, and together they are one stream
    seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
    assert _pcg64.seed_state(seed, spawn_key) == seq.generate_state(4, np.uint64).tolist()
    blocks = list(_pcg64.uniforms(seed, n, spawn_key))
    assert [len(b) for b in blocks] == [min(_pcg64._LANES, n - lo) for lo in range(0, n, _pcg64._LANES)]
    theirs = np.random.default_rng(seq).random(n)
    assert np.array_equal(np.concatenate(blocks).view(np.uint64), theirs.view(np.uint64))


@settings(max_examples=20, deadline=None)
@given(seed=_STREAM_SEEDS, quads=st.integers(1, 3 * _pcg64._LANES // 4))
def test_scan_angles_equal_generator_uniform(seed, quads):
    # run_chsh scales the stream's uniforms by 2 pi, as Generator.uniform does
    ours = 2.0 * math.pi * np.concatenate(list(_pcg64.uniforms(seed, 4 * quads))).reshape(quads, 4)
    theirs = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(quads, 4))
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def test_correlator_analytic():
    assert correlator(0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(37)
    for _ in range(20):
        x, y = rng.uniform(0.0, 2 * math.pi, size=2)
        assert correlator(x, y) == pytest.approx(helpers.singlet_expectation(x, y), abs=1e-12)


def test_chsh_canonical_value():
    s = chsh_value(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    assert s == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-9)
    assert abs(s) == pytest.approx(TSIRELSON_BOUND, abs=1e-9)


def test_chsh_degenerate_choice_stays_classical():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a, b = rng.uniform(0.0, 2 * math.pi, size=2)
        s = chsh_value(a, a, b, b)
        assert abs(s) == pytest.approx(2.0 * abs(correlator(a, b)), abs=1e-12)
        assert abs(s) <= CLASSICAL_BOUND + 1e-12


def test_chsh_deterministic_strategies_respect_bound():
    values = helpers.deterministic_chsh_values()
    assert len(values) == 16
    assert max(abs(v) for v in values) == 2


@pytest.mark.parametrize("n", [1, 2, 257])
def test_chsh_values_match_scalar_chsh_value(n):
    # chsh_values, chsh_value and correlator share the closed form
    # -(cos x cos y + sin x sin y); the oracle builds each 4x4 operator
    # with np.kron and applies it to the singlet's amplitudes instead
    rng = np.random.default_rng(1000 + n)
    quads = rng.uniform(-4 * math.pi, 4 * math.pi, size=(n, 4))
    values = chsh_values(quads)
    assert values.shape == (n,)
    for (a, ap, b, bp), v in zip(quads, values):
        e = helpers.singlet_correlator_kron
        for x, y in ((a, b), (a, bp), (ap, b), (ap, bp)):
            assert correlator(x, y) == pytest.approx(e(x, y), abs=1e-12)
        oracle = e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)
        assert v == pytest.approx(oracle, abs=1e-12)
        assert chsh_value(a, ap, b, bp) == pytest.approx(oracle, abs=1e-12)


_HUGE = st.floats(1e300, 1.7976931348623157e308)
_ANGLES = st.one_of(st.floats(-100.0, 100.0), st.floats(allow_nan=False, allow_infinity=False),
                    _HUGE, _HUGE.map(lambda x: -x))


@settings(max_examples=200, deadline=None)
@given(quads=st.lists(st.tuples(_ANGLES, _ANGLES, _ANGLES, _ANGLES), min_size=1, max_size=8))
@example(quads=[(0.0, 1e308, -1e308, 0.0)])  # a - b overflows to inf here
def test_chsh_values_agree_with_the_kron_oracle_at_any_finite_angle(quads):
    values = chsh_values(quads)
    assert values.shape == (len(quads),) and np.isfinite(values).all()
    e = helpers.singlet_correlator_kron
    for (a, ap, b, bp), v in zip(quads, values):
        assert abs(v - (e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp))) <= 1e-14


def test_chsh_values_rejects_bad_shape():
    with pytest.raises(ValidationError, match="N, 4"):
        chsh_values(np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="N, 4"):
        chsh_values(np.zeros(4))
