"""Acceptance gate: one test per shipped criterion.

Each test pins the tolerances the package promises.  The conftest prints
a PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import random_density, random_pure
from entroscope import (
    DensityOperator,
    MeasurementSetup,
    PartitionSpec,
    audit_inequalities,
    epr_singlet,
    ghz,
    joint_entropies,
    mutual_entropy,
    premeasure,
    run_cat,
    run_chsh,
    run_epr_measure,
    run_epr_pair,
    sample_records,
    shannon_entropy,
    ternary_center,
    venn_atoms,
    von_neumann_entropy,
)
from entroscope.linalg import partial_trace
from entroscope.measurement import TSIRELSON_BOUND

GRID = np.linspace(0.0, math.pi / 2.0, 21)


@pytest.fixture(scope="module")
def measurement_grid():
    """Centers and purities for every (theta1, theta2) pair on the 21x21 grid."""
    centers = np.empty((21, 21))
    purities = np.empty((21, 21))
    part_names = dict(Q=[0, 1], A1=[2], A2=[3])
    for i, t1 in enumerate(GRID):
        for j, t2 in enumerate(GRID):
            setup = MeasurementSetup.of((0, float(t1), "A1"), (1, float(t2), "A2"))
            post = premeasure(epr_singlet(), setup)
            rho = post.to_density()
            joints = joint_entropies(rho, PartitionSpec.of(**part_names))
            centers[i, j] = ternary_center(venn_atoms(joints))
            purities[i, j] = helpers.purity(rho)
    return centers, purities


def test_c01_epr_pair_diagram():
    rep = run_epr_pair()
    joints = rep.diagram.joints
    assert joints[("L",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("R",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("L", "R")] == pytest.approx(0.0, abs=1e-9)
    # S(L|R) = S(LR) - S(R) and S(R|L) = S(LR) - S(L)
    assert joints[("L", "R")] - joints[("R",)] == pytest.approx(-1.0, abs=1e-9)
    assert joints[("L", "R")] - joints[("L",)] == pytest.approx(-1.0, abs=1e-9)
    assert mutual_entropy(joints, "L", "R") == pytest.approx(2.0, abs=1e-9)


def test_c02_monotonicity_quantum_only():
    rep = run_epr_pair()
    violated = rep.diagram.audit.monotonicity_violated
    assert (("L",), ("L", "R")) in violated
    assert (("R",), ("L", "R")) in violated

    rng = np.random.default_rng(2024)
    part = PartitionSpec.of(A=[0], B=[1])
    for _ in range(1000):
        mat, _ = helpers.random_classical_density(rng, (2, 2))
        joints = joint_entropies(DensityOperator(mat, (2, 2)), part)
        assert audit_inequalities(joints).monotonicity_violated == ()


def test_c03_parallel_measurement():
    rep = run_epr_measure(0.0, 0.0)
    atoms = rep.reduced.atoms
    assert atoms[("A1",)] == pytest.approx(0.0, abs=1e-9)
    assert atoms[("A1", "A2")] == pytest.approx(1.0, abs=1e-9)
    assert atoms[("A2",)] == pytest.approx(0.0, abs=1e-9)

    setup = MeasurementSetup.of((0, 0.0, "A1"), (1, 0.0, "A2"))
    from entroscope import outcome_probabilities

    p = outcome_probabilities(premeasure(epr_singlet(), setup), setup)
    assert abs(p[0b01] - 0.5) < 1e-12
    assert abs(p[0b10] - 0.5) < 1e-12
    assert abs(p[0b00]) < 1e-12 and abs(p[0b11]) < 1e-12


def test_c04_orthogonal_measurement():
    rep = run_epr_measure(0.0, math.pi / 2.0)
    atoms = rep.reduced.atoms
    assert atoms[("A1",)] == pytest.approx(1.0, abs=1e-9)
    assert atoms[("A1", "A2")] == pytest.approx(0.0, abs=1e-9)
    assert atoms[("A2",)] == pytest.approx(1.0, abs=1e-9)


def test_c05_ternary_center_vanishes_on_grid(measurement_grid):
    centers, _ = measurement_grid
    assert np.max(np.abs(centers)) < 1e-9


def test_c06_post_measurement_purity_on_grid(measurement_grid):
    _, purities = measurement_grid
    assert np.max(np.abs(purities - 1.0)) < 1e-9


def test_c07_ghz_atoms_and_reductions():
    rho = ghz(3).to_density()
    atoms = venn_atoms(joint_entropies(rho, PartitionSpec.of(A=[0], B=[1], C=[2])))
    for subset, atom in atoms.items():
        expect = {1: -1.0, 2: 1.0, 3: 0.0}[len(subset)]
        assert atom == pytest.approx(expect, abs=1e-9), subset
    for i in range(3):
        single = partial_trace(rho, (i,)).matrix
        assert np.max(np.abs(single - np.eye(2) / 2.0)) < 1e-12


def test_c08_cat_mutual_and_center():
    for grouping in ("atom", "atom_gamma"):
        rep = run_cat(with_observer=True, grouping=grouping)
        assert rep.reduced.atoms[("cat", "observer")] == pytest.approx(1.0, abs=1e-9)
        assert rep.diagram.center == pytest.approx(0.0, abs=1e-9)


def test_c09_chsh_bounds():
    rep = run_chsh()
    assert rep.chsh["abs_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    scan = run_chsh(scan_points=1000, seed=1)
    assert scan.chsh["scan"]["max_abs_value"] <= TSIRELSON_BOUND + 1e-9

    assert max(abs(v) for v in helpers.deterministic_chsh_values()) <= 2


def test_c10_monte_carlo_consistency():
    shots = 100_000
    for t2, exact in ((0.0, 1.0), (math.pi / 2.0, 0.0)):
        rep = run_epr_measure(0.0, t2, shots=shots, seed=99)
        assert rep.sampled["exact_mutual"] == pytest.approx(exact, abs=1e-9)
        assert abs(rep.sampled["mutual"] - exact) < 0.01

    setup = MeasurementSetup.of((0, 0.0, "A1"), (1, 0.0, "A2"))
    post = premeasure(epr_singlet(), setup)
    a = sample_records(post, setup, shots=5000, seed=7)
    b = sample_records(post, setup, shots=5000, seed=7)
    assert np.array_equal(a, b)


def test_c11_property_suites():
    # Mobius round trip on 200 random states, 2 to 4 parties
    layouts = [
        ((2, 2), PartitionSpec.of(A=[0], B=[1])),
        ((2, 2, 2), PartitionSpec.of(A=[0], B=[1], C=[2])),
        ((2, 2, 2, 2), PartitionSpec.of(A=[0], B=[1], C=[2], D=[3])),
    ]
    for k in range(200):
        dims, part = layouts[k % 3]
        joints = joint_entropies(random_density(dims, seed=10_000 + k), part)
        resummed = helpers.resum_joints(venn_atoms(joints))
        worst = max(abs(resummed[s] - joints[s]) for s in joints)
        assert worst <= 1e-9

    # strong subadditivity slack on 500 random 3-qubit states
    part3 = PartitionSpec.of(A=[0], B=[1], C=[2])
    for k in range(500):
        joints = joint_entropies(random_density((2, 2, 2), seed=20_000 + k), part3)
        audit = audit_inequalities(joints)
        assert audit.strong_subadditivity_worst_slack >= -1e-9

    # S(A) = S(complement) on 200 random pure 4-qubit states
    splits = [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
    for k in range(200):
        rho = random_pure((2, 2, 2, 2), seed=30_000 + k).to_density()
        keep = splits[k % len(splits)]
        rest = tuple(i for i in range(4) if i not in keep)
        s_a = von_neumann_entropy(partial_trace(rho, keep))
        s_b = von_neumann_entropy(partial_trace(rho, rest))
        assert abs(s_a - s_b) <= 1e-9

    # basis invariance under 100 random unitaries
    rng = np.random.default_rng(555)
    rho = random_density((2, 2), seed=77)
    s0 = von_neumann_entropy(rho)
    for _ in range(100):
        u = helpers.random_unitary(rng, 4)
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
        assert abs(von_neumann_entropy(rotated) - s0) <= 1e-9


def test_c12_cli_output_is_byte_identical():
    env = dict(os.environ)
    env.pop("ENTROSCOPE_SEED", None)

    def run_once():
        res = subprocess.run(
            [sys.executable, "-m", "entroscope", "scenario", "epr_pair",
             "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    first, second = run_once(), run_once()
    assert first == second
    assert json.loads(first)["scenario"] == "epr_pair"


def _traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_c13_memory_bounded_in_shots_and_scan():
    # one byte of outcomes per shot is the only O(N) memory; draws,
    # counts and scan blocks each hold about 1 MB however large N is
    mb = 2**20
    for shots in (300_000, 1_000_000):
        peak = _traced_peak(lambda: run_epr_measure(0.7, 2.3, shots=shots, seed=3))
        assert peak <= shots + 2 * mb, f"{shots} shots peaked at {peak} bytes"

    peak = _traced_peak(lambda: run_chsh(scan_points=200_000, seed=5))
    assert peak <= 2 * mb, f"a 200,000-point scan peaked at {peak} bytes"
