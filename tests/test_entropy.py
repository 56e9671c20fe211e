import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import random_density, random_pure
from entroscope import (
    DensityOperator,
    NumericalFaultError,
    PartitionSpec,
    ValidationError,
    audit_inequalities,
    clamp_spectrum,
    epr_singlet,
    ghz,
    grouped_entropies,
    joint_entropies,
    mutual_entropy,
    shannon_entropy,
    ternary_center,
    venn_atoms,
    von_neumann_entropy,
)
from entroscope import entropy
from entroscope.entropy import INEQ_SLACK
from entroscope.linalg import _check_hermitian, partial_trace

# h(3/4) = 2 - (3/4) log2 3, evaluated independently
H_THREE_QUARTERS = 0.8112781244591329

EPR_PARTITION = PartitionSpec.of(L=[0], R=[1])


def test_shannon_entropy_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.75, 0.25]) == pytest.approx(H_THREE_QUARTERS, abs=1e-12)


def test_shannon_entropy_validation():
    with pytest.raises(ValidationError, match="negative"):
        shannon_entropy([1.2, -0.2])
    with pytest.raises(ValidationError, match="sum"):
        shannon_entropy([0.5, 0.4])
    with pytest.raises(ValidationError, match="empty"):
        shannon_entropy([])


def test_clamp_spectrum_window():
    lam = clamp_spectrum([1.0, -5e-11, 0.0])
    assert np.array_equal(lam, [1.0, 0.0, 0.0])
    with pytest.raises(NumericalFaultError, match="non-physical state or numerical fault"):
        clamp_spectrum([1.0, -2e-10])


def test_entropy_of_a_state_at_the_clamp_edge():
    # eleven eigenvalues at -9.9e-11 pass validate_psd; clamped to 0 they
    # lift the spectrum's sum 1.1e-9 past 1, beyond shannon_entropy's check
    p = np.full(16, -9.9e-11)
    p[11:] = (1.0 - p[:11].sum()) / 5
    rho = DensityOperator(np.diag(p), (16,))
    rho.validate_psd()
    with pytest.raises(ValidationError, match="probabilities sum to"):
        shannon_entropy(np.where(p < 0.0, 0.0, p))
    assert von_neumann_entropy(rho) == pytest.approx(math.log2(5), abs=1e-8)


def test_von_neumann_entropy_values():
    rho = epr_singlet().to_density()
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    marginal = partial_trace(rho, (0,))
    assert von_neumann_entropy(marginal) == pytest.approx(1.0, abs=1e-12)
    diag = DensityOperator(np.diag([0.75, 0.25]), (2,))
    assert von_neumann_entropy(diag) == pytest.approx(H_THREE_QUARTERS, abs=1e-12)


def test_von_neumann_matches_shannon_on_diagonals():
    rng = np.random.default_rng(17)
    for _ in range(20):
        mat, p = helpers.random_classical_density(rng, (2, 2))
        rho = DensityOperator(mat, (2, 2))
        assert von_neumann_entropy(rho) == pytest.approx(shannon_entropy(p), abs=1e-12)


def test_partition_spec_validation():
    with pytest.raises(ValidationError):
        PartitionSpec.of(A=[0], B=[0])  # overlap
    with pytest.raises(ValidationError):
        PartitionSpec.of(A=[])  # empty group
    with pytest.raises(ValidationError):
        PartitionSpec.of(A=[0], B=[1], C=[2], D=[3], E=[4], F=[5])  # six parties
    rho = random_density((2, 2, 2), seed=1)
    with pytest.raises(ValidationError):
        joint_entropies(rho, PartitionSpec.of(A=[0], B=[1]))  # misses factor 2


def test_joint_entropies_rejects_partial_cover_of_a_pure_state_alike():
    state = ghz(3)
    messages = []
    for s in (state, state.to_density()):
        with pytest.raises(ValidationError) as exc:
            joint_entropies(s, PartitionSpec.of(A=[0], B=[1]))
        messages.append(str(exc.value))
    assert messages == ["partition covers factors [0, 1] but the state has 3 factors"] * 2


@pytest.mark.parametrize("name", ["A,B", "A:B", "A|B", ",", "|A"])
def test_partition_spec_rejects_separators_in_names(name):
    # "," joins subset keys and ":" / "|" build table labels, so such a
    # name would collide with another party's subset or garble its label
    with pytest.raises(ValidationError, match="party name"):
        PartitionSpec(((name, frozenset({0})), ("C", frozenset({1}))))


def test_joint_entropies_epr():
    joints = joint_entropies(epr_singlet().to_density(), EPR_PARTITION)
    assert joints[("L",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("R",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("L", "R")] == pytest.approx(0.0, abs=1e-9)


def test_joint_entropies_product_of_mixed_qubits():
    rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
    joints = joint_entropies(rho, EPR_PARTITION)
    assert joints[("L",)] == pytest.approx(1.0, abs=1e-12)
    assert joints[("R",)] == pytest.approx(1.0, abs=1e-12)
    assert joints[("L", "R")] == pytest.approx(2.0, abs=1e-12)
    assert mutual_entropy(joints, "L", "R") == pytest.approx(0.0, abs=1e-12)


def test_joint_entropies_ghz():
    joints = joint_entropies(ghz(3).to_density(), PartitionSpec.of(A=[0], B=[1], C=[2]))
    for subset, val in joints.items():
        expect = 0.0 if len(subset) == 3 else 1.0
        assert val == pytest.approx(expect, abs=1e-9), subset


def test_joint_entropies_match_independent_route():
    # same numbers via explicit contraction + LAPACK
    rho = random_density((2, 2, 2), seed=23)
    part = PartitionSpec.of(A=[0], B=[1], C=[2])
    joints = joint_entropies(rho, part)
    for subset, val in joints.items():
        keep = [ {"A": 0, "B": 1, "C": 2}[n] for n in subset ]
        red = helpers.brute_partial_trace(rho.matrix, (2, 2, 2), keep)
        assert val == pytest.approx(helpers.entropy_oracle(red), abs=1e-9)


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_grouped_entropies_traces_uncovered_factors(density):
    psi = random_pure((2, 2, 2, 2), seed=4)
    state = psi.to_density() if density else psi
    # factor 2, between the parties, belongs to neither
    grouped = grouped_entropies(state, PartitionSpec.of(X=[0, 1], Y=[3]))
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    keep = {("X",): [0, 1], ("Y",): [3], ("X", "Y"): [0, 1, 3]}
    assert list(grouped) == list(keep)
    for subset, factors in keep.items():
        red = helpers.brute_partial_trace(rho, (2, 2, 2, 2), factors)
        assert grouped[subset] == pytest.approx(helpers.entropy_oracle(red), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_schmidt_route_matches_the_dense_route(dims, seed, data):
    # each factor goes to one of up to 4 parties or to none, so partial
    # partitions, uncovered factors between parties included, are drawn
    psi = random_pure(dims, seed)
    owner = data.draw(st.lists(st.integers(-1, 3), min_size=len(dims), max_size=len(dims))
                      .filter(lambda o: max(o) >= 0))
    part = PartitionSpec.of(**{f"P{k}": [f for f, o in enumerate(owner) if o == k]
                               for k in sorted(set(owner) - {-1})})
    grouped = grouped_entropies(psi, part)
    dense = helpers.dense_joint_entropies(psi, part)
    assert list(grouped) == list(dense)
    assert all(abs(v - dense[k]) < 1e-12 for k, v in grouped.items())
    for subset in grouped:
        gram = entropy._schmidt_gram(psi, part.factors_of(subset))
        assert gram.shape[0] ** 2 <= psi.dim
        _check_hermitian(gram, "gram")  # hermitian_eig's check, as it runs
        assert np.array_equal(gram, gram.conj().T)  # as kept


def test_party_factors_must_be_integers():
    with pytest.raises(ValidationError, match="factor must be an integer, got 0.7"):
        PartitionSpec.of(A=[0.7], B=[1])
    part = PartitionSpec.of(A=[np.int64(0)], B=[np.uint8(1)])
    assert part.parties == (("A", frozenset({0})), ("B", frozenset({1})))


def test_conditional_and_mutual_epr():
    joints = joint_entropies(epr_singlet().to_density(), EPR_PARTITION)
    # S(L|R) = S(LR) - S(R) and S(R|L) = S(LR) - S(L)
    assert joints[("L", "R")] - joints[("R",)] == pytest.approx(-1.0, abs=1e-9)
    assert joints[("L", "R")] - joints[("L",)] == pytest.approx(-1.0, abs=1e-9)
    assert mutual_entropy(joints, "L", "R") == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValidationError):
        mutual_entropy(joints, "L", "L")


def test_venn_atoms_epr():
    atoms = venn_atoms(joint_entropies(epr_singlet().to_density(), EPR_PARTITION))
    assert atoms[("L",)] == pytest.approx(-1.0, abs=1e-9)
    assert atoms[("R",)] == pytest.approx(-1.0, abs=1e-9)
    assert atoms[("L", "R")] == pytest.approx(2.0, abs=1e-9)


def test_venn_atoms_ghz():
    atoms = venn_atoms(
        joint_entropies(ghz(3).to_density(), PartitionSpec.of(A=[0], B=[1], C=[2]))
    )
    for subset, atom in atoms.items():
        expect = {1: -1.0, 2: 1.0, 3: 0.0}[len(subset)]
        assert atom == pytest.approx(expect, abs=1e-9), subset


def test_venn_atoms_independent_bits():
    rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
    atoms = venn_atoms(joint_entropies(rho, PartitionSpec.of(A=[0], B=[1])))
    assert atoms[("A",)] == pytest.approx(1.0, abs=1e-12)
    assert atoms[("B",)] == pytest.approx(1.0, abs=1e-12)
    assert atoms[("A", "B")] == pytest.approx(0.0, abs=1e-12)


def test_venn_atoms_match_closed_forms():
    # the library's alternating sums must agree with the 2- and 3-party
    # sums written out by hand
    for seed in range(8):
        rho2 = random_density((2, 2), seed=seed)
        j2 = joint_entropies(rho2, PartitionSpec.of(A=[0], B=[1]))
        atoms2 = venn_atoms(j2)
        oracle2 = helpers.venn_atoms_2(j2[("A",)], j2[("B",)], j2[("A", "B")])
        for subset, val in oracle2.items():
            assert atoms2[subset] == pytest.approx(val, abs=1e-9)

        rho3 = random_density((2, 2, 2), seed=seed)
        j3 = joint_entropies(rho3, PartitionSpec.of(A=[0], B=[1], C=[2]))
        atoms3 = venn_atoms(j3)
        for subset, val in helpers.venn_atoms_3(j3).items():
            assert atoms3[subset] == pytest.approx(val, abs=1e-9)


def _random_joints(rng, parties: int) -> dict:
    names = "ABCDE"[:parties]
    return {
        subset: float(rng.uniform(0.0, 3.0))
        for r in range(1, parties + 1)
        for subset in itertools.combinations(names, r)
    }


@pytest.mark.parametrize("parties", [1, 2, 3, 4, 5])
def test_venn_atoms_match_dense_solve_on_random_joints(parties):
    # arbitrary maps, not only entropies: the closed form inverts the
    # incidence system, whatever the right-hand side
    rng = np.random.default_rng(100 + parties)
    for _ in range(20):
        joints = _random_joints(rng, parties)
        atoms = venn_atoms(joints)
        oracle = helpers.venn_atoms_solve(joints)
        assert set(atoms) == set(oracle)
        assert max(abs(atoms[t] - oracle[t]) for t in oracle) <= 1e-12


@pytest.mark.parametrize("factors", [4, 5])
def test_venn_atoms_match_dense_solve_on_random_states(factors):
    dims = (2,) * factors
    part = PartitionSpec.of(**{n: [i] for i, n in enumerate("ABCDE"[:factors])})
    for seed in range(4):
        for state in (random_density(dims, seed=seed), random_pure(dims, seed=seed)):
            joints = joint_entropies(state, part)
            atoms = venn_atoms(joints)
            oracle = helpers.venn_atoms_solve(joints)
            assert max(abs(atoms[t] - oracle[t]) for t in oracle) <= 1e-12


def test_atom_residual_guard_raises(monkeypatch):
    resum = entropy.resum_joints

    def off_by_1e8(atoms):
        joints = resum(atoms)
        joints[next(iter(joints))] += 1e-8
        return joints

    monkeypatch.setattr(entropy, "resum_joints", off_by_1e8)
    joints = joint_entropies(ghz(3).to_density(), PartitionSpec.of(A=[0], B=[1], C=[2]))
    with pytest.raises(NumericalFaultError, match="atom system residual"):
        venn_atoms(joints)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, "1", None, 1 + 0j],
    ids=["nan", "+inf", "-inf", "str", "None", "complex"],
)
@pytest.mark.parametrize("check", [
    venn_atoms,
    audit_inequalities,
    lambda j: mutual_entropy(j, "A", "B"),
], ids=["venn_atoms", "audit_inequalities", "mutual_entropy"])
def test_non_finite_joint_is_rejected(check, bad):
    joints = {("A",): bad, ("B",): 1.0, ("A", "B"): 0.0}
    with pytest.raises(ValidationError, match=r"joint entropy of \('A',\) is not finite"):
        check(joints)


def test_mobius_round_trip():
    specs = [
        ((2, 2), PartitionSpec.of(A=[0], B=[1])),
        ((2, 2, 2), PartitionSpec.of(A=[0], B=[1], C=[2])),
        ((2, 2, 2, 2), PartitionSpec.of(A=[0], B=[1], C=[2], D=[3])),
    ]
    for seed in range(10):
        for dims, part in specs:
            joints = joint_entropies(random_density(dims, seed=seed), part)
            resummed = helpers.resum_joints(venn_atoms(joints))
            for subset, val in joints.items():
                assert resummed[subset] == pytest.approx(val, abs=1e-9)


def test_ternary_center_values():
    ghz_joints = joint_entropies(ghz(3).to_density(), PartitionSpec.of(A=[0], B=[1], C=[2]))
    assert ternary_center(venn_atoms(ghz_joints)) == pytest.approx(0.0, abs=1e-9)

    # three independent fair bits
    indep = DensityOperator(np.eye(8) / 8.0, (2, 2, 2))
    j = joint_entropies(indep, PartitionSpec.of(A=[0], B=[1], C=[2]))
    assert ternary_center(venn_atoms(j)) == pytest.approx(0.0, abs=1e-12)

    # three perfectly correlated bits: every subset entropy is 1
    mat = np.zeros((8, 8), dtype=complex)
    mat[0, 0] = mat[7, 7] = 0.5
    corr = DensityOperator(mat, (2, 2, 2))
    j = joint_entropies(corr, PartitionSpec.of(A=[0], B=[1], C=[2]))
    assert all(abs(v - 1.0) < 1e-12 for v in j.values())
    assert ternary_center(venn_atoms(j)) == pytest.approx(1.0, abs=1e-9)


def test_ternary_center_requires_three_parties():
    atoms = venn_atoms(joint_entropies(epr_singlet().to_density(), EPR_PARTITION))
    with pytest.raises(ValidationError, match="3 parties"):
        ternary_center(atoms)


def test_audit_epr_monotonicity():
    joints = joint_entropies(epr_singlet().to_density(), EPR_PARTITION)
    audit = audit_inequalities(joints)
    assert set(audit.monotonicity_violated) == {
        (("L",), ("L", "R")),
        (("R",), ("L", "R")),
    }
    assert audit.subadditivity_worst_slack >= -INEQ_SLACK
    assert audit.triangle_worst_slack >= -INEQ_SLACK
    assert audit.strong_subadditivity_worst_slack is None  # two parties only


def test_audit_product_state_clean():
    rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
    audit = audit_inequalities(joint_entropies(rho, EPR_PARTITION))
    assert audit.monotonicity_violated == ()


def test_audit_classical_states_never_flag():
    # Classical conditional entropies and conditional mutual informations
    # are nonnegative, so every atom but the three-way center must be
    # >= 0; the center itself can go negative even classically (a uniform
    # XOR triple has center exactly -1), so it is exempt here.
    rng = np.random.default_rng(31)
    part2 = PartitionSpec.of(A=[0], B=[1])
    part3 = PartitionSpec.of(A=[0], B=[1], C=[2])
    for _ in range(50):
        for dims, part in (((2, 2), part2), ((2, 2, 2), part3)):
            mat, _ = helpers.random_classical_density(rng, dims)
            joints = joint_entropies(DensityOperator(mat, dims), part)
            audit = audit_inequalities(joints)
            assert audit.monotonicity_violated == ()
            atoms = venn_atoms(joints)
            assert all(v >= -1e-9 for s, v in atoms.items() if len(s) < 3)


def test_classical_xor_center_is_negative():
    # the canonical classical witness that the center atom has no sign bound
    mat = np.zeros((8, 8), dtype=complex)
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        idx = a * 4 + b * 2 + (a ^ b)
        mat[idx, idx] = 0.25
    joints = joint_entropies(
        DensityOperator(mat, (2, 2, 2)), PartitionSpec.of(A=[0], B=[1], C=[2])
    )
    atoms = venn_atoms(joints)
    assert ternary_center(venn_atoms(joints)) == pytest.approx(-1.0, abs=1e-12)
    assert all(v >= -1e-12 for s, v in atoms.items() if len(s) < 3)
    assert audit_inequalities(joints).monotonicity_violated == ()


def test_audit_ssa_on_random_states():
    for seed in range(60):
        joints = joint_entropies(
            random_density((2, 2, 2), seed=seed), PartitionSpec.of(A=[0], B=[1], C=[2])
        )
        audit = audit_inequalities(joints)
        assert audit.subadditivity_worst_slack >= -INEQ_SLACK
        assert audit.triangle_worst_slack >= -INEQ_SLACK
        assert audit.strong_subadditivity_worst_slack >= -INEQ_SLACK


def test_audit_raises_on_fabricated_violations():
    with pytest.raises(NumericalFaultError, match="^subadditivity violated"):
        audit_inequalities({("A",): 1.0, ("B",): 1.0, ("A", "B"): 2.5})
    with pytest.raises(NumericalFaultError, match="^triangle inequality violated"):
        audit_inequalities({("A",): 1.0, ("B",): 0.2, ("A", "B"): 0.2})
    bad_ssa = {
        ("A",): 2.0, ("B",): 2.0, ("C",): 2.0,
        ("A", "B"): 2.0, ("A", "C"): 4.0, ("B", "C"): 2.0,
        ("A", "B", "C"): 3.0,
    }
    with pytest.raises(NumericalFaultError, match="^strong subadditivity violated"):
        audit_inequalities(bad_ssa)


def test_audit_reports_subadditivity_before_ssa():
    # S(A) + S(C) - S(AC) = -1 and S(AB) + S(BC) - S(ABC) - S(B) = -1: the
    # B = {} pass comes first, so the subadditivity violation is the one raised
    both = {
        ("A",): 2.0, ("B",): 2.0, ("C",): 2.0,
        ("A", "B"): 2.0, ("A", "C"): 5.0, ("B", "C"): 2.0,
        ("A", "B", "C"): 3.0,
    }
    with pytest.raises(
        NumericalFaultError,
        match=r"^subadditivity violated by 1\.000e\+00 on \('A',\) vs \('C',\): ",
    ):
        audit_inequalities(both)
    without_sub = {**both, ("A", "C"): 4.0}
    with pytest.raises(
        NumericalFaultError,
        match=r"^strong subadditivity violated by 1\.000e\+00 \(A=\('A',\), B=\('B',\), C=\('C',\)\)",
    ):
        audit_inequalities(without_sub)


@pytest.mark.parametrize("parties", [1, 2, 3, 4, 5])
def test_audit_matches_bitmask_oracle(parties):
    names = "ABCDE"[:parties]
    part = PartitionSpec.of(**{name: [i] for i, name in enumerate(names)})
    dims = (2,) * parties
    for seed in range(4):
        for state in (random_density(dims, seed=seed), random_pure(dims, seed=seed)):
            joints = joint_entropies(state, part)
            audit = audit_inequalities(joints)
            got = (
                list(audit.monotonicity_violated),
                audit.subadditivity_worst_slack,
                audit.triangle_worst_slack,
                audit.strong_subadditivity_worst_slack,
            )
            assert got == helpers.audit_oracle(joints)


def test_entropy_basis_invariance():
    rng = np.random.default_rng(41)
    rho = random_density((2, 2), seed=11)
    s0 = von_neumann_entropy(rho)
    for _ in range(20):
        u = helpers.random_unitary(rng, 4)
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
        assert von_neumann_entropy(rotated) == pytest.approx(s0, abs=1e-9)


def test_pure_state_complement_entropies_match():
    for seed in range(10):
        psi = random_pure((2, 2, 2, 2), seed=seed)
        rho = psi.to_density()
        for keep in ((0,), (0, 1), (0, 2), (1, 3)):
            rest = tuple(i for i in range(4) if i not in keep)
            s_a = von_neumann_entropy(partial_trace(rho, keep))
            s_b = von_neumann_entropy(partial_trace(rho, rest))
            assert s_a == pytest.approx(s_b, abs=1e-9)
