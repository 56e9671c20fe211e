"""Canned analyses producing serializable DiagramReport bundles.

Four scenarios: the bare EPR pair, the EPR pair with two pre-measurement
devices at chosen angles, the decay/cat chain with or without an
observer, and the CHSH correlator check.  Each returns a DiagramReport;
rendering to JSON or a table lives in the report module.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    InequalityAudit,
    PartitionSpec,
    VennDiagram,
    audit_inequalities,
    grouped_entropies,
    mutual_entropy,
    shannon_entropy,
    ternary_center,
    venn_atoms,
)
from .errors import ValidationError
from .measurement import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    MeasurementSetup,
    chsh_values,
    device_partition,
    full_partition,
    premeasure,
    sample_records,
)
from .states import cat_chain, epr_singlet

SCENARIO_IDS = ("epr_pair", "epr_measure", "cat", "chsh")
CAT_GROUPINGS = ("atom", "atom_gamma")
CANONICAL_CHSH_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)

ORTHODOX_LABEL = "orthodox expectation — not derivable from any joint state"
ORTHODOX_WARNING = (
    "the parallel and orthogonal tables presume definite z and x values for "
    "the same particle at once; no five-variable classical model supports both"
)
_ORTHODOX_MATCH_TOL = 1e-6
# Scan quadruples drawn and evaluated per block: about 1.2 MB of angles,
# observables and correlators, flat in N.
_SCAN_BLOCK = 4_096
# Longest accepted scan: about 3 minutes at the ~1.7 us per point measured
# on a 2-vCPU host.  Without a cap a mistyped N runs for years.
MAX_SCAN_POINTS = 10**8

# Textbook expectations for the two device arrangements, as static data.
# These describe what a classical record of the measurements would look
# like; they are not computed from any state, and no state reproduces both.
_ORTHODOX_ATOMS = {
    "parallel": {
        ("Q",): 1.0, ("A1",): 0.0, ("A2",): 0.0,
        ("Q", "A1"): 0.0, ("Q", "A2"): 0.0, ("A1", "A2"): 0.0,
        ("Q", "A1", "A2"): 1.0,
    },
    "orthogonal": {
        ("Q",): 0.0, ("A1",): 0.0, ("A2",): 0.0,
        ("Q", "A1"): 1.0, ("Q", "A2"): 1.0, ("A1", "A2"): 0.0,
        ("Q", "A1", "A2"): 0.0,
    },
}


def _non_negative(what: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValidationError(f"{what} must be >= 0, got {value}")


@dataclass(frozen=True)
class DiagramBundle:
    """One labeled diagram: party factor map, Venn data, inequality audit."""

    party_factors: tuple[tuple[str, tuple[int, ...]], ...]
    venn: VennDiagram
    audit: InequalityAudit

    @classmethod
    def of(cls, state, partition: PartitionSpec) -> "DiagramBundle":
        """Joints, atoms and audit of `state`, pure or density, under
        `partition`; factors the partition leaves out are traced out first."""
        joints = grouped_entropies(state, partition)
        return cls(
            party_factors=tuple((n, tuple(sorted(fs))) for n, fs in partition.parties),
            venn=venn_atoms(joints),
            audit=audit_inequalities(joints),
        )

    @property
    def center(self) -> float | None:
        """The ternary center S(A:B:C) of a three-party diagram, else None."""
        return ternary_center(self.venn) if len(self.venn.parties) == 3 else None


@dataclass(frozen=True)
class DiagramReport:
    """Everything one scenario run produced, ready for serialization."""

    scenario: str
    parameters: dict
    seed: int | None = None
    diagram: DiagramBundle | None = None
    reduced: DiagramBundle | None = None
    q_devices_mutual: float | None = None
    sampled: dict | None = None
    orthodox: dict | None = None
    chsh: dict | None = None


def run_epr_pair() -> DiagramReport:
    """Venn diagram of the bare singlet under the (L, R) split."""
    state = epr_singlet()
    bundle = DiagramBundle.of(state, PartitionSpec.of(L=[0], R=[1]))
    return DiagramReport(scenario="epr_pair", parameters={}, diagram=bundle)


def _orthodox_case_for(theta1: float, theta2: float) -> str | None:
    z, x = 0.0, math.pi / 2.0
    def near(a, b):
        # distance between axes: theta and theta + pi are the same axis
        d = abs(a - b) % math.pi
        return min(d, math.pi - d) <= _ORTHODOX_MATCH_TOL
    if near(theta1, z) and near(theta2, z):
        return "parallel"
    if (near(theta1, z) and near(theta2, x)) or (near(theta1, x) and near(theta2, z)):
        return "orthogonal"
    return None


def orthodox_reference(case: str) -> dict:
    """The textbook three-circle diagram for the parallel or orthogonal
    device arrangement, as static reference data.

    Joint entropies are re-summed from the atoms so the two tables stay
    internally consistent; the block carries a warning because the two
    cases together admit no common classical model.
    """
    if case not in _ORTHODOX_ATOMS:
        raise ValidationError(f"unknown orthodox case {case!r}, expected parallel|orthogonal")
    atoms = dict(_ORTHODOX_ATOMS[case])
    joints = {
        u: sum(v for t, v in atoms.items() if set(t) & set(u))
        for u in atoms
    }
    return {
        "case": case,
        "label": ORTHODOX_LABEL,
        "parties": ("Q", "A1", "A2"),
        "joints": joints,
        "atoms": atoms,
        "consistent": False,
        "warning": ORTHODOX_WARNING,
    }


def _sampled_block(post, setup, shots: int, seed: int, exact_mutual: float) -> dict:
    records = sample_records(post, setup, shots=shots, seed=seed)
    labels = setup.device_labels
    width = len(labels)
    counts = {format(i, f"0{width}b"): int(n) for i, n in enumerate(records.counts())}
    freqs = {k: v / shots for k, v in counts.items()}
    joint_p = np.array(list(freqs.values()))
    entropies: dict[str, float] = {}
    for i, lbl in enumerate(labels):
        p1 = sum(v for k, v in freqs.items() if k[i] == "1")
        entropies[lbl] = shannon_entropy([1.0 - p1, p1])
    entropies[",".join(labels)] = shannon_entropy(joint_p)
    block = {
        "shots": shots,
        "seed": seed,
        "chunk_size": None,  # schema 1.0.0 keeps the key; records are not chunked
        "devices": labels,
        "counts": counts,
        "frequencies": freqs,
        "entropies": entropies,
    }
    if width == 2:
        block["mutual"] = (
            entropies[labels[0]] + entropies[labels[1]] - entropies[",".join(labels)]
        )
        block["exact_mutual"] = exact_mutual
    return block


def run_epr_measure(theta1, theta2, shots: int = 0, seed: int | None = None) -> DiagramReport:
    """Singlet with device A1 reading qubit 0 at theta1 and A2 reading
    qubit 1 at theta2.

    Reports the full (Q, A1, A2) diagram of the post-measurement pure
    state, the device-only diagram after tracing Q, the bipartite
    Q:(A1 A2) mutual entropy, optional sampled statistics, and the
    orthodox reference table when the angles are the parallel or
    orthogonal textbook arrangement.
    """
    _non_negative("shots", shots)
    _non_negative("seed", seed)
    setup = MeasurementSetup.of((0, theta1, "A1"), (1, theta2, "A2"))
    (_, t1, _), (_, t2, _) = setup.taps
    post = premeasure(epr_singlet(), setup)

    full_bundle = DiagramBundle.of(post, full_partition(post, setup))
    q_dev = mutual_entropy(full_bundle.venn.joints, "Q", ("A1", "A2"))

    dev_bundle = DiagramBundle.of(post, device_partition(post, setup))
    exact_mutual = mutual_entropy(dev_bundle.venn.joints, "A1", "A2")

    sampled = None
    used_seed = seed
    if shots > 0:
        used_seed = 0 if seed is None else int(seed)
        sampled = _sampled_block(post, setup, shots, used_seed, exact_mutual)

    case = _orthodox_case_for(t1, t2)
    return DiagramReport(
        scenario="epr_measure",
        parameters={"theta1": t1, "theta2": t2, "shots": shots, "chunk_size": None},
        seed=used_seed,
        diagram=full_bundle,
        reduced=dev_bundle,
        q_devices_mutual=q_dev,
        sampled=sampled,
        orthodox=orthodox_reference(case) if case else None,
    )


def run_cat(with_observer: bool = False, grouping: str = "atom_gamma") -> DiagramReport:
    """Decay-chain diagram with the atomic party chosen by `grouping`.

    grouping "atom_gamma" groups factors {atom, gamma} as the atomic
    party; "atom" keeps only the atom there and leaves the gamma on the
    detector side with the cat, so the partition still covers the state.
    With an observer the report carries the three-party diagram and the
    reduced cat-observer diagram; without one, the two-party
    atomic-vs-cat diagram.
    """
    if grouping not in CAT_GROUPINGS:
        raise ValidationError(
            f"grouping must be one of {list(CAT_GROUPINGS)}, got {grouping!r}"
        )
    state = cat_chain(with_observer)
    atomic = frozenset({0, 1}) if grouping == "atom_gamma" else frozenset({0})
    cat_side = frozenset({2}) if grouping == "atom_gamma" else frozenset({1, 2})

    if with_observer:
        partition = PartitionSpec(
            (("atomic", atomic), ("cat", cat_side), ("observer", frozenset({3})))
        )
    else:
        partition = PartitionSpec((("atomic", atomic), ("cat", cat_side)))

    bundle = DiagramBundle.of(state, partition)
    joints = bundle.venn.joints

    reduced = None
    if with_observer:
        q_dev = mutual_entropy(joints, "atomic", ("cat", "observer"))
        pair_part = PartitionSpec((("cat", cat_side), ("observer", frozenset({3}))))
        reduced = DiagramBundle.of(state, pair_part)
    else:
        q_dev = mutual_entropy(joints, "atomic", "cat")

    return DiagramReport(
        scenario="cat",
        parameters={"with_observer": bool(with_observer), "grouping": grouping},
        diagram=bundle,
        reduced=reduced,
        q_devices_mutual=q_dev,
    )


def run_chsh(
    angles: tuple[float, float, float, float] | None = None,
    scan_points: int = 0,
    seed: int | None = None,
) -> DiagramReport:
    """CHSH correlator sum for one angle set, optionally with a random scan.

    The scan draws angle quadruples uniformly from [0, 2 pi) and tracks the
    largest |S|; it can approach but never pass 2*sqrt(2).
    """
    _non_negative("seed", seed)
    _non_negative("scan points", scan_points)
    if scan_points > MAX_SCAN_POINTS:
        raise ValidationError(f"scan points must be <= {MAX_SCAN_POINTS}, got {scan_points}")
    if angles is None:
        angles = CANONICAL_CHSH_ANGLES
    angles = tuple(float(a) for a in angles)
    if len(angles) != 4:
        raise ValidationError(f"chsh needs 4 angles, got {len(angles)}")
    value = float(chsh_values([angles])[0])
    block = {
        "angles": angles,
        "value": value,
        "abs_value": abs(value),
        "classical_bound": CLASSICAL_BOUND,
        "tsirelson_bound": TSIRELSON_BOUND,
        "violates_classical": abs(value) > CLASSICAL_BOUND + 1e-9,
    }
    used_seed = seed
    if scan_points > 0:
        used_seed = 0 if seed is None else int(seed)
        rng = np.random.default_rng(used_seed)
        points = int(scan_points)
        best = 0.0
        # consecutive uniform calls continue one stream, so blocking leaves
        # the draws, and hence the maximum, as a single call would give them
        for start in range(0, points, _SCAN_BLOCK):
            quads = rng.uniform(0.0, 2.0 * math.pi, size=(min(_SCAN_BLOCK, points - start), 4))
            best = max(best, float(np.max(np.abs(chsh_values(quads)))))
        block["scan"] = {
            "points": points,
            "seed": used_seed,
            "max_abs_value": best,
        }
    return DiagramReport(
        scenario="chsh",
        parameters={"angles": angles, "scan_points": int(scan_points)},
        seed=used_seed,
        chsh=block,
    )


def _runner(scenario_id: str):
    if scenario_id not in SCENARIO_IDS:
        raise ValidationError(f"unknown scenario {scenario_id!r}, expected one of {list(SCENARIO_IDS)}")
    # looked up at call time, so a rebound run_<id> is the one that runs
    return globals()[f"run_{scenario_id}"]


def scenario_parameters(scenario_id: str) -> tuple[str, ...]:
    """The parameters run_scenario takes for `scenario_id`, in order."""
    return tuple(inspect.signature(_runner(scenario_id)).parameters)


def run_scenario(scenario_id: str, **params) -> DiagramReport:
    """Run `scenario_id` through run_<scenario_id> with `params`.

    A parameter the runner does not take is an error, not a no-op; each
    runner checks the values of the ones it does take.
    """
    runner = _runner(scenario_id)
    takes = inspect.signature(runner).parameters
    stray = [name for name in params if name not in takes]
    if stray:
        raise ValidationError(f"scenario {scenario_id} does not use {', '.join(stray)}")
    required = [name for name, p in takes.items() if p.default is p.empty]
    if not set(required) <= set(params):
        raise ValidationError(f"{scenario_id} needs {' and '.join(required)}")
    return runner(**params)
