"""Canned analyses producing serializable DiagramReport bundles.

Four scenarios: the bare EPR pair, the EPR pair with two pre-measurement
devices at chosen angles, the decay/cat chain with or without an
observer, and the CHSH correlator check.  Each returns a DiagramReport;
rendering to JSON or a table lives in the report module.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .entropy import DiagramBundle, PartitionSpec, mutual_entropy, resum_joints, shannon_entropy
from .errors import ValidationError
from .linalg import _Frozen
from .measurement import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    MeasurementSetup,
    _count,
    chsh_values,
    device_partition,
    full_partition,
    premeasure,
    sample_records,
)
from .report import CAT_GROUPINGS, SCENARIO_IDS
from .states import _angle, cat_chain, epr_singlet

CANONICAL_CHSH_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)

ORTHODOX_LABEL = "orthodox expectation — not derivable from any joint state"
ORTHODOX_WARNING = (
    "the parallel and orthogonal tables presume definite z and x values for "
    "the same particle at once; no five-variable classical model supports both"
)
_ORTHODOX_MATCH_TOL = 1e-6
# Longest accepted scan: about 40 s at the ~0.4 us per point measured
# through the CLI on a 2-vCPU host.  Without a cap a mistyped N runs for years.
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


class DiagramReport(_Frozen):
    """Everything one scenario run produced, ready for serialization."""

    __slots__ = ("scenario", "parameters", "seed", "diagram", "reduced", "q_devices_mutual", "sampled",
                 "orthodox", "chsh")

    def __init__(self, scenario: str, parameters: dict, seed: int | None = None,
                 diagram: DiagramBundle | None = None, reduced: DiagramBundle | None = None,
                 q_devices_mutual: float | None = None, sampled: dict | None = None,
                 orthodox: dict | None = None, chsh: dict | None = None):
        self._set(scenario, parameters, seed, diagram, reduced, q_devices_mutual, sampled, orthodox, chsh)


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
    joints = resum_joints(atoms)
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
    """Sampled statistics of run_epr_measure's two devices."""
    from ._pcg64 import _LANES

    outcomes = sample_records(post, setup, shots=shots, seed=seed)
    labels = setup.device_labels
    # bincount widens its input to intp, so it counts one block at a time
    tally = np.zeros(4, dtype=np.intp)
    for lo in range(0, shots, _LANES):
        tally += np.bincount(outcomes[lo : lo + _LANES], minlength=4)
    counts = {format(i, "02b"): int(n) for i, n in enumerate(tally)}
    freqs = {k: v / shots for k, v in counts.items()}
    joint_p = np.array(list(freqs.values()))
    entropies: dict[str, float] = {}
    for i, lbl in enumerate(labels):
        p1 = sum(v for k, v in freqs.items() if k[i] == "1")
        entropies[lbl] = shannon_entropy([1.0 - p1, p1])
    both = ",".join(labels)
    entropies[both] = shannon_entropy(joint_p)
    return {
        "shots": shots,
        "seed": seed,
        "chunk_size": None,  # schema 1.0.0 keeps the key; records are not chunked
        "devices": labels,
        "counts": counts,
        "frequencies": freqs,
        "entropies": entropies,
        "mutual": entropies[labels[0]] + entropies[labels[1]] - entropies[both],
        "exact_mutual": exact_mutual,
    }


def run_epr_measure(theta1, theta2, shots: int = 0, seed: int = 0) -> DiagramReport:
    """Singlet with device A1 reading qubit 0 at theta1 and A2 reading
    qubit 1 at theta2.

    Reports the full (Q, A1, A2) diagram of the post-measurement pure
    state, the device-only diagram after tracing Q, the bipartite
    Q:(A1 A2) mutual entropy, optional sampled statistics, and the
    orthodox reference table when the angles are the parallel or
    orthogonal textbook arrangement.
    """
    shots = _count("shots", shots)
    seed = _count("seed", seed)
    setup = MeasurementSetup.of((0, theta1, "A1"), (1, theta2, "A2"))
    (_, t1, _), (_, t2, _) = setup.taps
    post = premeasure(epr_singlet(), setup)

    full_bundle = DiagramBundle.of(post, full_partition(post, setup))
    q_dev = mutual_entropy(full_bundle.joints, "Q", ("A1", "A2"))

    dev_bundle = DiagramBundle.of(post, device_partition(post, setup))
    exact_mutual = mutual_entropy(dev_bundle.joints, "A1", "A2")

    sampled = _sampled_block(post, setup, shots, seed, exact_mutual) if shots else None
    case = _orthodox_case_for(t1, t2)
    return DiagramReport(
        scenario="epr_measure",
        parameters={"theta1": t1, "theta2": t2, "shots": shots, "chunk_size": None},
        seed=seed,
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
    if not isinstance(with_observer, (bool, np.bool_)):
        raise ValidationError(f"with_observer must be a bool, got {with_observer!r}")
    if not isinstance(grouping, str) or grouping not in CAT_GROUPINGS:
        raise ValidationError(
            f"grouping must be one of {list(CAT_GROUPINGS)}, got {grouping!r}"
        )
    state = cat_chain(with_observer)
    atomic = frozenset({0, 1}) if grouping == "atom_gamma" else frozenset({0})
    cat_side = frozenset({2}) if grouping == "atom_gamma" else frozenset({1, 2})
    detectors = (("cat", cat_side),)
    if with_observer:
        detectors += (("observer", frozenset({3})),)

    bundle = DiagramBundle.of(state, PartitionSpec((("atomic", atomic),) + detectors))
    q_dev = mutual_entropy(bundle.joints, "atomic", [n for n, _ in detectors])
    reduced = DiagramBundle.of(state, PartitionSpec(detectors)) if with_observer else None

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
    seed: int = 0,
) -> DiagramReport:
    """CHSH correlator sum for one angle set, optionally with a random scan.

    The scan draws angle quadruples uniformly from [0, 2 pi) and tracks the
    largest |S|; it can approach but never pass 2*sqrt(2).
    """
    seed = _count("seed", seed)
    scan_points = _count("scan points", scan_points)
    if scan_points > MAX_SCAN_POINTS:
        raise ValidationError(f"scan points must be <= {MAX_SCAN_POINTS}, got {scan_points}")
    if angles is None:
        angles = CANONICAL_CHSH_ANGLES
    try:
        angles = tuple(angles)
    except TypeError:
        raise ValidationError(f"chsh needs 4 angles, got {angles!r}") from None
    if len(angles) != 4:
        raise ValidationError(f"chsh needs 4 angles, got {len(angles)}")
    angles = tuple(_angle(a, "chsh angle") for a in angles)
    value = float(chsh_values([angles])[0])
    block = {
        "angles": angles,
        "value": value,
        "abs_value": abs(value),
        "classical_bound": CLASSICAL_BOUND,
        "tsirelson_bound": TSIRELSON_BOUND,
        "violates_classical": abs(value) > CLASSICAL_BOUND + 1e-9,
    }
    if scan_points > 0:
        from ._pcg64 import uniforms

        best = 0.0
        # one block of lanes holds a whole number of quadruples, so angles,
        # their cosines and sines, and correlators stay flat in N; 2 pi * u
        # has the bits of Generator.uniform(0, 2 pi)
        for u in uniforms(seed, 4 * scan_points):
            quads = 2.0 * math.pi * u.reshape(-1, 4)
            best = max(best, float(np.max(np.abs(chsh_values(quads)))))
        block["scan"] = {
            "points": scan_points,
            "seed": seed,
            "max_abs_value": best,
        }
    return DiagramReport(
        scenario="chsh",
        parameters={"angles": angles, "scan_points": scan_points},
        seed=seed,
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
