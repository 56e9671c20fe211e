"""Measurement as unitary entanglement with ancilla pointers.

Nothing here collapses: premeasure appends one |0> ancilla per tapped
qubit and entangles it with the system in the tap's basis, so the joint
state stays pure.  Statistics come from reading the ancilla factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .entropy import PartitionSpec, grouped_entropies
from .linalg import PureState
from .states import axis_angle, basis_rotation, epr_singlet, spin_observable

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
# Most shots one sample_records call accepts: 1 GB of records, about 40 s
# of drawing.  Larger counts fail up front instead of risking the OOM killer.
MAX_SHOTS = 10**9
# Shots drawn, or counted, per numpy call: about 1 MB of float64 uniforms
# plus int64 indices, so temporaries stay flat in the number of shots.
_DRAW_BLOCK = 65_536


@dataclass(frozen=True)
class MeasurementSetup:
    """Which qubits get a pointer, in which basis, under which label."""

    taps: tuple[tuple[int, float, str], ...]

    def __post_init__(self):
        taps = tuple((int(f), axis_angle(a), str(lbl)) for f, a, lbl in self.taps)
        if not taps:
            raise ValidationError("a measurement setup needs at least one tap")
        factors = [f for f, _, _ in taps]
        if len(set(factors)) != len(factors):
            raise ValidationError(f"tap factors must be distinct, got {factors}")
        labels = [lbl for _, _, lbl in taps]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"device labels must be distinct, got {labels}")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def of(cls, *taps) -> "MeasurementSetup":
        return cls(tuple(taps))

    @property
    def device_labels(self) -> tuple[str, ...]:
        return tuple(lbl for _, _, lbl in self.taps)


@dataclass(frozen=True, eq=False)
class OutcomeRecords:
    """Sampled shots as one array.

    outcomes[i] is shot i's outcome index, first device as the most
    significant bit.  One byte per shot for up to eight devices, the only
    memory that grows with the shots.
    """

    outcomes: np.ndarray
    devices: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutcomeRecords):
            return NotImplemented
        return self.devices == other.devices and np.array_equal(self.outcomes, other.outcomes)

    def counts(self) -> np.ndarray:
        """Shots per outcome index, length 2**devices.

        bincount widens its input to intp, so it runs one block at a time.
        """
        total = np.zeros(2 ** len(self.devices), dtype=np.intp)
        for start in range(0, len(self), _DRAW_BLOCK):
            total += np.bincount(self.outcomes[start : start + _DRAW_BLOCK], minlength=len(total))
        return total


def _apply_single(t: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(m, t, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _apply_cnot(t: np.ndarray, control: int, target: int) -> np.ndarray:
    out = t.copy()
    sel: list = [slice(None)] * t.ndim
    sel[control] = 1
    tgt = target - 1 if target > control else target
    out[tuple(sel)] = np.flip(t[tuple(sel)], axis=tgt)
    return out


def premeasure(state: PureState, setup: MeasurementSetup) -> PureState:
    """Append one |0> ancilla per tap and copy each tap's basis bit onto it.

    Per tap at angle theta the circuit is (R^dag on the qubit) o CNOT o
    (R on the qubit) with the ancilla as CNOT target, taking |b_theta>|0>
    to |b_theta>|b>.  Ancillas land after the existing factors, in tap
    order.  The output is still a pure state.
    """
    n = state.num_factors
    for factor, _, label in setup.taps:
        if not 0 <= factor < n:
            raise ValidationError(f"tap {label!r} targets factor {factor}, state has {n}")
        if state.dims[factor] != 2:
            raise ValidationError(f"tap {label!r} targets a dim-{state.dims[factor]} factor; taps need qubits")
    k = len(setup.taps)
    dims = state.dims + (2,) * k
    padding = np.zeros(2**k, dtype=complex)
    padding[0] = 1.0
    t = np.kron(state.amplitudes, padding).reshape(dims)
    for i, (factor, angle, _) in enumerate(setup.taps):
        ancilla = n + i
        rot = basis_rotation(angle)
        t = _apply_single(t, rot, factor)
        t = _apply_cnot(t, factor, ancilla)
        t = _apply_single(t, rot.conj().T, factor)
    return PureState(t.reshape(-1), dims)


def device_factors(post: PureState, setup: MeasurementSetup) -> dict[str, int]:
    """Ancilla factor index per device label, for a state premeasure built."""
    base = post.num_factors - len(setup.taps)
    if base < 0:
        raise ValidationError("state has fewer factors than the setup has taps")
    return {label: base + i for i, (_, _, label) in enumerate(setup.taps)}


def device_partition(post: PureState, setup: MeasurementSetup) -> PartitionSpec:
    """One party per device, covering only the ancilla factors."""
    return PartitionSpec(
        tuple((label, frozenset({f})) for label, f in device_factors(post, setup).items())
    )


def full_partition(post: PureState, setup: MeasurementSetup) -> PartitionSpec:
    """The system factors as one party "Q" plus one party per device."""
    devs = device_factors(post, setup)
    if "Q" in devs:
        raise ValidationError("system label 'Q' collides with a device label")
    base = post.num_factors - len(setup.taps)
    parties = [("Q", frozenset(range(base)))]
    parties += [(label, frozenset({f})) for label, f in devs.items()]
    return PartitionSpec(tuple(parties))


def device_joints(
    post: PureState, setup: MeasurementSetup, grouping: PartitionSpec | None = None
) -> dict[tuple[str, ...], float]:
    """Joint entropies of a grouping of the post-measurement state.

    The grouping may cover only part of the state (e.g. just the devices);
    uncovered factors are traced out first.  Defaults to the device-only
    grouping.
    """
    if grouping is None:
        grouping = device_partition(post, setup)
    return grouped_entropies(post.to_density(), grouping)


def outcome_probabilities(post: PureState, setup: MeasurementSetup) -> np.ndarray:
    """Probability of each device bitstring: |amplitude|^2 summed over the
    system factors, which precede the ancillas.

    Bitstrings are indexed with the first tap's device as the most
    significant bit."""
    base = post.num_factors - len(device_factors(post, setup))
    p = (post.amplitudes * post.amplitudes.conj()).real.reshape(post.dims)
    # last factor first, in the order partial_trace sums the diagonal
    for axis in reversed(range(base)):
        p = p.sum(axis=axis)
    return p.reshape(-1)


def sample_records(
    post: PureState, setup: MeasurementSetup, shots: int, seed: int
) -> OutcomeRecords:
    """Draw iid shots from outcome_probabilities into one OutcomeRecords.

    Every shot comes from the first child of SeedSequence(seed), so the
    records depend only on (seed, shots).  The draws come in blocks of
    _DRAW_BLOCK shots; consecutive choice calls continue one stream of
    uniforms, so the blocks match one call over all the shots.
    """
    shots = int(shots)
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValidationError(f"{shots} shots are too many to hold in memory")
    p = outcome_probabilities(post, setup)
    p = p / p.sum()
    try:
        outcomes = np.empty(shots, dtype=np.min_scalar_type(len(p) - 1))
    except MemoryError:
        raise ValidationError(f"{shots} shots are too many to hold in memory") from None
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for lo in range(0, shots, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, shots)
        outcomes[lo:hi] = rng.choice(len(p), size=hi - lo, p=p)
    return OutcomeRecords(outcomes, setup.device_labels)


def correlator(theta_1: float, theta_2: float) -> float:
    """<M(theta_1) x M(theta_2)> on the singlet, exactly."""
    psi = epr_singlet().amplitudes
    op = np.kron(spin_observable(theta_1), spin_observable(theta_2))
    return float(np.real(psi.conj() @ (op @ psi)))


def chsh_value(a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from exact singlet correlators.

    Angles are raw radians (orientation matters here).  |S| <= 2*sqrt(2)
    for any choice; the canonical angles (0, pi/2, pi/4, 3pi/4) saturate it.
    """
    return (
        correlator(a, b)
        - correlator(a, b_prime)
        + correlator(a_prime, b)
        + correlator(a_prime, b_prime)
    )


def chsh_values(quads) -> np.ndarray:
    """chsh_value for each row (a, a', b, b') of an (N, 4) angle array.

    Evaluates the same singlet expectations as correlator, batched: the
    observables form an (N, 4, 2, 2) array and one einsum gives all 4N
    correlators.
    """
    quads = np.asarray(quads, dtype=float)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValidationError(f"chsh_values needs an (N, 4) angle array, got shape {quads.shape}")
    psi = epr_singlet().amplitudes.reshape(2, 2)
    cos, sin = np.cos(quads), np.sin(quads)
    # obs[n, i] = spin_observable(quads[n, i]) = cos * PAULI_Z + sin * PAULI_X
    obs = np.empty(quads.shape + (2, 2))
    obs[..., 0, 0], obs[..., 0, 1], obs[..., 1, 0], obs[..., 1, 1] = cos, sin, sin, -cos
    e = np.einsum("ij,npik,nqjl,kl->npq", psi.conj(), obs[:, :2], obs[:, 2:], psi).real
    return e[:, 0, 0] - e[:, 0, 1] + e[:, 1, 0] + e[:, 1, 1]
