"""Measurement as unitary entanglement with ancilla pointers.

Nothing here collapses: premeasure adds one pointer qubit per tapped
qubit, holding P_b psi at pointer value b for the projectors P_b of the
tap's basis, so the joint state stays pure.  Statistics come from
reading the pointer factors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .entropy import PartitionSpec, grouped_entropies
from .linalg import PureState, _Frozen, _index
from .states import axis_angle, basis_rotation

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
# Most shots one sample_records call accepts: 1 GB of records, about 60 s
# of drawing at the ~60 ns per shot measured on a 2-vCPU host.  Larger
# counts fail up front instead of risking the OOM killer.
MAX_SHOTS = 10**9


class MeasurementSetup(_Frozen):
    """Which qubits get a pointer, in which basis, under which label."""

    __slots__ = ("taps",)

    def __init__(self, taps: tuple[tuple[int, float, str], ...]):
        taps = tuple((_index(f), axis_angle(a), str(lbl)) for f, a, lbl in taps)
        if not taps:
            raise ValidationError("a measurement setup needs at least one tap")
        factors = [f for f, _, _ in taps]
        if len(set(factors)) != len(factors):
            raise ValidationError(f"tap factors must be distinct, got {factors}")
        labels = [lbl for _, _, lbl in taps]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"device labels must be distinct, got {labels}")
        self._set(taps)

    @classmethod
    def of(cls, *taps) -> "MeasurementSetup":
        return cls(tuple(taps))

    @property
    def device_labels(self) -> tuple[str, ...]:
        return tuple(lbl for _, _, lbl in self.taps)


def premeasure(state: PureState, setup: MeasurementSetup) -> PureState:
    """Entangle one new pointer qubit per tap with the tapped qubit.

    A tap at angle theta takes psi to sum_b (P_b psi) |b>, with P_b the
    projector onto the b-th eigenvector of spin_observable(theta):
    P_b = outer(R[b]^*, R[b]) for R = basis_rotation(theta).  That is the
    unitary copy |b_theta>|0> -> |b_theta>|b>, applied without building
    the |0> pointers or a CNOT.  Pointers land after the existing
    factors, in tap order.  The output is still a pure state, of the
    input's squared norm within round-off, so it is built unchecked.
    """
    n = state.num_factors
    for factor, _, label in setup.taps:
        if not 0 <= factor < n:
            raise ValidationError(f"tap {label!r} targets factor {factor}, state has {n}")
        if state.dims[factor] != 2:
            raise ValidationError(f"tap {label!r} targets a dim-{state.dims[factor]} factor; taps need qubits")
    t = state.amplitudes.reshape(state.dims)
    for factor, angle, _ in setup.taps:
        rot = basis_rotation(angle)
        # P_b psi = |e_b> <e_b|psi> with <e_b| = rot[b]: amp[b] is <e_b|psi> on the
        # tapped axis, and the b-th pointer slice is rot[b]^* x amp[b]; einsum, not BLAS
        amp = np.einsum("bi,i...->b...", rot, np.moveaxis(t, factor, 0))
        t = np.moveaxis(np.einsum("bi,b...->ib...", rot.conj(), amp), (0, 1), (factor, -1))
    return PureState._of(t.reshape(-1), state.dims + (2,) * len(setup.taps))


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


def device_joints(post: PureState, setup: MeasurementSetup) -> dict[tuple[str, ...], float]:
    """Joint entropies of the devices alone, with the system traced out."""
    return grouped_entropies(post, device_partition(post, setup))


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


def _count(what: str, value, least: int = 0) -> int:
    """value as a plain int, refused unless it is an integer >= least."""
    n = _index(value, what)
    if n < least:
        raise ValidationError(f"{what} must be >= {least}, got {n}")
    return n


def sample_records(post: PureState, setup: MeasurementSetup, shots: int, seed: int) -> np.ndarray:
    """Draw iid shots from outcome_probabilities: outcomes[i] is shot i's
    outcome index, first device as the most significant bit, one byte per
    shot for up to eight devices.

    Each shot inverts the cumulative distribution at a uniform from the
    stream of the first child of SeedSequence(seed), spawn key (0,).
    That is the algorithm of Generator.choice with probabilities, written
    out on the package's own copy of Generator.random, so the outcomes
    depend only on (seed, shots).  The uniforms come one block of lanes
    at a time, so temporaries stay flat in the number of shots.
    """
    from ._pcg64 import uniforms

    shots = _count("shots", shots, least=1)
    seed = _count("seed", seed)
    if shots > MAX_SHOTS:
        raise ValidationError(f"{shots} shots are too many to hold in memory")
    p = outcome_probabilities(post, setup)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    try:
        outcomes = np.empty(shots, dtype=np.min_scalar_type(len(p) - 1))
    except MemoryError:
        raise ValidationError(f"{shots} shots are too many to hold in memory") from None
    lo = 0
    for u in uniforms(seed, shots, spawn_key=(0,)):
        outcomes[lo : lo + len(u)] = cdf.searchsorted(u, side="right")
        lo += len(u)
    return outcomes


def _correlators(left, right) -> np.ndarray:
    """e[n, p, q] = <M(left[n, p]) x M(right[n, q])> on the singlet, for
    (N, P) and (N, Q) angle arrays: E(x, y) = -cos(x - y) (Bell 1964),
    written as -(cos x cos y + sin x sin y), since x - y overflows to inf
    for angles near the float range and the cosine of inf is nan."""
    cl, sl = np.cos(left)[:, :, None], np.sin(left)[:, :, None]
    cr, sr = np.cos(right)[:, None, :], np.sin(right)[:, None, :]
    return -(cl * cr + sl * sr)


def correlator(theta_1: float, theta_2: float) -> float:
    """<M(theta_1) x M(theta_2)> on the singlet, exactly."""
    return float(_correlators(np.array([[theta_1]], float), np.array([[theta_2]], float))[0, 0, 0])


def chsh_value(a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from exact singlet correlators.

    Angles are raw radians (orientation matters here).  |S| <= 2*sqrt(2)
    for any choice; the canonical angles (0, pi/2, pi/4, 3pi/4) saturate it.
    """
    return float(chsh_values([[a, a_prime, b, b_prime]])[0])


def chsh_values(quads) -> np.ndarray:
    """chsh_value for each row (a, a', b, b') of an (N, 4) angle array,
    from all 4N correlators in one batch."""
    quads = np.asarray(quads, dtype=float)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValidationError(f"chsh_values needs an (N, 4) angle array, got shape {quads.shape}")
    e = _correlators(quads[:, :2], quads[:, 2:])
    return e[:, 0, 0] - e[:, 0, 1] + e[:, 1, 0] + e[:, 1, 1]
