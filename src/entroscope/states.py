"""Constructors for the states and measurement bases the analyses use."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError
from .linalg import PureState, _index

SQRT_HALF = 1.0 / math.sqrt(2.0)

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _angle(value, what: str) -> float:
    """value as a float, refused unless it is a finite real number: a
    string, None or a complex number is not an angle."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    t = float(value)
    if not math.isfinite(t):
        raise ValidationError(f"{what} must be finite, got {t!r}")
    return t


def axis_angle(theta) -> float:
    """A measurement direction in the z-x plane, measured from z, as its
    axis in [0, pi).

    theta and theta + pi share the same axis, only the outcome labels
    swap, so the axis is the canonical representative.
    """
    return _angle(theta, "angle") % math.pi


def spin_observable(theta: float) -> np.ndarray:
    """cos(theta) sigma_z + sin(theta) sigma_x, eigenvalues +1 and -1.

    Takes a raw angle on purpose: theta + pi is the opposite orientation
    with outcomes swapped, which matters for correlators."""
    return math.cos(theta) * PAULI_Z + math.sin(theta) * PAULI_X


def basis_rotation(theta: float) -> np.ndarray:
    """Rotation taking the theta-eigenbasis to the computational basis.

    Rows are the eigenbras of spin_observable(theta), ordered (+1, -1), so
    R @ v maps the b-th eigenvector to |b> and R M R^dag = diag(1, -1).
    theta is taken as its axis_angle.
    """
    t = axis_angle(theta)
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


def epr_singlet() -> PureState:
    """(|01> - |10>)/sqrt(2): the two-qubit total-spin singlet."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = SQRT_HALF
    amps[2] = -SQRT_HALF
    return PureState(amps, (2, 2))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) over n >= 3 qubits."""
    n = _index(n, "qubit count")
    if n < 3:
        raise ValidationError(f"ghz needs at least 3 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = SQRT_HALF
    amps[-1] = SQRT_HALF
    return PureState(amps, (2,) * n)


def cat_chain(with_observer: bool) -> PureState:
    """The decay chain: factors (atom, gamma, cat) plus an observer if asked.

    Branch 0 encodes excited atom / no gamma / live cat / observer sees
    live; branch 1 the fully decayed alternative.  Amplitude-identical to
    ghz(3) or ghz(4) under this encoding.
    """
    return ghz(4 if with_observer else 3)

