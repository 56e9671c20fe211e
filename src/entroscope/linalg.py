"""Dense complex linear algebra over tensor products of small factors.

Factor ordering convention, used everywhere in this package: factor 0 is
the leftmost tensor slot and the slowest-varying index of a flat state
vector, so for qubits a basis index reads as a binary string with factor
0 as the most significant bit.  Spin encoding is up = 0, down = 1.

All state objects are immutable after construction; their numpy buffers
are marked read-only so they can be shared freely.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NumericalFaultError, ValidationError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
PSD_CLAMP = -1e-10
# The package's one block size, in entries: draws, counts, scans, dense passes.
_LANES = 4_096
_TILE = math.isqrt(_LANES)  # the side of a square tile of _LANES entries


class _Frozen:
    """An immutable value: __slots__ names the fields in constructor order,
    and __init__ stores them once through _set, which marks ndarray fields
    read-only.  Copy and pickle call the constructor again, so its checks
    rerun; states are the exception (_State)."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _index(value, what: str = "factor") -> int:
    try:
        return operator.index(value)  # numpy integers pass; a float is refused, not truncated
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(_index(d, "factor dim") for d in dims)
    if not out:
        raise ValidationError("at least one tensor factor is required")
    if any(d < 2 for d in out):
        raise ValidationError(f"factor dims must each be >= 2, got {list(out)}")
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has NaN or infinite entries")


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Refuse a square m with a non-finite entry, or further than
    HERMITIAN_TOL from its conjugate transpose, taken a block of rows at a time."""
    _check_finite(m, what)
    rows = max(1, _LANES // max(1, len(m)))
    dev = max(float(np.abs(m[i : i + rows] - np.conjugate(m[:, i : i + rows].T, order="C")).max())
              for i in range(0, len(m), rows))
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"hermitian check failed: max deviation {dev:.3e}")


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Overwrite square mat with its exact Hermitian part (m + m^H) * 0.5 and
    return it, one pair of tiles at a time: deviations a partial trace would add
    up.  Each tile is summed as written; the conjugate of its partner would flip
    signed zeros.  C-ordered temporaries keep numpy's ufunc buffers to one tile."""
    d = len(mat)
    for i in range(0, d, _TILE):
        for j in range(i, d, _TILE):
            a, b = mat[i : i + _TILE, j : j + _TILE], mat[j : j + _TILE, i : i + _TILE]
            upper, lower = np.conjugate(b.T, order="C"), np.conjugate(a.T, order="C")
            upper += a
            lower += b
            np.multiply(upper, 0.5, out=a)
            np.multiply(lower, 0.5, out=b)
            del upper, lower  # freed before the next pair's are made
    return mat


class _State(_Frozen):
    """A state: its array, then its dims; states compare by identity.  _of
    builds one, unchecked and uncopied, from values derived from a checked
    state.  Copy and pickle rebuild through _of too: a derived state at the
    edge of a tolerance would fail the constructor it never went through."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    @classmethod
    def _of(cls, *fields):
        state = object.__new__(cls)
        state._set(*fields)
        return state

    def __reduce__(self):
        return self._of, self._fields()

    @property
    def num_factors(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


class PureState(_State):
    """A normalized state vector over declared tensor factors."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes: np.ndarray, dims: tuple[int, ...]):
        dims = _as_dims(dims)
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValidationError(
                f"{amps.size} amplitudes do not fill factor dims {list(dims)} "
                f"(product {math.prod(dims)})"
            )
        _check_finite(amps, "amplitudes")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValidationError(
                f"squared norm = {norm2!r}, not 1 within {NORM_TOL}"
            )
        self._set(amps, dims)

    def to_density(self) -> DensityOperator:
        """|psi><psi|, bit for bit as DensityOperator(np.outer(psi, psi^*))
        holds it; the trace is the checked squared norm within round-off.
        One np.outer call would buffer a quarter matrix more at 2**8."""
        psi, d = self.amplitudes, self.dim
        bra, mat, rows = psi.conj(), np.empty((d, d), complex), max(1, _LANES // d)
        for i in range(0, d, rows):
            np.outer(psi[i : i + rows], bra, out=mat[i : i + rows])
        return DensityOperator._of(_hermitian_part(mat), self.dims)


class DensityOperator(_State):
    """A Hermitian, unit-trace operator over declared tensor factors.

    The constructor checks finiteness, Hermiticity and trace and keeps the
    exact Hermitian part; validate_psd(), which load_state calls, checks
    positive semidefiniteness.  The results of to_density and partial_trace
    derive from checked states and are not checked again.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...]):
        dims = _as_dims(dims)
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        d = math.prod(dims)
        if mat.shape[0] != d:
            raise ValidationError(
                f"matrix dimension {mat.shape[0]} does not match factor dims "
                f"{list(dims)} (product {d})"
            )
        _check_hermitian(mat, "density matrix")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:  # a trace summed to nan fails too
            raise ValidationError(f"trace = {tr.real:.6g} != 1 (tolerance {TRACE_TOL})")
        self._set(_hermitian_part(mat), dims)

    def validate_psd(self) -> None:
        evs = hermitian_eigenvalues(self.matrix)
        if evs[0] < PSD_CLAMP:
            raise ValidationError(
                f"eigenvalue {evs[0]:.3e} is below {PSD_CLAMP}: not positive semidefinite"
            )


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out all factors not in `keep`; kept factors stay in original order."""
    kept = sorted({_index(k, "keep index") for k in keep})
    if not kept:
        raise ValidationError("must keep at least one factor")
    n = rho.num_factors
    if kept[0] < 0 or kept[-1] >= n:
        raise ValidationError(f"keep indices {kept} out of range for {n} factors")
    if len(kept) == n:
        return rho
    dims = list(rho.dims)
    t = rho.matrix.reshape(dims + dims)
    # Trace descending so remaining axis indices stay valid.
    m = n
    for idx in sorted(set(range(n)) - set(kept), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + m)
        m -= 1
    kept_dims = tuple(dims[i] for i in kept)
    d = math.prod(kept_dims)
    # entries (a, b) and (b, a) sum conjugate terms in the same order, so the result
    # is exactly Hermitian as rho is, and its trace is rho's summed in another order
    return DensityOperator._of(t.reshape(d, d), kept_dims)


def hermitian_eig(m) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by LAPACK (numpy), ascending.

    LAPACK reads one triangle only, so the input is checked here first:
    square and nonempty, finite, and Hermitian within HERMITIAN_TOL.  A
    matrix whose imaginary part is all zero, -0.0 included, is real
    symmetric and goes to the real solver (dsyevd) as its real part; the
    paper's states, their premeasurements in the x-z plane, their reduced
    states and their Schmidt Gram matrices are all real.  A process that
    takes only such spectra never pages in the complex solver (zheevd).
    A 1 x 1 matrix, such as the Schmidt Gram of a whole pure state, is its
    own spectrum: both solvers return its real entry as it is.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValidationError(f"expected a nonempty square matrix, got shape {a.shape}")
    _check_hermitian(a, "matrix")
    if len(a) == 1:
        return a.real.reshape(1).copy()
    try:
        return np.linalg.eigvalsh(a if a.imag.any() else a.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalFaultError(f"eigensolver failed: {exc}") from exc


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return hermitian_eig(m)
