"""Independent oracles for the test suite.

Everything here deliberately takes a different route than the package:
eigendecompositions come from cyclic Jacobi sweeps (the package calls
LAPACK through numpy; entropy_oracle shares LAPACK with it, and the
eigensolver tests check that against Jacobi), partial traces from
explicit index loops (the package reshapes and calls np.trace), Venn
atoms from hand-solved inclusion-exclusion formulas (the package solves
a dense linear system), the characteristic polynomial from
Faddeev-LeVerrier trace recursion (no eigensolver at all), sampled
records from a per-shot loop over the same seeded draws (the package
fills one outcome array), and singlet correlators from the dense 4x4
operator np.kron builds (the package contracts 2x2 observables in one
einsum).  Agreement
between the two routes is the point of the tests.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np


JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


def jacobi_eig(m, off_tol: float = JACOBI_OFF_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix by cyclic Jacobi sweeps.

    Rotations zero one off-diagonal pair at a time; sweeps repeat until the
    off-diagonal Frobenius norm drops below `off_tol`.  Pure Python and
    slow (about 0.5 s at d = 64), but shares no code with LAPACK.  Returns
    eigenvalues in ascending order and the matching eigenvector columns.
    The input is trusted to be square and Hermitian.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.reshape(1).copy(), v
    # Elements below `skip` cannot push the off-diagonal norm above off_tol:
    # n*(n-1)/2 entries of magnitude < off_tol/n sum (doubled) below off_tol^2.
    skip = off_tol / n
    for _ in range(JACOBI_MAX_SWEEPS):
        # Sum |a_pq|^2 over the actual off-diagonal entries; subtracting the
        # diagonal from the total would cancel catastrophically near zero.
        off_part = np.abs(a) ** 2
        np.fill_diagonal(off_part, 0.0)
        if math.sqrt(float(off_part.sum())) < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r < skip:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = (t * c) * phase
                sc = s.conjugate()
                col_p = a[:, p].copy()
                a[:, p] = c * col_p - sc * a[:, q]
                a[:, q] = s * col_p + c * a[:, q]
                row_p = a[p, :].copy()
                a[p, :] = c * row_p - s * a[q, :]
                a[q, :] = sc * row_p + c * a[q, :]
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = v[:, p].copy()
                v[:, p] = c * vcol_p - sc * v[:, q]
                v[:, q] = s * vcol_p + c * v[:, q]
    else:
        raise AssertionError(f"jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    w = a.diagonal().real
    order = np.argsort(w, kind="stable")
    return w[order].copy(), v[:, order].copy()


def eig_oracle(matrix) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))


def entropy_oracle(matrix) -> float:
    """von Neumann entropy in bits via LAPACK eigenvalues."""
    lam = eig_oracle(matrix)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum()) if lam.size else 0.0


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def brute_partial_trace(matrix, dims, keep) -> np.ndarray:
    """Reduced matrix by explicit summation over traced multi-indices."""
    mat = np.asarray(matrix, dtype=complex)
    dims = tuple(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    out = np.zeros((d, d), dtype=complex)
    for row in range(mat.shape[0]):
        ri = np.unravel_index(row, dims)
        for col in range(mat.shape[1]):
            ci = np.unravel_index(col, dims)
            if any(ri[t] != ci[t] for t in traced):
                continue
            r2 = np.ravel_multi_index([ri[k] for k in keep], kept_dims)
            c2 = np.ravel_multi_index([ci[k] for k in keep], kept_dims)
            out[r2, c2] += mat[row, col]
    return out


def charpoly_eigenvalues(matrix) -> np.ndarray:
    """Roots of the characteristic polynomial via Faddeev-LeVerrier."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        if k > 1:
            mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -float(np.trace(a @ mk).real) / k
    return np.sort(np.roots(coeffs).real)


def venn_atoms_2(s_a: float, s_b: float, s_ab: float) -> dict:
    """Two-party atoms solved by hand: conditionals plus the shared cell."""
    return {
        ("A",): s_ab - s_b,
        ("B",): s_ab - s_a,
        ("A", "B"): s_a + s_b - s_ab,
    }


def venn_atoms_3(j: dict) -> dict:
    """Three-party atoms from the closed-form alternating sums.

    `j` maps ("A",), ("B",), ("C",), ("A","B"), ... to joint entropies.
    """
    sa, sb, sc = j[("A",)], j[("B",)], j[("C",)]
    sab, sac, sbc = j[("A", "B")], j[("A", "C")], j[("B", "C")]
    sabc = j[("A", "B", "C")]
    return {
        ("A",): sabc - sbc,
        ("B",): sabc - sac,
        ("C",): sabc - sab,
        ("A", "B"): sac + sbc - sc - sabc,
        ("A", "C"): sab + sbc - sb - sabc,
        ("B", "C"): sab + sac - sa - sabc,
        ("A", "B", "C"): sa + sb + sc - sab - sac - sbc + sabc,
    }


def resum_joints(atoms: dict) -> dict:
    """joints[U] = sum of atoms[T] over T intersecting U (Mobius forward map)."""
    return {
        u: sum(v for t, v in atoms.items() if set(t) & set(u))
        for u in atoms
    }


@dataclass(frozen=True)
class LoopRecord:
    """One sampled shot: a bit per device."""

    shot: int
    bits: tuple[int, ...]
    devices: tuple[str, ...]


def sample_records_loop(post, setup, shots, seed) -> list:
    """One LoopRecord per shot, drawn with one rng.choice call from the
    stream measurement.sample_records uses and unpacked bit by bit."""
    from entroscope.measurement import outcome_probabilities

    labels = setup.device_labels
    p = outcome_probabilities(post, setup)
    p = p / p.sum()
    width = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    records = []
    for shot, d in enumerate(rng.choice(len(p), size=shots, p=p)):
        bits = tuple((int(d) >> (width - 1 - i)) & 1 for i in range(width))
        records.append(LoopRecord(shot=shot, bits=bits, devices=labels))
    return records


def record_bits(records) -> np.ndarray:
    """(shots, devices) array of 0/1 from OutcomeRecords, one column per
    device, first device as the most significant bit of the outcome."""
    shifts = np.arange(len(records.devices) - 1, -1, -1)
    return (records.outcomes[:, None] >> shifts) & 1


def singlet_expectation(x: float, y: float) -> float:
    # analytic <M(x) x M(y)> on the singlet
    return -math.cos(x - y)


def singlet_correlator_kron(x: float, y: float) -> float:
    """<M(x) x M(y)> on the singlet as psi^dag (M(x) kron M(y)) psi."""
    from entroscope.states import epr_singlet, spin_observable

    psi = epr_singlet().amplitudes
    op = np.kron(spin_observable(x), spin_observable(y))
    return float(np.real(psi.conj() @ (op @ psi)))


def deterministic_chsh_values() -> list:
    """All 16 deterministic local strategies, outcomes in {-1, +1}."""
    vals = []
    for a, ap, b, bp in product((-1, 1), repeat=4):
        vals.append(a * b - a * bp + ap * b + ap * bp)
    return vals


def random_classical_density(rng, dims):
    """Diagonal density operator from a sampled joint distribution."""
    d = int(np.prod(dims))
    p = rng.random(d)
    p /= p.sum()
    return np.diag(p.astype(complex)), p


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the result is deterministic per seed
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
