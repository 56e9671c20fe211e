"""Independent oracles for the test suite.

Everything here deliberately takes a different route than the package:
eigendecompositions come from cyclic Jacobi sweeps (the package calls
LAPACK through numpy; entropy_oracle shares LAPACK with it, and the
eigensolver tests check that against Jacobi), partial traces from
explicit index loops (the package reshapes and calls np.trace), Venn
atoms from a dense solve of the incidence system and joints re-summed
through that matrix (the package evaluates the closed-form alternating
sums; venn_atoms_2 and venn_atoms_3 write the same sums out by hand, so
they pin the formula, not the route), the characteristic polynomial
from Faddeev-LeVerrier trace recursion (no eigensolver at all), sampled
records from a per-shot loop over one Generator.choice call on the same
seeded stream (the package inverts the cumulative distribution itself,
block by block, into one outcome array), singlet correlators from the
dense 4x4 operator np.kron builds (the package evaluates the closed
form -cos(x - y)), pre-measurement from the padded-ancilla
R / CNOT / R^dag circuit as np.kron matrices (the package stacks one
projected copy of the state per pointer value), and the audit's worst
slacks from every (A, B, C) triple of bitmasks (the package walks
unordered (A, C) pairs per B), and state-file text from one json.dumps
of a document with a [re, im] list per entry (the package dumps blocks
of 4,096 rows and joins them), a density operator's Hermitian part
from one (m + m^H) * 0.5 (the package sums it one pair of tiles at a
time), and a pure state's joint entropies through its density matrix,
traced down to each subset (the package takes the Gram matrix of the
amplitudes on the smaller side of each cut).  reference_entropy is the
referee for both float64 routes: 40 significant digits in mpmath, from
the amplitudes as stored.  Agreement between the two routes is
the point of the tests.  Purity, the schema-checking document parser and
the seeded random states are test-only tools.
"""

import json
import math
import re
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from itertools import combinations, product

import mpmath
import numpy as np

from entroscope import ValidationError
from entroscope.entropy import von_neumann_entropy
from entroscope.linalg import DensityOperator, PureState, _as_dims, partial_trace


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


def dense_joint_entropies(state, partition) -> dict:
    """grouped_entropies' joints through the density matrix: a pure state
    becomes |psi><psi| once, then every subset is traced down from it."""
    rho = state.to_density() if isinstance(state, PureState) else state
    names = partition.names
    return {
        u: von_neumann_entropy(partial_trace(rho, partition.factors_of(u)))
        for r in range(1, len(names) + 1) for u in combinations(names, r)
    }


REFERENCE_DPS = 40


def reference_entropy(state, factors) -> mpmath.mpf:
    """S(factors) of pure `state` in bits at REFERENCE_DPS digits.

    The float64 amplitudes are read exactly and placed by explicit index
    arithmetic in a matrix between the cut's smaller side and the rest,
    whose Gram matrix, the reduced state on that side (the two sides of a
    pure state share their nonzero spectrum), goes to mpmath's eighe."""
    dims = state.dims
    side = sorted(factors)
    rest = [i for i in range(len(dims)) if i not in side]
    if math.prod(dims[i] for i in side) > math.prod(dims[i] for i in rest):
        side, rest = rest, side

    def flat(multi, which):
        k = 0
        for i in which:
            k = k * dims[i] + multi[i]
        return k

    with mpmath.workdps(REFERENCE_DPS):
        m = mpmath.matrix(math.prod(dims[i] for i in side), math.prod(dims[i] for i in rest))
        for k, z in enumerate(state.amplitudes):
            multi = np.unravel_index(k, dims)
            m[flat(multi, side), flat(multi, rest)] = mpmath.mpc(complex(z))
        lam = mpmath.eighe(m * m.H, eigvals_only=True)
        return -mpmath.fsum(x * mpmath.log(x, 2) for x in lam if x > 0)


def assert_joints_match_reference(state, joints: dict, factors_of) -> None:
    """Every joint entropy within its 9th-digit rounding margin of the
    40-digit reference, so it prints the digits the reference does."""
    far = []
    for subset, value in joints.items():
        ref = reference_entropy(state, factors_of(subset))
        with mpmath.workdps(REFERENCE_DPS):
            gap = float(abs(mpmath.mpf(value) - ref))
        if not gap < rounding_margin(value):
            far.append((subset, value, float(ref), gap))
    assert not far, far


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


def incidence_matrix(subsets) -> np.ndarray:
    """M[i, j] = 1 where region subsets[j] meets subset subsets[i]."""
    return np.array([[1.0 if set(u) & set(t) else 0.0 for t in subsets] for u in subsets])


def venn_atoms_solve(joints: dict) -> dict:
    """Atoms by a dense solve of joints[U] = sum of atoms[T] over T meeting U."""
    subsets = list(joints)
    sol = np.linalg.solve(incidence_matrix(subsets), [joints[u] for u in subsets])
    return {t: float(x) for t, x in zip(subsets, sol)}


def resum_joints(atoms: dict) -> dict:
    """joints[U] = sum of atoms[T] over T meeting U, as one incidence product."""
    subsets = list(atoms)
    sums = incidence_matrix(subsets) @ [atoms[t] for t in subsets]
    return {u: float(x) for u, x in zip(subsets, sums)}


def premeasure_kron(state, setup) -> np.ndarray:
    """premeasure's amplitudes from the circuit it replaced: append one |0>
    ancilla per tap, then per tap apply (R^dag x I) CNOT (R x I), with the
    tapped qubit as control and its ancilla as target, each a full-size
    matrix built factor by factor with np.kron."""
    from entroscope.states import basis_rotation

    n = state.num_factors
    dims = state.dims + (2,) * len(setup.taps)
    pad = np.zeros(2 ** len(setup.taps))
    pad[0] = 1.0
    psi = np.kron(state.amplitudes, pad)

    def on(ops: dict) -> np.ndarray:
        out = np.eye(1)
        for f, d in enumerate(dims):
            out = np.kron(out, ops.get(f, np.eye(d)))
        return out

    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i, (f, angle, _) in enumerate(setup.taps):
        r = basis_rotation(angle)
        cnot = on({f: np.diag([1.0, 0.0])}) + on({f: np.diag([0.0, 1.0]), n + i: flip})
        psi = on({f: r.conj().T}) @ (cnot @ (on({f: r}) @ psi))
    return psi


def audit_oracle(joints: dict) -> tuple:
    """(monotonicity violations, worst subadditivity, triangle and SSA
    slacks) by brute force over party bitmasks.

    Every ordered triple (A, B, C) of disjoint masks with A and C nonempty
    gives S(AB) + S(BC) - S(ABC) - S(B), with S of no party 0: B empty is
    subadditivity (and the triangle slack S(AC) - |S(A) - S(C)|), B
    nonempty strong subadditivity.  A worst slack is None when no triple
    exists."""
    names = [k[0] for k in joints if len(k) == 1]
    n = len(names)

    def members(mask):
        return [i for i in range(n) if mask >> i & 1]

    def key(mask):
        return tuple(names[i] for i in members(mask))

    s = {0: 0.0, **{m: joints[key(m)] for m in range(1, 1 << n)}}
    # subsets by size, then in party order, as the audit lists them
    order = sorted(range(1, 1 << n), key=lambda m: (len(members(m)), members(m)))
    mono = [
        (key(u), key(v)) for u in order for v in order
        if u != v and u & v == u and s[u] > s[v] + 1e-9  # the audit's INEQ_SLACK
    ]
    sub, tri, ssa = [], [], []
    for a in range(1, 1 << n):
        for c in range(1, 1 << n):
            if a & c:
                continue
            for b in range(1 << n):
                if b & (a | c):
                    continue
                slack = s[a | b] + s[b | c] - s[a | b | c] - s[b]
                if b:
                    ssa.append(slack)
                else:
                    sub.append(slack)
                    tri.append(s[a | c] - abs(s[a] - s[c]))
    return mono, min(sub, default=None), min(tri, default=None), min(ssa, default=None)


def rounding_margin(x: float, digits: int = 9) -> float:
    """Distance from x to the nearest point where rounding to `digits`
    fractional digits changes: the midpoints (k + 1/2) 10^-digits.

    Computed on the exact decimal value of the float, so a value that
    moves by less than this prints the same rounded digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        scaled = Decimal(x).scaleb(digits)
        frac = scaled - scaled.to_integral_value(ROUND_FLOOR)
        return float(abs(frac - Decimal("0.5")).scaleb(-digits))


def purity(rho) -> float:
    """Tr(rho^2) of a DensityOperator; 1 for pure states, 1/d when maximally mixed."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


_SEMVER = re.compile(r"^\d+\.\d+\.\d+$")


def parse_document(text: str) -> dict:
    """Parse a canonical JSON document and check its schema version tag."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    version = doc.get("schema_version")
    if not isinstance(version, str) or not _SEMVER.match(version):
        raise ValidationError(f"schema_version missing or not semver: {version!r}")
    return doc


@dataclass(frozen=True)
class LoopRecord:
    """One sampled shot: a bit per device."""

    shot: int
    bits: tuple[int, ...]
    devices: tuple[str, ...]


def sample_records_loop(post, setup, shots, seed) -> list:
    """One LoopRecord per shot, drawn with one rng.choice call from the
    stream measurement.sample_records uses and unpacked bit by bit: the
    reference for sample_records' written-out inverse CDF."""
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


def record_bits(outcomes, devices: int) -> np.ndarray:
    """(shots, devices) array of 0/1 from sample_records' outcome indices,
    one column per device, first device as the most significant bit."""
    shifts = np.arange(devices - 1, -1, -1)
    return (outcomes[:, None] >> shifts) & 1


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


def serialize_state_whole(state) -> str:
    """serialize_state's text, from one [re, im] list per entry."""
    pure = isinstance(state, PureState)
    flat = state.amplitudes if pure else state.matrix.reshape(-1)
    doc = {"kind": "pure" if pure else "density", "dims": list(state.dims),
           "data": [[float(z.real), float(z.imag)] for z in flat]}
    return json.dumps(doc) + "\n"


def hermitian_part(m) -> np.ndarray:
    """The matrix DensityOperator stores for m, in one expression."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) * 0.5


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


def random_density(dim_per_factor, seed) -> DensityOperator:
    """rho = G G^dag / Tr(G G^dag) with seeded iid complex Gaussians.

    Full rank with probability 1; deterministic for a given seed."""
    dims = _as_dims(dim_per_factor)
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(m, dims)


def random_pure(dim_per_factor, seed) -> PureState:
    """Normalized vector of seeded iid complex Gaussians."""
    dims = _as_dims(dim_per_factor)
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), dims)
