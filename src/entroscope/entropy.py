"""Entropies, Venn-atom decomposition, and the inequality audit.

All entropies are in bits (log base 2).  A partition groups tensor
factors into named parties; joint entropies are computed for every
nonempty subset of parties, and the Venn atoms are recovered from them
by Mobius inversion.  Atoms of quantum diagrams can be negative; they
are reported as-is, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFaultError, ValidationError
from .linalg import PSD_CLAMP, DensityOperator, PureState, hermitian_eigenvalues, partial_trace

PROB_SUM_TOL = 1e-9
ATOM_RESIDUAL_TOL = 1e-9
INEQ_SLACK = 1e-9

MAX_PARTIES = 5
# Subset keys join party names with ",", table labels with ":" and "|".
NAME_SEPARATORS = ",:|"

Subset = tuple[str, ...]


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p_i log2 p_i, with 0 log 0 = 0."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValidationError("empty probability vector")
    if float(p.min()) < 0.0:
        raise ValidationError(f"negative probability entry {float(p.min())!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    nz = p[p > 0.0]
    s = float(-(nz * np.log2(nz)).sum())
    return s if s > 0.0 else 0.0


def clamp_spectrum(eigenvalues) -> np.ndarray:
    """Zero out negative eigenvalues in the numerical window [-1e-10, 0).

    Anything more negative is not round-off and raises."""
    lam = np.asarray(eigenvalues, dtype=float)
    low = float(lam.min())
    if low < PSD_CLAMP:
        raise NumericalFaultError(
            f"eigenvalue {low:.3e} below the PSD clamp window {PSD_CLAMP}: "
            "non-physical state or numerical fault"
        )
    return np.where(lam < 0.0, 0.0, lam)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum lambda_i log2 lambda_i over the clamped spectrum."""
    lam = clamp_spectrum(hermitian_eigenvalues(rho.matrix))
    nz = lam[lam > 0.0]
    s = float(-(nz * np.log2(nz)).sum())
    return s if s > 0.0 else 0.0


@dataclass(frozen=True)
class PartitionSpec:
    """Named, disjoint groups of tensor factors (1 to 5 parties).

    Whether the parties cover all factors of a state is checked where the
    partition is applied, since a PartitionSpec alone does not know the
    state.
    """

    parties: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self):
        parties = tuple((str(n), frozenset(int(f) for f in fs)) for n, fs in self.parties)
        if not 1 <= len(parties) <= MAX_PARTIES:
            raise ValidationError(f"need 1..{MAX_PARTIES} parties, got {len(parties)}")
        names = [n for n, _ in parties]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate party names in {names}")
        seen: set[int] = set()
        for name, fs in parties:
            if any(c in name for c in NAME_SEPARATORS):
                raise ValidationError(
                    f"party name {name!r} contains one of {list(NAME_SEPARATORS)}"
                )
            if not fs:
                raise ValidationError(f"party {name!r} has no factors")
            if seen & fs:
                raise ValidationError(f"party {name!r} overlaps another party")
            seen |= fs
        object.__setattr__(self, "parties", parties)

    @classmethod
    def of(cls, **groups) -> "PartitionSpec":
        return cls(tuple((name, frozenset(fs)) for name, fs in groups.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.parties)

    @property
    def all_factors(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for _, fs in self.parties:
            out |= fs
        return out

    def factors_of(self, subset) -> frozenset[int]:
        lookup = dict(self.parties)
        out: frozenset[int] = frozenset()
        for name in subset:
            if name not in lookup:
                raise ValidationError(f"unknown party {name!r}")
            out |= lookup[name]
        return out


def _canonical_subsets(names: tuple[str, ...]) -> list[Subset]:
    out: list[Subset] = []
    for r in range(1, len(names) + 1):
        out.extend(combinations(names, r))
    return out


def joint_entropies(
    state: PureState | DensityOperator, partition: PartitionSpec
) -> dict[Subset, float]:
    """Von Neumann entropy of every nonempty subset of parties.

    The partition must cover every factor of `state` exactly once."""
    n = state.num_factors
    covered = partition.all_factors
    if covered != frozenset(range(n)):
        raise ValidationError(
            f"partition covers factors {sorted(covered)} but the state has {n} factors"
        )
    return grouped_entropies(state, partition)


def grouped_entropies(
    state: PureState | DensityOperator, partition: PartitionSpec
) -> dict[Subset, float]:
    """joint_entropies for a partition that may cover only part of the state.

    A pure state is turned into its density operator here, once.  Uncovered
    factors are traced out first; party factor indices refer to the
    original state."""
    n = state.num_factors
    covered = sorted(partition.all_factors)
    if covered[0] < 0 or covered[-1] >= n:
        raise ValidationError(f"partition references factors {covered}, state has {n}")
    rho = state.to_density() if isinstance(state, PureState) else state
    if len(covered) < n:
        rho = partial_trace(rho, covered)
        remap = {old: new for new, old in enumerate(covered)}
        partition = PartitionSpec(
            tuple((name, frozenset(remap[f] for f in fs)) for name, fs in partition.parties)
        )
    return {
        subset: von_neumann_entropy(partial_trace(rho, partition.factors_of(subset)))
        for subset in _canonical_subsets(partition.names)
    }


def _party_order(joints: dict[Subset, float]) -> tuple[str, ...]:
    names = tuple(k[0] for k in joints if len(k) == 1)
    if not names:
        raise ValidationError("joints map has no singleton entries")
    return names


def _as_subset(names: tuple[str, ...], group) -> Subset:
    if isinstance(group, str):
        group = (group,)
    got = tuple(str(g) for g in group)
    if len(set(got)) != len(got):
        raise ValidationError(f"repeated party in {got}")
    for g in got:
        if g not in names:
            raise ValidationError(f"unknown party {g!r}, have {list(names)}")
    return tuple(n for n in names if n in got)


def _require(joints: dict[Subset, float], key: Subset) -> float:
    if key not in joints:
        raise ValidationError(f"joints map is missing subset {key}")
    return joints[key]


def conditional_entropy(joints: dict[Subset, float], a, b) -> float:
    """S(A|B) = S(AB) - S(B) for disjoint party groups A, B."""
    names = _party_order(joints)
    sa, sb = _as_subset(names, a), _as_subset(names, b)
    if set(sa) & set(sb):
        raise ValidationError(f"groups {sa} and {sb} overlap")
    union = tuple(n for n in names if n in set(sa) | set(sb))
    return _require(joints, union) - _require(joints, sb)


def mutual_entropy(joints: dict[Subset, float], a, b) -> float:
    """S(A:B) = S(A) + S(B) - S(AB) for disjoint party groups A, B."""
    names = _party_order(joints)
    sa, sb = _as_subset(names, a), _as_subset(names, b)
    if set(sa) & set(sb):
        raise ValidationError(f"groups {sa} and {sb} overlap")
    union = tuple(n for n in names if n in set(sa) | set(sb))
    return _require(joints, sa) + _require(joints, sb) - _require(joints, union)


@dataclass(frozen=True)
class VennDiagram:
    """Parties, their joint entropies, and the Venn atoms solving them."""

    parties: tuple[str, ...]
    joints: dict[Subset, float]
    atoms: dict[Subset, float]


def venn_atoms(joints: dict[Subset, float]) -> VennDiagram:
    """Mobius inversion: solve joints[U] = sum over T with T & U != {} of atoms[T].

    A direct dense solve; at most 2^5 - 1 = 31 unknowns.  Atoms may be
    negative for quantum states and are returned untouched."""
    names = _party_order(joints)
    subsets = _canonical_subsets(names)
    if set(joints) != set(subsets):
        missing = sorted(set(subsets) - set(joints))
        raise ValidationError(f"joints map incomplete; missing {missing[:4]}")
    m = np.zeros((len(subsets), len(subsets)))
    for i, u in enumerate(subsets):
        su = set(u)
        for j, t in enumerate(subsets):
            if su & set(t):
                m[i, j] = 1.0
    rhs = np.array([joints[u] for u in subsets])
    sol = np.linalg.solve(m, rhs)
    residual = float(np.max(np.abs(m @ sol - rhs)))
    if residual > ATOM_RESIDUAL_TOL:
        raise NumericalFaultError(f"atom system residual {residual:.3e} exceeds tolerance")
    atoms = {t: float(sol[j]) for j, t in enumerate(subsets)}
    return VennDiagram(parties=names, joints=dict(joints), atoms=atoms)


def ternary_center(diagram: VennDiagram) -> float:
    """The central atom S(A:B:C) of a three-party diagram.

    Equals S(A)+S(B)+S(C) - S(AB)-S(AC)-S(BC) + S(ABC)."""
    if len(diagram.parties) != 3:
        raise ValidationError(
            f"ternary center requires exactly 3 parties, got {len(diagram.parties)}"
        )
    return diagram.atoms[diagram.parties]


@dataclass(frozen=True)
class InequalityAudit:
    """Outcome of the entropy inequality checks on a joints map.

    Monotonicity can fail for quantum states and is reported, not raised.
    Subadditivity, triangle, and strong subadditivity hold for every
    quantum state, so a violation raises instead of returning, and the
    three `*_ok` fields are always True.  Reports of schema 1.0.0 carry
    every field, as keys in this order."""

    monotonicity_violated: tuple[tuple[Subset, Subset], ...]
    subadditivity_ok: bool
    subadditivity_worst_slack: float | None
    triangle_ok: bool
    triangle_worst_slack: float | None
    strong_subadditivity_ok: bool
    strong_subadditivity_worst_slack: float | None


def audit_inequalities(joints: dict[Subset, float]) -> InequalityAudit:
    """Check monotonicity, subadditivity, triangle, and strong subadditivity.

    Violations beyond a 1e-9 slack of the always-valid quantum inequalities
    raise NumericalFaultError (non-physical state or numerical fault)."""
    names = _party_order(joints)
    subsets = _canonical_subsets(names)
    if set(joints) != set(subsets):
        raise ValidationError("joints map incomplete for audit")

    mono: list[tuple[Subset, Subset]] = []
    for u in subsets:
        su = set(u)
        for v in subsets:
            if su < set(v) and joints[u] > joints[v] + INEQ_SLACK:
                mono.append((u, v))

    def key(group: set[str]) -> Subset:
        return tuple(n for n in names if n in group)

    sub_slack: float | None = None
    tri_slack: float | None = None
    disjoint_pairs = [
        (a, b)
        for i, a in enumerate(subsets)
        for b in subsets[i + 1:]
        if not set(a) & set(b)
    ]
    for a, b in disjoint_pairs:
        s_a, s_b = joints[a], joints[b]
        s_ab = joints[key(set(a) | set(b))]
        sub = s_a + s_b - s_ab
        tri = s_ab - abs(s_a - s_b)
        sub_slack = sub if sub_slack is None else min(sub_slack, sub)
        tri_slack = tri if tri_slack is None else min(tri_slack, tri)
        if sub < -INEQ_SLACK:
            raise NumericalFaultError(
                f"subadditivity violated by {-sub:.3e} on {a} vs {b}: "
                "non-physical state or numerical fault"
            )
        if tri < -INEQ_SLACK:
            raise NumericalFaultError(
                f"triangle inequality violated by {-tri:.3e} on {a} vs {b}: "
                "non-physical state or numerical fault"
            )

    ssa_slack: float | None = None
    for b in subsets:
        sb = set(b)
        rest = [s for s in subsets if not set(s) & sb]
        for i, a in enumerate(rest):
            for c in rest[i + 1:]:
                if set(a) & set(c):
                    continue
                s_ab = joints[key(set(a) | sb)]
                s_bc = joints[key(sb | set(c))]
                s_abc = joints[key(set(a) | sb | set(c))]
                slack = s_ab + s_bc - s_abc - joints[b]
                ssa_slack = slack if ssa_slack is None else min(ssa_slack, slack)
                if slack < -INEQ_SLACK:
                    raise NumericalFaultError(
                        f"strong subadditivity violated by {-slack:.3e} "
                        f"(A={a}, B={b}, C={c}): non-physical state or numerical fault"
                    )

    return InequalityAudit(
        monotonicity_violated=tuple(mono),
        subadditivity_ok=True,
        subadditivity_worst_slack=sub_slack,
        triangle_ok=True,
        triangle_worst_slack=tri_slack,
        strong_subadditivity_ok=True,
        strong_subadditivity_worst_slack=ssa_slack,
    )
