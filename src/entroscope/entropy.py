"""Entropies, Venn-atom decomposition, and the inequality audit.

All entropies are in bits (log base 2).  A partition groups tensor
factors into named parties; joint entropies are computed for every
nonempty subset of parties, and the Venn atoms are recovered from them
by Mobius inversion.  Atoms of quantum diagrams can be negative; they
are reported as-is, never clamped.
"""

from __future__ import annotations

import math
import numbers
from itertools import combinations

import numpy as np

from .errors import NumericalFaultError, ValidationError
from .linalg import PSD_CLAMP, DensityOperator, PureState, _Frozen, _index, hermitian_eigenvalues, partial_trace

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
    return _entropy_bits(p)


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p_i log2 p_i over the positive entries of p, never below 0."""
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
    """S(rho) = -sum lambda_i log2 lambda_i over the clamped spectrum; not
    shannon_entropy, whose 1e-9 sum check fails a valid state with a dozen
    eigenvalues clamped up from -1e-10."""
    return _entropy_bits(clamp_spectrum(hermitian_eigenvalues(rho.matrix)))


class PartitionSpec(_Frozen):
    """Named, disjoint groups of tensor factors (1 to 5 parties).

    Whether the parties cover all factors of a state is checked where the
    partition is applied, since a PartitionSpec alone does not know the
    state.
    """

    __slots__ = ("parties",)

    def __init__(self, parties: tuple[tuple[str, frozenset[int]], ...]):
        parties = tuple((str(n), frozenset(map(_index, fs))) for n, fs in parties)
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
        self._set(parties)

    @classmethod
    def of(cls, **groups) -> "PartitionSpec":
        return cls(tuple((name, frozenset(fs)) for name, fs in groups.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.parties)

    @property
    def all_factors(self) -> frozenset[int]:
        return frozenset().union(*(fs for _, fs in self.parties))

    def factors_of(self, subset) -> frozenset[int]:
        lookup = dict(self.parties)
        out: frozenset[int] = frozenset()
        for name in subset:
            if name not in lookup:
                raise ValidationError(f"unknown party {name!r}")
            out |= lookup[name]
        return out


def _canonical_subsets(names: tuple[str, ...]) -> list[Subset]:
    return [u for r in range(1, len(names) + 1) for u in combinations(names, r)]


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

    A pure state is turned into its density operator here, once.  Each
    subset is traced straight from it, so uncovered factors are simply
    never kept; party factor indices refer to the state's factors."""
    n = state.num_factors
    covered = sorted(partition.all_factors)
    if covered[0] < 0 or covered[-1] >= n:
        raise ValidationError(f"partition references factors {covered}, state has {n}")
    rho = state.to_density() if isinstance(state, PureState) else state
    return {
        subset: von_neumann_entropy(partial_trace(rho, partition.factors_of(subset)))
        for subset in _canonical_subsets(partition.names)
    }


def _party_order(joints: dict[Subset, float]) -> tuple[str, ...]:
    names = tuple(k[0] for k in joints if len(k) == 1)
    if not names:
        raise ValidationError("joints map has no singleton entries")
    for key, value in joints.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValidationError(f"joint entropy of {key} is not finite: {value!r}")
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


def mutual_entropy(joints: dict[Subset, float], a, b) -> float:
    """S(A:B) = S(A) + S(B) - S(AB) for disjoint party groups A, B."""
    names = _party_order(joints)
    sa, sb = _as_subset(names, a), _as_subset(names, b)
    if set(sa) & set(sb):
        raise ValidationError(f"groups {sa} and {sb} overlap")
    union = tuple(n for n in names if n in sa or n in sb)
    return _require(joints, sa) + _require(joints, sb) - _require(joints, union)


def resum_joints(atoms: dict[Subset, float]) -> dict[Subset, float]:
    """The forward Mobius map: joints[U] = sum of atoms[T] over T meeting U."""
    return {u: sum(v for t, v in atoms.items() if set(t) & set(u)) for u in atoms}


def venn_atoms(joints: dict[Subset, float]) -> dict[Subset, float]:
    """Mobius inversion in closed form (Yeung's I-measure): the atom of
    region T is a(T) = -sum over W in T of (-1)^(|T|-|W|) S(N - W), with
    S of no party 0; for two parties a(A) = S(AB) - S(B).  Atoms may be
    negative for quantum states and are returned untouched; re-summing
    them must give the joints back within ATOM_RESIDUAL_TOL."""
    names = _party_order(joints)
    subsets = _canonical_subsets(names)
    if set(joints) != set(subsets):
        missing = sorted(set(subsets) - set(joints))
        raise ValidationError(f"joints map incomplete; missing {missing[:4]}")
    s = {**joints, (): 0.0}
    atoms = {
        t: -math.fsum(
            (-1) ** (len(t) - len(w)) * s[tuple(n for n in names if n not in w)]
            for r in range(len(t) + 1)
            for w in combinations(t, r)
        )
        for t in subsets
    }
    residual = max(abs(sj - joints[u]) for u, sj in resum_joints(atoms).items())
    if residual > ATOM_RESIDUAL_TOL:
        raise NumericalFaultError(f"atom system residual {residual:.3e} exceeds tolerance")
    return atoms


def ternary_center(atoms: dict[Subset, float]) -> float:
    """The central atom S(A:B:C) of a three-party atoms map.

    Equals S(A)+S(B)+S(C) - S(AB)-S(AC)-S(BC) + S(ABC)."""
    parties = tuple(k[0] for k in atoms if len(k) == 1)
    if len(parties) != 3:
        raise ValidationError(f"ternary center requires exactly 3 parties, got {len(parties)}")
    return atoms[parties]


class InequalityAudit(_Frozen):
    """Outcome of the entropy inequality checks on a joints map.

    Monotonicity can fail for quantum states and is reported, not raised.
    Subadditivity, triangle, and strong subadditivity hold for every
    quantum state: a violation raises, so only their worst slacks remain,
    each None when no case was checked."""

    __slots__ = ("monotonicity_violated", "subadditivity_worst_slack", "triangle_worst_slack",
                 "strong_subadditivity_worst_slack")

    def __init__(self, monotonicity_violated: tuple[tuple[Subset, Subset], ...],
                 subadditivity_worst_slack: float | None, triangle_worst_slack: float | None,
                 strong_subadditivity_worst_slack: float | None):
        self._set(monotonicity_violated, subadditivity_worst_slack, triangle_worst_slack,
                  strong_subadditivity_worst_slack)


def audit_inequalities(joints: dict[Subset, float]) -> InequalityAudit:
    """Check monotonicity, subadditivity, triangle, and strong subadditivity.

    The last three say a mutual entropy cannot be negative, so one walk
    covers them: for B = {} then each subset, and each disjoint pair
    (A, C) of subsets disjoint from B, the slack is the conditional
    mutual entropy S(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B), with
    S({}) = 0.  B = {} gives subadditivity, and with it the triangle
    slack S(AC) - |S(A) - S(C)|; B != {} gives strong subadditivity.
    Violations beyond a 1e-9 slack raise NumericalFaultError
    (non-physical state or numerical fault), the first one walked."""
    names = _party_order(joints)
    subsets = _canonical_subsets(names)
    if set(joints) != set(subsets):
        raise ValidationError("joints map incomplete for audit")

    groups = [(u, frozenset(u)) for u in subsets]
    mono = [
        (u, v) for u, fu in groups for v, fv in groups
        if fu < fv and joints[u] > joints[v] + INEQ_SLACK
    ]

    s = {fu: joints[u] for u, fu in groups}
    s[frozenset()] = 0.0
    worst = dict.fromkeys(("subadditivity", "triangle inequality", "strong subadditivity"))
    for b, fb in [((), frozenset())] + groups:
        rest = [(u, fu) for u, fu in groups if not fu & fb]
        for i, (a, fa) in enumerate(rest):
            for c, fc in rest[i + 1:]:
                if fa & fc:
                    continue
                slack = s[fa | fb] + s[fb | fc] - s[fa | fb | fc] - s[fb]
                if b:
                    checks = (("strong subadditivity", slack),)
                else:
                    tri = s[fa | fc] - abs(s[fa] - s[fc])
                    checks = (("subadditivity", slack), ("triangle inequality", tri))
                for what, value in checks:
                    worst[what] = value if worst[what] is None else min(worst[what], value)
                    if value < -INEQ_SLACK:
                        where = f"(A={a}, B={b}, C={c})" if b else f"on {a} vs {c}"
                        raise NumericalFaultError(
                            f"{what} violated by {-value:.3e} {where}: "
                            "non-physical state or numerical fault"
                        )

    return InequalityAudit(
        monotonicity_violated=tuple(mono),
        subadditivity_worst_slack=worst["subadditivity"],
        triangle_worst_slack=worst["triangle inequality"],
        strong_subadditivity_worst_slack=worst["strong subadditivity"],
    )


class DiagramBundle(_Frozen):
    """One labeled diagram: party factors, joints, Venn atoms, audit."""

    __slots__ = ("factors", "joints", "atoms", "audit")

    def __init__(self, factors: dict[str, tuple[int, ...]], joints: dict[Subset, float],
                 atoms: dict[Subset, float], audit: InequalityAudit):
        self._set(factors, joints, atoms, audit)

    @classmethod
    def of(cls, state, partition: PartitionSpec) -> "DiagramBundle":
        """Joints, atoms and audit of `state`, pure or density, under
        `partition`; factors the partition leaves out are traced out."""
        joints = grouped_entropies(state, partition)
        return cls(
            factors={n: tuple(sorted(fs)) for n, fs in partition.parties},
            joints=joints,
            atoms=venn_atoms(joints),
            audit=audit_inequalities(joints),
        )

    @property
    def center(self) -> float | None:
        """The ternary center S(A:B:C) of a three-party diagram, else None."""
        return ternary_center(self.atoms) if len(self.factors) == 3 else None
