"""The four benchmark workloads: seeded invocation lists and their input files.

Every workload is a fixed list of `python -m entroscope` argument vectors.
The seed changes only the contents (angles, amplitudes, sampling seeds),
never the structure (commands, qubit counts, partition sizes, shot and
scan counts), so the cost of a pass is the same for every seed.  The
heavy workloads have an odd number of call types of distinct cost, so the
median and p90 of a run of whole passes fall inside one type's cluster of
samples, not in the gap between two.  State
files are generated here with plain numpy, not with entroscope's
random_pure/random_density, so a change to the program cannot change
its inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("scenario_cli", "pure_diagrams", "mixed_audits", "sampling")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what the oracle needs to check it.

    `spec` describes the call for the oracle (kind, angles, state, ...).
    `eig_subsets` is the number of joint entropies the call computes, each
    of which costs one Hermitian eigensolve in the program.
    """

    argv: tuple[str, ...]
    spec: dict = field(compare=False)
    eig_subsets: int = 0


@dataclass
class Workload:
    """One pass of invocations, the warm-up calls, and the state files to write."""

    invocations: list[Invocation]
    warmup: list[Invocation]
    files: dict[str, str]
    sizes: dict

    def write_inputs(self) -> None:
        for path, text in self.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(name)])


def _subsets(k: int) -> int:
    return 2**k - 1


def _balanced_groups(rng, n: int, k: int) -> list[tuple[str, tuple[int, ...]]]:
    """k named parties over n factors with fixed group sizes.

    Group sizes are as equal as possible and do not depend on the seed, so
    every seed costs the same; only which factor lands in which party does.
    """
    perm = [int(f) for f in rng.permutation(n)]
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    groups, start = [], 0
    for i, size in enumerate(sizes):
        groups.append((f"P{i}", tuple(sorted(perm[start:start + size]))))
        start += size
    return groups


def _partition_arg(groups) -> str:
    return ";".join(f"{name}={','.join(str(f) for f in fs)}" for name, fs in groups)


def _state_text(kind: str, n: int, data: np.ndarray) -> str:
    flat = data.reshape(-1)
    return json.dumps({
        "kind": kind,
        "dims": [2] * n,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }) + "\n"


def random_pure(rng, n: int) -> np.ndarray:
    d = 2**n
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(rng, n: int) -> np.ndarray:
    """Full-rank G G^dag / Tr, made exactly Hermitian before normalizing."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _scenario_cli(rng, workdir: str, toy: bool) -> Workload:
    oblique = (float(rng.uniform(0.2, 1.3)), float(rng.uniform(1.8, 2.9)))
    near_pi = math.pi - float(rng.uniform(1e-3, 1e-2))
    cases = [
        (("scenario", "epr_pair"), {"kind": "epr_pair"}, 3),
        (("scenario", "epr_measure", "--theta1", "z", "--theta2", "z"),
         {"kind": "epr_measure", "theta": (0.0, 0.0), "orthodox": "parallel"}, 10),
        (("scenario", "epr_measure", "--theta1", "z", "--theta2", "x"),
         {"kind": "epr_measure", "theta": (0.0, math.pi / 2), "orthodox": "orthogonal"}, 10),
        (("scenario", "epr_measure", "--theta1", repr(oblique[0]), "--theta2", repr(oblique[1])),
         {"kind": "epr_measure", "theta": oblique, "orthodox": None}, 10),
        (("scenario", "epr_measure", "--theta1", repr(near_pi), "--theta2", "z"),
         {"kind": "epr_measure", "theta": (near_pi, 0.0), "orthodox": None}, 10),
    ]
    for observer in (False, True):
        for grouping in ("atom", "atom_gamma"):
            argv = ("scenario", "cat", "--grouping", grouping) + (("--observer",) if observer else ())
            cases.append((argv, {"kind": "cat", "observer": observer, "grouping": grouping},
                          10 if observer else 3))
    cases.append((("chsh",), {"kind": "chsh"}, 0))
    if toy:
        cases = [cases[3], cases[-2], cases[-1]]
    invocations = [
        Invocation(argv + ("--format", fmt), dict(spec, format=fmt), subsets)
        for argv, spec, subsets in cases
        for fmt in ("json", "table")
    ]
    sizes = {"invocations_per_pass": len(invocations), "oblique": oblique, "near_pi": near_pi}
    return Workload(invocations, invocations[:2], {}, sizes)


def _state_workload(rng, workdir, items, kind):
    """Shared constructor for the two state-file workloads.

    `items` lists (state id, qubits, command, parties), with parties None
    for `audit` without --partition (one party per factor).  Calls with the
    same state id read the same file.  Each id draws its own random state,
    so a pass averages the eigensolver's cost over many states.
    """
    files: dict[str, str] = {}
    states: dict[str, np.ndarray] = {}
    invocations = []
    for state_id, n, command, k in items:
        path = f"{workdir}/{kind}_{state_id}.json"
        if state_id not in states:
            states[state_id] = random_pure(rng, n) if kind == "pure" else random_density(rng, n)
            files[path] = _state_text(kind, n, states[state_id])
        if k is None:
            groups = [(f"F{i}", (i,)) for i in range(n)]
            extra = ()
        else:
            groups = _balanced_groups(rng, n, k)
            extra = ("--partition", _partition_arg(groups))
        spec = {"kind": "state", "pure": kind == "pure", "state": states[state_id], "qubits": n,
                "groups": groups, "format": "json"}
        invocations.append(Invocation(
            (command, "--state", path) + extra + ("--format", "json"), spec, _subsets(len(groups))
        ))
    sizes = {
        "invocations_per_pass": len(invocations),
        "state_file_bytes": {Path(p).name: len(t) for p, t in files.items()},
        "parties": [len(inv.spec["groups"]) for inv in invocations],
    }
    return Workload(invocations, invocations[:2], files, sizes)


def _pure_diagrams(rng, workdir: str, toy: bool) -> Workload:
    shapes = [(3, 2)] if toy else [(4, 3), (4, 4), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4), (6, 5)]
    items = [(f"n{n}k{k}", n, command, k) for n, k in shapes for command in ("diagram", "audit")]
    return _state_workload(rng, workdir, items, "pure")


def _mixed_audits(rng, workdir: str, toy: bool) -> Workload:
    if toy:
        calls, replicas = [(2, "audit", None), (3, "diagram", 2)], 1
    else:
        calls = [(3, "audit", None), (4, "audit", None), (4, "diagram", 3), (5, "audit", None),
                 (5, "diagram", 3), (6, "diagram", 3), (6, "audit", 3)]
        replicas = 2
    items = [(f"r{r}c{i}", n, command, k)
             for r in range(replicas) for i, (n, command, k) in enumerate(calls)]
    return _state_workload(rng, workdir, items, "density")


def _sampling(rng, workdir: str, toy: bool) -> Workload:
    shots = (4000,) if toy else (100_000, 200_000, 300_000)
    scans = (200,) if toy else (3_000, 10_000)
    invocations = []
    for n_shots in shots:
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        seed = int(rng.integers(0, 2**31))
        argv = ("scenario", "epr_measure", "--theta1", repr(float(t1)), "--theta2", repr(float(t2)),
                "--shots", str(n_shots), "--seed", str(seed), "--format", "json")
        spec = {"kind": "epr_measure", "theta": (float(t1), float(t2)), "orthodox": "skip",
                "shots": n_shots, "seed": seed, "format": "json"}
        invocations.append(Invocation(argv, spec, 10))
    for points in scans:
        seed = int(rng.integers(0, 2**31))
        argv = ("chsh", "--scan", str(points), "--seed", str(seed), "--format", "json")
        invocations.append(Invocation(argv, {"kind": "chsh", "scan": points, "seed": seed,
                                             "format": "json"}, 0))
    sizes = {"invocations_per_pass": len(invocations), "shots": list(shots), "scan_points": list(scans)}
    warmup = [invocations[0], invocations[len(shots)]]
    return Workload(invocations, warmup, {}, sizes)


_WORKLOAD_FACTORIES = {
    "scenario_cli": _scenario_cli,
    "pure_diagrams": _pure_diagrams,
    "mixed_audits": _mixed_audits,
    "sampling": _sampling,
}


def build(name: str, seed: int, workdir: str, toy: bool = False) -> Workload:
    """The workload's invocation list for `seed`; state files go under `workdir`."""
    wl = _WORKLOAD_FACTORIES[name](_rng(name, seed), workdir, toy)
    wl.sizes.update(seed=seed, toy=toy)
    return wl
