"""Output oracle for the benchmark, written with numpy alone.

It never imports entroscope.  Joint entropies come from this file's own
partial trace and `np.linalg.eigvalsh`; Venn atoms from inclusion-exclusion
rather than a linear solve; post-measurement states from projectors rather
than the program's rotate-CNOT-rotate circuit.  Checks are numeric with a
1e-8 tolerance, so a correct kernel change that moves a late digit passes.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

TOL = 1e-8
TSIRELSON = 2.0 * math.sqrt(2.0)
# The sampled mutual information must be this close to the exact value at
# 1e5 shots; the allowance scales as 1/sqrt(shots), like its standard error.
MUTUAL_TOL_AT_1E5 = 0.01
FREQ_SIGMAS = 6.0

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _key(names) -> str:
    return ",".join(names)


def subsets(names):
    for r in range(1, len(names) + 1):
        yield from combinations(names, r)


def entropy_bits(eigenvalues) -> float:
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def reduced(state: np.ndarray, n: int, keep, pure: bool) -> np.ndarray:
    """Reduced density matrix of qubits `keep` (ascending) of an n-qubit state."""
    keep = sorted(keep)
    rest = [i for i in range(n) if i not in keep]
    dk = 2 ** len(keep)
    if pure:
        m = np.transpose(state.reshape((2,) * n), keep + rest).reshape(dk, -1)
        return m @ m.conj().T
    t = state.reshape((2,) * (2 * n))
    rows = list(range(n))
    cols = [i if i in rest else n + i for i in range(n)]
    out = keep + [n + i for i in keep]
    return np.einsum(t, rows + cols, out).reshape(dk, dk)


def joints(state: np.ndarray, n: int, groups, pure: bool) -> dict[str, float]:
    """S(U) in bits for every nonempty union U of the named factor groups."""
    lookup = dict(groups)
    names = [name for name, _ in groups]
    out = {}
    for sub in subsets(names):
        keep = [f for name in sub for f in lookup[name]]
        out[_key(sub)] = entropy_bits(np.linalg.eigvalsh(reduced(state, n, keep, pure)))
    return out


def atoms(joint: dict[str, float], names) -> dict[str, float]:
    """Venn atoms by inclusion-exclusion over joint entropies.

    atom(T) = -sum over S subset of T of (-1)^|S| J(S + (N - T)), J(empty) = 0.
    """
    def j(group) -> float:
        members = [n for n in names if n in group]
        return joint[_key(members)] if members else 0.0

    out = {}
    for t in subsets(names):
        others = set(names) - set(t)
        total = 0.0
        for r in range(len(t) + 1):
            for s in combinations(t, r):
                total += (-1) ** r * j(set(s) | others)
        out[_key(t)] = -total
    return out


def _diagram(state, n, groups, pure) -> dict:
    joint = joints(state, n, groups, pure)
    return {"joints": joint, "atoms": atoms(joint, [name for name, _ in groups])}


def singlet() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return psi


def _projectors(theta: float):
    """Projectors on the +1 and -1 eigenspaces of the spin along theta mod pi.

    The program labels the +1 outcome 0 and reads the axis modulo pi."""
    t = float(theta) % math.pi
    n_sigma = math.cos(t) * _Z + math.sin(t) * _X
    return (_I2 + n_sigma) / 2, (_I2 - n_sigma) / 2


def epr_measured(theta1: float, theta2: float):
    """Singlet plus one pointer per qubit: qubits (Q0, Q1, A1, A2).

    Returns the four-qubit pure state and p[b1, b2], the pointer statistics."""
    psi = singlet()
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    probs = np.zeros((2, 2))
    p1, p2 = _projectors(theta1), _projectors(theta2)
    for b1 in (0, 1):
        for b2 in (0, 1):
            branch = np.kron(p1[b1], p2[b2]) @ psi
            out[:, :, b1, b2] = branch.reshape(2, 2)
            probs[b1, b2] = float(np.vdot(branch, branch).real)
    return out.reshape(-1), probs


def ghz(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def _mutual(joint, a, b) -> float:
    return joint[a] + joint[b] - joint[_key([a, b])]


def expected(spec: dict) -> dict:
    """What a correct report holds, keyed like `observe` returns it.

    `invariants` lists (section, subset key, value) triples from the README
    that must hold on top of agreeing with the computed expectation."""
    kind = spec["kind"]
    exp = {"diagram": None, "reduced_diagram": None, "ternary_center": None,
           "q_devices_mutual": None, "chsh_value": None}
    invariants = []
    pure_groups = None
    if kind == "epr_pair":
        exp["diagram"] = {"joints": {"L": 1.0, "R": 1.0, "L,R": 0.0},
                          "atoms": {"L": -1.0, "R": -1.0, "L,R": 2.0}}
        pure_groups = [("L", (0,)), ("R", (1,))]
    elif kind == "epr_measure":
        state, _ = epr_measured(*spec["theta"])
        groups = [("Q", (0, 1)), ("A1", (2,)), ("A2", (3,))]
        exp["diagram"] = _diagram(state, 4, groups, True)
        exp["reduced_diagram"] = _diagram(state, 4, groups[1:], True)
        exp["ternary_center"] = exp["diagram"]["atoms"]["Q,A1,A2"]
        j = exp["diagram"]["joints"]
        exp["q_devices_mutual"] = j["Q"] + j["A1,A2"] - j["Q,A1,A2"]
        invariants.append(("ternary_center", None, 0.0))
        if spec["orthodox"] == "parallel":
            invariants += [("reduced_diagram", "A1", 0.0), ("reduced_diagram", "A1,A2", 1.0),
                           ("reduced_diagram", "A2", 0.0)]
        elif spec["orthodox"] == "orthogonal":
            invariants += [("reduced_diagram", "A1", 1.0), ("reduced_diagram", "A1,A2", 0.0),
                           ("reduced_diagram", "A2", 1.0)]
        pure_groups = groups
    elif kind == "cat":
        n = 4 if spec["observer"] else 3
        state = ghz(n)
        atomic = (0, 1) if spec["grouping"] == "atom_gamma" else (0,)
        cat = (2,) if spec["grouping"] == "atom_gamma" else (1, 2)
        groups = [("atomic", atomic), ("cat", cat)]
        if spec["observer"]:
            groups.append(("observer", (3,)))
            exp["diagram"] = _diagram(state, n, groups, True)
            exp["reduced_diagram"] = _diagram(state, n, groups[1:], True)
            exp["ternary_center"] = exp["diagram"]["atoms"]["atomic,cat,observer"]
            j = exp["diagram"]["joints"]
            exp["q_devices_mutual"] = j["atomic"] + j["cat,observer"] - j["atomic,cat,observer"]
            invariants += [("ternary_center", None, 0.0)] + [
                ("diagram", pair, 1.0) for pair in ("atomic,cat", "atomic,observer", "cat,observer")
            ]
        else:
            exp["diagram"] = _diagram(state, n, groups, True)
            exp["q_devices_mutual"] = _mutual(exp["diagram"]["joints"], "atomic", "cat")
            invariants += [("diagram", "atomic", -1.0), ("diagram", "atomic,cat", 2.0),
                           ("diagram", "cat", -1.0)]
        pure_groups = groups
    elif kind == "chsh":
        exp["chsh_value"] = -TSIRELSON
    elif kind == "state":
        n, groups = spec["qubits"], spec["groups"]
        exp["diagram"] = _diagram(spec["state"], n, groups, spec["pure"])
        if len(groups) == 3:
            exp["ternary_center"] = exp["diagram"]["atoms"][_key(name for name, _ in groups)]
        if spec["pure"]:
            pure_groups = groups
    else:
        raise ValueError(f"unknown invocation kind {kind!r}")
    return {"values": exp, "invariants": invariants, "pure_groups": pure_groups}


def _diagram_obs(block):
    if block is None:
        return None
    return {"joints": block["joints"], "atoms": block["atoms"]}


def observe_json(text: str) -> tuple[dict, dict]:
    doc = json.loads(text)
    obs = {
        "diagram": _diagram_obs(doc.get("diagram")),
        "reduced_diagram": _diagram_obs(doc.get("reduced_diagram")),
        "ternary_center": doc.get("ternary_center"),
        "q_devices_mutual": doc.get("q_devices_mutual"),
        "chsh_value": doc["chsh"]["value"] if doc.get("chsh") else None,
    }
    return obs, doc


def observe_table(text: str) -> dict:
    """Read the numbers back out of a `--format table` report."""
    obs = {"diagram": None, "reduced_diagram": None, "ternary_center": None,
           "q_devices_mutual": None, "chsh_value": None, "orthodox": None}
    section, mode = None, None
    for line in text.splitlines():
        if line in ("-- diagram --", "-- reduced diagram --"):
            section = "diagram" if line == "-- diagram --" else "reduced_diagram"
            obs[section] = {"joints": {}, "atoms": {}}
            mode = None
        elif not line.strip():
            mode = None
        elif line.startswith("orthodox reference ("):
            obs["orthodox"] = line[len("orthodox reference ("):].split(")")[0]
            section, mode = None, None
        elif section and line.split()[0] in ("subset", "region") and line.endswith("(bits)"):
            mode = "joints" if line.startswith("subset") else "atoms"
        elif section and mode:
            label, value = line.rsplit(None, 1)
            if mode == "atoms":
                label = _key(label.split("|")[0].split(":"))
            obs[section][mode][label] = float(value)
        elif line.startswith("ternary center: "):
            obs["ternary_center"] = float(line.split(": ")[1])
        elif line.startswith("quantum:devices mutual: "):
            obs["q_devices_mutual"] = float(line.split(": ")[1])
        elif line.startswith("CHSH S = "):
            obs["chsh_value"] = float(line.split()[3])
    return obs


def _compare(obs, exp, path: str, errors: list[str]) -> None:
    if isinstance(exp, dict):
        if not isinstance(obs, dict) or set(obs) != set(exp):
            got = sorted(obs) if isinstance(obs, dict) else obs
            errors.append(f"{path}: keys {got} != expected {sorted(exp)}")
            return
        for k in exp:
            _compare(obs[k], exp[k], f"{path}.{k}", errors)
    elif exp is None:
        if obs is not None:
            errors.append(f"{path}: expected null, got {obs!r}")
    elif not isinstance(obs, (int, float)) or isinstance(obs, bool) or abs(obs - exp) > TOL:
        errors.append(f"{path}: {obs!r} != expected {exp!r}")


def _check_sampled(doc: dict, spec: dict, errors: list[str]) -> None:
    block = doc.get("sampled")
    shots = spec["shots"]
    if not block:
        errors.append("sampled block missing")
        return
    if block["shots"] != shots or block["seed"] != spec["seed"]:
        errors.append(f"sampled shots/seed {block['shots']}/{block['seed']} do not echo the request")
    counts = block["counts"]
    if sorted(counts) != ["00", "01", "10", "11"] or sum(counts.values()) != shots:
        errors.append(f"counts {counts} do not sum to {shots} shots over the four outcomes")
        return
    _, probs = epr_measured(*spec["theta"])
    for key, count in counts.items():
        p = probs[int(key[0]), int(key[1])]
        freq = block["frequencies"][key]
        if abs(freq - count / shots) > 1e-9:
            errors.append(f"frequency {key} = {freq} is not counts/shots")
        if abs(count / shots - p) > FREQ_SIGMAS * math.sqrt(p * (1 - p) / shots) + 1e-6:
            errors.append(f"outcome {key}: frequency {count / shots} is far from p = {p}")
    tol = MUTUAL_TOL_AT_1E5 * math.sqrt(100_000 / shots)
    if abs(block["mutual"] - block["exact_mutual"]) > tol:
        errors.append(f"sampled mutual {block['mutual']} not within {tol} of {block['exact_mutual']}")
    reduced = doc["reduced_diagram"]["joints"]
    exact = reduced["A1"] + reduced["A2"] - reduced["A1,A2"]
    if abs(block["exact_mutual"] - exact) > TOL:
        errors.append(f"exact_mutual {block['exact_mutual']} != device mutual {exact}")


def scan_max(points: int, seed: int) -> float:
    """max |S| over the program's seeded scan, from closed-form singlet correlators."""
    quads = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(points, 4))
    a, a2, b, b2 = quads.T
    s = -np.cos(a - b) + np.cos(a - b2) - np.cos(a2 - b) - np.cos(a2 - b2)
    return float(np.max(np.abs(s)))


def _check_scan(doc: dict, spec: dict, errors: list[str]) -> None:
    scan = doc["chsh"].get("scan")
    if not scan or scan["points"] != spec["scan"] or scan["seed"] != spec["seed"]:
        errors.append(f"scan block {scan!r} does not echo the request")
        return
    best = scan["max_abs_value"]
    if best > TSIRELSON + 1e-9:
        errors.append(f"scan max {best} exceeds the Tsirelson bound")
    want = scan_max(spec["scan"], spec["seed"])
    if abs(best - want) > TOL:
        errors.append(f"scan max {best} != expected {want}")


def check(spec: dict, stdout: str, want: dict | None = None) -> list[str]:
    """Every way `stdout` differs from a correct report; empty if none.

    `want` is expected(spec), passed in when the caller caches it."""
    want = want if want is not None else expected(spec)
    errors: list[str] = []
    try:
        if spec["format"] == "json":
            obs, doc = observe_json(stdout)
            orthodox = (doc.get("orthodox") or {}).get("case")
            for section in ("diagram", "reduced_diagram"):
                block = doc.get(section)
                for name in ("subadditivity", "triangle", "strong_subadditivity"):
                    if block and block["audit"][f"{name}_ok"] is not True:
                        errors.append(f"{section}.audit.{name}_ok is not true")
        else:
            doc = None
            obs = observe_table(stdout)
            orthodox = obs.pop("orthodox")
            if "VIOLATED" in stdout:
                errors.append("table reports a violated inequality")
        _compare(obs, want["values"], "report", errors)
        for section, subset, value in want["invariants"]:
            got = obs[section] if subset is None else obs[section]["atoms"][subset]
            if abs(got - value) > TOL:
                errors.append(f"README invariant {section}[{subset}] = {got}, expected {value}")
        if want["pure_groups"]:
            _check_complement(obs["diagram"]["joints"], want["pure_groups"], errors)
        if spec.get("orthodox") != "skip" and orthodox != spec.get("orthodox"):
            errors.append(f"orthodox block {orthodox!r}, expected {spec.get('orthodox')!r}")
        if doc is not None and spec.get("shots"):
            _check_sampled(doc, spec, errors)
        if doc is not None and spec.get("scan"):
            _check_scan(doc, spec, errors)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        errors.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return errors


def _check_complement(joint: dict, groups, errors: list[str]) -> None:
    """For a pure joint state, S(U) = S(complement of U) and S(all) = 0."""
    names = [name for name, _ in groups]
    full = _key(names)
    if abs(joint[full]) > TOL:
        errors.append(f"pure state has S({full}) = {joint[full]}")
    for sub in subsets(names):
        rest = [n for n in names if n not in sub]
        if rest and abs(joint[_key(sub)] - joint[_key(rest)]) > TOL:
            errors.append(f"S({_key(sub)}) != S({_key(rest)}) on a pure state")
