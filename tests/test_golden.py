"""Golden stdout: fixed CLI invocations compared byte for byte.

The state files under golden/states/ are seeded and written with plain
numpy, so no change to the package can change its own inputs.
golden/out/ holds the stdout each invocation printed when the fixtures
were captured.  A mismatch means the output changed.  golden/help/ holds
the --help text of the program and of each command at COLUMNS=80, as
Python 3.11's argparse formats it; --write does not touch it.

    PYTHONPATH=src python tests/test_golden.py --write

writes only the fixtures that are missing, so adding a case never
re-pins the bytes of an existing one.  To regenerate a fixture on
purpose, for a change whose every differing byte is explained, delete
its file first.

    PYTHONPATH=src python tests/test_golden.py --floats OUT.json

runs every case with report.q9 hooked and writes, per case, the
unrounded floats the document was built from, in the order q9 saw them.

    PYTHONPATH=src python tests/test_golden.py --compare PARENT.json CHANGE.json

diffs two such files, from two source trees, value by value: per case it
prints the largest |delta| and the smallest distance of a parent value to
a 9th-digit rounding boundary, and how many floats are bit-identical.  It
exits 1 when a case's float count differs or a delta reaches its value's
rounding margin, i.e. when a printed digit could have flipped.
"""

import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import helpers
from entroscope import entropy
from entroscope.cli import main, parse_partition
from entroscope.entropy import DiagramBundle, PartitionSpec
from entroscope.linalg import PureState
from entroscope.report import load_state

GOLDEN = Path(__file__).parent / "golden"

# name -> (kind, qubits, seed)
STATES = {
    "pure4": ("pure", 4, 401),
    "pure6": ("pure", 6, 601),
    "density4": ("density", 4, 402),
    "density6": ("density", 6, 602),
}

PARTITIONS = {
    4: ("A=0;B=1;C=2,3", None),
    6: ("A=0,1;B=2,3;C=4,5", "A=0;B=1;C=2;D=3;E=4,5"),
}

# Further diagram partitions on the 4-qubit files: two parties, and a
# partial partition whose uncovered factors are traced out.
EXTRA_DIAGRAMS = {"2party": "A=0,1;B=2,3", "partial": "X=1;Y=3"}


def _state_cases():
    for name, (_, n, _) in STATES.items():
        diagram_part, audit_part = PARTITIONS[n]
        path = f"states/{name}.json"
        audit_extra = () if audit_part is None else ("--partition", audit_part)
        for fmt in ("json", "table"):
            yield f"diagram_{name}.{fmt}", (
                "diagram", "--state", path, "--partition", diagram_part, "--format", fmt)
            yield f"audit_{name}.{fmt}", (
                "audit", "--state", path, *audit_extra, "--format", fmt)
            if n == 4:
                for tag, part in EXTRA_DIAGRAMS.items():
                    yield f"diagram_{name}_{tag}.{fmt}", (
                        "diagram", "--state", path, "--partition", part, "--format", fmt)


SCENARIO_CASES = {
    "scenario_epr_measure.json": ("scenario", "epr_measure", "--theta1", "0.3",
                                  "--theta2", "1.1", "--shots", "2000", "--seed", "5"),
    "chsh_scan.json": ("chsh", "--scan", "100", "--seed", "7"),
    # One block of draws or scan points, and one past it: a blocked
    # draw must continue the stream exactly where the previous one left.
    "scenario_epr_measure_shots65536.json": ("scenario", "epr_measure", "--theta1", "0.7",
                                             "--theta2", "2.3", "--shots", "65536",
                                             "--seed", "3"),
    "scenario_epr_measure_shots65537.json": ("scenario", "epr_measure", "--theta1", "0.7",
                                             "--theta2", "2.3", "--shots", "65537",
                                             "--seed", "3"),
    "chsh_scan4097.json": ("chsh", "--scan", "4097", "--seed", "5"),
    "chsh_scan65537.json": ("chsh", "--scan", "65537", "--seed", "5"),
}

# Pinned in both formats.  The sampled and scanned runs are large enough
# that the shot counts and the scan maximum exercise many draws of the
# seeded stream; the rest cover each scenario's flag combinations.
BOTH_FORMAT_CASES = {
    "scenario_epr_pair": ("scenario", "epr_pair"),
    "scenario_chsh": ("scenario", "chsh"),
    "scenario_epr_measure_parallel": ("scenario", "epr_measure", "--theta1", "z",
                                      "--theta2", "z"),
    "scenario_epr_measure_orthogonal": ("scenario", "epr_measure", "--theta1", "z",
                                        "--theta2", "x"),
    "scenario_epr_measure_near_pi": ("scenario", "epr_measure", "--theta1", "3.14159265",
                                     "--theta2", "0"),
    "scenario_epr_measure_default_seed": ("scenario", "epr_measure", "--theta1", "0.4",
                                          "--theta2", "1.9", "--shots", "1000"),
    "scenario_epr_measure_oblique": ("scenario", "epr_measure", "--theta1", "0.7",
                                     "--theta2", "2.3", "--shots", "300000", "--seed", "11"),
    "scenario_cat": ("scenario", "cat", "--observer", "--grouping", "atom"),
    "scenario_cat_observer_atom_gamma": ("scenario", "cat", "--observer",
                                         "--grouping", "atom_gamma"),
    "scenario_cat_bare_atom": ("scenario", "cat", "--grouping", "atom"),
    "scenario_cat_bare_atom_gamma": ("scenario", "cat", "--grouping", "atom_gamma"),
    "chsh_scan_large": ("chsh", "--scan", "10000", "--seed", "13"),
    "chsh_angles_scan1": ("chsh", "--angles", "0.1,0.2,0.3,0.4", "--scan", "1"),
    "chsh_angles_aliases": ("chsh", "--angles", "z,x,0.5,2"),
    "chsh_angles_within": ("chsh", "--angles", "0,0,0,0"),
    # Angles outside [0, pi), which the report normalises to their axis,
    # and a shot count far below one draw block.
    "scenario_epr_measure_wrapped": ("scenario", "epr_measure", "--theta1", "-0.3",
                                     "--theta2", "4.0", "--shots", "1000", "--seed", "5"),
    "scenario_epr_measure_tiny_negative": ("scenario", "epr_measure", "--theta1=-1e-3",
                                           "--theta2", "x", "--shots", "7"),
    "chsh_angles_wrapped": ("chsh", "--angles=-0.5,7,0.1,-3"),
}

CASES = dict(_state_cases())
CASES.update({name: argv + ("--format", "json") for name, argv in SCENARIO_CASES.items()})
CASES.update({
    f"{name}.{fmt}": argv + ("--format", fmt)
    for name, argv in BOTH_FORMAT_CASES.items()
    for fmt in ("json", "table")
})


def _state_text(kind: str, n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    d = 2**n
    if kind == "pure":
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        data = g / np.linalg.norm(g)
    else:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2.0
        data = (rho / np.trace(rho).real).reshape(-1)
    pairs = [[float(z.real), float(z.imag)] for z in data]
    return json.dumps({"kind": kind, "dims": [2] * n, "data": pairs}) + "\n"


def _run(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, monkeypatch):
    monkeypatch.delenv("ENTROSCOPE_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code, out, err = _run(CASES[name])
    assert code == 0, err
    assert out == (GOLDEN / "out" / f"{name}.txt").read_text()


@pytest.mark.parametrize("command", ["entroscope", "scenario", "diagram", "chsh", "audit"])
def test_help_matches_golden(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at COLUMNS - 2
    argv = ("--help",) if command == "entroscope" else (command, "--help")
    assert _run(argv) == (0, (GOLDEN / "help" / f"{command}.txt").read_text(), "")


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".table")))
def test_golden_table_values_line_up_under_their_header(name):
    # In each two-column block (joints, atoms, orthodox atoms) every value
    # starts at the header's second-column offset, however short the labels.
    lines = (GOLDEN / "out" / f"{name}.txt").read_text().splitlines()
    for i, head in enumerate(lines):
        m = re.fullmatch(r"(subset|region) +((entropy|atom) \(bits\))", head)
        if m is None:
            continue
        rows = 0
        for row in lines[i + 1:]:
            parts = row.split()
            if len(parts) != 2 or not re.fullmatch(r"[+-]?\d+\.\d{9}", parts[1]):
                break
            assert len(row) - len(parts[1]) == m.start(2), f"{name}: {row!r} under {head!r}"
            rows += 1
        assert rows, f"{name}: no rows under {head!r}"


# The distinct (state file, partition) pairs the diagram and audit cases
# run, in case order; None is audit's default of one party per factor.
STATE_PAIRS = list(dict.fromkeys(
    (opts["--state"], opts.get("--partition"))
    for opts in (dict(zip(argv[1::2], argv[2::2])) for argv in CASES.values())
    if "--state" in opts
))


def _jacobi_entropy(matrix) -> float:
    lam = helpers.jacobi_eig(matrix)[0]
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


@pytest.mark.parametrize(
    "path, partition", STATE_PAIRS,
    ids=[f"{Path(path).stem}-{part or 'default'}" for path, part in STATE_PAIRS],
)
def test_state_diagram_clears_rounding_margins(path, partition):
    # Every joint, atom and worst slack a state-file document prints must be
    # closer to an independent oracle's value than to the nearest 9th-digit
    # rounding boundary, so the golden bytes do not rest on the library's
    # own round-off.  Oracle: explicit-loop partial traces, Jacobi spectra,
    # a dense Mobius solve and the brute-force bitmask audit.
    state = load_state(GOLDEN / path)
    if partition is None:  # the audit command's default
        spec = PartitionSpec(tuple((f"F{i}", frozenset({i})) for i in range(state.num_factors)))
    else:
        spec = parse_partition(partition)
    bundle = DiagramBundle.of(state, spec)

    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    joints = {
        subset: _jacobi_entropy(helpers.brute_partial_trace(
            rho, state.dims, [f for name in subset for f in bundle.factors[name]]))
        for subset in bundle.joints
    }
    atoms = helpers.venn_atoms_solve(joints)
    _, *slacks = helpers.audit_oracle(joints)

    audit = bundle.audit
    checks = [("joint", k, v, joints[k]) for k, v in bundle.joints.items()]
    checks += [("atom", k, v, atoms[k]) for k, v in bundle.atoms.items()]
    for name, oracle in zip(("subadditivity", "triangle", "strong_subadditivity"), slacks):
        value = getattr(audit, f"{name}_worst_slack")
        assert (value is None) == (oracle is None), name
        if value is not None:
            checks.append(("worst slack", name, value, oracle))
    too_far = [
        (what, key, value, oracle) for what, key, value, oracle in checks
        if not abs(value - oracle) < helpers.rounding_margin(value)
    ]
    assert not too_far, too_far


def _joints_only(argv) -> tuple:
    """argv without the flags that leave every joint entropy as it is."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in ("--shots", "--seed", "--format"):
            skip = True
        else:
            out.append(arg)
    return tuple(out)


# Every golden invocation whose joints are a pure state's: diagram and audit
# on the pure files, and each scenario but chsh, which computes none.
PURE_JOINT_CASES = list(dict.fromkeys(
    _joints_only(argv) for argv in CASES.values()
    if any("pure" in a for a in argv) or argv[:2] in (("scenario", "epr_pair"),
                                                      ("scenario", "epr_measure"),
                                                      ("scenario", "cat"))
))


@pytest.mark.parametrize("argv", PURE_JOINT_CASES, ids=[" ".join(a) for a in PURE_JOINT_CASES])
def test_pure_joints_clear_rounding_margins_against_40_digits(argv, monkeypatch):
    # Every joint the document is built from lies closer to its 40-digit
    # value than to the nearest 9th-digit rounding boundary.
    seen = []
    grouped = entropy.grouped_entropies

    def hook(state, partition):
        joints = grouped(state, partition)
        seen.append((state, partition, joints))
        return joints

    monkeypatch.setattr(entropy, "grouped_entropies", hook)
    monkeypatch.delenv("ENTROSCOPE_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run(argv)
    assert code == 0, err
    assert seen
    for state, partition, joints in seen:
        assert isinstance(state, PureState)
        helpers.assert_joints_match_reference(state, joints, partition.factors_of)


@pytest.mark.parametrize("name, dtype", [
    ("scenario_epr_pair.json", np.float64),
    ("scenario_epr_measure_oblique.json", np.float64),
    ("scenario_cat.json", np.float64),
    ("diagram_pure6.json", np.complex128),
    ("audit_density6.json", np.complex128),
])
def test_real_states_take_the_real_eigensolver(name, dtype, monkeypatch):
    # The paper's states and premeasurements in the x-z plane are real, so
    # every spectrum a scenario takes is of a real matrix, and only the real
    # LAPACK solver runs; the seeded state files are complex throughout.
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.delenv("ENTROSCOPE_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code, _, err = _run(CASES[name])
    assert code == 0, err
    assert seen and set(seen) == {np.dtype(dtype)}


# One command per golden family, each the largest of its kind.
LADDER_CASES = ["scenario_epr_measure_oblique.json", "scenario_cat.json", "chsh_scan_large.json",
                "diagram_pure6.json", "audit_density6.json"]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("megabytes", [55, 140, 200, 400])
@pytest.mark.parametrize("name", LADDER_CASES)
def test_golden_stdout_or_one_line_under_an_address_space_cap(name, megabytes):
    # The cap is set in the child only.  Each run ends as it does with no
    # cap, or in one stderr line and exit 2; below 140 MB OpenBLAS can fail
    # its own allocation, print its own line and exit 1 (see the README).
    # At 55 MB numpy's own import fails first, and the line names why.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes * 2**20, megabytes * 2**20))

    env = {k: v for k, v in os.environ.items() if k != "ENTROSCOPE_SEED"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(Path(entropy.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "entroscope", *CASES[name]], cwd=GOLDEN, env=env,
                         capture_output=True, text=True, timeout=120, preexec_fn=cap)
    if res.returncode == 0:
        assert (res.stdout, res.stderr) == ((GOLDEN / "out" / f"{name}.txt").read_text(), "")
    else:
        assert (res.returncode, res.stdout, res.stderr.count("\n")) == (2, "", 1), res.stderr
        if res.stderr.startswith("error: cannot import "):
            assert re.fullmatch(r"error: cannot import (a module|[\w.]+): \S.*\n", res.stderr), res.stderr


def _write() -> None:
    os.environ.pop("ENTROSCOPE_SEED", None)
    (GOLDEN / "states").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "out").mkdir(parents=True, exist_ok=True)
    for name, spec in STATES.items():
        path = GOLDEN / "states" / f"{name}.json"
        if not path.exists():  # inputs stay fixed once written
            path.write_text(_state_text(*spec))
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        path = GOLDEN / "out" / f"{name}.txt"
        if path.exists():  # fixtures stay fixed once written; delete to re-pin
            continue
        code, out, err = _run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err}")
        path.write_text(out)


def _floats(out: str) -> None:
    from entroscope import report

    out_path = Path(out).resolve()
    q9, seen = report.q9, []

    def hook(x):
        seen.append(float(x))
        return q9(x)

    report.q9 = hook
    os.environ.pop("ENTROSCOPE_SEED", None)
    os.chdir(GOLDEN)
    floats = {}
    for name, argv in sorted(CASES.items()):
        seen.clear()
        code, _, err = _run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err}")
        floats[name] = list(seen)
    out_path.write_text(json.dumps(floats, indent=1) + "\n")


def _compare(parent: str, change: str) -> int:
    old = json.loads(Path(parent).read_text())
    new = json.loads(Path(change).read_text())
    failed = False
    total = same = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        if len(a) != len(b):
            print(f"{name}: {len(a)} floats at the parent, {len(b)} at the change")
            failed = True
            continue
        deltas = [abs(x - y) for x, y in zip(a, b)]
        margins = [helpers.rounding_margin(x) for x in a]
        flips = sum(1 for d, m in zip(deltas, margins) if d and d >= m)
        total += len(a)
        same += sum(x.hex() == y.hex() for x, y in zip(a, b))
        line = (f"{name}: {len(a)} floats, max |delta| {max(deltas, default=0.0):.3g}, "
                f"smallest margin {min(margins, default=float('inf')):.3g}")
        print(line + (f", {flips} reach their margin" if flips else ""))
        failed = failed or flips > 0
    print(f"{same} of {total} floats bit-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        _write()
    elif len(args) == 2 and args[0] == "--floats":
        _floats(args[1])
    elif len(args) == 3 and args[0] == "--compare":
        raise SystemExit(_compare(args[1], args[2]))
    else:
        raise SystemExit(__doc__)
