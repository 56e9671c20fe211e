import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import random_density
from entroscope import (
    DensityOperator, _pcg64, cli, entropy, epr_singlet, ghz, measurement, scenarios,
)
from entroscope.cli import main
from entroscope.measurement import MAX_SHOTS
from entroscope._statefile import MAX_DENSE_DIM, serialize_state


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("ENTROSCOPE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "entroscope", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_scenario_epr_pair_json():
    res = run_cli("scenario", "epr_pair", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    atoms = doc["diagram"]["atoms"]
    assert atoms["L"] == -1.0
    assert atoms["R"] == -1.0
    assert atoms["L,R"] == 2.0


def test_scenario_json_is_byte_stable():
    a = run_cli("scenario", "epr_pair", "--format", "json")
    b = run_cli("scenario", "epr_pair", "--format", "json")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_angle_aliases_match_radians():
    named = run_cli("scenario", "epr_measure", "--theta1", "z", "--theta2", "x",
                    "--format", "json")
    numeric = run_cli("scenario", "epr_measure", "--theta1", "0",
                      "--theta2", repr(math.pi / 2), "--format", "json")
    assert named.returncode == 0 and numeric.returncode == 0
    assert named.stdout == numeric.stdout


def test_epr_measure_table_shows_device_mutual():
    res = run_cli("scenario", "epr_measure", "--theta1", "0",
                  "--theta2", "1.5707963", "--format", "table")
    assert res.returncode == 0
    mutual_row = [ln for ln in res.stdout.splitlines() if ln.startswith("A1:A2 ")]
    assert mutual_row and "0.000000000" in mutual_row[0]


def test_chsh_default_output():
    res = run_cli("chsh")
    assert res.returncode == 0
    assert "2.828427125" in res.stdout
    assert "violates classical bound 2" in res.stdout


def test_chsh_explicit_angles_json():
    res = run_cli("chsh", "--angles", "z,x,0.785398163397448,2.35619449019234",
                  "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["chsh"]["abs_value"] == pytest.approx(2.828427125, abs=1e-9)


def test_validation_failures_exit_2():
    res = run_cli("scenario", "epr_measure", "--theta1", "bogus")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "bad angle" in res.stderr

    res = run_cli("scenario", "unknown_scenario")
    assert res.returncode == 2

    res = run_cli("nonsense_command")
    assert res.returncode == 2


def test_seed_env_variable_is_default(tmp_path):
    with_env = run_cli("scenario", "epr_measure", "--theta1", "0", "--theta2", "0",
                       "--shots", "20", "--format", "json",
                       env_extra={"ENTROSCOPE_SEED": "77"})
    assert with_env.returncode == 0
    assert json.loads(with_env.stdout)["seed"] == 77

    flag = run_cli("scenario", "epr_measure", "--theta1", "0", "--theta2", "0",
                   "--shots", "20", "--seed", "77", "--format", "json")
    assert flag.stdout == with_env.stdout

    bad = run_cli("scenario", "epr_pair", env_extra={"ENTROSCOPE_SEED": "many"})
    assert bad.returncode == 2


def test_diagram_subcommand(tmp_path):
    path = tmp_path / "ghz3.json"
    path.write_text(serialize_state(ghz(3)))
    res = run_cli("diagram", "--state", str(path), "--partition", "A=0;B=1;C=2",
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["diagram"]["atoms"]["A,B,C"] == 0.0
    assert doc["diagram"]["atoms"]["A"] == -1.0
    assert doc["ternary_center"] == 0.0

    missing = run_cli("diagram", "--state", str(path))
    assert missing.returncode == 2  # --partition is required


def test_audit_subcommand(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(serialize_state(random_density((2, 2), seed=5)))
    res = run_cli("audit", "--state", str(path), "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["diagram"]["audit"]["subadditivity_ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "density", "dims": [2],
        "data": [[0.49, 0.0], [0.0, 0.0], [0.0, 0.0], [0.49, 0.0]],
    }))
    res = run_cli("audit", "--state", str(bad))
    assert res.returncode == 2
    assert "trace" in res.stderr


def test_hermitian_deviations_do_not_add_up_in_a_partial_trace(tmp_path, capsys, monkeypatch):
    # each off-diagonal pair is 0.9e-12 from Hermitian, inside the tolerance;
    # tracing out the second qubit used to add two of them up to 1.8e-12
    rho = np.diag([0.25 + 0j] * 4)
    rho[0, 2] = rho[2, 0] = rho[1, 3] = rho[3, 1] = 0.1
    rho[0, 2] += 0.9e-12
    rho[1, 3] += 0.9e-12
    data = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    (tmp_path / "rho.json").write_text(json.dumps({"kind": "density", "dims": [2, 2], "data": data}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, "audit", "--state", "rho.json")
    assert (code, err) == (0, "")


def test_scenario_table_epr_singlet_rows():
    res = run_cli("scenario", "epr_pair")
    assert res.returncode == 0
    assert "L|R" in res.stdout and "-1.000000000" in res.stdout


def run_main(capsys, *args):
    """In-process CLI call: (exit code, stdout, stderr)."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_entries_exit_2(tmp_path, capsys, monkeypatch, kind, fmt, bad):
    if kind == "pure":
        data = [[bad, 0.0], [1.0, 0.0]]
    else:  # the NaN or Inf sits in a Hermitian pair of off-diagonals
        data = [[0.5, 0.0], [bad, 0.0], [bad, 0.0], [0.5, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind, "dims": [2], "data": data}))
    monkeypatch.chdir(tmp_path)
    for command in (("audit", "--state", "bad.json"),
                    ("diagram", "--state", "bad.json", "--partition", "A=0")):
        code, out, err = run_main(capsys, *command, "--format", fmt)
        assert code == 2, err
        assert out == ""
        assert "NaN or infinite" in err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_non_finite_angles_exit_2(capsys, fmt, token):
    for args in (("chsh", f"--angles={token},0,0,0"),
                 ("scenario", "epr_measure", f"--theta1={token}", "--theta2", "z")):
        code, out, err = run_main(capsys, *args, "--format", fmt)
        assert code == 2, err
        assert out == ""
        assert "bad angle" in err


@pytest.mark.parametrize("args", [
    ("chsh", "--scan", "3", "--seed", "-3"),
    ("scenario", "epr_measure", "--theta1", "z", "--theta2", "z", "--shots", "10", "--seed", "-1"),
    ("scenario", "epr_pair", "--seed", "-1"),
])
def test_negative_seed_flag_exits_2(capsys, args):
    code, out, err = run_main(capsys, *args)
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


def test_negative_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ENTROSCOPE_SEED", "-3")
    for args in (("chsh", "--scan", "3"),
                 ("scenario", "epr_measure", "--theta1", "z", "--theta2", "z", "--shots", "10")):
        code, out, err = run_main(capsys, *args)
        assert code == 2
        assert out == ""
        assert "ENTROSCOPE_SEED='-3' is not a non-negative integer" in err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("shots", [10**15, 10**24])
def test_unallocatable_shots_exit_2(capsys, fmt, shots):
    # both are over MAX_SHOTS, so they fail before anything is allocated
    code, out, err = run_main(capsys, "scenario", "epr_measure", "--theta1", "z",
                              "--theta2", "x", "--shots", str(shots), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: {shots} shots are too many to hold in memory\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_shots_over_the_cap_exit_2_before_drawing(capsys, monkeypatch, fmt):
    # 10**9 + 1 bytes of records could be allocated, and a larger count
    # might pass np.empty and then be killed for memory; the cap comes first
    def no_draw(*args, **kwargs):
        raise AssertionError("drawing started")

    monkeypatch.setattr(_pcg64, "uniforms", no_draw)
    shots = MAX_SHOTS + 1
    code, out, err = run_main(capsys, "scenario", "epr_measure", "--theta1", "z",
                              "--theta2", "x", "--shots", str(shots), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: {shots} shots are too many to hold in memory\n"


class GatePassed(Exception):
    pass


def _peak_until_gate_passed(*args) -> int:
    """Run main until a patched step just past a cap check raises
    GatePassed; return the peak bytes tracemalloc saw on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(GatePassed):
            main(list(args))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_shots_one_below_the_cap_pass_the_gate_before_drawing(monkeypatch, fmt):
    # the draw's first step raises, so the run stops before the byte per
    # shot of records (about 1 GB here) is allocated
    def gate_passed(*args, **kwargs):
        raise GatePassed

    monkeypatch.setattr(measurement, "outcome_probabilities", gate_passed)
    peak = _peak_until_gate_passed("scenario", "epr_measure", "--theta1", "z", "--theta2", "x",
                                   "--shots", str(MAX_SHOTS - 1), "--format", fmt)
    assert peak < 2**20, f"peaked at {peak} bytes before drawing"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_scan_one_below_the_cap_passes_the_gate(monkeypatch, fmt):
    # the canonical angle set is evaluated as usual; the first scan block raises
    evaluate = scenarios.chsh_values

    def single_set_only(quads):
        if len(quads) > 1:
            raise GatePassed
        return evaluate(quads)

    monkeypatch.setattr(scenarios, "chsh_values", single_set_only)
    peak = _peak_until_gate_passed("chsh", "--scan", str(scenarios.MAX_SCAN_POINTS - 1),
                                   "--format", fmt)
    assert peak < 2**20, f"peaked at {peak} bytes before the first scan block"


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args, stray", [
    (("epr_pair", "--shots", "5", "--theta1", "z"), "--theta1, --shots"),
    (("epr_pair", "--shots", "0"), "--shots"),
    (("epr_pair", "--observer"), "--observer"),
    (("chsh", "--grouping", "atom_gamma"), "--grouping"),
    (("chsh", "--theta1", "0", "--theta2", "0"), "--theta1, --theta2"),
    (("cat", "--observer", "--theta2", "x"), "--theta2"),
    (("cat", "--shots", "10"), "--shots"),
    (("epr_measure", "--theta1", "z", "--theta2", "x", "--grouping", "atom", "--observer"),
     "--grouping, --observer"),
])
def test_scenario_flags_that_do_not_apply_exit_2(capsys, fmt, args, stray):
    code, out, err = run_main(capsys, "scenario", *args, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: scenario {args[0]} does not use {stray}\n"


_HUGE_INT = "1" + "0" * 400  # a valid JSON integer, too large for a float


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{"kind": "pure"}', "not UTF-8 text: invalid start byte at byte 0"),
    # past 64 KiB the offset still counts from the start of the file
    (b" " * 70_000 + b"\xff", "not UTF-8 text: invalid start byte at byte 70000"),
    (f'{{"kind": "pure", "dims": [2], "data": [[{_HUGE_INT}, 0], [0, 0]]}}'.encode(),
     "data[0]: number too large for a float"),
    (b'{"kind": "pure", "dims": [2], "data": [[true, false], [0, 0]]}', "data[0]: expected [re, im]"),
    (b'{"kind": "pure", "dims": [true, 2], "data": [[1, 0], [0, 0]]}',
     "dims: expected a nonempty list of integers"),
    # a negative dim once reached the data-length message, whose d * d
    # had too many digits to print: a ValueError traceback
    (f'{{"kind": "density", "dims": [-{"1" * 2200}], "data": []}}'.encode(),
     "dims: expected a nonempty list of integers >= 2"),
    (f'{{"kind": "pure", "dims": [2], "data": [[1{"0" * 5000}, 0]]}}'.encode(), "invalid JSON: "),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: "),
])
def test_malformed_state_files_exit_2(tmp_path, capsys, monkeypatch, fmt, content, message):
    (tmp_path / "bad.json").write_bytes(content)
    monkeypatch.chdir(tmp_path)
    for command in (("audit", "--state", "bad.json"),
                    ("diagram", "--state", "bad.json", "--partition", "A=0")):
        code, out, err = run_main(capsys, *command, "--format", fmt)
        assert code == 2, err
        assert out == ""
        assert err.startswith(f"error: bad.json: {message}") and err.count("\n") == 1


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10**400, -(10**400)]) | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def state_documents(draw):
    """Mostly well-formed state documents: small dims, data of the right
    length (a valid state scaled, or random numbers), now and then one
    field replaced by any JSON value."""
    kind = draw(st.sampled_from(["pure", "density"]))
    dims = draw(st.lists(st.sampled_from([2, 2, 2, 3, 1, 0]), min_size=1, max_size=3)
                .filter(lambda ds: math.prod(ds) <= 8))
    d = max(math.prod(dims), 1)
    if draw(st.integers(0, 3)):
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if kind == "pure":
            flat = g[0] / np.linalg.norm(g[0])
        else:
            rho = g @ g.conj().T
            flat = (rho / np.trace(rho).real).reshape(-1)
        if not draw(st.integers(0, 2)):
            # an inf or huge scale makes non-finite entries on purpose; the
            # loader, not numpy's warning, has to refuse them
            with np.errstate(over="ignore", invalid="ignore"):
                flat = flat * draw(st.floats(allow_nan=False))
        data = [[float(z.real), float(z.imag)] for z in flat]
    else:
        n = d if kind == "pure" else d * d
        number = st.floats() | st.integers(-2, 2) | st.booleans()
        data = draw(st.lists(st.lists(number, min_size=2, max_size=2), min_size=n, max_size=n))
    doc = {"kind": kind, "dims": dims, "data": data}
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_quietly(argv) -> tuple[int, str, str]:
    """main(argv) in process, every warning an error: (exit code, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _no_constants(name):
    raise AssertionError(f"{name} in the JSON output")


def _ends_cleanly(argv) -> tuple[int, str]:
    """Exit 0 with finite numbers, or 1 or 2 with a one-line message; no
    exception and no warning escapes.  Returns the exit code and stderr."""
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if argv[-1] == "json":
            json.loads(out, parse_constant=_no_constants)  # NaN and Infinity
        else:
            assert not re.search(r"\b(nan|inf)\b", out)
    else:
        assert out == ""
        assert err.count("\n") == 1
    return code, err


def _same_in_both_formats(argv) -> int:
    """_ends_cleanly on the json run; the table run ends with the same exit
    code and stderr.  Only the JSON is searched for non-finite numbers: the
    table renders the same document, and a party name may spell nan."""
    code, err = _ends_cleanly([*argv, "--format", "json"])
    table_code, table_out, table_err = _run_quietly([*argv, "--format", "table"])
    assert (table_code, table_err) == (code, err)
    assert (table_out == "") == (code != 0)
    event(f"exit {code}")
    return code


def _audit_ends_cleanly(path, content: bytes, fmt: str) -> None:
    path.write_bytes(content)
    _ends_cleanly(["audit", "--state", str(path), "--format", fmt])


@settings(max_examples=150, deadline=None)
@given(content=st.binary(max_size=64), fmt=st.sampled_from(["json", "table"]))
def test_fuzz_random_bytes_as_state_file(fuzz_dir, content, fmt):
    _audit_ends_cleanly(fuzz_dir / "state.json", content, fmt)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(state_documents(), state_documents(), _JSON_VALUES), fmt=st.sampled_from(["json", "table"]))
def test_fuzz_random_json_as_state_file(fuzz_dir, doc, fmt):
    _audit_ends_cleanly(fuzz_dir / "state.json", json.dumps(doc).encode(), fmt)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("partition", ["A=0;B=1;A,B=2,3", "A:B=0;C=1,2,3", "A|B=0,1;C=2,3"])
def test_party_names_with_separators_exit_2(tmp_path, capsys, monkeypatch, fmt, partition):
    # "A,B" used to collide with the subset key of A and B: exit 0 with
    # one of the seven joints silently dropped from the JSON map
    (tmp_path / "ghz4.json").write_text(serialize_state(ghz(4)))
    monkeypatch.chdir(tmp_path)
    for command in ("diagram", "audit"):
        code, out, err = run_main(capsys, command, "--state", "ghz4.json",
                                  "--partition", partition, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: party name ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_scan_over_the_cap_exits_2(capsys, monkeypatch, fmt):
    def no_scan(quads):
        raise AssertionError("the scan started")

    monkeypatch.setattr(scenarios, "chsh_values", no_scan)
    points = 10**17
    code, out, err = run_main(capsys, "chsh", "--scan", str(points), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: scan points must be <= {scenarios.MAX_SCAN_POINTS}, got {points}\n"


@pytest.mark.parametrize("args", [
    ("diagram", "--partition", "A=0;B=1"),
    ("audit",),
    ("audit", "--partition", "A=1"),
])
def test_state_commands_load_and_check_the_file_once(tmp_path, capsys, monkeypatch, args):
    (tmp_path / "rho.json").write_text(serialize_state(random_density((2, 2), seed=5)))
    monkeypatch.chdir(tmp_path)
    loads, checks = [], []
    load_state, validate_psd = cli.load_state, DensityOperator.validate_psd
    monkeypatch.setattr(cli, "load_state", lambda path: loads.append(path) or load_state(path))
    monkeypatch.setattr(DensityOperator, "validate_psd",
                        lambda self: checks.append(self) or validate_psd(self))
    code, out, err = run_main(capsys, args[0], "--state", "rho.json", *args[1:])
    assert code == 0, err
    assert loads == ["rho.json"]
    assert len(checks) == 1


class DenseWorkStarted(Exception):
    pass


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_oversize_state_file_exits_2_before_any_dense_work(tmp_path, capsys, monkeypatch, fmt):
    # a 16-qubit pure file used to end in a MemoryError traceback from
    # to_density; the gate reads only dims, so nothing large is allocated.
    # A pure state's first allocation past the reader is its first Gram.
    def no_gram(psi, factors):
        raise DenseWorkStarted

    monkeypatch.setattr(entropy, "_schmidt_gram", no_gram)
    parsed = []  # every text json parses, whole or a chunk at a time
    raw_decode = json.JSONDecoder.raw_decode
    monkeypatch.setattr(json.JSONDecoder, "raw_decode",
                        lambda self, s, idx=0: parsed.append(s) or raw_decode(self, s, idx))
    monkeypatch.chdir(tmp_path)
    for qubits in (12, 13):
        data = [[1.0, 0.0]] + [[0.0, 0.0]] * (2**qubits - 1)
        doc = {"kind": "pure", "dims": [2] * qubits, "data": data}
        (tmp_path / f"q{qubits}.json").write_text(json.dumps(doc))
    assert 2**12 == MAX_DENSE_DIM
    for command in ("diagram", "audit"):
        with pytest.raises(DenseWorkStarted):  # the limit itself passes the gate
            main([command, "--state", "q12.json", "--partition", "A=0;B=1", "--format", fmt])
        capsys.readouterr()
        parsed.clear()
        code, out, err = run_main(capsys, command, "--state", "q13.json",
                                  "--partition", "A=0;B=1", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: q13.json: dims: total dimension is over the limit of {MAX_DENSE_DIM}\n"
        assert parsed and not any("[0.0, 0.0]" in text for text in parsed), "data was parsed"


def test_long_dims_lists_are_refused_without_their_product(tmp_path, capsys, monkeypatch):
    # 400,000 twos (1.2 MB) took 4.6 s to refuse: math.prod multiplied ever
    # longer ints.  Every dim is >= 2, so a list with as many factors as the
    # cap has bits is over the limit without its product.
    prod = math.prod

    def short_prod(factors, **kwargs):
        assert len(factors) < MAX_DENSE_DIM.bit_length(), f"a product of {len(factors)} factors"
        return prod(factors, **kwargs)

    monkeypatch.setattr(math, "prod", short_prod)
    monkeypatch.chdir(tmp_path)
    dims, data = [2] * 400_000, [[1.0, 0.0], [0.0, 0.0]]
    texts = {  # the chunked reader's header gate and the whole-document path
        "canonical.json": json.dumps({"kind": "pure", "dims": dims, "data": data}) + "\n",
        "reordered.json": json.dumps({"data": data, "dims": dims, "kind": "pure"}),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        code, out, err = run_main(capsys, "audit", "--state", name)
        assert (code, out) == (2, "")
        assert err == f"error: {name}: dims: total dimension is over the limit of {MAX_DENSE_DIM}\n"


class ReadStarted(Exception):
    pass


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_state_file_over_the_size_bound_exits_2_before_any_read(tmp_path, capsys, monkeypatch, fmt):
    # no canonical density file at MAX_DENSE_DIM is larger than MAX_BYTES;
    # a larger one used to be read whole, and under a memory limit ended in
    # a MemoryError traceback
    from entroscope._statefile import MAX_BYTES

    def no_read(*args, **kwargs):
        raise ReadStarted

    monkeypatch.chdir(tmp_path)
    for name, size in (("limit.json", MAX_BYTES), ("over.json", MAX_BYTES + 1)):
        with open(name, "wb"):
            pass
        os.truncate(name, size)  # sparse: no disk space is used
    monkeypatch.setattr(Path, "open", no_read)
    monkeypatch.setattr(Path, "read_text", no_read)
    with pytest.raises(ReadStarted):  # the bound itself passes
        main(["audit", "--state", "limit.json", "--format", fmt])
    code, out, err = run_main(capsys, "audit", "--state", "over.json", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: over.json: file size is over the limit of {MAX_BYTES} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_an_unsized_input_is_refused_at_the_size_bound(fmt):
    # /dev/zero reports st_size 0 and never ends, and was read until memory
    # ran out; the child's address space is capped so a regression fails
    # here instead of exhausting the host
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    code = ("import sys\n"
            "from entroscope import _statefile\n"
            "_statefile.MAX_BYTES = 2**16\n"
            "from entroscope.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    res = subprocess.run(
        [sys.executable, "-c", code, "diagram", "--state", "/dev/zero", "--partition", "A=0",
         "--format", fmt],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
    )
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: /dev/zero: file size is over the limit of {2**16} bytes\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("step", ["read", "chunked parse", "whole parse"])
def test_memory_error_while_loading_exits_2_with_one_line(tmp_path, capsys, monkeypatch, step):
    from entroscope import _statefile

    text = serialize_state(random_density((2, 2), seed=5))
    if step == "whole parse":  # another layout, read whole
        text = json.dumps(json.loads(text), indent=2)
    (tmp_path / "rho.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    target = {"read": (Path, "open"), "chunked parse": (_statefile, "read_canonical"),
              "whole parse": (json, "loads")}[step]
    monkeypatch.setattr(*target, _out_of_memory)
    code, out, err = run_main(capsys, "audit", "--state", "rho.json")
    assert (code, out, err) == (2, "", "error: rho.json: too large to load into memory\n")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("target, args", [
    ((DensityOperator, "validate_psd"), ("audit", "--state", "rho.json")),
    ((entropy, "partial_trace"), ("diagram", "--state", "rho.json", "--partition", "A=0;B=1")),
    ((scenarios, "premeasure"), ("scenario", "epr_measure", "--theta1", "z", "--theta2", "x")),
    ((scenarios, "chsh_values"), ("chsh",)),
], ids=["audit-validate_psd", "diagram-partial_trace", "epr_measure-premeasure", "chsh"])
def test_memory_error_past_the_reader_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                           fmt, target, args):
    # the reader names the file it could not load; a MemoryError in the
    # checks or the analysis after it ended in a traceback
    (tmp_path / "rho.json").write_text(serialize_state(random_density((2, 2), seed=5)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*target, _out_of_memory)
    assert run_main(capsys, *args, "--format", fmt) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_negative_marginal_past_the_clamp_exits_1(tmp_path, capsys, monkeypatch, fmt):
    # each negative eigenvalue is inside the PSD clamp window, so the file
    # loads; the first qubit's marginal sums two of them to -1.8e-10
    rho = DensityOperator(np.diag([0.5, 0.5 + 1.8e-10, -0.9e-10, -0.9e-10]).astype(complex), (2, 2))
    (tmp_path / "rho.json").write_text(serialize_state(rho))
    monkeypatch.chdir(tmp_path)
    assert run_main(capsys, "audit", "--state", "rho.json", "--format", fmt) == (
        1, "", "numerical fault: eigenvalue -1.800e-10 below the PSD clamp window -1e-10: "
               "non-physical state or numerical fault\n")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_audit_without_a_partition_caps_the_factor_count(tmp_path, capsys, monkeypatch, fmt):
    (tmp_path / "ghz6.json").write_text(serialize_state(ghz(6)))
    monkeypatch.chdir(tmp_path)
    assert run_main(capsys, "audit", "--state", "ghz6.json", "--format", fmt) == (
        2, "", "error: state has 6 factors; pass --partition to group them into at most 5 parties\n")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args, message", [
    (("chsh", "--scan", "abc"), "argument --scan: invalid int value: 'abc'"),
    (("diagram", "--partition", "A=0"), "the following arguments are required: --state"),
    (("audit",), "the following arguments are required: --state"),
    (("scenario", "epr_pair", "--bogus"), "unrecognized arguments: --bogus"),
    (("scenario", "epr_measure", "--theta1"), "argument --theta1: expected one argument"),
    (("scenario", "bell"), "argument scenario_id: invalid choice: "),
    (("scenario", "cat", "--grouping", "photon"), "argument --grouping: invalid choice: "),
])
def test_argparse_errors_are_one_line(capsys, fmt, args, message):
    # no usage dump: one "error: " line, as for every other bad input
    code, out, err = run_main(capsys, *args, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (("scenario", "epr_pair", "--format", "xml"), "argument --format: invalid choice: "),
    (("chsh", "--format"), "argument --format: expected one argument"),
    ((), "the following arguments are required: command"),
    (("nonsense_command",), "argument command: invalid choice: "),
])
def test_argparse_errors_outside_a_format_are_one_line(capsys, args, message):
    code, out, err = run_main(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_mistyped_top_level_flag_is_named(capsys, fmt):
    # argparse reported the missing command, or took the format for it
    for args in (("--vers",), ("--vers", "--format", fmt)):
        assert run_main(capsys, *args) == (2, "", "error: unrecognized arguments: --vers\n")


@pytest.mark.parametrize("args", [("--help",), ("scenario", "-h"), ("chsh", "--help")])
def test_help_goes_to_stdout_with_exit_0(capsys, args):
    code, out, err = run_main(capsys, *args)
    assert code == 0
    assert out.startswith("usage: entroscope")
    assert err == ""


def test_version_goes_to_stdout_with_exit_0(capsys):
    from entroscope import __version__

    assert run_main(capsys, "--version") == (0, f"entroscope {__version__}\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ("scenario", "epr_pair", "--format", "json"),
    ("scenario", "epr_pair", "--format", "table"),
    ("--version",),
])
def test_output_that_cannot_be_written_exits_2_with_one_line(args, buffered):
    # a full disk printed a traceback and exited 1, and --version exited 0
    # with its line lost; a buffered stdout fails at the flush, an
    # unbuffered one at the write
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "ENTROSCOPE_SEED")}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "entroscope", *args], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (res.returncode, res.stderr) == (2, "error: cannot write output: No space left on device\n")


def _stream_gone(fd: int, how: str):
    """A preexec_fn that closes fd, or leaves it open on the null device for
    reading only, as a shell's 2>&- can when a launcher script lands on it."""
    def gone():
        if how == "closed":
            os.close(fd)
        else:
            os.dup2(os.open(os.devnull, os.O_RDONLY), fd)
    return gone


def _run_with_stream_gone(fd, how, *args):
    env = {k: v for k, v in os.environ.items() if k != "ENTROSCOPE_SEED"}
    pipes = {"stdout": subprocess.PIPE} if fd == 2 else {"stderr": subprocess.PIPE}
    return subprocess.run([sys.executable, "-m", "entroscope", *args], text=True, env=env,
                          timeout=120, preexec_fn=_stream_gone(fd, how), **pipes)


@pytest.mark.parametrize("how", ["closed", "read-only"])
@pytest.mark.parametrize("args", [
    ("scenario", "epr_pair", "--format", "json"),
    ("scenario", "epr_pair", "--format", "table"),
    ("--version",),
])
def test_a_stdout_that_is_gone_exits_2_with_one_line(args, how):
    # a closed stdout exited 0 with nothing written, and --version sent its
    # line to stderr instead
    res = _run_with_stream_gone(1, how, *args)
    assert (res.returncode, res.stderr) == (2, "error: cannot write output: Bad file descriptor\n")


@pytest.mark.parametrize("how", ["closed", "read-only"])
@pytest.mark.parametrize("args, code", [
    (("scenario", "bogus"), 2),
    (("audit", "--state"), 1),
])
def test_an_error_line_stderr_cannot_take_is_dropped(tmp_path, args, code, how):
    # with stderr closed the error line went to stdout; left unwritable,
    # printing it raised inside main's handler and the process exited 1
    rho = DensityOperator(np.diag([0.5, 0.5 + 1.8e-10, -0.9e-10, -0.9e-10]).astype(complex), (2, 2))
    (tmp_path / "rho.json").write_text(serialize_state(rho))
    if args[-1] == "--state":
        args += (str(tmp_path / "rho.json"),)
    heard = run_cli(*args)
    assert heard.returncode == code and heard.stderr.count("\n") == 1
    res = _run_with_stream_gone(2, how, *args)
    assert (res.returncode, res.stdout) == (code, "")


@pytest.mark.parametrize("how", ["closed", "read-only"])
def test_output_goes_out_with_stderr_gone(how):
    res = _run_with_stream_gone(2, how, "scenario", "epr_pair", "--format", "json")
    assert (res.returncode, res.stdout) == (0, run_cli("scenario", "epr_pair", "--format", "json").stdout)


def _edge_trace_density(seed: int) -> dict:
    """A 3-qubit diagonal density whose trace sits 0.9999e-12 above 1."""
    p = np.random.default_rng(seed).random(8)
    p = p / p.sum() * (1.0 + 0.9999e-12)
    return {"kind": "density", "dims": [2, 2, 2],
            "data": [[float(x), 0.0] for x in np.diag(p).reshape(-1)]}


def _edge_norm_pure(seed: int) -> dict:
    """A 4-qubit pure state whose squared norm sits 0.99999e-12 above 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=16) + 1j * rng.normal(size=16)
    a = a / np.linalg.norm(a) * math.sqrt(1.0 + 0.99999e-12)
    return {"kind": "pure", "dims": [2, 2, 2, 2], "data": [[float(z.real), float(z.imag)] for z in a]}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", ["audit", "diagram"])
@pytest.mark.parametrize("doc", [_edge_trace_density(2), _edge_norm_pure(3)], ids=["density", "pure"])
def test_a_loaded_state_at_the_tolerance_edge_is_analysed(tmp_path, capsys, monkeypatch, doc, command, fmt):
    # load_state accepts these files; a partial trace or to_density of
    # them re-ran the constructor's checks and exited 2 with
    # "trace = 1 != 1" on a reduced matrix the file never held
    (tmp_path / "edge.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    args = [command, "--state", "edge.json", "--format", fmt]
    if command == "diagram":
        args += ["--partition", ";".join(f"F{i}={i}" for i in range(len(doc["dims"])))]
    code, out, err = run_main(capsys, *args)
    assert (code, err) == (0, "")
    if fmt == "json":
        numbers = re.findall(r"-?\d+\.\d+", out)
        assert numbers and all(math.isfinite(float(v)) for v in numbers)
    assert not re.search(r"nan|inf", out, re.IGNORECASE)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("spaced, joined", [
    (("scenario", "epr_measure", "--theta1", "-1e-3", "--theta2", "x", "--shots", "7"),
     ("scenario", "epr_measure", "--theta1=-1e-3", "--theta2=x", "--shots", "7")),
    (("scenario", "epr_measure", "--theta2", "-2.5E+1", "--theta1", "-.5"),
     ("scenario", "epr_measure", "--theta2=-2.5E+1", "--theta1=-.5")),
    (("chsh", "--angles", "-1e-3,0,0,0"), ("chsh", "--angles=-1e-3,0,0,0")),
    (("chsh", "--angles", "-5e-1,7,1e-1,-3", "--scan", "3"),
     ("chsh", "--angles=-0.5,7,0.1,-3", "--scan", "3")),
])
def test_negative_exponent_angles_parse_after_a_space(capsys, fmt, spaced, joined):
    # argparse took "-1e-3" after a flag for an unknown option
    code, out, err = run_main(capsys, *spaced, "--format", fmt)
    assert code == 0, err
    assert (code, out, err) == run_main(capsys, *joined, "--format", fmt)


_BAD_INF = "error: bad angle '-inf': expected finite radians or one of ['x', 'z']\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args, err", [
    (("chsh", "--angl", "-1e-3,0,0,0"), "error: unrecognized arguments: --angl -1e-3,0,0,0\n"),
    (("chsh", "--angl=-1e-3,0,0,0"), "error: unrecognized arguments: --angl=-1e-3,0,0,0\n"),
    (("chsh", "--scan", "3", "--se", "1"), "error: unrecognized arguments: --se 1\n"),
    (("scenario", "epr_pair", "--form", "json"), "error: unrecognized arguments: --form json\n"),
    (("scenario", "epr_measure", "--theta1", "-inf", "--theta2", "x"), _BAD_INF),
    (("scenario", "epr_measure", "--theta1=-inf", "--theta2", "x"), _BAD_INF),
    (("scenario", "epr_measure", "--theta1", "--theta2", "z"),
     "error: argument --theta1: expected one argument\n"),
], ids=["abbrev-spaced", "abbrev-joined", "abbrev-seed", "abbrev-format", "inf-spaced",
        "inf-joined", "missing-value"])
def test_flags_have_one_spelling(capsys, fmt, args, err):
    # an abbreviated flag used to run (--angl=...) or to bypass the
    # negative-angle join (--angl -1e-3); a value starting with "-" after
    # an angle flag is now always that flag's value
    assert run_main(capsys, *args, "--format", fmt) == (2, "", err)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args", [
    ("diagram", "--state", "s.json", "--partition=--"),
    ("audit", "--state=--"),
    ("scenario", "epr_measure", "--theta1=--", "--theta2", "x"),
    ("scenario", "cat", "--grouping=--"),
    ("chsh", "--angles=--"),
    ("chsh", "--scan=--"),
    ("chsh", "--seed=--"),
])
def test_double_dash_as_a_flag_value_exits_2(capsys, fmt, args):
    # argparse (seen on 3.11) hands the command an empty list for "--flag=--",
    # which ended in a traceback and exit 1
    code, out, err = run_main(capsys, *args, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_ANGLE_TEXT = st.one_of(
    st.floats().map(repr),  # nan, inf, -inf, 1e+308, -1e-05, ...
    st.floats(-1e3, 1e3).map(lambda x: f"{x:e}"),
    st.sampled_from(["1e308", "-1e308", "2e308", "-1e-3", "-.5", "nan", "-inf", "Infinity",
                     "z", "x", " X ", "Z", "y", "", "-", "1e", "0x1"]),
    st.text(max_size=6),
)


def _angle_flag(flag: str, text: str, joined: bool) -> list[str]:
    return [f"{flag}={text}"] if joined else [flag, text]


class DrawStarted(Exception):
    pass


def _fail(*args, **kwargs):
    raise DrawStarted


@settings(max_examples=150, deadline=None)
@given(t1=_ANGLE_TEXT, t2=_ANGLE_TEXT, joined=st.booleans(),
       shots=st.none() | st.integers(-3, 40) | st.sampled_from([MAX_SHOTS + 1, 10**30]),
       seed=st.none() | st.integers(0, 2**200) | st.integers(-5, -1))
def test_fuzz_epr_measure_flags(t1, t2, joined, shots, seed):
    argv = ["scenario", "epr_measure", *_angle_flag("--theta1", t1, joined),
            *_angle_flag("--theta2", t2, joined)]
    if shots is not None:
        argv += ["--shots", str(shots)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    # past the cap nothing may be drawn
    big = shots is not None and shots > MAX_SHOTS
    with mock.patch.object(_pcg64, "uniforms", _fail) if big else nullcontext():
        code = _same_in_both_formats(argv)
    if big or (seed is not None and seed < 0) or (shots is not None and shots < 0):
        assert code == 2


@settings(max_examples=150, deadline=None)
@given(angles=st.none() | st.lists(_ANGLE_TEXT, min_size=3, max_size=5), joined=st.booleans(),
       scan=st.none() | st.integers(-2, 40) | st.sampled_from([scenarios.MAX_SCAN_POINTS + 1, 10**30]),
       seed=st.none() | st.integers(0, 2**200))
def test_fuzz_chsh_flags(angles, joined, scan, seed):
    argv = ["chsh"]
    if angles is not None:
        argv += _angle_flag("--angles", ",".join(angles), joined)
    if scan is not None:
        argv += ["--scan", str(scan)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    big = scan is not None and scan > scenarios.MAX_SCAN_POINTS
    with mock.patch.object(scenarios, "chsh_values", _fail) if big else nullcontext():
        code = _same_in_both_formats(argv)
    if big:
        assert code == 2


_SEED_TEXT = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.sampled_from([" 7 ", "\t3\n", "1_000", "_1", "1__0", "+5", "-0", "+-1", "--1", "0x10", "",
                     " ", "1e3", "5.0", "\u0663", "\u0664\u0662", "\uff17", "\u2460"]),
    # int() refuses strings of more than 4,300 digits
    st.integers(4299, 4302).map(lambda n: "9" * n),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(value=_SEED_TEXT, argv=st.sampled_from([
    ("chsh", "--scan", "1"),
    ("scenario", "epr_measure", "--theta1", "z", "--theta2", "x", "--shots", "1"),
]))
def test_fuzz_seed_env_var(value, argv):
    try:
        want = int(value)
    except ValueError:
        want = -1
    with mock.patch.dict(os.environ, {cli.SEED_ENV_VAR: value}):
        code = _same_in_both_formats(argv)
        _, out, _ = _run_quietly([*argv, "--format", "json"])
    if want >= 0:
        assert code == 0
        assert json.loads(out)["seed"] == want
    else:
        assert code == 2
    # --seed takes the same text to the same outcome
    assert _run_quietly([*argv, f"--seed={value}", "--format", "json"])[0] == code


_FACTOR_INDEX = st.integers(-3, 6) | st.sampled_from([10**6, 2**70, -(10**30)])


@st.composite
def partition_texts(draw):
    """A split of ghz(4)'s factors among unicode party names, now and then
    with extra parties (up to seven), or with one negative, huge or repeated
    index; sometimes any text at all."""
    if not draw(st.integers(0, 4)):
        return draw(st.text(max_size=12))
    name = st.sampled_from(["A", "B", "C", "D", "Q", "\u00e9t\u00e9", "\u03c8"]) | st.text(max_size=3)
    parties: dict[str, list[int]] = {}
    for factor in range(4):
        parties.setdefault(draw(name), []).append(factor)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        parties[draw(name)] = draw(st.lists(_FACTOR_INDEX, max_size=3))
    if not draw(st.integers(0, 2)):
        parties[draw(st.sampled_from(sorted(parties)))].append(draw(_FACTOR_INDEX))
    return ";".join(f"{n}={','.join(map(str, fs))}" for n, fs in parties.items())


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["diagram", "audit"]), partition=partition_texts())
def test_fuzz_partitions_on_a_ghz4_file(fuzz_dir, command, partition):
    path = fuzz_dir / "ghz4.json"
    if not path.exists():
        path.write_text(serialize_state(ghz(4)))
    _same_in_both_formats([command, "--state", str(path), f"--partition={partition}"])
