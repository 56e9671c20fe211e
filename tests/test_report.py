import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import random_density, random_pure
from entroscope import (
    DensityOperator,
    DiagramBundle,
    PartitionSpec,
    PureState,
    ValidationError,
    _statefile,
    epr_singlet,
    run_epr_measure,
    run_epr_pair,
)
from entroscope._statefile import _read_whole, serialize_state
from entroscope.report import (
    SCHEMA_VERSION,
    load_state,
    diagram_document,
    q9,
    render_report_table,
    report_document,
    serialize_document,
)

EPR_PARTITION = PartitionSpec.of(L=[0], R=[1])


def atom_rows(state, partition) -> dict[str, str]:
    """The atom table of the state-file report, one line per region label."""
    doc = diagram_document("state.json", DiagramBundle.of(state, partition))
    lines = render_report_table(doc).splitlines()
    start = lines.index(next(line for line in lines if line.startswith("region ")))
    end = lines.index("", start)
    return {line.split()[0]: line for line in lines[start + 1:end]}


def test_q9_rounding_and_negative_zero():
    assert q9(-1e-12) == 0.0
    assert math.copysign(1.0, q9(-1e-12)) == 1.0
    assert q9(0.1234567894) == 0.123456789


def test_serialized_numbers_have_nine_digits():
    text = serialize_document(report_document(run_epr_pair()))
    assert '"L": 1.000000000' in text
    assert '"L,R": 2.000000000' in text
    assert "-0." not in text  # negative zero is normalized away
    assert serialize_document({"a": -1e-10}) == '{"a": 0.000000000}'


_AWKWARD_STRINGS = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "orthodox — expectation",
                    "lone \ud800 surrogate", "", "\u2028\u2029", "é/ü"]


@pytest.mark.parametrize("s", _AWKWARD_STRINGS)
def test_strings_serialize_as_json_dumps_writes_them(s):
    # keys and string values skip json.dumps, which builds an encoder per call
    assert serialize_document({s: s}) == "{%s: %s}" % ((json.dumps(s, ensure_ascii=False),) * 2)
    assert serialize_document([s, [s]]) == "[{0}, [{0}]]".format(json.dumps(s, ensure_ascii=False))


def test_serialize_parse_round_trip():
    doc = report_document(run_epr_pair())
    assert helpers.parse_document(serialize_document(doc)) == doc


def test_round_trip_with_all_blocks():
    rep = run_epr_measure(0.0, 0.0, shots=64, seed=4)
    doc = report_document(rep)
    assert helpers.parse_document(serialize_document(doc)) == doc


def test_document_key_order_is_stable():
    doc = report_document(run_epr_pair())
    assert list(doc) == [
        "schema_version",
        "tool_version",
        "scenario",
        "parameters",
        "seed",
        "diagram",
        "reduced_diagram",
        "ternary_center",
        "q_devices_mutual",
        "sampled",
        "orthodox",
        "chsh",
    ]
    assert doc["schema_version"] == SCHEMA_VERSION


def test_identical_runs_serialize_identically():
    a = serialize_document(report_document(run_epr_pair()))
    b = serialize_document(report_document(run_epr_pair()))
    assert a == b


def test_parse_document_checks_schema_version():
    with pytest.raises(ValidationError):
        helpers.parse_document(json.dumps({"schema_version": "1.0"}))
    with pytest.raises(ValidationError):
        helpers.parse_document(json.dumps({"scenario": "epr_pair"}))
    with pytest.raises(ValidationError):
        helpers.parse_document("{not json")


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "epr.json"
    path.write_text(serialize_state(epr_singlet()))
    back = load_state(path)
    assert np.max(np.abs(back.amplitudes - epr_singlet().amplitudes)) < 1e-12

    rho = random_density((2, 2), seed=6)
    dpath = tmp_path / "rho.json"
    dpath.write_text(serialize_state(rho))
    back = load_state(dpath)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_state_document_shape():
    doc = json.loads(serialize_state(epr_singlet()))
    assert doc["kind"] == "pure"
    assert doc["dims"] == [2, 2]
    assert len(doc["data"]) == 4
    assert all(len(pair) == 2 for pair in doc["data"])


def _with_edge_values(state):
    """The state with -0.0, the smallest subnormal and a 1e-300 imaginary
    part in its first entries; a density keeps them Hermitian."""
    if isinstance(state, PureState):
        v = state.amplitudes.copy()
        v[:4] = 0.0
        v /= np.linalg.norm(v)
        v[:4] = [-0.0, 5e-324, 1e-300j, complex(-0.0, -5e-324)]
        return PureState(v, state.dims)
    m = state.matrix.copy()
    m[0, 1], m[1, 0] = complex(-0.0, 1e-300), complex(-0.0, -1e-300)
    m[0, 2] = m[2, 0] = 5e-324
    return DensityOperator(m, state.dims)


@pytest.mark.parametrize("make", [
    epr_singlet,
    lambda: random_density((2, 2), seed=6),
    lambda: random_pure((2,) * 12, seed=8),  # exactly one block of rows
    lambda: _with_edge_values(random_pure((4097,), seed=9)),
    lambda: _with_edge_values(random_pure((2,) * 13, seed=10)),
    lambda: _with_edge_values(random_density((2,) * 7, seed=12)),
], ids=["epr", "density4", "pure4096", "pure4097-edges", "pure8192-edges", "density16384-edges"])
def test_serialize_state_matches_one_list_per_entry(make):
    state = make()
    assert serialize_state(state) == helpers.serialize_state_whole(state)


def test_serialize_state_holds_no_python_object_per_entry():
    # a 2**8-dim density: one list per entry held 4.6 times the text
    rho = random_density((2,) * 8, seed=11)
    size = len(serialize_state(rho))  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        serialize_state(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * size, f"peaked at {peak} bytes for {size} bytes of text"


def test_load_state_error_messages(tmp_path):
    def write(doc):
        p = tmp_path / "state.json"
        p.write_text(json.dumps(doc))
        return p

    with pytest.raises(ValidationError, match="invalid JSON"):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        load_state(p)

    with pytest.raises(ValidationError, match="kind"):
        load_state(write({"kind": "mixed", "dims": [2], "data": []}))

    with pytest.raises(ValidationError, match="dims"):
        load_state(write({"kind": "pure", "dims": [], "data": []}))

    with pytest.raises(ValidationError, match=r"data\[0\]"):
        load_state(write({"kind": "pure", "dims": [2], "data": [[1.0], [0.0, 0.0]]}))

    # both numbers named on a shape mismatch
    with pytest.raises(ValidationError, match="3 amplitudes.*need 4"):
        load_state(write({
            "kind": "pure", "dims": [2, 2],
            "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }))

    with pytest.raises(ValidationError, match="trace = 0.98"):
        load_state(write({
            "kind": "density", "dims": [2],
            "data": [[0.49, 0.0], [0.0, 0.0], [0.0, 0.0], [0.49, 0.0]],
        }))

    with pytest.raises(ValidationError, match="squared norm"):
        load_state(write({"kind": "pure", "dims": [2], "data": [[1.0, 0.0], [1.0, 0.0]]}))

    with pytest.raises(ValidationError, match="not positive semidefinite"):
        load_state(write({
            "kind": "density", "dims": [2],
            "data": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]],
        }))

    with pytest.raises(ValidationError, match="cannot read"):
        load_state(tmp_path / "missing.json")


GOLDEN_STATES = sorted((Path(__file__).parent / "golden" / "states").glob("*.json"))
# doubles at the edges of the repr: the smallest subnormal, the largest finite
EDGE_DOUBLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308])


def _both_paths(raw: str, chunk: int):
    """What the chunked reader and the whole-document path make of one text."""
    p = Path("state.json")
    with mock.patch.object(_statefile, "_CHUNK", chunk):
        chunked = _statefile.read_canonical(raw, p)
    return chunked, _read_whole(p, raw)


def _same_entries(got, want) -> bool:
    return got[:2] == want[:2] and got[2].view(np.uint64).tolist() == want[2].view(np.uint64).tolist()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["pure", "density"]),
    dims=st.sampled_from([[2], [3], [2, 2], [2, 3]]),
    doubles=st.data(),
    end=st.sampled_from(["\n", ""]),
    chunk=st.sampled_from([1, 2, 7, 30, 100]) | st.just(_statefile._CHUNK),
)
def test_chunked_reader_equals_the_whole_document_path(kind, dims, doubles, end, chunk):
    # a chunk length of a few bytes puts a chunk boundary at every separator
    n = math.prod(dims) * (1 if kind == "pure" else math.prod(dims))
    pair = st.lists(st.floats() | EDGE_DOUBLES, min_size=2, max_size=2)
    data = doubles.draw(st.lists(pair, min_size=n, max_size=n))
    raw = json.dumps({"kind": kind, "dims": dims, "data": data}) + end
    chunked, whole = _both_paths(raw, chunk)
    assert chunked is not None, "the canonical layout fell back to the whole-document path"
    assert _same_entries(chunked, whole)


@pytest.mark.parametrize("path", GOLDEN_STATES, ids=lambda p: p.stem)
def test_golden_states_go_through_the_chunked_reader(path):
    chunked, whole = _both_paths(path.read_text(encoding="utf-8"), _statefile._CHUNK)
    assert chunked is not None
    assert _same_entries(chunked, whole)


def _pure_text(entries: list[str]) -> str:
    return '{"kind": "pure", "dims": [%s], "data": [%s]}\n' % (
        ", ".join(["2"] * (len(entries).bit_length() - 1)), ", ".join(entries))


_BELL = ["[0.7071067811865476, 0.0]", "[0.0, 0.0]", "[0.0, 0.0]", "[0.7071067811865476, 0.0]"]
_EIGHT = ["[0.3535533905932738, 0.0]"] * 8
PARITY_CASES = {
    # every case of test_load_state_error_messages
    "not json": "{not json",
    "kind": json.dumps({"kind": "mixed", "dims": [2], "data": []}),
    "dims": json.dumps({"kind": "pure", "dims": [], "data": []}),
    "short entry": json.dumps({"kind": "pure", "dims": [2], "data": [[1.0], [0.0, 0.0]]}),
    "too few": json.dumps({"kind": "pure", "dims": [2, 2], "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
    "trace": json.dumps({"kind": "density", "dims": [2],
                         "data": [[0.49, 0.0], [0.0, 0.0], [0.0, 0.0], [0.49, 0.0]]}),
    "norm": json.dumps({"kind": "pure", "dims": [2], "data": [[1.0, 0.0], [1.0, 0.0]]}),
    "not psd": json.dumps({"kind": "density", "dims": [2],
                           "data": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]]}),
    # entries that are not JSON floats
    "true": _pure_text(["[true, 0.0]", "[0.0, 0.0]"]),
    "false": _pure_text(["[1.0, 0.0]", "[0.0, false]"]),
    "nan": _pure_text(["[NaN, 0.0]", "[0.0, 0.0]"]),
    "infinity": _pure_text(["[Infinity, 0.0]", "[0.0, -Infinity]"]),
    "past float range": _pure_text(["[1e999, 0.0]", "[0.0, 0.0]"]),
    "ints": _pure_text(["[1, 0]", "[0, 0]"]),
    "int past float range": _pure_text(["[1" + "0" * 400 + ", 0]", "[0.0, 0.0]"]),
    "over-long int": _pure_text(["[1" + "0" * 5000 + ", 0]", "[0.0, 0.0]"]),
    "ragged late": _pure_text(_EIGHT[:5] + ["[0.3535533905932738]"] + _EIGHT[6:]),
    "long entry late": _pure_text(_EIGHT[:6] + ["[0.3535533905932738, 0.0, 0.0]"] + _EIGHT[7:]),
    "nested entry": _pure_text(_EIGHT[:3] + ["[[0.3535533905932738, 0.0]]"] + _EIGHT[4:]),
    "string holding the separator": _pure_text(['["], [", 0.0]', "[1.0, 0.0]"]),
    "null": _pure_text(["[null, 0.0]", "[1.0, 0.0]"]),
    # headers refused in the canonical layout
    "kind in the layout": _pure_text(_BELL).replace('"pure"', '"mixed"'),
    "dims in the layout": _pure_text(_BELL).replace("[2, 2]", "[2, 1]"),
    "dims over the limit in the layout": _pure_text(_BELL).replace("[2, 2]", "[%s]" % ", ".join(["2"] * 13)),
    # other layouts and near misses of the canonical one
    "indent=2": json.dumps(json.loads(_pure_text(_BELL)), indent=2),
    "keys reordered": json.dumps({"data": json.loads(_pure_text(_BELL))["data"],
                                  "dims": [2, 2], "kind": "pure"}) + "\n",
    "no space in separators": _pure_text(_BELL).replace("], [", "],["),
    "one separator without a space, one entry too many":
        _pure_text(_BELL + ["[0.0, 0.0]"]).replace("], [", "],[", 1),
    "entries missing for the dims": _pure_text(_BELL[:2]).replace("[2]", "[2, 2]"),
    "ints mixed with floats": _pure_text(["[9007199254740993, 0.0]", "[0.0, 0.0]"]),
    "data key twice": _pure_text(_BELL).replace("}\n", ', "data": [[1.0, 0.0]]}\n'),
    "kind after data": _pure_text(_BELL).replace("}\n", ', "kind": "density"}\n'),
    "empty header": "{" + _pure_text(_BELL)[_pure_text(_BELL).index(', "data"'):],
    "header left open": _pure_text(_BELL).replace('"dims": [2, 2]', '"dims": [2, 2], "x": {"y": 1'),
    "trailing text": _pure_text(_BELL) + "x",
    "two newlines": _pure_text(_BELL) + "\n",
    "carriage returns": _pure_text(_BELL).replace("\n", "\r\n"),
    # a key after the data overrides the header the chunked reader would gate
    "key after data": '{"kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]], "dims": [2], "note": [[1]]}',
    "dims over the limit, overridden after data":
        '{"kind": "pure", "dims": [%s], "data": [[1.0, 0.0], [0.0, 0.0]], "dims": [2], "note": [[1]]}'
        % ", ".join(["2"] * 13),
    # files it accepts
    "bell": _pure_text(_BELL),
    "pure": serialize_state(random_pure((2, 3), seed=4)),
    "density": serialize_state(random_density((2, 2), seed=6)),
}


@pytest.mark.parametrize("chunk", [1, 30, _statefile._CHUNK])
@pytest.mark.parametrize("name", PARITY_CASES)
def test_load_state_gives_the_whole_document_result(tmp_path, name, chunk):
    # the object or the exact message load_state gave before the chunked
    # reader, when every file went through the whole-document path
    p = tmp_path / "state.json"
    p.write_bytes(PARITY_CASES[name].encode())

    def load(reader):
        with mock.patch.object(_statefile, "read_canonical", reader), \
                mock.patch.object(_statefile, "_CHUNK", chunk):
            try:
                return load_state(p)
            except ValidationError as exc:
                return str(exc)

    got, want = load(_statefile.read_canonical), load(lambda raw, p: None)
    if isinstance(want, str):
        assert got == want
    else:
        assert type(got) is type(want) and got.dims == want.dims
        field = "amplitudes" if isinstance(want, PureState) else "matrix"
        assert getattr(got, field).view(np.uint64).tolist() == getattr(want, field).view(np.uint64).tolist()


ACCEPTED = ("trace", "norm", "not psd", "nan", "infinity", "past float range", "bell", "pure",
            "density", "kind in the layout", "dims in the layout",
            "dims over the limit in the layout")


@pytest.mark.parametrize("name", [n for n in PARITY_CASES if n != "carriage returns"])
def test_chunked_reader_takes_float_pairs_in_the_canonical_layout_only(name):
    # ints, bools, other layouts and near misses go to the whole-document path
    p = Path("state.json")
    with mock.patch.object(_statefile, "_CHUNK", 30):
        try:
            chunked = _statefile.read_canonical(PARITY_CASES[name], p)
        except ValidationError:  # refused on the header, before the data
            chunked = True
    assert (chunked is not None) == (name in ACCEPTED)


def test_a_header_claiming_more_entries_than_the_text_holds_allocates_nothing_large(tmp_path):
    # the reader counts the separators before it allocates the entries
    p = tmp_path / "big_header.json"
    p.write_text('{"kind": "density", "dims": [4096], "data": [[1.0, 0.0], [0.0, 0.0]]}\n')
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"data: 2 entries but dims \[4096\] need 16777216"):
            load_state(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peaked at {peak} bytes"


def test_load_state_holds_no_python_object_per_entry(tmp_path):
    # In the style of criterion 13: a canonical 2**8-dim density (65,536
    # entries) may cost its text twice (read_text holds the bytes and the
    # decoded str at once), 16 B per entry for each of two complex arrays
    # (the parsed entries and the DensityOperator's copy), and 512 KiB of
    # slack.  The whole-document path held about 130 B per entry in its
    # JSON document and failed this bound.
    p = tmp_path / "rho8.json"
    p.write_text(serialize_state(random_density((2,) * 8, seed=11)))
    entries = 2**16
    load_state(p)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        load_state(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * p.stat().st_size + 2 * 16 * entries + 2**19
    assert peak <= bound, f"peaked at {peak} bytes, bound {bound}"


def test_report_table_labels_epr_atoms():
    lines = atom_rows(epr_singlet(), EPR_PARTITION)
    assert "-1.000000000" in lines["L|R"]
    assert "-1.000000000" in lines["R|L"]
    assert "+2.000000000" in lines["L:R"]


def test_report_table_labels_independent_bit_atoms():
    rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
    lines = atom_rows(rho, PartitionSpec.of(A=[0], B=[1]))
    assert "+1.000000000" in lines["A|B"]
    assert "+1.000000000" in lines["B|A"]
    assert "+0.000000000" in lines["A:B"]


def test_report_table_many_parties_falls_back():
    rho = random_density((2, 2, 2, 2), seed=3)
    lines = atom_rows(rho, PartitionSpec.of(A=[0], B=[1], C=[2], D=[3]))
    assert not any("|" in label for label in lines)  # plain subset listing for >3 parties
    assert "A,B,C,D" in lines


def test_table_and_json_share_numbers():
    doc = report_document(run_epr_pair())
    table = render_report_table(doc)
    text = serialize_document(doc)
    for token in ("1.000000000", "2.000000000", "-1.000000000"):
        assert token in table and token in text
