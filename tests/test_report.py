import json
import math

import numpy as np
import pytest

import helpers
from entroscope import (
    DensityOperator,
    DiagramBundle,
    PartitionSpec,
    ValidationError,
    epr_singlet,
    random_density,
    run_epr_measure,
    run_epr_pair,
)
from entroscope.report import (
    SCHEMA_VERSION,
    load_state,
    diagram_document,
    q9,
    render_report_table,
    report_document,
    serialize_document,
    serialize_state,
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
