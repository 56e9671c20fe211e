"""The contract of the seven value classes: field-wise equality and hash
where they had them (identity for the two state classes), a repr that
lists the fields, no assignment or deletion after construction, and
round trips through copy, deepcopy and pickle."""

import copy
import pickle

import numpy as np
import pytest

from entroscope import (
    DiagramBundle, DiagramReport, InequalityAudit, MeasurementSetup,
    PartitionSpec, PureState, epr_singlet, run_scenario,
)

_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
_EPR_PARTS = PartitionSpec.of(L=[0], R=[1])

# name -> (fields in order, a builder of one value by seed, hashable)
_VALUES = {
    "PartitionSpec": (("parties",), lambda k: PartitionSpec.of(A=[0], B=[k + 1]), True),
    "InequalityAudit": (
        ("monotonicity_violated", "subadditivity_worst_slack", "triangle_worst_slack",
         "strong_subadditivity_worst_slack"),
        lambda k: InequalityAudit(((("A",), ("A", "B")),), 0.5 * k, 0.25, None), True),
    "MeasurementSetup": (("taps",), lambda k: MeasurementSetup.of((0, 0.5 * k, "A1"), (1, 1.0, "A2")), True),
    "DiagramBundle": (
        ("factors", "joints", "atoms", "audit"),
        lambda k: DiagramBundle.of(epr_singlet() if k else PureState([1, 0, 0, 0], (2, 2)), _EPR_PARTS),
        False),
    "DiagramReport": (
        ("scenario", "parameters", "seed", "diagram", "reduced", "q_devices_mutual", "sampled",
         "orthodox", "chsh"),
        lambda k: run_scenario("epr_measure", theta1=0.5 * k, theta2=1.0), False),
}


def _fields(value, names):
    return tuple(getattr(value, n) for n in names)


@pytest.mark.parametrize("name", _VALUES)
def test_values_compare_field_by_field(name):
    fields, make, hashable = _VALUES[name]
    a, b, other = make(1), make(1), make(0)
    assert a is not b and a == b and not a != b
    assert a != other and _fields(a, fields) != _fields(other, fields)
    assert a != _fields(a, fields) and a != object()
    if hashable:
        assert hash(a) == hash(b) == hash(_fields(a, fields))
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def _states():
    pure = PureState(_BELL, (2, 2))
    return [(pure, ("amplitudes", "dims")), (pure.to_density(), ("matrix", "dims"))]


@pytest.mark.parametrize("state, fields", _states(), ids=["PureState", "DensityOperator"])
def test_states_compare_by_identity(state, fields):
    twin = type(state)(*_fields(state, fields))
    assert state == state and state != twin
    assert hash(state) == object.__hash__(state) and len({state, twin}) == 2


def _all_values():
    out = [(make(1), fields) for fields, make, _ in _VALUES.values()]
    return out + _states()


_IDS = list(_VALUES) + ["PureState", "DensityOperator"]


@pytest.mark.parametrize("value, fields", _all_values(), ids=_IDS)
def test_values_refuse_assignment_and_deletion(value, fields):
    before = _fields(value, fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(x is y for x, y in zip(_fields(value, fields), before))


@pytest.mark.parametrize("value, fields", _all_values(), ids=_IDS)
def test_repr_lists_the_fields(value, fields):
    listed = ", ".join(f"{n}={getattr(value, n)!r}" for n in fields)
    assert repr(value) == f"{type(value).__name__}({listed})"


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("value, fields", _all_values(), ids=_IDS)
@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_survive_copy_and_pickle(value, fields, round_trip):
    back = round_trip(value)
    assert type(back) is type(value)
    assert all(_same(x, y) for x, y in zip(_fields(back, fields), _fields(value, fields)))
    with pytest.raises(AttributeError):
        setattr(back, fields[0], None)


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["deepcopy", "pickle"])
def test_restored_states_keep_read_only_buffers(round_trip):
    # a restored state is rebuilt through _State._of, which stores its
    # fields through _set and marks them read-only; a bare copy of the
    # fields would hold a writeable array
    pure = PureState(_BELL, (2, 2))
    assert not round_trip(pure).amplitudes.flags.writeable
    assert not round_trip(pure.to_density()).matrix.flags.writeable


def test_diagram_report_takes_its_fields_by_position_and_keyword():
    bundle = DiagramBundle.of(epr_singlet(), _EPR_PARTS)
    by_position = DiagramReport("epr_pair", {}, None, bundle)
    assert by_position == DiagramReport(scenario="epr_pair", parameters={}, diagram=bundle)
    assert by_position.reduced is by_position.sampled is by_position.chsh is None
    with pytest.raises(TypeError):
        DiagramReport("epr_pair")
