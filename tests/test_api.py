"""The package namespace and its __all__ name the same public API, the
README's library quick start runs as printed, each library refusal gives
its message, and the version is stated once."""

import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import entroscope
from entroscope import (
    DensityOperator, MeasurementSetup, PartitionSpec, PureState, ValidationError,
    audit_inequalities, device_partition, mutual_entropy, serialize_document, venn_atoms,
)

ROOT = Path(__file__).parents[1]


def test_every_name_in_all_resolves_once():
    names = entroscope.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(entroscope, name), name


def test_every_public_attribute_is_in_all():
    public = {
        name for name, value in vars(entroscope).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - set(entroscope.__all__) == set()


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    atom, violations = capsys.readouterr().out.splitlines()
    assert atom == "-1.0"
    assert violations.startswith("((('Q',), ('Q', 'A1', 'A2')), ")


_EPR_JOINTS = {("L",): 1.0, ("R",): 1.0, ("L", "R"): 0.0}
_NO_PAIR = {("L",): 1.0, ("R",): 1.0}


@pytest.mark.parametrize("call, message", [
    (lambda: PartitionSpec((("A", frozenset({0})), ("A", frozenset({1})))),
     "duplicate party names in ['A', 'A']"),
    (lambda: PartitionSpec.of(A=[0]).factors_of(("B",)), "unknown party 'B'"),
    (lambda: venn_atoms({("A", "B"): 1.0}), "joints map has no singleton entries"),
    (lambda: mutual_entropy(_EPR_JOINTS, ("L", "L"), "R"), "repeated party in ('L', 'L')"),
    (lambda: mutual_entropy(_EPR_JOINTS, "L", "X"), "unknown party 'X', have ['L', 'R']"),
    (lambda: mutual_entropy(_NO_PAIR, "L", "R"), "joints map is missing subset ('L', 'R')"),
    (lambda: venn_atoms(_NO_PAIR), "joints map incomplete; missing [('L', 'R')]"),
    (lambda: audit_inequalities(_NO_PAIR), "joints map incomplete for audit"),
    (lambda: PureState([1.0], ()), "at least one tensor factor is required"),
    (lambda: PureState([1.0, 0.0], (1, 2)), "factor dims must each be >= 2, got [1, 2]"),
    (lambda: DensityOperator(np.zeros((2, 3)), (2,)), "density matrix must be square, got shape (2, 3)"),
    (lambda: device_partition(PureState([1.0, 0.0], (2,)),
                              MeasurementSetup.of((0, 0.0, "A1"), (1, 0.0, "A2"))),
     "state has fewer factors than the setup has taps"),
    (lambda: serialize_document({"x": math.nan}), "non-finite number in document: nan"),
    (lambda: serialize_document({1: 0}), "document keys must be strings, got 1"),
    (lambda: serialize_document({"x": {1}}), "cannot serialize set in a document"),
], ids=["duplicate-names", "factors_of-unknown", "no-singleton", "mutual-repeated",
        "mutual-unknown", "mutual-missing", "venn-incomplete", "audit-incomplete", "no-dims",
        "dim-1", "non-square", "taps-over-factors", "nan", "int-key", "set"])
def test_library_refusals_give_their_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_the_version_has_one_owner():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = ROOT / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {"version": {"attr": "entroscope.__version__"}}
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools marks [tool.setuptools] as beta
        resolved = read_configuration(pyproject)
    assert resolved["project"]["version"] == entroscope.__version__
