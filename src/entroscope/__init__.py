"""Entropy Venn diagrams for small quantum systems.

Build states, tap them with unitary pre-measurement devices, decompose
the joint entropies into Venn atoms (negative atoms included), audit the
entropy inequalities, and run the canned EPR / cat / CHSH analyses.
"""

import importlib

from .version import __version__

# Public name -> defining module.  A name is imported on first access
# (PEP 562), so `import entroscope` loads neither numpy nor the modules a
# command does not use.
_MODULE_OF = {
    **dict.fromkeys(("EntroscopeError", "NumericalFaultError", "ValidationError"), "errors"),
    **dict.fromkeys((
        "DensityOperator", "PureState", "hermitian_eig", "hermitian_eigenvalues",
        "partial_trace",
    ), "linalg"),
    **dict.fromkeys((
        "InequalityAudit", "PartitionSpec", "audit_inequalities", "clamp_spectrum",
        "grouped_entropies", "joint_entropies", "mutual_entropy", "resum_joints",
        "shannon_entropy", "ternary_center", "venn_atoms", "von_neumann_entropy",
    ), "entropy"),
    **dict.fromkeys((
        "axis_angle", "basis_rotation", "cat_chain", "epr_singlet", "ghz", "spin_observable",
    ), "states"),
    **dict.fromkeys((
        "CLASSICAL_BOUND", "TSIRELSON_BOUND", "MeasurementSetup", "chsh_value", "chsh_values",
        "correlator", "device_joints", "device_partition", "full_partition",
        "outcome_probabilities", "premeasure", "sample_records",
    ), "measurement"),
    "CANONICAL_CHSH_ANGLES": "scenarios",
    "DiagramBundle": "entropy",
    **dict.fromkeys((
        "DiagramReport", "orthodox_reference", "run_cat", "run_chsh", "run_epr_measure",
        "run_epr_pair", "run_scenario",
    ), "scenarios"),
    **dict.fromkeys((
        "load_state", "render_report_table", "report_document", "serialize_document",
    ), "report"),
    "serialize_state": "_statefile",
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
