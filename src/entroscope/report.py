"""Canonical report documents, text tables, and load_state.

Documents are plain dicts with a fixed key order and every float
quantized to nine fractional digits, so serializing the same report
twice yields byte-identical output and json.loads(serialize(doc)) == doc.
The table renderer works from the same document, which keeps the two
formats numerically identical.  State files belong to _statefile; load_state
builds and checks the state it reads.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ValidationError
from .linalg import DensityOperator, PureState

if TYPE_CHECKING:  # annotations only: diagram and audit never load scenarios
    from .entropy import DiagramBundle
    from .scenarios import DiagramReport

SCHEMA_VERSION = "1.0.0"
# The scenario ids run_scenario dispatches on, and the cat scenario's
# groupings.  Unused here: they live in this module only because the CLI
# parser needs them and diagram and audit, which load report, must not load
# scenarios.
SCENARIO_IDS = ("epr_pair", "epr_measure", "cat", "chsh")
CAT_GROUPINGS = ("atom", "atom_gamma")


def q9(x: float) -> float:
    """Quantize to 9 fractional digits; -0.0 becomes 0.0."""
    r = round(float(x), 9)
    return 0.0 if r == 0.0 else r


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"non-finite number in document: {x!r}")
    s = f"{x:.9f}"
    return "0.000000000" if s == "-0.000000000" else s  # -0.0 and tiny negatives


def _emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            if not isinstance(k, str):
                raise ValidationError(f"document keys must be strings, got {k!r}")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__} in a document")


def serialize_document(doc: dict) -> str:
    """Render a document to its canonical JSON text (no trailing newline)."""
    out: list[str] = []
    _emit(doc, out)
    return "".join(out)


def _canonical(value):
    """The document form of a report value: every float quantized by q9,
    tuples as lists, and tuple subset keys joined as "A,B"."""
    if isinstance(value, float):
        return q9(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {
            ",".join(k) if isinstance(k, tuple) else k: _canonical(v)
            for k, v in value.items()
        }
    return value


def _diagram_block(bundle: DiagramBundle | None) -> dict | None:
    if bundle is None:
        return None
    audit = {"monotonicity_violated": [
        {"subset": ",".join(a), "superset": ",".join(b)}
        for a, b in bundle.audit.monotonicity_violated
    ]}
    for name in ("subadditivity", "triangle", "strong_subadditivity"):
        # schema 1.0.0 keys; always true, as a violation raises before this
        audit[f"{name}_ok"] = True
        audit[f"{name}_worst_slack"] = getattr(bundle.audit, f"{name}_worst_slack")
    return {
        "parties": tuple(bundle.factors),
        "factors": bundle.factors,
        "joints": bundle.joints,
        "atoms": bundle.atoms,
        "audit": audit,
    }


def report_document(report: DiagramReport) -> dict:
    """The canonical JSON-ready form of a scenario report."""
    return _canonical({
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": report.scenario,
        "parameters": report.parameters,
        "seed": report.seed,
        "diagram": _diagram_block(report.diagram),
        "reduced_diagram": _diagram_block(report.reduced),
        "ternary_center": None if report.diagram is None else report.diagram.center,
        "q_devices_mutual": report.q_devices_mutual,
        "sampled": report.sampled,
        "orthodox": report.orthodox,
        "chsh": report.chsh,
    })


def diagram_document(source: str, bundle: DiagramBundle) -> dict:
    """Document for the CLI diagram/audit commands over a state file."""
    return _canonical({
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "state_file": source,
        "diagram": _diagram_block(bundle),
        "ternary_center": bundle.center,
    })


# ---------------------------------------------------------------------------
# state files

def load_state(path) -> PureState | DensityOperator:
    """Read a state file: {"kind", "dims", "data"} with data as [re, im] pairs.

    Pure states list amplitudes; density operators list the matrix
    entries flattened row-major.  All construction invariants are
    enforced, including positive semidefiniteness for densities.
    """
    from ._statefile import read_state  # here: scenario and chsh never compile it

    kind, dims, values = read_state(path)
    # huge finite entries overflow the norm, trace or Hermitian deviation to
    # inf or nan, which the checks reject; numpy's warnings would only add
    # stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "pure":
            return PureState(values, tuple(dims))
        rho = DensityOperator(values.reshape(math.prod(dims), -1), tuple(dims))
        rho.validate_psd()
    return rho


# ---------------------------------------------------------------------------
# tables

def _region_label(subset: tuple[str, ...], parties: tuple[str, ...]) -> str:
    rest = [prt for prt in parties if prt not in subset]
    if not rest:
        return ":".join(subset)
    return ":".join(subset) + "|" + ",".join(rest)


def _two_columns(rows, label_head: str, value_head: str, spec: str) -> list[str]:
    width = max([len(label_head), *(len(label) for label, _ in rows)])
    lines = [f"{label_head:<{width}}  {value_head}"]
    for label, value in rows:
        lines.append(f"{label:<{width}}  {value:{spec}}")
    return lines


def _atoms_table(atoms: dict[str, float], parties) -> list[str]:
    names = tuple(parties)
    if len(names) <= 3:
        rows = [(_region_label(tuple(k.split(",")), names), v) for k, v in atoms.items()]
    else:
        rows = list(atoms.items())
    return _two_columns(rows, "region", "atom (bits)", "+.9f")


def _audit_lines(audit: dict) -> list[str]:
    lines = []
    mono = audit["monotonicity_violated"]
    if mono:
        pairs = ", ".join(f"S({m['subset']}) > S({m['superset']})" for m in mono)
        lines.append(f"monotonicity violations: {pairs}")
    else:
        lines.append("monotonicity violations: none")
    for name in ("subadditivity", "triangle", "strong_subadditivity"):
        # a violation raises before any document exists, so a slack means ok
        slack = audit[f"{name}_worst_slack"]
        label = name.replace("_", " ")
        if slack is None:
            lines.append(f"{label}: not applicable")
        else:
            lines.append(f"{label}: ok (worst slack {slack:.9f})")
    return lines


def _diagram_lines(title: str, block: dict) -> list[str]:
    factors = "  ".join(
        f"{name}={','.join(str(f) for f in fs)}" for name, fs in block["factors"].items()
    )
    lines = [title, f"parties: {factors}", ""]
    lines += _two_columns(block["joints"].items(), "subset", "entropy (bits)", ".9f")
    lines.append("")
    lines += _atoms_table(block["atoms"], block["parties"])
    lines.append("")
    lines += _audit_lines(block["audit"])
    return lines


def render_report_table(doc: dict) -> str:
    """Text rendering of a report document; numbers match the JSON exactly."""
    lines: list[str] = []
    if "scenario" in doc:
        lines.append(f"scenario: {doc['scenario']}")
        params = doc.get("parameters") or {}
        if params:
            lines.append(
                "parameters: "
                + "  ".join(f"{k}={_param_str(v)}" for k, v in params.items())
            )
        if doc.get("seed") is not None:
            lines.append(f"seed: {doc['seed']}")
    elif "state_file" in doc:
        lines.append(f"state: {doc['state_file']}")
    # a present block gets a blank line, then its lines
    for key, title in (("diagram", "-- diagram --"), ("reduced_diagram", "-- reduced diagram --")):
        if doc.get(key):
            lines += ["", *_diagram_lines(title, doc[key])]
    if doc.get("ternary_center") is not None:
        lines.append("")
        lines.append(f"ternary center: {doc['ternary_center']:+.9f}")
    if doc.get("q_devices_mutual") is not None:
        lines.append(f"quantum:devices mutual: {doc['q_devices_mutual']:.9f}")
    for key, block_lines in (("sampled", _sampled_lines), ("orthodox", _orthodox_lines),
                             ("chsh", _chsh_lines)):
        if doc.get(key):
            lines += ["", *block_lines(doc[key])]
    return "\n".join(lines)


def _param_str(value) -> str:
    if isinstance(value, float):
        return f"{value:.9f}"
    if isinstance(value, list):
        return "[" + ",".join(_param_str(v) for v in value) + "]"
    return str(value)


def _sampled_lines(block: dict) -> list[str]:
    lines = [f"sampled: shots={block['shots']} seed={block['seed']}"]
    counts = "  ".join(f"{k}:{v}" for k, v in block["counts"].items())
    lines.append(f"counts: {counts}")
    for key, value in block["entropies"].items():
        lines.append(f"H({key}) = {value:.9f}")
    lines.append(f"empirical mutual = {block['mutual']:.9f} (exact {block['exact_mutual']:.9f})")
    return lines


def _orthodox_lines(block: dict) -> list[str]:
    lines = [f"orthodox reference ({block['case']}): {block['label']}"]
    lines += _atoms_table(block["atoms"], block["parties"])
    lines.append(f"warning: {block['warning']}")
    return lines


def _chsh_lines(block: dict) -> list[str]:
    verdict = "violates" if block["violates_classical"] else "within"
    lines = [
        f"CHSH S = {block['value']:.9f}  (|S| = {block['abs_value']:.9f})",
        f"{verdict} classical bound {block['classical_bound']:g} "
        f"(Tsirelson bound {block['tsirelson_bound']:.9f})",
    ]
    if "scan" in block:
        scan = block["scan"]
        lines.append(
            f"scan: max |S| = {scan['max_abs_value']:.9f} over {scan['points']} "
            f"random angle sets (seed {scan['seed']})"
        )
    return lines
