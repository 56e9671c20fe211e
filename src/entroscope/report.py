"""Canonical report documents, state files, and text tables.

Documents are plain dicts with a fixed key order and every float
quantized to nine fractional digits, so serializing the same report
twice yields byte-identical output and parse(serialize(doc)) == doc.
The table renderer works from the same document, which keeps the two
formats numerically identical.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import DensityOperator, PureState
from .scenarios import DiagramBundle, DiagramReport
from .version import __version__

SCHEMA_VERSION = "1.0.0"
# Largest total dimension a state file may declare: every route to a diagram
# builds the dense 2**12 x 2**12 density matrix (256 MB) at this size.
MAX_DENSE_DIM = 2**12
_SEMVER = re.compile(r"^\d+\.\d+\.\d+$")


def q9(x: float) -> float:
    """Quantize to 9 fractional digits; -0.0 becomes 0.0."""
    r = round(float(x), 9)
    return 0.0 if r == 0.0 else r


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"non-finite number in document: {x!r}")
    if x == 0.0:
        x = 0.0
    return f"{x:.9f}"


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


def parse_document(text: str) -> dict:
    """Parse canonical JSON and check the schema version tag."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    version = doc.get("schema_version")
    if not isinstance(version, str) or not _SEMVER.match(version):
        raise ValidationError(f"schema_version missing or not semver: {version!r}")
    return doc


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
    audit = bundle.audit
    return {
        "parties": bundle.venn.parties,
        "factors": dict(bundle.party_factors),
        "joints": bundle.venn.joints,
        "atoms": bundle.venn.atoms,
        "audit": {
            **vars(audit),
            "monotonicity_violated": [
                {"subset": ",".join(a), "superset": ",".join(b)}
                for a, b in audit.monotonicity_violated
            ],
        },
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
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{p}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ValidationError(f"{p}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{p}: expected a JSON object")

    kind = doc.get("kind")
    if kind not in ("pure", "density"):
        raise ValidationError(f"{p}: kind: expected 'pure' or 'density', got {kind!r}")
    # type() rather than isinstance: JSON true/false load as bool, an int subclass
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or not all(type(d) is int and d >= 2 for d in dims):
        raise ValidationError(f"{p}: dims: expected a nonempty list of integers >= 2")
    if math.prod(dims) > MAX_DENSE_DIM:
        raise ValidationError(f"{p}: dims: total dimension is over the limit of {MAX_DENSE_DIM}")
    data = doc.get("data")
    if not isinstance(data, list):
        raise ValidationError(f"{p}: data: expected a list of [re, im] pairs")

    values = np.empty(len(data), dtype=complex)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(type(x) in (int, float) for x in entry)
        ):
            raise ValidationError(f"{p}: data[{i}]: expected [re, im]")
        try:
            values[i] = complex(entry[0], entry[1])
        except OverflowError:
            raise ValidationError(f"{p}: data[{i}]: number too large for a float") from None

    d = math.prod(dims)
    need = d if kind == "pure" else d * d
    if len(data) != need:
        what = "amplitudes" if kind == "pure" else "entries"
        raise ValidationError(f"{p}: data: {len(data)} {what} but dims {dims} need {need}")
    # huge finite entries overflow the norm, trace or Hermitian deviation to
    # inf or nan, which the checks reject; numpy's warnings would only add
    # stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "pure":
            return PureState(values, tuple(dims))
        rho = DensityOperator(values.reshape(d, d), tuple(dims))
        rho.validate_psd()
    return rho


def state_document(state: PureState | DensityOperator) -> dict:
    """The JSON form load_state reads, for writing states out."""
    if isinstance(state, PureState):
        flat = state.amplitudes
        kind = "pure"
    else:
        flat = state.matrix.reshape(-1)
        kind = "density"
    return {
        "kind": kind,
        "dims": list(state.dims),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def serialize_state(state: PureState | DensityOperator) -> str:
    """Full-precision JSON for a state file.

    Report documents round to 9 fractional digits; state files must
    round-trip through load_state within 1e-12, so they keep the full
    float repr instead.
    """
    return json.dumps(state_document(state)) + "\n"


# ---------------------------------------------------------------------------
# tables

def _region_label(subset: tuple[str, ...], parties: tuple[str, ...]) -> str:
    rest = [prt for prt in parties if prt not in subset]
    if not rest:
        return ":".join(subset)
    return ":".join(subset) + "|" + ",".join(rest)


def _two_columns(rows, label_head: str, value_head: str, spec: str) -> list[str]:
    width = max(len(label) for label, _ in rows)
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
    for name, label in (
        ("subadditivity", "subadditivity"),
        ("triangle", "triangle"),
        ("strong_subadditivity", "strong subadditivity"),
    ):
        # a violation raises before any document exists, so a slack means ok
        slack = audit[f"{name}_worst_slack"]
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
    if doc.get("diagram"):
        lines.append("")
        lines += _diagram_lines("-- diagram --", doc["diagram"])
    if doc.get("reduced_diagram"):
        lines.append("")
        lines += _diagram_lines("-- reduced diagram --", doc["reduced_diagram"])
    if doc.get("ternary_center") is not None:
        lines.append("")
        lines.append(f"ternary center: {doc['ternary_center']:+.9f}")
    if doc.get("q_devices_mutual") is not None:
        lines.append(f"quantum:devices mutual: {doc['q_devices_mutual']:.9f}")
    if doc.get("sampled"):
        lines.append("")
        lines += _sampled_lines(doc["sampled"])
    if doc.get("orthodox"):
        lines.append("")
        lines += _orthodox_lines(doc["orthodox"])
    if doc.get("chsh"):
        lines.append("")
        lines += _chsh_lines(doc["chsh"])
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
    if "mutual" in block:
        lines.append(
            f"empirical mutual = {block['mutual']:.9f} (exact {block['exact_mutual']:.9f})"
        )
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
