"""The state-file format, its limits, serialize_state and the reader behind
report.load_state.  The layout serialize_state writes, {"kind", "dims",
"data": [[re, im], ...]} and a newline, is read from the file's bytes without
a Python object per entry: the header goes through json.loads alone, then
the data a slice at a time, so no str of the whole file is made.  Imports
nothing from report; scenario and chsh never compile it."""

import codecs
import json
import math
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .errors import ValidationError
from .linalg import _LANES, DensityOperator, PureState

# Largest total dimension a state file may declare: a density file's diagram
# works on its dense 2**12 x 2**12 matrix (256 MB) at this size.  A pure
# file's builds no such matrix, only Gram matrices of at most 2**6 on a side;
# one cap still gates both kinds.
MAX_DENSE_DIM = 2**12
# The largest canonical density file at the cap: 54 bytes an entry at most,
# "[-2.2250738585072014e-308, -2.2250738585072014e-308], ", plus the header.
MAX_BYTES = 54 * MAX_DENSE_DIM**2 + 2**10
_HEAD, _SEP = b', "data": [[', b"], ["
# Data text per json.loads call, about 350 entries, and bytes per UTF-8
# check: a chunk's Python objects stay a small, fixed size however large
# the file is.
_CHUNK = 2**14
_decode = json.JSONDecoder(parse_int=str).decode  # an int entry makes a str array


def _header(p: Path, doc) -> tuple[str, list, int]:
    """Kind, dims and entry count of a parsed state file; data is not read."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{p}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in ("pure", "density"):
        raise ValidationError(f"{p}: kind: expected 'pure' or 'density', got {kind!r}")
    # type() rather than isinstance: JSON true/false load as bool, an int subclass
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or not all(type(d) is int and d >= 2 for d in dims):
        raise ValidationError(f"{p}: dims: expected a nonempty list of integers >= 2")
    # each dim is >= 2, so a list with as many factors as the cap has bits is
    # over it; its product would take time quadratic in the list's length
    if len(dims) >= MAX_DENSE_DIM.bit_length() or math.prod(dims) > MAX_DENSE_DIM:
        raise ValidationError(f"{p}: dims: total dimension is over the limit of {MAX_DENSE_DIM}")
    d = math.prod(dims)
    return kind, dims, d if kind == "pure" else d * d


def read_canonical(raw: bytes, p: Path):
    """(kind, dims, complex entries) of UTF-8 text in the canonical layout, or
    None for any other text, a key after the data (it may override the header)
    or any entry but a pair of JSON floats.  _header, which may raise, runs
    first.  Each slice is decoded before json reads it, so json never guesses
    an encoding."""
    start = raw.find(_HEAD)
    stop = len(raw) - raw.endswith(b"\n") - 3
    if start < 0 or not raw.startswith(b"]]}", stop) or raw.find(b'"', start + len(_HEAD), stop) >= 0:
        return None
    try:  # a UnicodeDecodeError is a ValueError
        head = json.loads(raw[:start].decode() + "}")
    except (ValueError, RecursionError):
        return None
    if not head:  # '{, "data": ...' is not JSON
        return None
    kind, dims, need = _header(p, head)
    pos = start + len(_HEAD)
    if raw.count(_SEP, pos, stop) + 1 != need:
        return None
    out, done = np.empty((need, 2)), 0
    while pos < stop:
        cut = raw.find(_SEP, pos + _CHUNK, stop)
        cut = stop if cut < 0 else cut
        try:
            text = "[[" + raw[pos:cut].decode() + "]]"
            rows = np.array(_decode(text))
        except (ValueError, RecursionError):
            return None
        # floats alone make a float64 (n, 2) array; so do floats and bools
        if (rows.dtype != np.float64 or rows.shape[1:] != (2,) or done + len(rows) > need
                or "true" in text or "false" in text):
            return None
        out[done:done + len(rows)] = rows
        done, pos = done + len(rows), cut + len(_SEP)
    return kind, dims, out.view(complex).reshape(-1)


def _read_whole(p: Path, raw: str) -> tuple[str, list, np.ndarray]:
    """Any layout: json.loads on the whole text, then one complex() per entry."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ValidationError(f"{p}: invalid JSON: {exc}") from None
    kind, dims, need = _header(p, doc)
    data = doc.get("data")
    if not isinstance(data, list):
        raise ValidationError(f"{p}: data: expected a list of [re, im] pairs")
    values = np.empty(len(data), dtype=complex)
    for i, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2 or not all(type(x) in (int, float) for x in entry):
            raise ValidationError(f"{p}: data[{i}]: expected [re, im]")
        try:
            values[i] = complex(entry[0], entry[1])
        except OverflowError:
            raise ValidationError(f"{p}: data[{i}]: number too large for a float") from None
    if len(data) != need:
        what = "amplitudes" if kind == "pure" else "entries"
        raise ValidationError(f"{p}: data: {len(data)} {what} but dims {dims} need {need}")
    return kind, dims, values


def _check_utf8(data) -> None:
    """Raise the UnicodeDecodeError of data's first invalid byte, its offsets
    counted from data's start.  Decodes _CHUNK bytes at a time (4 at least,
    the longest UTF-8 sequence) and keeps none of the text."""
    view, pos, step = memoryview(data), 0, max(_CHUNK, 4)
    while pos < len(data):
        try:
            pos += codecs.utf_8_decode(view[pos : pos + step], "strict", pos + step >= len(data))[1]
        except UnicodeDecodeError as exc:
            exc.start, exc.end = exc.start + pos, exc.end + pos
            raise


def read_state(path) -> tuple[str, list, np.ndarray]:
    """Kind, dims and complex entries of a state file; the file's bytes are
    dropped on return.  A canonical file is parsed from its bytes alone;
    another layout is decoded whole for json.loads.  Every failure is one
    ValidationError line."""
    p = Path(path)
    too_large = ValidationError(f"{p}: file size is over the limit of {MAX_BYTES} bytes")
    try:
        st = p.stat()
        if st.st_size > MAX_BYTES:
            raise too_large
        with p.open("rb") as f:
            # a device or a pipe reports no size, so it is read a chunk at a
            # time to past the cap: read(n) would allocate all n bytes at once
            data = f.read() if S_ISREG(st.st_mode) else bytearray()
            while len(data) <= MAX_BYTES and (chunk := f.read(2**14)):
                data += chunk
        if len(data) > MAX_BYTES:
            raise too_large
        _check_utf8(data)
        if b"\r" in data:  # the newlines text mode reads as "\n"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return read_canonical(data, p) or _read_whole(p, data.decode())
    except OSError as exc:
        raise ValidationError(f"{p}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except MemoryError:
        raise ValidationError(f"{p}: too large to load into memory") from None


def serialize_state(state: PureState | DensityOperator) -> str:
    """Full-precision JSON for a state file, in the form load_state reads:
    unlike report documents, rounded to 9 digits, it reloads exactly.  The
    data is written 4,096 entries at a time, not as one list per entry."""
    pure = isinstance(state, PureState)
    flat = state.amplitudes if pure else state.matrix.reshape(-1)
    rows = np.ascontiguousarray(flat, dtype=complex).view(float).reshape(-1, 2)
    head = json.dumps({"kind": "pure" if pure else "density", "dims": list(state.dims)})[:-1]
    data = ", ".join(json.dumps(rows[i:i + _LANES].tolist())[1:-1] for i in range(0, len(rows), _LANES))
    return f'{head}, "data": [{data}]}}\n'
