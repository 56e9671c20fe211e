"""The layout serialize_state writes, {"kind", "dims", "data": [[re, im], ...]}
and a newline, read without a Python object per entry: the header goes
through json.loads alone, then the data a slice at a time."""

import json

import numpy as np

from .report import MAX_DENSE_DIM

# The largest canonical density file at the cap: 54 bytes an entry at most,
# "[-2.2250738585072014e-308, -2.2250738585072014e-308], ", plus the header.
MAX_BYTES = 54 * MAX_DENSE_DIM**2 + 2**10
_HEAD, _SEP = ', "data": [[', "], ["
# Data text per json.loads call, about 350 entries: a chunk's Python objects
# stay a small, fixed size however large the file is.
_CHUNK = 2**14
_decode = json.JSONDecoder(parse_int=str).decode  # an int entry makes a str array


def read_canonical(raw: str, checked):
    """(kind, dims, complex entries) of text in the canonical layout, or None
    for any other text or any entry but a pair of JSON floats.  checked(header)
    gives (kind, dims, entry count), or raises, before any data is parsed."""
    start = raw.find(_HEAD)
    stop = len(raw) - raw.endswith("\n") - 3
    if start < 0 or not raw.startswith("]]}", stop):
        return None
    try:
        head = json.loads(raw[:start] + "}")
    except (ValueError, RecursionError):
        return None
    if not head:  # '{, "data": ...' is not JSON
        return None
    kind, dims, need = checked(head)
    pos = start + len(_HEAD)
    if raw.count(_SEP, pos, stop) + 1 != need:
        return None
    out, done = np.empty((need, 2)), 0
    while pos < stop:
        cut = raw.find(_SEP, pos + _CHUNK, stop)
        cut = stop if cut < 0 else cut
        text = "[[" + raw[pos:cut] + "]]"
        try:
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
