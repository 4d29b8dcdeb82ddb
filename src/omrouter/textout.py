"""Bulk text of float columns, byte for byte as Python prints each value.

``csv_rows`` renders rows of ``"%.12e"`` fields without formatting them one
by one: most values get their 13 digits from integer arithmetic on whole
arrays, and each of those is proven to be the correctly rounded mantissa
that ``fmt`` (CPython's dtoa) would print.  Every value the proof does not
cover goes through ``fmt`` itself, so the format has one definition.
``json_text`` is ``json.dumps(doc, indent=2)`` whose float columns are
encoded by the json module's C encoder.
"""

from __future__ import annotations

import json
import re

import numpy as np

# the longest "%.12e" text of a double, "-1.234567890123e-308"
_SLOT = 20
# decimal exponents e of the fast path: 10**(12 - e) and 10**|e - 13| are
# then at most 1e22, and every power of ten up to 1e22 is an exact double
_E_MIN, _E_MAX = -9, 22
# 10**k for k in [-22, 22] is _UP[k + 22] / _DOWN[k + 22]
_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DOWN = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])
# the text after the mantissa, "e-09" to "e+22", by e - _E_MIN
_EXP_TEXT = np.array([list(f"e{e:+03d}".encode())
                      for e in range(_E_MIN, _E_MAX + 1)], np.uint8)
# values formatted per chunk, which bounds the temporaries of a large grid
_CHUNK = 1 << 13
_DIGIT = ord("0")


def fmt(value) -> str:
    """The one definition of a CLI float field."""
    return f"{value:.12e}"


def _pow10(k):
    """10**k for integers k in [-22, 22] as factors (up, down).

    One of the two is 1.0, so x * up / down is x * 10**k with one correctly
    rounded operation on exact operands.
    """
    return (np.take(_UP, k + 22, mode="clip"),
            np.take(_DOWN, k + 22, mode="clip"))


def _fast(x):
    """(slots, ok): "%.12e" text of x as NUL-padded bytes, valid where ok.

    Row i of ``slots`` holds the text of x[i] if ok[i]; the other rows are
    left for ``fmt``.  For |x| with decimal exponent e in [-9, 22], the
    candidate mantissa m = rint(|x| * 10**(12 - e)), an integer in
    [1e12, 1e13), is accepted only when
    fl((10m - d) * 10**(e - 13)) < |x| < fl((10m + 5) * 10**(e - 13)),
    with d = 5, or d = 0.5 when m = 1e12: below 10**e the next 13-digit
    value down is 9.999999999999 * 10**(e - 1), ten times nearer.  Both
    10m - d and 10m + 5 are exact doubles below 2**53, as is the power of
    ten, so each bound is the correctly rounded true midpoint.  A double below the rounded upper
    midpoint is below the true one (else the rounding would have found a
    nearer double, itself), and likewise above the lower one; so |x| lies
    strictly between the midpoints around m, which makes m the correctly
    rounded 13-digit mantissa and rules out a tie.  The proof holds for any
    candidate, so the candidate itself need not be exact.
    """
    a = np.abs(x)
    ok = (a >= 1e-9) & (a < 1e23)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    up, down = _pow10(12 - e)
    m = np.rint(a * up / down)
    # the mantissa carried into the next decade (or log10 missed by one,
    # just below a power of ten): 10**13 * 10**(e - 12) is 10**12 * 10**(e+1)
    carry = m >= 1e13
    e += carry
    m[carry] = 1e12
    ok &= (e >= _E_MIN) & (e <= _E_MAX) & (m >= 1e12)
    ten_m = m * 10.0
    up, down = _pow10(e - 13)
    lo = ten_m - np.where(m == 1e12, 0.5, 5.0)
    ok &= (lo * up / down < a) & (a < (ten_m + 5.0) * up / down)

    slots = np.zeros((len(x), _SLOT), np.uint8)
    slots[:, 0] = np.signbit(x) * ord("-")
    slots[:, 2] = ord(".")
    slots[:, 15:19] = np.take(_EXP_TEXT, e - _E_MIN, axis=0, mode="clip")
    q = m.astype(np.int64)
    for col in (14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1):
        # // by a scalar is far cheaper than % or divmod on int64 arrays
        rest = q // 10
        slots[:, col] = q - rest * 10 + _DIGIT
        q = rest
    return slots, ok


def _slots(x):
    """"%.12e" text of every x[i], NUL-padded to one row of bytes each."""
    with np.errstate(all="ignore"):
        slots, ok = _fast(x)
    rest = np.flatnonzero(~ok)
    if rest.size:
        # one fmt call per distinct bit pattern: a column of zeros is one
        bits, where = np.unique(x[rest].view(np.int64), return_inverse=True)
        text = np.array([fmt(v) for v in bits.view(np.float64).tolist()],
                        dtype=f"S{_SLOT}")
        slots[rest] = text.view(np.uint8).reshape(-1, _SLOT)[where]
    return slots


def csv_rows(cols, prefix: str = "") -> list[str]:
    """Rows of "%.12e" fields of the equal-length columns, comma-separated.

    Each line starts with ``prefix`` and ends with a newline.  The text is
    returned in pieces of whole lines, to be written one after another: no
    string longer than one chunk is built.
    """
    table = np.column_stack(cols).astype(np.float64, copy=False)
    lead = np.frombuffer(prefix.encode("ascii"), np.uint8)
    per_chunk = max(1, _CHUNK // table.shape[1])
    parts = []
    for start in range(0, len(table), per_chunk):
        block = table[start:start + per_chunk]
        n, k = block.shape
        fields = np.empty((n, k, _SLOT + 1), np.uint8)
        fields[:, :, :_SLOT] = _slots(block.ravel()).reshape(n, k, _SLOT)
        fields[:, :, _SLOT] = ord(",")
        fields[:, -1, _SLOT] = ord("\n")
        lines = np.empty((n, lead.size + k * (_SLOT + 1)), np.uint8)
        lines[:, :lead.size] = lead
        lines[:, lead.size:] = fields.reshape(n, -1)
        parts.append(lines.tobytes().translate(None, b"\0").decode("ascii"))
    return parts


_COLUMN_MARK = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def _json_column(values, indent: str) -> str:
    """A float list as json.dumps(indent=2) lays it out at ``indent``."""
    flat = json.dumps(values)
    if flat == "[]":
        return flat
    pad = indent + "  "
    return "[\n" + pad + flat[1:-1].replace(", ", ",\n" + pad) \
        + "\n" + indent + "]"


def json_text(doc) -> str:
    """json.dumps(doc, indent=2) plus a newline; arrays in doc are float lists.

    ``indent=2`` sends json.dumps through its pure-Python encoder, so each
    array is encoded flat by the C encoder (the same float repr, NaN and
    Infinity) and laid out afterwards.
    """
    columns = []

    def mark(node):
        if isinstance(node, dict):
            return {key: mark(value) for key, value in node.items()}
        if isinstance(node, list):
            return [mark(value) for value in node]
        if isinstance(node, np.ndarray):
            columns.append(node.tolist())
            return f"\0{len(columns) - 1}"
        return node

    skeleton = json.dumps(mark(doc), indent=2)
    return _COLUMN_MARK.sub(
        lambda hit: hit[1] + hit[2]
        + _json_column(columns[int(hit[3])], hit[1]), skeleton) + "\n"
