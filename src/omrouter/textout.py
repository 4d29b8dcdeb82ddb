"""Bulk text of float columns, byte for byte as Python prints each value.

``csv_rows`` renders rows of ``"%.12e"`` fields and ``json_text`` renders
``json.dumps(doc, indent=2)`` without formatting the floats of a column one
by one.  Most values get their digits from integer arithmetic on whole
arrays, and each of those is proven to be the text Python prints: the
correctly rounded 13-digit mantissa of ``fmt`` (CPython's dtoa) for csv,
the shortest round-trip digits of ``repr`` for JSON.  Every value a proof
does not cover goes through ``fmt``, or through ``json.dumps`` itself, so
each format has one definition.  Because the proofs, not ``log10``, fix
the digits, the text is the same on every numpy dispatch path.
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

# decimal exponents e of the shortest-repr proof: 10**(16 - e) is then an
# exact double, at most 1e22
_R_MIN, _R_MAX = -6, 16
_TEN = np.array([float(10 ** k) for k in range(23)])
# Dekker's split of each 10**k into two halves of at most 26 bits
_SPLITTER = 2.0 ** 27 + 1.0
_TEN_HI = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LO = _TEN - _TEN_HI
# a repr's bytes, NUL where unused: sign, "0.", 3 zeros, the 17 digits
# each followed by a place for the point (none after the last), "e-05";
# wide enough for any repr, "-2.2250738585072014e-308" included
_R_SLOT = 43
_R_DIGITS = slice(6, 39, 2)


def _repr_template(e, n):
    """repr's layout of n significant digits at decimal exponent e.

    It is an AND mask on a row that holds the 17 digits at _R_DIGITS and
    0xFF elsewhere: 0xFF keeps a digit, 0 drops it, and any other byte is
    written as it is.  Fixed notation for -4 <= e < 16, as repr writes it
    ("0.00012", "12000.0", "1.5"), else d1.d2...dn then "e-05" or "e+16"
    ("1e+16").
    """
    row = bytearray(_R_SLOT)
    if e < -4 or e >= 16:
        keep, point = n, 1 if n > 1 else 0
        row[39:43] = f"e{e:+03d}".encode()
    elif e < 0:
        keep, point = n, 0
        row[1:2 - e] = b"0." + b"0" * (-e - 1)
    else:
        # the integer digits, zeros included, and at least one after the point
        keep, point = max(n, e + 2), e + 1
    row[_R_DIGITS] = b"\xff" * keep + b"\0" * (17 - keep)
    if point:
        row[5 + 2 * point] = ord(".")
    return list(row)


# _REPR_TEMPLATE[(e - _R_MIN) * 17 + n - 1]; e runs one past _R_MAX for a
# value whose 17 digits round up to 10**(e + 1)
_REPR_TEMPLATE = np.array([_repr_template(e, n)
                           for e in range(_R_MIN, _R_MAX + 2)
                           for n in range(1, 18)], np.uint8)


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


def _digit_table(n):
    """(17, len(n)) uint8: the ASCII digits of each int64 in [0, 1e17),
    zero-padded, most significant first.

    The 8 + 9 digits of n // 10**9 and n % 10**9 come from 32-bit
    arithmetic, two rows at a time; // by a scalar is far cheaper than %
    or divmod.
    """
    high = n // 10 ** 9
    q = np.stack([high, n - high * 10 ** 9]).astype(np.uint32)
    table = np.empty((2, 9, len(n)), np.uint8)
    for row in range(8, -1, -1):
        rest = q // 10
        table[:, row] = q - rest * 10
        q = rest
    table += _DIGIT
    # the first of the 18 rows is the leading zero of n // 10**9
    return table.reshape(18, -1)[1:]


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
    digits = _digit_table(m.astype(np.int64))
    slots[:, 1] = digits[4]
    slots[:, 3:15] = digits[5:].T
    return slots, ok


def _shortest(x):
    """(slots, ok): repr of x as NUL-padded bytes, valid where ok.

    Row i of ``slots`` holds repr(x[i]) if ok[i]; the other rows are left
    for ``json.dumps``.  For |x| with decimal exponent e in [-6, 16], Y =
    |x| * 10**(16 - e) is formed exactly as p + err by Dekker's TwoProduct
    (10**(16 - e) is an exact double, and no FMA is needed), and split into
    the integer A in [1e16, 1e17) and the fraction f = Y - A in [0, 1).
    The decimals that read back as x are those within H = ulp(x)/2 scaled
    by the same power of ten, an exact double in (0.55, 11.2): the
    interval is symmetric except at a power of two, which is left to
    ``json.dumps``.  So the nearest 17-digit integer, within 1/2 of Y,
    always reads back.  A shorter candidate N, the nearest multiple of 100
    (then stripped of its zeros) or else of 10, is taken only if |Y - N| <
    H: s = fl((p - N) + err) is Y - N correctly rounded, and |s| < H, with
    H a double, proves it, while |s| == H leaves the value to
    ``json.dumps``.  The interval is narrower than 100, so a multiple of
    100 in it is the only one and the shortest; repr takes the nearest of
    several shortest candidates, so a tie (Y = 10m + 5, or f = 1/2) is left
    to ``json.dumps`` too.  ``log10`` only proposes e: a miss leaves A
    outside [1e16, 1e17) and the value to ``json.dumps``.
    """
    a = np.abs(x)
    zero = a == 0
    ok = (a >= 1e-6) & (a < 1e17)
    a = np.where(ok, a, 1.5)
    mant, exp = np.frexp(a)
    # a power of two has a rounding interval twice as wide above as below
    ok &= mant != 0.5
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), _R_MIN, _R_MAX)
    k = 16 - e
    ten, ten_hi, ten_lo = _TEN[k], _TEN_HI[k], _TEN_LO[k]
    p = a * ten
    big = a * _SPLITTER
    a_hi = big - (big - a)
    a_lo = a - a_hi
    err = ((a_hi * ten_hi - p) + a_hi * ten_lo + a_lo * ten_hi) \
        + a_lo * ten_lo
    whole = np.floor(err)
    p_int = p.astype(np.int64)
    big_a = p_int + whole.astype(np.int64)
    f = err - whole
    half = np.ldexp(ten, exp - 54)
    ok &= (big_a >= 10 ** 16) & (big_a < 10 ** 17) & (f != 0.5)

    tens = big_a // 10
    last = big_a - tens * 10
    ok &= (last != 5) | (f != 0)
    n10 = (tens + (last >= 5)) * 10
    hundreds = tens // 10
    n100 = (hundreds + (big_a - hundreds * 100 >= 50)) * 100
    gap10 = np.abs((p_int - n10).astype(np.float64) + err)
    gap100 = np.abs((p_int - n100).astype(np.float64) + err)
    ok &= (gap10 != half) & (gap100 != half)
    short, sixteen = gap100 < half, gap10 < half
    n = np.where(short, n100, np.where(sixteen, n10, big_a + (f > 0.5)))
    # 17 digits rounded up to 10**17: one digit, next decade
    top = n == 10 ** 17
    n[top] = 10 ** 16
    e += top
    # zero is "0.0", the one digit 0 at e = 0
    ok |= zero
    n[zero] = 0
    e[zero] = 0

    digits = _digit_table(n)
    # a 17-digit pick ends in a nonzero digit (else the multiple of 10
    # nearest Y would be as near, and taken), and a multiple of 10 taken
    # is not one of 100 (else that would be taken): only the digits of a
    # multiple of 100 are counted
    count = np.where(sixteen, 16, 17)
    rows = np.flatnonzero(short)
    count[rows] = 17 - np.argmax(digits[::-1, rows] != _DIGIT, axis=0)
    count[zero] = 1
    slots = np.full((len(x), _R_SLOT), 0xFF, np.uint8)
    slots[:, _R_DIGITS] = digits.T
    slots &= _REPR_TEMPLATE.take((e - _R_MIN) * 17 + count - 1, axis=0)
    slots[:, 0] = np.signbit(x) * ord("-")
    return slots, ok


def _text_slots(x, fast, texts, width):
    """Text of every x[i], NUL-padded to one row of ``width`` bytes each:
    ``fast``'s rows where it proved them, else from ``texts``, which maps a
    list of floats to their texts."""
    with np.errstate(all="ignore"):
        slots, ok = fast(x)
    rest = np.flatnonzero(~ok)
    if rest.size:
        # one text per distinct bit pattern: a column of zeros is one
        bits, where = np.unique(x[rest].view(np.int64), return_inverse=True)
        text = np.array(texts(bits.view(np.float64).tolist()),
                        dtype=f"S{width}")
        slots[rest] = text.view(np.uint8).reshape(-1, width)[where]
    return slots


def _fmt_texts(values):
    """The "%.12e" text of each float in the list ``values``."""
    return [fmt(v) for v in values]


def _json_texts(values):
    """The text json.dumps gives each float in the list ``values``: repr,
    NaN, Infinity or -Infinity, from one call of its C encoder."""
    return json.dumps(values)[1:-1].split(", ")


def _ascii(lines) -> str:
    """A uint8 array of NUL-padded text as one string, NULs dropped."""
    return lines.tobytes().translate(None, b"\0").decode("ascii")


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
        fields[:, :, :_SLOT] = _text_slots(block.ravel(), _fast, _fmt_texts,
                                           _SLOT).reshape(n, k, _SLOT)
        fields[:, :, _SLOT] = ord(",")
        fields[:, -1, _SLOT] = ord("\n")
        lines = np.empty((n, lead.size + k * (_SLOT + 1)), np.uint8)
        lines[:, :lead.size] = lead
        lines[:, lead.size:] = fields.reshape(n, -1)
        parts.append(_ascii(lines))
    return parts


def _json_lines(values, pad: int) -> list[str]:
    """The lines of a non-empty float array in json.dumps(indent=2), each
    value at ``pad`` spaces and all but the last followed by a comma."""
    x = values.astype(np.float64, copy=False)
    parts = []
    for start in range(0, len(x), _CHUNK):
        block = x[start:start + _CHUNK]
        lines = np.empty((len(block), pad + _R_SLOT + 2), np.uint8)
        lines[:, :pad] = ord(" ")
        lines[:, pad:-2] = _text_slots(block, _shortest, _json_texts,
                                         _R_SLOT)
        lines[:, -2] = ord(",")
        lines[:, -1] = ord("\n")
        if start + _CHUNK >= len(x):
            lines[-1, -2] = 0
        parts.append(_ascii(lines))
    return parts


_COLUMN_MARK = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def json_text(doc) -> list[str]:
    """json.dumps(doc, indent=2) plus a newline; arrays in doc are float lists.

    The text is returned in pieces of whole lines, to be written one after
    another, as ``csv_rows`` returns it.  The document without its arrays
    is laid out by json.dumps; each array's values are laid out one to a
    line, in the text ``json.dumps`` gives a float (repr, NaN, Infinity).
    """
    columns = []

    def mark(node):
        if isinstance(node, dict):
            return {key: mark(value) for key, value in node.items()}
        if isinstance(node, list):
            return [mark(value) for value in node]
        if isinstance(node, np.ndarray):
            columns.append(node)
            return f"\0{len(columns) - 1}"
        return node

    skeleton = json.dumps(mark(doc), indent=2) + "\n"
    parts, head, at = [], "", 0
    for hit in _COLUMN_MARK.finditer(skeleton):
        head += skeleton[at:hit.start(2)] + hit[2]
        at = hit.end()
        column = columns[int(hit[3])]
        if column.size == 0:
            head += "[]"
            continue
        parts.append(head + "[\n")
        parts += _json_lines(column, len(hit[1]) + 2)
        head = hit[1] + "]"
    parts.append(head + skeleton[at:])
    return parts
