"""Bulk text of float columns, byte for byte as Python prints each value.

``csv_rows`` renders rows of ``"%.12e"`` fields and ``json_text`` renders
``json.dumps(doc, indent=2)`` without formatting the floats of a column one
by one.  Both prove each value's text by integer arithmetic on one exact
decomposition of whole arrays (:func:`_decimal`): the correctly rounded
13-digit mantissa of ``fmt`` (CPython's dtoa) for csv, the shortest
round-trip digits of ``repr`` for JSON.  Every value a proof does not
cover goes through ``fmt``, or through ``json.dumps`` itself, so each
format has one definition.  Because the proofs, not ``log10``, fix the
digits, the text is the same on every numpy dispatch path.

``csv_rows`` yields its text chunk by chunk, as each chunk of rows is
formed.  A chunk whose values are all proven and none negative (the St
column of zeros at T = 0 included) is laid out in fields of exactly 18
bytes; any other chunk in NUL-padded slots, the NULs then dropped.
``json_text`` returns a list of pieces.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator

import numpy as np

# the longest "%.12e" text of a double, "-1.234567890123e-308"
_SLOT = 20
# every proven "%.12e" text without a sign, "1.234567890123e-06"
_FIELD = 18
# decimal exponents e of the exact decomposition: 10**(16 - e) is then an
# exact double, at most 1e22
_EXP_MIN, _EXP_MAX = -6, 16
_TEN = np.array([float(10 ** k) for k in range(23)])
# Dekker's split of each 10**k into two halves of at most 26 bits
_SPLITTER = 2.0 ** 27 + 1.0
_TEN_HI = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LO = _TEN - _TEN_HI
# the text after a "%.12e" mantissa, "e-06" to "e+17", by e - _EXP_MIN;
# e runs one past _EXP_MAX for a mantissa that rounds up to 10**13
_EXP_TEXT = np.array([list(f"e{e:+03d}".encode())
                      for e in range(_EXP_MIN, _EXP_MAX + 2)], np.uint8)
# values formatted per chunk, which bounds the temporaries of a large grid
_CHUNK = 1 << 13
_DIGIT = ord("0")

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


# _REPR_TEMPLATE[(e - _EXP_MIN) * 17 + n - 1]; e runs one past _EXP_MAX
# for a value whose 17 digits round up to 10**(e + 1)
_REPR_TEMPLATE = np.array([_repr_template(e, n)
                           for e in range(_EXP_MIN, _EXP_MAX + 2)
                           for n in range(1, 18)], np.uint8)


def fmt(value) -> str:
    """The one definition of a CLI float field."""
    return f"{value:.12e}"


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


def _decimal(x):
    """(e, A, f, ok): |x| = (A + f) * 10**(e - 16) exactly where ok, with
    the int64 A in [1e16, 1e17) and f in [0, 1).

    ``log10`` proposes e, clipped to [-6, 16] so that 10**(16 - e) is an
    exact double.  Dekker's TwoProduct (no FMA needed) forms Y = |x| *
    10**(16 - e) exactly as p + err, p = fl(Y) an integer once Y >= 2**53,
    so A = p + floor(err) and f = err - floor(err) are exact.  A miss of
    ``log10`` by one leaves A outside [1e16, 1e17), and ok false.
    """
    a = np.abs(x)
    ok = (a >= 1e-6) & (a < 1e17)
    a = np.where(ok, a, 1.5)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), _EXP_MIN, _EXP_MAX)
    k = 16 - e
    ten, ten_hi, ten_lo = _TEN[k], _TEN_HI[k], _TEN_LO[k]
    p = a * ten
    big = a * _SPLITTER
    a_hi = big - (big - a)
    a_lo = a - a_hi
    err = ((a_hi * ten_hi - p) + a_hi * ten_lo + a_lo * ten_hi) \
        + a_lo * ten_lo
    whole = np.floor(err)
    big_a = p.astype(np.int64) + whole.astype(np.int64)
    ok &= (big_a >= 10 ** 16) & (big_a < 10 ** 17)
    return e, big_a, err - whole, ok


def _fast(x):
    """(q, e, ok): the "%.12e" text of x is [-]d.dddddddddddde±XX, with
    the 13 digits of q and the decimal exponent e, where ok.

    The mantissa is (A + f) / 10**4 rounded (:func:`_decimal`): q = A //
    10**4 and r = A - 10**4 * q, rounded up when r > 5000, or r == 5000
    and f > 0.  An exact tie (r == 5000, f == 0) is left to ``fmt``; q + 1
    = 10**13 is 10**12 at e + 1.  Zero, either sign, is q = 0 at e = 0.
    Where ok, e lies in [-6, 17].
    """
    e, big_a, f, ok = _decimal(x)
    q = big_a // 10 ** 4
    r = big_a - q * 10 ** 4
    ok &= (r != 5000) | (f != 0)
    q += r >= 5000
    top = q == 10 ** 13
    q[top] = 10 ** 12
    e += top
    zero = x == 0
    ok |= zero
    q[zero] = 0
    e[zero] = 0
    return q, e, ok


def _lay_out(out, q, e):
    """Write the _FIELD bytes "d.dddddddddddde±XX" of each mantissa q and
    exponent e from :func:`_fast` into out[..., :_FIELD]; q and e are flat,
    in the order of out's leading axes."""
    shape = out.shape[:-1]
    digits = _digit_table(q)
    out[..., 0] = digits[4].reshape(shape)
    out[..., 1] = ord(".")
    out[..., 2:14] = digits[5:].T.reshape(shape + (12,))
    out[..., 14:_FIELD] = _EXP_TEXT.take(e - _EXP_MIN, axis=0) \
        .reshape(shape + (4,))


def _shortest(x):
    """(slots, ok): repr of x as NUL-padded bytes, valid where ok.

    Row i of ``slots`` holds repr(x[i]) if ok[i]; the other rows are left
    for ``json.dumps``.  With Y = A + f (:func:`_decimal`), the decimals
    that read back as x are those within H = ulp(x)/2 of Y, scaled as Y:
    an exact double in (0.55, 11.2).  The interval is symmetric except at
    a power of two, which is left to ``json.dumps``.  So the nearest
    17-digit integer, within 1/2 of Y, always reads back.  A shorter
    candidate N, the nearest multiple of 100 (then stripped of its zeros)
    or else of 10, is taken only if |Y - N| < H: s = fl((A - N) + f) is Y
    - N correctly rounded, and |s| < H, with H a double, proves it, while
    |s| == H leaves the value to ``json.dumps``.  The interval is narrower
    than 100, so a multiple of 100 in it is the only one and the shortest;
    repr takes the nearest of several shortest candidates, so a tie (Y =
    10m + 5, or f = 1/2) is left to ``json.dumps`` too.
    """
    e, big_a, f, ok = _decimal(x)
    zero = x == 0
    mant, exp = np.frexp(np.abs(x))
    # a power of two has a rounding interval twice as wide above as below
    ok &= (mant != 0.5) & (f != 0.5)
    half = np.ldexp(_TEN[16 - e], exp - 54)

    tens = big_a // 10
    last = big_a - tens * 10
    ok &= (last != 5) | (f != 0)
    n10 = (tens + (last >= 5)) * 10
    hundreds = tens // 10
    n100 = (hundreds + (big_a - hundreds * 100 >= 50)) * 100
    gap10 = np.abs((big_a - n10).astype(np.float64) + f)
    gap100 = np.abs((big_a - n100).astype(np.float64) + f)
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
    slots &= _REPR_TEMPLATE.take((e - _EXP_MIN) * 17 + count - 1, axis=0)
    slots[:, 0] = np.signbit(x) * ord("-")
    return slots, ok


def _patch(slots, miss, x, texts):
    """Write the text of each x[miss], NUL-padded, into the byte rows
    slots[miss], from ``texts``, which maps a list of floats to their
    texts."""
    if miss.any():
        # one text per distinct bit pattern: a column of NaN is one
        bits, where = np.unique(x[miss].view(np.int64), return_inverse=True)
        width = slots.shape[-1]
        text = np.array(texts(bits.view(np.float64).tolist()),
                        dtype=f"S{width}")
        slots[miss] = text.view(np.uint8).reshape(-1, width)[where]


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


def _rows(lead, n, k, width):
    """(lines, fields): a chunk's buffer of n lines, each the bytes ``lead``
    then k fields of ``width`` bytes, each field followed by a comma and
    the last by a newline, and the (n, k, width) view of the fields."""
    lines = np.empty((n, lead.size + k * (width + 1)), np.uint8)
    lines[:, :lead.size] = lead
    fields = lines[:, lead.size:].reshape(n, k, width + 1)
    fields[:, :, width] = ord(",")
    fields[:, -1, width] = ord("\n")
    return lines, fields[:, :, :width]


def csv_rows(cols, prefix: str = "") -> Iterator[str]:
    """Rows of "%.12e" fields of the equal-length columns, comma-separated.

    Each line starts with ``prefix`` and ends with a newline.  The text is
    yielded one chunk of rows at a time, in pieces of whole lines to be
    written as they come; the columns are stacked a chunk at a time too,
    so no copy of the whole table or of its text is made.

    Where :func:`_fast` proves every value of a chunk and none has its sign
    bit set, every field is exactly _FIELD bytes, and the digits go
    straight into the chunk's lines.  A chunk that holds a negative
    value or -0.0, NaN, an infinity or a value the proof leaves to ``fmt``
    is laid out in NUL-padded slots of _SLOT bytes instead, and the NULs
    are dropped from its text.
    """
    lengths = {len(col) for col in cols}
    if len(lengths) != 1:
        raise ValueError(f"columns of equal length needed, got {lengths}")
    (size,) = lengths
    lead = np.frombuffer(prefix.encode("ascii"), np.uint8)
    k = len(cols)
    per_chunk = max(1, _CHUNK // k)
    for start in range(0, size, per_chunk):
        block = np.column_stack([col[start:start + per_chunk]
                                 for col in cols]).astype(np.float64,
                                                          copy=False)
        n = len(block)
        with np.errstate(all="ignore"):
            q, e, ok = _fast(block.ravel())
        negative = np.signbit(block)
        if ok.all() and not negative.any():
            lines, fields = _rows(lead, n, k, _FIELD)
            _lay_out(fields, q, e)
            yield str(lines, "ascii")
            continue
        lines, slots = _rows(lead, n, k, _SLOT)
        slots[..., 0] = negative * ord("-")
        _lay_out(slots[..., 1:], q, e)
        slots[..., _FIELD + 1:] = 0
        _patch(slots, ~ok.reshape(n, k), block, _fmt_texts)
        yield _ascii(lines)


def _json_lines(values, pad: int) -> list[str]:
    """The lines of a non-empty float array in json.dumps(indent=2), each
    value at ``pad`` spaces and all but the last followed by a comma."""
    x = values.astype(np.float64, copy=False)
    parts = []
    for start in range(0, len(x), _CHUNK):
        block = x[start:start + _CHUNK]
        lines = np.empty((len(block), pad + _R_SLOT + 2), np.uint8)
        lines[:, :pad] = ord(" ")
        with np.errstate(all="ignore"):
            slots, ok = _shortest(block)
        _patch(slots, ~ok, block, _json_texts)
        lines[:, pad:-2] = slots
        lines[:, -2] = ord(",")
        lines[:, -1] = ord("\n")
        if start + _CHUNK >= len(x):
            lines[-1, -2] = 0
        parts.append(_ascii(lines))
    return parts


_COLUMN_MARK = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def json_text(doc) -> list[str]:
    """json.dumps(doc, indent=2) plus a newline; arrays in doc are float lists.

    The text is returned as a list of pieces of whole lines, one per chunk
    of an array's values, to be written one after another.  The document without its arrays
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
