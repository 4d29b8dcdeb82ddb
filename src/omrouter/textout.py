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

Each call is one scratch pass over its values, _CHUNK at a time.  Every
step writes with ``out=`` into one block of rows that the call allocates
(:class:`_Scratch`), and the text goes into one line buffer that the
call's chunks reuse, so a chunk allocates next to nothing and calls share
nothing.  The digits are made eight to a word by SWAR arithmetic
(:func:`_words`; four to a word, at every other byte, for JSON), and each
word goes into the text as one store through a word view of the lines.

``csv_rows`` yields its text chunk by chunk, as each chunk of rows is
formed.  A chunk whose values are all proven and none negative (the St
column of zeros at T = 0 included) is laid out in fields of exactly 18
bytes; any other chunk in NUL-padded slots, the NULs then dropped.
``json_text`` returns a list of pieces.  Its arrays that follow one
another at one indent share chunks, each chunk's lines cut at their ends.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
from collections.abc import Iterator

import numpy as np

# the longest "%.12e" text of a double, "-1.234567890123e-308"
_SLOT = 20
# every proven "%.12e" text without a sign, "1.234567890123e-06"
_FIELD = 18
# decimal exponents e of the exact decomposition: 10**(16 - e) is an exact
# double down to e = -6, and 10**23 = fl(10**23) + 2**23 exactly, the
# extra term carried apart (:func:`_carry`)
_EXP_MIN, _EXP_MAX = -7, 16
_TEN = np.array([float(10 ** k) for k in range(24)])
# Dekker's split of each 10**k into two halves of at most 26 bits
_SPLITTER = 2.0 ** 27 + 1.0
_TEN_HI = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LO = _TEN - _TEN_HI
# the text after a "%.12e" mantissa, "e-07" to "e+17", by e - _EXP_MIN, as
# one little-endian word each; e runs one past _EXP_MAX for a mantissa
# that rounds up to 10**13
_EXP_TEXT = np.array([list(f"e{e:+03d}".encode())
                      for e in range(_EXP_MIN, _EXP_MAX + 2)],
                     np.uint8).view("<u4").ravel()
# values formatted per chunk, which bounds the scratch of a large grid
_CHUNK = 1 << 13

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


class _Scratch:
    """One call's scratch for chunks of up to ``size`` values.

    _ROWS rows of 8-byte words, each read as float64 (:meth:`f`), int64
    (:meth:`i`) or a block of rows (:meth:`rows`) as a step needs it, and
    a last row that holds 8 rows of flags (:meth:`flag`); row 10 holds a
    JSON chunk's values.  It is one array of little-endian words, so the
    bytes of a word of digits are its text on any host; freed whole at the
    end of a call, it raises glibc's mmap and trim thresholds, so the next
    call's scratch comes from the heap without faulting fresh pages in.
    """

    _ROWS = 11

    def __init__(self, size, block=None):
        self.block = np.empty((self._ROWS + 1, size), "<i8") \
            if block is None else block

    def cut(self, n):
        """The scratch of a chunk of n values, n at most its size."""
        return _Scratch(n, self.block[:, :n])

    def i(self, row):
        return self.block[row]

    def f(self, row):
        return self.block[row].view("<f8")

    def rows(self, lo, hi):
        return self.block[lo:hi]

    def flag(self, row):
        return self.block[-1].view(np.bool_).reshape(8, -1)[row]


# SWAR steps (several small numbers in one int64) that turn a number into
# its decimal digits, most significant first in the little-endian word:
# each step (d, m, shift, mask, bits) splits every lane of ``bits`` bits,
# holding an x < d*d, into two lanes of bits/2 that hold x // d and x % d,
# with x // d = ((x * m) >> shift) & mask for every x < d*d.  No lane
# carries into the next, and the word stays below 2**63.  Eight digits to
# a word, one a byte; or four, one in each 16-bit lane
_EIGHT_DIGITS = ((10 ** 4, 109951163, 40, 0x3FFF, 64),
                 (100, 10486, 20, 0x7F0000007F, 32),
                 (10, 103, 10, 0xF000F000F000F, 16))
_FOUR_DIGITS = ((100, 10486, 20, 0x7F, 64),
                (10, 103, 10, 0xF0000000F, 32))
# 0xFF30FF30FF30FF30 as an int64: "0" in each low byte, 0xFF in each high
_WIDE_ZEROS = 0xFF30FF30FF30FF30 - (1 << 64)


def _words(v, t, steps=_EIGHT_DIGITS, zeros=0x3030303030303030):
    """Each int64 of ``v``, in [0, 10**8), turned in place into its 8 ASCII
    digits as one little-endian word, most significant digit first; ``t``
    is scratch of v's shape.

    With _FOUR_DIGITS and _WIDE_ZEROS, each int64 in [0, 10**4) is
    turned into its 4 digits in the low bytes of four 16-bit lanes whose
    high bytes are 0xFF: the AND mask of repr's digits at every other byte
    (:func:`_repr_template`).
    """
    for d, m, shift, mask, bits in steps:
        np.multiply(v, m, out=t)
        np.bitwise_and(np.right_shift(t, shift, out=t), mask, out=t)
        np.left_shift(v, bits // 2, out=v)
        np.subtract(v, np.multiply(t, (d << bits // 2) - 1, out=t), out=v)
    return np.add(v, zeros, out=v)


def _decimal(x, scratch):
    """(e, A, f, ok): |x| = (A + f) * 10**(e - 16) exactly where ok, with
    the int64 A in [1e16, 1e17) and f in [0, 1), in rows 8, 9 and 6 and
    flag 0 of the :class:`_Scratch` ``scratch``; rows 0 to 5 and 7 and the
    other flags are free again on return.

    ``log10`` proposes e, clipped to [-7, 16].  Dekker's TwoProduct (no
    FMA needed) forms |x| * fl(10**(16 - e)) exactly as p + err, p an
    integer once it is >= 2**53; at e = -7 the product's extra term |x| *
    2**23 is added to err exactly (:func:`_carry`).  So Y = |x| *
    10**(16 - e) = p + err, and A = p + floor(err) and f = err -
    floor(err) are exact.  A miss of ``log10`` by one leaves A outside
    [1e16, 1e17), and ok false.
    """
    a, ten, ten_hi, ten_lo, p, a_hi, err, whole = map(scratch.f, range(8))
    e, big_a = scratch.i(8), scratch.i(9)
    ok, miss = scratch.flag(0), scratch.flag(1)
    np.abs(x, out=a)
    np.greater_equal(a, 1e-7, out=ok)
    np.logical_and(ok, np.less(a, 1e17, out=miss), out=ok)
    np.copyto(a, 1.5, where=np.logical_not(ok, out=miss))
    np.floor(np.log10(a, out=p), out=p)
    np.copyto(e, p, casting="unsafe")
    np.clip(e, _EXP_MIN, _EXP_MAX, out=e)
    k = np.subtract(16, e, out=big_a)
    np.take(_TEN, k, out=ten, mode="clip")
    np.take(_TEN_HI, k, out=ten_hi, mode="clip")
    np.take(_TEN_LO, k, out=ten_lo, mode="clip")
    np.multiply(a, ten, out=p)
    big = np.multiply(a, _SPLITTER, out=ten)
    np.subtract(big, np.subtract(big, a, out=a_hi), out=a_hi)
    a_lo = np.subtract(a, a_hi, out=big)
    np.subtract(np.multiply(a_hi, ten_hi, out=err), p, out=err)
    np.add(err, np.multiply(a_hi, ten_lo, out=whole), out=err)
    np.add(err, np.multiply(a_lo, ten_hi, out=whole), out=err)
    np.add(err, np.multiply(a_lo, ten_lo, out=whole), out=err)
    np.floor(err, out=whole)
    seven = np.flatnonzero(np.equal(e, _EXP_MIN, out=miss))
    carried = _carry(a[seven], err[seven]) if seven.size else None
    frac = np.subtract(err, whole, out=err)
    if carried:
        whole[seven], frac[seven] = carried
    np.copyto(big_a, p, casting="unsafe")
    whole_int = scratch.i(2)
    np.copyto(whole_int, whole, casting="unsafe")
    np.add(big_a, whole_int, out=big_a)
    np.logical_and(ok, np.greater_equal(big_a, 10 ** 16, out=miss), out=ok)
    np.logical_and(ok, np.less(big_a, 10 ** 17, out=miss), out=ok)
    return e, big_a, frac, ok


def _carry(a, err):
    """(floor, frac) of err + a * 2**23, exactly, for |x| = a at e = -7.

    c = a * 2**23 is exact.  Knuth's TwoSum gives err + c = total + t
    exactly with |t| <= ulp(total)/2, so the floor is floor(total), less
    one where total is an integer and t < 0, and the fraction (total -
    floor) + t is exact: err + c lies on the grid of ulp(a) * 2**23, at
    least 2**-53 for a >= 1e-7.
    """
    c = a * 2.0 ** 23
    total = err + c
    back = total - err
    t = (err - (total - back)) + (c - back)
    whole = np.floor(total)
    whole -= (whole == total) & (t < 0)
    return whole, (total - whole) + t


def _fast(x, scratch=None):
    """(q, e, ok): the "%.12e" text of x is [-]d.dddddddddddde±XX, with
    the 13 digits of q and the decimal exponent e, where ok; in rows 0 and
    8 and flag 0 of the :class:`_Scratch` ``scratch``, made for x where not
    given.

    The mantissa is (A + f) / 10**4 rounded (:func:`_decimal`): q = A //
    10**4 and r = A - 10**4 * q, rounded up when r > 5000, or r == 5000
    and f > 0.  An exact tie (r == 5000, f == 0) is left to ``fmt``; q + 1
    = 10**13 is 10**12 at e + 1.  Zero, either sign, is q = 0 at e = 0.
    Where ok, e lies in [-7, 17].
    """
    if scratch is None:
        scratch = _Scratch(len(x))
    e, big_a, f, ok = _decimal(x, scratch)
    q, r = scratch.i(0), scratch.i(1)
    up, tie = scratch.flag(1), scratch.flag(2)
    np.floor_divide(big_a, 10 ** 4, out=q)
    np.subtract(big_a, np.multiply(q, 10 ** 4, out=r), out=r)
    np.logical_or(np.not_equal(r, 5000, out=tie), np.not_equal(f, 0, out=up),
                  out=tie)
    np.logical_and(ok, tie, out=ok)
    np.add(q, np.greater_equal(r, 5000, out=up), out=q)
    top = np.equal(q, 10 ** 13, out=up)
    np.copyto(q, 10 ** 12, where=top)
    np.add(e, top, out=e)
    zero = np.equal(x, 0, out=up)
    np.logical_or(ok, zero, out=ok)
    np.copyto(q, 0, where=zero)
    np.copyto(e, 0, where=zero)
    return q, e, ok


def _fields(lines, at, step, k):
    """The stores of k fields a line in the (n, width) uint8 ``lines``,
    the first field at byte ``at`` and each ``step`` bytes after the last:
    (n, k) views of a field's lead digit, of its digits from its third byte
    as a 4- and an 8-byte word, and of its 4-byte exponent.  The views are
    made on the buffer of ``lines``, which must be C-contiguous."""
    n, width = lines.shape

    def view(offset, dtype):
        return np.ndarray((n, k), dtype, lines, at + offset, (width, step))

    return view(0, np.uint8), view(2, "<u4"), view(6, "<i8"), view(14, "<u4")


def _lay_out(fields, q, e, scratch):
    """Store the digits and exponent "d.dddddddddddde±XX" of each mantissa
    q and exponent e from :func:`_fast` through the views ``fields`` of
    :func:`_fields`, all but the point; q and e are flat, in the order of
    the views' (n, k) values, and rows 1 to 5 of the :class:`_Scratch`
    ``scratch`` are overwritten.

    q's 13 digits are its 5 above 10**8 and the 8 below, made into two
    words by :func:`_words`: the first word's bytes are "000" and the five.
    """
    lead, four, eight, exp = fields
    shape = lead.shape
    words = scratch.rows(2, 4)
    head, tail = words
    np.floor_divide(q, 10 ** 8, out=head)
    np.subtract(q, np.multiply(head, 10 ** 8, out=tail), out=tail)
    _words(words, scratch.rows(4, 6))
    lead[...] = head.view(np.uint8)[3::8].reshape(shape)
    four[...] = head.view("<u4")[1::2].reshape(shape)
    eight[...] = tail.reshape(shape)
    index = np.subtract(e, _EXP_MIN, out=scratch.i(1))
    exp[...] = np.take(_EXP_TEXT, index, mode="clip").reshape(shape)


def _shortest(x, scratch=None):
    """(index, ok): repr of x, valid where ok, as the row ``index`` of
    _REPR_TEMPLATE ANDed with its digits, which are left in the
    :class:`_Scratch` ``scratch`` (made for x where not given): the first
    in row 9, the other 16 in rows 0 to 3 as words of four digits
    (:func:`_words`).
    ``index`` is row 8, and ok flag 0.

    The other values are left for ``json.dumps``.  With Y = A + f
    (:func:`_decimal`), the decimals that read back as x are those within
    H = ulp(x)/2 of Y, scaled as Y: an exact double in (0.55, 11.2) for e
    >= -6.  At e = -7 (10**23 is not a double, nor then H) the value is
    left to ``json.dumps``.  The interval is symmetric except at a power
    of two, which is left to ``json.dumps`` too.  So the nearest 17-digit
    integer, within 1/2 of Y, always reads back.  A shorter candidate N,
    the nearest multiple of 100 (then stripped of its zeros) or else of
    10, is taken only if |Y - N| < H: g = fl((A - N) + f) is Y - N
    correctly rounded, and |g| < H, with H a double, proves it, while |g|
    == H leaves the value to ``json.dumps``.  The interval is narrower
    than 100, so a multiple of 100 in it is the only one and the shortest;
    repr takes the nearest of several shortest candidates, so a tie (Y =
    10m + 5, or f = 1/2) is left to ``json.dumps`` too.
    """
    if scratch is None:
        scratch = _Scratch(len(x))
    e, big_a, f, ok = _decimal(x, scratch)
    # gap10 takes the row of mant, and gap100 the int row of binary, once
    # they are read
    mant, half, gap10, gap100 = map(scratch.f, (0, 1, 0, 2))
    tens, last, n10, n100 = map(scratch.i, (3, 4, 5, 7))
    miss, zero, short, sixteen = map(scratch.flag, (1, 2, 3, 4))
    binary = scratch.i(2).view("<i4")[:len(x)]
    np.equal(x, 0, out=zero)
    np.frexp(np.abs(x, out=mant), out=(mant, binary))
    # a power of two has a rounding interval twice as wide above as below
    np.logical_and(ok, np.not_equal(mant, 0.5, out=miss), out=ok)
    np.logical_and(ok, np.not_equal(f, 0.5, out=miss), out=ok)
    np.logical_and(ok, np.greater(e, _EXP_MIN, out=miss), out=ok)
    np.take(_TEN, np.subtract(16, e, out=tens), out=half, mode="clip")
    np.ldexp(half, np.subtract(binary, 54, out=binary), out=half)

    np.floor_divide(big_a, 10, out=tens)
    np.subtract(big_a, np.multiply(tens, 10, out=last), out=last)
    np.logical_or(np.not_equal(last, 5, out=miss),
                  np.not_equal(f, 0, out=short), out=miss)
    np.logical_and(ok, miss, out=ok)
    np.add(tens, np.greater_equal(last, 5, out=miss), out=n10)
    np.multiply(n10, 10, out=n10)
    hundreds = np.floor_divide(tens, 10, out=tens)
    np.subtract(big_a, np.multiply(hundreds, 100, out=last), out=last)
    np.add(hundreds, np.greater_equal(last, 50, out=miss), out=n100)
    np.multiply(n100, 100, out=n100)
    for gap, candidate, near in ((gap10, n10, sixteen),
                                 (gap100, n100, short)):
        np.copyto(gap, np.subtract(big_a, candidate, out=last),
                  casting="unsafe")
        np.abs(np.add(gap, f, out=gap), out=gap)
        np.logical_and(ok, np.not_equal(gap, half, out=miss), out=ok)
        np.less(gap, half, out=near)
    # n = big_a + (f > 1/2), then n10 where sixteen and n100 where short
    # (short implies sixteen), by arithmetic: a masked copy is slower
    n = np.add(big_a, np.greater(f, 0.5, out=miss), out=big_a)
    for candidate, near in ((n10, sixteen), (n100, short)):
        step = np.subtract(candidate, n, out=candidate)
        np.add(n, np.multiply(step, near, out=step), out=n)
    # 17 digits rounded up to 10**17: one digit, next decade
    top = np.equal(n, 10 ** 17, out=miss)
    np.copyto(n, 10 ** 16, where=top)
    np.add(e, top, out=e)
    # zero is "0.0", the one digit 0 at e = 0
    np.logical_or(ok, zero, out=ok)
    np.copyto(n, 0, where=zero)
    np.copyto(e, 0, where=zero)
    index = np.multiply(np.subtract(e, _EXP_MIN, out=e), 17, out=e)

    # the first digit, n // 10**16, in row 9 where n was; the other 16 in
    # four groups of four
    high, low, spare = scratch.i(4), scratch.i(5), scratch.i(6)
    np.floor_divide(n, 10 ** 8, out=high)
    np.subtract(n, np.multiply(high, 10 ** 8, out=low), out=low)
    first = np.floor_divide(high, 10 ** 8, out=n)
    np.subtract(high, np.multiply(first, 10 ** 8, out=spare), out=high)
    for k, eight in enumerate((high, low)):
        group = np.floor_divide(eight, 10 ** 4, out=scratch.i(2 * k))
        np.subtract(eight, np.multiply(group, 10 ** 4, out=spare),
                    out=scratch.i(2 * k + 1))
    # a 17-digit pick ends in a nonzero digit (else the multiple of 10
    # nearest Y would be as near, and taken), and a multiple of 10 taken
    # is not one of 100 (else that would be taken): only the digits of a
    # multiple of 100 are counted, its first digit being nonzero: the
    # place, 1 to 16, where its last nonzero group of four ends, less that
    # group's trailing zeros (16 zeros leave group 0, with four, so 0)
    rows = np.flatnonzero(short)
    groups = scratch.rows(0, 4)[:, rows]
    last, place = groups[0], np.full(len(rows), 4)
    for k in (1, 2, 3):
        np.copyto(place, 4 * k + 4, where=groups[k] != 0)
        np.copyto(last, groups[k], where=groups[k] != 0)
    for tens in (10, 100, 1000, 10000):
        place -= last % tens == 0
    _words(scratch.rows(0, 4), scratch.rows(4, 8), _FOUR_DIGITS, _WIDE_ZEROS)
    count = np.subtract(17, sixteen, out=scratch.i(4))
    count[rows] = 1 + place
    np.copyto(count, 1, where=zero)
    np.add(index, np.subtract(count, 1, out=count), out=index)
    return index, ok


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
    """(lines, fields): a buffer of n lines, each the bytes ``lead`` then
    k fields of ``width`` bytes, each field followed by a comma and the
    last by a newline, and the (n, k, width) view of the fields."""
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
    written as they come; the columns are copied a chunk at a time into
    one (rows, k) float buffer, so no copy of the whole table or of its
    text is made.

    Where :func:`_fast` proves every value of a chunk and none has its sign
    bit set, every field is exactly _FIELD bytes, and the digits go
    straight into one line buffer, reused from chunk to chunk: its
    prefix, points and separators are written once a call.  A chunk that
    holds a negative value or -0.0, NaN, an infinity or a value the proof
    leaves to ``fmt`` is laid out in NUL-padded slots of _SLOT bytes
    instead, and the NULs are dropped from its text.
    """
    lengths = {len(col) for col in cols}
    if len(lengths) != 1:
        raise ValueError(f"columns of equal length needed, got {lengths}")
    (size,) = lengths
    if not size:
        return
    lead = np.frombuffer(prefix.encode("ascii"), np.uint8)
    k = len(cols)
    per_chunk = min(max(1, _CHUNK // k), size)
    scratch = _Scratch(per_chunk * k)
    table = np.empty((per_chunk, k))
    lines, fields = _rows(lead, per_chunk, k, _FIELD)
    fields[..., 1] = ord(".")
    stores = _fields(lines, lead.size, _FIELD + 1, k)
    for start in range(0, size, per_chunk):
        n = min(per_chunk, size - start)
        if n < per_chunk:
            scratch, table, lines = scratch.cut(n * k), table[:n], lines[:n]
            stores = [view[:n] for view in stores]
        for j, col in enumerate(cols):
            table[:, j] = col[start:start + n]
        x = table.ravel()
        with np.errstate(all="ignore"):
            q, e, ok = _fast(x, scratch)
        negative = np.signbit(x, out=scratch.flag(1)).reshape(n, k)
        if ok.all() and not negative.any():
            _lay_out(stores, q, e, scratch)
            yield str(lines, "ascii")
            continue
        slot_lines, slots = _rows(lead, n, k, _SLOT)
        slots[..., 0] = negative * ord("-")
        slots[..., 2] = ord(".")
        _lay_out(_fields(slot_lines, lead.size + 1, _SLOT + 1, k), q, e,
                 scratch)
        slots[..., _FIELD + 1:] = 0
        _patch(slots, ~ok.reshape(n, k), table, _fmt_texts)
        yield _ascii(slot_lines)


def _json_run(arrays, scratch, buffer) -> Iterator[str]:
    """For each of the non-empty (pad, head, values) ``arrays``, all of one
    pad, its head and then the lines of its values in json.dumps(indent=2),
    each at ``pad`` spaces and all but the last followed by a comma.

    The values are one stream, formed _CHUNK at a time in row 10 of the
    call's :class:`_Scratch` ``scratch`` and in the uint8 ``buffer``, of
    at least min(_CHUNK, n) lines for n values: each chunk's lines first
    as rows of _REPR_TEMPLATE with the indent and separators around them,
    then ANDed with the digits of :func:`_shortest` through word views of
    the lines, then cut at the arrays' ends, one piece per array.
    """
    (pad, *_), heads, columns = zip(*arrays)
    bounds = [0, *itertools.accumulate(column.size for column in columns)]
    rows = min(_CHUNK, bounds[-1])
    width = pad + _R_SLOT + 2
    template = np.empty((len(_REPR_TEMPLATE), width), np.uint8)
    template[:, :pad] = ord(" ")
    template[:, pad:-2] = _REPR_TEMPLATE
    template[:, -2] = ord(",")
    template[:, -1] = ord("\n")
    lines = buffer[:rows * width].reshape(rows, width)
    scratch = scratch.cut(rows)
    words = [np.ndarray((rows,), "<i8", lines, pad + at, (width,))
             for at in range(8, 40, 8)]
    for start in range(0, bounds[-1], _CHUNK):
        stop = min(start + _CHUNK, bounds[-1])
        n = stop - start
        if n < rows:
            scratch, lines = scratch.cut(n), lines[:n]
            words = [word[:n] for word in words]
        # (array, first value, last value + 1) of each array in the chunk
        cuts = [(j, max(start, bounds[j]), min(stop, bounds[j + 1]))
                for j in range(bisect.bisect_right(bounds, start) - 1,
                               bisect.bisect_left(bounds, stop))]
        x = np.concatenate([columns[j][lo - bounds[j]:hi - bounds[j]]
                            for j, lo, hi in cuts], out=scratch.f(10))
        with np.errstate(all="ignore"):
            index, ok = _shortest(x, scratch)
        np.take(template, index, axis=0, out=lines, mode="clip")
        for word, digits in zip(words, scratch.rows(0, 4)):
            np.bitwise_and(word, digits, out=word)
        # the first digit, where every template keeps it
        lines[:, pad + 6] = np.add(scratch.i(9), ord("0"), out=scratch.i(9))
        lines[:, pad] = np.signbit(x) * ord("-")
        _patch(lines[:, pad:pad + _R_SLOT], ~ok, x, _json_texts)
        for j, lo, hi in cuts:
            if lo == bounds[j]:
                yield heads[j]
            if hi == bounds[j + 1]:
                lines[hi - start - 1, -2] = 0
            yield _ascii(lines[lo - start:hi - start])


_COLUMN_MARK = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def json_text(doc) -> list[str]:
    """json.dumps(doc, indent=2) plus a newline; arrays in doc are float lists.

    The text is returned as a list of pieces of whole lines, to be written
    one after another, a piece of values holding lines of one array only.
    The document without its arrays is laid out by json.dumps; each array's
    values are laid out one to a line, in the text ``json.dumps`` gives a
    float (repr, NaN, Infinity).  Each run of non-empty arrays at one indent
    (a spectrum's seven columns, every column of a sweep) is one stream of
    chunks (:func:`_json_run`); one scratch and one line buffer serve all.
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
    # (pad, head, values) of each non-empty array, its head the text since
    # the last array's lines
    arrays, head, at = [], "", 0
    for hit in _COLUMN_MARK.finditer(skeleton):
        head += skeleton[at:hit.start(2)] + hit[2]
        at = hit.end()
        column = columns[int(hit[3])]
        if column.size == 0:
            head += "[]"
            continue
        arrays.append((len(hit[1]) + 2, head + "[\n", column))
        head = hit[1] + "]"
    rows = min(_CHUNK, sum(values.size for _, _, values in arrays))
    scratch = _Scratch(rows)
    pad = max((pad for pad, _, _ in arrays), default=0)
    buffer = np.empty(rows * (pad + _R_SLOT + 2), np.uint8)
    parts = []
    for _, run in itertools.groupby(arrays, lambda array: array[0]):
        parts += _json_run(list(run), scratch, buffer)
    parts.append(head + skeleton[at:])
    return parts
