import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omrouter import default_params, derive_operating_point, output_spectra
from omrouter import textout
from omrouter.cli import _spectrum_columns, main
from oracles import POWERS, TEMPS


def _fields(values):
    """Each value's text from csv_rows as a one-column block."""
    x = np.asarray(values, dtype=np.float64)
    return "".join(textout.csv_rows([x])).splitlines()


def _assert_like_percent(values):
    got = _fields(values)
    want = ["%.12e" % v for v in np.asarray(values, np.float64).tolist()]
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=40))
def test_matches_percent_format_on_any_floats(values):
    _assert_like_percent(values)


def test_matches_percent_format_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 100_000, dtype=np.int64)
    _assert_like_percent(bits.view(np.float64))


def test_matches_percent_format_log_uniform_both_signs():
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 100_000) * 10 ** rng.uniform(-12, 25, 100_000)
    _assert_like_percent(x)


def test_matches_percent_format_on_edge_values():
    _assert_like_percent([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                          -sys.float_info.max, sys.float_info.min, 1e-9,
                          1e-10, 1e22, 1e23, 9.9999999999995e-10, 1.0, -1.0,
                          0.1, 0.5, 9.99999999999995e22, math.nan, math.inf,
                          -math.inf])


def test_matches_percent_format_at_13th_digit_midpoints():
    # (10m + 5) * 10**(e - 13) lies halfway between two 13-digit mantissas;
    # take the nearest doubles, one ulp either side of them, and the exact
    # ties among them (where round-half-even decides), and powers of two
    rng = np.random.default_rng(11)
    m = rng.integers(10 ** 12, 10 ** 13, 20_000).tolist()
    e = rng.integers(-10, 24, 20_000).tolist()
    mids = np.array([float(f"{a}5e{b - 13}") for a, b in zip(m, e)])
    ties = [float(f) for f in (Fraction(10 * a + 5) * Fraction(10) ** (b - 13)
                               for a, b in zip(m, rng.integers(8, 15, 20_000)
                                               .tolist()))
            if Fraction(float(f)) == f]
    assert len(ties) > 5000
    x = np.concatenate([mids, np.nextafter(mids, np.inf),
                        np.nextafter(mids, -np.inf), ties,
                        np.ldexp(1.0, np.arange(-40, 76))])
    _assert_like_percent(np.concatenate([x, -x]))


def test_matches_percent_format_next_to_powers_of_ten():
    # at the bottom of a decade the 13-digit neighbour below 10**k is
    # 9.999999999999e(k-1), ten times nearer than the step above it; walk
    # 300 doubles either side of 10**k and of the midpoints on both sides
    runs = []
    for k in range(-10, 25):
        for centre in (f"1e{k}", f"9.9999999999995e{k - 1}",
                       f"1.0000000000005e{k}"):
            bits = np.float64(float(centre)).view(np.int64)
            runs.append(np.arange(bits - 300, bits + 300).view(np.float64))
    x = np.concatenate(runs + [[10 - 282 * 2.0 ** -49]])
    _assert_like_percent(np.concatenate([x, -x]))


def test_matches_percent_format_at_the_edges_of_the_proven_range():
    # 300 doubles either side of 1e-8, 1e-7, 1e-6, 1e16 and 1e17: the
    # decades where the exact decomposition starts and ends, next to them,
    # and the step from e = -7, where 10**23 carries its extra term, to
    # e = -6.  Nothing outside [1e-7, 1e17) is proven, and below 1e17 e is
    # 16 whatever log10 rounds to, so every value there is.  In [1e-7,
    # 1e-6) only a miss of log10 by one leaves a value to fmt
    runs = []
    for edge in (1e-8, 1e-7, 1e-6, 1e16, 1e17):
        bits = np.float64(edge).view(np.int64)
        runs.append(np.arange(bits - 300, bits + 301).view(np.float64))
    x = np.concatenate(runs)
    x = np.concatenate([x, -x])
    with np.errstate(all="ignore"):
        ok = textout._fast(x)[2]
    a = np.abs(x)
    assert not ok[(a < 1e-7) | (a >= 1e17)].any()
    assert ok[(a > 9.99999e16) & (a < 1e17)].all()
    assert ok[(a > 1e-7) & (a < 1e-6)].mean() > 0.95
    _assert_like_percent(x)


def test_matches_percent_format_on_exact_13_digit_ties():
    # M * 2**-j, odd M < 2**53, is exactly the decimal M * 5**j * 10**-j,
    # and with M * 5**j of 14 digits its 14th digit is a 5: a tie between
    # two 13-digit mantissas, at decimal exponent 13 - j.  For j <= 0 the
    # tie is N * 10**-j, N an odd multiple of 5 of 14 digits.  e runs over
    # the whole proven range [-6, 16]; every tie is left to fmt
    rng = np.random.default_rng(13)
    ties = []
    for j in range(-3, 20):
        if j > 0:
            lo, hi = -(-10 ** 13 // 5 ** j), -(-10 ** 14 // 5 ** j)
            m = rng.integers(lo, hi, 500, dtype=np.int64) | 1
            ties += [math.ldexp(v, -j) for v in m[m < hi].tolist()]
        else:
            n = rng.integers(10 ** 12, 10 ** 13, 500, dtype=np.int64) * 10 + 5
            n = n[n * 5 ** -j < 2 ** 53]
            ties += [float(v * 10 ** -j) for v in n.tolist()]
    exact = [v for v in ties
             if len(str(Fraction(v).numerator * 10 ** 30
                        // Fraction(v).denominator).rstrip("0")) == 14]
    assert len(exact) == len(ties) > 8000
    exponents = {math.floor(math.log10(v)) for v in ties}
    assert exponents == set(range(-6, 17))
    x = np.concatenate([ties, np.negative(ties)])
    with np.errstate(all="ignore"):
        assert not textout._fast(x)[2].any()
    _assert_like_percent(x)


def test_rows_carry_prefix_and_separators():
    text = "".join(textout.csv_rows([np.array([1.0, -2.5]),
                                     np.array([math.nan, 0.0])],
                                    prefix="power,1.0,1,"))
    assert text == ("power,1.0,1,1.000000000000e+00,nan\n"
                    "power,1.0,1,-2.500000000000e+00,0.000000000000e+00\n")


def test_rows_refuse_ragged_columns_and_yield_nothing_for_empty_ones():
    ragged = textout.csv_rows([np.array([1.0, 2.0]), np.array([3.0])])
    with pytest.raises(ValueError, match="equal length"):
        next(ragged)
    assert list(textout.csv_rows([np.array([]), np.array([])],
                                 prefix="x,")) == []


def _spectrum_table(grid_n=4001, **changes):
    """The CLI's seven spectrum columns at the default operating point."""
    op = derive_operating_point(replace(default_params(), **changes))
    grid = np.linspace(0.5, 1.5, grid_n) * op.mech_freq
    return _spectrum_columns(output_spectra(grid, op), op.mech_freq)


def test_fast_path_formats_the_default_spectrum():
    # a silent slide to the per-value fallback would keep the bytes but lose
    # the speed; the default spectrum's values lie in e in [-7, 1]
    with np.errstate(all="ignore"):
        _, _, ok = textout._fast(np.concatenate(_spectrum_table()))
    assert ok.mean() >= 0.99


_SPECIALS = [-0.0, 0.0, -2.5, math.nan, math.inf, -math.inf, 1e-7, 5e-324,
             1e-300, 1e300]


@pytest.mark.parametrize("prefix", ["", "power,1.000000000000e-06,1,"])
@pytest.mark.parametrize("extra", [-1, 0, 1, "2n+1"])
@pytest.mark.parametrize("specials", [False, True])
def test_both_csv_layouts_match_fmt(monkeypatch, prefix, extra, specials):
    # chunks of proven, non-negative values (zeros among them) take the
    # 18-byte layout; a row of values that are negative, -0.0, not finite
    # or left to fmt sends its chunk, and only that one, to the NUL slots.
    # Exact 13-digit ties, also left to fmt, are rare below 1e12, and
    # these draws hold none
    k = len(_SPECIALS)
    per_chunk = textout._CHUNK // k
    rows = 2 * per_chunk + 1 if extra == "2n+1" else per_chunk + extra
    rng = np.random.default_rng(rows)
    table = 10 ** rng.uniform(-6, 12, (rows, k))
    table[rng.random((rows, k)) < 0.05] = 0.0
    if specials:
        table[rows // 2] = _SPECIALS
    calls = []
    ascii_ = textout._ascii
    monkeypatch.setattr(textout, "_ascii",
                        lambda lines: calls.append(lines) or ascii_(lines))
    pieces = list(textout.csv_rows(list(table.T), prefix=prefix))
    want = "".join(prefix + ",".join(f"{v:.12e}" for v in row) + "\n"
                   for row in table.tolist())
    assert "".join(pieces) == want
    assert len(pieces) == -(-rows // per_chunk)
    assert all(piece.endswith("\n") for piece in pieces)
    assert len(calls) == specials


@pytest.mark.parametrize("temp", [0.0, 20e-3])
def test_csv_rows_lays_out_the_default_spectrum_whole(monkeypatch, temp):
    # the 18-byte layout is the speed of csv_rows: every value of the
    # default spectrum, the St zeros at T = 0 included, is proven, and no
    # chunk goes to the NUL slots
    cols = _spectrum_table(bath_temp=temp)
    with np.errstate(all="ignore"):
        assert textout._fast(np.concatenate(cols))[2].all()

    def refuse(lines):
        raise AssertionError("a chunk went to the NUL slots")

    monkeypatch.setattr(textout, "_ascii", refuse)
    assert sum(len(piece) for piece in textout.csv_rows(cols)) \
        == 4001 * 7 * 19


def test_csv_rows_memory_is_bounded():
    # the pieces are consumed as they come: the traced peak holds one
    # chunk's stacked values, temporaries and text, not the whole table
    # stacked or the whole text
    cols = _spectrum_table(grid_n=200_001)
    size = 0
    tracemalloc.start()
    try:
        for piece in textout.csv_rows(cols):
            size += len(piece)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == 200_001 * 7 * 19
    assert peak < 4e6


# ------------------------------------------------------- JSON floats (repr)

def _assert_like_json(values):
    # json_text of one array against the C encoder's text of each value
    x = np.asarray(values, dtype=np.float64)
    got = "".join(textout.json_text({"v": x}))
    want = json.dumps(x.tolist())[1:-1].split(", ")
    if got != '{\n  "v": [\n    ' + ",\n    ".join(want) + "\n  ]\n}\n":
        got = [line.strip(" ,") for line in got.splitlines()[2:-2]]
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert not bad, bad[:5]
        assert len(got) == len(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=40))
def test_repr_matches_json_on_any_floats(values):
    _assert_like_json(values)


def test_repr_matches_json_on_random_bit_patterns():
    # every bit pattern, and patterns whose binary exponent lies in or
    # around the proven decades [1e-6, 1e17) (2**-20 to 2**57), both signs
    rng = np.random.default_rng(20261018)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 10 ** 6, dtype=np.int64)
    near = rng.integers(1023 - 30, 1023 + 60, 9 * 10 ** 5)
    bits[:near.size] = (bits[:near.size] & ~(0x7FF << 52)) | (near << 52)
    _assert_like_json(bits.view(np.float64))


def test_repr_matches_json_next_to_powers_of_ten():
    # 10**e * (1 + k ulp) for |k| <= 300, where log10 can miss and where
    # 17 digits can round up to 10**e
    runs = []
    for e in range(-8, 19):
        bits = np.float64(float(f"1e{e}")).view(np.int64)
        runs.append(np.arange(bits - 300, bits + 301).view(np.float64))
    x = np.concatenate(runs)
    _assert_like_json(np.concatenate([x, -x]))


def test_repr_matches_json_on_edge_values():
    tiny = np.arange(1, 2000, dtype=np.int64).view(np.float64)
    x = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),      # powers of two
        tiny, np.nextafter(sys.float_info.min, 0) - tiny,   # subnormals
        [0.0, -0.0, math.nan, math.inf, -math.inf, sys.float_info.max,
         sys.float_info.min, 5e-324, 1e-7, 1e17, 9.999999999999999e16,
         99999999999999999.0, 0.1, 0.3, 2 / 3, 1e16, 1e-5, 1e-4, 1.5e-5,
         123456789012345.6, 1234567890123456.7]])
    _assert_like_json(np.concatenate([x, -x]))


def test_repr_matches_json_for_every_digit_count():
    # decimals of 1 to 17 significant digits from 1e-8 to 1e18, read to the
    # nearest double; their reprs take every length from 1 to 17 digits
    rng = np.random.default_rng(3)
    values = []
    for n in range(1, 18):
        m = rng.integers(10 ** (n - 1), 10 ** n, 3000, dtype=np.int64)
        e = rng.integers(-8 - n, 19 - n, 3000)
        values += [float(f"{a}e{b}") for a, b in zip(m.tolist(), e.tolist())]
    digits = {len(repr(v).split("e")[0].replace(".", "").strip("0"))
              for v in values}
    assert digits == set(range(1, 18))
    _assert_like_json(np.concatenate([values, np.negative(values)]))


def test_repr_matches_json_on_exact_rounding_ties():
    # M * 2**-j for odd M < 2**53 is exactly the decimal M * 5**j * 10**-j;
    # with 17 or 18 significant digits, ending in 5, rounding it to 16 or 17
    # digits is an exact tie
    rng = np.random.default_rng(5)
    values = []
    for digits in (17, 18):
        for j in range(1, 26):
            lo, hi = -(-10 ** (digits - 1) // 5 ** j), 10 ** digits // 5 ** j
            hi = min(hi, 2 ** 53)
            if lo >= hi:
                continue
            m = rng.integers(lo, hi, 400, dtype=np.int64) | 1
            m = m[m < hi]
            values += [math.ldexp(v, -j) for v in m.tolist()]
    ties = [v for v in values
            if len(str(Fraction(v).numerator * 10 ** 30
                       // Fraction(v).denominator).rstrip("0")) in (17, 18)]
    assert len(ties) > 10_000
    _assert_like_json(np.concatenate([ties, np.negative(ties)]))


@functools.cache
def _spectrum_tables():
    """The tables of 60 spectra: 10 drive powers x 6 bath temperatures."""
    return [_spectrum_table(drive_power=p, bath_temp=t)
            for p in POWERS for t in TEMPS]


@functools.cache
def _spectrum_pool():
    """The values of the 60 spectra of :func:`_spectrum_tables`."""
    return np.concatenate([c for table in _spectrum_tables() for c in table])


def test_repr_fast_path_covers_the_spectra():
    # a silent slide to json.dumps would keep the bytes but lose the speed:
    # the default spectrum, and a pool of 10 drive powers x 6 bath
    # temperatures, are proven for at least 99% of their values
    def share(x):
        with np.errstate(all="ignore"):
            return textout._shortest(x)[1].mean()
    assert share(np.concatenate(_spectrum_table())) >= 0.99
    assert share(_spectrum_pool()) >= 0.99


def test_csv_fast_path_covers_the_spectra(monkeypatch):
    # as above for "%.12e", and every value: the pool's values, zeros and
    # the decade [1e-7, 1e-6) included, are all proven, and no chunk of its
    # spectra goes to the NUL slots
    x = _spectrum_pool()
    with np.errstate(all="ignore"):
        assert textout._fast(x)[2].all()

    def refuse(lines):
        raise AssertionError("a chunk went to the NUL slots")

    monkeypatch.setattr(textout, "_ascii", refuse)
    for table in _spectrum_tables():
        assert sum(map(len, textout.csv_rows(table))) == 4001 * 7 * 19


def test_calls_share_no_state(monkeypatch):
    # two csv_rows generators consumed in turn, with a json_text call
    # between their chunks, give the text each gives alone: the chunks
    # alternate the 18-byte and the slot layouts (these draws hold no exact
    # 13-digit tie), the last is short, and each call's scratch and line
    # buffer are its own
    k = 3
    per_chunk = textout._CHUNK // k
    rows = 4 * per_chunk + 7
    rng = np.random.default_rng(33)
    table = 10 ** rng.uniform(-7, 9, (rows, k))
    table[per_chunk + 5, 1] = -1.5
    table[3 * per_chunk + 2, 0] = math.nan
    other = table[::-1] * 3.0
    cols, other_cols = list(table.T), list(other.T)
    slot_chunks = []
    ascii_ = textout._ascii
    monkeypatch.setattr(textout, "_ascii", lambda lines: (
        slot_chunks.append(lines) or ascii_(lines)))
    alone = ["".join(textout.csv_rows(c, prefix=p))
             for c, p in ((cols, "a,"), (other_cols, ""))]
    assert len(slot_chunks) == 4
    monkeypatch.undo()
    doc = {"x": table[:, 0], "y": other[:100, 2]}
    json_alone = "".join(textout.json_text(doc))
    first = textout.csv_rows(cols, prefix="a,")
    second = textout.csv_rows(other_cols)
    got = ["", ""]
    for a, b in zip(first, second):
        got[0] += a
        assert "".join(textout.json_text(doc)) == json_alone
        got[1] += b
    assert got == alone
    assert alone[0] == "".join("a," + ",".join(f"{v:.12e}" for v in row)
                               + "\n" for row in table.tolist())


def _edges(digits):
    """0, 10**k - 1 and 10**k below 10**digits."""
    return sorted({0, *(10 ** k for k in range(digits)),
                   *(10 ** k - 1 for k in range(1, digits + 1))})


def test_swar_quotients_are_exact():
    # x // d = ((x * m) >> shift) & mask for every x < d*d: all of them for
    # d = 100 and 10, and for d = 10**4 every x next to a multiple of d and
    # a seeded sample (every x < 10**8 is checked outside the suite)
    rng = np.random.default_rng(4)
    near = np.arange(1, 10 ** 4) * 10 ** 4
    for d, m, shift, mask, _ in textout._EIGHT_DIGITS + textout._FOUR_DIGITS:
        x = np.arange(d * d) if d < 10 ** 4 else np.concatenate(
            [near - 1, near, rng.integers(0, d * d, 10 ** 6)])
        assert (((x * m) >> shift) & mask == x // d).all()


def test_words_are_the_digits_eight_to_a_word():
    rng = np.random.default_rng(8)
    v = np.concatenate([_edges(8), rng.integers(0, 10 ** 8, 100_000)])
    words = textout._words(v.astype("<i8"), np.empty(len(v), "<i8"))
    text = words.view(np.uint8).tobytes().decode("ascii")
    assert text == "".join(f"{n:08d}" for n in v.tolist())


def test_words_are_four_digits_at_every_other_byte():
    v = np.arange(10 ** 4)
    words = textout._words(v.astype("<i8"), np.empty(len(v), "<i8"),
                           textout._FOUR_DIGITS, textout._WIDE_ZEROS)
    lanes = words.view(np.uint8).reshape(-1, 4, 2)
    assert (lanes[..., 1] == 0xFF).all()
    assert lanes[..., 0].tobytes().decode("ascii") \
        == "".join(f"{n:04d}" for n in v.tolist())


@pytest.mark.parametrize("doc", [
    {"a": np.array([0.5, 1e-05, math.nan, math.inf, -math.inf, -0.0]),
     "b": np.array([1.0, 2.0])},
    {"param": "power", "blocks": [
        {"value": 1.0, "stable": True,
         "spectrum": {"R": np.array([0.25, 1e300]), "T": np.array([3.0])}},
        {"value": 2.0, "stable": False}]},
    {"empty": np.array([]), "x": [1, 2]},
])
def test_json_text_matches_indented_dumps(doc):
    assert "".join(textout.json_text(doc)) \
        == json.dumps(_plain(doc), indent=2) + "\n"


def _plain(node):
    """A document with its arrays as lists of floats, for json.dumps."""
    if isinstance(node, dict):
        return {k: _plain(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_plain(v) for v in node]
    if isinstance(node, np.ndarray):
        return [float(v) for v in node]
    return node


def test_json_text_pieces_are_whole_lines_of_a_chunk():
    x = np.linspace(0.0, 1.0, 2 * textout._CHUNK + 3)
    pieces = textout.json_text({"a": x, "b": x[:5]})
    assert "".join(pieces) == json.dumps({"a": x.tolist(), "b": x[:5].tolist()},
                                         indent=2) + "\n"
    assert all(piece.endswith("\n") for piece in pieces)
    assert max(piece.count("\n") for piece in pieces) <= textout._CHUNK + 1


# a line of an array's values: its indent, the text of one float, a comma
# but after its array's last value
_VALUE_LINE = re.compile(r"( +)(-?[0-9][0-9.e+-]*|NaN|-?Infinity),?")


def _assert_pieces_hold_one_array(pieces):
    # every piece is whole lines; one of values holds those of one array,
    # at one indent, with no line but its last short of a comma
    for piece in pieces:
        assert piece.endswith("\n")
        lines = piece.splitlines()
        values = [_VALUE_LINE.fullmatch(line) for line in lines]
        if any(values):
            assert all(values)
            assert len(lines) <= textout._CHUNK
            assert len({value[1] for value in values}) == 1
            assert all(line.endswith(",") for line in lines[:-1])


_C = textout._CHUNK
# values the proof leaves to json.dumps: NaN, the infinities, -0.0, a power
# of two and one in [1e-7, 1e-6)
_LEFT_TO_DUMPS = np.array([math.nan, math.inf, -math.inf, -0.0, 0.25,
                           2.0 ** -60, 4.2e-7, 1.5])


def _straddling_docs():
    rng = np.random.default_rng(36)

    def draw(n):
        return 10 ** rng.uniform(-9, 20, n) * rng.choice([-1.0, 1.0], n)
    sizes = (_C - 1, 1, 0, _C + 3, 5)
    yield {f"a{k}": draw(n) for k, n in enumerate(sizes)}
    # two indents, interleaved: every array a run of its own
    yield {"a": draw(_C - 2), "n": {"b": draw(_C + 1)}, "c": draw(3),
           "m": {"d": draw(_C)}, "e": draw(_C + 7)}
    # the values left to json.dumps at a chunk's end and at the next start
    yield {"a": draw(_C - 4), "b": _LEFT_TO_DUMPS, "c": draw(2),
           "d": _LEFT_TO_DUMPS[::-1].copy()}


@pytest.mark.parametrize("doc", list(_straddling_docs()))
def test_json_text_chunks_cross_the_arrays_ends(doc):
    # a run of arrays at one indent is one stream of _CHUNK values, each
    # chunk's lines cut at the arrays' ends; the text is json.dumps's
    pieces = textout.json_text(doc)
    assert "".join(pieces) == json.dumps(_plain(doc), indent=2) + "\n"
    _assert_pieces_hold_one_array(pieces)


def test_json_text_takes_one_pass_per_chunk_of_a_run(monkeypatch,
                                                     write_config, tmp_path):
    # the default spectrum's 7 x 4001 values take 4 passes of _shortest,
    # not one per column; a sweep's blocks share chunks as well
    passes = []
    shortest = textout._shortest
    monkeypatch.setattr(textout, "_shortest", lambda x, scratch=None: (
        passes.append(x.size) or shortest(x, scratch)))
    doc = dict(zip("abcdefg", _spectrum_table()))
    pieces = textout.json_text(doc)
    assert len(passes) == 4 and sum(passes) == 7 * 4001
    _assert_pieces_hold_one_array(pieces)
    passes.clear()
    out = tmp_path / "sweep.json"
    config = write_config(sweep_param="detuning",
                          sweep_values=[1.0, -1.0, 1.5, 0.75])
    assert main(["sweep", "--config", config, "--format", "json",
                 "--out", str(out)]) == 0
    blocks = json.loads(out.read_text())["blocks"]
    assert [block["stable"] for block in blocks] == [True, False, True, True]
    values = sum(len(column) for block in blocks if block["stable"]
                 for column in block["spectrum"].values())
    assert len(passes) == -(-values // textout._CHUNK)
    assert sum(passes) == values


def test_json_text_memory_is_bounded():
    # the traced peak holds the returned text and one chunk's temporaries,
    # not a Python float per value or whole copies of the text
    doc = dict(zip("abcdefg", _spectrum_table(grid_n=200_001)))
    tracemalloc.start()
    try:
        pieces = textout.json_text(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(len(piece) for piece in pieces)
    assert size > 7 * 200_001 * 20
    assert peak < 1.5 * size


_DISPATCH_CHILD = """
import sys
import numpy as np
from omrouter import textout
cols = list(np.load(sys.argv[1]))
text = "".join(textout.csv_rows(cols)) + "".join(textout.json_text(
    {"x": cols[0], "rest": {str(i): c for i, c in enumerate(cols[1:])}}))
sys.stdout.buffer.write(text.encode("ascii"))
"""


@pytest.mark.parametrize("disabled", [
    "AVX512_SPR AVX512_ICL X86_V4",
    "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
])
def test_text_does_not_depend_on_numpy_dispatch(tmp_path, disabled):
    # the proofs fix the digits, so the text of given values is the same
    # whichever SIMD loops numpy picks for log10, floor and the arithmetic
    cols = _spectrum_table()
    np.save(tmp_path / "cols.npy", np.array(cols))
    want = ("".join(textout.csv_rows(list(cols))) + "".join(
        textout.json_text({"x": cols[0], "rest": {
            str(i): c for i, c in enumerate(cols[1:])}}))).encode("ascii")
    src = str(Path(textout.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD,
                          str(tmp_path / "cols.npy")],
                         env=env, capture_output=True, timeout=120)
    refusal = run.stderr.decode(errors="replace").strip()
    if run.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in refusal:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES="
                    f"{disabled!r}: " + " ".join(refusal.splitlines()[-3:]))
    assert run.returncode == 0, refusal
    assert hashlib.sha256(run.stdout).hexdigest() \
        == hashlib.sha256(want).hexdigest()
