import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omrouter import default_params, derive_operating_point, output_spectra
from omrouter import textout
from omrouter.cli import _spectrum_columns


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


def test_rows_carry_prefix_and_separators():
    text = "".join(textout.csv_rows([np.array([1.0, -2.5]),
                                     np.array([math.nan, 0.0])],
                                    prefix="power,1.0,1,"))
    assert text == ("power,1.0,1,1.000000000000e+00,nan\n"
                    "power,1.0,1,-2.500000000000e+00,0.000000000000e+00\n")


def test_fast_path_formats_the_default_spectrum():
    # a silent slide to the per-value fallback would keep the bytes but lose
    # the speed; the default spectrum's values lie in e in [-7, 1]
    op = derive_operating_point(default_params())
    grid = np.linspace(0.5, 1.5, 4001) * op.mech_freq
    cols = _spectrum_columns(output_spectra(grid, op), op.mech_freq)
    with np.errstate(all="ignore"):
        _, ok = textout._fast(np.concatenate(cols))
    assert ok.mean() >= 0.99


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
    def plain(node):
        if isinstance(node, dict):
            return {k: plain(v) for k, v in node.items()}
        if isinstance(node, list):
            return [plain(v) for v in node]
        if isinstance(node, np.ndarray):
            return [float(v) for v in node]
        return node
    assert textout.json_text(doc) == json.dumps(plain(doc), indent=2) + "\n"
