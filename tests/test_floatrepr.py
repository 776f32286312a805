"""The array formatter against repr: float_slots must write, value for value,
the text repr(float(v)) writes, whether its vectorized path decides the
digits or it hands the value to repr."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcheis
from qcheis import floatrepr
from qcheis.floatrepr import (PAD, SLOT, float_slots, int_slots,
                              shortest_digits)


def _texts(slots, width):
    rows = slots.astype("<u8").view(np.uint8).reshape(len(slots), width)
    return [bytes(row).replace(bytes([PAD]), b"").decode("ascii")
            for row in rows]


def _assert_repr(x):
    x = np.asarray(x, dtype=np.float64)
    slots = float_slots(x)
    # the first byte of each slot is left free for a separator
    assert (slots.astype("<u8").view(np.uint8).reshape(len(x), SLOT)[:, 0]
            == PAD).all()
    got = _texts(slots, SLOT)
    want = [repr(float(v)) for v in x]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:10]


def _decided(x):
    return shortest_digits(np.abs(np.asarray(x, dtype=np.float64)))[3]


def _boundary_table():
    """The values where repr's rules change or its rounding is hardest."""
    tiny = np.finfo(float).smallest_normal
    top = np.finfo(float).max
    vals = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, top, -top,
            np.nextafter(tiny, 0), np.nextafter(top, 0)]
    vals += [2.0 ** e for e in range(-1074, 1024)]
    for e in range(-30, 31):
        v = 10.0 ** e
        vals += [v, np.nextafter(v, 0), np.nextafter(v, np.inf)]
    # the switches between fixed and scientific notation
    for v in (1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0):
        vals += [v, np.nextafter(v, 0), np.nextafter(v, np.inf)]
    # integers, up to 2**53 and around it
    vals += [float(i) for i in range(0, 2000)]
    vals += [float(2 ** 53 - i) for i in range(200)]
    vals += [float(10 ** k + d) for k in range(1, 16) for d in (-1, 0, 1)]
    # exact ties of the 17-digit rounding: halfway between two 17-digit
    # decimals (2**50 + 0.25 is 1125899906842624.25), both ways to even
    vals += [2.0 ** 50 + 0.25 + i for i in range(40)]
    vals += [2.0 ** 51 + 0.5 * i for i in range(40)]
    vals += [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.5, 1.5, 123.456, 1e22, 1e23]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


def test_boundary_table_matches_repr():
    _assert_repr(_boundary_table())


def test_both_paths_run_on_the_boundary_table():
    # the vectorized path decides most values, and repr writes the rest
    # (subnormals, integers whose rounding interval ends on an integer);
    # neither path may go untested
    decided = _decided(_boundary_table())
    assert decided.sum() > 0.5 * decided.size
    assert (~decided).sum() >= 100


def test_exact_ties_go_to_the_even_digit_without_repr():
    # 2**50 + 0.25 + i lies halfway between two 17-digit decimals; where
    # 10**k is a double the tie is exact, and the even digit wins as in repr
    x = np.concatenate([2.0 ** 50 + 0.25 + np.arange(40),
                        102089991586.609375 + 2.0 ** -6 * np.arange(0, 80, 8)])
    x = np.concatenate([x, -x])
    _assert_repr(x)
    assert _decided(x).all()


def test_random_bit_patterns_in_every_binade_match_repr():
    rng = np.random.default_rng(20260)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 40)
    bits = ((exponent << np.uint64(52))
            | rng.integers(0, 2 ** 52, exponent.size, dtype=np.uint64)
            | (rng.integers(0, 2, exponent.size, dtype=np.uint64)
               << np.uint64(63)))
    x = bits.view(np.float64)
    _assert_repr(x)
    # outside the subnormals and large integers, repr is rarely needed
    assert _decided(x).mean() > 0.97


def test_scan_like_values_never_fall_back_to_repr():
    # points in a box and small residuals, as the scan dumps hold them,
    # with zeros and powers of two among them
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-2, 2, 20000),
                        rng.uniform(-1e6, 1e6, 5000),
                        rng.uniform(0, 1e-12, 5000),
                        [0.0, -0.0, 2.0 ** -52, 2.0 ** -53, 0.5, 4.0]])
    _assert_repr(x)
    assert _decided(x).all()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_any_finite_floats_match_repr(values):
    _assert_repr(values)


def test_a_block_larger_than_one_pass_matches_repr():
    rng = np.random.default_rng(5)
    n = 3 * floatrepr._CHUNK + 17
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
    _assert_repr(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError):
        float_slots(np.array([1.0, bad]))


def test_int_slots_match_str():
    i = np.array([0, 1, 9, 10, 99, 100, 4095, 4096, 99999999, 10 ** 8,
                  123456789012345, 10 ** 15, 10 ** 16 - 1])
    assert _texts(int_slots(i), 16) == [str(v) for v in i]
    for bad in (-1, 10 ** 16):
        with pytest.raises(ValueError):
            int_slots(np.array([bad]))


def test_import_builds_no_table():
    # the tables of 10**k and of the layouts are built on first use
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import qcheis.cli, qcheis.floatrepr as f; "
         "print(f._tables.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"
