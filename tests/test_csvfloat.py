"""The CSV kernel against its oracle, ``repr``, field by field."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjjctrl import _csvfloat


def fields(columns):
    """The fields ``csv_rows`` writes for ``columns``, row by row."""
    text = b"".join(_csvfloat.csv_rows(columns)).decode()
    assert text.endswith("\r\n") or not text
    return [line.split(",") for line in text.split("\r\n")[:-1]]


def mismatches(values):
    """Values whose field is not their ``repr``, with both texts."""
    values = np.asarray(values, dtype=np.float64)
    got = [row[0] for row in fields([values])]
    assert len(got) == values.size
    return [(repr(float(v)), g) for v, g in zip(values, got) if g != repr(float(v))]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_powers_of_two_and_their_neighbours():
    """Every power of two, where the spacing below halves (the irregular
    interval), from the smallest subnormal to the largest finite."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = neighbours(np.concatenate([powers, -powers]))
    assert not mismatches(values[np.isfinite(values)])


def test_powers_of_ten_and_layout_switches():
    """1e-323 ... 1e308, and the switches to exponent form below 1e-4 and
    from 1e16 (decpt -4 and 17), with their float neighbours."""
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    switches = [1e-4, 1e-5, 9.999999999999999e-05, 0.00012345678901234567, 1e15, 1e16,
                9999999999999998.0, 9999999999999999.0, 1.2345678901234567e16,
                123456789012345.67, 0.001]
    assert not mismatches(neighbours(np.concatenate([tens, switches, -tens])))


def test_integers_around_two_to_the_53():
    """Integral doubles take the kernel's integer path below 2^53 and
    Schubfach above it; both write ``.0`` up to 1e16."""
    n = 2**53
    values = [float(k) for k in range(n - 40, n + 41)] + [float(k) for k in range(0, 2000, 7)]
    values += [float(10**k + d) for k in range(1, 16) for d in (-1, 0, 1)]
    assert not mismatches(values + [-v for v in values])


def test_subnormals_and_zeros():
    """The smallest subnormals (the two below C_TINY scale by 10), the
    subnormal edge, and signed zeros."""
    tiny = np.arange(0, 64, dtype=np.uint64).view(np.float64)
    edge = np.array([sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)])
    values = np.concatenate([tiny, -tiny, neighbours(edge), [0.0, -0.0]])
    assert not mismatches(values)
    assert [row[0] for row in fields([[0.0, -0.0, 5e-324]])] == ["0.0", "-0.0", "5e-324"]


def test_int64_columns_are_written_as_python_ints():
    values = np.array([0, 1, -1, 9, 10, 99, 100, 12345, -987654321, 10**18, 2**63 - 1, -2**63])
    assert [row[0] for row in fields([values])] == [repr(int(v)) for v in values]


def test_rows_mix_int_and_float_columns():
    """Columns keep their kinds, fields join with ',' and rows end in CRLF."""
    k = np.arange(3)
    text = b"".join(_csvfloat.csv_rows([k, k * 0.1, [1.0, -2.5, 1e300]]))
    assert text == b"0,0.0,1.0\r\n1,0.1,-2.5\r\n2,0.2,1e+300\r\n"


def test_rows_span_blocks():
    n = 2 * _csvfloat.BLOCK_ROWS + 3
    values = np.arange(n) / 7.0
    assert fields([values, -values]) == [[repr(v), repr(-v)] for v in values.tolist()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused_before_any_block(bad):
    with pytest.raises(FloatingPointError, match="non-finite"):
        _csvfloat.csv_rows([np.arange(3.0), [1.0, bad, 2.0]])


def test_g_table_is_built_on_first_use_only():
    """Importing the CLI builds no table; the first float written does."""
    probe = ("import bjjctrl.cli, bjjctrl._csvfloat as k; n = k._g_table.cache_info().currsize;"
             " list(k.csv_rows([[1.5]])); print(n, k._g_table.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(_csvfloat.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1\n", "")


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2000))
def test_raw_bit_patterns_match_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert not mismatches(values[np.isfinite(values)])


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=500))
def test_floats_match_repr(values):
    assert not mismatches(values)


def test_random_bit_patterns_match_repr():
    """100k raw 64-bit patterns: every exponent, subnormals included."""
    bits = np.random.default_rng(20261020).integers(0, 2**64, 100_000, np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert not mismatches(values[np.isfinite(values)])
