"""CSV text of numeric columns, as Python's ``repr`` writes each field.

A float field is the shortest decimal that reads back as the same double,
the closest such decimal when several have that length: Python's ``repr``.
Its digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; Java's ``DoubleToDecimal``), which needs only integer
arithmetic, so numpy runs it on whole blocks of uint64 and every SIMD
level gives the same bytes.  Java always writes at least two digits, and
``repr`` wants the truly shortest, so three of Java's steps change:

- the one-digit-shorter candidate is tried whatever the digit count (0,
  the candidate below 10, never lies in a positive double's rounding
  interval);
- the two smallest subnormals are not scaled by 10 (Java's C_TINY):
  unscaled, they give 5e-324 and 1e-323;
- there is no shortcut for integers below 2^53: the general path gives
  their digits too.

``repr``'s layout is positional when -4 < decpt <= 16 (value = 0.d1d2... x
10^decpt), with ``.0`` on integral values, and otherwise d1.d2...e+XX with
an exponent of at least two digits.  An int64 column is written as
``repr(int)``.

Each field is built in a fixed-width uint8 row of slots (sign, body,
exponent, separator) with a mask of the slots it uses; one boolean gather
over the block then yields the CSV bytes in row order.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Rows per block, measured: on a 10k-row, 8-column trace 1024 rows wrote
#: slightly faster but held twice the temporaries, and 256 rows wrote slower.
BLOCK_ROWS = 512

_K_MIN, _K_MAX = -324, 292
_C_MIN = np.uint64(1 << 52)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_U = np.uint64
_ZERO = ord("0")

# Slots of a field: sign, body (digits and dot), exponent, separator.
_BODY = 22
_EXP = 1 + _BODY
_SEP = _EXP + 5
_WIDTH = _SEP + 2
#: _FIRST[n, j] = j < n over the body slots.
_FIRST = (np.arange(_BODY) < np.arange(_BODY + 1)[:, None]).astype(np.uint8)
#: Slot masks by (sign, body length, exponent: 0 none, 1 two digits, 2 three),
#: separators unset.
_MASKS = np.zeros((2, _BODY + 1, 3, _WIDTH), bool)
_MASKS[1, ..., 0] = True
_MASKS[..., 1:_EXP] = _FIRST[:, None].astype(bool)
_MASKS[..., 1:, _EXP:_SEP] = (True, True, False, True, True)
_MASKS[..., 2, _EXP + 2] = True
_MASKS = _MASKS.reshape(-1, _WIDTH)
_POW10 = np.array([10**i for i in range(1, 20)], _U)


@cache
def _g_table():
    """(g1, g0, r) per k in [-324, 292]: 10^-k = beta 2^r with
    2^125 <= beta < 2^126, g = floor(beta) + 1 = g1 2^63 + g0."""
    g1, g0, r = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10**-k
            shift = n.bit_length() - 126
            g = (n >> shift if shift >= 0 else n << -shift) + 1
        else:  # 10^k is no power of 2, so beta < 2^126
            shift = -125 - (10**k).bit_length()
            g = (1 << -shift) // 10**k + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
        r.append(shift)
    return np.array(g1, _U), np.array(g0, _U), np.array(r, np.int64)


def _product(a, b):
    """(high, low) 64-bit words of a * b, for a < 2^63, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    x, y = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U(32)) + (x & _M32) + (y & _M32)
    return a1 * b1 + (x >> _U(32)) + (y >> _U(32)) + (mid >> _U(32)), a * b


def _rop(y, x1):
    """Java's rop(g1, g0, cp): floor(g cp 2^-127), made odd when inexact,
    from the words of y = g1 cp and the high word x1 of g0 cp."""
    z = (y[1] >> _U(1)) + x1
    return (y[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _add_shifted(words, a, shift, sign):
    """The 128-bit (high, low) ``words`` plus ``sign`` (+1 or -1) times
    a << shift, for a < 2^63 and 0 < shift < 64."""
    hi, lo = words
    up, down = a >> (_U(64) - shift), a << shift
    if sign > 0:
        new = lo + down
        return hi + up + (new < lo), new
    new = lo - down
    return hi - up - (new > lo), new


def _split(bits):
    """(c, q, irregular, k) of doubles with these bits: value c 2^q, whether
    the spacing halves below it (a power of two above the subnormals), and
    Schubfach's k, floor(log10 of the spacing, or of 3/4 of it)."""
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    normal = bq != 0
    c = (bits & (_C_MIN - _U(1))) | (normal.astype(_U) << _U(52))
    q = bq - 1075 + ~normal
    irregular = (c == _C_MIN) & (q > -1074)
    return c, q, irregular, (q * 661_971_961_083 - 274_743_187_321 * irregular) >> 41


def _bounds(c, q, irregular, k):
    """Java's vb, vbl and vbr: 4 c 2^q, and the rounding interval's ends,
    in units of 10^k, rounded to odd."""
    g1, g0, r = (a[k - _K_MIN] for a in _g_table())
    h = (q + r + 127).astype(_U)
    y, x = _product(g1, c << (h + _U(2))), _product(g0, c << (h + _U(2)))
    # the ends: cp -/+ 2^(h+1), or cp - 2^h below a power of two
    right = h + _U(1)
    left = right - irregular
    return (_rop(y, x[0]),
            _rop(_add_shifted(y, g1, left, -1), _add_shifted(x, g0, left, -1)[0]),
            _rop(_add_shifted(y, g1, right, 1), _add_shifted(x, g0, right, 1)[0]))


def _shortest(bits):
    """(digits, exponent) of each finite double with these bits: the
    shortest decimal digits * 10^exponent that round-trips, the closest to
    the double of that length; zeros give (0, 0)."""
    c, q, irregular, k = _split(bits)
    vb, vbl, vbr = _bounds(c, q, irregular, k)
    out = c & _U(1)
    s = vb >> _U(2)
    # one digit shorter: at most one multiple of 10^(k+1) lies in Rv
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    # else the closer of s and s + 1, ties to even
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    cmp = (vb - (s << _U(2)) - _U(2)).view(np.int64)
    up = np.where(uin != win, win, (cmp > 0) | ((cmp == 0) & (s & _U(1) == _U(1))))
    digits = np.where(upin != wpin, sp10 + _U(10) * wpin, s + up)
    zero = (bits << _U(1)) == _U(0)
    return np.where(zero, _U(0), digits), np.where(zero, 0, k)


def _digit_chars(d, words):
    """ASCII digits of uint64 ``d``, right-aligned in ``9 * words`` columns
    with leading '0's (9-digit words, split off first, run in uint32), and
    the digit count (1 for 0)."""
    parts, top = [], d
    for _ in range(words - 1):
        q = top // _U(10**9)
        parts.append(top - q * _U(10**9))
        top = q
    parts = np.stack([top, *parts[::-1]], axis=-1).astype(np.uint32)
    chars = np.empty(parts.shape + (9,), np.uint8)
    for i in range(8, -1, -1):
        q = parts // np.uint32(10)
        chars[..., i] = parts - q * np.uint32(10)
        parts = q
    chars += _ZERO
    return chars.reshape(d.shape + (9 * words,)), 1 + np.searchsorted(_POW10, d, "right")


def _float_fields(values):
    """(slots, mask) of the ``repr`` of each float64 in ``values``, with
    the separator slots left unset."""
    bits = np.ascontiguousarray(values, np.float64).view(_U)
    d, e = _shortest(bits)
    chars, ndig = _digit_chars(d, 2)
    n = ndig - (chars[..., ::-1] != _ZERO).argmax(-1)  # significant digits
    decpt = ndig + e
    sci = (decpt <= -4) | (decpt > 16)
    whole = np.where(sci, 1, decpt.clip(1))
    frac = np.where(sci, n - 1, (n - decpt).clip(1))
    slots = np.empty(bits.shape + (_WIDTH,), np.uint8)
    slots[..., 0] = ord("-")
    start = 23 - ndig - np.where(sci, 0, (1 - decpt).clip(0))  # of the body in _body's row
    slots[..., 1:_EXP] = _body(chars, start, whole)
    digits = _exponent(slots[..., _EXP:_SEP], decpt - 1) * sci
    length = whole + (frac > 0) + frac
    key = ((bits >> _U(63)).astype(np.intp) * (_BODY + 1) + length) * 3 + digits
    return slots, _MASKS.take(key, axis=0)


def _body(chars, start, whole):
    """Digits and dot: the digits padded with '0's, five before and enough
    after, from ``start`` on, with '.' inserted after ``whole`` of them."""
    src = np.full(chars.shape[:-1] + (44,), _ZERO, np.uint8)
    src[..., 5:23] = chars
    after = _gather(src, start - 1, _BODY)
    body = _gather(src, start, _BODY)
    body -= after
    body *= _FIRST.take(whole, axis=0)
    body += after
    body.reshape(-1, _BODY)[np.arange(whole.size), whole.ravel()] = ord(".")
    return body


def _exponent(slots, x):
    """Write 'e', the sign and three digits of ``x`` to ``slots``; 1 where
    two digits are shown, 2 where three are."""
    ax = np.abs(x)
    slots[..., 0] = ord("e")
    slots[..., 1] = ord("+") + 2 * (x < 0)
    slots[..., 2] = ax // 100 + _ZERO
    slots[..., 3] = ax // 10 % 10 + _ZERO
    slots[..., 4] = ax % 10 + _ZERO
    return 1 + (ax >= 100)


def _gather(src, offset, width):
    """src[..., offset + j] for j < width, the offset per field: one
    sliding-window row per field instead of an index per character."""
    row = src.shape[-1]
    windows = sliding_window_view(src.reshape(-1), width)
    at = np.arange(0, windows.shape[0] + width - 1, row) + offset.ravel()
    return windows[at].reshape(src.shape[:-1] + (width,))


def _int_fields(values):
    """(slots, mask) of the ``repr`` of each int64 in ``values``, with the
    separator slots left unset."""
    values = np.asarray(values, np.int64)
    neg = values < 0
    chars, count = _digit_chars(np.where(neg, _U(0) - values.astype(_U), values.astype(_U)), 3)
    slots = np.empty(values.shape + (_WIDTH,), np.uint8)
    slots[..., 0] = ord("-")
    slots[..., 1:_EXP] = chars[..., -_BODY:]
    mask = np.zeros(slots.shape, bool)
    mask[..., 0] = neg
    mask[..., 1:_EXP] = _FIRST.take(count, axis=0)[..., ::-1]
    return slots, mask


def csv_rows(columns):
    """The CSV bytes of ``columns`` (equal-length 1-d columns of ints or
    floats), as an iterator over blocks of ``BLOCK_ROWS`` rows: fields
    joined by ',', each row ended by '\\r\\n'.  A non-finite float raises
    FloatingPointError here, before any block is built."""
    columns = [np.asarray(c) for c in columns]
    ints = [i for i, c in enumerate(columns) if np.issubdtype(c.dtype, np.integer)]
    if not all(np.isfinite(c).all() for i, c in enumerate(columns) if i not in ints):
        raise FloatingPointError("a non-finite value cannot be written to CSV")
    return _blocks(columns, ints)


def _blocks(columns, ints):
    for start in range(0, len(columns[0]) if columns else 0, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        # every column as a float, then the int columns written over
        slots, mask = _float_fields(np.stack([c[rows] for c in columns], 1))
        if ints:
            slots[:, ints], mask[:, ints] = _int_fields(np.stack([columns[i][rows] for i in ints], 1))
        slots[..., _SEP:] = (ord(","), ord("\n"))
        slots[:, -1, _SEP] = ord("\r")
        mask[..., _SEP] = True
        mask[..., _SEP + 1] = False
        mask[:, -1, _SEP + 1] = True
        yield slots[mask].tobytes()
