"""Export text built in numpy: ``repr`` of float64 arrays, decimal integers,
and lines laid out from them.

Text is held in fixed-width cells: a uint8 array whose last axis is the cell,
padded with NUL bytes where a value is shorter than its cell.  ``packed``
drops the padding and gives the bytes in C order, so (lines, width) cells
read line by line.  ``floats`` gives the bytes of ``repr(float(x))`` for
every value: the shortest decimal that reads back as ``x``, the nearest such
decimal when several have that length, ties to an even last digit, in
Python's ``'r'`` layout.  The digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) on ``uint64`` arrays, with the
64 x 64 -> 128-bit products taken from 32-bit limbs.  Zeros, subnormals and
non-finite values take ``repr`` one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from . import blocks

# a sign column, then the 23 characters of the longest unsigned repr,
# '2.2250738585072014e-308'
_WIDTH = 24

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK63 = np.uint64((1 << 63) - 1)
_C_MIN = np.uint64(1 << 52)            # the implicit bit of a normal double
_K_MIN, _K_MAX = -324, 292             # decimal exponents k of the table

_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_DOT, _ZERO, _E, _MINUS, _PLUS = b".0e-+"


def packed(cells: np.ndarray) -> np.ndarray:
    """The bytes of ``cells`` without their padding, in C order: a 1-D uint8
    array, which a binary file's ``write`` takes as it is."""
    return cells[cells != 0]


def literal(string: str) -> np.ndarray:
    """One cell holding ``string``."""
    return np.frombuffer(string.encode("ascii"), dtype=np.uint8)


def concat(*parts: np.ndarray) -> np.ndarray:
    """The parts' cells side by side, their leading axes broadcast."""
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    return np.concatenate([np.broadcast_to(p, lead + p.shape[-1:]) for p in parts],
                          axis=-1)


def line(fields: np.ndarray, sep: str) -> np.ndarray:
    """The cells along the second-to-last axis joined by the character
    ``sep`` and ended by a newline: (..., m, w) cells give (..., m * (w + 1))."""
    m = fields.shape[-2]
    joined = concat(fields, literal(sep * (m - 1) + "\n")[:, None])
    return joined.reshape(joined.shape[:-2] + (-1,))


def ints(values) -> np.ndarray:
    """Decimal text of non-negative integers, right-aligned in the width of
    the largest."""
    v = np.asarray(values, dtype=np.int64)[..., None]
    width = len(str(int(v.max(initial=0))))
    place = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = (v // place % 10 + ord("0")).astype(np.uint8)
    return digits * ((v >= place) | (place == 1))


def floats(values) -> np.ndarray:
    """``repr(float(x))`` for every value of a float array, one cell each,
    formatted at most ``blocks.BLOCK`` values at a time: the kernel's uint64
    temporaries stay at 64 KB each."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    chars = np.empty((flat.size, _WIDTH), dtype=np.uint8)
    width = 1
    for block in blocks.blocks(flat.size):
        width = max(width, _format_block(flat[block], chars[block]))
    return chars[:, :width].reshape(x.shape + (width,))


def _format_block(x, chars) -> int:
    """Write the cells of the values ``x``; returns their widest."""
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    special = np.flatnonzero((biased == 0) | (biased == 0x7FF))
    if special.size:                # 1.0 stands in until repr overwrites it
        bits = bits.copy()
        bits[special] = np.float64(1.0).view(np.uint64)
    length = _layout(*_digits(*_shortest(bits)), chars[:, 1:])
    chars[:, 0] = _MINUS
    start = np.where(np.signbit(x), 0, 1).astype(np.int8)
    stop = (1 + length).astype(np.int8)
    for i in special.tolist():
        text = repr(float(x[i])).encode("ascii")      # 'nan' has no sign
        body = text.lstrip(b"-")
        chars[i, 1:1 + len(body)] = np.frombuffer(body, dtype=np.uint8)
        start[i], stop[i] = len(body) - len(text) + 1, 1 + len(body)
    column = np.arange(_WIDTH, dtype=np.int8)
    chars *= (column >= start[:, None]) & (column < stop[:, None])
    return int(stop.max())


# ---------------------------------------------------------------------------
# shortest digits (Schubfach)
# ---------------------------------------------------------------------------

def _flog10pow2(q):
    """floor(log10(2**q)) in fixed point, exact for every double exponent
    -1074 <= q <= 971."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)) in fixed point, exact for every double
    exponent."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) in fixed point, exact for |e| <= 324."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """g1, g0 at index k - _K_MIN for every decimal exponent k, with
    g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1,
    the 126-bit upper approximation of 10**-k; built with Python integers."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        power = 10**abs(k)
        if k <= 0:
            shift = 125 - (power.bit_length() - 1)   # floor(log2(10**-k)) exactly
            g = (power << shift if shift >= 0 else power >> -shift) + 1
        else:
            shift = 125 + power.bit_length()          # 10**k is no power of 2
            g = (1 << shift) // power + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@functools.cache
def _four_digits() -> np.ndarray:
    """The ASCII digits of 0..9999, four to a uint32 word."""
    chars = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return chars.astype(np.uint8).view(np.uint32).ravel()


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1 = a & _MASK32, a >> np.uint64(32)
    b0, b1 = b & _MASK32, b >> np.uint64(32)
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    carry = (low >> np.uint64(32)) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return (a1 * b1 + (cross0 >> np.uint64(32)) + (cross1 >> np.uint64(32))
            + (carry >> np.uint64(32)))


def _round_to_odd(g1, g0, cp):
    """cp * g / 2**127, rounded to odd, for g = g1 * 2**63 + g0."""
    y0 = g1 * cp                    # the low 64 bits: uint64 products wrap
    z = (y0 >> np.uint64(1)) + _mulhi(g0, cp)
    vbp = _mulhi(g1, cp) + (z >> np.uint64(63))
    return vbp | (((z & _MASK63) + _MASK63) >> np.uint64(63))


def _shortest(bits):
    """(f, k): for each normal double, the shortest decimal f * 10**k that
    rounds to it, the nearest of those to it, ties to an even f."""
    one, two = np.uint64(1), np.uint64(2)
    c = (bits & np.uint64((1 << 52) - 1)) | _C_MIN
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    q = biased.astype(np.int64) - 1075
    # at a power of two above the smallest normal the gap below is half the
    # gap above
    irregular = (c == _C_MIN) & (biased > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (table[k - _K_MIN] for table in _powers_of_ten())
    cb = c << two
    # 4 * 10**-k times v and the ends of its rounding interval
    vbl, vb, vbr = _round_to_odd(g1, g0, np.stack([cb - two + irregular, cb,
                                                   cb + two]) << h)
    out = c & one                   # the ends round to v when c is even
    # s has 16 or 17 digits for a normal double; first try one digit fewer
    s = vb >> two
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl + out <= sp10 << two
    wpin = (tp10 << two) + out <= vbr
    t = s + one
    uin = vbl + out <= s << two
    win = (t << two) + out <= vbr
    mid = (s + t) << one
    nearer_s = (vb < mid) | ((vb == mid) & ((s & one) == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t),
                          np.where(nearer_s, s, t)))
    return f, k


def _digits(f, k):
    """The ASCII digits of f, left-aligned and padded with '0' to 17
    columns; the number of digits without trailing zeros; and the decimal
    point position decpt, value = 0.d1d2... * 10**decpt."""
    n = np.searchsorted(_POW10, f, side="right")          # digits of f
    f = f * _POW10[17 - n]                                 # 17 digits
    hi, lo = np.divmod(f, _POW10[8])
    first, hi = np.divmod(hi, _POW10[8])
    groups = [first, *np.divmod(hi, _POW10[4]), *np.divmod(lo, _POW10[4])]
    digits = np.stack([_four_digits()[g.astype(np.intp)] for g in groups],
                      axis=-1).view(np.uint8)[:, 3:]
    significant = 17 - np.argmax(digits[:, ::-1] != _ZERO, axis=1)
    return digits, significant, n + k


def _layout(digits, n, decpt, out):
    """Write Python's 'r' layout of each value's digits into the rows of
    ``out``; returns the lengths.  Exponent form when decpt <= -4 or
    decpt > 16, with a signed exponent of at least two digits; otherwise
    0.000ddd, dd.ddd or ddd00.0."""
    exp = decpt - 1
    use_exp = (decpt <= -4) | (decpt > 16)
    length = np.where(use_exp, n + (n > 1) + 4 + (np.abs(exp) >= 100),
                      np.where(decpt >= 1, np.maximum(n + 1, decpt + 2),
                               2 - decpt + n))
    # one layout per fixed-form decpt (-3..16: 0..19) and per exponent-form
    # digit count (1..17: 21..37)
    key = np.where(use_exp, 20 + n, decpt + 3)
    for layout in np.flatnonzero(np.bincount(key)).tolist():
        rows = np.flatnonzero(key == layout)
        src = digits[rows]
        block = np.empty((len(rows), out.shape[1]), dtype=np.uint8)
        if layout > 20:             # d[.ddd]e+XX, d.ddd having m digits
            m = layout - 20
            block[:, 0] = src[:, 0]
            if m > 1:
                block[:, 1] = _DOT
                block[:, 2:m + 1] = src[:, 1:m]
            tail = block[:, m + (m > 1):]
            e = exp[rows]
            tail[:, 0] = _E
            tail[:, 1] = np.where(e < 0, _MINUS, _PLUS)
            e_digits = _four_digits()[np.abs(e)].view(np.uint8).reshape(-1, 4)
            tail[:, 2:5] = np.where((np.abs(e) >= 100)[:, None],
                                    e_digits[:, 1:], e_digits[:, [2, 3, 3]])
        elif layout > 3:            # dd.ddd and ddd00.0
            point = layout - 3
            block[:, :point] = src[:, :point]
            block[:, point] = _DOT
            block[:, point + 1:18] = src[:, point:]
        else:                       # 0.000ddd
            zeros = 2 - (layout - 3)
            block[:, :zeros] = _ZERO
            block[:, 1] = _DOT
            block[:, zeros:zeros + 17] = src
        out[rows] = block
    return length
