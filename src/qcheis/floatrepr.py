"""The text repr writes for float64 values, computed for a whole array.

repr(float) writes the shortest decimal that reads back as the same double
and, of the shortest, the one nearest to it (Gay's dtoa, mode 0), in fixed
notation for decimal exponents -4 to 15 and in scientific notation
otherwise. float_slots computes that text with numpy:

- y = |x| * 10**k, with k taken from the binary exponent so that y has 17
  or 18 integer digits, as a double-double: Dekker's exact product of the
  53-bit significand with the leading double of 10**k, plus its product
  with the trailing double. Its error is below 1e-13 of y's last integer
  digit.
- The decimals that read back as x lie within h, half an ulp of x, of y
  (within h / 2 below a power of two). The shortest is the largest j at
  which a multiple of 10**j lies among them, and repr's digits are
  y / 10**j rounded to nearest, or up where the nearest falls below a
  power of two's narrower lower gap.
- The digits go into bytes eight at a time (uint64 arithmetic on byte
  lanes), and the text is put together in 64-bit words from tables of
  masks per layout: fixed or scientific, where the point goes, how many
  digits.

A value whose digits this cannot decide exactly is written by repr itself:
a subnormal, or a value where an end of that interval, or a rounding tie
where 10**k is not a double, lies within _EPS of an integer. Large
integers such as 2**53 - 1, whose interval ends are integers, are among
these.
A non-finite value raises ValueError. The tables are built from Python
ints on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# the byte that fills the slots around the text; no text holds it
PAD = 0

# bytes per value in float_slots: the longest repr, '-1.2345678901234567e-308',
# takes 24, spread over four 64-bit words. Byte i of a run of words is bits
# 8i..8i+7 of word i // 8: the words' bytes in memory as '<u8'.
SLOT = 32

# a decision closer than this to a tie, in units of y's last digit, goes to
# repr: y and h are known to better than 1e-13 there
_EPS = 1e-9

_U = np.uint64
# 2**27 + 1: m * _SPLIT - (m * _SPLIT - m) is m's leading 26 bits (Dekker)
_SPLIT = 134217729.0
# values per pass of float_slots: its arrays stay in cache; at 8 192 their
# allocations page-fault and a value costs 1.5 times as much
_CHUNK = 4096
# rows of the layout tables: fixed notation with decimal exponent -4..15,
# then scientific, each for 0..18 digits
_LAYOUTS = 21
_NDIGITS = 19
# exponents of the exponent table: -400..400 covers every double's
_EXP0 = 400


def _log10_pow2(e):
    """floor(log10(2**e)), exact for |e| <= 1100 (checked against exact
    rationals; the binary exponents need |e| <= 1023)."""
    return (e * 78913) >> 18


def _word_from_byte2(data):
    """The word whose bytes 2, 3, ... hold data (byte i is bits 8i..8i+7)."""
    return int.from_bytes(b"\0\0" + data, "little")


def _layout_words(cls, nd):
    """How layout cls writes nd digits: 10**(17 - i), i the digits before
    the point (17: no point); the ASCII to add to the body words, '0' on
    each digit byte and '.' on the point's; and the lead word: byte 0
    free, byte 1 for the sign, then a fixed value's '0.' and zeros."""
    lead = b""
    if cls == _LAYOUTS - 1:             # scientific
        before, total = (1 if nd > 1 else 17), nd
    elif cls >= 4:                      # fixed, at least 1
        before, total = cls - 3, max(nd, cls - 2)
    else:                               # fixed, 1e-4 to 1
        before, total, lead = 17, nd, b"0." + b"0" * (3 - cls)
    text = b"0" * total
    if before < 17:
        text = text[:before] + b"." + text[before:]
    body = int.from_bytes(text, "little")
    return [10 ** (17 - before)] + [(body >> (64 * w)) & (2 ** 64 - 1)
                                    for w in range(3)] \
        + [_word_from_byte2(lead)]


def _exp_word(e10):
    """The scientific exponent of e10 in bytes 2-6 of the last body word:
    'e', the sign and two or three digits (a PAD for a third); 0 for an
    exponent written in fixed notation."""
    if -4 <= e10 < 16:
        return 0
    digits = b"%02d" % abs(e10)
    return _word_from_byte2(b"e" + (b"-" if e10 < 0 else b"+")
                            + b"\0" * (3 - len(digits)) + digits)


@functools.lru_cache(maxsize=None)
def _tables():
    """The tables, built on first use. Per biased exponent be: e0 =
    floor(log10(2**(be - 1023))) and 10**(16 - e0) * 2**(be - 1075) as a
    double-double, its leading double also in two 26-bit halves. Then the
    powers 10**0..10**18; per layout and digit count, where the point
    splits the digits and the ASCII words; the layout and the exponent
    word of each decimal exponent; and the ASCII words of the ints."""
    be = np.arange(2047)
    e0 = _log10_pow2(be - 1023)
    hi, lo = [], []
    for b, k in zip(be.tolist(), (16 - e0).tolist()):
        # 10**k * 2**s, s = b - 1075 (b = 0: the subnormals' 2**-1074)
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        s = max(b, 1) - 1075
        num, den = (num << s, den) if s >= 0 else (num, den << -s)
        h = num / den                   # int division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = hi * _SPLIT
    ah = c - (c - hi)
    layouts = np.array([_layout_words(cls, nd) for cls in range(_LAYOUTS)
                        for nd in range(_NDIGITS)], dtype=_U)
    ints = [(b"0" * max(nd, 1)).rjust(16, b"\0") for nd in range(17)]
    tables = dict(
        hi=hi, ah=ah, al=hi - ah, lo=np.array(lo), e0=e0,
        p10=10 ** np.arange(19, dtype=np.int64),
        split=layouts[:, 0].astype(np.int64),
        layout=[np.ascontiguousarray(col) for col in layouts[:, 1:].T],
        cls=np.array([e + 4 if -4 <= e < 16 else 20
                      for e in range(-_EXP0, _EXP0 + 1)]),
        exp=np.array([_exp_word(e) for e in range(-_EXP0, _EXP0 + 1)],
                     dtype=_U),
        # '0' on the last nd bytes of 16 (one for the int 0), per nd
        int_ascii=np.array([[int.from_bytes(text[8 * w:8 * w + 8], "little")
                             for text in ints] for w in range(2)], dtype=_U))
    return tables


def shortest_digits(a):
    """(digits, count, exponent, decided) for a float64 array a of finite
    values >= 0: repr's digits as an int64 with no trailing zero, how many
    there are and the decimal exponent of the first, so a is the double
    nearest to digits * 10**(exponent + 1 - count); decided is False where
    the digits are not exactly known, and those entries are meaningless.
    Zero has the digit 0 at exponent 0."""
    t = _tables()
    bits = a.view(_U)
    be = (bits >> _U(52)).astype(np.intp)
    # the significand as an integer, 2**52 .. 2**53; from a power of two
    # above the smallest normal, the next double down is half as far
    m = ((bits & _U(2 ** 52 - 1)) | _U(2 ** 52)).astype(np.float64)
    half = (m == 2.0 ** 52) & (be > 1)
    decided = be > 0
    # y = a * 10**k = m * (A + A_lo): p + lo with p = fl(m * A)
    ten = t["hi"].take(be)
    p = m * ten
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    ah, al = t["ah"].take(be), t["al"].take(be)
    lo = (((mh * ah - p) + mh * al + ml * ah) + ml * al) \
        + m * t["lo"].take(be)
    # y = Y + f, Y an integer below 2e17 and f in [0, 1); h = A / 2 is half
    # an ulp of a in units of y
    fl = np.floor(lo)
    f = lo - fl
    y_int = p.astype(np.int64) + fl.astype(np.int64)
    h = ten * 0.5
    # the integers that read back as a: y_int + low .. y_int + top
    below, above = f - h * (1.0 - 0.5 * half), f + h
    low, top = np.ceil(below), np.floor(above)
    gap_low, gap_top = low - below, above - top
    decided &= (np.minimum(gap_low, gap_top) > _EPS) \
        & (np.maximum(gap_low, gap_top) < 1.0 - _EPS)
    end = y_int + top.astype(np.int64)
    width = (top - low).astype(np.int64) + 1
    # the largest j with a multiple of 10**j among them: end mod 10**j <
    # width, which at j >= 2 (width <= 46) needs zeros in digits 2..j-1
    r100 = end - (end // 100) * 100
    deep = r100 < width
    j = (r100 - (r100 // 10) * 10 < width).astype(np.int64) + deep
    at = np.flatnonzero(deep)
    rest = end[at] // 100
    while at.size:
        zero = (rest - (rest // 10) * 10 == 0) & (rest > 0)
        at, rest = at[zero], rest[zero] // 10
        j[at] += 1
    # repr's digits: y / 10**j rounded to nearest, or up where the nearest
    # lies below a power of two's narrower lower gap. Where 10**k is a
    # double, y and s are exact and a tie goes to the even digit, as in
    # dtoa; elsewhere a near tie goes to repr.
    p10 = t["p10"]
    pj = p10.take(j)
    q = y_int // pj
    s = (2 * (y_int - q * pj) - pj) + 2.0 * f
    decided &= (t["lo"].take(be) == 0) | (np.abs(s) > 2 * _EPS)
    digits = q + ((s > 0) | ((s == 0) & ((q & 1) == 1)))
    at = np.flatnonzero(half)
    digits[at] += digits[at] * pj[at] < y_int[at] + low[at].astype(np.int64)
    longer = digits >= p10.take(17 - j)
    nd, e10 = 17 - j + longer, t["e0"].take(be) + longer
    at = np.flatnonzero(a == 0)
    digits[at], nd[at], e10[at], decided[at] = 0, 1, 0, True
    return digits, nd, e10, decided


def _swar8(v):
    """The eight decimal digits of uint64 v < 10**8, one per byte, the
    first in the lowest byte (so first in memory): v is split into two
    4-digit lanes, each into two 2-digit lanes, each into two digits,
    with a multiply-shift for each division."""
    hi = v // _U(10000)
    x = hi | ((v - hi * _U(10000)) << _U(32))
    q = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    x = q | ((x - q * _U(100)) << _U(16))
    q = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return q | ((x - q * _U(10)) << _U(8))


def _fill(x, out):
    """float_slots for one pass of at most _CHUNK values."""
    t = _tables()
    a = np.abs(x)
    digits, nd, e10, decided = shortest_digits(a)
    # the digits left-aligned to 17 places, then moved up a place after
    # the point: bytes 0..17 of three words, 0 at the point
    m17 = digits * t["p10"].take(17 - nd)
    e10 += _EXP0
    layout = t["cls"].take(e10) * _NDIGITS + nd
    split = t["split"].take(layout)
    m18 = (m17 + 9 * split * (m17 // split)).astype(_U)
    top = m18 // _U(10 ** 16)
    m16 = m18 - top * _U(10 ** 16)
    mid = m16 // _U(10 ** 8)
    hi, lo = _swar8(mid), _swar8(m16 - mid * _U(10 ** 8))
    tens = top // _U(10)
    words = (tens | ((top - tens * _U(10)) << _U(8)) | (hi << _U(16)),
             (hi >> _U(48)) | (lo << _U(16)), lo >> _U(48))
    ascii = t["layout"]
    for w, word in enumerate(words):
        np.bitwise_or(word, ascii[w].take(layout), out=out[:, w + 1])
    out[:, 3] |= t["exp"].take(e10)
    np.bitwise_or(ascii[3].take(layout),
                  (x.view(_U) >> _U(63)) * _U(ord("-") << 8), out=out[:, 0])
    for i in np.flatnonzero(~decided):
        text = repr(float(x[i])).encode("ascii")
        out[i] = np.frombuffer(b"\0" + text.ljust(SLOT - 1, b"\0"), "<u8")


def float_slots(x):
    """The text repr(float(v)) of each float64 v of x, as an (n, 4) uint64
    array: per value SLOT bytes that hold the text in order with PAD bytes
    among it, byte 0 always PAD. Deleting the PAD bytes of
    float_slots(x).astype('<u8').view(np.uint8) gives the text."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise ValueError("float_slots takes finite values only")
    out = np.empty((len(x), 4), dtype=_U)
    for lo in range(0, len(x), _CHUNK):
        _fill(x[lo:lo + _CHUNK], out[lo:lo + _CHUNK])
    return out


def int_slots(i):
    """The decimal text of each int 0 <= v < 10**16 of i, as an (n, 2)
    uint64 array: 16 bytes that hold the digits right-aligned after PAD
    bytes."""
    i = np.asarray(i, dtype=np.int64).ravel()
    if i.size and not (0 <= i.min() and i.max() < 10 ** 16):
        raise ValueError("int_slots takes ints in [0, 10**16) only")
    t = _tables()
    nd = np.searchsorted(t["p10"], i, side="right")
    v = i.astype(_U)
    hi = v // _U(10 ** 8)
    out = np.empty((len(i), 2), dtype=_U)
    for w, word in enumerate((_swar8(hi), _swar8(v - hi * _U(10 ** 8)))):
        np.bitwise_or(word, t["int_ascii"][w].take(nd), out=out[:, w])
    return out
