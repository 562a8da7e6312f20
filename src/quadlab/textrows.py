"""Float64 rows as CSV text, byte for byte what Python's ``repr`` prints.

:func:`format_rows` turns a block of rows into the bytes of
``",".join(map(repr, row)) + "\\n"`` for each row, with numpy operations on
the whole block instead of one ``repr`` call per value.

``repr`` prints the shortest decimal that reads back as the same double,
and of the shortest ones the nearest; it writes fixed notation when the
decimal point falls at ``-4 < decpt <= 16`` (``1e-4 <= |x| < 1e16``) and
scientific notation otherwise.  For a normal ``x`` the kernel finds those
digits with integer arithmetic:

* **Scaled value.**  ``S = |x| * 10**k`` with ``k = 16 - floor(log10|x|)``,
  corrected by one step, lies in ``[1e16, 1e17)``.  ``10**k`` is a
  double-double ``2**a * (t_hi + t_lo)``, so Dekker's TwoProduct
  (Numer. Math. 18, 1971) gives ``S`` as ``hi + lo`` to about ``2**-100``
  relative (exactly for ``0 <= k <= 22``), and ``S = N + rem`` with ``N`` an
  integer and ``|rem| <= 1/2``.
* **Digit count.**  Every decimal within half a gap ``h = spacing(x) / 2 *
  10**k`` of ``S`` reads back as ``x``, and ``h`` is below 11.2 units of the
  17th digit.  The shortest digits are the nearest multiple of ``10**q`` to
  ``S`` for the largest ``q`` whose nearest multiple lies inside that gap.
  A multiple of ``10**(q + 1)`` is one of ``10**q`` too, so the levels that
  qualify are exactly ``q = 0 .. q*``.  Levels 1 and 2 run on every value,
  since most stop there (at 17 or 16 digits), and the search climbs on
  from ``q = 3`` on the rows that qualified at every level so far.
* **Layout.**  Digits come from a 4-digit lookup table into a matrix led by
  ``'0'`` bytes.  Each class of decimal-point position is laid out by
  whole-column copies, and one mask over the block cuts every value's text
  and separator out in order.

Zeros are laid out as ``0.0``.  The rest goes to ``repr`` one value at a
time: non-finite and subnormal values, powers of two (whose lower gap is
half the upper one), and values whose nearest candidate sits within
``_MARGIN`` of a gap edge or of a tie between two candidates, where the
round-half-even rules of the reader decide.  Shortest round-trip printing
by integer arithmetic with an exact fallback follows Loitsch, "Printing
Floating-Point Numbers Quickly and Accurately with Integers" (PLDI 2010).

The kernel works in place where it can and drops each temporary after its
last use, so a call peaks near 100 bytes a value.  Its digit arithmetic
uses int64 throughout, and ``//`` rather than the slower ``%``;
mixing a uint64 array with int64 (or, under numpy 1.x, with a negative
Python int) silently gives float64.
"""

from __future__ import annotations

import numpy as np

# Distance, in units of the 17th significant digit, within which a
# candidate counts as on a gap edge or a tie.  Distances that matter are
# below 12 units and carry rounding errors below 2**-40 units.
_MARGIN = 2.0**-20

_SPLIT = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half 26 bits wide."""
    hi = _SPLIT * a
    lo = hi - a
    np.subtract(hi, lo, out=hi)
    return hi, np.subtract(a, hi, out=lo)


def _powers_of_ten(k_min: int, k_max: int):
    """For each k in [k_min, k_max]: the exponent ``a`` with ``10**k / 2**a``
    in [1, 2), and that quotient as a double-double ``hi + lo``."""
    shift, parts = [], []
    for k in range(k_min, k_max + 1):
        power = 10 ** abs(k)
        bits = power.bit_length()
        if k >= 0:
            num, den = power, 1 << bits - 1
            shift.append(bits - 1)
        else:
            num, den = 1 << bits, power
            shift.append(-bits)
        hi = num / den
        # lo: what hi = m / e leaves of num / den, correctly rounded.
        m, e = hi.as_integer_ratio()
        parts.append((hi, (num * e - m * den) / (den * e)))
    hi, lo = np.array(parts).T.copy()
    return np.array(shift), hi, lo


# k = 16 - floor(log10 x) over the normal doubles, with a step to spare on
# each side for the first estimate and its correction.
_K_MIN, _K_MAX = -294, 326

_DOT, _MINUS, _PLUS, _E, _COMMA, _NEWLINE = b".-+e,\n"

# Text columns of one value: a sign column, then at most 24 bytes (the
# longest repr, '-2.2250738585072014e-308'), then the separator.
_WIDTH = 26

# The kernel's lookup tables, built once at import and shared by every
# thread, so each is read-only.  By k - _K_MIN: the a with 10**k / 2**a in
# [1, 2), and that quotient as _TEN_HI + _TEN_LO, _TEN_HI split for TwoProduct.
_SHIFT, _TEN_HI, _TEN_LO = _powers_of_ten(_K_MIN, _K_MAX)
_TEN_HI_HI, _TEN_HI_LO = _split(_TEN_HI)
# Four ASCII digits of each integer 0 .. 9999, packed in one uint32 so that
# a row of them views as a row of bytes in reading order.
_QUADS = (
    np.ascontiguousarray(np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + ord("0"))
    .view(np.uint32)
    .reshape(-1)
)
# _KEEP[start * _WIDTH + stop]: the columns of a text row from start (0 or
# 1) to its separator at stop.
_KEEP = np.fromfunction(
    lambda start, stop, column: (column >= start) & (column <= stop),
    (2, _WIDTH, _WIDTH),
    dtype=int,
).reshape(-1, _WIDTH)
for _table in (_SHIFT, _TEN_HI, _TEN_LO, _TEN_HI_HI, _TEN_HI_LO, _QUADS, _KEEP):
    _table.flags.writeable = False
del _table


def _scaled(x: np.ndarray, k: np.ndarray):
    """``hi + lo`` close to ``x * 10**k``, and the exponent ``a`` used."""
    row = k - _K_MIN
    shift = _SHIFT.take(row)
    xs = np.ldexp(x, shift)
    hi = _TEN_HI.take(row)
    hi *= xs
    x_hi, x_lo = _split(xs)
    # ((x_hi p_hi - hi) + x_hi p_lo + x_lo p_hi) + x_lo p_lo + xs t_lo, in
    # that order, one product at a time.
    lo = _TEN_HI_HI.take(row)
    lo *= x_hi
    lo -= hi
    for part, factor in (
        (_TEN_HI_LO, x_hi),
        (_TEN_HI_HI, x_lo),
        (_TEN_HI_LO, x_lo),
        (_TEN_LO, xs),
    ):
        term = part.take(row)
        term *= factor
        lo += term
        del term
    return hi, lo, shift


def _level(n: np.ndarray, rem: np.ndarray, half_gap: np.ndarray, m: int):
    """At the multiples of ``m``: how far inside the gap the one nearest
    ``S = n + rem`` lies, that multiple, and whether ``S`` ties between two."""
    above = n // m
    below = above * m
    np.subtract(n, below, out=below)
    # S lies |below + rem| from the multiple of m under N and
    # m - below - rem from the one over it; each is summed from an exact
    # integer, so it is accurate whenever it is small enough to matter.
    dist = below + rem
    np.abs(dist, out=dist)
    np.subtract(m, below, out=below)
    to_upper = below - rem
    del below
    above += to_upper < dist
    above *= m
    np.minimum(to_upper, dist, out=dist)
    inside = np.subtract(half_gap, dist, out=to_upper)
    dist -= 0.5 * m
    np.abs(dist, out=dist)
    return inside, above, dist <= _MARGIN


def _shortest(values: np.ndarray, fast: np.ndarray):
    """Shortest round-trip digits of ``|values[fast]|``, positive normals.

    Returns ``(digits, count, decpt, unsure)``: ``digits`` is the 17-digit
    int64 whose leading ``count`` digits are the shortest ones (trailing
    zeros after them), the value reads ``0.<digits> * 10**decpt``, and
    ``unsure`` marks the values to leave to ``repr``.  Each temporary is
    written in place and dropped after its last use.
    """
    x = values[fast]
    np.abs(x, out=x)
    k = np.log10(x)
    np.floor(k, out=k)
    k = 16 - k.astype(np.int64)
    hi, lo, shift = _scaled(x, k)
    step = ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int8)
    step -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        hi[moved], lo[moved], shift[moved] = _scaled(x[moved], k[moved])
    whole = np.rint(lo)
    n = hi.astype(np.int64)
    del hi
    n += whole.astype(np.int64)
    rem = np.subtract(lo, whole, out=lo)
    del whole
    # spacing(x) / 2 * 2**shift, from x's exponent bits, times t_hi.
    exponent = x.view(np.int64) >> 52
    del x
    exponent -= 1076
    exponent += shift
    del shift
    half_gap = _TEN_HI.take(k - _K_MIN)
    np.ldexp(half_gap, exponent, out=half_gap)
    del exponent

    # Level q = 0: N itself lies within 1/2 < h of S; a tie is |rem| = 1/2.
    # Rows that stop at a level keep the previous level's candidate; a
    # level too close to call leaves the count unknown.  Most values stop
    # at level 1 or 2, so those two levels run on every value, and only the
    # rest climb on.
    unsure = np.abs(rem) >= 0.5 - _MARGIN
    inside, candidate_1, tie_1 = _level(n, rem, half_gap, 10)
    stop_1 = inside <= _MARGIN
    unsure |= inside >= -_MARGIN
    count = np.where(stop_1, 17, 16).astype(np.int8)
    del inside
    inside, candidate_2, tie_2 = _level(n, rem, half_gap, 100)
    stop_2 = inside <= _MARGIN
    stop_2 &= ~stop_1
    tie_1 |= inside >= -_MARGIN
    np.copyto(unsure, tie_1, where=stop_2)
    del inside, tie_1
    rows = np.flatnonzero(~(stop_1 | stop_2))
    n_live, rem, half_gap = n[rows], rem[rows], half_gap[rows]
    candidate, tie = candidate_2[rows], tie_2[rows]
    del candidate_2, tie_2
    # digits is n, the level 0 candidate, but the level 1 candidate on the
    # rows that stop at level 2; the loop settles the other rows.
    digits = n
    np.copyto(digits, candidate_1, where=count == 16)
    del candidate_1
    n = n_live
    for q in range(3, 17):
        m = 10**q
        inside, above, next_tie = _level(n, rem, half_gap, m)
        done = np.flatnonzero(inside <= _MARGIN)
        if done.size:
            settled = rows[done]
            digits[settled] = candidate[done]
            count[settled] = 18 - q
            unsure[settled] = tie[done] | (inside[done] >= -_MARGIN)
            live = np.flatnonzero(inside > _MARGIN)
            rows, n, rem, half_gap = rows[live], n[live], rem[live], half_gap[live]
            above, next_tie = above[live], next_tie[live]
        candidate, tie = above, next_tie
    # One digit is as short as digits get.
    digits[rows] = candidate
    count[rows] = 1
    unsure[rows] = tie
    decpt = np.subtract(17, k, out=k)
    # 10**17 is a one-digit '1' one place further left.
    carry = digits == 10**17
    digits[carry] = 10**16
    decpt[carry] += 1
    return digits, count, decpt, unsure


def _digit_bytes(digits: np.ndarray) -> np.ndarray:
    """(n, 24) ASCII bytes: seven ``'0'`` then the 17 digits of each int64."""
    out = np.empty((digits.shape[0], 6), dtype=_QUADS.dtype)
    out[:, 0] = _QUADS[0]
    # Nine digits and eight, then four at a time from the right.
    head = digits // 10**8
    tail = digits - head * 10**8
    quad = tail // 10**4
    tail -= quad * 10**4
    out[:, 5] = _QUADS.take(tail)
    out[:, 4] = _QUADS.take(quad)
    np.floor_divide(head, 10**4, out=quad)
    head -= quad * 10**4
    out[:, 3] = _QUADS.take(head)
    np.floor_divide(quad, 10**4, out=head)
    out[:, 1] = _QUADS.take(head)
    quad -= head * 10**4
    out[:, 2] = _QUADS.take(quad)
    return out.view(np.uint8)


def _fixed(text: np.ndarray, at: np.ndarray, digit_bytes: np.ndarray, count, point: int):
    """Lay out text rows ``at`` (from column 1) of values that all read
    ``0.<digits> * 10**point`` with ``-4 < point <= 16``; their lengths."""
    # Integer digits, '.', fraction digits, all one window of the '0'-led
    # digit matrix: a lone '0' before the point when point <= 0, and a lone
    # '0' after it when no digit is left for the fraction.
    whole = max(point, 1)
    text[at, 1 : 1 + whole] = digit_bytes[:, 7 + point - whole : 7 + point]
    text[at, 1 + whole] = _DOT
    text[at, 2 + whole : 19 + whole - point] = digit_bytes[:, 7 + point :]
    return whole + 1 + np.maximum(count - point, 1)


def _scientific(text: np.ndarray, at: np.ndarray, digit_bytes: np.ndarray, count, decpt):
    """Lay out text rows ``at`` (from column 1) in repr's scientific
    notation: ``d`` or ``d.ddd``, then ``e``, the exponent's sign and at
    least two of its digits; their lengths."""
    text[at, 1] = digit_bytes[:, 7]
    text[at, 2] = _DOT
    text[at, 3:19] = digit_bytes[:, 8:]
    mark = np.where(count > 1, count + 2, 2)
    exponent = decpt - 1
    wide = np.abs(exponent) >= 100
    # Three exponent digits, then 'e' and the sign over the first of them
    # when two are enough.
    exponent_digits = _QUADS[np.abs(exponent)].view(np.uint8).reshape(-1, 4)[:, 1:]
    text[at[:, None], (mark + 1 + wide)[:, None] + np.arange(3)] = exponent_digits
    text[at, mark] = _E
    text[at, mark + 1] = np.where(exponent < 0, _MINUS, _PLUS)
    return mark + 3 + wide


def format_rows(block: np.ndarray) -> bytes:
    """CSV bytes of a C-ordered (n, w) float64 block, one line per row,
    equal to ``",".join(map(repr, row)) + "\\n"`` for each row.  Safe to
    call from two threads at once."""
    width = block.shape[1]
    values = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    size = values.shape[0]
    bits = values.view(np.int64)
    exponent_bits = (bits >> 52) & 0x7FF
    # Normal, and not a power of two.
    fast = np.flatnonzero(
        (exponent_bits > 0) & (exponent_bits < 0x7FF) & ((bits & (2**52 - 1)) != 0)
    )
    del exponent_bits
    zero = (bits & (2**63 - 1)) == 0
    digits, count, decpt, unsure = _shortest(values, fast)
    # Zeros and the kernel's sure values are laid out here, the rest by repr.
    slow = ~zero
    slow[fast] = unsure
    digit_bytes = _digit_bytes(digits)
    del digits

    text = np.empty((size, _WIDTH), dtype=np.uint8)
    length = np.empty(size, dtype=np.int8)
    # Classes -4 and 17 hold every value in scientific notation.
    point = np.clip(decpt, -4, 17).astype(np.int8)
    for cls in (np.flatnonzero(np.bincount(point + 4)) - 4).tolist():
        members = np.flatnonzero(point == cls)
        at = fast[members]
        if -4 < cls <= 16:
            length[at] = _fixed(text, at, digit_bytes[members], count[members], cls)
        else:
            length[at] = _scientific(
                text, at, digit_bytes[members], count[members], decpt[members]
            )
        del members, at
    del fast, count, decpt, digit_bytes, point
    text[zero, 1:4] = np.frombuffer(b"0.0", dtype=np.uint8)
    length[zero] = 3
    text[:, 0] = _MINUS
    # Text starts at column 1, or at the '-' in column 0.
    start = bits >= 0

    slow = np.flatnonzero(slow)
    if slow.size:
        spelled = [repr(value) for value in values[slow].tolist()]
        padded = "".join(word.ljust(24) for word in spelled).encode("ascii")
        text[slow, 1:25] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, 24)
        length[slow] = [len(word) for word in spelled]
        start[slow] = True

    stop = 1 + length
    separator = np.full(size, _COMMA, dtype=np.uint8)
    separator[width - 1 :: width] = _NEWLINE
    text.reshape(-1)[np.arange(0, size * _WIDTH, _WIDTH) + stop] = separator
    keep = np.take(_KEEP, start * _WIDTH + stop, axis=0)
    kept = text[keep]
    del text, keep
    return kept.tobytes()
