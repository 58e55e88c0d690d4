"""OBJ ``v`` and ``f`` lines formatted by numpy, byte for byte as ``%``.

:func:`vertex_lines` and :func:`face_lines` turn a block of mesh rows
into a ``uint8`` array with one fixed-width row per line. Columns that
hold no character are NUL, so ``buf.tobytes().translate(None, b"\\0")``
is exactly the text of ``"v %.17g %.17g %.17g\\n"`` (or ``"f %d %d
%d\\n"`` of the 1-based indices) over the rows, with no Python call per
number.

``%.17g`` prints coordinates with ``1e-4 <= |x| < 1e16`` in fixed
notation. Their 17 significant digits are computed exactly in
float64: with ``X`` the decimal exponent, Dekker's two-product gives
``|x| * 10**(16 - X)`` as ``p + e`` with no rounding error (``10**k`` is
exact for ``k <= 22``), ``X`` is corrected where ``floor(log10|x|)``
missed it, and ``p + e`` is rounded half to even to an integer, as the
correctly rounded conversion behind ``%`` rounds. Every other value
(signed zeros, subnormals, ``|x| < 1e-4`` and ``|x| >= 1e16``) is
formatted by ``b"%.17g" % x`` into the same columns.
"""

from __future__ import annotations

import numpy as np

# 10**k, exact in float64 for k <= 22, and its halves for Dekker's
# two-product.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1


def _halves(a):
    """``hi + lo == a`` with at most 26 significant bits in each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _scaled(a, k):
    """``a * 10**k`` exactly, as ``p + e`` with ``p = fl(a * 10**k)``."""
    p = a * _POW10[k]
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


# A coordinate's field is 48 bytes, six little-endian words: bytes 0-3
# NUL (byte 3 holds the ``v`` of the first field), byte 4 the space,
# byte 5 the sign, then for digit slots j = 0..20 a possible point at
# byte 6 + 2j and the digit at 7 + 2j. The slots hold "0000" and the 17
# digits, so a word from byte 8 on covers the four slots of one 4-digit
# chunk; the point before slot 5 starts a word.
_FIELD = 48
_FIELD_WORDS = _FIELD // 8
_LINE_WORDS = 3 * _FIELD_WORDS + 1  # three fields and the newline word


def _chunk_tables():
    """The slots of each 4-digit chunk ``n`` as one word, every point
    byte 0xFF so that a mask sets it, and the trailing zeros of ``n`` (4
    for ``n = 0``)."""
    # uint16 keeps every temporary under 100 kB.
    n = np.arange(10000, dtype=np.uint16)[:, None]
    slots = np.full((10000, 4, 2), 0xFF, np.uint8)
    slots[..., 1] = n // np.array([1000, 100, 10, 1], np.uint16) % 10
    slots[..., 1] += ord("0")
    trailing = (n % np.array([10, 100, 1000, 10000], np.uint16) == 0).sum(
        axis=1, dtype=np.uint8)
    return slots.reshape(-1, 8).view("<u8")[:, 0], trailing


_CHUNK, _CHUNK_TZ = _chunk_tables()
_HEAD = np.frombuffer(bytes([0, 0, 0, 0, ord(" "), 0, 0xFF, ord("0")]),
                      "<u8")[0]


def _field_masks():
    """``[q * 21 + last]``: the field of a number whose point follows slot
    ``q`` and whose last nonzero digit is in slot ``last``. It keeps the
    slots from the integer part's first digit (slot 4, or slot ``q`` when
    the number is below 1) to ``max(last, q)``, and the point when a
    digit follows it; ANDed with the digits it gives the ``%g`` text."""
    slot = np.arange(21)
    q = np.arange(20)[:, None, None]
    last = np.arange(21)[None, :, None]
    masks = np.zeros((20, 21, _FIELD), np.uint8)
    masks[..., :5] = 0xFF
    masks[..., 7::2] = 0xFF * ((slot >= np.minimum(q, 4))
                               & (slot <= np.maximum(last, q)))
    for k in range(20):
        masks[k, k + 1:, 8 + 2 * k] = ord(".")
    return masks.view("<u8").reshape(20 * 21, _FIELD_WORDS)


_FIELD_MASKS = _field_masks()


def vertex_lines(block: np.ndarray) -> np.ndarray:
    """``"v %.17g %.17g %.17g\\n"`` of each row of a finite ``(n, 3)``
    float block, as ``(n, 152)`` NUL-padded bytes."""
    n = block.shape[0]
    a = np.abs(block)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    exp10 = np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, 16 - exp10)
    # Move the exponent until 10**16 <= p + e < 10**17 (compared exactly).
    while True:
        move = (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
                - ((p < 1e16) | ((p == 1e16) & (e < 0))))
        at = np.nonzero(move)
        if not at[0].size:
            break
        exp10[at] += move[at]
        p[at], e[at] = _scaled(a[at], 16 - exp10[at])
    # p >= 10**16 > 2**53 is an even integer, so rounding p + e half to
    # even is p plus e rounded half to even. The largest double below
    # each power of ten from 1e-4 to 1e16 is more than 8 units of the
    # 17th digit below it, so the rounding never carries to 10**17.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    lead, rest = np.divmod(digits, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    chunks = (lead, *np.divmod(hi, 10 ** 4), *np.divmod(lo, 10 ** 4))
    trailing, zero = 0, True
    for chunk in chunks[:0:-1]:
        trailing = trailing + zero * _CHUNK_TZ[chunk]
        zero = zero & (chunk == 0)

    line = np.empty((n, _LINE_WORDS), np.uint64)
    line[:, -1] = ord("\n")
    line[:, 0:-1:_FIELD_WORDS] = _HEAD
    for w, chunk in enumerate(chunks, start=1):
        line[:, w:-1:_FIELD_WORDS] = _CHUNK[chunk]
    point, last = 4 + exp10, 20 - trailing
    line[:, :-1] &= _FIELD_MASKS[point * 21 + last].reshape(n, -1)
    text = line.view(np.uint8)
    text[:, 3] = ord("v")
    text[:, 5:-8:_FIELD] = (block < 0) * np.uint8(ord("-"))
    for i, c in zip(*np.nonzero(~fast)):
        s = b"%.17g" % float(block[i, c])
        field = text[i, _FIELD * c + 5:_FIELD * (c + 1)]
        field[:] = 0
        field[:len(s)] = np.frombuffer(s, np.uint8)
    return text


def face_lines(block: np.ndarray) -> np.ndarray:
    """``"f %d %d %d\\n"`` of each row of a nonnegative ``(n, 3)`` index
    block plus one, as NUL-padded bytes as wide as the block's largest
    index."""
    n = block.shape[0]
    top = int(block.max()) + 1
    values = block.astype(np.uint32 if top < 2 ** 32 else np.uint64) + 1
    width = len(str(top))
    text = np.zeros((n, 3, width + 1), np.uint8)
    text[..., 0] = ord(" ")
    rest = values
    for k in range(width, 0, -1):
        rest, text[..., k] = np.divmod(rest, values.dtype.type(10))
    text[..., 1:] += ord("0")
    for k in range(1, width):
        text[..., k] *= values >= 10 ** (width - k)
    line = np.empty((n, 3 * (width + 1) + 2), np.uint8)
    line[:, 0] = ord("f")
    line[:, 1:-1] = text.reshape(n, -1)
    line[:, -1] = ord("\n")
    return line
