"""OBJ ``v`` and ``f`` lines formatted by numpy, byte for byte as ``%``.

:func:`vertex_lines` and :func:`face_lines` turn a block of mesh rows
into the text of ``"v %.17g %.17g %.17g\\n"`` (or ``"f %d %d %d\\n"`` of
the 1-based indices) over the rows, as ``bytes``, with no Python call
per number. Each first lays the lines out in fixed-width rows of
little-endian words, NUL where a column holds no character, and drops
the NULs with ``bytes.translate``.

``%.17g`` prints coordinates with ``1e-4 <= |x| < 1e16`` in fixed
notation. Their 17 significant digits are computed exactly in
float64: with ``X`` the decimal exponent, Dekker's two-product gives
``|x| * 10**(16 - X)`` as ``p + e`` with no rounding error (``10**k`` is
exact for ``k <= 22``), ``X`` is corrected where ``floor(log10|x|)``
missed it, and ``p + e`` is rounded half to even to an integer, as the
correctly rounded conversion behind ``%`` rounds. Every other value
(signed zeros, subnormals, ``|x| < 1e-4`` and ``|x| >= 1e16``) is
formatted by ``b"%.17g" % x`` into the same columns. The digits are
split into 4-digit chunks; each chunk's word comes from a 10,000-entry
table, and one of 840 mask rows, chosen by the sign, the point's slot
and the last nonzero digit, gives the field's head and is ANDed with
the chunk words as they are stored.

An index takes as many 4-digit chunks as the block's largest value
needs, each a word of a 20,000-entry table: the chunk's digits padded
with zeros, or with leading zeros NUL for the highest nonzero chunk (and
all NUL above it).
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


def _face_digits():
    """The four digits of each ``n < 10**4`` as one word: ``[n]`` with
    leading zeros NUL (all NUL for ``n = 0``), ``[10**4 + n]`` padded
    with zeros."""
    padded = _CHUNK.view(np.uint8).reshape(-1, 8)[:, 1::2]
    lead = np.arange(10000)[:, None] >= np.array([1000, 100, 10, 1])
    return np.concatenate([padded * lead, padded]).view("<u4")[:, 0]


_FACE_DIGITS = _face_digits()
# The word before each index of an ``f`` line.
_FACE_HEADS = np.frombuffer(b"f \0\0 \0\0\0 \0\0\0", "<u4")


def _field_masks():
    """``[neg * 420 + q * 21 + last]``: the field of a number, negative
    when ``neg``, whose point follows slot ``q`` and whose last nonzero
    digit is in slot ``last``. Word 0 is the field's head (the space, the
    sign and the "0" of slot 0 if kept). The other words keep the slots
    from the integer part's first digit (slot 4, or slot ``q`` when the
    number is below 1) to ``max(last, q)``, and the point when a digit
    follows it; ANDed with the digits they give the ``%g`` text."""
    slot = np.arange(21)
    q = np.arange(20)[:, None, None]
    last = np.arange(21)[None, :, None]
    masks = np.zeros((2, 20, 21, _FIELD), np.uint8)
    masks[..., 4] = ord(" ")
    masks[1, ..., 5] = ord("-")
    masks[..., 7::2] = 0xFF * ((slot >= np.minimum(q, 4))
                               & (slot <= np.maximum(last, q)))
    masks[..., 7] &= ord("0")
    for k in range(20):
        masks[:, k, k + 1:, 8 + 2 * k] = ord(".")
    return masks.view("<u8").reshape(2 * 20 * 21, _FIELD_WORDS)


_FIELD_MASKS = _field_masks()


def _split(a, d):
    """``divmod(a, d)`` of an integer array, by ``//`` and a product."""
    q = a // d
    return q, a - q * d


def vertex_lines(block: np.ndarray) -> bytes:
    """The text of ``"v %.17g %.17g %.17g\\n"`` over the rows of a finite
    ``(n, 3)`` float block."""
    # The columns' temporaries are freed before the two copies.
    return _vertex_columns(block).tobytes().translate(None, b"\0")


def _vertex_columns(block):
    """The lines of :func:`vertex_lines` as ``(n, 152)`` bytes, NUL
    where a column holds no character."""
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
    lead, rest = _split(digits, 10 ** 16)
    hi, lo = _split(rest, 10 ** 8)
    chunks = (lead, *_split(hi, 10 ** 4), *_split(lo, 10 ** 4))
    trailing, zero = 0, True
    for chunk in chunks[:0:-1]:
        trailing = trailing + zero * np.take(_CHUNK_TZ, chunk)
        zero = zero & (chunk == 0)

    masks = np.take(_FIELD_MASKS, (block < 0) * 420 + (4 + exp10) * 21
                    + (20 - trailing), axis=0)
    line = np.empty((n, _LINE_WORDS), np.uint64)
    line[:, -1] = ord("\n")
    line[:, 0:-1:_FIELD_WORDS] = masks[..., 0]
    for w, chunk in enumerate(chunks, start=1):
        np.bitwise_and(np.take(_CHUNK, chunk), masks[..., w],
                       out=line[:, w:-1:_FIELD_WORDS])
    text = line.view(np.uint8)
    text[:, 3] = ord("v")
    for i, c in zip(*np.nonzero(~fast)):
        s = b"%.17g" % float(block[i, c])
        field = text[i, _FIELD * c + 5:_FIELD * (c + 1)]
        field[:] = 0
        field[:len(s)] = np.frombuffer(s, np.uint8)
    return text


def face_lines(block: np.ndarray) -> bytes:
    """The text of ``"f %d %d %d\\n"`` over the rows of a nonnegative
    ``(n, 3)`` index block plus one."""
    # Widened first: an index plus one may not fit a narrow dtype.
    rest = block.astype(np.int64, copy=False) + 1
    # Each index takes a head word ("f " or the space) and its chunk
    # words, highest first; the line ends with the newline word.
    chunks = (len(str(int(rest.max(initial=0)))) + 3) // 4
    line = np.empty((block.shape[0], 3 * chunks + 4), np.uint32)
    line[:, :-1:chunks + 1] = _FACE_HEADS
    line[:, -1] = ord("\n")
    for w in range(chunks, 0, -1):
        rest, chunk = _split(rest, 10 ** 4)
        line[:, w:-1:chunks + 1] = np.take(_FACE_DIGITS,
                                           chunk + 10 ** 4 * (rest > 0))
    return line.tobytes().translate(None, b"\0")
