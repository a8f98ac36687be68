"""C ``%.17g`` for float64 arrays, byte for byte, in NumPy.

``format_rows(rows)`` gives the text of ``"%.17g,...,%.17g\\n"`` per row.
For a finite nonzero |x|, with k = floor(log10 |x|), the 17 significant
digits are D = round(|x| * 10**(16 - k)), a 17-digit integer.  The scale
y = |x| * 10**(16 - k) is formed in double-double (Dekker 1971): |x| =
m * 2**e, the exact product of m with the 53-bit head of a 106-bit table
of 10**s, plus m times the table's tail.  The relative error is below
about 2**-100, so y is off by less than 2**-43 and D = round(y) is exact
unless frac(y) lies within ``_TIE_BAND`` of 1/2.  Those values, and the
non-finite ones, take the one scalar path, ``'%.17g' % v``.

k comes from ``np.log10`` and is corrected once, by one, when y falls
outside [1e16, 1e17).  No loop is needed: when y lies within rounding of
1e16 or 1e17, both choices of k give the same digits, as D = 10**17
is renormalised to 10**16 at k + 1.

Each value is laid out in a 48-byte record that holds, at fixed places,
every character ``%g`` could print:

    byte  0      sign ('-' or unused)
    bytes 1-5    "0.000", the prefix of exponents -1 to -4
    bytes 6-39   digit j at 6 + 2j, each followed by a '.'
    bytes 40-44  "e+dd" or "e-ddd"
    byte  47     ',' or '\\n'

A keep-mask row, looked up by layout (fixed notation at exponent
-4..16, or exponent notation with 2 or 3 exponent digits), digits kept
(1-17, trailing zeros dropped) and sign, selects the bytes of the text,
and one ``np.compress`` joins a block of records.  ±0 are D = 0 at
exponent 0, so they stay on the array path.
"""

import numpy as np

_BLOCK = 2048  # values per block: the block's temporaries stay near 1 MiB
_TIE_BAND = 2.0**-30
_S_MIN, _S_MAX = -300, 350  # scales 16 - k that the search can reach, k in [-325, 309]
_X_MIN, _X_MAX = -324, 308  # decimal exponents of nonzero finite float64
_FIXED_MIN, _FIXED_MAX = -4, 16  # %.17g prints these exponents without 'e'
_N_LAYOUTS = _FIXED_MAX - _FIXED_MIN + 3  # the fixed ones, then 'e' with 2 and with 3 exponent digits
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for 53-bit doubles


def _pow10_table():
    """10**s = (head + tail) * 2**exp for every scale s, head in [1/2, 1)
    holding the top 53 bits and tail the next 53, from exact integers."""
    heads, tails, exps = [], [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            p = 10**s
            b = p.bit_length()
            n = p << (106 - b) if b <= 106 else p >> (b - 106)
        else:
            q = 10**-s  # not a power of two, so the quotient has 106 bits
            n = (1 << (105 + q.bit_length())) // q
            b = 1 - q.bit_length()
        heads.append((n >> 53) / 2.0**53)
        tails.append((n & (2**53 - 1)) / 2.0**106)
        exps.append(b)
    head = np.array(heads)
    c = head * _SPLIT
    head_hi = c - (c - head)
    return np.stack([head, head_hi, head - head_hi, np.array(tails)], axis=1), np.array(exps, np.int32)


def _words(chars):
    """Rows of 8 ASCII codes as one native uint64 word each."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64).ravel()


def _digit_tables():
    """Each 4-digit chunk as "d.d.d.d." and its count of trailing zeros (4 for 0)."""
    i = np.arange(10000, dtype=np.int32)
    chars = np.full((10000, 8), ord("."), np.uint8)
    for col, div in enumerate((1000, 100, 10, 1)):
        chars[:, 2 * col] = ord("0") + i // div % 10
    trailing = (i % 10 == 0).astype(np.int64) + (i % 100 == 0) + (i % 1000 == 0) + (i == 0)
    return _words(chars), trailing


def _lead_words():
    """Bytes 0-7 by d0 + 10 * negative: sign, "0.000", d0, '.'."""
    d0 = np.tile(np.arange(10), 2)
    chars = np.tile(np.frombuffer(b" 0.0000.", np.uint8), (20, 1))
    chars[10:, 0] = ord("-")
    chars[:, 6] = ord("0") + d0
    return _words(chars)


def _exponent_words():
    """Bytes 40-47 by exponent - _X_MIN: 'e', sign, two or three digits."""
    x = np.arange(_X_MIN, _X_MAX + 1)
    ax = np.abs(x)
    chars = np.zeros((x.size, 8), np.int64)
    chars[:, 0] = ord("e")
    chars[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    three = ax >= 100
    chars[:, 2] = ord("0") + np.where(three, ax // 100, ax // 10)
    chars[:, 3] = ord("0") + np.where(three, ax // 10 % 10, ax % 10)
    chars[:, 4] = np.where(three, ord("0") + ax % 10, 0)
    return _words(chars)


def _keep_masks():
    """Keep-mask rows by (layout * 17 + digits - 1) * 2 + negative, then one
    row that keeps only the separator, for values the scalar path writes."""
    lay = np.arange(_N_LAYOUTS)[:, None, None, None]
    nd = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    b = np.arange(48)
    fixed = lay <= _FIXED_MAX - _FIXED_MIN
    x = np.where(fixed, lay + _FIXED_MIN, 0)  # the digit the point follows, or "0." when negative
    j = (b - 6) // 2
    in_digits = (b >= 6) & (b < 40)
    keep = (b == 47) | ((b == 0) & (neg == 1))
    keep = keep | (in_digits & (b % 2 == 0) & (j < np.maximum(nd, x + 1)))
    keep = keep | (in_digits & (b % 2 == 1) & (j == x) & (nd > x + 1))
    keep = keep | (fixed & (x < 0) & (b >= 1) & (b < 2 - x))
    keep = keep | (~fixed & (b >= 40) & (b < 44 + (lay == _N_LAYOUTS - 1)))
    keep = np.concatenate([keep.reshape(-1, 48), (b == 47)[None]])
    return keep, keep.sum(axis=1)


_POW10, _POW10_EXP = _pow10_table()
_DIGITS, _TRAILING = _digit_tables()
_LEAD = _lead_words()
_EXPONENT = _exponent_words()
_KEEP, _KEEP_LEN = _keep_masks()
_SCALAR_ROW = len(_KEEP) - 1


def _scaled(m, m_hi, m_lo, e, k):
    """(hi, lo) with hi + lo = m * 2**e * 10**(16 - k) to about 2**-100."""
    s = 16 - k - _S_MIN
    head, head_hi, head_lo, tail = np.take(_POW10, s, axis=0).T
    p = m * head
    q = ((m_hi * head_hi - p) + m_hi * head_lo + m_lo * head_hi) + m_lo * head_lo + m * tail
    shift = e + np.take(_POW10_EXP, s)
    return np.ldexp(p, shift), np.ldexp(q, shift)


def _scalar(v):
    """The one scalar path, for non-finite values and possible ties."""
    return ("%.17g" % v).encode("ascii")


def _block(x, separators):
    """The text of a block of whole rows, ``x`` flat, as bytes."""
    a = np.abs(x)
    finite = np.isfinite(a)
    regular = finite & (a != 0)
    a = np.where(regular, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int32)
    m, e = np.frexp(a)
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    hi, lo = _scaled(m, m_hi, m_lo, e, k)
    # k is one off where y = hi + lo lies outside [1e16, 1e17); hi - 1e16 and
    # hi - 1e17 are exact where they are small, and a rounded sum keeps its sign
    below = (hi - 1e16) + lo < 0
    off = np.flatnonzero(below | ((hi - 1e17) + lo >= 0))
    if off.size:
        k[off] += np.where(below[off], -1, 1).astype(np.int32)
        hi[off], lo[off] = _scaled(m[off], m_hi[off], m_lo[off], e[off], k[off])
    r = np.rint(lo)
    scalar = np.flatnonzero(~finite | (np.abs(lo - r) > 0.5 - _TIE_BAND))
    d = (hi.astype(np.int64) + r.astype(np.int64)) * regular
    top = d >= 10**17
    d -= top * (9 * 10**16)
    k += top
    k *= regular

    hi8 = d // 10**8
    lo8 = d - hi8 * 10**8
    d0 = hi8 // 10**8
    mid8 = hi8 - d0 * 10**8
    c1 = mid8 // 10**4
    c3 = lo8 // 10**4
    c2 = mid8 - c1 * 10**4
    c4 = lo8 - c3 * 10**4

    neg = np.signbit(x)
    rec = np.empty((x.size, 6), np.uint64)
    rec[:, 0] = np.take(_LEAD, d0 + 10 * neg)
    for i, chunk in enumerate((c1, c2, c3, c4)):
        rec[:, i + 1] = np.take(_DIGITS, chunk)
    rec[:, 5] = np.take(_EXPONENT, k - _X_MIN)
    codes = rec.view(np.uint8).reshape(-1, separators.size, 48)
    codes[:, :, 47] = separators

    t = _TRAILING
    zeros = t[c4] + (c4 == 0) * (t[c3] + (c3 == 0) * (t[c2] + (c2 == 0) * t[c1]))
    fixed = (k >= _FIXED_MIN) & (k <= _FIXED_MAX)
    layout = np.where(fixed, k - _FIXED_MIN, _N_LAYOUTS - 2 + (np.abs(k) >= 100))
    row = (layout * 17 + 16 - zeros) * 2 + neg
    row[scalar] = _SCALAR_ROW
    text = np.compress(np.take(_KEEP, row, axis=0).ravel(), codes.ravel()).tobytes()
    if not scalar.size:
        return text
    # a scalar value's text goes in before its separator, the one byte its row keeps
    ends = np.cumsum(np.take(_KEEP_LEN, row[: scalar[-1] + 1]))
    parts, prev = [], 0
    for i, at in zip(scalar.tolist(), (ends[scalar] - 1).tolist()):
        parts += [text[prev:at], _scalar(float(x[i]))]
        prev = at
    parts.append(text[prev:])
    return b"".join(parts)


def format_rows(rows):
    """The rows of a 2-D float array as ``'%.17g'`` values, ',' between
    columns and '\\n' after each row: the bytes of ``"%.17g,%.17g\\n" % ...``."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        return ""
    separators = np.full(rows.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    step = max(1, _BLOCK // rows.shape[1])
    data = b"".join([_block(rows[i : i + step].ravel(), separators) for i in range(0, len(rows), step)])
    return data.decode("ascii")
