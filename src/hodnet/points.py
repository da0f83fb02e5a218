"""Point generation for digital nets and sequences.

Points are exact base-b digit vectors: coordinate digits are the image of
the index digits under the generating matrices, so prefix and interleaving
identities can be tested digit for digit.  ``net_digits`` is the one
index-to-digit map (uint8 digits, b <= MAX_BASE) and ``_digits_to_int`` the
one exact digits-to-integer route: ``net_values`` divides its integers by
b**rows once, and ``net_points`` keeps them exact as Fractions for the
exact wce oracle ``kernel.wce_squared_exact``, the only reader of that
route.  Conversion to floats happens only at evaluation boundaries (kernel
sums, CSV output).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .gf import digits_of
from .matrices import GeneratingMatrixSet


def _index_digits(base: int, m: int) -> np.ndarray:
    """(b**m, m) uint8 array: row h holds the digits of h, least significant
    first."""
    h = np.arange(base**m, dtype=np.int64)[:, None]
    return ((h // base ** np.arange(m, dtype=np.int64)) % base).astype(np.uint8)


def _digits_to_int(digits: np.ndarray, base: int) -> np.ndarray:
    """Exact integers of the digit vectors along the last axis, most
    significant digit first, as an object array of Python ints.

    Horner's rule runs vectorized in int64 over pieces of at most 62 bits;
    a coordinate with more digits joins its pieces as Python ints.
    """
    rows = digits.shape[-1]
    # The largest piece length L with base**L <= 2**62.
    step = len(digits_of(1 << 62, base)) - 1
    out = np.zeros(digits.shape[:-1], dtype=object)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        piece = np.zeros(digits.shape[:-1], dtype=np.int64)
        for i in range(lo, hi):
            piece *= base
            piece += digits[..., i]
        out *= base ** (hi - lo)
        out += piece
    return out


def net_digits(ms: GeneratingMatrixSet, m: int) -> np.ndarray:
    """Digit array of the first b**m points, shape (b**m, dims, rows), uint8.

    Row h is the image of the m index digits of h under the first m columns
    of each matrix; the remaining columns meet only zero digits.
    """
    if m < 0 or m > ms.cols:
        raise UsageError(f"m must lie in [0, {ms.cols}]")
    eta = _index_digits(ms.base, m)
    out = np.empty((ms.base**m, ms.dims, ms.rows), dtype=np.uint8)
    for j, mat in enumerate(ms.matrices):
        out[:, j, :] = (eta @ mat[:, :m].T) % ms.base
    return out


def net_points(ms: GeneratingMatrixSet, m: int) -> list[tuple[Fraction, ...]]:
    """Exact coordinates of the first b**m points in index order, each its
    digit integer over b**rows (the input of the exact wce oracle).

    Because index digits beyond position m are zero, the first b**m' entries
    for m' < m coincide exactly with ``net_points(ms, m')``.
    """
    den = ms.base**ms.rows
    nums = _digits_to_int(net_digits(ms, m), ms.base)
    return [tuple(Fraction(num, den) for num in pt) for pt in nums.tolist()]


def net_values(ms: GeneratingMatrixSet, m: int) -> np.ndarray:
    """Float coordinates of the first b**m points, shape (b**m, dims).

    Each value is the exact truncated rational of the digit vector, rounded
    once to binary64: Python int / int division rounds correctly.
    """
    nums = _digits_to_int(net_digits(ms, m), ms.base)
    return (nums / ms.base**ms.rows).astype(np.float64)


def format_points_csv(ms: GeneratingMatrixSet, m: int) -> str:
    """CSV text for the first b**m points: one point per line, fixed decimals.

    Prints the binary64 values of ``net_values`` with ceil(rows*log10 b) + 17
    decimals, at least 17 significant digits even for the smallest nonzero
    value b**-rows, so every value parses back to the same float.
    """
    decimals = math.ceil(ms.rows * math.log10(ms.base)) + 17
    row = ",".join([f"%.{decimals}f"] * ms.dims)
    lines = [_gen_header(ms, m)]
    lines.extend(row % tuple(pt) for pt in net_values(ms, m).tolist())
    return "\n".join(lines) + "\n"


# Digit characters: 0-9, then a-z, the alphabet int(text, base) reads.
_DIGIT_CHARS = np.frombuffer(b"0123456789abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


def format_points_digits(ms: GeneratingMatrixSet, m: int) -> str:
    """Digit-string output: coordinates as base-b strings, '|'-separated.

    Digits 10-35 print as a-z, so bases above 36 have no digit format.
    """
    if ms.base > len(_DIGIT_CHARS):
        raise UsageError(
            f"the digits format needs base <= {len(_DIGIT_CHARS)}, got {ms.base}"
        )
    arr = net_digits(ms, m)
    n_points, dims, rows = arr.shape
    chars = np.empty((n_points, dims, rows + 1), dtype=np.uint8)
    chars[..., :rows] = _DIGIT_CHARS[arr]
    chars[..., rows] = ord("|")
    chars[:, -1, rows] = ord("\n")
    return _gen_header(ms, m) + "\n" + chars.tobytes().decode("ascii")


def _gen_header(ms: GeneratingMatrixSet, m: int) -> str:
    prov = ms.provenance
    return (
        f"# b={ms.base} s={ms.dims} m={m} d={prov.interlace_factor} "
        f"construction={prov.construction}"
    )
