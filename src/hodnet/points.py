"""Point generation for digital nets and sequences.

Points are exact base-b digit vectors: coordinate digits are the image of
the index digits under the generating matrices, so prefix and interleaving
identities can be tested digit for digit.  Conversion to floats happens only
at evaluation boundaries (kernel sums, CSV output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import UsageError
from .gf import digits_of
from .matrices import GeneratingMatrixSet


@dataclass(frozen=True)
class DigitPoint:
    """A point of [0,1)^s stored as exact digit vectors.

    ``digits[j]`` holds the digits of coordinate j+1, most significant first,
    so coordinate value = sum(digits[j][i] * base**-(i+1)).  Coordinates
    given with fewer digits are zero-padded to the longest precision, which
    leaves their values unchanged.
    """

    base: int
    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise UsageError("a point needs at least one coordinate")
        prec = max(len(coord) for coord in self.digits)
        for coord in self.digits:
            if any(not 0 <= d < self.base for d in coord):
                raise UsageError(f"digits must lie in [0, {self.base})")
        if any(len(coord) != prec for coord in self.digits):
            padded = tuple(
                tuple(coord) + (0,) * (prec - len(coord)) for coord in self.digits
            )
            object.__setattr__(self, "digits", padded)

    @property
    def dims(self) -> int:
        return len(self.digits)

    @property
    def precision(self) -> int:
        return len(self.digits[0])

    def fractions(self) -> tuple[Fraction, ...]:
        """Exact coordinate values, denominator base**precision."""
        den = self.base**self.precision
        out = []
        for coord in self.digits:
            num = 0
            for d in coord:
                num = num * self.base + d
            out.append(Fraction(num, den))
        return tuple(out)

    def values(self) -> tuple[float, ...]:
        """Coordinates as correctly rounded binary64 floats."""
        return tuple(float(f) for f in self.fractions())


def digital_point(ms: GeneratingMatrixSet, h: int) -> DigitPoint:
    """Point with index ``h`` of the digital net/sequence generated by ``ms``."""
    if h < 0:
        raise UsageError("point index must be nonnegative")
    if h >= ms.base**ms.cols:
        raise UsageError(
            f"index {h} needs more than the {ms.cols} available digit columns"
        )
    eta = np.array(digits_of(h, ms.base, ms.cols), dtype=np.int64)
    coords = tuple(
        tuple(int(v) for v in (mat @ eta) % ms.base) for mat in ms.matrices
    )
    return DigitPoint(ms.base, coords)


def net_digits(ms: GeneratingMatrixSet, m: int) -> np.ndarray:
    """Digit array of the first b**m points, shape (b**m, dims, rows)."""
    if m < 0 or m > ms.cols:
        raise UsageError(f"m must lie in [0, {ms.cols}]")
    n_points = ms.base**m
    eta = np.zeros((n_points, ms.cols), dtype=np.int64)
    rem = np.arange(n_points, dtype=np.int64)
    for i in range(m):
        eta[:, i] = rem % ms.base
        rem //= ms.base
    out = np.zeros((n_points, ms.dims, ms.rows), dtype=np.int64)
    for j, mat in enumerate(ms.matrices):
        out[:, j, :] = (eta @ mat.T) % ms.base
    return out


def net_points(ms: GeneratingMatrixSet, m: int) -> list[DigitPoint]:
    """The first b**m points in index order.

    Because index digits beyond position m are zero, the first b**m' entries
    for m' < m coincide exactly with ``net_points(ms, m')``.
    """
    arr = net_digits(ms, m)
    return [
        DigitPoint(ms.base, tuple(tuple(int(d) for d in coord) for coord in pt))
        for pt in arr
    ]


def net_values(ms: GeneratingMatrixSet, m: int) -> np.ndarray:
    """Float coordinates of the first b**m points, shape (b**m, dims).

    Each value is the exact truncated rational of the digit vector, rounded
    once to binary64.
    """
    arr = net_digits(ms, m)
    n_points, dims, rows = arr.shape
    den = ms.base**rows
    out = np.empty((n_points, dims), dtype=np.float64)
    for h in range(n_points):
        for j in range(dims):
            num = 0
            for d in arr[h, j]:
                num = num * ms.base + int(d)
            # Python int/int division rounds correctly, so this is the
            # nearest binary64 to the exact truncated rational.
            out[h, j] = num / den
    return out


def interlace_digit_vectors(
    vectors: Sequence[Sequence[int]], factor: int
) -> tuple[int, ...]:
    """Round-robin merge of ``factor`` digit vectors into one.

    Output position factor*(i-1)+j (1-based) is digit i of input j; the
    output precision is factor times the shared input precision.
    """
    if factor < 1:
        raise UsageError("interlace factor must be positive")
    if len(vectors) != factor:
        raise UsageError(f"expected {factor} digit vectors, got {len(vectors)}")
    prec = len(vectors[0])
    if any(len(v) != prec for v in vectors):
        raise UsageError("digit vectors must share one precision")
    out = []
    for i in range(prec):
        for v in vectors:
            out.append(v[i])
    return tuple(out)


def interlace_point(point: DigitPoint, factor: int) -> DigitPoint:
    """Blockwise digit interleaving of a point with factor*s coordinates."""
    if point.dims % factor:
        raise UsageError(
            f"point has {point.dims} coordinates, not a multiple of {factor}"
        )
    coords = []
    for j in range(point.dims // factor):
        block = point.digits[factor * j : factor * (j + 1)]
        coords.append(interlace_digit_vectors(block, factor))
    return DigitPoint(point.base, tuple(coords))


def format_points_csv(ms: GeneratingMatrixSet, m: int) -> str:
    """CSV text for the first b**m points: one point per line, fixed decimals.

    Prints the binary64 values of ``net_values`` with ceil(rows*log10 b) + 17
    decimals, at least 17 significant digits even for the smallest nonzero
    value b**-rows, so every value parses back to the same float.
    """
    decimals = math.ceil(ms.rows * math.log10(ms.base)) + 17
    lines = [_gen_header(ms, m)]
    for pt in net_values(ms, m).tolist():
        lines.append(",".join(f"{v:.{decimals}f}" for v in pt))
    return "\n".join(lines) + "\n"


def format_points_digits(ms: GeneratingMatrixSet, m: int) -> str:
    """Digit-string output: coordinates as base-b strings, '|'-separated."""
    arr = net_digits(ms, m)
    lines = [_gen_header(ms, m)]
    for pt in arr:
        lines.append("|".join("".join(str(int(d)) for d in coord) for coord in pt))
    return "\n".join(lines) + "\n"


def _gen_header(ms: GeneratingMatrixSet, m: int) -> str:
    prov = ms.provenance
    return (
        f"# b={ms.base} s={ms.dims} m={m} d={prov.interlace_factor} "
        f"construction={prov.construction}"
    )
