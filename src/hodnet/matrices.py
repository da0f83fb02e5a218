"""Generating matrices for digital nets and sequences over F_b.

The order-1 construction is the generalized Niederreiter sequence.  One
search (:func:`hodnet.gf.monic_irreducibles`) yields the coefficient tuple
of p_j, the j-th canonical monic irreducible, for every coordinate j; the
rows of matrix j are shifted windows of the series of 1/p_j(x)**i in powers
of 1/x, one series per power i.  Interlacing at order d interleaves the rows
of d consecutive order-1 matrices, and :func:`t_value_bound` gives the
quality-parameter bound of the result.

A matrix set records its construction and interlacing factor.  The
plain-text file format writes both in a ``# construction=... d=...``
comment and no t value; :func:`load_matrix_set` reads back only d.  The CLI
only reads that format; ``save_matrix_set``, its writer, is kept so the
tests and users can produce files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .gf import check_base, monic_irreducibles

CONSTRUCTIONS = ("niederreiter", "interlaced-niederreiter", "explicit")


@dataclass(frozen=True)
class Provenance:
    construction: str
    interlace_factor: int = 1

    def __post_init__(self) -> None:
        if self.construction not in CONSTRUCTIONS:
            raise UsageError(f"unknown construction {self.construction!r}")
        if self.interlace_factor < 1:
            raise UsageError("interlace factor must be positive")


@dataclass(eq=False)
class GeneratingMatrixSet:
    """Per-dimension row-generating matrices with construction provenance.

    ``matrices[j]`` is the rows x cols integer matrix for coordinate j+1,
    entries in [0, base).
    """

    base: int
    matrices: list = field(repr=False)
    provenance: Provenance = Provenance("explicit")

    def __post_init__(self) -> None:
        check_base(self.base)
        if not self.matrices:
            raise UsageError("a matrix set needs at least one dimension")
        mats = []
        shape = None
        for m in self.matrices:
            arr = np.asarray(m, dtype=np.int64)
            if arr.ndim != 2:
                raise UsageError("generating matrices must be two-dimensional")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise UsageError("all generating matrices must share one shape")
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= self.base:
                raise UsageError(f"matrix entries must lie in [0, {self.base})")
            arr.setflags(write=False)
            mats.append(arr)
        self.matrices = mats

    @property
    def dims(self) -> int:
        return len(self.matrices)

    @property
    def rows(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def cols(self) -> int:
        return self.matrices[0].shape[1]


def _reciprocal_powers(
    p: tuple[int, ...], base: int, count: int, length: int
) -> list[np.ndarray]:
    """Series of 1/p(x)**i in powers of 1/x, for i = 1..count.

    Entry n of series i is the coefficient of x**-(i*e + n), e = deg p, for
    n < length: the power series of 1/q(u)**i with q(u) = u**e p(1/u) the
    reversed polynomial, whose constant term is 1 because p is monic.
    """
    rev = p[::-1]
    e = len(p) - 1
    first = [1] + [0] * (length - 1)
    for n in range(1, length):
        first[n] = -sum(rev[j] * first[n - j] for j in range(1, min(n, e) + 1)) % base
    series = [np.array(first, dtype=np.int64)]
    for _ in range(count - 1):
        series.append(np.convolve(series[-1], series[0])[:length] % base)
    return series


def niederreiter_set(base: int, dims: int, rows: int, cols: int) -> GeneratingMatrixSet:
    """Order-1 generalized-Niederreiter matrix set for ``dims`` coordinates.

    Matrix j is seeded by p, the j-th canonical monic irreducible over F_b,
    of degree e.  Row k (0-based) holds the coefficients of x**-1, x**-2, ...
    of x**(e-z-1) / p(x)**i, with i = k//e + 1 and z = k mod e: the series
    of 1/p(x)**i shifted right by (i-1)*e + z = k columns.  Entries vanish
    below the diagonal (entry(k, l) = 0 for k > l).
    """
    if dims < 1:
        raise UsageError("dims must be positive")
    if rows < 1 or cols < 1:
        raise UsageError("matrix dimensions must be positive")
    mats = []
    for p in monic_irreducibles(base, dims):
        e = len(p) - 1
        series = _reciprocal_powers(p, base, -(-rows // e), cols)
        out = np.zeros((rows, cols), dtype=np.int64)
        for k in range(min(rows, cols)):
            out[k, k:] = series[k // e][: cols - k]
        mats.append(out)
    return GeneratingMatrixSet(base, mats, Provenance("niederreiter"))


def interlace_matrix_set(
    source: GeneratingMatrixSet, factor: int, dims: int, rows: int, cols: int
) -> GeneratingMatrixSet:
    """Interleave rows of an order-1 matrix set into higher-order matrices.

    Output matrix j takes its row factor*(h-1)+i from row h of source matrix
    factor*(j-1)+i, for h >= 1 and 1 <= i <= factor.  The source must provide
    factor*dims matrices with at least ceil(rows/factor) rows and ``cols``
    columns.
    """
    if factor < 1 or dims < 1 or rows < 1 or cols < 1:
        raise UsageError("factor, dims, rows and cols must all be positive")
    if source.provenance.interlace_factor != 1:
        raise UsageError("interlacing expects an order-1 source matrix set")
    need_rows = -(-rows // factor)
    if source.dims < factor * dims:
        raise UsageError(
            f"need {factor * dims} source dimensions, have {source.dims}"
        )
    if source.rows < need_rows or source.cols < cols:
        raise UsageError(
            f"need a {need_rows}x{cols} source block, have {source.rows}x{source.cols}"
        )
    # Stacking the factor source blocks along a middle axis puts row h of
    # source i at (h, i); the reshape reads them in the order factor*h + i.
    mats = []
    for j in range(dims):
        block = source.matrices[factor * j : factor * (j + 1)]
        stacked = np.stack([m[:need_rows, :cols] for m in block], axis=1)
        mats.append(stacked.reshape(-1, cols)[:rows])
    construction = (
        "interlaced-niederreiter"
        if source.provenance.construction == "niederreiter"
        else "explicit"
    )
    return GeneratingMatrixSet(source.base, mats, Provenance(construction, factor))


def t_value_bound(base: int, order: int, dims: int) -> int:
    """Quality-parameter bound of the interlaced Niederreiter sequence.

    order * t1(order * dims) + dims * order * (order - 1) / 2, where t1(s) is
    the sum of (deg(p_j) - 1) over the first s canonical irreducibles.
    """
    if order < 1 or dims < 1:
        raise UsageError("order and dims must be positive")
    polys = monic_irreducibles(base, order * dims)
    t1 = sum(len(p) - 2 for p in polys)
    return order * t1 + dims * order * (order - 1) // 2


def build_matrices(base: int, dims: int, m: int, order: int = 1) -> GeneratingMatrixSet:
    """Matrix set for b**m points in ``dims`` dimensions at a given order.

    The order*m rows cover exactly the precision the order-``order`` net
    definition asks for.
    """
    if m < 1:
        raise UsageError("m must be positive")
    if order < 1:
        raise UsageError("order must be positive")
    if order == 1:
        return niederreiter_set(base, dims, m, m)
    source = niederreiter_set(base, order * dims, m, m)
    return interlace_matrix_set(source, order, dims, order * m, m)


def save_matrix_set(ms: GeneratingMatrixSet, path_or_file) -> None:
    """Write a matrix set in the plain-text exchange format.

    A ``# construction=... d=...`` comment comes first, then the header
    ``b s n m``, then s blocks of n lines, each line m space-separated
    digits.  Lines starting with ``#`` are comments.
    """
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        prov = ms.provenance
        fh.write(f"# construction={prov.construction} d={prov.interlace_factor}\n")
        fh.write(f"{ms.base} {ms.dims} {ms.rows} {ms.cols}\n")
        for mat in ms.matrices:
            for row in mat:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
    finally:
        if own:
            fh.close()


def load_matrix_set(path_or_file) -> GeneratingMatrixSet:
    """Read a matrix set written by :func:`save_matrix_set`.

    The interlace factor comes back from the ``# construction=... d=...``
    line; the construction does not, so the set is explicit.
    """
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file) if own else path_or_file
    try:
        text = [ln.strip() for ln in fh if ln.strip()]
    finally:
        if own:
            fh.close()
    lines = [ln for ln in text if not ln.startswith("#")]
    factor = 1
    for ln in text:
        if ln.startswith("# construction="):
            fields = dict(tok.partition("=")[::2] for tok in ln[1:].split())
            try:
                factor = int(fields.get("d", 1))
            except ValueError as exc:
                raise UsageError(f"bad interlace factor in {ln!r}") from exc
    if not lines:
        raise UsageError("matrix file is empty")
    header = lines[0].split()
    if len(header) != 4:
        raise UsageError("matrix file header must be 'b s n m'")
    base, dims, rows, cols = (int(v) for v in header)
    if len(lines) != 1 + dims * rows:
        raise UsageError(
            f"expected {dims * rows} matrix rows, found {len(lines) - 1}"
        )
    mats = []
    idx = 1
    for _ in range(dims):
        block = []
        for _ in range(rows):
            entries = [int(v) for v in lines[idx].split()]
            if len(entries) != cols:
                raise UsageError(f"row {idx} has {len(entries)} entries, want {cols}")
            block.append(entries)
            idx += 1
        mats.append(block)
    return GeneratingMatrixSet(base, mats, Provenance("explicit", factor))

