"""Dual-net analysis and order-alpha net certification.

The dual net of a digital net is the set of integer index vectors whose
truncated digit vectors are annihilated by the transposed generating
matrices.  Its minimum weight rho_alpha under the order-alpha digit metric
controls the quadrature quality.  Certification checks the defining
row-independence condition for a quality parameter t; with alpha*m matrix
rows the smallest certified t is alpha*m + 1 - rho_alpha.

One production route each, for every prime base b:

* ``certify_net`` walks the admissible row selections depth-first over the
  dimensions, carrying an incremental elimination over F_b; the tests keep a
  leaf-by-leaf rank check as its oracle.
* ``min_dual_weight`` builds one minimum-weight table over the b**m
  syndromes per coordinate and joins them by min-plus convolutions through
  an exact transform over Z_b^m; the shell enumerator behind
  ``dual_indices`` is its oracle in the tests.  It reports rho_alpha only
  when rho_alpha is at most the search cap.

Both charge their work against a limit and raise ResourceLimitError past it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ResourceLimitError, UsageError
from .gf import is_prime
from .matrices import GeneratingMatrixSet

DEFAULT_WORK_LIMIT = 10**7


def nonzero_digit_terms(k: int, base: int) -> tuple[tuple[int, int], ...]:
    """Nonzero digits of k as (digit, position) pairs, positions descending.

    Position c means the digit multiplies base**(c-1); reconstructing
    sum(digit * base**(c-1)) recovers k exactly.
    """
    if k < 0:
        raise UsageError("digit expansion requires a nonnegative integer")
    if base < 2:
        raise UsageError(f"base must be at least 2, got {base}")
    terms = []
    pos = 1
    while k:
        k, d = divmod(k, base)
        if d:
            terms.append((d, pos))
        pos += 1
    terms.reverse()
    return tuple(terms)


def dick_weight(base: int, alpha: int, k) -> int:
    """Order-alpha digit weight: sum of the alpha highest nonzero positions.

    Scalars give the plain weight; sequences sum componentwise.  The weight
    of 0 is 0.
    """
    if alpha < 1:
        raise UsageError("alpha must be positive")
    if isinstance(k, (int, np.integer)):
        terms = nonzero_digit_terms(int(k), base)
        return sum(c for _, c in terms[:alpha])
    return sum(dick_weight(base, alpha, int(kj)) for kj in k)


class _WorkCounter:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0

    def charge(self, amount: int = 1) -> None:
        self.count += amount
        if self.count > self.limit:
            raise ResourceLimitError(
                f"work exceeded the limit of {self.limit} units"
            )


def _syndrome_rows(ms: GeneratingMatrixSet) -> list[list[tuple[int, ...]]]:
    # Row i of C_j is the contribution of digit i of k_j to the transposed
    # matrix-vector product; the dual condition is a zero total syndrome.
    return [
        [tuple(int(v) for v in mat[i]) for i in range(ms.rows)]
        for mat in ms.matrices
    ]


def _iter_shell_vectors(
    ms: GeneratingMatrixSet,
    weight: int,
    rows: list[list[tuple[int, ...]]],
    work: _WorkCounter,
) -> Iterable[tuple[int, ...]]:
    """Dual vectors whose per-vector weight-1 metric equals ``weight``.

    Enumerates weight compositions in lexicographic order and digit choices
    in ascending numeric order, so the overall stream is deterministic.
    """
    base, dims, n = ms.base, ms.dims, ms.rows
    m = ms.cols

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def coord_candidates(j: int, w: int, syndrome: tuple[int, ...]):
        # k_j values with leading nonzero digit at position w, paired with
        # the updated syndrome.  Digits beyond the matrix row count cannot
        # influence the syndrome but still define the integer.
        if w == 0:
            yield 0, syndrome
            return
        positions = list(range(w, 0, -1))

        def rec(idx: int, value: int, synd: tuple[int, ...]):
            if idx == len(positions):
                work.charge()
                yield value, synd
                return
            pos = positions[idx]
            low = 1 if idx == 0 else 0
            for digit in range(low, base):
                if digit and pos <= n:
                    # Digits beyond the matrix row count never enter the
                    # truncated digit vector, so they leave the syndrome alone.
                    row = rows[j][pos - 1]
                    new = tuple((s + digit * r) % base for s, r in zip(synd, row))
                else:
                    new = synd
                yield from rec(idx + 1, value + digit * base ** (pos - 1), new)

        yield from rec(0, 0, syndrome)

    zero = (0,) * m

    def rec_dims(j: int, weights: tuple[int, ...], value: tuple[int, ...],
                 synd: tuple[int, ...]):
        if j == dims:
            if synd == zero:
                yield value
            return
        for kj, new_synd in coord_candidates(j, weights[j], synd):
            yield from rec_dims(j + 1, weights, value + (kj,), new_synd)

    for weights in compositions(weight, dims):
        yield from rec_dims(0, weights, (), zero)


def dual_indices(
    ms: GeneratingMatrixSet,
    mu1_max: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> list[tuple[int, ...]]:
    """All nonzero dual vectors with weight-1 metric at most ``mu1_max``.

    Component tuples in ascending (mu1, components) order; raises
    :class:`ResourceLimitError` when the candidate count passes the limit.
    """
    if mu1_max < 0:
        raise UsageError("mu1_max must be nonnegative")
    rows = _syndrome_rows(ms)
    work = _WorkCounter(work_limit)
    out: list[tuple[int, ...]] = []
    for weight in range(1, mu1_max + 1):
        out.extend(sorted(_iter_shell_vectors(ms, weight, rows, work)))
    return out


def _transform_field(base: int, size: int, top: int) -> tuple[int, int]:
    """A prime p = 1 (mod base) above ``size`` and a primitive base-th root
    of unity mod p: the field of the exact syndrome transform.

    Every count the transform carries lies in [0, size], so it is exact mod
    p; raises :class:`ResourceLimitError` when a butterfly of ``base`` terms
    or a sum of ``top`` products of residues would leave int64.
    """
    p = size + 1 + (-size) % base
    while not is_prime(p):
        p += base
    if max(base, top) * (p - 1) ** 2 >= 2**63:
        raise ResourceLimitError(
            f"a syndrome transform over {size} syndromes leaves exact int64 range"
        )
    g = 2
    while pow(g, (p - 1) // base, p) == 1:
        g += 1
    return p, pow(g, (p - 1) // base, p)


def _digit_map(base: int, images) -> np.ndarray:
    """Index of the image of every syndrome, digit c sent to images[c][digit].

    Syndrome sigma in F_b^m has index sum sigma_c b**c; the map is built by
    outer sums, one digit at a time, in O(b**m) operations.
    """
    out = np.zeros(1, dtype=np.intp)
    for c in range(len(images) - 1, -1, -1):
        out = (out[:, None] + np.asarray(images[c], dtype=np.intp) * base**c).ravel()
    return out


def _weight_table(mat: np.ndarray, base: int, alpha: int, top: int,
                  dtype) -> np.ndarray:
    """Least order-alpha weight of a nonzero k with each syndrome, or top+1.

    Positions run downwards from min(rows, top).  tables[c-1] holds the
    vectors with c charged ("head") digits so far; a digit at p either
    becomes the next head digit (cost p) or, once alpha head digits sit
    above it, is free.  Free digits spread the alpha-head table over the
    span of the rows below the lowest head: prefix doubling by one row at a
    time.  Digits beyond the rows or above ``top`` never lower a minimum
    that is at most ``top``, and b**rows (weight rows+1) has syndrome 0.
    """
    rows, m = mat.shape
    inf = top + 1
    tables = [np.full(base**m, inf, dtype) for _ in range(alpha)]
    digits = np.arange(base)
    for p in range(min(rows, top), 0, -1):
        row = mat[p - 1]
        shifts = [
            _digit_map(base, [(digits + a * int(v)) % base for v in row])
            for a in range(1, base)
        ]
        for c in range(alpha, 0, -1):
            table = tables[c - 1]
            if c == alpha:
                spread = table.copy()
                for s in shifts:
                    np.minimum(spread, table[s], out=spread)
                table = tables[c - 1] = spread
            if c == 1:
                # A single head digit a at p: k = a * b**(p-1).
                for s in shifts:
                    table[s[0]] = min(table[s[0]], p)
            else:
                # Saturating add: values stay at most inf in the narrow dtype.
                head = np.minimum(tables[c - 2], inf - p) + p
                for s in shifts:
                    np.minimum(table, head[s], out=table)
    out = tables[0]
    for table in tables[1:]:
        np.minimum(out, table, out=out)
    if rows + 1 <= top:
        out[0] = min(out[0], rows + 1)
    return out


class _SyndromeTransform:
    """Exact DFT over Z_b^m modulo a prime p = 1 (mod b).

    A length-b DFT along each digit axis (at b = 2 the Walsh-Hadamard
    butterfly).  Roots are kept as signed residues, so the +-1 entries cost
    an add or a subtract, and values are reduced mod p only when the next
    stage could overflow.
    """

    def __init__(self, base: int, size: int, top: int) -> None:
        self.base, self.size = base, size
        self.prime, omega = _transform_field(base, size, top)
        half = self.prime // 2

        def roots(sign: int) -> list[list[int]]:
            table = [[pow(omega, sign * k * a % base, self.prime) for a in range(base)]
                     for k in range(base)]
            return [[r - self.prime if r > half else r for r in row] for row in table]

        self.forward, self.inverse = roots(1), roots(-1)

    def __call__(self, x: np.ndarray, roots, bound: int) -> np.ndarray:
        """Transform of x (entries in [0, bound]) reduced mod p.

        Runs in int32 when one stage from residues fits, else in int64.  The
        inverse omits the 1/b**m factor: only zero tests read it.
        """
        base, lo, prime = self.base, 1, self.prime
        growth = max(sum(abs(r) for r in row) for row in roots)
        limit = 2**31 if (prime - 1) * growth < 2**31 else 2**63
        x = x.astype(np.int32 if limit == 2**31 else np.int64)
        while lo < self.size:
            if bound * growth >= limit:
                x %= prime
                bound = prime - 1
            y = x.reshape(-1, base, lo)
            out = np.empty_like(y)
            for k in range(base):
                o = out[:, k, :]
                np.copyto(o, y[:, 0, :])
                for a in range(1, base):
                    r = roots[k][a]
                    if r == 1:
                        o += y[:, a, :]
                    elif r == -1:
                        o -= y[:, a, :]
                    else:
                        o += r * y[:, a, :]
            x = out.reshape(-1)
            bound *= growth
            lo *= base
        return x % prime


def _join(acc: np.ndarray, table: np.ndarray, top: int,
          transform: _SyndromeTransform) -> np.ndarray:
    """min(acc, table, acc (+) table) over syndromes, weights up to ``top``.

    The min-plus convolution runs per total weight W on level indicators:
    the count of pairs (tau, sigma - tau) with weights (w, W - w) is a
    group convolution, computed as a product of exact transforms.
    """
    out = np.minimum(acc, table)
    residue = np.min_scalar_type(transform.prime - 1)

    def hats(t: np.ndarray) -> dict[int, np.ndarray]:
        # One transformed indicator per weight 1..top-1 that occurs in t.
        levels = {}
        for w in np.flatnonzero(np.bincount(t, minlength=top)[1:top]) + 1:
            levels[w] = transform(t == w, transform.forward, 1).astype(residue)
        return levels

    left, right = hats(acc), hats(table)
    prod = np.empty(transform.size, dtype=np.int64)
    term = np.empty_like(prod)
    for total in range(2, top + 1):
        pairs = [(w, total - w) for w in left if total - w in right]
        if not pairs:
            continue
        prod[:] = 0
        for w, v in pairs:
            prod += np.multiply(left[w], right[v], out=term, dtype=np.int64)
        prod %= transform.prime
        counts = transform(prod, transform.inverse, transform.prime - 1)
        out[(counts != 0) & (out > total)] = total
    return out


def min_dual_weight(
    ms: GeneratingMatrixSet,
    alpha: int,
    search_cap: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> int | None:
    """Minimum order-alpha weight rho_alpha over nonzero dual vectors.

    Returns rho_alpha when it is at most ``search_cap`` and None otherwise.

    Route: for each coordinate j a table over the b**m syndromes holds the
    least weight of a nonzero k_j with that syndrome (:func:`_weight_table`);
    the tables are joined one coordinate at a time by a min-plus convolution
    over F_b^m (:func:`_join`), and the last coordinate is read at syndrome
    0 directly.  The convolution counts pairs through an exact transform mod
    a prime p > b**m, p = 1 (mod b); raises :class:`ResourceLimitError` when
    p leaves the exact int64 range.  Work: b**m units per coordinate table,
    three per join (its two transformed operands and its result) and one
    for the last coordinate, charged against ``work_limit`` in full before
    any table is built.  The shell enumerator behind :func:`dual_indices`
    is the oracle in the tests.
    """
    if alpha < 1:
        raise UsageError("alpha must be positive")
    if search_cap < 0:
        raise UsageError("search_cap must be nonnegative")
    # (b**rows, 0, ..., 0) is a dual vector of weight rows + 1.
    top = min(search_cap, ms.rows + 1)
    if top < 1:
        return None
    base, size, dims = ms.base, ms.base**ms.cols, ms.dims
    _WorkCounter(work_limit).charge(
        size * (dims + 3 * max(dims - 2, 0) + min(dims - 1, 1))
    )
    dtype = np.min_scalar_type(top + 1)
    tables = [_weight_table(mat, base, alpha, top, dtype) for mat in ms.matrices]
    best = min(int(t[0]) for t in tables)
    acc = tables[0]
    if dims > 2:
        transform = _SyndromeTransform(base, size, top)
        for table in tables[1:-1]:
            acc = _join(acc, table, min(top, best - 1), transform)
            best = min(best, int(acc[0]))
    if dims > 1:
        neg = _digit_map(base, [(-np.arange(base)) % base] * ms.cols)
        best = min(best, int((acc.astype(np.int64) + tables[-1][neg]).min()))
    return best if best <= top else None


@dataclass(frozen=True)
class NetCertificate:
    """Outcome of an order-alpha net certification."""

    base: int
    dims: int
    m: int
    alpha: int
    t: int
    verdict: str  # "certified" | "refuted"
    witness: tuple[tuple[int, tuple[int, ...]], ...] | None = None

    @property
    def budget(self) -> int:
        """The weight budget alpha*m - t that admissible row selections share."""
        return self.alpha * self.m - self.t

    @property
    def vacuous(self) -> bool:
        """True when no row selection fits the budget, so nothing was checked."""
        return self.budget <= 0

    def as_dict(self) -> dict:
        d = {
            "b": self.base,
            "s": self.dims,
            "m": self.m,
            "alpha": self.alpha,
            "t": self.t,
            "budget": self.budget,
            "vacuous": self.vacuous,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            d["witness"] = [[j, list(rows)] for j, rows in self.witness]
        return d


def _envelope_selections(n: int, alpha: int, budget: int):
    """Admissible row selections that dominate all others, with their costs.

    A selection's cost counts only its alpha largest row indices, so rows
    below the alpha-th largest are free: every admissible selection is a
    subset of one whose lower tail is full, and linear independence of the
    superset implies it for the subset.  It therefore suffices to check, per
    dimension, (a) each alpha-subset T within budget padded with all rows
    below min(T), and (b) each selection of fewer than alpha rows (whose
    rows all count toward the cost).  Verified against the naive full
    enumeration in the test suite.
    """
    out: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    # (b) fewer than alpha rows; every index is charged.
    for size in range(1, alpha):
        for combo in itertools.combinations(range(1, n + 1), size):
            cost = sum(combo)
            if cost <= budget:
                out.append((cost, combo))
    # (a) exactly alpha charged rows plus the free lower tail.
    for combo in itertools.combinations(range(1, n + 1), alpha):
        cost = sum(combo)
        if cost <= budget:
            rows = tuple(range(1, combo[0])) + combo
            out.append((cost, rows))
    out.sort()
    return out


class _Basis:
    """Row echelon basis over F_b of rows packed into Python ints.

    Entry c of a row sits in bit field c of ``width`` bits.  Reduction adds
    (b - coefficient) times a basis row and leaves the fields unreduced
    mod b; the width holds (b-1) + cols*(b-1)**2, the largest a field can
    reach, so no field carries into the next.
    """

    def __init__(self, base: int, cols: int) -> None:
        self.base, self.cols = base, cols
        self.width = ((base - 1) + cols * (base - 1) ** 2).bit_length()
        self.mask = (1 << self.width) - 1

    def pack(self, row) -> int:
        return sum(int(v) << (self.width * c) for c, v in enumerate(row))

    def extend(self, basis: list[tuple[int, int]], row: int):
        """``basis`` plus ``row``, a new list; None when row lies in its span.

        Each basis entry is (pivot, row) with the row normalised to 1 at its
        pivot and 0 mod b at every earlier entry's pivot.
        """
        base, width, mask = self.base, self.width, self.mask
        for pivot, brow in basis:
            coeff = (row >> (width * pivot) & mask) % base
            if coeff:
                row += (base - coeff) * brow
        for pivot in range(self.cols):
            lead = (row >> (width * pivot) & mask) % base
            if lead:
                break
        else:
            return None
        inv = pow(lead, base - 2, base)
        row = sum(
            ((row >> (width * c) & mask) * inv % base) << (width * c)
            for c in range(pivot, self.cols)
        )
        return basis + [(pivot, row)]


def certify_net(
    ms: GeneratingMatrixSet,
    alpha: int,
    t: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> NetCertificate:
    """Exhaustively certify the order-alpha (t, m, s)-net property of the
    matrix set as given: m = ms.cols and s = ms.dims.

    Checks linear independence over F_b of every admissible row selection
    (charged index sum at most alpha*m - t).  Refutation reports the first
    dependent selection in deterministic enumeration order.

    Route: a depth-first walk over the dimensions, choosing one envelope
    selection (:func:`_envelope_selections`) per dimension.  A reduced
    basis (:class:`_Basis`) is carried down the walk; each selection
    reduces only its own rows against the basis inherited from the
    dimensions before it, sharing the reduction of common row prefixes.  A
    selection that makes its prefix dependent is reported at the depth where
    the dependence appears, padded with empty selections: the first leaf of
    its subtree.  Work: one unit per leaf (complete selection) visited, as
    an enumeration of leaves would charge.  The leaf-by-leaf rank check is
    the oracle in the tests.
    """
    if alpha < 1:
        raise UsageError("alpha must be positive")
    m, dims = ms.cols, ms.dims
    if m < 1:
        raise UsageError("m must be positive")
    if not 0 <= t:
        raise UsageError("t must be nonnegative")
    budget = alpha * m - t
    if budget <= 0:
        # No selection satisfies the weight condition; the property is vacuous.
        return NetCertificate(ms.base, dims, m, alpha, t, "certified")
    if ms.rows < alpha * m:
        raise UsageError(
            f"certification at order {alpha} needs at least {alpha * m} rows, "
            f"have {ms.rows}"
        )
    per_dim = _envelope_selections(ms.rows, alpha, budget)
    work = _WorkCounter(work_limit)
    eliminator = _Basis(ms.base, m)
    packed = [[eliminator.pack(row) for row in mat] for mat in ms.matrices]

    def rec(j: int, cost: int, basis, picked: tuple[tuple[int, ...], ...]):
        # memo maps a selection's row prefix to the basis it extends to.
        memo = {(): basis}

        def reduced(rows: tuple[int, ...]):
            if rows not in memo:
                head = reduced(rows[:-1])
                memo[rows] = (
                    None if head is None
                    else eliminator.extend(head, packed[j][rows[-1] - 1])
                )
            return memo[rows]

        last = j == dims - 1
        for cost_j, rows in per_dim:
            if cost + cost_j > budget:
                break
            chosen = picked + (rows,)
            if last and not any(chosen):
                continue
            extended = reduced(rows)
            if extended is None or last:
                work.charge()
            if extended is None:
                return tuple((jj + 1, r) for jj, r in enumerate(chosen) if r)
            if not last:
                witness = rec(j + 1, cost + cost_j, extended, chosen)
                if witness is not None:
                    return witness
        return None

    witness = rec(0, 0, [], ())
    if witness is None:
        return NetCertificate(ms.base, dims, m, alpha, t, "certified")
    return NetCertificate(ms.base, dims, m, alpha, t, "refuted", witness)


def propagated_t(t: int, alpha: int, alpha_prime: int) -> int:
    """ceil(t * alpha' / alpha): the quality parameter with which an order-alpha
    net of parameter t is an order-alpha' net, for 1 <= alpha' <= alpha."""
    return -(-t * alpha_prime // alpha)
