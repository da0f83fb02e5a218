"""Dual-net analysis and order-alpha net certification.

The dual net of a digital net is the set of integer index vectors whose
truncated digit vectors are annihilated by the transposed generating
matrices.  Its minimum weight under the order-alpha digit metric controls
the quadrature quality; certification checks the defining row-independence
condition exhaustively at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ResourceLimitError, UsageError
from .matrices import GeneratingMatrixSet

DEFAULT_WORK_LIMIT = 10**7


def nonzero_digit_terms(k: int, base: int) -> tuple[tuple[int, int], ...]:
    """Nonzero digits of k as (digit, position) pairs, positions descending.

    Position c means the digit multiplies base**(c-1); reconstructing
    sum(digit * base**(c-1)) recovers k exactly.
    """
    if k < 0:
        raise UsageError("digit expansion requires a nonnegative integer")
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
                f"enumeration exceeded the work limit of {self.limit} candidates"
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


def min_dual_weight(
    ms: GeneratingMatrixSet,
    alpha: int,
    search_cap: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> int | None:
    """Minimum order-alpha weight over nonzero dual vectors, or None.

    Searches weight-1 shells in increasing order; since the order-alpha
    weight of any vector is at least its weight-1 metric, the search can stop
    once the shell weight passes the best value found.  Returns None when no
    dual vector exists within ``search_cap`` ("exceeds cap").
    """
    if alpha < 1:
        raise UsageError("alpha must be positive")
    if search_cap < 0:
        raise UsageError("search_cap must be nonnegative")
    rows = _syndrome_rows(ms)
    work = _WorkCounter(work_limit)
    best: int | None = None
    for weight in range(1, search_cap + 1):
        if best is not None and weight > best:
            break
        for vec in _iter_shell_vectors(ms, weight, rows, work):
            mu = dick_weight(ms.base, alpha, vec)
            if best is None or mu < best:
                best = mu
    return best


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


def _rank_mod_p(rows: list[np.ndarray], base: int) -> int:
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64) % base
    rank = 0
    n_rows, n_cols = mat.shape
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if mat[r, col] % base:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), base - 2, base)
        mat[rank] = (mat[rank] * inv) % base
        for r in range(n_rows):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] - mat[r, col] * mat[rank]) % base
        rank += 1
        if rank == n_rows:
            break
    return rank


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


def certify_net(
    ms: GeneratingMatrixSet,
    alpha: int,
    t: int,
    m: int | None = None,
    dims: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> NetCertificate:
    """Exhaustively certify the order-alpha (t, m, s)-net property.

    Checks linear independence over F_b of every admissible row selection
    (charged index sum at most alpha*m - t).  Refutation reports the first
    dependent selection in deterministic enumeration order.
    """
    if alpha < 1:
        raise UsageError("alpha must be positive")
    m = ms.cols if m is None else m
    dims = ms.dims if dims is None else dims
    if m < 1 or m > ms.cols:
        raise UsageError(f"m must lie in [1, {ms.cols}]")
    if dims < 1 or dims > ms.dims:
        raise UsageError(f"dims must lie in [1, {ms.dims}]")
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
    mats = [mat[:, :m] for mat in ms.matrices[:dims]]

    def rec(j: int, cost: int, picked: list[tuple[int, tuple[int, ...]]]):
        if j == dims:
            if all(not rows for _, rows in picked):
                return None
            work.charge()
            stacked = [
                mats[jj][i - 1]
                for jj, (_, rows) in enumerate(picked)
                for i in rows
            ]
            total = sum(len(rows) for _, rows in picked)
            if _rank_mod_p(stacked, ms.base) < total:
                return tuple(
                    (jj + 1, rows) for jj, (_, rows) in enumerate(picked) if rows
                )
            return None
        for cost_j, rows in per_dim:
            if cost + cost_j > budget:
                break
            witness = rec(j + 1, cost + cost_j, picked + [(cost_j, rows)])
            if witness is not None:
                return witness
        return None

    witness = rec(0, 0, [])
    if witness is None:
        return NetCertificate(ms.base, dims, m, alpha, t, "certified")
    return NetCertificate(ms.base, dims, m, alpha, t, "refuted", witness)


def propagation_check(
    ms: GeneratingMatrixSet,
    alpha: int,
    alpha_prime: int,
    t: int,
    m: int | None = None,
    dims: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> NetCertificate:
    """Re-certify at a lower order with the propagated quality parameter.

    An order-alpha net with parameter t is an order-alpha' net with
    t' = ceil(t * alpha' / alpha) for every alpha' < alpha.
    """
    if not 1 <= alpha_prime < alpha:
        raise UsageError("alpha_prime must satisfy 1 <= alpha_prime < alpha")
    return certify_net(ms, alpha_prime, propagated_t(t, alpha, alpha_prime),
                       m=m, dims=dims, work_limit=work_limit)


def propagated_t(t: int, alpha: int, alpha_prime: int) -> int:
    """ceil(t * alpha' / alpha): the quality parameter with which an order-alpha
    net of parameter t is an order-alpha' net, for 1 <= alpha' <= alpha."""
    return -(-t * alpha_prime // alpha)


def interpolation_gap(base: int, alpha: int, k) -> Fraction:
    """Slack in the metric interpolation bound, as an exact rational.

    Returns mu_alpha(k) - (A * mu_{2*alpha+1}(k) + B * mu_1(k)) with
    A = (alpha-1)/(2*alpha) and B = (alpha+1)/(2*alpha); nonnegative for all
    k when alpha >= 2.
    """
    if alpha < 2:
        raise UsageError("the interpolation bound requires alpha >= 2")
    a = Fraction(alpha - 1, 2 * alpha)
    b = Fraction(alpha + 1, 2 * alpha)
    mu_a = dick_weight(base, alpha, k)
    mu_hi = dick_weight(base, 2 * alpha + 1, k)
    mu_1 = dick_weight(base, 1, k)
    return Fraction(mu_a) - (a * mu_hi + b * mu_1)
