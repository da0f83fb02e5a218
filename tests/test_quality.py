"""Dual enumeration, weight metrics, certification, propagation, interpolation."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodnet.errors import ResourceLimitError, UsageError
from hodnet.matrices import (
    GeneratingMatrixSet,
    Provenance,
    build_matrices,
    niederreiter_set,
    t_value_bound,
)
from hodnet.quality import (
    _envelope_selections,
    _SyndromeTransform,
    _WorkCounter,
    certify_net,
    dick_weight,
    dual_indices,
    min_dual_weight,
    nonzero_digit_terms,
    propagated_t,
)


def test_dick_weight_examples():
    assert dick_weight(2, 1, 5) == 3
    assert dick_weight(2, 2, 5) == 4
    assert dick_weight(2, 3, 5) == 4
    assert dick_weight(2, 1, (5, 3)) == 5
    for alpha in (1, 2, 5):
        assert dick_weight(2, alpha, 0) == 0


def test_dick_weight_monotone_in_alpha():
    for b in (2, 3):
        for k in range(200):
            terms = nonzero_digit_terms(k, b)
            for alpha in range(1, 5):
                wa = dick_weight(b, alpha, k)
                assert wa <= dick_weight(b, alpha + 1, k)
                if terms:
                    assert wa <= alpha * terms[0][1]
            if k >= 1:
                assert dick_weight(b, 1, k) >= 1


def test_dual_examples():
    ms1 = niederreiter_set(2, 1, 1, 1)
    assert dual_indices(ms1, 2) == [(2,)]
    ms2 = niederreiter_set(2, 1, 2, 2)
    assert dual_indices(ms2, 2) == []


def test_dual_excludes_zero_and_sorted():
    ms = niederreiter_set(2, 2, 3, 3)
    out = dual_indices(ms, 5)
    assert all(any(c for c in d) for d in out)
    keys = [(dick_weight(2, 1, d), d) for d in out]
    assert keys == sorted(keys)


def test_dual_membership_definition():
    # Every reported vector annihilates the transposed matrices; every
    # candidate below the cap that does is reported.
    ms = build_matrices(2, 2, 3, order=2)
    cap = 5
    got = set(dual_indices(ms, cap))
    n, m, b = ms.rows, ms.cols, ms.base

    def syndrome(vec):
        s = np.zeros(m, dtype=np.int64)
        for j, kj in enumerate(vec):
            digs = []
            x = kj
            while x:
                x, d = divmod(x, b)
                digs.append(d)
            for i, d in enumerate(digs[:n]):
                s = (s + d * ms.matrices[j][i]) % b
        return not s.any()

    brute = set()
    for k1 in range(2**cap):
        for k2 in range(2**cap):
            if (k1, k2) == (0, 0):
                continue
            w = dick_weight(b, 1, (k1, k2))
            if w <= cap and syndrome((k1, k2)):
                brute.add((k1, k2))
    assert got == brute


def test_dual_group_closure_within_shell():
    ms = niederreiter_set(2, 1, 4, 4)
    cap = 7
    got = set(dual_indices(ms, cap))
    members = sorted(got)
    for a in members:
        for c in members:
            # At b = 2 the digitwise sum is XOR.
            s = tuple(x ^ y for x, y in zip(a, c))
            if any(s) and dick_weight(2, 1, s) <= cap:
                assert s in got


def test_dual_work_limit():
    ms = niederreiter_set(2, 1, 4, 4)
    with pytest.raises(ResourceLimitError):
        dual_indices(ms, 12, work_limit=100)


def test_min_dual_weight_identity():
    for m in range(1, 5):
        ms = niederreiter_set(2, 1, m, m)
        assert min_dual_weight(ms, 1, m + 2) == m + 1


def test_min_dual_weight_exceeds_cap():
    ms = niederreiter_set(2, 1, 3, 3)
    assert min_dual_weight(ms, 1, 2) is None


def test_min_dual_weight_is_none_above_the_cap():
    # rho_2 = 4 from k = 8 (row 4 is zero).  Up to weight-1 metric 3 the
    # only dual vector is k = 6 (rows 2 and 3 cancel) of order-2 weight
    # 3 + 2 = 5, which was once returned at cap 3 although it is not rho_2.
    mats = [np.array([[1, 1], [1, 0], [1, 0], [0, 0]])]
    ms = GeneratingMatrixSet(2, mats, Provenance("explicit"))
    assert min_dual_weight(ms, 2, 3) is None
    assert min_dual_weight(ms, 2, 4) == 4
    assert min_dual_weight(ms, 2, 9) == 4


def test_min_dual_weight_work_limit():
    # Three coordinates over 2**4 syndromes: three tables, one join (two
    # transformed operands and a result) and the last read, 16 units each.
    ms = niederreiter_set(2, 3, 4, 4)
    with pytest.raises(ResourceLimitError):
        min_dual_weight(ms, 1, 6, work_limit=111)
    assert min_dual_weight(ms, 1, 6, work_limit=112) == min_dual_weight(ms, 1, 6)


def test_min_dual_weight_interlaced_lower_bound():
    ms = build_matrices(2, 1, 2, order=3)
    t = t_value_bound(2, 3, 1)
    rho = min_dual_weight(ms, 3, 3 * 2 + 3)
    assert rho is not None and rho > 3 * 2 - t


def test_certify_identity_nets():
    for m in range(1, 7):
        ms = niederreiter_set(2, 1, m, m)
        assert certify_net(ms, 1, 0).verdict == "certified"


def test_certify_refuted_with_witness():
    mats = [np.array([[1, 0], [1, 0]])]
    ms = GeneratingMatrixSet(2, mats, Provenance("explicit"))
    cert = certify_net(ms, 1, 0)
    assert cert.verdict == "refuted"
    ((dim, rows),) = cert.witness
    assert dim == 1
    stacked = [ms.matrices[0][i - 1] for i in rows]
    rank = np.linalg.matrix_rank(np.array(stacked))
    assert rank < len(rows)
    # The witness respects the weight budget at alpha = 1.
    assert max(rows) <= 1 * ms.cols - 0


def test_certify_vacuous():
    ms = niederreiter_set(2, 1, 1, 1)
    assert certify_net(ms, 1, 1).verdict == "certified"
    big_t = t_value_bound(2, 3, 2)
    ms2 = build_matrices(2, 2, 2, order=3)
    assert certify_net(ms2, 3, big_t).verdict == "certified"


def _naive_certify(ms, alpha, t):
    """Reference certifier: literal enumeration of every admissible selection."""
    budget = alpha * ms.cols - t
    if budget <= 0:
        return "certified"
    n, b = ms.rows, ms.base
    all_sets = []
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            cost = sum(sorted(combo, reverse=True)[: min(alpha, size)])
            if cost <= budget:
                all_sets.append((cost, combo))
    for picks in itertools.product(all_sets, repeat=ms.dims):
        if sum(c for c, _ in picks) > budget:
            continue
        rows = [
            ms.matrices[j][i - 1] for j, (_, combo) in enumerate(picks) for i in combo
        ]
        if not rows:
            continue
        mat = np.array(rows) % b
        if _rank_mod(mat, b) < len(rows):
            return "refuted"
    return "certified"


def _rank_mod(mat, b):
    mat = mat.copy()
    rank = 0
    rows, cols = mat.shape
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if mat[r, c] % b:
                piv = r
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, c]), b - 2, b)
        mat[rank] = (mat[rank] * inv) % b
        for r in range(rows):
            if r != rank and mat[r, c]:
                mat[r] = (mat[r] - mat[r, c] * mat[rank]) % b
        rank += 1
    return rank


def test_certify_matches_naive_reference():
    rng = random.Random(7)
    for b in (2, 3):
        for trial in range(12):
            mats = [
                np.array(
                    [[rng.randrange(b) for _ in range(2)] for _ in range(4)]
                )
                for _ in range(2)
            ]
            ms = GeneratingMatrixSet(b, mats, Provenance("explicit"))
            for alpha in (1, 2):
                for t in range(0, alpha * 2 + 1):
                    got = certify_net(ms, alpha, t).verdict
                    want = _naive_certify(ms, alpha, t)
                    assert got == want, (b, trial, alpha, t)


def test_certify_monotone_in_t():
    ms = build_matrices(2, 1, 3, order=2)
    verdicts = [certify_net(ms, 2, t).verdict for t in range(0, 7)]
    if "certified" in verdicts:
        first = verdicts.index("certified")
        assert all(v == "certified" for v in verdicts[first:])


def test_propagation_examples():
    ms = build_matrices(2, 1, 3, order=3)
    t = t_value_bound(2, 3, 1)
    assert certify_net(ms, 3, t).verdict == "certified"
    # An order-3 net with parameter t is an order-alpha' net with
    # ceil(t * alpha' / 3).
    cert = certify_net(ms, 1, propagated_t(t, 3, 1))
    assert cert.verdict == "certified"
    assert cert.t == -(-t // 3)
    assert certify_net(ms, 2, propagated_t(0, 3, 2)).t == 0


def interpolation_gap(base, alpha, k):
    """Slack of the metric interpolation bound, exact: mu_alpha(k) minus
    ((alpha-1) mu_{2 alpha+1}(k) + (alpha+1) mu_1(k)) / (2 alpha), which is
    nonnegative for all k when alpha >= 2."""
    mixed = (alpha - 1) * dick_weight(base, 2 * alpha + 1, k)
    mixed += (alpha + 1) * dick_weight(base, 1, k)
    return dick_weight(base, alpha, k) - Fraction(mixed, 2 * alpha)


def test_interpolation_gap_examples():
    assert interpolation_gap(2, 2, 0) == 0
    assert interpolation_gap(2, 2, 5) == Fraction(3, 4)
    for b, alpha in ((2, 2), (3, 3)):
        for c in range(1, 6):
            k = b ** (c - 1)  # single nonzero digit
            assert interpolation_gap(b, alpha, k) == 0


def test_interpolation_gap_nonnegative_sampled():
    rng = random.Random(11)
    for b, alpha in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(400):
            k = rng.randrange(0, b**10)
            assert interpolation_gap(b, alpha, k) >= 0
        for _ in range(100):
            vec = tuple(rng.randrange(0, b**8) for _ in range(3))
            assert interpolation_gap(b, alpha, vec) >= 0


def test_digit_terms_reject_bases_below_2():
    # Base 1 never shrinks k, so the expansion would loop forever.
    for base in (-2, 0, 1):
        with pytest.raises(UsageError):
            nonzero_digit_terms(5, base)


def test_dual_index_expansion_roundtrip():
    vec = (17, 0, 5)
    for comp in vec:
        terms = nonzero_digit_terms(comp, 3)
        assert sum(dig * 3 ** (pos - 1) for dig, pos in terms) == comp
        assert all(1 <= dig < 3 for dig, pos in terms)
    # 17 = 122 and 5 = 12 in base 3: leading positions 3 and 2.
    assert dick_weight(3, 1, vec) == 5
    assert dick_weight(3, 2, vec) == 3 + 2 + 2 + 1


def _random_set(draw, bases, max_m, extra_rows=1):
    b = draw(st.sampled_from(bases))
    alpha = draw(st.sampled_from((1, 2, 3)))
    m = draw(st.integers(1, max_m[b]))
    dims = draw(st.integers(1, 3))
    rows = alpha * m + draw(st.integers(0, extra_rows))
    entries = draw(
        st.lists(st.integers(0, b - 1), min_size=dims * rows * m,
                 max_size=dims * rows * m)
    )
    mats = np.array(entries).reshape(dims, rows, m)
    return GeneratingMatrixSet(b, list(mats), Provenance("explicit")), alpha


def _leaf_certify(ms, alpha, t):
    """Reference certifier: one from-scratch rank check per leaf selection,
    in the enumeration order of certify_net; returns the outcome and the
    number of leaves charged."""
    m, dims = ms.cols, ms.dims
    budget = alpha * m - t
    if budget <= 0:
        return ("certified", None), 0
    per_dim = _envelope_selections(ms.rows, alpha, budget)
    work = _WorkCounter(10**9)

    def rec(j, cost, picked):
        if j == dims:
            if not any(picked):
                return None
            work.charge()
            stacked = [ms.matrices[jj][i - 1] for jj, rows in enumerate(picked) for i in rows]
            if _rank_mod(np.array(stacked) % ms.base, ms.base) < len(stacked):
                return tuple((jj + 1, rows) for jj, rows in enumerate(picked) if rows)
            return None
        for cost_j, rows in per_dim:
            if cost + cost_j > budget:
                break
            witness = rec(j + 1, cost + cost_j, picked + [rows])
            if witness is not None:
                return witness
        return None

    witness = rec(0, 0, [])
    verdict = ("certified", None) if witness is None else ("refuted", witness)
    return verdict, work.count


@st.composite
def _certify_cases(draw):
    ms, alpha = _random_set(draw, (2, 3, 5), {2: 4, 3: 2, 5: 2})
    return ms, alpha, draw(st.integers(0, alpha * ms.cols))


@settings(max_examples=150, deadline=None)
@given(case=_certify_cases())
def test_certify_matches_leaf_by_leaf_rank_route(case):
    ms, alpha, t = case
    want, leaves = _leaf_certify(ms, alpha, t)
    cert = certify_net(ms, alpha, t, work_limit=max(leaves, 1))
    assert (cert.verdict, cert.witness) == want
    # The same leaves are charged: one fewer unit raises.
    if leaves:
        with pytest.raises(ResourceLimitError):
            certify_net(ms, alpha, t, work_limit=leaves - 1)


@st.composite
def _dual_cases(draw):
    ms, alpha = _random_set(draw, (2, 3, 5), {2: 4, 3: 2, 5: 1})
    return ms, alpha, draw(st.integers(0, 7))


@settings(max_examples=150, deadline=None)
@given(case=_dual_cases())
def test_min_dual_weight_matches_shell_enumeration(case):
    ms, alpha, cap = case
    assert min_dual_weight(ms, alpha, cap) == _shell_min(ms, alpha, cap)


def _shell_min(ms, alpha, cap):
    # Every vector of order-alpha weight <= cap has weight-1 metric <= cap.
    weights = [dick_weight(ms.base, alpha, k) for k in dual_indices(ms, cap)]
    return min((w for w in weights if w <= cap), default=None)


@pytest.mark.parametrize("b, m, cap", [(3, 3, 7), (5, 2, 5)])
def test_min_dual_weight_matches_shell_enumeration_three_dims(b, m, cap):
    # Three coordinates run one transform join at b > 2, whose roots of
    # unity are not +-1.
    rng = random.Random(b)
    for alpha in (1, 2):
        for _ in range(4):
            mats = [np.array([[rng.randrange(b) for _ in range(m)]
                              for _ in range(alpha * m)]) for _ in range(3)]
            ms = GeneratingMatrixSet(b, mats, Provenance("explicit"))
            assert min_dual_weight(ms, alpha, cap) == _shell_min(ms, alpha, cap)


@settings(max_examples=60, deadline=None)
@given(
    b=st.sampled_from((2, 3, 5)),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_syndrome_transform_convolution(b, m, seed):
    # Inverse(forward(x) * forward(y)) is b**m times the group convolution
    # of x and y over Z_b^m, exactly, for counts below the prime.
    rng = np.random.default_rng(seed)
    size = b**m
    x, y = rng.integers(0, 3, size), rng.integers(0, 3, size)
    digits = np.array([[(i // b**c) % b for c in range(m)] for i in range(size)])
    index = {tuple(d): i for i, d in enumerate(digits)}
    conv = np.zeros(size, dtype=np.int64)
    for i in range(size):
        for k in range(size):
            conv[index[tuple((digits[i] + digits[k]) % b)]] += x[i] * y[k]
    transform = _SyndromeTransform(b, size, 1)
    p = transform.prime
    assert p % b == 1 and p > size
    product = transform(x, transform.forward, 2) * transform(y, transform.forward, 2) % p
    got = transform(product, transform.inverse, p - 1)
    assert np.array_equal(got, size * conv % p)


@st.composite
def _duality_cases(draw):
    if draw(st.booleans()):
        return _random_set(draw, (2, 3), {2: 4, 3: 2}, extra_rows=0)
    b = draw(st.sampled_from((2, 3)))
    alpha = draw(st.sampled_from((1, 2, 3)))
    dims = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4 if b == 2 else 2))
    return build_matrices(b, dims, m, order=alpha), alpha


@settings(max_examples=80, deadline=None)
@given(case=_duality_cases())
def test_rho_alpha_is_alpha_m_plus_1_minus_exact_t(case):
    # With alpha*m rows, a dependent admissible selection is a dual vector
    # of weight at most alpha*m - t, and b**(alpha*m) is dual: the smallest
    # certified t is alpha*m + 1 - rho_alpha.
    ms, alpha = case
    assert ms.rows == alpha * ms.cols
    t_min = next(
        t for t in range(alpha * ms.cols + 1)
        if certify_net(ms, alpha, t).verdict == "certified"
    )
    rho = min_dual_weight(ms, alpha, ms.rows + 1)
    assert rho == alpha * ms.cols + 1 - t_min
