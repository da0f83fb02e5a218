"""Exact worst-case errors for the converge workload, independent of hodnet.kernel.

The reference is computed once and committed as ``data/converge_refs.json``;
rerun this file from the repository root to regenerate it:

    python3 perfbench/exact_wce.py

Method.  Points of a base-2 digital net are generated here from the
generating matrices by XOR of packed matrix columns (not by hodnet.points),
so every coordinate is an exact integer X over D = 2**rows.  The 1-d
Sobolev kernel of smoothness alpha,

    k(x, y) = sum_{r<=alpha} B_r(x) B_r(y) / (r!)**2
              + (-1)**(alpha+1) B_{2 alpha}(|x - y|) / (2 alpha)!,

is, for x >= y, a bivariate polynomial k+(x, y) of degree 2 alpha in each
variable (Bernoulli numbers come from their own recurrence here).  After
sorting the points by the first coordinate, every ordered pair (i, j) with
j earlier than i has x_i >= x_j, so the off-diagonal kernel sum is a sum of
polynomials in the point i and prefix moment sums of the earlier points:

* s = 1: prefix sums of X_j**b, O(N * alpha**2) big-integer operations;
* s = 2: the second coordinate splits the earlier points by y_j <= y_i or
  y_j > y_i, and a Fenwick tree over the rank of y keeps the mixed moments
  X_j**b * Y_j**d of each side, O(N log N * alpha**2).

All arithmetic is on integers scaled by a common denominator, so e**2 =
sum(K) / N**2 - 1 comes out as an exact rational.  ``selftest.py`` checks
it against a direct O(N**2) Fraction double sum on small nets.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "data" / "converge_refs.json"


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(math.comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    return out


def bernoulli_poly(n: int) -> list[Fraction]:
    """Coefficients of B_n(x), lowest degree first."""
    nums = bernoulli_numbers(n)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = math.comb(n, k) * nums[k]
    return coeffs


def poly_eval(coeffs: list[Fraction], x):
    """Evaluate a polynomial given lowest degree first (Horner)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def kernel_plus(alpha: int) -> list[list[Fraction]]:
    """c[a][b] with k(x, y) = sum c[a][b] x**a y**b for x >= y."""
    g = 2 * alpha
    c = [[Fraction(0)] * (g + 1) for _ in range(g + 1)]
    for r in range(alpha + 1):
        br = bernoulli_poly(r)
        scale = Fraction(1, math.factorial(r) ** 2)
        for a, ca in enumerate(br):
            for b, cb in enumerate(br):
                c[a][b] += ca * cb * scale
    sign = 1 if alpha % 2 else -1
    q = bernoulli_poly(g)
    for n, qn in enumerate(q):
        # (x - y)**n = sum_a C(n, a) x**a (-y)**(n-a)
        for a in range(n + 1):
            c[a][n - a] += sign * qn * math.comb(n, a) * (-1) ** (n - a) / math.factorial(g)
    return c


def scaled_kernel(alpha: int, rows: int) -> tuple[list[list[int]], int]:
    """Integer W and scale with k+(X/D, Y/D) = sum W[a][b] X**a Y**b / scale."""
    c = kernel_plus(alpha)
    g = 2 * alpha
    den = math.lcm(*(v.denominator for row in c for v in row))
    d = 1 << rows
    w = [
        [int(c[a][b] * den) * d ** (2 * g - a - b) for b in range(g + 1)]
        for a in range(g + 1)
    ]
    return w, den * d ** (2 * g)


def _packed_columns(matrices, m: int) -> list[list[int]]:
    """Column c of each matrix as an integer, row 0 the most significant bit."""
    out = []
    for mat in matrices:
        rows = len(mat)
        out.append([
            sum(int(mat[r][c]) << (rows - 1 - r) for r in range(rows))
            for c in range(m)
        ])
    return out


def _xor_point(packed: list[list[int]], h: int) -> tuple[int, ...]:
    coords = []
    for cols in packed:
        x = 0
        for c, col in enumerate(cols):
            if h >> c & 1:
                x ^= col
        coords.append(x)
    return tuple(coords)


def point_numerators(matrices, h: int) -> tuple[int, ...]:
    """Integer coordinates X (over 2**rows) of point h of a base-2 net."""
    return _xor_point(_packed_columns(matrices, h.bit_length()), h)


def net_numerators(matrices, m: int) -> list[tuple[int, ...]]:
    """Integer coordinates of the first 2**m points of a base-2 net.

    Point h is the XOR of the packed matrix columns selected by the bits
    of h, which is the matrix-vector product over F_2.
    """
    packed = _packed_columns(matrices, m)
    return [_xor_point(packed, h) for h in range(1 << m)]


def _powers(x: int, g: int) -> list[int]:
    out = [1]
    for _ in range(g):
        out.append(out[-1] * x)
    return out


def _form(w: list[list[int]], u: list[int]) -> list[int]:
    """p[b] = sum_a u[a] * w[a][b]."""
    return [sum(ua * row[b] for ua, row in zip(u, w)) for b in range(len(w))]


def exact_e2(alpha: int, points: list[tuple[int, ...]], rows: int) -> Fraction:
    """Exact squared worst-case error of the equal-weight rule on ``points``."""
    dims = len(points[0])
    if dims not in (1, 2):
        raise ValueError("exact reference supports s = 1 and s = 2")
    g = 2 * alpha
    w, scale = scaled_kernel(alpha, rows)
    wt = [list(col) for col in zip(*w)]
    n = len(points)
    pts = sorted(points)
    diag = 0
    off = 0
    if dims == 1:
        moments = [0] * (g + 1)
        for (x,) in pts:
            px = _powers(x, g)
            p = _form(w, px)
            diag += sum(pb * xb for pb, xb in zip(p, px))
            off += sum(pb * mb for pb, mb in zip(p, moments))
            for b in range(g + 1):
                moments[b] += px[b]
    else:
        ranks = {y: i + 1 for i, y in enumerate(sorted({pt[1] for pt in pts}))}
        size = len(ranks)
        k = g + 1
        tree = [[0] * (k * k) for _ in range(size + 1)]
        total = [0] * (k * k)
        for x, y in pts:
            px, py = _powers(x, g), _powers(y, g)
            p = _form(w, px)    # sum_a X_i**a W[a][b]
            q = _form(w, py)    # sum_c Y_i**c W[c][d]  (y_j <= y_i)
            r = _form(wt, py)   # sum_d W[c][d] Y_i**d  (y_j >  y_i)
            diag += sum(pb * xb for pb, xb in zip(p, px)) * sum(
                qd * yd for qd, yd in zip(q, py)
            )
            below = [0] * (k * k)
            i = ranks[y]
            while i > 0:
                node = tree[i]
                for t in range(k * k):
                    below[t] += node[t]
                i -= i & -i
            for b in range(k):
                pb = p[b]
                if not pb:
                    continue
                base = b * k
                acc = 0
                for d in range(k):
                    mb = below[base + d]
                    acc += q[d] * mb + r[d] * (total[base + d] - mb)
                off += pb * acc
            mom = [xb * yd for xb in px for yd in py]
            i = ranks[y]
            while i <= size:
                node = tree[i]
                for t in range(k * k):
                    node[t] += mom[t]
                i += i & -i
            for t in range(k * k):
                total[t] += mom[t]
    return Fraction(diag + 2 * off, scale**dims * n * n) - 1


def reference_rows(base: int, alpha: int, dims: int, m_min: int, m_max: int) -> list[dict]:
    from hodnet.matrices import build_matrices

    if base != 2:
        raise ValueError("the packed-column point generator is base 2 only")
    ms = build_matrices(base, dims, m_max, order=2 * alpha + 1)
    rows = []
    for m in range(m_min, m_max + 1):
        e2 = exact_e2(alpha, net_numerators(ms.matrices, m), ms.rows)
        # float(Fraction) rounds correctly, so e is within one ulp of exact.
        rows.append({"m": m, "e2": f"{e2.numerator}/{e2.denominator}",
                     "e": math.sqrt(float(e2))})
    return rows


def main() -> int:
    sys.path.insert(0, str(REFS_PATH.parents[2] / "src"))
    from workloads import CONVERGE_RUNS

    refs = {}
    for run in CONVERGE_RUNS:
        key = run.key
        refs[key] = reference_rows(run.base, run.alpha, run.dims, run.m_min, run.m_max)
        for row in refs[key]:
            print(key, row["m"], repr(row["e"]), file=sys.stderr)
    REFS_PATH.write_text(json.dumps({
        "method": "perfbench/exact_wce.py: sorted prefix moments (s=1) and a "
                  "Fenwick tree of mixed moments (s=2), exact integers",
        "runs": refs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
