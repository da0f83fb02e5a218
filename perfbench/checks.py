"""Output checks for the benchmark, each against a reference that does not
come from the code path that produced the output.

Every function takes the CLI's primary output as text and returns counts
or fractions; output that cannot be parsed raises :class:`Unparsable`,
which the runner counts as a failed invocation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from exact_wce import bernoulli_poly, point_numerators, poly_eval

# Conjugate symmetry is exact in Q(w_b), but the printed values are floats
# converted independently for khat(k, l) and khat(l, k); both round to
# within a few ulps of the true value.
WALSH_REL_TOL = 1e-12
# e**2 = mean(K) - 1 with mean(K) near 1, so subtracting 1 leaves an
# absolute rounding error of a few units of 2**-52 however small e**2 is.
# Every converge row of the benchmark is within 1 unit today; 8 leaves room
# for another summation order, and catches halving e on any row whose exact
# e**2 is above 2.4e-15.
WCE_E2_ABS_TOL = Fraction(8, 2**52)
# The float reference below sums b**(2g) cell terms of size <= 1; its
# rounding error stays near 1e-15, far below any printed nonzero value.
WALSH_ABS_TOL = 1e-12


class Unparsable(ValueError):
    """The output does not have the documented format."""


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def check_converge(text: str, m_min: int, m_max: int, refs: dict[int, Fraction]) -> dict:
    """Zero rows, rows whose e**2 is off the exact reference by more than
    WCE_E2_ABS_TOL, and max |e - e_exact| / e_exact over all rows.

    ``refs`` maps m to the exact e**2 (see exact_wce.py).  A row whose exact
    e**2 is below the tolerance cannot be checked by value; only the zero
    row count sees it.
    """
    lines = _data_lines(text)
    if not lines or lines[0] != "m,N,e,log_b_e,normalized":
        raise Unparsable("converge header missing")
    rows = lines[1:]
    if len(rows) != m_max - m_min + 1:
        raise Unparsable(f"expected {m_max - m_min + 1} converge rows, got {len(rows)}")
    zero_rows = rows_off = 0
    rel_err = 0.0
    for want_m, line in zip(range(m_min, m_max + 1), rows):
        try:
            m, n, e, log_e, _ = line.split(",")
            m, n, e, log_e = int(m), int(n), float(e), float(log_e)
        except ValueError as exc:
            raise Unparsable(f"bad converge row {line!r}") from exc
        if m != want_m or n != 2**m:
            raise Unparsable(f"converge row {line!r} is out of order")
        if e == 0.0 or log_e == -math.inf:
            zero_rows += 1
        if m in refs and math.isfinite(e):
            e2 = refs[m]
            rows_off += abs(Fraction(e) ** 2 - e2) > WCE_E2_ABS_TOL
            exact = math.sqrt(e2)
            rel_err = max(rel_err, abs(e - exact) / exact)
        elif m in refs:
            rows_off += 1
            rel_err = math.inf
    return {"wce_zero_rows": zero_rows, "wce_rows_off": rows_off, "wce_rel_err_max": rel_err}


def check_gen(csv_text: str, digits_text: str, base: int) -> dict:
    """CSV values that are not the correctly rounded binary64 of the digit
    string, and CSV values that are not the exact value correctly rounded
    to the number of decimals they print.

    Python's int / int division rounds correctly, so int(digits, b) / b**n is
    the reference binary64 for each coordinate.  The first count is the
    share lost to too few decimals; the second must be 0 whatever the
    number of decimals is.
    """
    csv_lines = csv_text.splitlines()
    dig_lines = digits_text.splitlines()
    if not csv_lines or not dig_lines or csv_lines[0] != dig_lines[0] \
            or len(csv_lines) != len(dig_lines):
        raise Unparsable("csv and digits outputs describe different nets")
    mismatches = misrounded = total = 0
    for csv_line, dig_line in zip(csv_lines[1:], dig_lines[1:]):
        vals = csv_line.split(",")
        digs = dig_line.split("|")
        if len(vals) != len(digs):
            raise Unparsable(f"row width differs: {csv_line!r}")
        for v, d in zip(vals, digs):
            try:
                num, den = int(d, base), base ** len(d)
                whole, frac = v.split(".")
                printed = int(whole + frac)
                got = float(v)
            except ValueError as exc:
                raise Unparsable(f"bad coordinate {v!r} / {d!r}") from exc
            total += 1
            mismatches += got != num / den
            q, r = divmod(num * 10 ** len(frac), den)
            q += 2 * r > den or (2 * r == den and q % 2)
            misrounded += printed != q
    if not total:
        raise Unparsable("gen output has no points")
    return {"csv_mismatch_frac": mismatches / total, "csv_misrounded": misrounded}


def check_digit_rows(digits_text: str, matrices, indices) -> int:
    """Digit rows at ``indices`` that differ from an independent base-2
    computation (XOR of packed generating-matrix columns)."""
    lines = digits_text.splitlines()[1:]
    wrong = 0
    for h in indices:
        if h >= len(lines):
            raise Unparsable(f"digits output has no row {h}")
        rows = len(matrices[0])
        want = "|".join(format(x, f"0{rows}b") for x in point_numerators(matrices, h))
        wrong += lines[h] != want
    return wrong


def check_verdict(text: str, expected: str) -> int:
    """1 when the JSON report's verdict differs from the expected one."""
    try:
        verdict = json.loads(text)["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Unparsable("verify output is not a JSON report") from exc
    if verdict not in ("certified", "refuted"):
        raise Unparsable(f"unknown verdict {verdict!r}")
    return int(verdict != expected)


def without_elapsed(output: bytes) -> bytes:
    """The output with the top-level elapsed_ms of a JSON report removed,
    which is the only field allowed to differ between reruns."""
    if not output.lstrip().startswith(b"{"):
        return output
    try:
        report = json.loads(output)
    except ValueError:
        return output
    if isinstance(report, dict):
        report.pop("elapsed_ms", None)
    return json.dumps(report, sort_keys=True).encode()


def walsh_reference(base: int, alpha: int, kmax: int) -> np.ndarray:
    """khat(k, l) for k, l < kmax by direct cell integration, in floats.

    khat(k, l) = int int K(x, y) conj(wal_k(x)) wal_l(y) dx dy.  Walsh
    functions with k < b**g are constant on the b**g cells at resolution g,
    so the integral is a sum over cells of exact cell integrals of the
    kernel: products of B_r cell integrals for the polynomial part, and a
    Toeplitz matrix of B_2alpha(|x - y|) cell-pair integrals (second
    antiderivative differences) for the rest.
    """
    g = len(np.base_repr(kmax - 1, base))
    n = base**g
    h = Fraction(1, n)
    cells = np.arange(n)
    msb = np.array([(cells // base ** (g - 1 - i)) % base for i in range(g)])
    ks = np.arange(kmax)
    lsb = np.array([(ks // base**i) % base for i in range(g)])
    walsh = np.exp(2j * np.pi * ((msb.T @ lsb) % base) / base)  # (cell, k)
    out = np.zeros((kmax, kmax), dtype=complex)
    for r in range(alpha + 1):
        anti = bernoulli_poly(r + 1)
        edges = [poly_eval(anti, t * h) for t in range(n + 1)]
        cell = np.array([float((edges[t + 1] - edges[t]) / math.factorial(r + 1))
                         for t in range(n)])
        out += np.outer(walsh.conj().T @ cell, walsh.T @ cell)
    r = 2 * alpha
    f1, f2 = bernoulli_poly(r + 1), bernoulli_poly(r + 2)

    def anti2(t):
        return poly_eval(f2, t) / math.factorial(r + 2)

    offsets = [2 * (anti2(h) - anti2(0) - h * poly_eval(f1, 0) / math.factorial(r + 1))]
    offsets += [anti2((d + 1) * h) - 2 * anti2(d * h) + anti2((d - 1) * h) for d in range(1, n)]
    pair = np.array([float(v) for v in offsets])[np.abs(cells[:, None] - cells[None, :])]
    sign = 1 if alpha % 2 else -1
    return out + sign * (walsh.conj().T @ pair @ walsh)


def check_walsh(text: str, base: int, alpha: int, kmax: int) -> dict:
    """Pairs that break khat(l, k) = conj khat(k, l) or the sparsity rule,
    and pairs whose value differs from :func:`walsh_reference`.

    Sparsity: khat(k, l) is exactly zero whenever the pair type has
    p + q > 2 alpha.  Symmetry also requires the transposed type (q, p) and
    the same exact-zero flag.
    """
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("k,l,p,q,"):
        raise Unparsable("walsh header missing")
    table = {}
    for line in lines[1:]:
        try:
            k, l, p, q, _, _, _, _, re, im, zero = line.split(",")
            k, l = int(k), int(l)
            table[k, l] = (int(p), int(q), complex(float(re), float(im)), zero == "1")
        except ValueError as exc:
            raise Unparsable(f"bad walsh row {line!r}") from exc
        if not (0 <= k < kmax and 0 <= l < kmax):
            raise Unparsable(f"walsh row {line!r} is outside kmax {kmax}")
    if len(table) != kmax * kmax or len(lines) != kmax * kmax + 1:
        raise Unparsable(f"expected {kmax * kmax} distinct walsh pairs")
    ref = walsh_reference(base, alpha, kmax)
    fails = wrong = 0
    for (k, l), (p, q, z, zero) in table.items():
        tp, tq, tz, tzero = table[l, k]
        scale = max(abs(z), abs(tz))
        asym = (
            (tp, tq) != (q, p)
            or tzero != zero
            or (zero and z != 0)
            or abs(z - tz.conjugate()) > WALSH_REL_TOL * scale
        )
        sparse = p + q > 2 * alpha and not zero
        fails += asym or sparse
        wrong += int(abs(z - ref[k, l]) > WALSH_ABS_TOL)
    return {"walsh_check_fail": fails, "walsh_value_wrong": wrong}
