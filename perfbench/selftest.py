"""Self-tests of the benchmark's own references and checks.

    python3 perfbench/selftest.py

Each check must pass on a good output and flag a deliberately corrupted
one: a truncated CSV value, a 0.0 wce row, a flipped verdict and a walsh
row with a conjugate-sign error.  Malformed output must raise Unparsable,
which the runner counts as a failed invocation, rather than crash.  The exact wce reference is compared with
a direct O(N**2) Fraction double sum, and the committed reference file is
recomputed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import exact_wce  # noqa: E402
from workloads import CONVERGE_RUNS, DATA, VERIFY_CASES, WORKLOADS  # noqa: E402


def cli_output(*args: str) -> str:
    from hodnet.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(args)) == 0
    return buf.getvalue()


def brute_e2(alpha: int, points, rows: int) -> Fraction:
    """sum_{i,j} prod_d k(x_id, x_jd) / N**2 - 1 with the kernel written out."""

    bs = [exact_wce.bernoulli_poly(r) for r in range(alpha + 1)]
    per = exact_wce.bernoulli_poly(2 * alpha)
    sign = 1 if alpha % 2 else -1

    def k(x, y):
        poly = sum(exact_wce.poly_eval(bs[r], x) * exact_wce.poly_eval(bs[r], y) / math.factorial(r) ** 2 for r in range(alpha + 1))
        return poly + sign * exact_wce.poly_eval(per, abs(x - y)) / math.factorial(2 * alpha)

    fr = [tuple(Fraction(c, 1 << rows) for c in p) for p in points]
    total = Fraction(0)
    for a in fr:
        for b in fr:
            term = Fraction(1)
            for x, y in zip(a, b):
                term *= k(x, y)
            total += term
    return total / len(fr) ** 2 - 1


class ExactReference(unittest.TestCase):
    def test_bernoulli_polynomials(self):
        self.assertEqual(exact_wce.bernoulli_poly(2), [Fraction(1, 6), -1, 1])
        self.assertEqual(exact_wce.bernoulli_poly(1), [Fraction(-1, 2), 1])

    def test_xor_points_are_radical_inverse(self):
        identity = [[int(r == c) for c in range(4)] for r in range(4)]
        pts = exact_wce.net_numerators([identity], 4)
        self.assertEqual([p[0] for p in pts], [int(f"{h:04b}"[::-1], 2) for h in range(16)])

    def test_matches_direct_double_sum(self):
        from hodnet.matrices import build_matrices

        for run in CONVERGE_RUNS:
            ms = build_matrices(run.base, run.dims, run.m_max, order=2 * run.alpha + 1)
            for m in range(1, 5):
                pts = exact_wce.net_numerators(ms.matrices, m)
                with self.subTest(run=run.key, m=m):
                    self.assertEqual(exact_wce.exact_e2(run.alpha, pts, ms.rows),
                                     brute_e2(run.alpha, pts, ms.rows))

    def test_committed_references(self):
        committed = json.loads((DATA / "converge_refs.json").read_text())["runs"]
        for run in CONVERGE_RUNS:
            rows = exact_wce.reference_rows(run.base, run.alpha, run.dims, run.m_min, run.m_max)
            self.assertEqual(rows, committed[run.key])


class Checks(unittest.TestCase):
    def converge_case(self):
        run = CONVERGE_RUNS[0]
        text = cli_output("converge", "--base", "2", "--alpha", str(run.alpha), "--dims",
                          str(run.dims), "--m-range", "1:4")
        refs = {row["m"]: Fraction(row["e2"]) for row in
                exact_wce.reference_rows(run.base, run.alpha, run.dims, 1, 4)}
        return text.splitlines(), refs

    def test_converge_flags_zero_row(self):
        lines, refs = self.converge_case()
        good = checks.check_converge("\n".join(lines), 1, 4, refs)
        self.assertEqual(good["wce_zero_rows"], 0)
        self.assertEqual(good["wce_rows_off"], 0)
        self.assertLess(good["wce_rel_err_max"], 1e-6)
        m, n, *_ = lines[-1].split(",")
        lines[-1] = f"{m},{n},0.0,-inf,0.0"
        bad = checks.check_converge("\n".join(lines), 1, 4, refs)
        self.assertEqual(bad["wce_zero_rows"], 1)
        self.assertEqual(bad["wce_rows_off"], 1)
        self.assertEqual(bad["wce_rel_err_max"], 1.0)
        with self.assertRaises(checks.Unparsable):
            checks.check_converge("\n".join(lines[:-1]), 1, 4, refs)

    def test_converge_flags_halved_row(self):
        # A wrong but nonzero e on one row is caught by that row's check,
        # whatever the other rows' known defects are.
        lines, refs = self.converge_case()
        m, n, e, log_e, norm = lines[-2].split(",")
        lines[-2] = ",".join((m, n, repr(float(e) / 2), log_e, norm))
        bad = checks.check_converge("\n".join(lines), 1, 4, refs)
        self.assertEqual(bad["wce_zero_rows"], 0)
        self.assertEqual(bad["wce_rows_off"], 1)
        self.assertAlmostEqual(bad["wce_rel_err_max"], 0.5)

    def test_gen_flags_truncated_value(self):
        digits = "# net\n0101|1100\n1011|0001\n"
        values = [int(d, 2) / 16 for d in ("0101", "1100", "1011", "0001")]
        csv = "# net\n{:.4f},{:.4f}\n{:.4f},{:.4f}\n".format(*values)
        self.assertEqual(checks.check_gen(csv, digits, 2),
                         {"csv_mismatch_frac": 0, "csv_misrounded": 0})
        truncated = csv.replace("0.3125", "0.312")
        self.assertEqual(checks.check_gen(truncated, digits, 2)["csv_mismatch_frac"], 0.25)
        # Too few decimals but correctly rounded is lossy, not misrounded.
        short = "# net\n{:.2f},{:.2f}\n{:.2f},{:.2f}\n".format(*values)
        self.assertEqual(checks.check_gen(short, digits, 2),
                         {"csv_mismatch_frac": 0.75, "csv_misrounded": 0})
        wrong = csv.replace("0.3125", "0.3126")
        self.assertEqual(checks.check_gen(wrong, digits, 2)["csv_misrounded"], 1)
        rounded_up = short.replace("0.31", "0.32")
        self.assertEqual(checks.check_gen(rounded_up, digits, 2)["csv_misrounded"], 1)

    def test_gen_empty_output_is_unparsable(self):
        csv = "# net\n0.5000\n"
        for bad_csv, bad_digits in ((csv, ""), ("", "# net\n1000\n"), (csv, "# net\n")):
            with self.assertRaises(checks.Unparsable):
                checks.check_gen(bad_csv, bad_digits, 2)

    def test_digit_rows_flag_wrong_row(self):
        from hodnet.matrices import build_matrices

        ms = build_matrices(2, 2, 6, order=3)
        text = cli_output("gen", "--base", "2", "--dims", "2", "--m", "6", "--order", "3",
                          "--format", "digits")
        self.assertEqual(checks.check_digit_rows(text, ms.matrices, range(64)), 0)
        lines = text.splitlines()
        lines[5] = ("1" if lines[5][0] == "0" else "0") + lines[5][1:]
        self.assertEqual(checks.check_digit_rows("\n".join(lines), ms.matrices, range(64)), 1)

    def test_verdict_flags_flip(self):
        case = next(c for c in VERIFY_CASES if c.label == "dup_rows")
        text = cli_output("verify", *case.args)
        self.assertEqual(checks.check_verdict(text, case.expected), 0)
        flipped = text.replace('"refuted"', '"certified"')
        self.assertEqual(checks.check_verdict(flipped, case.expected), 1)
        with self.assertRaises(checks.Unparsable):
            checks.check_verdict("not json", case.expected)

    def test_verdict_gate_names_the_known_case(self):
        # Fixing the known wrong case while breaking another keeps
        # verdict_wrong at 1 but raises verdict_wrong_unlisted.
        check = WORKLOADS["verify"].check
        right = {c.label: json.dumps({"verdict": c.expected}) for c in VERIFY_CASES}

        def flip(label):
            out = dict(right)
            case = next(c for c in VERIFY_CASES if c.label == label)
            other = "refuted" if case.expected == "certified" else "certified"
            out[label] = json.dumps({"verdict": other})
            return out

        self.assertEqual(check(right, None), {"verdict_wrong": 0, "verdict_wrong_unlisted": 0})
        self.assertEqual(check(flip("order3_alpha1"), None),
                         {"verdict_wrong": 1, "verdict_wrong_unlisted": 0})
        self.assertEqual(check(flip("dup_rows"), None),
                         {"verdict_wrong": 1, "verdict_wrong_unlisted": 1})

    def test_rerun_ignores_only_elapsed(self):
        case = next(c for c in VERIFY_CASES if c.label == "dup_rows")
        first, second = (cli_output("verify", *case.args).encode() for _ in range(2))
        report = json.loads(first)
        report["elapsed_ms"] += 1
        shifted = json.dumps(report, indent=2).encode()
        self.assertEqual(checks.without_elapsed(first), checks.without_elapsed(shifted))
        self.assertEqual(checks.without_elapsed(first), checks.without_elapsed(second))
        report["verdict"] = "certified"
        self.assertNotEqual(checks.without_elapsed(first),
                            checks.without_elapsed(json.dumps(report).encode()))
        csv = b"m,N\n1,2\n"
        self.assertEqual(checks.without_elapsed(csv), csv)

    def test_walsh_flags_conjugate_sign_error(self):
        text = cli_output("walsh", "--base", "3", "--alpha", "1", "--kmax", "9")
        self.assertEqual(checks.check_walsh(text, 3, 1, 9),
                         {"walsh_check_fail": 0, "walsh_value_wrong": 0})
        lines = text.splitlines()
        idx = next(i for i, ln in enumerate(lines)
                   if not ln.startswith(("#", "k,")) and float(ln.split(",")[9]) != 0)
        fields = lines[idx].split(",")
        fields[9] = repr(-float(fields[9]))
        lines[idx] = ",".join(fields)
        bad = checks.check_walsh("\n".join(lines), 3, 1, 9)
        self.assertGreaterEqual(bad["walsh_check_fail"], 1)
        self.assertEqual(bad["walsh_value_wrong"], 1)

    def test_walsh_flags_conjugated_table(self):
        # Conjugating every value keeps the symmetry; only the reference sees it.
        text = cli_output("walsh", "--base", "3", "--alpha", "1", "--kmax", "9")
        rows = [ln.split(",") for ln in text.splitlines()]
        for f in rows:
            if not f[0].startswith(("#", "k")) and float(f[9]):
                f[9] = repr(-float(f[9]))
        bad = checks.check_walsh("\n".join(",".join(f) for f in rows), 3, 1, 9)
        self.assertEqual(bad["walsh_check_fail"], 0)
        self.assertGreater(bad["walsh_value_wrong"], 0)

    def test_walsh_flags_sparsity_violation(self):
        text = cli_output("walsh", "--base", "3", "--alpha", "1", "--kmax", "9")
        lines = text.splitlines()
        idx = next(i for i, ln in enumerate(lines) if not ln.startswith(("#", "k,"))
                   and int(ln.split(",")[2]) + int(ln.split(",")[3]) > 2)
        fields = lines[idx].split(",")
        fields[8], fields[10] = "1e-300", "0"
        lines[idx] = ",".join(fields)
        self.assertGreaterEqual(checks.check_walsh("\n".join(lines), 3, 1, 9)["walsh_check_fail"], 1)

    def test_walsh_out_of_range_row_is_unparsable(self):
        text = cli_output("walsh", "--base", "3", "--alpha", "1", "--kmax", "9")
        lines = text.splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("8,"))
        for k, l in (("9", "0"), ("0", "-1")):
            fields = lines[idx].split(",")
            fields[0], fields[1] = k, l
            bad = lines[:idx] + [",".join(fields)] + lines[idx + 1:]
            with self.assertRaises(checks.Unparsable):
                checks.check_walsh("\n".join(bad), 3, 1, 9)


if __name__ == "__main__":
    unittest.main()
