"""End-to-end runs of the command-line interface through ``main(argv)``."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from hodnet.cli import main
from hodnet.gf import digits_of
from hodnet.matrices import build_matrices, save_matrix_set
from hodnet.quality import dick_weight, min_dual_weight


def _run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")][1:]


def _base3_file(tmp_path):
    # A 2-dimensional base-3 order-2 set, unlike the flags' defaults.
    path = tmp_path / "b3.mat"
    save_matrix_set(build_matrices(3, 2, 3, order=2), str(path))
    return str(path)


def test_wce_row_equals_converge_row(tmp_path):
    wce = _run(tmp_path, "wce.csv", "wce", "--alpha", "2", "--dims", "2", "--m", "6")
    conv = _run(
        tmp_path, "conv.csv",
        "converge", "--alpha", "2", "--dims", "2", "--m-range", "4:6",
    )
    assert wce.splitlines()[1] == "b,s,alpha,order_d,m,N,e,log_b_e"
    (row,) = _data_rows(wce)
    b, s, alpha, order, m, n, e, log_e = row.split(",")
    assert (b, s, alpha, order, m, n) == ("2", "2", "2", "5", "6", "64")
    conv_row = _data_rows(conv)[-1].split(",")
    assert conv_row[:4] == [m, n, e, log_e]


def test_converge_prefix_rows_independent_of_range_top(tmp_path):
    short = _run(tmp_path, "a.csv", "converge", "--alpha", "1", "--m-range", "6:8")
    long = _run(tmp_path, "b.csv", "converge", "--alpha", "1", "--m-range", "6:10")
    assert _data_rows(long)[:3] == _data_rows(short)


def test_converge_prefix_rows_independent_of_range_top_s2(tmp_path):
    conv = ("converge", "--alpha", "2", "--dims", "2")
    short = _run(tmp_path, "a.csv", *conv, "--m-range", "3:5")
    long = _run(tmp_path, "b.csv", *conv, "--m-range", "3:7")
    assert _data_rows(long)[:3] == _data_rows(short)


CONVERGE_REFS = (
    Path(__file__).resolve().parent.parent / "perfbench" / "data" / "converge_refs.json"
)


@pytest.mark.parametrize("alpha, dims, top", [(3, 1, 13), (2, 2, 12)])
def test_converge_prints_exact_e_correctly_rounded(tmp_path, alpha, dims, top):
    # The exact e**2 of both benchmark converge runs, computed by separate
    # code; binary64 double sums printed 0.0 at alpha=3, s=1, m=11..13.
    refs = json.loads(CONVERGE_REFS.read_text())["runs"][f"b2_a{alpha}_s{dims}"]
    text = _run(
        tmp_path, "c.csv",
        "converge", "--alpha", str(alpha), "--dims", str(dims),
        "--m-range", f"1:{top}", "--work-limit", "1000000000",
    )
    rows = [line.split(",") for line in _data_rows(text)]
    assert [int(row[0]) for row in rows] == [ref["m"] for ref in refs]
    with localcontext() as ctx:
        ctx.prec = 60
        for row, ref in zip(rows, refs):
            num, den = (int(v) for v in ref["e2"].split("/"))
            assert row[2] == repr(float((Decimal(num) / Decimal(den)).sqrt()))
            assert float(row[2]) > 0 and float(row[3]) > float("-inf")


@pytest.mark.parametrize(
    "argv",
    [
        ("wce", "--alpha", "1", "--dims", "2", "--m", "5"),
        ("converge", "--alpha", "2", "--dims", "1", "--m-range", "1:6"),
        ("gen", "--dims", "2", "--m", "5", "--order", "3"),
        ("gen", "--dims", "2", "--m", "5", "--order", "3", "--format", "digits"),
        ("dual", "--dims", "2", "--m", "4", "--order", "2", "--mu1-max", "7"),
    ],
)
def test_reruns_are_byte_identical(tmp_path, argv):
    assert _run(tmp_path, "first", *argv) == _run(tmp_path, "second", *argv)


@pytest.mark.parametrize("m_range", ["5", "3:1"])
def test_bad_m_range_exits_2(tmp_path, m_range):
    assert main(["converge", "--m-range", m_range, "--out", str(tmp_path / "x")]) == 2


def test_work_limit_exits_3(tmp_path):
    out = str(tmp_path / "x")
    assert main(["converge", "--m-range", "1:6", "--work-limit", "100", "--out", out]) == 3
    assert main(["wce", "--m", "6", "--work-limit", "100", "--out", out]) == 3


def test_wce_work_limit_exits_3(tmp_path):
    # m=4 in one dimension takes the exact sorted path: N = 16 points times
    # 2 * alpha = 2 columns is 32 units.
    out = str(tmp_path / "x")
    assert main(["wce", "--m", "4", "--work-limit", "10", "--out", out]) == 3
    assert main(["wce", "--m", "4", "--work-limit", "31", "--out", out]) == 3
    assert main(["wce", "--m", "4", "--work-limit", "32", "--out", out]) == 0


def test_wce_work_limit_prices_the_block_kernel_quadratically(tmp_path):
    # At s = 3 the binary64 block kernel evaluates N * N * s = 8 * 8 * 3.
    argv = ["wce", "--dims", "3", "--m", "3", "--out", str(tmp_path / "x")]
    assert main([*argv, "--work-limit", "191"]) == 3
    assert main([*argv, "--work-limit", "192"]) == 0


def test_exact_converge_fits_the_default_work_limit(tmp_path):
    # Priced as a quadratic sum, m = 12 needed 4096**2 > 10**7 units.
    text = _run(tmp_path, "c.csv", "converge", "--alpha", "3", "--dims", "1",
                "--m-range", "1:13")
    assert [row.split(",")[0] for row in _data_rows(text)] == [
        str(m) for m in range(1, 14)
    ]


def test_gen_digits_above_base_10_parse_back(tmp_path):
    # Digits 10 and up print as letters, so int(text, 11) reads each
    # coordinate back; "100" for the digits (10, 0) was ambiguous.
    text = _run(
        tmp_path, "d.txt",
        "gen", "--base", "11", "--dims", "1", "--m", "2", "--order", "1",
        "--format", "digits",
    )
    lines = text.splitlines()[1:]
    assert len(lines) == 121
    assert all(len(line) == 2 for line in lines)
    assert sorted(int(line, 11) for line in lines) == list(range(121))
    assert "a0" in lines


def test_gen_digits_above_base_36_exits_2(tmp_path):
    argv = ["gen", "--base", "37", "--m", "1", "--format", "digits"]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert main(["gen", "--base", "37", "--m", "1", "--out", str(tmp_path / "y")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("walsh", "--base", "1", "--kmax", "2"),  # hung in the digit expansion
        ("walsh", "--base", "0", "--kmax", "2"),
        ("walsh", "--base", "4", "--kmax", "2"),
        ("gen", "--order", "0", "--m", "3"),
        ("verify", "--order", "0", "--m", "3"),
        ("verify", "--order", "-1", "--m", "3"),
        ("dual", "--order", "0", "--m", "3", "--mu1-max", "2"),
        # Without --alpha validation the exit code depended on whether any
        # dual vector had weight at most mu1-max.
        ("dual", "--m", "3", "--mu1-max", "2", "--alpha", "0"),
        ("dual", "--m", "3", "--mu1-max", "5", "--alpha", "0"),
        # A negative work limit exited 3 as if the work had exceeded it.
        ("verify", "--m", "3", "--work-limit", "-5"),
        ("converge", "--m-range", "1:2", "--work-limit", "-5"),
    ],
)
def test_bad_input_exits_2_with_one_line(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "hodnet.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_walsh_checks_the_base_before_any_work(tmp_path, monkeypatch):
    def no_work(*args):
        raise AssertionError("walsh did work for a base it rejects")

    monkeypatch.setattr("hodnet.cli.dick_weight", no_work)
    monkeypatch.setattr("hodnet.cli.iter_kernel_coeffs", no_work)
    for base in ("-3", "0", "1", "4", "9"):
        argv = ["walsh", "--base", base, "--kmax", "2", "--out", str(tmp_path / "x")]
        assert main(argv) == 2


def test_walsh_refuses_an_oversized_cell_matrix_before_building_it(
    tmp_path, monkeypatch
):
    # b = 67, kmax = 68 needs resolution g = 2, so 67**4 > 10**7 cell pairs;
    # the class masks built before the cap check took 0.7 s and 361 MiB.
    def no_work(*args):
        raise AssertionError("walsh built the exponent matrix past its cap")

    monkeypatch.setattr("hodnet.walsh._exponent_matrix", no_work)
    argv = ["walsh", "--base", "67", "--kmax", "68", "--out", str(tmp_path / "x")]
    assert main(argv) == 3
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "hodnet.cli", "walsh", "--base", "67", "--kmax", "68"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (run.returncode, run.stdout) == (3, "")
    assert "20151121 cell pairs" in run.stderr


def test_walsh_accepts_a_prime_base_above_the_field_maximum(tmp_path):
    # The scan needs a prime base only; MAX_BASE bounds the constructions.
    text = _run(tmp_path, "w.csv", "walsh", "--base", "67", "--kmax", "2")
    assert len(_data_rows(text)) == 4


@pytest.mark.parametrize(
    "flags",
    [
        ("--alpha", "0", "--dims", "0"),
        ("--base", "0"),
        ("--dims", "0"),
        ("--threads", "0"),
    ],
)
def test_converge_rejects_bad_values(tmp_path, flags):
    # Zero is a given value, not an absent flag: it must not fall back to a
    # default.
    argv = ["converge", *flags, "--m-range", "1:2", "--out", str(tmp_path / "x")]
    assert main(argv) == 2


def _verify(tmp_path, *argv):
    return json.loads(_run(tmp_path, "v.json", "verify", "--rho-cap", "0", *argv))


def test_verify_default_t_propagates_from_interlacing_order(tmp_path):
    # An order-3 net with t = 30 is an order-1 net with t = ceil(30/3) = 10,
    # which leaves no weight budget at m = 8.
    report = _verify(
        tmp_path, "--order", "3", "--alpha", "1", "--dims", "2", "--m", "8"
    )
    assert (report["t"], report["budget"]) == (10, -2)
    assert report["verdict"] == "certified"
    assert report["vacuous"] is True


def test_verify_flags_vacuous_certificate(tmp_path):
    report = _verify(
        tmp_path, "--order", "3", "--alpha", "3", "--dims", "2", "--m", "8"
    )
    assert (report["t"], report["budget"], report["vacuous"]) == (30, -6, True)
    report = _verify(tmp_path, "--order", "2", "--dims", "2", "--m", "10")
    assert report["budget"] == 20 - report["t"] > 0
    assert report["vacuous"] is False


def test_verify_matrix_file_needs_t(tmp_path):
    # A file brings no construction bound: the base-2 one (t = 8) made the
    # base-3 net's certificate vacuous, where its own bound is t = 4.
    net = ("--m", "3", "--dims", "2", "--order", "2", "--alpha", "2")
    argv = ["verify", "--matrices", _base3_file(tmp_path), *net]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    from_file = _verify(tmp_path, *argv[1:], "--t", "4")
    built = _verify(tmp_path, "--base", "3", *net)
    assert from_file["t"] == built["t"] == 4
    from_file.pop("elapsed_ms"), built.pop("elapsed_ms")
    assert from_file == built


def test_verify_alpha_above_order_needs_t(tmp_path):
    # No default t follows for alpha > d; an explicit one is checked as given
    # (here t = alpha*m, which leaves no budget).
    argv = ("--order", "1", "--alpha", "2", "--m", "4")
    assert main(["verify", *argv, "--out", str(tmp_path / "x")]) == 2
    report = _verify(tmp_path, *argv, "--t", "8")
    assert (report["t"], report["vacuous"]) == (8, True)


@pytest.mark.parametrize(
    "config",
    [{"alpha": "2"}, {"m_max": 3.5}, {"m_max": True}, {"construction": 1}, {"out": 7}],
)
def test_converge_config_rejects_wrong_types(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["converge", "--config", str(path), "--out", str(tmp_path / "x")]
    assert main(argv) == 2


def test_converge_config_rejects_a_negative_work_limit(tmp_path):
    path = tmp_path / "cfg.json"
    out = str(tmp_path / "x")
    path.write_text(json.dumps({"m_max": 2, "work_limit": -5}))
    assert main(["converge", "--config", str(path), "--out", out]) == 2
    # Zero still means that no work is allowed.
    path.write_text(json.dumps({"m_max": 2, "work_limit": 0}))
    assert main(["converge", "--config", str(path), "--out", out]) == 3


def test_converge_config_accepts_null_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order": None, "m_max": 2, "out": None}))
    out = tmp_path / "x"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert len(_data_rows(out.read_text())) == 2


def _without_elapsed(text):
    report = json.loads(text)
    report.pop("elapsed_ms")
    return report


def test_matrix_file_with_extra_columns_gives_the_m_column_net(tmp_path):
    # A file with 8 columns, read at m = 4, must be analysed as the 4-column
    # net: the dual search once read all 8 and found rho_alpha = 13.
    path = tmp_path / "m8.mat"
    save_matrix_set(build_matrices(2, 2, 8, order=2), str(path))
    net = ("--m", "4", "--dims", "2", "--order", "2")
    # t = 8 is the built net's default (t_value_bound(2, 2, 2)); a file
    # needs it given.
    verify = ("verify", *net, "--alpha", "2", "--t", "8", "--rho-cap", "12")
    from_file = _run(tmp_path, "f.json", *verify, "--matrices", str(path))
    built = _run(tmp_path, "b.json", *verify)
    assert _without_elapsed(from_file) == _without_elapsed(built)
    assert _without_elapsed(built)["rho_alpha"] == 5
    dual = ("dual", *net, "--mu1-max", "5")
    from_file = _run(tmp_path, "f.csv", *dual, "--matrices", str(path))
    built = _run(tmp_path, "b.csv", *dual)
    assert from_file == built
    assert _data_rows(built)[:2] == ["0,7,3,3", "1,9,5,5"]


def test_dual_header_comes_from_the_matrix_set(tmp_path):
    # The flags say b=2, s=1, d=1; the file holds a base-3 set with s=2, d=2.
    text = _run(
        tmp_path, "d.csv",
        "dual", "--matrices", _base3_file(tmp_path), "--m", "3", "--dims", "1",
        "--mu1-max", "3",
    )
    comment, header, *rows = text.splitlines()
    assert comment.split()[4:7] == ["b=3", "s=2", "m=3"]
    assert "d=2" in comment.split()
    assert header == "k1,k2,mu1,mu_alpha"
    assert rows and all(len(row.split(",")) == 4 for row in rows)


def test_dual_base3_rows_are_dual_vectors_with_their_weights(tmp_path):
    # The matrix set's base, not --base (default 2), defines the weights.
    ms = build_matrices(3, 2, 3, order=2)
    path = tmp_path / "b3.mat"
    save_matrix_set(ms, str(path))
    text = _run(
        tmp_path, "d.csv",
        "dual", "--matrices", str(path), "--m", "3", "--dims", "2",
        "--mu1-max", "6", "--alpha", "2",
    )
    rows = [[int(v) for v in line.split(",")] for line in _data_rows(text)]
    assert rows
    for k1, k2, mu1, mu_alpha in rows:
        assert mu1 == dick_weight(3, 1, (k1, k2))
        assert mu_alpha == dick_weight(3, 2, (k1, k2))
        # Dual definition: sum_j C_j^T digits(k_j) = 0 over F_3, digits
        # truncated to the matrix rows.
        syndrome = sum(
            mat.T @ np.array(digits_of(k, 3, ms.rows))
            for mat, k in zip(ms.matrices, (k1, k2))
        )
        assert not (syndrome % 3).any()


def _verify_report(tmp_path, *argv):
    return _without_elapsed(_run(tmp_path, "v.json", "verify", *argv))


def test_verify_rho_alpha_is_null_above_the_cap(tmp_path):
    # rho_2 = 4; the weight-1 shells up to 3 once gave 5.
    path = tmp_path / "one.mat"
    path.write_text("2 1 4 2\n1 1\n1 0\n1 0\n0 0\n")
    argv = ("--matrices", str(path), "--dims", "1", "--order", "2", "--alpha", "2",
            "--m", "2", "--t", "0")
    capped = _verify_report(tmp_path, *argv, "--rho-cap", "3")
    assert capped["rho_alpha"] is None
    assert capped["rho_alpha_note"] == "exceeds search cap 3"
    assert _verify_report(tmp_path, *argv, "--rho-cap", "4")["rho_alpha"] == 4


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--dims", "4", "--order", "1", "--m", "14"),
         {"verdict": "certified", "t": 3, "budget": 11, "rho_alpha": 12}),
        (("--dims", "4", "--order", "1", "--m", "16"),
         {"verdict": "certified", "t": 3, "budget": 13, "rho_alpha": 14}),
        (("--dims", "2", "--order", "3", "--alpha", "1", "--m", "8", "--t", "3"),
         {"verdict": "certified", "budget": 5, "rho_alpha": 6}),
        (("--dims", "2", "--order", "3", "--alpha", "1", "--m", "8", "--t", "2",
          "--rho-cap", "0"),
         {"verdict": "refuted", "witness": [[1, [1, 2]], [2, [1, 2, 3, 4]]]}),
    ],
)
def test_verify_known_answers(tmp_path, argv, expected):
    report = _verify_report(tmp_path, "--base", "2", *argv)
    assert {key: report[key] for key in expected} == expected


def test_base5_known_answer(tmp_path):
    # (b, alpha, s, d) = (5, 2, 1, 5): every seed irreducible is linear, the
    # order-2 net of each m = 2..5 has exact t_m = alpha*m + 1 - rho = 0, and
    # converge prints these exact rows.
    for m in range(2, 6):
        ms = build_matrices(5, 1, m, order=5)
        assert 2 * m + 1 - min_dual_weight(ms, 2, 2 * m + 2) == 0
    text = _run(tmp_path, "c.csv", "converge", "--base", "5", "--alpha", "2",
                "--order", "5", "--dims", "1", "--m-range", "2:5")
    assert _data_rows(text) == [
        "2,25,0.0004143058104139493,-4.839519514328997,0.2589411315087183",
        "3,125,1.5790230845804352e-05,-6.869553043730316,0.246722356965693",
        "4,625,8.159864055736426e-07,-8.710412519582867,0.31874468967720415",
        "5,3125,3.262815641187726e-08,-10.710627663577187,0.31863433995973883",
    ]
