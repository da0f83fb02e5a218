"""End-to-end runs of the command-line interface through ``main(argv)``."""

import pytest

from hodnet.cli import main


def _run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")][1:]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("wce", "--alpha", "1", "--dims", "2", "--m", "5"),
        ("converge", "--alpha", "2", "--dims", "1", "--m-range", "1:6"),
        ("gen", "--dims", "2", "--m", "5", "--order", "3"),
        ("gen", "--dims", "2", "--m", "5", "--order", "3", "--format", "digits"),
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
