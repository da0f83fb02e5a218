"""Digital point generation: exactness, prefix property, digit interleaving."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodnet.errors import UsageError
from hodnet.matrices import (
    GeneratingMatrixSet,
    build_matrices,
    interlace_matrix_set,
    niederreiter_set,
)
from hodnet.points import (
    format_points_csv,
    format_points_digits,
    net_digits,
    net_points,
    net_values,
)


def vdc(m):
    return niederreiter_set(2, 1, m, m)


def test_net_points_index_examples():
    assert net_digits(vdc(4), 4)[2].tolist() == [[0, 1, 0, 0]]
    pts = net_points(vdc(4), 4)
    assert pts[3] == (Fraction(3, 4),)
    assert pts[0] == (Fraction(0),)


def test_net_points_index_bound():
    # Two digit columns index exactly the first 4 points.
    ms = vdc(2)
    assert len(net_points(ms, 2)) == 4
    with pytest.raises(UsageError):
        net_points(ms, 3)


def test_net_points_order_base2():
    vals = [p[0] for p in net_points(vdc(2), 2)]
    assert vals == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def test_net_points_order_base3():
    ms = niederreiter_set(3, 1, 1, 1)
    vals = [p[0] for p in net_points(ms, 1)]
    assert vals == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_prefix_property_through_m8():
    ms = vdc(8)
    runs = {m: net_points(ms, m) for m in range(0, 9)}
    for m in range(1, 9):
        prev = runs[m - 1]
        assert runs[m][: len(prev)] == prev


def test_extensible_in_dimension():
    big = build_matrices(2, 3, 4, order=2)
    small = build_matrices(2, 2, 4, order=2)
    assert np.array_equal(net_digits(big, 4)[:, :2, :], net_digits(small, 4))


def _interlaced_digits(coords, factor):
    # Digits of point 1 of the net whose one column per source dimension is
    # that coordinate's digit vector, after interlacing the source.
    src = GeneratingMatrixSet(2, [np.array(c)[:, None] for c in coords])
    rows = factor * len(coords[0])
    ms = interlace_matrix_set(src, factor, len(coords) // factor, rows, 1)
    return net_digits(ms, 1)[1].tolist()


def test_interlace_digit_examples():
    assert _interlaced_digits([(1,), (1,)], 2) == [[1, 1]]
    assert _interlaced_digits([(1, 1), (1, 0)], 2) == [[1, 1, 1, 0]]
    assert _interlaced_digits([(0, 1, 0)], 1) == [[0, 1, 0]]


def test_interlace_digit_errors():
    # Digit vectors of different precision do not form one matrix set, and
    # a source with fewer than factor * dims coordinates cannot be merged.
    with pytest.raises(UsageError):
        _interlaced_digits([(1,), (1, 0)], 2)
    with pytest.raises(UsageError):
        _interlaced_digits([(1,)], 2)


def test_interlace_point_blockwise():
    out = _interlaced_digits([(1, 0), (0, 1), (1, 1), (0, 0)], 2)
    assert out == [[1, 0, 0, 1], [1, 0, 1, 0]]


def test_matrix_vs_point_interlacing_small():
    # The interleaved matrices generate exactly the digit-interleaved points.
    b, d, s, m = 2, 2, 1, 4
    src = niederreiter_set(b, d * s, m, m)
    msd = interlace_matrix_set(src, d, s, d * m, m)
    direct = net_digits(msd, m)[:, 0, :]
    merged = net_digits(src, m).transpose(0, 2, 1).reshape(b**m, d * m)
    assert np.array_equal(direct, merged)


# The largest m per base that keeps the property tests below a few hundred
# points.
_MAX_M = {2: 7, 3: 4, 5: 3}
_nets = dict(
    base=st.sampled_from(sorted(_MAX_M)),
    order=st.integers(1, 5),
    dims=st.integers(1, 3),
    data=st.data(),
)


@settings(max_examples=30, deadline=None)
@given(**_nets)
def test_net_digits_extensible_in_n(base, order, dims, data):
    # The first b**m points of a larger build are the m-build's points,
    # zero in every digit row below order * m.
    m = data.draw(st.integers(1, _MAX_M[base]))
    big_m = data.draw(st.integers(m, _MAX_M[base]))
    small = net_digits(build_matrices(base, dims, m, order=order), m)
    big = net_digits(build_matrices(base, dims, big_m, order=order), m)
    assert np.array_equal(big[:, :, : order * m], small)
    assert not big[:, :, order * m :].any()


@settings(max_examples=30, deadline=None)
@given(**_nets)
def test_net_digits_extensible_in_dims(base, order, dims, data):
    m = data.draw(st.integers(1, _MAX_M[base]))
    wide = net_digits(build_matrices(base, dims + 1, m, order=order), m)
    narrow = net_digits(build_matrices(base, dims, m, order=order), m)
    assert np.array_equal(wide[:, :dims, :], narrow)


@settings(max_examples=30, deadline=None)
@given(**_nets)
def test_net_digits_interlacing(base, order, dims, data):
    # Coordinate j of the order-d net merges the digits of source
    # coordinates d*j .. d*j + d - 1 round-robin, most significant first.
    m = data.draw(st.integers(1, _MAX_M[base]))
    n_points = base**m
    direct = net_digits(build_matrices(base, dims, m, order=order), m)
    src = net_digits(niederreiter_set(base, order * dims, m, m), m)
    for j in range(dims):
        block = src[:, order * j : order * (j + 1), :]
        merged = block.transpose(0, 2, 1).reshape(n_points, order * m)
        assert np.array_equal(direct[:, j, :], merged)


def test_net_values_match_fractions():
    ms = build_matrices(3, 2, 3, order=2)
    vals = net_values(ms, 3)
    pts = net_points(ms, 3)
    for row, pt in zip(vals, pts):
        for got, frac in zip(row, pt):
            assert got == pytest.approx(float(frac), abs=0)


def test_all_coordinates_in_unit_interval():
    ms = build_matrices(3, 2, 3, order=3)
    vals = net_values(ms, 3)
    assert np.all(vals >= 0) and np.all(vals < 1)
    assert np.all(vals[0] == 0)


def test_point_formats():
    ms = vdc(2)
    csv = format_points_csv(ms, 2)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# b=2 s=1 m=2 d=1 construction=niederreiter")
    assert len(lines) == 5
    # ceil(2 * log10(2)) + 17 = 18 decimal digits
    assert lines[2] == "0.500000000000000000"
    digits = format_points_digits(ms, 2).strip().split("\n")
    assert digits[1:] == ["00", "10", "01", "11"]


@pytest.mark.parametrize(
    "base,dims,m,order",
    [(2, 2, 6, 3), (3, 2, 4, 2), (2, 1, 8, 7)],
)
def test_csv_round_trips_to_net_values(base, dims, m, order):
    # Every printed value parses back to the binary64 that wce analyses; at
    # d=7, m=8 the 56 digit rows hold more bits than binary64 does.
    ms = build_matrices(base, dims, m, order=order)
    lines = format_points_csv(ms, m).splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.array_equal(parsed, net_values(ms, m))


def _horner(digits, base):
    num = 0
    for d in digits:
        num = num * base + d
    return num


def _assert_values_are_rounded_horner(ms, m):
    # Reference: a Python-int Horner over the digits of ``net_digits``,
    # divided with /, which rounds correctly.  ``net_points`` is checked on
    # about 500 evenly spaced points to keep large nets fast.
    den = ms.base**ms.rows
    nums = [
        [_horner(coord, ms.base) for coord in pt]
        for pt in net_digits(ms, m).tolist()
    ]
    assert net_values(ms, m).tolist() == [[n / den for n in row] for row in nums]
    pts = net_points(ms, m)
    step = max(1, len(pts) // 500)
    for pt, row in zip(pts[::step], nums[::step]):
        assert pt == tuple(Fraction(n, den) for n in row)


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from([2, 3, 5, 7]),
    dims=st.integers(1, 2),
    order=st.integers(1, 5),
    data=st.data(),
)
def test_net_values_equal_python_horner(base, dims, order, data):
    m = data.draw(st.integers(1, {2: 7, 3: 4, 5: 3, 7: 2}[base]))
    _assert_values_are_rounded_horner(build_matrices(base, dims, m, order=order), m)


@pytest.mark.parametrize(
    "base,dims,m,order",
    # One int64 piece holds 62 base-2 or 39 base-3 digits: the first two
    # nets need one piece, the others two.
    [(2, 2, 6, 3), (3, 2, 3, 3), (2, 1, 10, 7), (2, 1, 16, 5), (3, 1, 9, 7)],
)
def test_net_values_across_int64_pieces(base, dims, m, order):
    _assert_values_are_rounded_horner(build_matrices(base, dims, m, order=order), m)


def test_net_digits_are_uint8():
    arr = net_digits(build_matrices(3, 2, 4, order=2), 4)
    assert arr.dtype == np.uint8
    assert arr.shape == (81, 2, 8)


@pytest.mark.parametrize("base", [2, 3, 5])
def test_digits_format_equals_per_digit_str(base):
    ms = build_matrices(base, 2, 3, order=2)
    lines = format_points_digits(ms, 3).splitlines()[1:]
    want = [
        "|".join("".join(str(d) for d in coord) for coord in pt)
        for pt in net_digits(ms, 3).tolist()
    ]
    assert lines == want
