"""Generating-matrix construction, interlacing, t-value bound, file format."""

import io

import numpy as np
import pytest

from hodnet.errors import UsageError
from hodnet.matrices import (
    GeneratingMatrixSet,
    Provenance,
    build_matrices,
    interlace_matrix_set,
    load_matrix_set,
    niederreiter_matrix,
    niederreiter_set,
    save_matrix_set,
    t_value_bound,
)


def test_first_matrix_is_identity():
    assert np.array_equal(niederreiter_matrix(2, 1, 4, 4), np.eye(4, dtype=int))


def test_second_matrix_base2():
    want = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert np.array_equal(niederreiter_matrix(2, 2, 3, 3), np.array(want))


def test_truncated_rows():
    full = niederreiter_matrix(2, 1, 4, 4)
    cut = niederreiter_matrix(2, 1, 2, 4)
    assert np.array_equal(cut, full[:2])


@pytest.mark.parametrize("b,s", [(2, 4), (3, 3)])
def test_column_finiteness(b, s):
    # Order-1 matrices vanish strictly below the diagonal.
    ms = niederreiter_set(b, s, 10, 10)
    for mat in ms.matrices:
        for k in range(10):
            for l in range(k):
                assert mat[k, l] == 0


def test_interlace_identity_factor():
    src = niederreiter_set(2, 2, 4, 4)
    out = interlace_matrix_set(src, 1, 2, 4, 4)
    for a, c in zip(out.matrices, src.matrices):
        assert np.array_equal(a, c)


def test_interlace_row_map():
    src = niederreiter_set(2, 2, 4, 4)
    out = interlace_matrix_set(src, 2, 1, 4, 4)
    ident, pascal = src.matrices
    got = out.matrices[0]
    assert np.array_equal(got[0], ident[0])
    assert np.array_equal(got[1], pascal[0])
    assert np.array_equal(got[2], ident[1])
    assert np.array_equal(got[3], pascal[1])


def test_interlace_first_block_only():
    src = niederreiter_set(2, 3, 1, 4)
    out = interlace_matrix_set(src, 3, 1, 3, 4)
    for i in range(3):
        assert np.array_equal(out.matrices[0][i], src.matrices[i][0])


def test_interlace_row_map_is_bijection():
    # Every used source row appears exactly once across the output rows.
    factor, dims, rows, cols = 3, 2, 9, 5
    src = niederreiter_set(2, factor * dims, 3, cols)
    out = interlace_matrix_set(src, factor, dims, rows, cols)
    seen = set()
    for j in range(dims):
        for r in range(1, rows + 1):
            h = (r - 1) // factor + 1
            i = (r - 1) % factor + 1
            key = (factor * j + i, h)
            assert key not in seen
            seen.add(key)
            assert np.array_equal(
                out.matrices[j][r - 1], src.matrices[key[0] - 1][h - 1]
            )
    assert len(seen) == dims * rows


def test_interlace_insufficient_source():
    src = niederreiter_set(2, 2, 4, 4)
    with pytest.raises(UsageError):
        interlace_matrix_set(src, 3, 1, 4, 4)
    with pytest.raises(UsageError):
        interlace_matrix_set(src, 2, 1, 9, 4)


def test_t_value_examples():
    assert t_value_bound(2, 1, 2) == 0
    assert t_value_bound(2, 3, 1) == 6
    assert t_value_bound(3, 1, 3) == 0


def test_t_value_monotone():
    for b in (2, 3):
        for d in (1, 2, 3):
            vals = [t_value_bound(b, d, s) for s in range(1, 6)]
            assert vals == sorted(vals)
        for s in (1, 2, 3):
            vals = [t_value_bound(b, d, s) for d in range(1, 5)]
            assert vals == sorted(vals)


def test_build_matrices_defaults():
    ms = build_matrices(2, 2, 4, order=3)
    assert ms.rows == 12 and ms.cols == 4 and ms.dims == 2
    assert ms.provenance.interlace_factor == 3
    assert ms.provenance.t_claimed == t_value_bound(2, 3, 2)


def test_matrix_entry_validation():
    with pytest.raises(UsageError):
        GeneratingMatrixSet(2, [np.array([[0, 2]])], Provenance("explicit"))


def test_file_roundtrip():
    ms = build_matrices(3, 2, 3, order=2)
    buf = io.StringIO()
    save_matrix_set(ms, buf)
    loaded = load_matrix_set(io.StringIO(buf.getvalue()))
    assert loaded.base == ms.base
    assert loaded.dims == ms.dims and loaded.rows == ms.rows
    assert loaded.provenance.interlace_factor == 2
    for a, c in zip(loaded.matrices, ms.matrices):
        assert np.array_equal(a, c)


def test_file_roundtrip_on_disk(tmp_path):
    ms = niederreiter_set(2, 1, 3, 3)
    path = tmp_path / "mats.txt"
    save_matrix_set(ms, str(path))
    loaded = load_matrix_set(str(path))
    assert np.array_equal(loaded.matrices[0], ms.matrices[0])


def test_file_format_errors():
    with pytest.raises(UsageError):
        load_matrix_set(io.StringIO("# nothing\n"))
    with pytest.raises(UsageError):
        load_matrix_set(io.StringIO("2 1 1\n1\n"))
    with pytest.raises(UsageError):
        load_matrix_set(io.StringIO("2 1 2 2\n1 0\n"))
    with pytest.raises(UsageError):
        load_matrix_set(io.StringIO("# construction=explicit d=x\n2 1 1 1\n1\n"))
