"""Generating-matrix construction, interlacing, t-value bound, file format."""

import hashlib
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
    niederreiter_set,
    save_matrix_set,
    t_value_bound,
)


def test_first_matrix_is_identity():
    (ident,) = niederreiter_set(2, 1, 4, 4).matrices
    assert np.array_equal(ident, np.eye(4, dtype=int))


def test_second_matrix_base2():
    want = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert np.array_equal(niederreiter_set(2, 2, 3, 3).matrices[1], np.array(want))


def test_truncated_rows():
    full = niederreiter_set(2, 3, 4, 4).matrices
    cut = niederreiter_set(2, 3, 2, 4).matrices
    for a, c in zip(full, cut):
        assert np.array_equal(c, a[:2])


def test_niederreiter_set_errors():
    for dims, rows, cols in ((0, 2, 2), (1, 0, 2), (1, 2, 0)):
        with pytest.raises(UsageError):
            niederreiter_set(2, dims, rows, cols)
    with pytest.raises(UsageError):
        niederreiter_set(4, 1, 2, 2)


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
    assert ms.provenance.construction == "interlaced-niederreiter"


def _matrix_set_digest(ms):
    h = hashlib.sha256()
    for mat in ms.matrices:
        arr = np.ascontiguousarray(mat, dtype=np.int64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of (shape, int64 bytes) of every matrix of build_matrices(b, s, m,
# order=d), keyed (b, s, m, d): a grid over b in {2, 3, 5, 7, 11}, d in
# {1, 2, 3, 5, 7} and s in {1, 3, 8}, then the seven builds of the benchmark
# workloads.  Any change to the construction shows here first.
PINNED_DIGESTS = {
    (2, 1, 9, 1): "207bea35f41f85f26aa3aa289e4fb6f097d22113dddf4eff7aad69010ce08336",
    (2, 3, 9, 1): "caffa20908effb2c93587c9b8d4bd03f554e0ef5f3a60f5717598eb5a96b3dc4",
    (2, 8, 9, 1): "27ce2cfaf6c910e6126aba72f8a270ead2dcc598dd2a98ad4454aae06dab6060",
    (2, 1, 9, 2): "ec4fdb5f2902176eb5c295470f97ff09c50351ad9802937ebdbad315520a73eb",
    (2, 3, 9, 2): "1e80fb4490471cf4301c97cd64b05dff09cc847657bea56cd8026af56690d91b",
    (2, 8, 9, 2): "1448505eb749fe8c17e68c65a6886d88375baadc0cf09798b4abb20cc5f0ca0c",
    (2, 1, 9, 3): "13294d569f2820260bc25fbf27503647e2114dc6ed052fab4dc6b617a25e2d61",
    (2, 3, 9, 3): "1ad5a829186468a5e29cdc5220a9aa7bbbb2abed67c83f0a543a016cff1ceb06",
    (2, 8, 9, 3): "bfeaaaf8183a7e2e923ccd54aa7b1f5b8b244acce19223a277a3ed4e09d28670",
    (2, 1, 9, 5): "9786be19958f52285d215f54c8a6dbc322e8d7bc338bc4ecfa26c2c41acd4f17",
    (2, 3, 9, 5): "586aae2e89afe7c89e2c5702bcb778b72875bcf02888ee0449dde1c0d1780d54",
    (2, 8, 9, 5): "e3ff2713249bc51671f6dd8628433cf9f3ee6b20bcb1973bec2689ac26ce82dd",
    (2, 1, 9, 7): "60b454b9877f541a970842a706d529f0b7c1b4542ae8558a357e21904faeb17a",
    (2, 3, 9, 7): "126d37d7e6d3975606f628d6e6f6896af7c7df0c700a96396270565dc718fb3e",
    (2, 8, 9, 7): "600b6dd9ef9d1c6aca04878d5bc3321964d079fa6ed734c93ef5ea81b48129c8",
    (3, 1, 9, 1): "207bea35f41f85f26aa3aa289e4fb6f097d22113dddf4eff7aad69010ce08336",
    (3, 3, 9, 1): "b38542381397aacb3071e2532b5a63ef04a9bf28726894d7f323aa0e7f362276",
    (3, 8, 9, 1): "0c28855c284833259246ee241357a4eb411cfdee5efc0acb89324414f691132d",
    (3, 1, 9, 2): "33836750546015022192b0e0b0d11bb5f5e6d16fb67095fed9a766fe0b0c2ffd",
    (3, 3, 9, 2): "b0f4cd6dbb1bab0b9d2afd6eb127e3d90028d0feaf51b5c8682aec50411a0883",
    (3, 8, 9, 2): "b08df890282331778e19e20a76ddf511af0e77f7c7cee594a30a339fec8499b5",
    (3, 1, 9, 3): "a37b9c3403201d59736dd740287598bfeb95f71a7f9bce50a0ad08b57fe830c2",
    (3, 3, 9, 3): "3dd840194500fc329252324f4c1e2011c7591910111741a40cf225ed9c304cb6",
    (3, 8, 9, 3): "569efaff10cc793ec5273e67cd35f5696b99803b83610eefcb68f95ff9abbf7f",
    (3, 1, 9, 5): "5485c5baf43b60b31ba3f20dc50cfefb28b6a24d43639e0d53f52f7936f4437d",
    (3, 3, 9, 5): "e8c7feb5e8cb5ee4f6202c20930487f6eef4cd63a9dd2061fd825775ddea439e",
    (3, 8, 9, 5): "647c90fd77269abbb7351e3a8e84673243c8efd83be6646010198eea9de9df56",
    (3, 1, 9, 7): "519d9aaf414cb4c13701daa623a3c39dafe8697898baac749ebf85e742e8ffb5",
    (3, 3, 9, 7): "fffd84f4cca39f4180782a3c8ab043b5892344523b08698a638f090a1daf1690",
    (3, 8, 9, 7): "0f2c0aef19b354df460ee84204f7928a407f41ae54140bd371827228919e0656",
    (5, 1, 9, 1): "207bea35f41f85f26aa3aa289e4fb6f097d22113dddf4eff7aad69010ce08336",
    (5, 3, 9, 1): "8622175342cfb854913e208c100508977933f09ed9c8d16cb12fbca4147b42dd",
    (5, 8, 9, 1): "b0cee3cafa1cc19e7273f33bb2ceba67a24b68f7d7d34161e3c76b7533d95995",
    (5, 1, 9, 2): "6c6793a1508de294e3196c760b6c185ff3041ba0352526ac834fd2999a6e21a8",
    (5, 3, 9, 2): "e785b00d31ddffdc6682c9d63d8a846f3488c8b10e53e5f3a6ca1fb5989971d4",
    (5, 8, 9, 2): "5dac9d16c89ed100369df0a648e665bc48e1757df994bd0055c3f053d200fe42",
    (5, 1, 9, 3): "854c397f1543814498719cd0cfeba7fc9069b20c3eb8a3b270c1c76e4680fc2a",
    (5, 3, 9, 3): "bc9cb33ec7ed7d7f31babec00c91ddc64643cd33851bc9e20de56ca62eeffe4b",
    (5, 8, 9, 3): "8d89ec1ee79d732b69f070f96a829a6f2e53373df926f1a57db6682cf1a595a9",
    (5, 1, 9, 5): "284e7e1d22d7db80fe78311f0e5607d9aa133531e37f81e4ffc4a238732da459",
    (5, 3, 9, 5): "94216166defe0f9a415b45743b84767c30386a7d642dbb406b65f018f9c68730",
    (5, 8, 9, 5): "06b42175e6d551e2f18d7a0686ae5e56e454a295f1ce366ed05c68348a8cb6b2",
    (5, 1, 9, 7): "de5007fa1a1e461e954b5a1262e4ae8df2d4b5d870fe71210fafbc769cd54d27",
    (5, 3, 9, 7): "908a88260d7a38da56d2f5626c1cfe700f1efc5959831df4d622a83ab479e9f8",
    (5, 8, 9, 7): "60fe2e3b3ac6292faa65a6ec3eaba087a0c774de4551ef856228740881c87e3e",
    (7, 1, 9, 1): "207bea35f41f85f26aa3aa289e4fb6f097d22113dddf4eff7aad69010ce08336",
    (7, 3, 9, 1): "ae7a9be3488bd16f4a0685c06456ca1ac42837de1a6d62d0f1ac8906af4328d7",
    (7, 8, 9, 1): "394ab245620b2530810855c514abb39875ba51a99df084f2024b099bacca28a2",
    (7, 1, 9, 2): "6f9879fa404328f01598ddd30a0bb80ff957ca2e72b0a2e3ba1b3f237397ff3b",
    (7, 3, 9, 2): "5c87fd36482792bc0fb75693ee6535467a65e36ae58a5e40a97491e3abf81475",
    (7, 8, 9, 2): "a49d908838e8ac8d0417c4466b424c2038c24e73404e65e42c38d26847b97baf",
    (7, 1, 9, 3): "ad8ac80ab1f62669506788737db0e313273584408d0a13f3ec912e6f082ef2a8",
    (7, 3, 9, 3): "576e0f0a7bfdc6306848a5b94a25049bde95de0a347ba561afe437a8504dbe68",
    (7, 8, 9, 3): "4f660652e09fc9cb69bbfb2e67c5f17cde6f3d6859b6b3d8f370233d1f70faf3",
    (7, 1, 9, 5): "8387f83e5e7096edcced2825100583af1664e044f177edee6106122509a3817c",
    (7, 3, 9, 5): "62e273933cb108e0031e26d15ef2c2d86cd143c875e55eee2afbf54d0681ec9e",
    (7, 8, 9, 5): "c453ff72ab7dd9857bb31bba1572ccb86cfd14e8ee1722d3dc1850add7d6594f",
    (7, 1, 9, 7): "6d31b8ba9724f1d427b2de0c6655728cd0c6b2c8190bc73dcf245ce53abf16aa",
    (7, 3, 9, 7): "ce62e160ff767d22357f7b2c2d205d8c2614a63143498b4a5b841c46a4d3cd17",
    (7, 8, 9, 7): "35280c5d473a8ed3bf0373205bda0ddb5eaf412ccfec780b3dc08a4221c5d03d",
    (11, 1, 9, 1): "207bea35f41f85f26aa3aa289e4fb6f097d22113dddf4eff7aad69010ce08336",
    (11, 3, 9, 1): "870b708cef33d6603398b48bd31a18ed301f6a39f85588054eb06fdbdbbf8578",
    (11, 8, 9, 1): "66a82a55d2fdd580089a03b511ee7eebf0738a74cc563072a626ebb23a396e83",
    (11, 1, 9, 2): "b97fbf39c63e0edc76d9c4cd90008d130b11854a1fdbd8193d931b6b2e0aeadf",
    (11, 3, 9, 2): "17a4b90a5e0455c44a58686b1286954c1d41255b081402555e8febd2f6b9ae3f",
    (11, 8, 9, 2): "de136d40a3128bd886995ae2bcd6e150e4e3554efe8f91eef8afe258a6cc95e9",
    (11, 1, 9, 3): "486edaa09ac9646c72d113bc6419b4b3b1eaa0bff3afa392fa809bbf934f8824",
    (11, 3, 9, 3): "ad3ba2ef3f097878440e8df566349b8baee432cb7603bf1e7615616b28889d2a",
    (11, 8, 9, 3): "675a248b1b2e0ed08c7fb4baf664c4e23a1285f313c79d3569e6629a57504a80",
    (11, 1, 9, 5): "e9558399309c4007ae8e48b31d3539f201573d150adad49a9cd61068fe1f8346",
    (11, 3, 9, 5): "7284a34b6c1da4b664955a752df20305bb4a1650b2ce5b7b2dd6b917d54e2755",
    (11, 8, 9, 5): "e65f26f3ce0d98282e89fda0a44d0396e1686e75ffd372cc4d17c54996a6cf24",
    (11, 1, 9, 7): "ac99a81256a4b855ca63b4c337538ebd65a098bfc27f6456f45ce712a8de645e",
    (11, 3, 9, 7): "5f40474a3534aba6a3ec7f52053fb77d4a200aa9f875330ed126ccdb394ded3e",
    (11, 8, 9, 7): "a969b703ca0a1bb5dcb70450e2ea486e43a37d23b1cf29706b0c4c92b72b2761",
    (2, 1, 13, 7): "0a1d8d80fd786787d639343698d5b37359b7f0c9f9dc1585bba25a40ab0269a3",
    (2, 2, 12, 5): "93b88d0e27b92f1bc43c29a3968d6c5a944cdaeb13fccf780a39245966e2981a",
    (2, 4, 16, 3): "9003fb7e510aebeb8baf38c6e883cf68bb9a3be3d430f9d65cada491e5adf584",
    (2, 4, 14, 1): "07020c23c3c019f09cecfcd43bcf8018f32f49f5377e819beae1fea44a232921",
    (2, 4, 18, 1): "dd34c9a050ca2f38d9e50faacc843f005fe186a92f9341afc2f9389d3788b0ac",
    (2, 2, 8, 3): "27bd4558887164d41199cd9d98ab36f2003546fdccf81722ef9c68077b13bc6e",
    (2, 2, 10, 2): "61fd83bcbd3bf491f5d7517094ecc5a1f5e02b9cc893dc4eb80e508a758c646d",
}


@pytest.mark.parametrize(
    "case", PINNED_DIGESTS, ids=lambda c: "b{}_s{}_m{}_d{}".format(*c)
)
def test_build_matrices_pinned_digests(case):
    b, s, m, d = case
    assert _matrix_set_digest(build_matrices(b, s, m, order=d)) == PINNED_DIGESTS[case]


def test_matrix_entry_validation():
    with pytest.raises(UsageError):
        GeneratingMatrixSet(2, [np.array([[0, 2]])], Provenance("explicit"))


def test_file_roundtrip():
    ms = build_matrices(3, 2, 3, order=2)
    buf = io.StringIO()
    save_matrix_set(ms, buf)
    assert buf.getvalue().startswith("# construction=interlaced-niederreiter d=2\n")
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
