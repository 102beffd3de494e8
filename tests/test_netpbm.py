import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from lumaforge import (
    ColorBuffer,
    Dimensions,
    IngestionError,
    PixelBuffer,
    decode_image,
    encode_image,
    read_image,
    write_image,
)
from lumaforge.netpbm import read_dims

gray_arrays = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16)
)
color_arrays = npst.arrays(
    np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3))
)


def test_pgm_header_is_canonical():
    buf = PixelBuffer(np.zeros((2, 3), dtype=np.uint8))
    assert encode_image(buf) == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_ppm_header_is_canonical():
    buf = ColorBuffer(np.zeros((2, 3, 3), dtype=np.uint8))
    assert encode_image(buf).startswith(b"P6\n3 2\n255\n")


@given(gray_arrays)
def test_gray_round_trip(arr):
    buf = PixelBuffer(arr)
    assert decode_image(encode_image(buf)) == buf


@given(color_arrays)
def test_color_round_trip(arr):
    buf = ColorBuffer(arr)
    assert decode_image(encode_image(buf)) == buf


@given(gray_arrays)
def test_re_encode_is_bit_exact(arr):
    data = encode_image(PixelBuffer(arr))
    assert encode_image(decode_image(data)) == data


def test_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    gray = PixelBuffer(rng.integers(0, 256, (9, 13), dtype=np.uint8))
    color = ColorBuffer(rng.integers(0, 256, (9, 13, 3), dtype=np.uint8))
    for buf, name in ((gray, "a.pgm"), (color, "b.ppm")):
        path = tmp_path / name
        write_image(buf, path)
        assert read_image(path) == buf
        assert path.read_bytes() == encode_image(buf)


def test_reader_tolerates_comments_and_whitespace():
    data = b"P5 # magic\n# a comment line\n  3\t2 # size\n255\n" + bytes(range(6))
    buf = decode_image(data)
    assert buf.data.tolist() == [[0, 1, 2], [3, 4, 5]]


MALFORMED = [
    b"P4\n2 2\n255\n" + b"\x00" * 4,  # unsupported magic
    b"P5\n2 2\n65535\n" + b"\x00" * 8,  # wide maxval
    b"P5\n2 2\n255\n" + b"\x00" * 3,  # truncated payload
    b"P5\n2 2\n255\n" + b"\x00" * 5,  # trailing junk
    b"P5\nx 2\n255\n" + b"\x00" * 4,  # non-numeric size
    b"P5\n2 2",  # header cut short
    b"P5\n0 2\n255\n",  # degenerate size
]


@pytest.mark.parametrize("data", MALFORMED)
def test_reader_rejects_malformed(data):
    with pytest.raises(IngestionError):
        decode_image(data)


@pytest.mark.parametrize("data", MALFORMED)
def test_read_dims_rejects_what_the_decoder_rejects(data, tmp_path):
    path = tmp_path / "frame.pgm"
    path.write_bytes(data)
    with pytest.raises(IngestionError):
        read_dims(path)


def test_read_dims_reads_headers_longer_than_its_probe(tmp_path):
    path = tmp_path / "frame.ppm"
    path.write_bytes(b"P6\n# " + b"x" * 5000 + b"\n3 2\n255\n" + bytes(range(18)))
    assert read_dims(path) == Dimensions(2, 3) == read_image(path).dims


def test_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="nothere"):
        read_image(tmp_path / "nothere.pgm")
