import io
from pathlib import Path

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
from lumaforge.netpbm import _HEADER, _HEADER_PREFIX, read_dims

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


def test_a_non_buffer_is_refused_by_kind(tmp_path):
    array = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(IngestionError, match="cannot encode ndarray as a netpbm image"):
        encode_image(array)
    with pytest.raises(IngestionError, match="cannot encode ndarray as a netpbm image"):
        write_image(array, tmp_path / "a.pgm")
    assert not (tmp_path / "a.pgm").exists()


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
    b"P5\n+3 2\n255\n" + b"\x00" * 6,  # a sign is no ASCII decimal
    b"P5\n3_0 1\n255\n" + b"\x00" * 30,  # nor is a digit separator
    pytest.param(b"P5\n" + b"1" * 5000 + b" 1\n255\n", id="width-beyond-int-digit-limit"),
    b"P5\n3 2\n255#c\n" + b"\x00" * 6,  # a comment between maxval and samples
]

# (header, rows, cols, channels) of headers the netpbm grammar allows
ACCEPTED = [
    (b"# made by hand\nP5\n3 2\n255\n", 2, 3, 1),  # comment before the magic
    (b"P5\n3#c\n2 255\n", 2, 3, 1),  # comment glued to a number
    (b"P6#c\n#d\n1\n1#e\n#f\n255\r", 1, 1, 3),  # comments and whitespace everywhere
    (b"P5\n003 0002\n0255\n", 2, 3, 1),  # leading zeros
]


@pytest.mark.parametrize("header, rows, cols, channels", ACCEPTED)
def test_reader_accepts_the_header_grammar(header, rows, cols, channels, tmp_path):
    data = header + bytes(range(rows * cols * channels))
    assert decode_image(data).data.tobytes() == bytes(range(rows * cols * channels))
    path = tmp_path / "frame.pnm"
    path.write_bytes(data)
    assert read_dims(path) == Dimensions(rows, cols)


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


@pytest.mark.parametrize("header", [h for h, *_ in ACCEPTED] + [b"P6\n# " + b"x" * 600 + b"\n3 2\n255\n"])
def test_header_prefix_holds_every_cut_of_a_header(header):
    # read_dims falls back to the whole file exactly when its probe is such a cut
    cuts = [header[:i] for i in range(len(header)) if _HEADER.match(header[:i]) is None]
    assert cuts and all(_HEADER_PREFIX.fullmatch(cut) for cut in cuts)
    assert _HEADER_PREFIX.fullmatch(header) is None


@pytest.mark.parametrize("head", [
    b"GIF89a",  # no netpbm magic
    b"P5\n3 2\n255 ",  # the header ends in the probe; the payload is too long
    b"P5 3 x",  # a header that cannot continue
])
def test_read_dims_reads_no_further_than_a_header_can_reach(head, tmp_path, monkeypatch):
    path = tmp_path / "big_000.pgm"
    path.write_bytes(head + bytes(1 << 20))
    reads = []

    class CountingReader(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            reads.append(len(data))
            return data

    monkeypatch.setattr(Path, "open", lambda self, mode: CountingReader(io.FileIO(self)))
    with pytest.raises(IngestionError):
        read_dims(path)
    assert sum(reads) <= 512


def test_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="nothere"):
        read_image(tmp_path / "nothere.pgm")


@pytest.mark.parametrize("name, buf", [
    ("a.pgm", ColorBuffer(np.zeros((2, 3, 3), dtype=np.uint8))),
    ("a.ppm", PixelBuffer(np.zeros((2, 3), dtype=np.uint8))),
])
def test_a_frame_file_holds_the_kind_its_extension_names(name, buf, tmp_path):
    path = tmp_path / name
    path.write_bytes(encode_image(buf))
    for read in (read_dims, read_image):
        with pytest.raises(IngestionError, match=rf"{name}: a \.p.m file must hold P. data"):
            read(path)
