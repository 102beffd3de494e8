"""Binary netpbm frame I/O: 8-bit grayscale PGM (P5) and color PPM (P6).

The writer emits the canonical header b"P5\\n<cols> <rows>\\n255\\n" (P6 for
color) followed by the raw row-major samples, nothing else, so equal buffers
always serialize to equal bytes. The reader accepts arbitrary header
whitespace and '#' comments but insists on maxval 255, an exact payload
length, and P5 in a .pgm file and P6 in a .ppm file.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .pixel_core import ColorBuffer, Dimensions, PixelBuffer

__all__ = ["encode_image", "decode_image", "write_image", "read_image", "read_dims"]

# The whole header grammar. Before the magic, and before each of width,
# height and maxval, any run of whitespace and comments; a comment runs from
# '#' through the next newline. Then exactly one whitespace byte. In a bytes
# pattern \s is the netpbm whitespace set and \d the ASCII digits. Each
# separator has one parse, so a failed match backtracks in linear time.
_SEP = rb"(?:\s|#[^\n]*\n)"
_HEADER = re.compile(rb"%s*(P[56])%s+(\d+)%s+(\d+)%s+(\d+)\s" % ((_SEP,) * 4))
# A probe that stops inside such a header matches the header prefix: leading
# separators, the last comment perhaps cut short, then nothing, or a cut-off
# magic, or the magic and up to two numbers followed by separators (again
# perhaps cut short), or the magic and three numbers, the last perhaps cut
# short. Any longer prefix already holds a whole header.
_CUT_SEP = rb"%s*(?:#[^\n]*)?" % _SEP
_HEADER_PREFIX = re.compile(
    rb"%s(?:P|P[56](?:%s+\d+){0,2}%s|P[56](?:%s+\d+){3})?" % (_CUT_SEP, _SEP, _CUT_SEP, _SEP))
_HEADER_PROBE_BYTES = 512


def encode_image(frame) -> bytes:
    """Serialize a PixelBuffer as binary PGM or a ColorBuffer as binary PPM."""
    if isinstance(frame, PixelBuffer):
        magic = b"P5"
    elif isinstance(frame, ColorBuffer):
        magic = b"P6"
    else:
        raise IngestionError(f"cannot encode {type(frame).__name__} as a netpbm image")
    dims = frame.dims
    header = magic + b"\n%d %d\n255\n" % (dims.cols, dims.rows)
    return header + frame.data.tobytes()


def _parse_header(data: bytes, name: str, size: int) -> tuple[int, Dimensions, int]:
    """(channels, dims, payload offset) of the netpbm header that starts data.

    size is the length of the whole file, which must end with the payload.
    """
    match = _HEADER.match(data)
    if match is None:
        raise IngestionError(
            f"{name}: malformed netpbm header: need P5 or P6, width, height and maxval, "
            "each after whitespace or comments, then one whitespace byte"
        )
    magic, *numbers = match.groups()
    # a frame's extension names the kind it is read as, so the magic must agree with it
    wanted = {".pgm": b"P5", ".ppm": b"P6"}.get(name[-4:], magic)
    if magic != wanted:
        raise IngestionError(f"{name}: a {name[-4:]} file must hold {wanted.decode()} data, got {magic.decode()}")
    try:
        cols, rows, maxval = map(int, numbers)
    except ValueError as exc:  # more digits than int() converts
        raise IngestionError(f"{name}: malformed netpbm header: number too long") from exc
    if rows < 1 or cols < 1:
        raise IngestionError(f"{name}: invalid image size {cols}x{rows}")
    if maxval != 255:
        raise IngestionError(f"{name}: unsupported maxval {maxval} (need 255)")
    channels = 1 if magic == b"P5" else 3
    offset = match.end()
    expected = rows * cols * channels
    if size - offset != expected:
        raise IngestionError(f"{name}: expected {expected} sample bytes, got {size - offset}")
    return channels, Dimensions(rows, cols), offset


def decode_image(data: bytes, name: str = "<bytes>"):
    """Parse binary PGM/PPM bytes into a PixelBuffer or ColorBuffer."""
    data = bytes(data)  # the same object for bytes; a copy of a mutable buffer
    channels, dims, offset = _parse_header(data, name, len(data))
    kind, shape = (PixelBuffer, ()) if channels == 1 else (ColorBuffer, (3,))
    samples = np.frombuffer(data, dtype=np.uint8, offset=offset).reshape((dims.rows, dims.cols) + shape)
    return kind._adopt(samples)


def read_dims(path) -> Dimensions:
    """Check a PGM/PPM file's header and payload length without decoding it.

    Reads the file only up to the end of its header; the payload length comes
    from the file size. Raises the same IngestionError as read_image would.
    """
    path = Path(path)
    try:
        with path.open("rb") as stream:
            size = os.fstat(stream.fileno()).st_size
            head = stream.read(_HEADER_PROBE_BYTES)
            try:
                return _parse_header(head, str(path), size)[1]
            except IngestionError:
                # a header may run past the probe (long comments); anything
                # else is no netpbm file, and reading it all would not help
                if len(head) == size or not _HEADER_PREFIX.fullmatch(head):
                    raise
            stream.seek(0)
            return _parse_header(stream.read(), str(path), size)[1]
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read frame file: {exc}") from exc


def write_image(frame, path) -> None:
    """Write a buffer to disk as binary PGM/PPM."""
    Path(path).write_bytes(encode_image(frame))


def read_image(path):
    """Read a binary PGM/PPM file into the matching buffer kind."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read frame file: {exc}") from exc
    return decode_image(data, name=str(path))
