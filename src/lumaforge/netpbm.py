"""Binary netpbm frame I/O: 8-bit grayscale PGM (P5) and color PPM (P6).

The writer emits the canonical header b"P5\\n<cols> <rows>\\n255\\n" (P6 for
color) followed by the raw row-major samples, nothing else, so equal buffers
always serialize to equal bytes. The reader accepts arbitrary header
whitespace and '#' comments but insists on maxval 255 and an exact payload
length.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .pixel_core import ColorBuffer, Dimensions, PixelBuffer

__all__ = ["encode_image", "decode_image", "write_image", "read_image", "read_dims"]

_WHITESPACE = b" \t\n\r\x0b\x0c"
_HEADER_PROBE_BYTES = 512


def encode_image(frame) -> bytes:
    """Serialize a PixelBuffer as binary PGM or a ColorBuffer as binary PPM."""
    dims = frame.dims
    if isinstance(frame, PixelBuffer):
        magic = b"P5"
    elif isinstance(frame, ColorBuffer):
        magic = b"P6"
    else:
        raise IngestionError(f"cannot encode {type(frame).__name__} as a netpbm image")
    header = magic + b"\n%d %d\n255\n" % (dims.cols, dims.rows)
    return header + frame.data.tobytes()


class _HeaderScanner:
    """Token reader over the netpbm header bytes; skips whitespace and comments."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.pos = 0
        self.name = name

    def _fail(self, why: str):
        raise IngestionError(f"{self.name}: malformed netpbm header: {why}")

    def token(self) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            byte = data[self.pos:self.pos + 1]
            if byte in (b"#",):
                while self.pos < n and data[self.pos:self.pos + 1] != b"\n":
                    self.pos += 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                break
        start = self.pos
        while self.pos < n and data[self.pos:self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        if start == self.pos:
            self._fail("unexpected end of header")
        return data[start:self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self._fail(f"non-numeric {what}: {tok!r}")

    def payload_offset(self) -> int:
        # exactly one whitespace byte separates maxval from the raw samples
        if self.pos >= len(self.data) or self.data[self.pos:self.pos + 1] not in _WHITESPACE:
            self._fail("missing whitespace before sample data")
        return self.pos + 1


def _parse_header(data: bytes, name: str, size: int) -> tuple[int, Dimensions, int]:
    """(channels, dims, payload offset) of the netpbm header that starts data.

    size is the length of the whole file, which must end with the payload.
    """
    scanner = _HeaderScanner(data, name)
    magic = scanner.token()
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise IngestionError(f"{name}: unsupported netpbm magic {magic!r} (need P5 or P6)")
    cols = scanner.int_token("width")
    rows = scanner.int_token("height")
    maxval = scanner.int_token("maxval")
    if rows < 1 or cols < 1:
        raise IngestionError(f"{name}: invalid image size {cols}x{rows}")
    if maxval != 255:
        raise IngestionError(f"{name}: unsupported maxval {maxval} (need 255)")
    offset = scanner.payload_offset()
    expected = rows * cols * channels
    if size - offset != expected:
        raise IngestionError(f"{name}: expected {expected} sample bytes, got {size - offset}")
    return channels, Dimensions(rows, cols), offset


def decode_image(data: bytes, name: str = "<bytes>"):
    """Parse binary PGM/PPM bytes into a PixelBuffer or ColorBuffer."""
    channels, dims, offset = _parse_header(data, name, len(data))
    samples = np.frombuffer(data, dtype=np.uint8, offset=offset)
    if channels == 1:
        return PixelBuffer(samples.reshape(dims.rows, dims.cols))
    return ColorBuffer(samples.reshape(dims.rows, dims.cols, 3))


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
                # the header may run past the probe (long comments): parse it all
                return _parse_header(head + stream.read(), str(path), size)[1]
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
