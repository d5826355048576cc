"""Dependency-free PGM image files.

Float planes are stored as 16-bit P5 with a header comment
``# range <vmin> <vmax>`` recording the affine decode map
v = vmin + raw / maxval * (vmax - vmin), with maxval 65535 on write.
Plain 8/16-bit PGMs without the comment decode to [0, 1] by dividing by
maxval, which is what directory ingestion of user images expects. P2
(ASCII) is accepted on read.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import CorruptionError, FormatError


def write_pgm16(path, plane: np.ndarray) -> None:
    plane = np.asarray(plane, np.float64)
    if plane.ndim != 2:
        raise FormatError("write_pgm16 expects a 2-D plane")
    vmin, vmax = float(plane.min()), float(plane.max())
    if vmax > vmin:
        q = np.round((plane - vmin) / (vmax - vmin) * 65535.0)
    else:
        q = np.zeros_like(plane)
    q = np.clip(q, 0, 65535).astype(">u2")
    h, w = plane.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# range {vmin:.9g} {vmax:.9g}\n".encode("ascii"))
        fh.write(f"{w} {h}\n65535\n".encode("ascii"))
        fh.write(q.tobytes())


def _tokenize_header(blob: bytes, path):
    """Yield (token, end_offset) for the three header fields after the magic,
    skipping comments; remember any range comment seen."""
    pos = 2  # past magic
    tokens = []
    rng = None
    while len(tokens) < 3:
        if pos >= len(blob):
            raise CorruptionError(f"{path}: truncated PGM header")
        ch = blob[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            eol = blob.find(b"\n", pos)
            if eol < 0:
                raise CorruptionError(f"{path}: unterminated PGM comment")
            m = re.match(rb"#\s*range\s+(\S+)\s+(\S+)", blob[pos:eol])
            if m:
                try:
                    rng = (float(m.group(1)), float(m.group(2)))
                except ValueError:
                    raise FormatError(f"{path}: malformed PGM range comment") from None
                if not np.all(np.isfinite(rng)):
                    raise FormatError(f"{path}: non-finite PGM range {rng[0]} {rng[1]}")
            pos = eol + 1
        else:
            end = pos
            while end < len(blob) and blob[end:end + 1] not in b" \t\r\n":
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    return tokens, pos + 1, rng  # single whitespace after maxval


def read_pgm(path) -> np.ndarray:
    """Read a PGM into a float32 plane (decoded via the range comment when
    present, else scaled to [0, 1] by maxval)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file")
    tokens, data_start, rng = _tokenize_header(blob, path)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header") from None
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: PGM size {w}x{h} is not positive")
    if maxval <= 0 or maxval > 65535:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    if magic == b"P2":
        try:
            values = np.array(blob[data_start - 1:].split(), dtype=np.float64)
        except ValueError:
            raise CorruptionError(f"{path}: non-numeric P2 sample") from None
        if values.size != w * h:
            raise CorruptionError(f"{path}: expected {w * h} samples, got {values.size}")
        raw = values.reshape(h, w)
    else:
        dtype = ">u2" if maxval > 255 else np.uint8
        count = w * h
        payload = blob[data_start:]
        need = count * (2 if maxval > 255 else 1)
        if len(payload) < need:
            raise CorruptionError(f"{path}: truncated raster")
        raw = np.frombuffer(payload[:need], dtype=dtype).reshape(h, w).astype(np.float64)
    if rng is not None:
        vmin, vmax = rng
        return (vmin + raw / maxval * (vmax - vmin)).astype(np.float32)
    return (raw / maxval).astype(np.float32)
