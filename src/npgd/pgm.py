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

from .core import write_file
from .errors import CorruptionError, FormatError, NumericsError


def write_p5(path, raw: np.ndarray, comment: str = "") -> None:
    """A binary PGM of a 2-D uint8 or big-endian uint16 raster, whose dtype
    sets maxval (255 or 65535); a comment becomes one ``# `` header line."""
    h, w = raw.shape
    maxval = {np.dtype(np.uint8): 255, np.dtype(">u2"): 65535}[raw.dtype]
    header = "P5\n" + (f"# {comment}\n" if comment else "") + f"{w} {h}\n{maxval}\n"
    write_file(path, header.encode("ascii") + raw.tobytes())


def write_pgm16(path, plane: np.ndarray) -> None:
    plane = np.asarray(plane, np.float64)
    if plane.ndim != 2:
        raise FormatError("write_pgm16 expects a 2-D plane")
    if not np.isfinite(plane).all():
        raise NumericsError(f"{path}: cannot store a non-finite plane")
    vmin, vmax = float(plane.min()), float(plane.max())
    if vmax > vmin:
        q = np.round((plane - vmin) / (vmax - vmin) * 65535.0)
    else:
        q = np.zeros_like(plane)
    write_p5(path, np.clip(q, 0, 65535).astype(">u2"), f"range {vmin:.9g} {vmax:.9g}")


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
                # decoded values lie between the ends, which float32 must hold
                with np.errstate(over="ignore"):
                    finite = np.isfinite(np.float32(rng)).all()
                if not finite:
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
            raw = np.array(blob[data_start - 1:].split(), dtype=np.int64)
        except (ValueError, OverflowError):
            raise CorruptionError(f"{path}: non-integer P2 sample") from None
        if raw.size != w * h:
            raise CorruptionError(f"{path}: expected {w * h} samples, got {raw.size}")
    else:
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        if len(blob) - data_start < w * h * dtype.itemsize:
            raise CorruptionError(f"{path}: truncated raster")
        raw = np.frombuffer(blob, dtype, w * h, data_start)
    if raw.min() < 0 or raw.max() > maxval:
        raise CorruptionError(f"{path}: samples span [{raw.min()}, {raw.max()}], not [0, {maxval}]")
    raw = raw.reshape(h, w).astype(np.float64)
    if rng is not None:
        vmin, vmax = rng
        return (vmin + raw / maxval * (vmax - vmin)).astype(np.float32)
    return (raw / maxval).astype(np.float32)
