"""Binary model checkpoints.

Layout (all little-endian):

    magic "NPGD" | u16 version
    u32 n_entries, then tagged key-values:
        u16 key_len | key utf8 | u8 tag | payload
        tag 0 = i64, tag 1 = f32, tag 2 = string (u16 len + utf8)
    f32 alpha
    u32 n_records, then parameter records:
        u16 name_len | name utf8 | u8 rank | u32 dims[rank] | f32 data row-major
    u32 CRC32 of everything above

Optimizer moments ride along as parameter records under the reserved
prefixes ``adam.m.`` / ``adam.v.`` (plus rank-0 ``*.alpha`` records for the
learnable step size), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import CorruptionError, FormatError
from .proxnet import ProximalConfig, ProximalNet, build

MAGIC = b"NPGD"
VERSION = 1

_TAG_INT = 0
_TAG_F32 = 1
_TAG_STR = 2


@dataclass
class Checkpoint:
    prox: ProximalConfig
    unroll_t: int
    beta: float
    loss: str
    alpha: float
    params: Dict[str, np.ndarray]
    adam_m: Dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: Dict[str, np.ndarray] = field(default_factory=dict)
    adam_step: int = 0
    seed: int = 0
    epoch: int = 0
    version: int = VERSION


class _Writer:
    def __init__(self):
        self.parts = [MAGIC, struct.pack("<H", VERSION)]

    def entry(self, key: str, value):
        kb = key.encode("utf-8")
        self.parts.append(struct.pack("<H", len(kb)) + kb)
        if isinstance(value, str):
            vb = value.encode("utf-8")
            self.parts.append(struct.pack("<BH", _TAG_STR, len(vb)) + vb)
        elif isinstance(value, float):
            self.parts.append(struct.pack("<Bf", _TAG_F32, value))
        else:
            self.parts.append(struct.pack("<Bq", _TAG_INT, int(value)))

    def record(self, name: str, arr: np.ndarray):
        nb = name.encode("utf-8")
        arr = np.asarray(arr, np.float32)
        self.parts.append(struct.pack("<H", len(nb)) + nb)
        self.parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            self.parts.append(struct.pack("<I", d))
        self.parts.append(arr.astype("<f4").tobytes())

    def raw(self, b: bytes):
        self.parts.append(b)

    def finish(self) -> bytes:
        body = b"".join(self.parts)
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def serialize(ck: Checkpoint) -> bytes:
    w = _Writer()
    entries = [
        ("arch", ck.prox.arch),
        ("num_res_blocks", ck.prox.num_res_blocks),
        ("feature_maps", ck.prox.feature_maps),
        ("chain_layers", ck.prox.chain_layers),
        ("chain_kernel", ck.prox.chain_kernel),
        ("activation", ck.prox.activation),
        ("normalization", ck.prox.normalization),
        ("unroll_t", ck.unroll_t),
        ("beta", float(ck.beta)),
        ("loss", ck.loss),
        ("seed", ck.seed),
        ("epoch", ck.epoch),
        ("adam_step", ck.adam_step),
    ]
    w.raw(struct.pack("<I", len(entries)))
    for key, value in entries:
        w.entry(key, value)
    w.raw(struct.pack("<f", float(ck.alpha)))
    records = list(ck.params.items())
    records += [(f"adam.m.{k}", v) for k, v in ck.adam_m.items()]
    records += [(f"adam.v.{k}", v) for k, v in ck.adam_v.items()]
    w.raw(struct.pack("<I", len(records)))
    for name, arr in records:
        w.record(name, arr)
    return w.finish()


class _Reader:
    def __init__(self, blob: bytes, origin: str):
        self.blob = blob
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CorruptionError(f"{self.origin}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.origin}: name or string is not UTF-8") from None


def deserialize(blob: bytes, origin: str = "checkpoint") -> Checkpoint:
    if blob[:4] != MAGIC:
        raise FormatError(f"{origin}: bad magic")
    if len(blob) < 10:
        raise CorruptionError(f"{origin}: truncated checkpoint")
    stored_crc, = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptionError(f"{origin}: CRC mismatch")
    r = _Reader(blob[:-4], origin)
    r.take(4)
    version, = r.unpack("<H")
    if version != VERSION:
        raise FormatError(f"{origin}: unsupported checkpoint version {version}")

    n_entries, = r.unpack("<I")
    meta = {}
    for _ in range(n_entries):
        klen, = r.unpack("<H")
        key = r.text(klen)
        tag, = r.unpack("<B")
        if tag == _TAG_INT:
            meta[key], = r.unpack("<q")
        elif tag == _TAG_F32:
            meta[key], = r.unpack("<f")
        elif tag == _TAG_STR:
            vlen, = r.unpack("<H")
            meta[key] = r.text(vlen)
        else:
            raise FormatError(f"{origin}: unknown entry tag {tag}")

    alpha, = r.unpack("<f")
    n_records, = r.unpack("<I")
    params: Dict[str, np.ndarray] = {}
    adam_m: Dict[str, np.ndarray] = {}
    adam_v: Dict[str, np.ndarray] = {}
    for _ in range(n_records):
        nlen, = r.unpack("<H")
        name = r.text(nlen)
        rank, = r.unpack("<B")
        dims = tuple(r.unpack("<I")[0] for _ in range(rank))
        count = math.prod(dims)  # exact: np.prod of huge dims wraps around
        data = np.frombuffer(r.take(4 * count), "<f4").reshape(dims).copy()
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = data
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = data
        else:
            params[name] = data
    if r.pos != len(r.blob):
        raise CorruptionError(f"{origin}: {len(r.blob) - r.pos} trailing bytes")

    try:
        prox = ProximalConfig(
            arch=meta["arch"], num_res_blocks=int(meta["num_res_blocks"]),
            feature_maps=int(meta["feature_maps"]), chain_layers=int(meta["chain_layers"]),
            chain_kernel=int(meta["chain_kernel"]), activation=meta["activation"],
            normalization=meta["normalization"])
        ck = Checkpoint(prox=prox, unroll_t=int(meta["unroll_t"]),
                        beta=float(meta["beta"]), loss=meta["loss"], alpha=float(alpha),
                        params=params, adam_m=adam_m, adam_v=adam_v,
                        adam_step=int(meta["adam_step"]), seed=int(meta["seed"]),
                        epoch=int(meta["epoch"]), version=version)
    except KeyError as exc:
        raise FormatError(f"{origin}: missing config entry {exc}") from None
    return ck


def save(ck: Checkpoint, path) -> None:
    """Write atomically: the bytes go to a temp file in the target directory,
    which then replaces the target, so a failed write leaves any existing
    checkpoint at ``path`` as it was."""
    blob = serialize(ck)
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    return deserialize(blob, origin=str(path))


def restore_net(ck: Checkpoint) -> Tuple[ProximalNet, float]:
    """Rebuild the proximal net from a checkpoint; returns (net, alpha)."""
    net = build(ck.prox, seed=0)
    expected = set(net.params)
    got = set(ck.params)
    if expected != got:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise FormatError(f"checkpoint parameters do not match config "
                          f"(missing {missing}, extra {extra})")
    for name, var in net.params.items():
        stored = ck.params[name]
        if stored.shape != var.value.shape:
            raise FormatError(f"parameter {name}: shape {stored.shape} "
                              f"vs expected {var.value.shape}")
        var.value = stored.astype(np.float32)
    return net, float(ck.alpha)
