"""Binary model checkpoints.

Layout (all little-endian):

    magic "NPGD" | u16 version
    u32 n_entries, then tagged key-values:
        u16 key_len | key utf8 | u8 tag | payload
        tag 0 = i64, tag 1 = f32, tag 2 = string (u16 len + utf8)
    f32 alpha
    u32 n_records, then parameter records:
        u16 name_len | name utf8 | u8 rank (<= 4) | u32 dims[rank] | f32 data row-major
    u32 CRC32 of everything above

Optimizer moments ride along as parameter records under the reserved
prefixes ``adam.m.`` / ``adam.v.`` (plus rank-0 ``*.alpha`` records for the
learnable step size), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Tuple, get_type_hints

import numpy as np

from .autograd import Variable
from .core import write_file
from .errors import CorruptionError, FormatError, NumericsError, ParameterError
from .proxnet import ProximalConfig, ProximalNet, param_shapes
from .unroll import TrainConfig, TrainResult

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


def from_training(result: TrainResult, cfg: TrainConfig) -> Checkpoint:
    """The checkpoint of a finished run: its weights, step size and Adam
    state, with the run entries (unroll_t, beta, loss, seed) of cfg."""
    return Checkpoint(
        prox=result.net.config, unroll_t=cfg.iterations, beta=cfg.beta, loss=cfg.loss,
        alpha=float(result.alpha.value),
        params={k: v.value.copy() for k, v in result.net.params.items()},
        adam_m={k: v.copy() for k, v in result.optimizer.m.items()},
        adam_v={k: v.copy() for k, v in result.optimizer.v.items()},
        adam_step=result.optimizer.step_count, seed=cfg.seed, epoch=result.epochs_run)


# the config entries, in file order, are the proximal config's fields, then these
_RUN_KEYS = ("unroll_t", "beta", "loss", "seed", "epoch", "adam_step")
_HINTS = {**get_type_hints(ProximalConfig), **get_type_hints(Checkpoint)}
_ENTRY_TYPES = {k: _HINTS[k] for k in (*(f.name for f in fields(ProximalConfig)), *_RUN_KEYS)}
_TAGS = {int: _TAG_INT, float: _TAG_F32, str: _TAG_STR}


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
        self.parts.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        self.parts.append(arr.astype("<f4").tobytes())

    def raw(self, b: bytes):
        self.parts.append(b)

    def finish(self) -> bytes:
        body = b"".join(self.parts)
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def serialize(ck: Checkpoint) -> bytes:
    w = _Writer()
    values = dict(asdict(ck.prox), **{k: getattr(ck, k) for k in _RUN_KEYS})
    w.raw(struct.pack("<I", len(_ENTRY_TYPES)))
    for key, tp in _ENTRY_TYPES.items():
        w.entry(key, tp(values[key]))
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
        self.blob, self.pos, self.origin = blob, 0, origin

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
            value, = r.unpack("<q")
        elif tag == _TAG_F32:
            value, = r.unpack("<f")
        elif tag == _TAG_STR:
            vlen, = r.unpack("<H")
            value = r.text(vlen)
        else:
            raise FormatError(f"{origin}: unknown entry tag {tag}")
        if key in meta:
            raise FormatError(f"{origin}: duplicate config entry {key!r}")
        meta[key] = (tag, value)

    alpha, = r.unpack("<f")
    n_records, = r.unpack("<I")
    params: Dict[str, np.ndarray] = {}
    adam_m: Dict[str, np.ndarray] = {}
    adam_v: Dict[str, np.ndarray] = {}
    names = set()
    for _ in range(n_records):
        nlen, = r.unpack("<H")
        name = r.text(nlen)
        if name in names:
            raise FormatError(f"{origin}: duplicate record {name!r}")
        names.add(name)
        rank, = r.unpack("<B")
        if rank > 4:  # a conv kernel has the most axes
            raise FormatError(f"{origin}: record {name!r} has {rank} axes, more than 4")
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

    for key, tp in _ENTRY_TYPES.items():
        if key not in meta:
            raise FormatError(f"{origin}: missing config entry {key!r}")
        if meta[key][0] != _TAGS[tp]:
            raise FormatError(f"{origin}: config entry {key!r} is not {tp.__name__}")
    values = {key: meta[key][1] for key in _ENTRY_TYPES}
    try:  # the config classes check the stored ranges
        prox = ProximalConfig(**{f.name: values[f.name] for f in fields(ProximalConfig)})
        TrainConfig(iterations=values["unroll_t"], beta=values["beta"],
                    loss=values["loss"], seed=values["seed"])
    except ParameterError as exc:
        name, _, rule = str(exc).partition(" ")  # TrainConfig leads with its field, not the entry
        name = {"iterations": "unroll_t"}.get(name, name)
        raise FormatError(f"{origin}: {name} {rule}") from None
    for key in ("epoch", "adam_step"):  # step counts, which no run leaves negative
        if values[key] < 0:
            raise FormatError(f"{origin}: {key} must be >= 0, got {values[key]}")
    return Checkpoint(prox=prox, alpha=float(alpha), params=params, adam_m=adam_m,
                      adam_v=adam_v, **{k: values[k] for k in _RUN_KEYS})


def save(ck: Checkpoint, path) -> None:
    """Write atomically, through :func:`core.write_file`."""
    write_file(path, serialize(ck))


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    return deserialize(blob, origin=str(path))


def restore_net(ck: Checkpoint) -> Tuple[ProximalNet, float]:
    """Rebuild the proximal net from a checkpoint; returns (net, alpha).

    Walks the config's parameters in ``build``'s order and stops at the
    first stored one missing or misshapen, before any allocation; rejects
    a parameter or step size that is not finite."""
    params = {}
    for name, shape in param_shapes(ck.prox):
        stored = ck.params.get(name)
        if stored is None:
            raise FormatError(f"checkpoint has no parameter {name}, which its config needs")
        if stored.shape != shape:
            raise FormatError(f"parameter {name}: shape {stored.shape} vs expected {shape}")
        if not np.isfinite(stored).all():
            raise NumericsError(f"checkpoint parameter {name} is not finite")
        params[name] = Variable(stored.astype(np.float32))
    extra = sorted(ck.params.keys() - params.keys())
    if extra:
        raise FormatError(f"checkpoint parameters {extra} are not in its config")
    if not math.isfinite(ck.alpha):
        raise NumericsError(f"checkpoint step size alpha is not finite ({ck.alpha})")
    return ProximalNet(ck.prox, params), float(ck.alpha)
