"""Learnable proximal maps.

Two architectures:

* ``resnet``: a 3x3 conv lifting the 2 complex channels to ``feature_maps``,
  ``num_res_blocks`` residual blocks (conv -> norm -> act -> conv -> norm ->
  act, additive skip), then a 1x1 tail (act, act, linear) back down to 2
  channels.
* ``chain``: ``chain_layers`` convolutions of kernel ``chain_kernel`` with no
  hidden nonlinearity; only the final 2-channel output passes through swish.

Every gated activation is sigma(z) = D(z) * z; ``capture_masks`` records the
multiplicative masks D(z) at each gate, and ``forward_frozen`` re-runs the
net with the gates pinned to a recorded snapshot, which makes the whole map
affine (the basis of the contraction diagnostics).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from . import autograd as ag
from .autograd import Tape, Variable
from .errors import ConfigError, ContractError, ShapeError, UnsupportedConfigError

ARCHS = ("resnet", "chain")
ACTIVATIONS = ("relu", "swish")
NORMALIZATIONS = ("instance", "none")


@dataclass(frozen=True)
class ProximalConfig:
    arch: str = "resnet"
    num_res_blocks: int = 1
    feature_maps: int = 32
    chain_layers: int = 3
    chain_kernel: int = 9
    activation: str = "relu"
    normalization: str = "instance"

    def validate(self) -> None:
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.feature_maps < 1:
            raise ConfigError("feature_maps must be >= 1")
        if self.arch == "resnet":
            if self.num_res_blocks < 1:
                raise ConfigError("num_res_blocks must be >= 1")
        else:
            if self.chain_layers < 1:
                raise ConfigError("chain_layers must be >= 1")
            if self.chain_kernel < 1 or self.chain_kernel % 2 == 0:
                raise ConfigError(
                    f"chain_kernel must be odd (same-padding convs), got {self.chain_kernel}")
            if self.normalization != "none":
                raise ConfigError("chain arch forbids normalization")
            if self.activation != "swish":
                raise ConfigError("chain arch gates only the final layer, with swish")

    @property
    def signature(self) -> str:
        if self.arch == "resnet":
            return (f"resnet/b{self.num_res_blocks}/f{self.feature_maps}"
                    f"/{self.activation}/{self.normalization}")
        return f"chain/l{self.chain_layers}/k{self.chain_kernel}/f{self.feature_maps}"


def parameter_count(config: ProximalConfig) -> int:
    """Closed-form size of the parameter vector for a config."""
    f = config.feature_maps
    if config.arch == "resnet":
        head = 9 * 2 * f + f
        block = 2 * (9 * f * f + f)
        if config.normalization == "instance":
            block += 4 * f
        tail = 2 * (f * f + f) + (2 * f + 2)
        return head + config.num_res_blocks * block + tail
    k2 = config.chain_kernel ** 2
    if config.chain_layers == 1:
        return k2 * 2 * 2 + 2
    total = (k2 * 2 * f + f) + (k2 * f * 2 + 2)
    total += (config.chain_layers - 2) * (k2 * f * f + f)
    return total


@dataclass
class MaskSnapshot:
    """Activation masks D(z) per gated layer, for one specific input."""

    layer_ids: Tuple[str, ...]
    masks: Tuple[np.ndarray, ...]
    signature: str
    input_digest: str

    def mask_for(self, layer_id: str) -> np.ndarray:
        return self.masks[self.layer_ids.index(layer_id)]


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


class _NormalGate:
    def __init__(self, net, tape):
        self.net, self.tape = net, tape

    def __call__(self, layer_id: str, z: Variable) -> Variable:
        if layer_id == "out.act" or self.net.config.activation == "swish":
            return ag.swish(z, self.tape)
        return ag.relu(z, self.tape)


class _CaptureGate(_NormalGate):
    def __init__(self, net):
        super().__init__(net, None)
        self.masks = []

    def __call__(self, layer_id: str, z: Variable) -> Variable:
        v = z.value
        if layer_id == "out.act" or self.net.config.activation == "swish":
            self.masks.append(ag.sigmoid(v))
        else:
            self.masks.append((v > 0).astype(np.float32))
        return super().__call__(layer_id, z)


class _FrozenGate:
    def __init__(self, snapshot: MaskSnapshot):
        self.snapshot = snapshot

    def __call__(self, layer_id: str, z: Variable) -> Variable:
        d = self.snapshot.mask_for(layer_id)
        if d.shape != z.value.shape:
            raise ContractError(
                f"mask for {layer_id} has shape {d.shape}, pre-activation {z.value.shape}")
        return Variable(d * z.value)


class ProximalNet:
    def __init__(self, config: ProximalConfig, params: Dict[str, Variable]):
        self.config = config
        self.params = params

    @property
    def signature(self) -> str:
        return self.config.signature

    def gated_layer_ids(self) -> Tuple[str, ...]:
        if self.config.arch == "chain":
            return ("out.act",)
        ids = []
        for i in range(1, self.config.num_res_blocks + 1):
            ids += [f"rb{i}.act1", f"rb{i}.act2"]
        return tuple(ids + ["tail.act1", "tail.act2"])

    # -- forward passes ----------------------------------------------------

    def _conv(self, name: str, u: Variable, tape) -> Variable:
        return ag.conv2d(u, self.params[f"{name}.kernel"], self.params[f"{name}.bias"],
                         tape=tape)

    def _maybe_norm(self, name: str, u: Variable, tape) -> Variable:
        if self.config.normalization == "none":
            return u
        return ag.instance_norm(u, self.params[f"{name}.gamma"],
                                self.params[f"{name}.beta"], tape=tape)

    def _walk(self, x: Variable, tape, gate) -> Variable:
        cfg = self.config
        if x.value.ndim != 3 or x.value.shape[0] != 2:
            raise ShapeError(f"proximal input must be (2, H, W), got {x.value.shape}")
        if cfg.arch == "chain":
            u = x
            for i in range(1, cfg.chain_layers):
                u = self._conv(f"layer{i}", u, tape)
            z = self._conv(f"layer{cfg.chain_layers}", u, tape)
            return gate("out.act", z)
        u = self._conv("head", x, tape)
        for i in range(1, cfg.num_res_blocks + 1):
            v = self._conv(f"rb{i}.conv1", u, tape)
            v = self._maybe_norm(f"rb{i}.norm1", v, tape)
            v = gate(f"rb{i}.act1", v)
            v = self._conv(f"rb{i}.conv2", v, tape)
            v = self._maybe_norm(f"rb{i}.norm2", v, tape)
            v = gate(f"rb{i}.act2", v)
            u = ag.add(u, v, tape)
        t = gate("tail.act1", self._conv("tail1", u, tape))
        t = gate("tail.act2", self._conv("tail2", t, tape))
        return self._conv("tail3", t, tape)

    def forward(self, x: Union[Variable, np.ndarray], tape: Optional[Tape] = None) -> Variable:
        if not isinstance(x, Variable):
            x = Variable(x)
        return self._walk(x, tape, _NormalGate(self, tape))

    def forward_and_masks(self, x: np.ndarray) -> Tuple[np.ndarray, MaskSnapshot]:
        gate = _CaptureGate(self)
        out = self._walk(Variable(x), None, gate)
        snap = MaskSnapshot(self.gated_layer_ids(), tuple(gate.masks),
                            self.signature, _digest(np.asarray(x, np.float32)))
        return out.value, snap

    def forward_frozen(self, x: np.ndarray, snapshot: MaskSnapshot) -> np.ndarray:
        if snapshot.signature != self.signature:
            raise ContractError(
                f"snapshot from {snapshot.signature!r} cannot drive {self.signature!r}")
        if self.config.normalization != "none":
            raise UnsupportedConfigError(
                "frozen-mask evaluation requires normalization=none")
        return self._walk(Variable(x), None, _FrozenGate(snapshot)).value


def build(config: ProximalConfig, seed: int = 0,
          zero_init_output: bool = True) -> ProximalNet:
    """Construct a net with He-normal kernels (variance 2/fan_in), zero biases.

    The final output convolution starts at zero by default so the proximal
    begins as the zero map; composed over many unrolled iterations a
    fully random stack blows the trajectory up before training can react.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    params: Dict[str, Variable] = {}

    def conv(name, c_in, c_out, k):
        fan_in = c_in * k * k
        params[f"{name}.kernel"] = Variable(
            rng.normal(0.0, np.sqrt(2.0 / fan_in), (c_out, c_in, k, k)).astype(np.float32))
        params[f"{name}.bias"] = Variable(np.zeros(c_out, np.float32))

    def norm(name, c):
        params[f"{name}.gamma"] = Variable(np.ones(c, np.float32))
        params[f"{name}.beta"] = Variable(np.zeros(c, np.float32))

    f = config.feature_maps
    if config.arch == "chain":
        k, layers = config.chain_kernel, config.chain_layers
        if layers == 1:
            conv("layer1", 2, 2, k)
        else:
            conv("layer1", 2, f, k)
            for i in range(2, layers):
                conv(f"layer{i}", f, f, k)
            conv(f"layer{layers}", f, 2, k)
    else:
        conv("head", 2, f, 3)
        for i in range(1, config.num_res_blocks + 1):
            conv(f"rb{i}.conv1", f, f, 3)
            conv(f"rb{i}.conv2", f, f, 3)
            if config.normalization == "instance":
                norm(f"rb{i}.norm1", f)
                norm(f"rb{i}.norm2", f)
        conv("tail1", f, f, 1)
        conv("tail2", f, f, 1)
        conv("tail3", f, 2, 1)
    if zero_init_output:
        out_name = (f"layer{config.chain_layers}" if config.arch == "chain"
                    else "tail3")
        params[f"{out_name}.kernel"].value[:] = 0.0
    net = ProximalNet(config, params)
    actual = sum(p.value.size for p in params.values())
    assert actual == parameter_count(config), (actual, parameter_count(config))
    return net


def capture_masks(net: ProximalNet, x: np.ndarray) -> MaskSnapshot:
    """Run the net on a (2, H, W) input and record every gate's mask D(z)."""
    _, snap = net.forward_and_masks(np.asarray(x, np.float32))
    return snap
