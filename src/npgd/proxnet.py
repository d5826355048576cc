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

from dataclasses import dataclass
from functools import partial
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


@dataclass
class MaskSnapshot:
    """Activation masks D(z) per gated layer, for one specific input."""

    layer_ids: Tuple[str, ...]
    masks: Tuple[np.ndarray, ...]
    signature: str


class ProximalNet:
    def __init__(self, config: ProximalConfig, params: Dict[str, Variable]):
        self.config = config
        self.params = params

    # -- forward passes ----------------------------------------------------

    def _conv(self, name: str, u: Variable, tape) -> Variable:
        return ag.conv2d(u, self.params[f"{name}.kernel"], self.params[f"{name}.bias"],
                         tape=tape)

    def _maybe_norm(self, name: str, u: Variable, tape) -> Variable:
        if self.config.normalization == "none":
            return u
        return ag.instance_norm(u, self.params[f"{name}.gamma"],
                                self.params[f"{name}.beta"], tape=tape)

    def _gate(self, layer_id: str, z: Variable, tape, frozen: Optional[MaskSnapshot],
              captured: Optional[Dict[str, np.ndarray]]) -> Variable:
        """sigma(z) = D(z) * z with D pinned by ``frozen``, else swish or relu,
        recording D(z) into ``captured``."""
        if frozen is not None:
            d = frozen.masks[frozen.layer_ids.index(layer_id)]
            if d.shape != z.value.shape:
                raise ContractError(
                    f"mask for {layer_id} has shape {d.shape}, pre-activation {z.value.shape}")
            return Variable(d * z.value)
        swish = layer_id == "out.act" or self.config.activation == "swish"
        if captured is not None:
            captured[layer_id] = (ag.sigmoid(z.value) if swish
                                  else (z.value > 0).astype(np.float32))
        return ag.swish(z, tape) if swish else ag.relu(z, tape)

    def _walk(self, x: Variable, tape: Optional[Tape] = None,
              frozen: Optional[MaskSnapshot] = None,
              captured: Optional[Dict[str, np.ndarray]] = None) -> Variable:
        cfg = self.config
        if x.value.ndim != 3 or x.value.shape[0] != 2:
            raise ShapeError(f"proximal input must be (2, H, W), got {x.value.shape}")
        gate = partial(self._gate, tape=tape, frozen=frozen, captured=captured)
        if cfg.arch == "chain":
            for i in range(1, cfg.chain_layers + 1):
                x = self._conv(f"layer{i}", x, tape)
            return gate("out.act", x)
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
        return self._walk(x if isinstance(x, Variable) else Variable(x), tape)

    def forward_and_masks(self, x: np.ndarray) -> Tuple[np.ndarray, MaskSnapshot]:
        """The forward output and the snapshot of every gate's mask, in the
        order the gates ran."""
        captured: Dict[str, np.ndarray] = {}
        out = self._walk(Variable(x), captured=captured)
        return out.value, MaskSnapshot(tuple(captured), tuple(captured.values()),
                                       self.config.signature)

    def forward_frozen(self, x: np.ndarray, snapshot: MaskSnapshot) -> np.ndarray:
        """The affine map with every gate pinned to the snapshot; the one check
        of the frozen-map contract (with each mask's shape in ``_gate``)."""
        if self.config.normalization != "none":
            raise UnsupportedConfigError(
                "frozen-mask evaluation requires normalization=none")
        if snapshot.signature != self.config.signature:
            raise ContractError(f"snapshot from {snapshot.signature!r} "
                                f"cannot drive {self.config.signature!r}")
        return self._walk(Variable(x), frozen=snapshot).value


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
        layers = config.chain_layers
        for i in range(1, layers + 1):  # 2 channels in and out, f between
            conv(f"layer{i}", 2 if i == 1 else f, 2 if i == layers else f, config.chain_kernel)
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
    return ProximalNet(config, params)


def capture_masks(net: ProximalNet, x: np.ndarray) -> MaskSnapshot:
    """Run the net on a (2, H, W) input and record every gate's mask D(z)."""
    _, snap = net.forward_and_masks(np.asarray(x, np.float32))
    return snap
