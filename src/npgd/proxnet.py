"""Learnable proximal maps.

Two architectures:

* ``resnet``: a 3x3 conv lifting the 2 complex channels to ``feature_maps``,
  ``num_res_blocks`` residual blocks (conv -> norm -> act -> conv -> norm ->
  act, additive skip), then a 1x1 tail (act, act, linear) back down to 2
  channels.
* ``chain``: ``chain_layers`` convolutions of kernel ``chain_kernel`` with no
  hidden nonlinearity; only the final 2-channel output passes through swish.

Every gated activation is sigma(z) = D(z) * z; ``capture_masks`` records the
multiplicative masks D(z) at each gate as a ``MaskSnapshot``, and
``forward_frozen`` re-runs the net with the gates pinned to it, which makes
the whole map affine (the basis of the contraction diagnostics).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterator, Optional, Tuple, Union

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

    def __post_init__(self) -> None:
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

    def _gate(self, layer_id: str, z: Variable, tape, frozen: Optional[Dict[str, np.ndarray]],
              captured: Optional[Dict[str, np.ndarray]]) -> Variable:
        """sigma(z) = D(z) * z with D pinned by ``frozen``, else swish or relu,
        recording D(z) into ``captured``."""
        if frozen is not None:
            d = frozen.get(layer_id)
            if d is None:
                raise ContractError(f"snapshot has no mask for gate {layer_id}")
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
              frozen: Optional[Dict[str, np.ndarray]] = None,
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
        return out.value, MaskSnapshot(self, captured)

    def forward_frozen(self, x: np.ndarray, snapshot: MaskSnapshot) -> np.ndarray:
        """The affine map with every gate pinned to the snapshot, evaluated
        with this net's weights; the one check of the frozen-map contract
        (with each gate's mask, present and of the right shape, in ``_gate``)."""
        if self.config.normalization != "none":
            raise UnsupportedConfigError(
                "frozen-mask evaluation requires normalization=none")
        if snapshot.net.config != self.config:
            raise ContractError(f"snapshot from {snapshot.net.config} cannot drive {self.config}")
        return self._walk(Variable(x), frozen=snapshot.masks).value


class MaskSnapshot:
    """The proximal with every gate pinned to the masks D(z) of one input:
    the affine map M. ``masks`` maps each gate id to its mask, in the order
    the gates ran. Calling the snapshot evaluates M; ``linear`` applies its
    linear part M(v) - M(0) (differences kill the bias), with the constant
    M(0) cached after the first use."""

    def __init__(self, net: ProximalNet, masks: Dict[str, np.ndarray]):
        self.net = net
        self.masks = masks
        self._at_zero: Optional[np.ndarray] = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.net.forward_frozen(u, self)

    def linear(self, v: np.ndarray) -> np.ndarray:
        if self._at_zero is None:
            self._at_zero = self(np.zeros(v.shape, np.float32))
        return self(v) - self._at_zero


def param_shapes(config: ProximalConfig) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of every parameter of the net, in the order ``build``
    draws them; lazy, so a caller can stop at a mismatch before allocating."""
    def conv(name, c_in, c_out, k):
        yield f"{name}.kernel", (c_out, c_in, k, k)
        yield f"{name}.bias", (c_out,)

    f = config.feature_maps
    if config.arch == "chain":
        layers = config.chain_layers
        for i in range(1, layers + 1):  # 2 channels in and out, f between
            yield from conv(f"layer{i}", 2 if i == 1 else f, 2 if i == layers else f,
                            config.chain_kernel)
        return
    yield from conv("head", 2, f, 3)
    for i in range(1, config.num_res_blocks + 1):
        yield from conv(f"rb{i}.conv1", f, f, 3)
        yield from conv(f"rb{i}.conv2", f, f, 3)
        if config.normalization == "instance":
            for norm in (f"rb{i}.norm1", f"rb{i}.norm2"):
                yield f"{norm}.gamma", (f,)
                yield f"{norm}.beta", (f,)
    yield from conv("tail1", f, f, 1)
    yield from conv("tail2", f, f, 1)
    yield from conv("tail3", f, 2, 1)


def param_count(config: ProximalConfig) -> int:
    """Number of parameters of the net, without walking a deep one: the
    count is affine in ``num_res_blocks``, and in ``chain_layers`` from two
    layers on, so nets of two and three blocks or layers fix it."""
    depth = "num_res_blocks" if config.arch == "resnet" else "chain_layers"
    n = getattr(config, depth)
    at = [sum(math.prod(shape) for _, shape in param_shapes(replace(config, **{depth: m})))
          for m in (min(n, 2), min(n, 3))]
    return at[1] if n <= 3 else at[0] + (n - 2) * (at[1] - at[0])


def build(config: ProximalConfig, seed: int = 0,
          zero_init_output: bool = True) -> ProximalNet:
    """Construct a net with He-normal kernels (variance 2/fan_in), zero biases.

    The final output convolution starts at zero by default so the proximal
    begins as the zero map; composed over many unrolled iterations a
    fully random stack blows the trajectory up before training can react.
    A net whose float32 parameters exceed this machine's memory, one alone
    or all together, is a ConfigError that names its keys, raised before
    anything is drawn.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    depth, *widths = (("num_res_blocks", "feature_maps") if config.arch == "resnet"
                      else ("chain_layers", "feature_maps", "chain_kernel"))
    shallow = replace(config, **{depth: min(getattr(config, depth), 3)})
    for name, shape in param_shapes(shallow):  # every shape a deeper net has
        if 4 * math.prod(shape) > memory:
            raise ConfigError(f"{' or '.join(widths)} too large: parameter {name} {shape} "
                              f"needs more than the {memory} bytes of memory")
    count = param_count(config)
    if 4 * count > memory:
        raise ConfigError(f"{' or '.join([depth] + widths)} too large: the net's {count} "
                          f"float32 parameters need more than the {memory} bytes of memory")
    rng = np.random.default_rng(seed)
    params: Dict[str, Variable] = {}
    for name, shape in param_shapes(config):
        if name.endswith(".kernel"):  # fan_in = c_in * k * k
            value = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)
        else:  # a norm's gamma starts at one, every other vector at zero
            value = np.full(shape, 1.0 if name.endswith(".gamma") else 0.0)
        params[name] = Variable(value.astype(np.float32))
    if zero_init_output:  # the output conv's kernel is the last one drawn
        params[[name for name in params if name.endswith(".kernel")][-1]].value[:] = 0.0
    return ProximalNet(config, params)


def capture_masks(net: ProximalNet, x: np.ndarray) -> MaskSnapshot:
    """Run the net on a (2, H, W) input and record every gate's mask D(z)."""
    _, snap = net.forward_and_masks(np.asarray(x, np.float32))
    return snap
