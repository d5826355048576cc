"""Flat key-value experiment configuration.

One ``key = value`` pair per line, ``#`` comments, no sections. Unknown
keys are rejected and the whole file is validated before any compute
starts. The documented key list lives in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

from .baselines import CsConfig
from .errors import ConfigError, ParameterError
from .phantoms import PhantomSpec
from .proxnet import ProximalConfig
from .sampling import mask_quota
from .unroll import TrainConfig, UnrollConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    """No key has a meaning for NaN or an infinity."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


@dataclass
class ExperimentConfig:
    task: str = "mri"
    image_size: int = 64
    data_num: int = 200
    data_seed: int = 7
    data_dir: Optional[str] = None
    phantom_min_ellipses: int = 3
    phantom_max_ellipses: int = 8
    phantom_intensity_min: float = 0.2
    phantom_intensity_max: float = 1.0
    phantom_phase: bool = False
    holdout: int = 20
    noise_std: float = 0.0
    mask_rate: float = 0.2
    mask_center_fraction: float = 0.04
    mask_decay: float = 3.0
    mask_seed: int = 1
    unroll_t: int = 10
    alpha_init: Optional[float] = None
    beta: float = 0.75
    loss: str = "l2"
    lr: float = 1e-3
    lr_halve_every: int = 10000
    batch_size: int = 2
    epochs: int = 10
    train_seed: int = 3
    arch: str = "resnet"
    num_res_blocks: int = 1
    feature_maps: int = 32
    chain_layers: int = 3
    chain_kernel: int = 9
    activation: str = "relu"
    normalization: str = "instance"
    cs_lambda: Optional[float] = None
    cs_iterations: int = 300
    cs_solver: str = "fista"
    cs_levels: int = 3
    cs_grid_points: int = 8
    cs_grid_lo: float = 1e-4
    cs_grid_hi: float = 1e-1
    cs_val_images: int = 10
    sweep_grid: str = "1:1,3:1"
    checkpoint_path: Optional[str] = None
    out_dir: str = "out"
    threads: int = 1

    def resolved_alpha_init(self) -> float:
        if self.alpha_init is not None:
            return self.alpha_init
        # projection spectrum {0,1} makes alpha=1 exact for masked Fourier;
        # the box operator's normal map has top eigenvalue 1/4, so the
        # spectral step 4 replaces the measured component in one go
        return 1.0 if self.task == "mri" else 4.0

    def phantom_spec(self) -> PhantomSpec:
        return PhantomSpec(**{f.name: getattr(self, f"phantom_{f.name}")
                              for f in fields(PhantomSpec)})

    def prox_config(self) -> ProximalConfig:
        return ProximalConfig(**{f.name: getattr(self, f.name)
                                 for f in fields(ProximalConfig)})

    def unroll_config(self) -> UnrollConfig:
        return UnrollConfig(iterations=self.unroll_t,
                            alpha_init=self.resolved_alpha_init(),
                            beta=self.beta, loss=self.loss)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr=self.lr, lr_halve_every=self.lr_halve_every,
                           batch_size=self.batch_size, epochs=self.epochs,
                           seed=self.train_seed)

    def cs_config(self) -> CsConfig:
        """The solver settings; lam is a placeholder when cs_lambda is unset
        and gets tuned."""
        return CsConfig(lam=self.cs_lambda or 1.0, iterations=self.cs_iterations,
                        solver=self.cs_solver, levels=self.cs_levels)

    def validate(self) -> None:
        """Range checks that no sub-config owns, then each sub-config's own."""
        if self.task not in ("mri", "sr"):
            raise ConfigError(f"task must be mri or sr, got {self.task!r}")
        n = self.image_size
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"image_size must be a power of two >= 8, got {n}")
        if self.data_dir is None and self.data_num < 1:
            raise ConfigError("data_num must be >= 1 for synthetic data")
        if self.holdout < 1:
            raise ConfigError("holdout must be >= 1")
        if self.data_dir is None and self.holdout >= self.data_num:
            raise ConfigError(f"holdout ({self.holdout}) must be smaller than "
                              f"data_num ({self.data_num})")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        for key in ("data_seed", "train_seed"):  # numpy takes no negative seed
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        if self.task == "mri":
            try:
                mask_quota(n, n, self.mask_rate, self.mask_center_fraction,
                           self.mask_decay)
            except ParameterError as exc:
                raise ConfigError(f"mask: {exc}") from None
        for key in ("cs_grid_points", "cs_val_images"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        # CsConfig accepts lam = 0; an explicit cs_lambda must be positive
        if self.cs_lambda is not None and self.cs_lambda <= 0:
            raise ConfigError("cs_lambda must be positive")
        if not (0 < self.cs_grid_lo <= self.cs_grid_hi):
            raise ConfigError("cs grid bounds must satisfy 0 < lo <= hi")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        parse_sweep_grid(self.sweep_grid)
        try:
            for sub in (self.phantom_spec(), self.prox_config(), self.unroll_config(),
                        self.train_config(), self.cs_config()):
                sub.validate()
        except ParameterError as exc:
            raise ConfigError(f"{type(sub).__name__}: {exc}") from None


def _value_parser(annotation) -> Callable[[str], object]:
    """Parser for one annotated field; Optional[X] parses as X."""
    args = [a for a in get_args(annotation) if a is not type(None)]
    if get_origin(annotation) is Union and len(args) == 1:
        annotation = args[0]
    parsers = {bool: _parse_bool, int: int, float: _parse_float, str: str}
    if annotation not in parsers:
        raise TypeError(f"no config parser for annotation {annotation!r}")
    return parsers[annotation]


_PARSERS = {name: _value_parser(tp)
            for name, tp in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: bad value {raw!r} for {key!r}") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text file") from None
    return parse_config_text(text, origin=str(path))


def parse_sweep_grid(spec: str):
    """Parse 'T:RB,T:RB,...' into a list of (iterations, res_blocks) cells."""
    cells = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"sweep cell {part!r} is not T:RB")
        try:
            t, rb = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ConfigError(f"sweep cell {part!r} is not numeric") from None
        if t < 1 or rb < 1:
            raise ConfigError(f"sweep cell {part!r} must be positive")
        cells.append((t, rb))
    if not cells:
        raise ConfigError("sweep_grid is empty")
    return cells
