"""Flat key-value experiment configuration.

One ``key = value`` pair per line, ``#`` comments, no sections. Unknown
keys are rejected. Each key sets one field, with one default: a field of
``ExperimentConfig`` or of the ``ProximalConfig``, ``TrainConfig`` or
``CsConfig`` it holds. Every config class checks its ranges when it is
constructed, so a parsed file is in range before any compute starts. The
documented key list lives in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

from .baselines import CsConfig
from .core import check_finite_float32
from .errors import ConfigError, ParameterError
from .proxnet import ProximalConfig
from .sampling import mask_quota
from .unroll import TrainConfig


# the config key of each sub-config field or mask_quota parameter not named like it
_KEYS = {TrainConfig: {"iterations": "unroll_t", "seed": "train_seed"},
         CsConfig: {"iterations": "cs_iterations", "solver": "cs_solver", "levels": "cs_levels"},
         mask_quota: {name: f"mask_{name}" for name in ("rate", "center_fraction", "decay")}}
_SUBS = {"prox": ProximalConfig, "train": TrainConfig, "cs": CsConfig}
# the (sub-config, field) of each routed key
_ROUTES = {_KEYS.get(cls, {}).get(f.name, f.name): (sub, f.name)
           for sub, cls in _SUBS.items() for f in fields(cls)}


def _naming_keys(fn, *args, **kwargs):
    """fn(*args, **kwargs); a ParameterError, which leads with the name of
    fn's parameter, comes back as a ConfigError that leads with its key."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{_KEYS.get(fn, {}).get(name, name)} {rule}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_float(raw: str) -> float:
    """No key has a meaning for NaN or an infinity."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "mri"
    image_size: int = 64
    data_num: int = 200
    data_seed: int = 7
    data_dir: Optional[str] = None
    phantom_phase: bool = False
    holdout: int = 20
    noise_std: float = 0.0
    mask_rate: float = 0.2
    mask_center_fraction: float = 0.04
    mask_decay: float = 3.0
    mask_seed: int = 1
    prox: ProximalConfig = field(default_factory=ProximalConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cs: CsConfig = field(default_factory=CsConfig)
    cs_lambda: Optional[float] = None
    cs_grid_points: int = 8
    cs_val_images: int = 10
    sweep_grid: str = "1:1,3:1"
    checkpoint_path: Optional[str] = None
    out_dir: str = "out"
    threads: int = 1

    def __post_init__(self) -> None:
        """Range checks that no sub-config owns, and the cross-checks
        against the sub-configs, each of which checked its own ranges."""
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
        check_finite_float32(self.noise_std, "noise_std")  # the noise is float32
        if self.data_seed < 0:  # numpy takes no negative seed
            raise ConfigError("data_seed must be >= 0")
        if self.task == "mri":
            _naming_keys(mask_quota, n, n, self.mask_rate, self.mask_center_fraction,
                         self.mask_decay)
        for key in ("cs_grid_points", "cs_val_images"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if self.cs_lambda is not None and self.cs_lambda <= 0:
            raise ConfigError("cs_lambda must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        cells = parse_sweep_grid(self.sweep_grid)
        if self.prox.arch == "chain" and any(rb != 1 for _, rb in cells):
            raise ConfigError(f"sweep_grid {self.sweep_grid!r}: a chain has no "
                              f"residual blocks, so every cell's RB must be 1")
        if self.cs.levels >= n.bit_length():  # each Haar level halves the image
            raise ConfigError(f"image_size {n} is not divisible by 2^cs_levels "
                              f"= 2^{self.cs.levels}")


def _value_parser(annotation) -> Callable[[str], object]:
    """Parser for one annotated field; Optional[X] parses as X."""
    args = [a for a in get_args(annotation) if a is not type(None)]
    if get_origin(annotation) is Union and len(args) == 1:
        annotation = args[0]
    parsers = {bool: _parse_bool, int: int, float: _parse_float, str: str}
    if annotation not in parsers:
        raise TypeError(f"no config parser for annotation {annotation!r}")
    return parsers[annotation]


_PARSERS = {**{name: _value_parser(tp) for name, tp in get_type_hints(ExperimentConfig).items()
               if name not in _SUBS},
            **{key: _value_parser(get_type_hints(_SUBS[sub])[name])
               for key, (sub, name) in _ROUTES.items()}}


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
    # TrainConfig's alpha_init of 1.0 is exact for masked Fourier, whose normal
    # map is a projection; the box operator's top eigenvalue 1/4 asks for 4
    if values.get("task") == "sr":
        values.setdefault("alpha_init", 4.0)
    subs = {sub: {} for sub in _SUBS}
    for key in values.keys() & _ROUTES.keys():
        sub, name = _ROUTES[key]
        subs[sub][name] = values.pop(key)
    return ExperimentConfig(**values, **{sub: _naming_keys(cls, **subs[sub])
                                         for sub, cls in _SUBS.items()})


def parse_config(path) -> ExperimentConfig:
    try:
        # utf-8-sig drops the byte-order mark some editors write
        with open(path, "r", encoding="utf-8-sig") as fh:
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
