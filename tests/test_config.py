"""Every config class checks its ranges at construction and is frozen, so
any config object that exists, including one made by
``dataclasses.replace``, is in range; a config file sets each key's field
in the one class that owns it."""

import dataclasses

import pytest

from npgd.baselines import CsConfig
from npgd.config import ExperimentConfig, parse_config_text
from npgd.errors import ConfigError, ParameterError
from npgd.proxnet import ProximalConfig
from npgd.unroll import TrainConfig

CHAIN = {"arch": "chain", "activation": "swish", "normalization": "none"}
NAN, HUGE = float("nan"), 1e39  # HUGE is finite in float64, inf in float32

# (class, valid base arguments, one out-of-range change)
CASES = [
    (ProximalConfig, {}, {"arch": "mlp"}),
    (ProximalConfig, {}, {"activation": "tanh"}),
    (ProximalConfig, {}, {"normalization": "batch"}),
    (ProximalConfig, {}, {"feature_maps": 0}),
    (ProximalConfig, {}, {"num_res_blocks": 0}),
    (ProximalConfig, CHAIN, {"chain_layers": 0}),
    (ProximalConfig, CHAIN, {"chain_kernel": 4}),
    (ProximalConfig, CHAIN, {"chain_kernel": -1}),
    (ProximalConfig, CHAIN, {"normalization": "instance"}),
    (ProximalConfig, CHAIN, {"activation": "relu"}),
    (TrainConfig, {}, {"iterations": 0}),
    (TrainConfig, {}, {"alpha_init": 0.0}),
    (TrainConfig, {}, {"alpha_init": NAN}),
    (TrainConfig, {}, {"alpha_init": HUGE}),
    (TrainConfig, {}, {"beta": -0.1}),
    (TrainConfig, {}, {"beta": 1.5}),
    (TrainConfig, {}, {"beta": NAN}),
    (TrainConfig, {}, {"loss": "huber"}),
    (TrainConfig, {}, {"lr": 0.0}),
    (TrainConfig, {}, {"lr": NAN}),
    (TrainConfig, {}, {"lr": HUGE}),
    (TrainConfig, {}, {"lr_halve_every": 0}),
    (TrainConfig, {}, {"batch_size": 0}),
    (TrainConfig, {}, {"epochs": 0}),
    (TrainConfig, {}, {"seed": -1}),
    (CsConfig, {}, {"iterations": 0}),
    (CsConfig, {}, {"solver": "admm"}),
    (CsConfig, {}, {"levels": 0}),
    (ExperimentConfig, {}, {"task": "ct"}),
    (ExperimentConfig, {}, {"image_size": 48}),
    (ExperimentConfig, {}, {"image_size": 4}),
    (ExperimentConfig, {}, {"data_num": 0}),
    (ExperimentConfig, {}, {"holdout": 0}),
    (ExperimentConfig, {}, {"holdout": 200}),
    (ExperimentConfig, {}, {"noise_std": -0.1}),
    (ExperimentConfig, {}, {"noise_std": HUGE}),
    (ExperimentConfig, {}, {"data_seed": -1}),
    (ExperimentConfig, {}, {"mask_rate": 0.0}),
    (ExperimentConfig, {}, {"mask_center_fraction": 0.3}),
    (ExperimentConfig, {}, {"mask_decay": -1.0}),
    (ExperimentConfig, {}, {"cs_lambda": 0.0}),
    (ExperimentConfig, {}, {"cs": CsConfig(levels=7)}),  # 2^7 > image_size 64
    (ExperimentConfig, {}, {"cs_grid_points": 0}),
    (ExperimentConfig, {}, {"cs_val_images": 0}),
    (ExperimentConfig, {}, {"sweep_grid": ""}),
    (ExperimentConfig, {}, {"sweep_grid": "1:0"}),
    (ExperimentConfig, {"prox": ProximalConfig(**CHAIN)}, {"sweep_grid": "1:1,1:3"}),
    (ExperimentConfig, {}, {"threads": 0}),
]


def _case_id(cls, base, change):
    (key, value), = change.items()
    if isinstance(value, CsConfig):  # named by the key whose value crosses image_size
        key, value = "cs_levels", value.levels
    return f"{cls.__name__}-{'chain-' if base else ''}{key}={value}"


@pytest.mark.parametrize("cls, base, change", CASES, ids=[_case_id(*case) for case in CASES])
def test_config_rejects_out_of_range_value_at_construction(cls, base, change):
    valid = cls(**base)
    with pytest.raises(ParameterError):
        cls(**{**base, **change})
    with pytest.raises(ParameterError):
        dataclasses.replace(valid, **change)
    (key, value), = change.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(valid, key, value)


# (a valid file's keys, one key of a sub-config set out of range); the
# sub-config's own cases above check its construction, replace and freezing
PARSED_CASES = [
    ({}, {"train_seed": -1}),
    ({}, {"unroll_t": 0}),
    ({}, {"alpha_init": HUGE}),
    ({}, {"beta": 2.0}),
    ({}, {"loss": "huber"}),
    ({}, {"lr": HUGE}),
    ({}, {"epochs": 0}),
    ({}, {"arch": "mlp"}),
    (CHAIN, {"chain_kernel": 4}),
    ({}, {"cs_iterations": 0}),
    ({}, {"cs_solver": "admm"}),
]


def _lines(values):
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@pytest.mark.parametrize(
    "base, change", PARSED_CASES,
    ids=[f"{'chain-' if base else ''}{k}={v}" for base, change in PARSED_CASES
         for k, v in change.items()])
def test_sub_config_key_out_of_range_names_the_key(base, change):
    parse_config_text(_lines(base))
    (key, _), = change.items()
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_config_text(_lines({**base, **change}))


def test_an_empty_file_gives_every_class_default():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()
    assert (cfg.prox, cfg.train, cfg.cs) == (ProximalConfig(), TrainConfig(), CsConfig())
