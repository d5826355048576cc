import math
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from npgd import autograd as ag
from npgd.autograd import Variable
from npgd.checkpoint import Checkpoint, deserialize, load, restore_net, save, serialize
from npgd.errors import ConfigError, ContractError, CorruptionError, FormatError
from npgd.proxnet import (MaskSnapshot, ProximalConfig, build, capture_masks, param_count,
                          param_shapes)

from conftest import make_identity_resnet


def _chain_cfg(layers=3, kernel=5, feats=6):
    return ProximalConfig(arch="chain", chain_layers=layers, chain_kernel=kernel,
                          feature_maps=feats, activation="swish", normalization="none")


def test_config_validation():
    with pytest.raises(ConfigError):
        ProximalConfig(arch="mlp")
    with pytest.raises(ConfigError):
        ProximalConfig(arch="chain", chain_kernel=8, activation="swish",
                       normalization="none")
    with pytest.raises(ConfigError):
        ProximalConfig(arch="chain", activation="swish", normalization="instance")
    with pytest.raises(ConfigError):
        ProximalConfig(arch="chain", activation="relu", normalization="none")
    ProximalConfig()
    _chain_cfg()


def test_resnet_forward_preserves_shape():
    net = build(ProximalConfig(num_res_blocks=1, feature_maps=32), seed=0)
    x = np.random.default_rng(0).standard_normal((2, 32, 32)).astype(np.float32)
    assert net.forward(x).value.shape == (2, 32, 32)


def test_chain_hidden_layers_are_linear():
    # fresh build: biases are zero; keep the output conv live
    net = build(_chain_cfg(), seed=1, zero_init_output=False)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2, 16, 16)).astype(np.float32)

    def preactivation(v):
        cur = Variable(v)
        for i in range(1, 4):
            cur = ag.conv2d(cur, net.params[f"layer{i}.kernel"],
                            net.params[f"layer{i}.bias"])
        return cur.value

    z1 = preactivation(u)
    z2 = preactivation(2 * u)
    assert np.allclose(z2, 2 * z1, atol=1e-4)
    # and the net output is exactly swish of that pre-activation
    out = net.forward(u).value
    assert np.allclose(out, z1 * ag.sigmoid(z1), atol=1e-6)


def test_build_is_seed_deterministic():
    a = build(ProximalConfig(feature_maps=8), seed=3)
    b = build(ProximalConfig(feature_maps=8), seed=3)
    c = build(ProximalConfig(feature_maps=8), seed=4)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value)
    assert any(not np.array_equal(a.params[n].value, c.params[n].value)
               for n in a.params)


def test_zeroed_final_conv_outputs_bias_map():
    net = build(ProximalConfig(feature_maps=8, normalization="none"), seed=5,
                zero_init_output=False)
    net.params["tail3.kernel"].value[:] = 0.0
    rng = np.random.default_rng(6)
    for seed in range(3):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        assert not net.forward(x).value.any()  # bias is zero-initialized


def test_forward_is_deterministic():
    net = build(ProximalConfig(feature_maps=8), seed=7)
    x = np.random.default_rng(8).standard_normal((2, 16, 16)).astype(np.float32)
    assert net.forward(x).value.tobytes() == net.forward(x).value.tobytes()


def test_identity_resnet_is_identity():
    net = make_identity_resnet()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 12, 12)).astype(np.float32)
    out = net.forward(x).value
    assert np.allclose(out, x, atol=1e-6)


def _parameter_count(config):
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


def test_parameter_count_formula_matches_enumeration():
    rng = np.random.default_rng(10)
    configs = [ProximalConfig(num_res_blocks=int(rng.integers(1, 4)),
                              feature_maps=int(rng.integers(2, 17)),
                              normalization=rng.choice(["instance", "none"]))
               for _ in range(5)]
    configs += [_chain_cfg(layers=int(rng.integers(1, 5)),
                           kernel=int(rng.choice([1, 3, 5, 7])),
                           feats=int(rng.integers(2, 9)))
                for _ in range(5)]
    for cfg in configs:
        net = build(cfg, seed=0)
        assert sum(p.value.size for p in net.params.values()) == _parameter_count(cfg)


def test_param_count_equals_walked_shapes():
    # param_count extrapolates from nets of two and three blocks or layers
    configs = [ProximalConfig(num_res_blocks=n, feature_maps=5, normalization=norm)
               for n in (1, 2, 3, 4, 7) for norm in ("instance", "none")]
    configs += [_chain_cfg(layers=n) for n in (1, 2, 3, 4, 7)]
    for cfg in configs:
        assert param_count(cfg) == sum(math.prod(s) for _, s in param_shapes(cfg)), cfg
        assert param_count(cfg) == _parameter_count(cfg), cfg


def test_residual_block_collapses_to_identity():
    net = build(ProximalConfig(feature_maps=8, num_res_blocks=2,
                               normalization="instance"), seed=11,
                zero_init_output=False)
    for name in ("rb1.conv1", "rb1.conv2", "rb2.conv1", "rb2.conv2"):
        net.params[f"{name}.kernel"].value[:] = 0.0
        net.params[f"{name}.bias"].value[:] = 0.0
    x = np.random.default_rng(12).standard_normal((2, 8, 8)).astype(np.float32)
    # with dead blocks the net reduces to tail(head(x))
    u = ag.conv2d(Variable(x), net.params["head.kernel"], net.params["head.bias"])
    t = ag.relu(ag.conv2d(u, net.params["tail1.kernel"], net.params["tail1.bias"]))
    t = ag.relu(ag.conv2d(t, net.params["tail2.kernel"], net.params["tail2.bias"]))
    expected = ag.conv2d(t, net.params["tail3.kernel"], net.params["tail3.bias"]).value
    assert np.allclose(net.forward(x).value, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# mask capture and frozen evaluation


def test_capture_masks_all_positive_preactivations():
    net = build(ProximalConfig(feature_maps=4, normalization="none"), seed=13)
    for name, var in net.params.items():
        if name.endswith(".kernel"):
            var.value[:] = 0.0
        else:
            var.value[:] = 1.0  # positive biases drive every gate
    snap = capture_masks(net, np.zeros((2, 8, 8), np.float32))
    assert list(snap.masks) == ["rb1.act1", "rb1.act2", "tail.act1", "tail.act2"]
    for mask in snap.masks.values():
        assert np.all(mask == 1.0)


def test_capture_masks_identical_inputs_identical_snapshots():
    net = build(_chain_cfg(), seed=14)
    x = np.random.default_rng(15).standard_normal((2, 16, 16)).astype(np.float32)
    a = capture_masks(net, x)
    b = capture_masks(net, x.copy())
    assert list(a.masks) == list(b.masks)
    for gate, ma in a.masks.items():
        assert np.array_equal(ma, b.masks[gate])


def test_chain_snapshot_has_single_gate():
    net = build(_chain_cfg(), seed=16)
    snap = capture_masks(net, np.zeros((2, 8, 8), np.float32))
    assert list(snap.masks) == ["out.act"]


def test_relu_masks_are_binary_swish_masks_open_interval():
    rnet = build(ProximalConfig(feature_maps=4, normalization="none",
                                activation="relu"), seed=17)
    x = np.random.default_rng(18).standard_normal((2, 8, 8)).astype(np.float32)
    for mask in capture_masks(rnet, x).masks.values():
        assert set(np.unique(mask)) <= {0.0, 1.0}
    cnet = build(_chain_cfg(), seed=19)
    for mask in capture_masks(cnet, x).masks.values():
        assert np.all((mask > 0.0) & (mask < 1.0))


def test_forward_frozen_signature_mismatch():
    # the snapshot's net config must equal this net's field for field, even
    # one the chain arch never reads
    snap = capture_masks(build(_chain_cfg(), seed=20), np.zeros((2, 8, 8), np.float32))
    for cfg in (_chain_cfg(layers=2), replace(_chain_cfg(), num_res_blocks=2)):
        with pytest.raises(ContractError):
            build(cfg, seed=20).forward_frozen(np.zeros((2, 8, 8), np.float32), snap)


def test_forward_frozen_missing_gate_names_it():
    net = build(_chain_cfg(), seed=21)
    snap = MaskSnapshot(net, {"other.act": np.ones((2, 8, 8), np.float32)})
    with pytest.raises(ContractError, match="out.act"):
        net.forward_frozen(np.zeros((2, 8, 8), np.float32), snap)


def test_snapshot_drives_another_net_with_that_nets_weights():
    # a snapshot taken on net A pins B's gate to A's masks, and B evaluates
    # with its own convs: the snapshot's net is never run
    net_a, net_b = (build(_chain_cfg(layers=2), seed=seed, zero_init_output=False)
                    for seed in (22, 23))
    x = np.random.default_rng(24).standard_normal((2, 8, 8)).astype(np.float32)
    snap_a = capture_masks(net_a, x)
    z = Variable(x)
    for i in (1, 2):
        z = ag.conv2d(z, net_b.params[f"layer{i}.kernel"], net_b.params[f"layer{i}.bias"])
    expected = snap_a.masks["out.act"] * z.value
    assert np.array_equal(net_b.forward_frozen(x, snap_a), expected)
    assert not np.array_equal(net_a.forward_frozen(x, snap_a), expected)


# ---------------------------------------------------------------------------
# checkpoints


def _make_checkpoint(seed=22):
    net = build(_chain_cfg(), seed=seed)
    return Checkpoint(prox=net.config, unroll_t=4, beta=0.75, loss="l2",
                      alpha=0.625, params={k: v.value for k, v in net.params.items()},
                      adam_m={k: np.zeros_like(v.value) for k, v in net.params.items()},
                      adam_v={k: np.zeros_like(v.value) for k, v in net.params.items()},
                      adam_step=17, seed=seed, epoch=3)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    ck = _make_checkpoint()
    path = tmp_path / "model.npgd"
    save(ck, path)
    first = path.read_bytes()
    reloaded = load(path)
    save(reloaded, path)
    assert path.read_bytes() == first
    for name, arr in ck.params.items():
        assert np.array_equal(reloaded.params[name], arr)
    assert reloaded.alpha == pytest.approx(0.625)
    assert reloaded.adam_step == 17 and reloaded.epoch == 3


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fixture_checkpoint_reserializes_to_its_bytes():
    with open(os.path.join(ROOT, "perfbench", "fixtures", "mri_resnet.npgd"), "rb") as fh:
        blob = fh.read()
    assert serialize(deserialize(blob)) == blob


def _entry_keys(blob):
    """Config entry keys of a serialized checkpoint, in file order."""
    count, = struct.unpack_from("<I", blob, 6)
    pos, keys = 10, []
    for _ in range(count):
        klen, = struct.unpack_from("<H", blob, pos)
        keys.append(blob[pos + 2:pos + 2 + klen].decode())
        tag = blob[pos + 2 + klen]
        pos += 3 + klen
        if tag == 2:
            pos += 2 + struct.unpack_from("<H", blob, pos)[0]
        else:
            pos += 8 if tag == 0 else 4
    return keys


def test_checkpoint_entries_follow_the_documented_order():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    documented = readme.split("The entries are, in order:")[1].split(". Loading")[0]
    assert _entry_keys(serialize(_make_checkpoint())) == re.findall(r"`(\w+)`", documented)


def test_checkpoint_restore_net_matches(tmp_path):
    ck = _make_checkpoint(seed=23)
    net, alpha = restore_net(ck)
    assert alpha == pytest.approx(0.625)
    x = np.random.default_rng(24).standard_normal((2, 16, 16)).astype(np.float32)
    fresh = build(ck.prox, seed=23)
    assert np.array_equal(net.forward(x).value, fresh.forward(x).value)


def test_truncated_checkpoint_rejected():
    blob = serialize(_make_checkpoint())
    with pytest.raises(CorruptionError):
        deserialize(blob[:len(blob) // 2])


def test_wrong_magic_rejected():
    blob = serialize(_make_checkpoint())
    with pytest.raises(FormatError):
        deserialize(b"XXXX" + blob[4:])


def test_corrupted_byte_rejected():
    blob = bytearray(serialize(_make_checkpoint()))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CorruptionError):
        deserialize(bytes(blob))


def test_unknown_version_rejected():
    import struct
    blob = bytearray(serialize(_make_checkpoint()))
    blob[4:6] = struct.pack("<H", 99)
    # CRC must be fixed up so the version check is what fires
    import zlib
    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(blob))


def test_restore_net_rejects_mismatched_params():
    ck = _make_checkpoint()
    del ck.params["layer1.kernel"]
    with pytest.raises(FormatError):
        restore_net(ck)
