import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npgd.checkpoint import _Writer
from npgd.cli import main
from npgd.config import ExperimentConfig, parse_config, parse_config_text, parse_sweep_grid
from npgd.core import magnitude
from npgd.errors import ConfigError, NpgdError
from npgd.pgm import read_pgm, write_pgm16
from npgd.phantoms import generate_dataset

from conftest import interrupt_write


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _write(path, text):
    path.write_text(text)
    return str(path)


TINY_MRI = """
task = mri
image_size = 16
data_num = 8
data_seed = 5
holdout = 2
mask_rate = 0.4
mask_center_fraction = 0.05
mask_seed = 2
unroll_t = 2
epochs = 2
batch_size = 2
feature_maps = 8
num_res_blocks = 1
cs_iterations = 25
cs_levels = 2
cs_val_images = 2
"""


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus_key = 3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("epochs = 1\nepochs = 2")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_text("epochs = soon")


def test_validation_before_compute():
    with pytest.raises(ConfigError):
        parse_config_text("image_size = 48")
    with pytest.raises(ConfigError):
        parse_config_text("data_num = 5\nholdout = 5")
    with pytest.raises(ConfigError):
        parse_config_text("task = ct")
    with pytest.raises(ConfigError):
        parse_config_text("mask_rate = 0.2\nmask_center_fraction = 0.3")
    # a center square above the quota: 10x10 samples where rate 0.371 allows 95
    with pytest.raises(ConfigError, match="^mask_center_fraction 0.36 asks for 100 "):
        parse_config_text("image_size = 16\nmask_rate = 0.371\nmask_center_fraction = 0.36")


@pytest.mark.parametrize("line", [
    "mask_decay = -1",
    "cs_levels = 5",
    "lr = nan",
    "lr = inf",
    "lr = 1e39",
    "noise_std = nan",
    "alpha_init = inf",
    "train_seed = -1",
    "alpha_init = 1e39",
    "noise_std = 1e39",
    "unroll_t = 0",
    "cs_iterations = 0",
    "cs_solver = admm",
    "mask_rate = 0",
], ids=["negative-mask-decay", "cs-levels-above-image-size", "lr-nan", "lr-inf",
        "lr-above-float32", "noise-std-nan", "alpha-init-inf", "negative-seed",
        "alpha-init-above-float32", "noise-std-above-float32", "unroll-t-zero",
        "cs-iterations-zero", "unknown-cs-solver", "mask-rate-zero"])
def test_out_of_range_value_exits_2_before_compute(tmp_path, capsys, line):
    key = line.split("=")[0].strip()  # replaces TINY_MRI's value, if it sets one
    base = "".join(f"{kv}\n" for kv in TINY_MRI.splitlines()
                   if kv.split("=")[0].strip() != key)
    cfg_path = _write(tmp_path / "c.cfg", base + line + "\n")
    out = tmp_path / "o"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert key in err  # the key the user wrote, not a sub-config's field name
    assert not out.exists()


def _readme_config_keys():
    """The keys of the README's configuration table."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("### Configuration files")[1]
    table = section[section.index("| group"):].split("\n\n")[0]
    return [key for row in table.splitlines()[2:]
            for key in re.findall(r"`([a-z_]+)`", row.split("|")[2])]


def _setting(cfg, key):
    """(the config object that holds key's setting, the field that does)."""
    from npgd.config import _ROUTES
    sub, name = _ROUTES.get(key, (None, key))
    return (cfg if sub is None else getattr(cfg, sub)), name


def test_readme_lists_every_config_key():
    from npgd.config import _PARSERS
    assert sorted(_readme_config_keys()) == sorted(_PARSERS)


def test_every_readme_key_resolves_to_exactly_one_field():
    from dataclasses import fields

    from npgd.config import _ROUTES
    cfg, subs = ExperimentConfig(), ("prox", "train", "cs")
    # every field of every config class: the experiment's own and each sub-config's
    settable = {(None, f.name) for f in fields(cfg) if f.name not in subs}
    settable |= {(sub, f.name) for sub in subs for f in fields(getattr(cfg, sub))}
    targets = [_ROUTES.get(key, (None, key)) for key in _readme_config_keys()]
    assert len(set(targets)) == len(targets)  # no two keys set one field
    assert set(targets) == settable


def test_readme_synopsis_lists_every_cli_option():
    from npgd.cli import COMMANDS, _build_parser
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    synopsis = readme.split("## Command line")[1].split("```")[1]
    assert "|".join(COMMANDS) in synopsis
    documented = re.findall(r"--([a-z]+)", synopsis)
    for name in COMMANDS:
        argv = [name] + [arg for opt in documented for arg in (f"--{opt}", "x")]
        # every option the parser knows lands in the namespace, given or not
        assert sorted(vars(_build_parser().parse_args(argv))) == \
            sorted(documented + ["command"]), name


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["train"], "the following arguments are required: --config"),
    (["train", "--config", "c.cfg", "--seed", "x"], "unrecognized arguments: --seed x"),
], ids=["unknown-command", "missing-config", "removed-seed-flag"])
def test_command_line_error_is_one_line_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"npgd: error: {message}")
    assert captured.err.count("\n") == 1


def test_every_key_parses_to_its_annotated_type():
    from typing import get_type_hints

    from npgd.config import _PARSERS
    given = {"alpha_init": ("2", float), "cs_lambda": ("1", float),
             "data_dir": ("some/dir", str), "checkpoint_path": ("m.npgd", str),
             "phantom_phase": ("yes", bool)}
    for key in _PARSERS:
        owner, name = _setting(ExperimentConfig(), key)
        if key in given:
            text, want = given[key]
        else:
            want = get_type_hints(type(owner))[name]
            default = getattr(owner, name)
            # whole-valued float defaults are written without a decimal point
            text = (str(int(default)) if want is float and default == int(default)
                    else str(default))
        value = getattr(_setting(parse_config_text(f"{key} = {text}"), key)[0], name)
        assert type(value) is want, (key, text, value)
    assert parse_config_text("phantom_phase = off").phantom_phase is False


def test_unmappable_annotation_fails_loudly():
    from typing import List, Optional, Union

    from npgd.config import _value_parser
    for annotation in (List[int], Optional[list], Union[int, str], bytes):
        with pytest.raises(TypeError):
            _value_parser(annotation)


def test_comments_and_blanks_ignored():
    cfg = parse_config_text("# a comment\n\nepochs = 3  # trailing\n")
    assert cfg.train.epochs == 3


def test_sweep_grid_parsing():
    assert parse_sweep_grid("1:1, 3:2") == [(1, 1), (3, 2)]
    with pytest.raises(ConfigError):
        parse_sweep_grid("1-1")
    with pytest.raises(ConfigError):
        parse_sweep_grid("0:1")


def _mutated_config(data) -> str:
    """A valid config text after 1 to 4 random edits: a byte flip, a dropped
    or duplicated line, or the values of two lines swapped."""
    lines = data.draw(st.sampled_from([TINY_MRI, TINY_CHAIN])).strip().splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["flip", "drop", "duplicate", "swap"]))
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "flip":
            raw = bytearray("\n".join(lines).encode("latin-1"))
            k = data.draw(st.integers(0, len(raw) - 1))
            raw[k] ^= data.draw(st.integers(1, 255))
            lines = raw.decode("latin-1").splitlines() or [""]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            if "=" in lines[i] and "=" in lines[j]:
                (ki, vi), (kj, vj) = lines[i].split("=", 1), lines[j].split("=", 1)
                lines[i], lines[j] = f"{ki}={vj}", f"{kj}={vi}"
    return "\n".join(lines)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_mutated_config_parses_or_raises_npgd_error(data):
    text = _mutated_config(data)
    try:
        cfg = parse_config_text(text)
    except NpgdError:
        return
    assert isinstance(cfg, ExperimentConfig)


# ---------------------------------------------------------------------------
# pgm round trip


def test_pgm16_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    plane = rng.uniform(-0.7, 1.3, (9, 7)).astype(np.float32)
    path = tmp_path / "p.pgm"
    write_pgm16(path, plane)
    back = read_pgm(path)
    assert back.shape == plane.shape
    assert np.abs(back - plane).max() < 2.0 / 65535.0 * (plane.max() - plane.min())


def test_pgm16_constant_plane(tmp_path):
    path = tmp_path / "c.pgm"
    write_pgm16(path, np.zeros((4, 4), np.float32))
    assert np.allclose(read_pgm(path), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm16_rejects_non_finite_plane(tmp_path, bad):
    # a range comment of nan or inf is one that read_pgm refuses
    plane = np.zeros((4, 4), np.float32)
    plane[1, 2] = bad
    path = tmp_path / "n.pgm"
    with pytest.raises(NpgdError, match="non-finite"):
        write_pgm16(path, plane)
    assert not path.exists()


def test_pgm_p2_reading(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
    plane = read_pgm(path)
    assert plane.shape == (2, 2)
    assert plane[1, 0] == pytest.approx(1.0)
    assert plane[0, 1] == pytest.approx(128 / 255)


@pytest.mark.parametrize("blob", [
    b"P5\n# range 0 1\n3 1\n255\n\x00\x80\xff",
    b"P2\n# range 0 1\n3 1\n255\n0 128 255\n",
], ids=["p5", "p2"])
def test_pgm_8bit_range_comment_decodes_by_maxval(tmp_path, blob):
    path = tmp_path / "r.pgm"
    path.write_bytes(blob)
    assert read_pgm(path).tolist() == [[0.0, np.float32(128 / 255), 1.0]]


@pytest.mark.parametrize("blob", [
    b"P2\n4 1\n255\n1 -2 3.5 999\n",
    b"P2\n2 1\n255\n1 -2\n",
    b"P2\n2 1\n255\n1 999\n",
    b"P5\n1 1\n1000\n\xff\xff",
], ids=["p2-not-integer", "p2-negative", "p2-above-maxval", "p5-above-maxval"])
def test_pgm_rejects_samples_a_pgm_cannot_hold(tmp_path, blob):
    from npgd.errors import CorruptionError
    path = tmp_path / "s.pgm"
    path.write_bytes(blob)
    with pytest.raises(CorruptionError, match="s.pgm"):
        read_pgm(path)
    # the extremes 0 and maxval themselves decode
    path.write_bytes(b"P5\n2 1\n1000\n\x03\xe8\x00\x00")
    assert read_pgm(path).tolist() == [[1.0, 0.0]]


def test_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    from npgd.errors import CorruptionError, FormatError
    with pytest.raises(FormatError):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
    with pytest.raises(CorruptionError):
        read_pgm(trunc)


# range ends a header may carry: in range, at float32's edge, beyond float32
# or float64, infinite and not a number, then any float's text
_RANGE_ENDS = st.sampled_from(["0", "1", "-0.5", "3.40282347e38", "-3.4e38", "1e39",
                               "-1e308", "1e308", "1e999", "inf", "-inf", "nan"]) \
    | st.floats().map(repr)


def _fuzzed_pgm(data) -> bytes:
    """A valid P2 or P5 file at 8 or 16 bits, with or without a range
    comment, of drawn size, maxval and range ends, then with byte flips and
    perhaps cut short."""
    magic = data.draw(st.sampled_from([b"P2", b"P5"]))
    maxval = data.draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    samples = data.draw(st.lists(st.integers(0, maxval), min_size=w * h, max_size=w * h))
    header = magic + b"\n"
    if data.draw(st.booleans()):
        header += f"# range {data.draw(_RANGE_ENDS)} {data.draw(_RANGE_ENDS)}\n".encode()
    header += f"{w} {h}\n{maxval}\n".encode()
    if magic == b"P2":
        raster = " ".join(map(str, samples)).encode() + b"\n"
    else:
        raster = np.array(samples, ">u2" if maxval > 255 else np.uint8).tobytes()
    blob = bytearray(header + raster)
    for _ in range(data.draw(st.integers(0, 3))):
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob))):]
    return bytes(blob)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(st.data())
def test_fuzzed_pgm_reads_finite_float32_or_raises_npgd_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.pgm"
    path.write_bytes(_fuzzed_pgm(data))
    try:
        plane = read_pgm(path)
    except NpgdError:
        return
    assert plane.dtype == np.float32 and plane.ndim == 2
    assert np.isfinite(plane).all()


# ---------------------------------------------------------------------------
# phantoms


def test_phantoms_deterministic_and_bounded():
    a = generate_dataset(5, 32, seed=9)
    b = generate_dataset(5, 32, seed=9)
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)
    for x in a:
        assert x.shape == (2, 32, 32) and x.dtype == np.float32
        assert magnitude(x).max() <= 1.0 + 1e-6
        assert not x[1].any()  # no phase by default


def test_phantoms_with_phase_are_complex():
    x = generate_dataset(1, 32, seed=10, phase=True)[0]
    assert np.abs(x[1]).max() > 0
    assert magnitude(x).max() <= 1.0 + 1e-5


# ---------------------------------------------------------------------------
# commands


def test_gendata_deterministic(tmp_path):
    cfg = _write(tmp_path / "c.cfg", TINY_MRI)
    assert main(["gendata", "--config", cfg, "--out", str(tmp_path / "d1")]) == 0
    assert main(["gendata", "--config", cfg, "--out", str(tmp_path / "d2")]) == 0
    assert _dir_bytes(tmp_path / "d1") == _dir_bytes(tmp_path / "d2")
    assert len(os.listdir(tmp_path / "d1")) == 16  # 8 images x re/im


def test_genmask_popcount_819(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "task = mri\nimage_size = 64\nmask_rate = 0.2\n"
                                     "mask_center_fraction = 0.04\nmask_seed = 1\n")
    out = tmp_path / "m"
    assert main(["genmask", "--config", cfg, "--out", str(out)]) == 0
    from npgd.sampling import load_mask_bits
    mask = load_mask_bits(out / "mask.bits")
    assert mask.popcount == 819
    raster = read_pgm(out / "mask.pgm")
    assert int((raster > 0.5).sum()) == 819


def test_gendata_zero_images_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "data_num = 0\n")
    assert main(["gendata", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "wibble = 1\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_boolean_names_its_file_line_and_key(tmp_path, capsys):
    cfg = _write(tmp_path / "e.cfg", "phantom_phase = maybe\n" + TINY_MRI)
    assert main(["gendata", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"npgd: error: {cfg}:1: bad value 'maybe' for 'phantom_phase'\n"


@pytest.mark.parametrize("error, line", [
    (KeyboardInterrupt, "npgd: error: interrupted\n"),
    (MemoryError, "npgd: error: out of memory in gendata\n"),
], ids=["interrupt", "out-of-memory"])
def test_interrupt_and_out_of_memory_end_in_one_line_exit_1(tmp_path, capsys, monkeypatch,
                                                             error, line):
    from npgd import experiment

    def raise_error(*args):
        raise error

    monkeypatch.setattr(experiment, "run_gendata", raise_error)
    cfg = _write(tmp_path / "c.cfg", TINY_MRI)
    assert main(["gendata", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"data_num = 8 # \xff\n")
    assert main(["gendata", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"npgd: error: {cfg}: not a UTF-8 text file\n"


def test_config_with_byte_order_mark_parses_like_without(tmp_path):
    text = TINY_MRI.lstrip().encode("utf-8")
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    assert parse_config(tmp_path / "bom.cfg") == parse_config(tmp_path / "plain.cfg")


def test_train_reconstruct_baseline_roundtrip(tmp_path, capsys):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "checkpoint.npgd").exists()
    assert (out / "loss_trace.csv").exists()
    header = (out / "loss_trace.csv").read_text().splitlines()[0]
    assert header == ("step,epoch,lr,loss_total,loss_terminal,"
                      "loss_consistency,alpha,grad_norm")

    rec_cfg = _write(tmp_path / "r.cfg",
                     TINY_MRI + f"checkpoint_path = {out / 'checkpoint.npgd'}\n")
    rec_out = tmp_path / "rec"
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec_out)]) == 0
    assert (rec_out / "metrics.csv").exists()
    for i in range(2):
        for stem in ("recon", "zf", "truth"):
            assert (rec_out / f"{stem}_{i:04d}.pgm").exists()

    cs_out = tmp_path / "cs"
    assert main(["baseline", "--config", cfg_path, "--out", str(cs_out)]) == 0
    assert (cs_out / "cs_metrics.csv").exists()
    assert (cs_out / "cs_trace_0000.csv").exists()
    trace_header = (cs_out / "cs_trace_0000.csv").read_text().splitlines()[0]
    assert trace_header == "iter,objective,data_term,l1_term"


def test_noise_streams_are_separate_per_image_set(tmp_path, monkeypatch):
    # held-out image i and validation image i draw their own noise, not
    # training image i's; the training measurements keep their draws
    from npgd import experiment
    noise = []
    real = experiment.simulate_measurements

    def recording(images, op, noise_std=0.0, seed=0):
        ys = real(images, op, noise_std, seed)
        noise.append([y - op.apply(x) for x, y in zip(images, ys)])
        return ys

    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop  # the training measurements are all this test needs

    monkeypatch.setattr(experiment, "simulate_measurements", recording)
    monkeypatch.setattr(experiment, "train", stop)
    cfg = parse_config_text(TINY_MRI.replace("cs_iterations = 25", "cs_iterations = 2")
                            + "noise_std = 0.05\n")
    with pytest.raises(Stop):
        experiment.run_train(cfg, str(tmp_path / "t"), lambda line: None)
    experiment.run_baseline(cfg, str(tmp_path / "b"), lambda line: None)
    train_noise, held_out_noise, val_noise = noise

    train_set, _, op = experiment._setup(cfg)
    rng = np.random.default_rng(cfg.data_seed)
    bits = op.mask.natural_bits()
    for x, n in zip(train_set, train_noise):
        draw = rng.normal(0, 0.05, x.shape).astype(np.float32)
        y = op.apply(x) + np.where(bits, draw, np.float32(0))
        assert np.array_equal(n, y - op.apply(x))
    for i, n in enumerate(train_noise[:2]):
        assert np.abs(held_out_noise[i] - n).max() > 0.05
        assert np.abs(val_noise[i] - n).max() > 0.05
        assert np.abs(val_noise[i] - held_out_noise[i]).max() > 0.05


def test_noise_only_where_k_space_is_sampled():
    from npgd.experiment import build_operator, simulate_measurements
    from npgd.operators import BoxDownsampleOperator
    op = build_operator(parse_config_text(TINY_MRI))
    bits = op.mask.natural_bits()
    images = generate_dataset(3, 16, seed=8)
    rng = np.random.default_rng(4)
    for x, y in zip(images, simulate_measurements(images, op, 0.05, seed=4)):
        draw = rng.normal(0, 0.05, y.shape).astype(np.float32)
        assert not (y - op.apply(x))[:, ~bits].any()
        assert np.array_equal(y[:, bits], (op.apply(x) + draw)[:, bits])
    # the box operator measures every entry, so its draws stay whole
    box = BoxDownsampleOperator(16, 16)
    rng = np.random.default_rng(4)
    for x, y in zip(images, simulate_measurements(images, box, 0.05, seed=4)):
        draw = rng.normal(0, 0.05, y.shape).astype(np.float32)
        assert np.array_equal(y, box.apply(x) + draw)


@pytest.mark.parametrize("noise_std, code, message", [
    ("3e38", 2, "npgd: error: noise_std 3e+38 makes a measurement non-finite"),
    ("1e37", 1, "npgd: error: non-finite loss at step 0 on training image"),
], ids=["measurement-overflows", "only-the-loss-overflows"])
def test_noise_too_large_exits_cleanly(tmp_path, capsys, noise_std, code, message):
    # a noise draw beyond float32's range is a config error, reported with
    # no numpy warning (which this suite turns into a failure); a finite
    # measurement whose loss overflows is a run failure
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"noise_std = {noise_std}\n")
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("lines, says", [
    (f"feature_maps = {2**62}\n", "feature_maps too large: parameter head.kernel"),
    (f"arch = chain\nactivation = swish\nnormalization = none\nchain_kernel = {2**31 + 1}\n",
     "feature_maps or chain_kernel too large: parameter layer1.kernel"),
], ids=["huge-feature-maps", "huge-chain-kernel"])
def test_parameter_too_large_for_one_array_exits_2(tmp_path, capsys, lines, says):
    # build checks each parameter's shape before it draws it; numpy would
    # raise its own error before it allocates anything
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI.replace("feature_maps = 8\n", lines))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"npgd: error: {says} ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("lines, says", [
    (f"num_res_blocks = {2**40}\n", "num_res_blocks or feature_maps too large: the net's"),
    (f"arch = chain\nactivation = swish\nnormalization = none\nchain_layers = {2**40}\n",
     "chain_layers or feature_maps or chain_kernel too large: the net's"),
], ids=["huge-res-blocks", "huge-chain-layers"])
def test_net_too_large_for_memory_exits_2(tmp_path, capsys, lines, says):
    # every block or layer fits one array, but 2**40 of them need over 5e15
    # bytes; build counts them from the config before it draws the first
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI.replace("num_res_blocks = 1\n", lines))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"npgd: error: {says} ") and err.count("\n") == 1
    assert "Traceback" not in err


TOY_TRAINED = """
task = mri
image_size = 16
data_num = 12
data_seed = 5
holdout = 2
mask_rate = 0.3
mask_center_fraction = 0.05
mask_seed = 2
unroll_t = 3
epochs = 30
lr = 2e-3
batch_size = 2
train_seed = 1
feature_maps = 8
num_res_blocks = 1
"""


def test_reconstruct_trained_toy_beats_zero_filled(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TOY_TRAINED)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    rec_cfg = _write(tmp_path / "r.cfg",
                     TOY_TRAINED + f"checkpoint_path = {out / 'checkpoint.npgd'}\n")
    rec_out = tmp_path / "rec"
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec_out)]) == 0
    rows = (rec_out / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        _, snr_zf, snr, _, _ = row.split(",")
        assert float(snr) > float(snr_zf)


def test_analyze_rejects_normalized_checkpoint_exit_2(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    an_cfg = _write(tmp_path / "a.cfg",
                    TINY_MRI + f"checkpoint_path = {out / 'checkpoint.npgd'}\n")
    assert main(["analyze", "--config", an_cfg, "--out", str(tmp_path / "an")]) == 2


def test_sweep_writes_table(tmp_path):
    tiny = TINY_MRI.replace("epochs = 2", "epochs = 1")
    cfg_path = _write(tmp_path / "c.cfg", tiny + "sweep_grid = 1:1,2:1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "T,RBs,train_seconds,infer_seconds_per_image,snr_mean,ssim_mean"
    assert len(lines) == 3


def test_chain_sweep_cell_with_res_blocks_exits_2(tmp_path, capsys):
    # a chain has no residual blocks: an RB of 3 would train the RB-1 model again
    cfg_path = _write(tmp_path / "c.cfg", TINY_CHAIN + "sweep_grid = 1:1,1:3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("npgd: error: sweep_grid") and err.count("\n") == 1
    assert not out.exists()
    assert parse_config_text(TINY_CHAIN + "sweep_grid = 1:1,3:1\n").prox.arch == "chain"


def test_divergent_training_exits_1(tmp_path):
    diverging = TINY_MRI.replace("epochs = 2", "epochs = 40") + "lr = 1e12\n" \
        + "normalization = none\n"
    cfg_path = _write(tmp_path / "c.cfg", diverging)
    # a separate interpreter, so that numpy's warnings reach stderr as they
    # would for a user
    proc = subprocess.run([sys.executable, "-m", "npgd.cli", "train", "--config", cfg_path,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 1
    # names the training image whose loss overflowed
    assert proc.stderr == ("npgd: error: non-finite loss at step 1 on training image 4 "
                           "(lr=1e+12)\n"), proc.stderr


def test_missing_checkpoint_path_exits_2(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    assert main(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_out_flag_wins_over_out_dir(tmp_path):
    cfg_dir, flag_dir = tmp_path / "cfg_out", tmp_path / "flag_out"
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"out_dir = {cfg_dir}\n")
    assert main(["gendata", "--config", cfg_path, "--out", str(flag_dir)]) == 0
    assert len(os.listdir(flag_dir)) == 16 and not cfg_dir.exists()
    assert main(["gendata", "--config", cfg_path]) == 0
    assert _dir_bytes(cfg_dir) == _dir_bytes(flag_dir)


def test_data_seed_changes_gendata_bytes(tmp_path):
    runs = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        cfg_path = _write(tmp_path / f"{name}.cfg",
                          TINY_MRI.replace("data_seed = 5", f"data_seed = {seed}"))
        assert main(["gendata", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
        runs[name] = _dir_bytes(tmp_path / name)
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_data_dir_ingestion(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    data_dir = tmp_path / "data"
    assert main(["gendata", "--config", cfg_path, "--out", str(data_dir)]) == 0
    from npgd.experiment import load_image_dir
    images = load_image_dir(str(data_dir), 16)
    assert len(images) == 8
    assert images[0].shape == (2, 16, 16)
    # plain grayscale files (no _re/_im suffix) load with zero imaginary part
    lone = tmp_path / "lone"
    lone.mkdir()
    write_pgm16(lone / "photo.pgm", np.random.default_rng(3).uniform(0, 1, (20, 12)))
    loaded = load_image_dir(str(lone), 16)
    assert len(loaded) == 1
    assert loaded[0].shape == (2, 16, 16)
    assert not loaded[0][1].any()


@pytest.mark.parametrize("files", [
    {"a_im.pgm": (16, 16)},                                 # no a_re.pgm
    {"a_re.pgm": (16, 16), "a_im.pgm": (16, 8)},            # planes differ in shape
], ids=["im-without-re", "re-im-shape-mismatch"])
def test_data_dir_bad_pairs_exit_2(tmp_path, capsys, files):
    data = tmp_path / "data"
    data.mkdir()
    for name, shape in files.items():
        write_pgm16(data / name, np.zeros(shape, np.float32))
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    assert main(["gendata", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "a_" in err and "Traceback" not in err



@pytest.mark.parametrize("names", [("a_re.PGM", "a_im.PGM"), ("b_RE.pgm", "b_Im.Pgm")],
                         ids=["upper-extension", "mixed-case-tags"])
def test_data_dir_pairs_match_in_any_case(tmp_path, names):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(11)
    planes = [rng.uniform(0, 1, (16, 16)) for _ in names]
    for name, plane in zip(names, planes):
        write_pgm16(data / name, plane)
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    out = tmp_path / "o"
    assert main(["gendata", "--config", cfg_path, "--out", str(out)]) == 0
    # one complex image, whose imaginary plane is the _im file (up to the
    # 16-bit requantization of writing it again)
    assert sorted(os.listdir(out)) == ["img_0000_im.pgm", "img_0000_re.pgm"]
    for name, stem in zip(names, ("re", "im")):
        assert np.allclose(read_pgm(out / f"img_0000_{stem}.pgm"),
                           read_pgm(data / name), rtol=0, atol=2e-5)


def test_data_dir_case_only_duplicates_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("a_re.pgm", "a_im.pgm", "A_IM.pgm"):
        write_pgm16(data / name, np.zeros((16, 16), np.float32))
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    assert main(["gendata", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "differ only in case" in err


def test_reconstruct_writes_residuals(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    ckpt = out / "checkpoint.npgd"
    rec_cfg = _write(tmp_path / "r.cfg", TINY_MRI + f"checkpoint_path = {ckpt}\n")
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec)]) == 0
    lines = (rec / "residuals.csv").read_text().splitlines()
    assert lines[0] == "index,t,residual"
    # each row is ||y - A x_t|| of the unrolled iterate x_t of one held-out image
    from npgd import checkpoint
    from npgd.config import parse_config
    from npgd.experiment import build_dataset, build_operator, split_dataset
    from npgd.unroll import reconstruct
    cfg = parse_config(rec_cfg)
    net, alpha = checkpoint.restore_net(checkpoint.load(ckpt))
    _, test_set = split_dataset(build_dataset(cfg), cfg.holdout)
    op = build_operator(cfg)
    expected = []
    for i, x_true in enumerate(test_set):
        _, residuals = reconstruct(net, alpha, op, op.apply(x_true), cfg.train.iterations)
        expected += [f"{i},{t},{r:.9g}" for t, r in enumerate(residuals, start=1)]
    assert len(expected) == 2 * 2
    assert lines[1:] == expected


def test_reconstruct_and_baseline_report_seconds_per_image(tmp_path, capsys):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    rec_cfg = _write(tmp_path / "r.cfg", TINY_MRI + "checkpoint_path = "
                     f"{tmp_path / 'run' / 'checkpoint.npgd'}\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "rec")]) == 0
    assert main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "cs")]) == 0
    lines = capsys.readouterr().out.splitlines()
    number = r"-?[0-9.]+(e[-+][0-9]+)?"
    assert re.fullmatch(rf"mean SNR {number} dB \(zero-filled {number} dB\), "
                        rf"{number} s/image -> .*metrics\.csv", lines[0])
    assert re.fullmatch(rf"CS baseline \(lambda={number}\): mean SNR {number} dB, "
                        rf"{number} s/solve -> .*cs_metrics\.csv", lines[-1])


TINY_CHAIN = """
task = sr
image_size = 16
data_num = 5
data_seed = 4
holdout = 3
arch = chain
chain_layers = 2
chain_kernel = 3
feature_maps = 4
activation = swish
normalization = none
unroll_t = 3
alpha_init = 4.0
beta = 0.25
lr = 3e-4
epochs = 2
batch_size = 2
"""


class _Stop(Exception):
    pass


@pytest.mark.parametrize("text, alpha", [
    (TINY_MRI, 1.0),
    (TINY_CHAIN.replace("alpha_init = 4.0\n", ""), 4.0),
], ids=["mri", "sr"])
def test_omitted_alpha_init_trains_from_the_task_step(tmp_path, monkeypatch, text, alpha):
    from npgd import experiment
    seen = []

    def stop_at_train(images, op, train_cfg, *args, **kwargs):
        seen.append(train_cfg.alpha_init)
        raise _Stop

    monkeypatch.setattr(experiment, "train", stop_at_train)
    assert "alpha_init" not in text
    with pytest.raises(_Stop):
        experiment.run_train(parse_config_text(text), str(tmp_path), lambda line: None)
    assert seen == [alpha]
    # a written alpha_init wins for either task
    assert parse_config_text(text + "alpha_init = 2.5\n").train.alpha_init == 2.5


def test_analyze_writes_traces_and_debias(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_CHAIN)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    ckpt = out / "checkpoint.npgd"
    an_cfg = _write(tmp_path / "a.cfg", TINY_CHAIN + f"checkpoint_path = {ckpt}\n")
    an = tmp_path / "an"
    assert main(["analyze", "--config", an_cfg, "--out", str(an)]) == 0
    for i in range(3):
        header = (an / f"trace_{i:04d}.csv").read_text().splitlines()[0]
        assert header == "t,nrmse,eta1,eta2,xi_norm,decomp_residual,bound_slack"
    agg = (an / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "t,nrmse_mean,nrmse_std,eta1_mean,eta1_std,eta2_mean,eta2_std"
    assert len(agg) == 1 + 3  # one row per iteration t
    # each row's means are the means over the samples' trace rows at that t
    traces = [np.loadtxt(an / f"trace_{i:04d}.csv", delimiter=",", skiprows=1)
              for i in range(3)]
    for t, line in enumerate(agg[1:]):
        row = [float(v) for v in line.split(",")]
        assert row[0] == t + 1
        for mean_at, column in ((1, 1), (3, 2), (5, 3)):
            assert row[mean_at] == pytest.approx(np.mean([tr[t, column] for tr in traces]),
                                                 rel=1e-6)
    lines = (an / "debias.csv").read_text().splitlines()
    assert lines[0] == ("index,converged,diverged,iterations,residual_xT,"
                        "residual_debiased")
    assert len(lines) == 1 + 3

    # each row matches de-biasing from a fresh trajectory and fresh masks
    from npgd import checkpoint
    from npgd.config import parse_config
    from npgd.contraction import debias
    from npgd.core import norm
    from npgd.experiment import build_dataset, build_operator, split_dataset
    from npgd.operators import gradient_step
    from npgd.proxnet import capture_masks
    from npgd.unroll import unrolled_forward
    cfg = parse_config(an_cfg)
    net, alpha = checkpoint.restore_net(checkpoint.load(ckpt))
    _, test_set = split_dataset(build_dataset(cfg), cfg.holdout)
    op = build_operator(cfg)
    for i, x_true in enumerate(test_set):
        y = op.apply(x_true)
        x_t = unrolled_forward(net, op, y, 3, alpha)[0][-1].value
        masks = capture_masks(net, gradient_step(x_t, y, alpha, op))
        res = debias(net, masks, op, alpha, y, x_t)
        assert lines[1 + i] == (
            f"{i},{int(res.converged)},{int(res.diverged)},{res.iterations},"
            f"{norm(y - op.apply(x_t)):.9g},{norm(y - op.apply(res.x)):.9g}")


def test_threads_do_not_change_metrics(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    tiny = TINY_MRI.replace("epochs = 2", "epochs = 1") + "sweep_grid = 1:1,2:1\n"
    tiny += f"checkpoint_path = {out / 'checkpoint.npgd'}\n"
    tables = []
    for threads in (1, 2):
        cfg = _write(tmp_path / f"t{threads}.cfg", tiny + f"threads = {threads}\n")
        run = {}
        for command, name in (("reconstruct", "metrics.csv"),
                              ("baseline", "cs_metrics.csv"), ("sweep", "sweep.csv")):
            run_out = tmp_path / f"{command}-{threads}"
            assert main([command, "--config", cfg, "--out", str(run_out)]) == 0
            run[name] = (run_out / name).read_bytes()
        # train_seconds and infer_seconds_per_image are wall times
        run["sweep.csv"] = [line.split(b",")[:2] + line.split(b",")[4:]
                            for line in run["sweep.csv"].split(b"\n")]
        tables.append(run)
    assert tables[0] == tables[1]


def test_blas_thread_count_does_not_change_outputs(tmp_path):
    # 32 maps make the 3x3 GEMMs of the 16^2 resnet large enough for OpenBLAS
    # to split them over threads; the chain's stay below its threshold
    configs = {"mri": TINY_MRI.replace("feature_maps = 8", "feature_maps = 32"),
               "chain": TINY_CHAIN}
    for name, text in configs.items():
        _write(tmp_path / f"{name}.cfg", text)
    for threads in ("1", "3"):
        commands = []
        for name, text in configs.items():
            out = f"{name}-{threads}"
            _write(tmp_path / f"{out}.cfg",
                   text + f"checkpoint_path = {out}/checkpoint.npgd\n")
            commands += [["train", "--config", f"{name}.cfg", "--out", out],
                         ["reconstruct", "--config", f"{out}.cfg", "--out", out]]
        # a 32->32 3x3 64^2 conv runs in row bands, unlike every 16^2 layer; the
        # resnet's cheap 64^2 convs (2->32 3x3, 32->32 1x1) write value and rebuild
        script = ("import sys\nfrom npgd.cli import main\n"
                  "from npgd.autograd import Tape, Variable, conv2d\n"
                  "import numpy as np\n"
                  "rng = np.random.default_rng(7)\n"
                  "def var(s): return Variable(rng.standard_normal(s).astype(np.float32))\n"
                  "x, k, b, g = map(var, [(32, 64, 64), (32, 32, 3, 3), (32,), (32, 64, 64)])\n"
                  "tape = Tape()\nout = conv2d(x, k, b, tape)\n"
                  f"with open('conv-{threads}.bin', 'wb') as fh:\n"
                  "    for a in [out.value] + [vjp(g.value) for _, vjp in tape._records[0][1]]:\n"
                  "        fh.write(a.tobytes())\n"
                  f"with open('rebuild-{threads}.bin', 'wb') as fh:\n"
                  "    for c, kk in [(2, 3), (32, 1)]:\n"
                  "        cheap = conv2d(var((c, 64, 64)), var((32, c, kk, kk)), var(32), tape)\n"
                  "        fh.write(cheap.value.tobytes() + cheap.rebuild().tobytes())\n"
                  f"sys.exit(any(main(argv) for argv in {commands!r}))")
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
                       timeout=120)
    for name in configs:
        for file in ("checkpoint.npgd", "loss_trace.csv", "metrics.csv", "residuals.csv"):
            assert (tmp_path / f"{name}-1" / file).read_bytes() == \
                (tmp_path / f"{name}-3" / file).read_bytes(), (name, file)
    assert (tmp_path / "conv-1.bin").read_bytes() == (tmp_path / "conv-3.bin").read_bytes()
    rebuilds = [(tmp_path / f"rebuild-{threads}.bin").read_bytes() for threads in ("1", "3")]
    size = 32 * 64 * 64 * 4  # one conv output
    assert rebuilds[0] == rebuilds[1] and len(rebuilds[0]) == 4 * size
    for value_at in (0, 2 * size):  # each rebuild equals its value byte for byte
        assert rebuilds[0][value_at:value_at + size] == \
            rebuilds[0][value_at + size:value_at + 2 * size]


# ---------------------------------------------------------------------------
# malformed inputs end in one error line and an exit code, not a traceback


def _checkpoint_blob(entries=b"", n_entries=0, name=b"w", dims=(2,)):
    """A checkpoint with a valid CRC around one hand-built parameter record."""
    w = _Writer()
    w.raw(struct.pack("<I", n_entries) + entries)
    w.raw(struct.pack("<f", 1.0))
    w.raw(struct.pack("<I", 1))
    w.raw(struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
          + b"".join(struct.pack("<I", d) for d in dims) + b"\0" * 8)
    return w.finish()


def _bad_key_entry():
    return struct.pack("<H", 1) + b"\xff" + struct.pack("<Bq", 0, 1)


def _tiny_checkpoint_blob(repeat_entry=None, repeat_record=None, **entries):
    """A valid checkpoint of the TINY_MRI net with some config entries
    replaced; each value is stored with the tag of its Python type. A
    repeated entry or record is written a second time, changed, after the
    first."""
    from dataclasses import asdict

    from npgd.proxnet import build
    prox = parse_config_text(TINY_MRI).prox
    values = dict(asdict(prox), unroll_t=2, beta=0.75, loss="l2", seed=0, epoch=0,
                  adam_step=0)
    values.update(entries)
    w = _Writer()
    w.raw(struct.pack("<I", len(values) + (repeat_entry is not None)))
    for key, value in values.items():
        w.entry(key, value)
    if repeat_entry is not None:
        w.entry(repeat_entry, values[repeat_entry] + 1)
    params = build(prox).params
    w.raw(struct.pack("<f", 1.0)
          + struct.pack("<I", len(params) + (repeat_record is not None)))
    for name, var in params.items():
        w.record(name, var.value)
    if repeat_record is not None:
        w.record(repeat_record, params[repeat_record].value + 1)
    return w.finish()


# a range error names the stored entry (unroll_t), not the config field it fills
@pytest.mark.parametrize("blob, code, says", [
    (_checkpoint_blob(dims=(0xFFFFFFFF,) * 4), 1, "truncated"),  # CorruptionError
    (_checkpoint_blob(dims=(0,) * 65), 2, "65 axes, more than 4"),  # beyond numpy's 64
    (_checkpoint_blob(name=b"\xff\xfe"), 2, "not UTF-8"),       # FormatError
    (_checkpoint_blob(entries=_bad_key_entry(), n_entries=1), 2, "not UTF-8"),
    (_tiny_checkpoint_blob(num_res_blocks="one"), 2, "'num_res_blocks' is not int"),
    (_tiny_checkpoint_blob(unroll_t=0), 2, ": unroll_t must be >= 1"),
    (_tiny_checkpoint_blob(unroll_t=2.5), 2, "'unroll_t' is not int"),
    (_tiny_checkpoint_blob(loss="zz"), 2, ": loss must be"),
    (_tiny_checkpoint_blob(beta=7.0), 2, ": beta must lie"),
    (_tiny_checkpoint_blob(repeat_entry="epoch"), 2, "duplicate config entry 'epoch'"),
    (_tiny_checkpoint_blob(repeat_record="tail3.bias"), 2, "duplicate record 'tail3.bias'"),
    (_tiny_checkpoint_blob(arch="mlp"), 2, "unknown arch 'mlp'"),
    (_tiny_checkpoint_blob(arch="chain", activation="swish", normalization="none",
                           chain_kernel=4), 2, ": chain_kernel must be odd"),
    (_tiny_checkpoint_blob(epoch=-5), 2, ": epoch must be >= 0"),
    (_tiny_checkpoint_blob(adam_step=-7), 2, ": adam_step must be >= 0"),
    # configs whose nets no memory holds: each stops at its first parameter
    # that the stored records do not match, before any array is allocated
    (_tiny_checkpoint_blob(feature_maps=2**62), 2, "parameter head.kernel: shape"),
    (_tiny_checkpoint_blob(num_res_blocks=2**62), 2, "no parameter rb2.conv1.kernel"),
], ids=["dims-overflow", "rank-65", "record-name-not-utf8", "key-not-utf8", "int-entry-as-string",
        "unroll-t-zero", "unroll-t-as-f32", "unknown-loss", "beta-out-of-range",
        "duplicate-entry", "duplicate-record", "unknown-arch", "even-chain-kernel",
        "negative-epoch", "negative-adam-step", "huge-feature-maps", "huge-res-blocks"])
def test_malformed_checkpoint_exits_cleanly(tmp_path, capsys, blob, code, says):
    ckpt = tmp_path / "bad.npgd"
    ckpt.write_bytes(blob)
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"checkpoint_path = {ckpt}\n")
    assert main(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"npgd: error: {ckpt}: ") and err.count("\n") == 1
    assert says in err and "Traceback" not in err


def _checkpoint_fields(blob):
    """(offset, kind) of each entry value, alpha and each record dim of a
    checkpoint blob; kind is a struct format, or the length of a string."""
    fields, pos = [], 10
    count, = struct.unpack_from("<I", blob, 6)
    for _ in range(count):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]
        tag, pos = blob[pos], pos + 1
        if tag == 2:
            length, = struct.unpack_from("<H", blob, pos)
            fields.append((pos + 2, length))
            pos += 2 + length
        else:
            fields.append((pos, "<q" if tag == 0 else "<f"))
            pos += 8 if tag == 0 else 4
    fields.append((pos, "<f"))  # alpha
    records, = struct.unpack_from("<I", blob, pos + 4)
    pos += 8
    for _ in range(records):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]
        rank, pos = blob[pos], pos + 1
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        fields += [(pos + 4 * i, "<I") for i in range(rank)]
        pos += 4 * rank + 4 * int(np.prod(dims))
    assert pos == len(blob) - 4
    return fields


_FIELD_VALUES = {
    "<q": st.one_of(st.integers(-2, 40), st.integers(-2**63, 2**63 - 1)),
    "<f": st.floats(width=32),
    "<I": st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)),
}


def _mutated(data, blob, fields, crc):
    """blob with a few bytes flipped, cut short, or one of its fields
    rewritten (under a recomputed trailing CRC32 if crc), as hypothesis
    draws it."""
    blob = bytearray(blob)
    how = data.draw(st.sampled_from(["flip", "truncate", "field"]))
    if how == "flip":
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    elif how == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        offset, kind = data.draw(st.sampled_from(fields))
        if isinstance(kind, int):
            blob[offset:offset + kind] = data.draw(st.binary(min_size=kind, max_size=kind))
        else:
            struct.pack_into(kind, blob, offset, data.draw(_FIELD_VALUES[kind]))
        if crc:
            struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]))
    return bytes(blob)


_TINY_BLOB = _tiny_checkpoint_blob()


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(st.data())
def test_fuzzed_checkpoint_restores_or_raises_npgd_error(tmp_path_factory, data):
    from npgd import checkpoint
    path = tmp_path_factory.getbasetemp() / "fuzzed.npgd"
    path.write_bytes(_mutated(data, _TINY_BLOB, _checkpoint_fields(_TINY_BLOB), crc=True))
    try:
        checkpoint.restore_net(checkpoint.load(path))
    except NpgdError:
        pass


@pytest.fixture(scope="module")
def genmask_bits(tmp_path_factory):
    out = tmp_path_factory.mktemp("genmask")
    cfg_path = _write(out / "c.cfg", TINY_MRI)
    assert main(["genmask", "--config", cfg_path, "--out", str(out)]) == 0
    return (out / "mask.bits").read_bytes()


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(st.data())
def test_fuzzed_bitmask_loads_or_raises_npgd_error(tmp_path_factory, genmask_bits, data):
    from npgd.sampling import load_mask_bits
    path = tmp_path_factory.getbasetemp() / "fuzzed.bits"
    path.write_bytes(_mutated(data, genmask_bits, [(8, "<I"), (12, "<I")], crc=False))
    try:
        mask = load_mask_bits(path)
    except NpgdError:
        return
    assert mask.bits.shape == (mask.height, mask.width)


@pytest.mark.parametrize("blob, code", [
    (b"P2\n2 1\n255\n1 x\n", 1),                            # CorruptionError
    (b"P5\n# range a b\n1 1\n255\n\0", 2),                  # FormatError
    (b"P5\n# range nan inf\n1 1\n255\n\0", 2),
    (b"P5\n-8 -8\n255\n\0", 2),
    (b"P2\n-8 -8\n255\n1\n", 2),
    (b"P5\n0 4\n255\n", 2),
    (b"P2\n# range -1e308 1e308\n2 1\n255\n0 255\n", 2),    # decodes beyond float32
], ids=["p2-non-numeric-sample", "range-comment-not-numbers", "range-not-finite",
        "p5-negative-size", "p2-negative-size", "p5-zero-width", "range-beyond-float32"])
def test_malformed_pgm_exits_cleanly(tmp_path, capsys, blob, code):
    data = tmp_path / "data"
    data.mkdir()
    (data / "img.pgm").write_bytes(blob)
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    assert main(["gendata", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "img.pgm" in err and "Traceback" not in err


def test_train_on_a_pgm_sample_above_maxval_exits_1(tmp_path, capsys):
    # next to three good images, one whose sample 999 a maxval of 255 cannot hold
    data = tmp_path / "data"
    data.mkdir()
    for name in ("a.pgm", "b.pgm", "c.pgm"):
        write_pgm16(data / name, np.random.default_rng(len(name)).uniform(0, 1, (16, 16)))
    (data / "img.pgm").write_bytes(b"P2\n2 1\n255\n1 999\n")
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    out = tmp_path / "o"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "img.pgm" in err and "999" in err and "Traceback" not in err
    assert not (out / "checkpoint.npgd").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_update_exits_1_without_checkpoint(tmp_path, capsys):
    # one step at lr = 3e38, still finite in float32, overflows the output
    # kernel (the only one with a nonzero gradient at step 0, since it starts
    # at zero); the loss of that step is still finite, so only the check
    # after the update sees it
    cfg_path = _write(tmp_path / "c.cfg",
                      TINY_CHAIN.replace("lr = 3e-4", "lr = 3e38")
                      .replace("epochs = 2", "epochs = 1"))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("npgd: error: non-finite") and err.count("\n") == 1
    assert "at step 0" in err and "layer2.kernel" in err
    assert not (out / "checkpoint.npgd").exists()
    assert not (out / "loss_trace.csv").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_diverging_reconstruct_exits_1_naming_image_and_iteration(tmp_path, capsys, threads):
    # a trained chain re-saved with alpha = 3e38 overflows within a few steps;
    # reconstruct stops at the first non-finite residual, with no overflow
    # warning (an error under pytest) from the worker threads either
    from npgd import checkpoint
    cfg_path = _write(tmp_path / "c.cfg", TINY_CHAIN)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    ck = checkpoint.load(tmp_path / "run" / "checkpoint.npgd")
    ck.alpha = 3e38
    checkpoint.save(ck, tmp_path / "big.npgd")
    rec_cfg = _write(tmp_path / "r.cfg", TINY_CHAIN + f"threads = {threads}\n"
                     f"checkpoint_path = {tmp_path / 'big.npgd'}\n")
    rec = tmp_path / "rec"
    capsys.readouterr()
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"npgd: error: image 0: non-finite residual at iteration t=[1-3]\n",
                        err), err
    assert os.listdir(rec) == []


def test_interrupted_reconstruct_leaves_only_whole_files(tmp_path, capsys, monkeypatch):
    # Ctrl-C halfway through the 5th output file (zf_0001.pgm): the four
    # files before it read back whole, and neither it nor a temp file is left
    cfg_path = _write(tmp_path / "c.cfg", TINY_CHAIN)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    rec_cfg = _write(tmp_path / "r.cfg", TINY_CHAIN +
                     f"checkpoint_path = {tmp_path / 'run' / 'checkpoint.npgd'}\n")
    rec = tmp_path / "rec"
    capsys.readouterr()
    interrupt_write(monkeypatch, nth=5)
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec)]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == "npgd: error: interrupted\n"
    assert sorted(os.listdir(rec)) == ["recon_0000.pgm", "recon_0001.pgm", "truth_0000.pgm",
                                       "zf_0000.pgm"]
    for name in os.listdir(rec):
        assert read_pgm(rec / name).shape == (16, 16)


@pytest.mark.parametrize("slot", ["head.kernel", "alpha"])
def test_reconstruct_rejects_non_finite_checkpoint(tmp_path, capsys, slot):
    from npgd import checkpoint
    from npgd.config import parse_config_text
    from npgd.proxnet import build
    cfg = parse_config_text(TINY_MRI)
    params = {k: v.value.copy() for k, v in build(cfg.prox, seed=0).params.items()}
    alpha = 1.0
    if slot == "alpha":
        alpha = float("inf")
    else:
        params[slot].flat[3] = np.nan
    ckpt = tmp_path / "nan.npgd"
    checkpoint.save(checkpoint.Checkpoint(prox=cfg.prox, unroll_t=cfg.train.iterations,
                                          beta=0.75, loss="l2", alpha=alpha,
                                          params=params), ckpt)
    rec_cfg = _write(tmp_path / "r.cfg", TINY_MRI + f"checkpoint_path = {ckpt}\n")
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--config", rec_cfg, "--out", str(rec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert f"{slot} is not finite" in err
    assert not (rec / "metrics.csv").exists()
