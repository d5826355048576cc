import os
import struct

import numpy as np
import pytest

from npgd.checkpoint import _Writer
from npgd.cli import main
from npgd.config import parse_config_text, parse_sweep_grid
from npgd.core import magnitude
from npgd.errors import ConfigError
from npgd.pgm import read_pgm, write_pgm16
from npgd.phantoms import PhantomSpec, generate_dataset


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


def test_every_key_parses_to_its_annotated_type():
    from dataclasses import fields
    from typing import get_type_hints

    from npgd.config import ExperimentConfig
    hints = get_type_hints(ExperimentConfig)
    given = {"alpha_init": ("2", float), "cs_lambda": ("1", float),
             "data_dir": ("some/dir", str), "checkpoint_path": ("m.npgd", str),
             "phantom_phase": ("yes", bool)}
    for f in fields(ExperimentConfig):
        if f.name in given:
            text, want = given[f.name]
        else:
            want = hints[f.name]
            # whole-valued float defaults are written without a decimal point
            text = (str(int(f.default)) if want is float and f.default == int(f.default)
                    else str(f.default))
        value = getattr(parse_config_text(f"{f.name} = {text}"), f.name)
        assert type(value) is want, (f.name, text, value)
    assert parse_config_text("phantom_phase = off").phantom_phase is False


def test_unmappable_annotation_fails_loudly():
    from typing import List, Optional, Union

    from npgd.config import _value_parser
    for annotation in (List[int], Optional[list], Union[int, str], bytes):
        with pytest.raises(TypeError):
            _value_parser(annotation)


def test_comments_and_blanks_ignored():
    cfg = parse_config_text("# a comment\n\nepochs = 3  # trailing\n")
    assert cfg.epochs == 3


def test_sweep_grid_parsing():
    assert parse_sweep_grid("1:1, 3:2") == [(1, 1), (3, 2)]
    with pytest.raises(ConfigError):
        parse_sweep_grid("1-1")
    with pytest.raises(ConfigError):
        parse_sweep_grid("0:1")


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


def test_pgm_p2_reading(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
    plane = read_pgm(path)
    assert plane.shape == (2, 2)
    assert plane[1, 0] == pytest.approx(1.0)
    assert plane[0, 1] == pytest.approx(128 / 255)


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


# ---------------------------------------------------------------------------
# phantoms


def test_phantoms_deterministic_and_bounded():
    a = generate_dataset(5, 32, PhantomSpec(), seed=9)
    b = generate_dataset(5, 32, PhantomSpec(), seed=9)
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)
    for x in a:
        assert x.shape == (2, 32, 32) and x.dtype == np.float32
        assert magnitude(x).max() <= 1.0 + 1e-6
        assert not x[1].any()  # no phase by default


def test_phantoms_with_phase_are_complex():
    spec = PhantomSpec(phase=True)
    x = generate_dataset(1, 32, spec, seed=10)[0]
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergent_training_exits_1(tmp_path):
    diverging = TINY_MRI.replace("epochs = 2", "epochs = 40") + "lr = 1e12\n" \
        + "normalization = none\n"
    cfg_path = _write(tmp_path / "c.cfg", diverging)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1


def test_missing_checkpoint_path_exits_2(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    assert main(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("NPGD_OUT", str(env_out))
    assert main(["gendata", "--config", cfg_path]) == 0
    assert env_out.exists() and len(os.listdir(env_out)) == 16


def test_seed_flag_changes_artifacts(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    a, b, c = (tmp_path / n for n in ("s1", "s2", "s3"))
    assert main(["gendata", "--config", cfg_path, "--out", str(a), "--seed", "1"]) == 0
    assert main(["gendata", "--config", cfg_path, "--out", str(b), "--seed", "1"]) == 0
    assert main(["gendata", "--config", cfg_path, "--out", str(c), "--seed", "2"]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)
    assert _dir_bytes(a) != _dir_bytes(c)


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
    op, _ = build_operator(cfg)
    expected = []
    for i, x_true in enumerate(test_set):
        _, residuals = reconstruct(net, alpha, op, op.apply(x_true), cfg.unroll_t)
        expected += [f"{i},{t},{r:.9g}" for t, r in enumerate(residuals, start=1)]
    assert len(expected) == 2 * 2
    assert lines[1:] == expected


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
    assert (an / "aggregate.csv").read_text().splitlines()[0] == \
        "t,nrmse_mean,nrmse_std,eta1_mean,eta1_std,eta2_mean,eta2_std"
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
    op, _ = build_operator(cfg)
    for i, x_true in enumerate(test_set):
        y = op.apply(x_true)
        x_t = unrolled_forward(net, op, y, 3, alpha).final
        masks = capture_masks(net, gradient_step(x_t, y, alpha, op))
        res = debias(net, masks, op, alpha, y, x_t)
        assert lines[1 + i] == (
            f"{i},{int(res.converged)},{int(res.diverged)},{res.iterations},"
            f"{norm(y - op.apply(x_t)):.9g},{norm(y - op.apply(res.x)):.9g}")


def test_threads_do_not_change_metrics(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    rec_cfg = _write(tmp_path / "r.cfg",
                     TINY_MRI + f"checkpoint_path = {out / 'checkpoint.npgd'}\n")
    for command, name in (("reconstruct", "metrics.csv"), ("baseline", "cs_metrics.csv")):
        blobs = []
        for threads in ("1", "2"):
            run_out = tmp_path / f"{command}-{threads}"
            assert main([command, "--config", rec_cfg, "--out", str(run_out),
                         "--threads", threads]) == 0
            blobs.append((run_out / name).read_bytes())
        assert blobs[0] == blobs[1]


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


@pytest.mark.parametrize("blob, code", [
    (_checkpoint_blob(dims=(0xFFFFFFFF,) * 4), 1),          # CorruptionError
    (_checkpoint_blob(name=b"\xff\xfe"), 2),                # FormatError
    (_checkpoint_blob(entries=_bad_key_entry(), n_entries=1), 2),
], ids=["dims-overflow", "record-name-not-utf8", "key-not-utf8"])
def test_malformed_checkpoint_exits_cleanly(tmp_path, capsys, blob, code):
    ckpt = tmp_path / "bad.npgd"
    ckpt.write_bytes(blob)
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"checkpoint_path = {ckpt}\n")
    assert main(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("blob, code", [
    (b"P2\n2 1\n255\n1 x\n", 1),                            # CorruptionError
    (b"P5\n# range a b\n1 1\n255\n\0", 2),                  # FormatError
    (b"P5\n# range nan inf\n1 1\n255\n\0", 2),
    (b"P5\n-8 -8\n255\n\0", 2),
    (b"P2\n-8 -8\n255\n1\n", 2),
    (b"P5\n0 4\n255\n", 2),
], ids=["p2-non-numeric-sample", "range-comment-not-numbers", "range-not-finite",
        "p5-negative-size", "p2-negative-size", "p5-zero-width"])
def test_malformed_pgm_exits_cleanly(tmp_path, capsys, blob, code):
    data = tmp_path / "data"
    data.mkdir()
    (data / "img.pgm").write_bytes(blob)
    cfg_path = _write(tmp_path / "c.cfg", TINY_MRI + f"data_dir = {data}\n")
    assert main(["gendata", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("npgd: error:") and err.count("\n") == 1
    assert "img.pgm" in err and "Traceback" not in err
