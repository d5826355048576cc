"""Regenerate the fixed checkpoint that the mri-eval workload reconstructs with.

    python3 perfbench/make_checkpoint.py          # write fixtures/mri_resnet.npgd
    python3 perfbench/make_checkpoint.py --check  # regenerate, compare bytes

The model is the acceptance criterion-4 resnet (1 block, 32 maps, instance
norm, relu, T=10) trained through ``npgd train`` with the criterion-4
budget: 180 images, 8 epochs, batch 2, one BLAS thread. That takes about
ten minutes on one core and is paid once, offline; the benchmark only
loads the result and checks it against ``fixtures/mri_resnet.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURE = os.path.join(HERE, "fixtures", "mri_resnet.npgd")
MANIFEST = os.path.join(HERE, "fixtures", "mri_resnet.json")
WORK = os.path.join(ROOT, ".perfbench_work", "make_checkpoint")

TRAIN_CONFIG = {
    "task": "mri", "image_size": 64, "mask_rate": 0.2,
    "mask_center_fraction": 0.04, "mask_decay": 3.0, "mask_seed": 1,
    "data_num": 200, "holdout": 20, "data_seed": 7,
    "arch": "resnet", "num_res_blocks": 1, "feature_maps": 32,
    "activation": "relu", "normalization": "instance", "unroll_t": 10,
    "lr": 0.001, "lr_halve_every": 400, "epochs": 8, "batch_size": 2,
    "train_seed": 3, "threads": 1,
}

def config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def digests(blob: bytes) -> dict:
    return {"sha256": hashlib.sha256(blob).hexdigest(),
            "crc32_body": f"{zlib.crc32(blob[:-4]) & 0xFFFFFFFF:08x}",
            "bytes": len(blob)}


def train_once(out_dir: str) -> bytes:
    from envinfo import check_blas, pin_blas

    pin_blas()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from npgd import cli

    check_blas()
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "train.cfg")
    with open(cfg, "w") as fh:
        fh.write(config_text(TRAIN_CONFIG))
    if cli.main(["train", "--config", cfg, "--out", out_dir]) != 0:
        raise SystemExit("npgd train failed")
    with open(os.path.join(out_dir, "checkpoint.npgd"), "rb") as fh:
        return fh.read()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and require byte identity with the fixture")
    args = parser.parse_args()
    work = WORK + ("_check" if args.check else "")
    blob = train_once(work)
    shutil.rmtree(work, ignore_errors=True)
    if args.check:
        with open(FIXTURE, "rb") as fh:
            stored = fh.read()
        same = stored == blob
        print(json.dumps({"identical": same, "fixture": digests(stored),
                          "regenerated": digests(blob)}))
        return 0 if same else 1
    with open(FIXTURE, "wb") as fh:
        fh.write(blob)
    with open(MANIFEST, "w") as fh:
        json.dump(dict(digests(blob), train_config=TRAIN_CONFIG), fh, indent=1)
        fh.write("\n")
    print(json.dumps(digests(blob)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
