"""Command-line entry point.

    npgd genmask|gendata|train|reconstruct|baseline|analyze|sweep
         --config <path> [--out <dir>] [--seed N] [--threads N]

Output directory precedence: --out, then $NPGD_OUT, then the config's
out_dir. --seed overrides every seed in the config (data, mask, training)
for quick variation without editing files. Exit codes: 0 success, 1
runtime/numeric failure, 2 config/contract error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

from . import experiment
from .config import parse_config
from .errors import NpgdError

COMMANDS = ("genmask", "gendata", "train", "reconstruct", "baseline",
            "analyze", "sweep")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npgd")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def _resolve_out(args, cfg) -> str:
    if args.out:
        return args.out
    env = os.environ.get("NPGD_OUT")
    if env:
        return env
    return cfg.out_dir


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """On glibc, keep freed heap memory in the process.

    A training step frees and reallocates the same multi-megabyte arrays
    every sample. By default glibc serves such arrays with fresh mmaps, or
    trims the heap top once they are freed, and the kernel then zero-fills
    every page again. A fixed mmap threshold (32 MiB) and trim threshold
    (1 GiB) keep those pages for reuse. Idempotent; skipped silently where
    glibc's mallopt is missing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    log = lambda msg: print(msg, flush=True)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, data_seed=args.seed,
                                      mask_seed=args.seed, train_seed=args.seed)
        if args.threads is not None:
            cfg = dataclasses.replace(cfg, threads=args.threads)
        cfg.validate()
        out_dir = _resolve_out(args, cfg)
        getattr(experiment, f"run_{args.command}")(cfg, out_dir, log)
        return 0
    except NpgdError as exc:
        print(f"npgd: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"npgd: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
