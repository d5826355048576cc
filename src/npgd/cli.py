"""Command-line entry point.

    npgd genmask|gendata|train|reconstruct|baseline|analyze|sweep
         --config <path> [--out <dir>]

Every setting comes from the config file; --out, if given, replaces its
out_dir. Exit codes: 0 success, 1 runtime/numeric failure, interrupt or
out of memory, 2 config/contract error, command-line errors included.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import experiment
from .config import parse_config
from .errors import ConfigError, NpgdError

COMMANDS = ("genmask", "gendata", "train", "reconstruct", "baseline",
            "analyze", "sweep")


class _Parser(argparse.ArgumentParser):
    """Ends a command-line error like any ConfigError: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="npgd")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    return parser


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
    log = lambda msg: print(msg, flush=True)
    command = "npgd"
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        cfg = parse_config(args.config)
        getattr(experiment, f"run_{command}")(cfg, args.out or cfg.out_dir, log)
        return 0
    except NpgdError as exc:
        print(f"npgd: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"npgd: i/o error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("npgd: error: interrupted", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"npgd: error: out of memory in {command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
