#!/usr/bin/env python3
"""SHA-256 digest of every file a cold ``gen-data`` writes into its data cache.

It runs a cold ``prepare_data`` of the config into a temporary directory,
prints one ``<relative path> <sha256>`` line per file written there (paths
relative to that directory, sorted) and a last ``all`` line over those
lines, then reloads the warm cache. If the warm datasets or vocabulary
differ from the cold ones, it says so and exits 1. The directory is removed
either way. Run from the repository root:

    PYTHONPATH=src python3 tools/cache_digest.py configs/desk.json

Two checkouts, or two CPU counts, whose lines agree write the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from stegadapt.config import load_config
from stegadapt.experiment import prepare_data


def file_digests(root: Path) -> list[str]:
    """``<path relative to root> <sha256>`` for every file under ``root``, sorted by path."""
    files = sorted(path for path in root.rglob("*") if path.is_file())
    return [f"{path.relative_to(root).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}" for path in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config JSON")
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    with tempfile.TemporaryDirectory(prefix="cache_digest.") as tmp:
        cold = prepare_data(cfg, tmp)
        lines = file_digests(Path(tmp))
        warm = prepare_data(cfg, tmp)
    text = "".join(line + "\n" for line in lines)
    print(f"{text}all {hashlib.sha256(text.encode()).hexdigest()}")
    if (warm.datasets, warm.vocab) != (cold.datasets, cold.vocab):
        print("the warm reload differs from the cold datasets", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
