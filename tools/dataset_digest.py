#!/usr/bin/env python3
"""SHA-256 digest of the datasets a config generates.

The digest covers every sample's id, token ids, label and bpw, in split order
(train, val, test; cover before stego) and domain-tag order, so two commits
whose digests agree generate byte-identical data. Run from the repository
root:

    PYTHONPATH=src python3 tools/dataset_digest.py configs/desk.json

It prints one line per generated domain and a last line for all of them.
Nothing is read from or written to a cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from stegadapt.config import load_config
from stegadapt.corpus import DomainDataset
from stegadapt.experiment import prepare_data


def dataset_digest(*datasets: DomainDataset) -> str:
    """Hex SHA-256 over (id, tokens, label, bpw) of every sample, in the given order."""
    digest = hashlib.sha256()
    for dataset in datasets:
        for s in dataset.train + dataset.val + dataset.test:
            digest.update(json.dumps([s.id, list(s.tokens), s.label, s.bpw]).encode() + b"\n")
    return digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config JSON")
    args = parser.parse_args(argv)
    datasets = prepare_data(load_config(args.config)).datasets
    tags = sorted(datasets)
    for tag in tags:
        print(f"{tag} {dataset_digest(datasets[tag])}")
    print(f"all {dataset_digest(*(datasets[tag] for tag in tags))}")


if __name__ == "__main__":
    main()
