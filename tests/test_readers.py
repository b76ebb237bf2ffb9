"""Truncated and mutated files fed to every reader of a package file.

Each reader either loads the damaged file or raises a package error or
``ValueError``; nothing else may escape, so the CLI turns every bad file into
an ``error:`` line and exit code 1.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegadapt.config import load_config
from stegadapt.corpus import COVER, STEGO, DomainDataset, TextSample, dataset_from_jsonl, dataset_to_jsonl
from stegadapt.encoder import EncoderConfig, load_precomputed
from stegadapt.errors import CheckpointError, StegadaptError
from stegadapt.head import HeadConfig
from stegadapt.model import Classifier, load_checkpoint, save_checkpoint
from feature_store import save_precomputed

_STRUCTURAL = b'{}[]",:-.0123456789eE \n'


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` cut at a drawn length, then with up to four bytes overwritten."""
    data = bytearray(valid[: draw(st.integers(0, len(valid)))])
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255) | st.sampled_from(_STRUCTURAL))
    return bytes(data)


def _reads_or_fails_cleanly(read, *args) -> None:
    try:
        read(*args)
    except (StegadaptError, ValueError):
        pass


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of one small valid file per reader, and a directory to write damaged copies to."""
    root = tmp_path_factory.mktemp("valid")
    cover = [TextSample(f"c{i}", (4 + i, 5, 6), COVER, "H") for i in range(3)]
    stego = [TextSample(f"s{i}", (4 + i, 6), STEGO, "H", bpw=2) for i in range(3)]
    parts = [part for i in range(3) for part in (cover[i : i + 1], stego[i : i + 1])]
    dataset_to_jsonl(DomainDataset("H", *parts), root / "samples.jsonl", root / "splits.jsonl")
    save_precomputed({"a": [[0.5, -1.0, 2.0]], "b": [[1, 2, 3], [4, 5, 6]]}, d_h=3, path=root / "features.jsonl")
    config = {
        "data": {"domains": {"A": "a.txt"}, "lm_order": 1, "payload_bits": [2, 6]},
        "encoder": {"d_h": 4},
        "head": {"hidden": 2},
        "train": {"lr": 0.01, "eval_batch_size": 32},
        "schedule": {"p": 0.25},
        "eval": {"seeds": [7, 8]},
    }
    (root / "config.json").write_text(json.dumps(config))
    model = Classifier.build(EncoderConfig(d_h=4), HeadConfig(d_h=4, hidden=2), seed=0, vocab_size=8)
    save_checkpoint(root / "model.npz", model)
    names = ("samples.jsonl", "splits.jsonl", "features.jsonl", "config.json", "model.npz")
    return {name: (root / name).read_bytes() for name in names}, tmp_path_factory.mktemp("damaged")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_damaged_dataset_files(valid_files, data):
    valid, out = valid_files
    for name in ("samples.jsonl", "splits.jsonl"):
        (out / name).write_bytes(data.draw(st.just(valid[name]) | damaged(valid[name]), label=name))
    _reads_or_fails_cleanly(dataset_from_jsonl, out / "samples.jsonl", out / "splits.jsonl")


@pytest.mark.parametrize(
    "name, read",
    [("features.jsonl", load_precomputed), ("config.json", load_config), ("model.npz", load_checkpoint)],
    ids=["load_precomputed", "load_config", "load_checkpoint"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_damaged_file(valid_files, name, read, data):
    valid, out = valid_files
    (out / name).write_bytes(data.draw(damaged(valid[name])))
    _reads_or_fails_cleanly(read, out / name)


def test_checkpoint_with_an_unsupported_compression_method_is_checkpoint_error(valid_files):
    valid, out = valid_files
    data = bytearray(valid["model.npz"])
    entry = data.index(b"PK\x01\x02")  # the first central-directory entry
    data[entry + 10 : entry + 12] = (99).to_bytes(2, "little")  # its compression method
    (out / "model.npz").write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="not a readable .npz archive"):
        load_checkpoint(out / "model.npz")
