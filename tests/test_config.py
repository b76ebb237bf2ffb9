from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from stegadapt.adapt import TrainConfig
from stegadapt.config import DataConfig, EvalConfig, ExperimentConfig, config_from_dict, load_config
from stegadapt.encoder import EncoderConfig
from stegadapt.head import HeadConfig

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Every accepted key of every section, each set away from its default.
EVERY_KEY = {
    "data": {
        "domains": {"A": "a.txt"},
        "dataset_dirs": {"B": "b"},
        "lm_order": 1,
        "alpha": 0.25,
        "min_freq": 1,
        "max_len": 10,
        "train": 5,
        "val": 2,
        "test": 3,
        "bpw": 2,
        "coding": "vlc",
        "payload_bits": [2, 6],
        "seed": 3,
    },
    "encoder": {"kind": "precomputed", "d_h": 8, "features_path": "f.jsonl"},
    "head": {"hidden": 4, "dropout_keep": 0.75},
    "train": {
        "lr": 0.01,
        "batch_size": 4,
        "pretrain_epochs": 3,
        "finetune_rounds": 2,
        "eval_batch_size": 32,
    },
    "schedule": {"p": 0.25},
    "eval": {"seeds": [7, 8]},
}
SECTION_CLASSES = {
    "data": DataConfig,
    "encoder": EncoderConfig,
    "head": HeadConfig,
    "train": TrainConfig,
    "schedule": TrainConfig,
    "eval": EvalConfig,
}


def test_bundled_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert {p.name for p in paths} >= {"desk.json", "quick.json"}
    for path in paths:
        cfg = load_config(path)
        assert cfg.data.domain_tags() == sorted(json.loads(path.read_text())["data"]["domains"])


def test_every_key_maps_to_its_field():
    assert config_from_dict(EVERY_KEY) == ExperimentConfig(
        data=DataConfig(
            domains={"A": "a.txt"}, dataset_dirs={"B": "b"}, lm_order=1, alpha=0.25, min_freq=1, max_len=10,
            train=5, val=2, test=3, bpw=2, coding="vlc", payload_bits=(2, 6), seed=3,
        ),
        encoder=EncoderConfig(kind="precomputed", d_h=8),
        head=HeadConfig(d_h=8, hidden=4, dropout_keep=0.75),
        train=TrainConfig(
            lr=0.01, batch_size=4, pretrain_epochs=3, finetune_rounds=2, eval_batch_size=32, expansion=0.25,
        ),
        eval=EvalConfig(seeds=(7, 8)),
        features_path="f.jsonl",
    )


@pytest.mark.parametrize("section", sorted(EVERY_KEY))
def test_section_rejects_every_other_field_name(section):
    others = {f.name for f in fields(SECTION_CLASSES[section])} - set(EVERY_KEY[section])
    for name in sorted(others | {"typo_key"}):
        raw = {**EVERY_KEY, section: {**EVERY_KEY[section], name: 1}}
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) in config section '{section}': \\['{name}'\\]"):
            config_from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("data", "train", "many"),
        ("data", "train", True),
        ("data", "train", 2.0),
        ("data", "alpha", "0.5"),
        ("data", "payload_bits", 16),
        ("data", "payload_bits", [16, 4.5]),
        ("data", "domains", ["a.txt"]),
        ("data", "domains", {"A": 3}),
        ("encoder", "features_path", 5),
        ("head", "dropout_keep", False),
        ("schedule", "p", "0.25"),
        ("eval", "seeds", 3),
    ],
)
def test_value_of_the_wrong_type_rejected(section, key, value):
    raw = {**EVERY_KEY, section: {**EVERY_KEY[section], key: value}}
    with pytest.raises(ValueError, match=f"config key '{key}' in section '{section}' has the wrong type"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("train", "eval_batch_size", 0, "train.eval_batch_size"),
        ("train", "eval_batch_size", -4, "train.eval_batch_size"),
        ("train", "lr", 0, "train.lr"),
        ("train", "lr", -0.01, "train.lr"),
        ("train", "lr", float("nan"), "train.lr"),
        ("train", "lr", float("inf"), "train.lr"),
        ("schedule", "p", 0, "schedule.p"),
        ("schedule", "p", 1, "schedule.p"),
        ("schedule", "p", 1.5, "schedule.p"),
        ("schedule", "p", -0.25, "schedule.p"),
        ("schedule", "p", float("nan"), "schedule.p"),
        ("data", "payload_bits", [], "data.payload_bits"),
        ("data", "payload_bits", [8], "data.payload_bits"),
        ("data", "payload_bits", [2, 6, 8], "data.payload_bits"),
        ("data", "payload_bits", [0, 4], "data.payload_bits"),
        ("data", "payload_bits", [9, 4], "data.payload_bits"),
        ("data", "payload_bits", [4, 11], "data.payload_bits"),  # above data.max_len = 10
        ("data", "bpw", 0, "data.bpw"),
        ("data", "bpw", 6, "data.bpw"),
        ("data", "coding", "zzz", "data.coding"),
        ("data", "lm_order", 0, "data.lm_order"),
        ("data", "alpha", -0.5, "data.alpha"),
        ("data", "alpha", float("nan"), "data.alpha"),
        ("data", "alpha", float("inf"), "data.alpha"),
        ("data", "min_freq", 0, "data.min_freq"),
        ("data", "train", -1, "data.train"),
        ("data", "val", -1, "data.val"),
        ("data", "test", -1, "data.test"),
    ],
)
def test_out_of_range_value_rejected_at_load(section, key, value, field):
    raw = {**EVERY_KEY, section: {**EVERY_KEY[section], key: value}}
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "encoder, message",
    [
        ({"kind": "precomputed", "d_h": 8}, "encoder.kind 'precomputed' needs encoder.features_path"),
        ({"kind": "builtin", "d_h": 8, "features_path": "f.jsonl"}, "encoder.features_path is only read when"),
        ({"d_h": 8, "features_path": "f.jsonl"}, "encoder.features_path is only read when"),
    ],
    ids=["precomputed-without-store", "builtin-with-store", "default-kind-with-store"],
)
def test_encoder_kind_and_features_path_must_agree(encoder, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        config_from_dict({**EVERY_KEY, "encoder": encoder})


def test_section_that_is_not_an_object_rejected():
    for value in (3, "data", [], None):
        with pytest.raises(ValueError, match="config section 'head' must be an object"):
            config_from_dict({**EVERY_KEY, "head": value})


def test_int_accepted_as_float_and_list_as_tuple():
    raw = {**EVERY_KEY, "data": {**EVERY_KEY["data"], "alpha": 1}, "schedule": {"p": 0.5}}
    cfg = config_from_dict(raw)
    assert cfg.data.alpha == 1.0 and cfg.data.payload_bits == (2, 6) and cfg.eval.seeds == (7, 8)


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config section"):
        config_from_dict({**EVERY_KEY, "optimizer": {}})


def test_data_only_config_takes_the_dataclass_defaults():
    assert config_from_dict({"data": {"domains": {"A": "a.txt"}}}) == ExperimentConfig(
        data=DataConfig(domains={"A": "a.txt"}),
        encoder=EncoderConfig(),
        head=HeadConfig(),
        train=TrainConfig(),
        eval=EvalConfig(),
    )


@pytest.mark.parametrize("section", ["domains", "dataset_dirs"])
@pytest.mark.parametrize("tag", ["../../escape", "a/b", "a.b", ".", "", "a__b", "-a", "a-", "a b", "é"])
def test_domain_tag_outside_the_pattern_rejected(section, tag):
    with pytest.raises(ValueError, match=f"data domain tag {re.escape(repr(tag))} must match"):
        DataConfig(**{section: {tag: "x"}})


def test_domain_tags_of_letters_digits_and_single_separators_accepted():
    tags = ["H", "O", "T1", "news-2020", "web_text", "a-b_c"]
    assert DataConfig(domains={tag: "x" for tag in tags}).domain_tags() == sorted(tags)
