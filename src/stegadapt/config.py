"""One JSON config file drives every CLI command.

Sections: ``data`` (domain corpora and generation knobs), ``encoder``,
``head``, ``train``, ``schedule`` (pseudo-label expansion), and ``eval``.
Each section's keys and defaults are the fields of the dataclass that holds
it (``DataConfig``, ``EncoderConfig``, ``HeadConfig``, ``TrainConfig``,
``EvalConfig``); unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .adapt import TrainConfig
from .encoder import EncoderConfig
from .head import HeadConfig

@dataclass(frozen=True)
class DataConfig:
    domains: Mapping[str, str] = field(default_factory=dict)
    dataset_dirs: Mapping[str, str] = field(default_factory=dict)
    lm_order: int = 2
    alpha: float = 0.5
    min_freq: int = 2
    max_len: int = 64
    train: int = 2000
    val: int = 200
    test: int = 200
    bpw: int = 1
    coding: str = "flc"
    payload_bits: tuple[int, int] = (16, 48)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "domains", dict(self.domains))
        object.__setattr__(self, "dataset_dirs", dict(self.dataset_dirs))
        object.__setattr__(self, "payload_bits", tuple(self.payload_bits))
        if not self.domains and not self.dataset_dirs:
            raise ValueError("config needs data.domains (corpus files) or data.dataset_dirs")

    @property
    def sizes(self) -> dict[str, int]:
        return {"train": self.train, "val": self.val, "test": self.test}

    def domain_tags(self) -> list[str]:
        return sorted(set(self.domains) | set(self.dataset_dirs))


@dataclass(frozen=True)
class EvalConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("eval.seeds must be nonempty")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    encoder: EncoderConfig
    head: HeadConfig
    train: TrainConfig
    eval: EvalConfig
    features_path: str | None = None

    def data_fingerprint(self) -> dict:
        return {
            "domains": dict(sorted(self.data.domains.items())),
            "dataset_dirs": dict(sorted(self.data.dataset_dirs.items())),
            "lm_order": self.data.lm_order,
            "alpha": self.data.alpha,
            "min_freq": self.data.min_freq,
            "max_len": self.data.max_len,
            "sizes": self.data.sizes,
            "bpw": self.data.bpw,
            "coding": self.data.coding,
            "payload_bits": list(self.data.payload_bits),
            "seed": self.data.seed,
        }


# Config key -> TrainConfig field for the two ``schedule`` knobs.
_SCHEDULE_KEYS = {"p": "expansion", "reestimate": "reestimate_pseudo_labels"}


def _keys(cls, *not_keys: str) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls)) - set(not_keys)


# Accepted keys per section, derived from the dataclasses that hold the
# defaults. Seeds other than the data seed come from the run, the head's
# input width is the encoder's, and the gate bypass is the w-FF ablation.
_SECTION_KEYS = {
    "data": _keys(DataConfig),
    "encoder": _keys(EncoderConfig, "seed") | {"features_path"},
    "head": _keys(HeadConfig, "d_h", "gate_bypass"),
    "train": _keys(TrainConfig, "seed", *_SCHEDULE_KEYS.values()),
    "schedule": frozenset(_SCHEDULE_KEYS),
    "eval": _keys(EvalConfig),
}


def _section(raw: Mapping, name: str) -> dict:
    section = dict(raw.get(name, {}))
    unknown = set(section) - _SECTION_KEYS[name]
    if unknown:
        raise ValueError(f"unknown key(s) in config section '{name}': {sorted(unknown)}")
    return section


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")
    data = DataConfig(**_section(raw, "data"))
    encoder_kwargs = _section(raw, "encoder")
    features_path = encoder_kwargs.pop("features_path", None)
    encoder = EncoderConfig(**encoder_kwargs)
    head = HeadConfig(d_h=encoder.d_h, **_section(raw, "head"))
    schedule = {_SCHEDULE_KEYS[key]: value for key, value in _section(raw, "schedule").items()}
    train = TrainConfig(**_section(raw, "train"), **schedule)
    return ExperimentConfig(
        data=data,
        encoder=encoder,
        head=head,
        train=train,
        eval=EvalConfig(**_section(raw, "eval")),
        features_path=features_path,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    return config_from_dict(raw)
