"""One JSON config file drives every CLI command.

Sections: ``data`` (domain corpora and generation knobs), ``encoder``,
``head``, ``train``, ``schedule`` (its one key ``p`` sets
``TrainConfig.expansion``, the pseudo-label growth factor), and ``eval``.
Each section's keys and defaults are the fields of the dataclass that holds
it, beside the code that reads it (``DataConfig`` in ``stegogen``, ``EvalConfig``
here); unknown sections or keys, and values whose type differs from the field's
default, are rejected so typos fail loudly, and each dataclass checks its ranges.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping

from .adapt import TrainConfig
from .encoder import EncoderConfig
from .head import HeadConfig
from .stegogen import DataConfig


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


def _defaults(cls, *not_keys: str) -> dict:
    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
        if f.name not in not_keys
    }


# Accepted keys per section and their defaults, from the dataclasses that
# hold them. Seeds other than the data seed come from the run, the head's
# input width is the encoder's, and the gate bypass and the depth belong to
# the w-FF and w-SLB ablations.
_SECTION_DEFAULTS = {
    "data": _defaults(DataConfig),
    "encoder": _defaults(EncoderConfig, "seed") | {"features_path": None},
    "head": _defaults(HeadConfig, "d_h", "gate_bypass", "layers"),
    "train": _defaults(TrainConfig, "seed", "expansion"),
    "schedule": {"p": TrainConfig.expansion},
    "eval": _defaults(EvalConfig),
}


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of a field's default; a ``None`` default takes a string."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, dict):
        return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())
    return isinstance(value, type(default))


def _section(raw: Mapping, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section '{name}' must be an object, got {section!r}")
    defaults = _SECTION_DEFAULTS[name]
    unknown = set(section) - set(defaults)
    if unknown:
        raise ValueError(f"unknown key(s) in config section '{name}': {sorted(unknown)}")
    for key, value in section.items():
        if not _fits(value, defaults[key]):
            raise ValueError(
                f"config key '{key}' in section '{name}' has the wrong type: {value!r} (default {defaults[key]!r})"
            )
    return dict(section)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    unknown = set(raw) - set(_SECTION_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")
    data = DataConfig(**_section(raw, "data"))
    encoder_kwargs = _section(raw, "encoder")
    features_path = encoder_kwargs.pop("features_path", None)
    encoder = EncoderConfig(**encoder_kwargs)
    if encoder.kind == "precomputed" and features_path is None:
        raise ValueError("encoder.kind 'precomputed' needs encoder.features_path")
    if encoder.kind == "builtin" and features_path is not None:
        raise ValueError("encoder.features_path is only read when encoder.kind is 'precomputed', got 'builtin'")
    head = HeadConfig(d_h=encoder.d_h, **_section(raw, "head"))
    expansion = _section(raw, "schedule").get("p", TrainConfig.expansion)
    train = TrainConfig(**_section(raw, "train"), expansion=expansion)
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
