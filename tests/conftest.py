import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))


def write_toy_corpus(path, content_words, seed, n_lines=250):
    """Synthetic prose: shared function-word frame, domain-specific content."""
    rng = np.random.default_rng(seed)
    starts = ["the", "a", "every", "one"]
    verbs = ["held", "kept", "found", "moved", "took"]
    lines = []
    for _ in range(n_lines):
        a, b = rng.choice(content_words, size=2)
        line = f"{rng.choice(starts)} {a} {rng.choice(verbs)} the {b} ."
        if rng.random() < 0.5:
            c = rng.choice(content_words)
            line += f" it was {c} ."
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def tiny_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpora")
    sea = "tide harbor mast sail gull rope deck wave storm anchor buoy chart".split()
    farm = "plow seed barn wheat fence mule crop field grain cart well trough".split()
    return (
        write_toy_corpus(root / "sea.txt", sea, seed=11),
        write_toy_corpus(root / "farm.txt", farm, seed=22),
    )


@pytest.fixture(scope="session")
def tiny_config_dict(tiny_corpora):
    sea, farm = tiny_corpora
    return {
        "data": {
            "domains": {"S": str(sea), "F": str(farm)},
            "lm_order": 1,
            "alpha": 0.5,
            "min_freq": 1,
            "max_len": 24,
            "train": 12,
            "val": 4,
            "test": 4,
            "bpw": 1,
            "coding": "flc",
            "payload_bits": [4, 10],
            "seed": 0,
        },
        "encoder": {"d_h": 12},
        "head": {"hidden": 6},
        "train": {"lr": 0.01, "batch_size": 8, "pretrain_epochs": 2, "finetune_rounds": 2},
        "schedule": {"p": 0.5},
        "eval": {"seeds": [0]},
    }
