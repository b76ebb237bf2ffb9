"""Writer of the precomputed feature-store format.

``stegadapt.encoder.load_precomputed`` reads what ``save_precomputed`` writes:
a header line ``{"d_h": N}``, then one ``{"id": ..., "h": [[...], ...]}``
record per sample with rows exactly ``d_h`` wide. Use it to export features
from an external encoder for ``encoder.kind = "precomputed"``:

    import sys; sys.path.insert(0, "tools")
    from feature_store import save_precomputed
    save_precomputed({"H-cover-00000": matrix, ...}, d_h=64, path="features.jsonl")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np


def save_precomputed(store: dict[str, Iterable], d_h: int, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"d_h": d_h}) + "\n")
        for sid in store:
            rows = np.asarray(store[sid], dtype=np.float64)
            fh.write(json.dumps({"id": sid, "h": rows.tolist()}) + "\n")
