"""Writer of the precomputed feature-store format.

``stegadapt.encoder.load_precomputed`` reads what ``save_precomputed`` writes:
a header line ``{"d_h": N}``, then one ``{"h": [[...], ...], "id": ...}``
record per sample with rows exactly ``d_h`` wide. Use it to export features
from an external encoder for ``encoder.kind = "precomputed"``, with ``src``
and ``tools`` on the import path:

    import sys; sys.path[:0] = ["src", "tools"]
    from feature_store import save_precomputed
    save_precomputed({"H-cover-00000": matrix, ...}, d_h=64, path="features.jsonl")
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterable

import numpy as np

from stegadapt.corpus import write_jsonl


def save_precomputed(store: dict[str, Iterable], d_h: int, path: str | Path) -> None:
    records = ({"id": sid, "h": np.asarray(rows, dtype=np.float64).tolist()} for sid, rows in store.items())
    write_jsonl(itertools.chain([{"d_h": d_h}], records), path)
