"""Domain-common contextual features, frozen with respect to adaptation.

Two encoders satisfy the same contract: ``builtin`` sums a token embedding
table with fixed sinusoidal position codes; ``precomputed`` serves per-sample
feature matrices loaded from a file, standing in for features exported by a
large pretrained model. Neither decides when it trains:
``Classifier.trainable_tensors`` adds the builtin table during source
pretraining only, and a precomputed store is never trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PAD, UNK, TextSample, read_jsonl, reading
from .errors import CorpusError, FeatureLookupError, IntegrityError

@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "builtin"
    d_h: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("builtin", "precomputed"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.d_h < 2:
            raise ValueError(f"d_h must be >= 2, got {self.d_h}")


def sinusoidal_positions(length: int, d_h: int) -> np.ndarray:
    """Classic sin/cos position codes, shape (length, d_h)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    dims = np.arange(d_h, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(dims / 2.0) / d_h)
    codes = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return codes


class BuiltinEncoder:
    """Embedding table plus positions; the trainable half of the frozen contract."""

    kind = "builtin"

    def __init__(self, config: EncoderConfig, vocab_size: int | None, table: np.ndarray | None = None):
        if config.kind != "builtin":
            raise ValueError("config.kind must be 'builtin'")
        if vocab_size is None or vocab_size < 5:
            raise ValueError(f"vocab_size must cover the reserved ids plus one token, got {vocab_size}")
        self.config = config
        self.vocab_size = vocab_size
        if table is None:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE4B]))
            table = rng.uniform(-0.5, 0.5, size=(vocab_size, config.d_h))
        if table.shape != (vocab_size, config.d_h):
            raise ValueError(f"embedding table shape {table.shape} != {(vocab_size, config.d_h)}")
        self.table = np.asarray(table, dtype=np.float64)
        self._positions = sinusoidal_positions(512, config.d_h)

    @property
    def d_h(self) -> int:
        return self.config.d_h

    def _position_rows(self, length: int) -> np.ndarray:
        if length > self._positions.shape[0]:
            self._positions = sinusoidal_positions(length, self.config.d_h)
        return self._positions[:length]

    def encode_batch(self, samples: Sequence[TextSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded feature tensor (B, T, d_h), lengths, and the padded id matrix.

        The batch's ids are cleaned in one pass over their concatenation:
        an id outside the table reads UNK's row.
        """
        seqs = [s.tokens for s in samples]
        lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        width = int(lengths.max())
        flat = np.asarray([tok for seq in seqs for tok in seq])
        if flat.dtype.kind not in "iu":
            raise TypeError("builtin encoder needs token ids; encode samples with a vocab first")
        flat = flat.astype(np.int64)
        mask = np.arange(width)[None, :] < lengths[:, None]
        ids = np.full((len(samples), width), PAD, dtype=np.int64)
        ids[mask] = np.where((flat < 0) | (flat >= self.vocab_size), UNK, flat)
        feats = self.table[ids] + self._position_rows(width)[None, :, :]
        feats[~mask] = 0.0
        return feats, lengths, ids

    def gradient_tensors(self, ids: np.ndarray, d_features: np.ndarray, lengths: np.ndarray) -> dict[str, np.ndarray]:
        """Accumulate feature gradients into embedding-row gradients."""
        grad = np.zeros_like(self.table)
        mask = np.arange(ids.shape[1])[None, :] < lengths[:, None]
        np.add.at(grad, ids[mask], d_features[mask].astype(grad.dtype))  # mixed dtypes take a slow loop
        grad[PAD] = 0.0
        return {"encoder.embedding": grad}

    def clone(self) -> "BuiltinEncoder":
        return BuiltinEncoder(self.config, self.vocab_size, table=self.table.copy())


class PrecomputedEncoder:
    """Serves stored per-sample feature matrices, keyed by sample id."""

    kind = "precomputed"

    def __init__(self, config: EncoderConfig, store: dict[str, np.ndarray] | None):
        if config.kind != "precomputed":
            raise ValueError("config.kind must be 'precomputed'")
        if store is None:
            raise ValueError("precomputed encoder needs a feature store")
        self.config = config
        self.store = store
        for sid, matrix in store.items():
            if matrix.ndim != 2 or matrix.shape[1] != config.d_h:
                raise ValueError(f"stored matrix for {sid!r} has width {matrix.shape}, expected d_h={config.d_h}")

    @property
    def d_h(self) -> int:
        return self.config.d_h

    def encode(self, sample: TextSample) -> np.ndarray:
        if sample.id not in self.store:
            raise FeatureLookupError(f"no precomputed features for sample id {sample.id!r}")
        return self.store[sample.id]

    def encode_batch(self, samples: Sequence[TextSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        matrices = [self.encode(s) for s in samples]
        lengths = np.array([m.shape[0] for m in matrices], dtype=np.int64)
        width = int(lengths.max())
        feats = np.zeros((len(samples), width, self.config.d_h))
        for row, m in enumerate(matrices):
            feats[row, : m.shape[0]] = m
        ids = np.full((len(samples), width), PAD, dtype=np.int64)
        return feats, lengths, ids

    def clone(self) -> "PrecomputedEncoder":
        return PrecomputedEncoder(self.config, self.store)


def load_precomputed(path: str | Path) -> tuple[dict[str, np.ndarray], int | None]:
    """Read a line-delimited feature store.

    The first record is a header declaring ``d_h``; the rest carry
    ``{"id": ..., "h": [[...], ...]}`` with finite rows of exactly that width.
    Any other record raises :class:`CorpusError` naming the file and line.
    Returns the store and the declared width (None for an empty file).
    """
    store: dict[str, np.ndarray] = {}
    d_h: int | None = None
    with reading(path):
        for lineno, rec in read_jsonl(path):
            if d_h is None:
                if "d_h" not in rec:
                    raise CorpusError("first record must be a header declaring d_h", line=lineno)
                d_h = rec["d_h"]
                if type(d_h) is not int or d_h < 2:
                    raise CorpusError(f"header d_h must be an integer >= 2, got {d_h!r}", line=lineno)
                continue
            if "id" not in rec or "h" not in rec:
                raise CorpusError("feature records need 'id' and 'h'", line=lineno)
            sid = str(rec["id"])
            if sid in store:
                raise IntegrityError(f"duplicate feature id {sid!r} at line {lineno}")
            try:
                rows = np.asarray(rec["h"], dtype=np.float64)
            except (TypeError, ValueError):
                rows = None
            if rows is None or rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != d_h:
                raise CorpusError(f"feature rows for {sid!r} are not uniformly d_h={d_h} wide", line=lineno)
            if not np.isfinite(rows).all():
                raise CorpusError(f"feature rows for {sid!r} hold a non-finite value", line=lineno)
            store[sid] = rows
    return store, d_h
