"""Encoder + head bundle, batched inference, and checkpoint files.

Inference forks per call: :meth:`Classifier.predict` deals its batches over
at most one process per usable CPU through ``parallel._forked_map`` and
returns the same bits as one process computing every batch in order.

Checkpoints are numpy ``.npz`` archives holding every head tensor, the
builtin encoder's embedding table, and a JSON metadata record with the
component configs. Restoring a checkpoint reproduces
eval-mode forward outputs bit for bit; a file that cannot be restored raises
:class:`~stegadapt.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TextSample, atomic_open
from .encoder import BuiltinEncoder, EncoderConfig, PrecomputedEncoder
from .errors import CheckpointError
from .head import HeadConfig, HeadParams, forward_batch, init_params
from .parallel import _forked_map

CHECKPOINT_VERSION = 2
COMPUTE_DTYPE = np.float32


def config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class Classifier:
    """A steganalysis detector: frozen-or-trainable encoder plus the head.

    ``head`` and the encoder's embedding table are the float64 master
    weights: Adam updates them and checkpoints store them. Training and
    inference compute in ``COMPUTE_DTYPE`` (float32) on a copy from
    :meth:`compute_head`, made once per :meth:`predict` call and once per
    training batch; only the class probabilities come back in float64.
    """

    encoder: BuiltinEncoder | PrecomputedEncoder
    head: HeadParams

    @classmethod
    def build(
        cls,
        encoder_config: EncoderConfig,
        head_config: HeadConfig,
        seed: int,
        vocab_size: int | None = None,
        store: dict | None = None,
    ) -> "Classifier":
        if head_config.d_h != encoder_config.d_h:
            raise ValueError("encoder and head disagree on d_h")
        config = replace(encoder_config, seed=seed)
        encoder = BuiltinEncoder(config, vocab_size) if config.kind == "builtin" else PrecomputedEncoder(config, store)
        head = init_params(head_config, seed=np.random.SeedSequence([seed, 0x4EAD]))
        return cls(encoder=encoder, head=head)

    def clone(self) -> "Classifier":
        return Classifier(encoder=self.encoder.clone(), head=self.head.clone())

    def trainable_tensors(self, train_encoder: bool) -> dict[str, np.ndarray]:
        """The head's tensors, plus the builtin embedding table when ``train_encoder``."""
        tensors = {f"head.{k}": v for k, v in self.head.tensors.items()}
        if train_encoder and isinstance(self.encoder, BuiltinEncoder):
            tensors["encoder.embedding"] = self.encoder.table
        return tensors

    def compute_head(self) -> HeadParams:
        """A ``COMPUTE_DTYPE`` copy of the head for forward and backward passes."""
        return self.head.astype(COMPUTE_DTYPE)

    def forward_samples(
        self,
        samples: Sequence[TextSample],
        head: HeadParams,
        mode: str = "eval",
        dropout_rng: np.random.Generator | None = None,
    ):
        """Encode and run one batch through ``head``; returns the trace plus the padded id matrix."""
        feats, lengths, ids = self.encoder.encode_batch(samples)
        trace = forward_batch(feats, lengths, head, mode=mode, dropout_rng=dropout_rng)
        return trace, ids

    def predict(self, samples: Sequence[TextSample], batch_size: int, return_pooled: bool = False):
        """Eval-mode class probabilities (float64) for many samples, in input order.

        With ``return_pooled`` the pooled features come back too, in the
        compute dtype. The batches are ``batch_size`` consecutive samples,
        dealt over this process and forked children by ``_forked_map``; each
        batch is computed alone, so the bits do not depend on where it ran.
        With one CPU or one batch, without ``os.fork``, while other threads
        run or inside another map, every batch runs in this process.
        """
        if not samples:
            raise ValueError("predict needs at least one sample")
        head = self.compute_head()

        def batch(start: int):
            trace, _ = self.forward_samples(samples[start : start + batch_size], head, mode="eval")
            return (trace.probs, trace.pooled_raw) if return_pooled else trace.probs

        outputs = _forked_map(batch, range(0, len(samples), batch_size))
        if return_pooled:
            probs, pooled = zip(*outputs)
            return np.concatenate(probs, axis=0), np.concatenate(pooled, axis=0)
        return np.concatenate(outputs, axis=0)


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax with the fixed tie rule: equal probabilities resolve to cover."""
    return (probs[:, 1] > probs[:, 0]).astype(np.int64)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, model: Classifier, extra: dict | None = None) -> None:
    enc = model.encoder
    meta = {
        "version": CHECKPOINT_VERSION,
        "head_config": asdict(model.head.config),
        "encoder_config": asdict(enc.config),
        "vocab_size": getattr(enc, "vocab_size", None),
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {f"head.{k}": v for k, v in model.head.tensors.items()}
    if isinstance(enc, BuiltinEncoder):
        arrays["encoder.embedding"] = enc.table
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path, store: dict | None = None) -> tuple[Classifier, dict]:
    """Rebuild the model from a file; returns it with the metadata record.

    ``store`` supplies the feature store for precomputed-encoder checkpoints;
    the store itself is never serialized. A missing, truncated or foreign
    file, a missing entry, bad metadata JSON, an unknown version or a head
    tensor of the wrong shape raises :class:`CheckpointError` naming the file.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
    except (OSError, EOFError, ValueError, TypeError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise CheckpointError(path, f"not a readable .npz archive ({exc})") from exc
    try:
        meta = json.loads(bytes(arrays["meta"]).decode())
        if not isinstance(meta, dict):
            raise TypeError("metadata is not a JSON object")
        if meta["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(path, f"unsupported checkpoint version {meta['version']!r}")
        head_config = HeadConfig(**meta["head_config"])
        enc_config = EncoderConfig(**meta["encoder_config"])
        reference = init_params(head_config, 0).tensors
        head_tensors = {name: arrays[f"head.{name}"] for name in reference}
        misshapen = [name for name, tensor in reference.items() if head_tensors[name].shape != tensor.shape]
        if misshapen:
            raise ValueError(f"head tensors {misshapen} do not match head_config")
        if enc_config.kind == "builtin":
            encoder = BuiltinEncoder(enc_config, meta["vocab_size"], table=arrays["encoder.embedding"])
        else:
            encoder = PrecomputedEncoder(enc_config, store or {})
    except KeyError as exc:
        raise CheckpointError(path, f"missing entry {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CheckpointError(path, f"bad metadata ({exc})") from exc
    return Classifier(encoder=encoder, head=HeadParams(head_config, head_tensors)), meta

