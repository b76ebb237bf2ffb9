"""Two-stage training: source pretraining, then pseudo-label self-training.

Stage one fits the detector on labeled source data with per-epoch validation
checkpointing. Stage two adapts it to an unlabeled target pool: each round
re-estimates pseudo-labels with the current model, keeps ``m_t`` of them
under a progressively growing schedule, trains one epoch on them, and tracks
the best target-validation checkpoint. The ``m_t`` are picked per class
(class-balanced self-training, Zou et al., ECCV 2018): each pseudo-class
gets its share of the pool and contributes its most confident entries, so a
round never trains on one class alone. Labels on the target validation
split are used for model selection and reporting only, never for gradient
updates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import COVER, STEGO, TextSample
from .head import AdamState, adam_step, backward_batch, batch_loss_ce
from .metrics import Metrics, compute_metrics
from .model import Classifier, predicted_labels


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 16
    pretrain_epochs: int = 50
    finetune_rounds: int = 10
    expansion: float = 0.1
    seed: int = 0
    eval_batch_size: int = 256

    def __post_init__(self):
        for name in ("batch_size", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be >= 1, got {getattr(self, name)}")
        if self.pretrain_epochs < 0 or self.finetune_rounds < 0:
            raise ValueError("epoch and round counts must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"train.lr must be finite and > 0, got {self.lr}")
        if not 0 < self.expansion < 1:
            raise ValueError(f"schedule.p (the expansion factor) must be in (0, 1), got {self.expansion}")


@dataclass(frozen=True)
class PseudoLabel:
    sample_id: str
    label: int
    confidence: float


@dataclass(frozen=True)
class PseudoPool:
    """One pseudo-label entry per target-train sample."""

    entries: tuple[PseudoLabel, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class TrainResult:
    model: Classifier
    log: list[dict]
    best_index: int | None
    best_val_score: float | None


def schedule_sizes(expansion: float, n_target: int, rounds: int) -> tuple[int, ...]:
    """Progressive pseudo-label budget: grow by ceil(expansion * n_target), capped.

    The per-round step snaps float noise away before the ceiling so exact
    products like 0.1 * 2000 stay at 200.
    """
    if not 0.0 < expansion < 1.0:
        raise ValueError(f"expansion factor must be in (0, 1), got {expansion}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    step = max(1, math.ceil(expansion * n_target - 1e-9))
    sizes = []
    m = 0
    for _ in range(rounds):
        m = min(n_target, m + step)
        sizes.append(m)
    return tuple(sizes)


def estimate_pseudo_labels(model: Classifier, samples: Sequence[TextSample], batch_size: int) -> PseudoPool:
    """Argmax prediction and its probability for every sample, in input order."""
    probs = model.predict(samples, batch_size=batch_size)
    labels = predicted_labels(probs)
    confidence = probs.max(axis=1)
    entries = tuple(
        PseudoLabel(sample_id=s.id, label=int(l), confidence=float(c))
        for s, l, c in zip(samples, labels, confidence)
    )
    return PseudoPool(entries)


def _rank_key(entry: PseudoLabel) -> tuple[float, str]:
    return (-entry.confidence, entry.sample_id)


def _clipped(m: int, pool: PseudoPool) -> int:
    if m > len(pool):
        warnings.warn(f"requested {m} candidates from a pool of {len(pool)}; clipping")
        return len(pool)
    return m


def select_candidates(pool: PseudoPool, m: int) -> tuple[PseudoLabel, ...]:
    """Top-m entries by confidence descending, ties by sample id ascending."""
    return tuple(sorted(pool.entries, key=_rank_key)[: _clipped(m, pool)])


def select_balanced(pool: PseudoPool, m: int) -> tuple[PseudoLabel, ...]:
    """Class-balanced top-m: each pseudo-class gets its pool share of ``m``.

    Exactly ``min(m, len(pool))`` entries. The stego part has
    ``round(m * n_stego / len(pool))`` entries (halves round up), moved into
    ``[1, m - 1]`` when both classes are in the pool and ``m >= 2``, so that
    neither class is left out; the cover part has the rest. Each part is
    ``select_candidates`` run on that class's entries, and the result is
    ranked by the same rule.
    """
    m = _clipped(m, pool)
    cover = PseudoPool(tuple(e for e in pool.entries if e.label == COVER))
    stego = PseudoPool(tuple(e for e in pool.entries if e.label == STEGO))
    if len(cover) + len(stego) != len(pool):
        raise ValueError(f"pseudo-labels must be {COVER} or {STEGO}")
    if m == 0:
        return ()
    k = (2 * m * len(stego) + len(pool)) // (2 * len(pool))
    if cover and stego and m >= 2:
        k = min(max(k, 1), m - 1)
    parts = select_candidates(cover, m - k) + select_candidates(stego, k)
    return tuple(sorted(parts, key=_rank_key))


def _train_one_epoch(
    model: Classifier,
    pairs: Sequence[tuple[TextSample, int]],
    train_encoder: bool,
    cfg: TrainConfig,
    optimizer: AdamState,
    shuffle_rng: np.random.Generator,
    dropout_rng: np.random.Generator,
) -> float:
    order = shuffle_rng.permutation(len(pairs))
    trainable = model.trainable_tensors(train_encoder)
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        batch = [pairs[i] for i in order[start : start + cfg.batch_size]]
        samples = [s for s, _ in batch]
        labels = [y for _, y in batch]
        head = model.compute_head()
        trace, ids = model.forward_samples(samples, head, mode="train", dropout_rng=dropout_rng)
        losses.append(batch_loss_ce(trace.probs, labels))
        head_grads, d_features = backward_batch(trace, labels, head)
        grads = {f"head.{k}": g for k, g in head_grads.items()}
        if "encoder.embedding" in trainable:
            grads.update(model.encoder.gradient_tensors(ids, d_features, trace.lengths))
        adam_step(trainable, grads, optimizer, lr=cfg.lr)
    return float(np.mean(losses)) if losses else 0.0


def evaluate_model(model: Classifier, samples: Sequence[TextSample], batch_size: int) -> Metrics:
    labels = [s.label for s in samples]
    if any(l is None for l in labels):
        raise ValueError("evaluation samples must be labeled")
    probs = model.predict(samples, batch_size=batch_size)
    return compute_metrics(predicted_labels(probs), labels)


def _labeled_pairs(samples: Sequence[TextSample]) -> list[tuple[TextSample, int]]:
    pairs = []
    for s in samples:
        if s.label is None:
            raise ValueError(f"sample {s.id!r} is unlabeled but labeled training data is required")
        pairs.append((s, s.label))
    return pairs


def _train_stage(
    model: Classifier,
    val_samples: Sequence[TextSample],
    cfg: TrainConfig,
    rounds: Callable[[Classifier], Iterable[tuple[list, dict]]],
    pretraining: bool,
) -> TrainResult:
    """Train a clone of ``model`` one epoch per round and keep the best-val-ACC checkpoint.

    ``rounds(work)`` yields each round's training pairs and log fields; it may
    read ``work``, the clone, as trained through the round before. Ties keep
    the earliest round. ``pretraining`` alone decides the rest: only then does
    a builtin encoder's table train; round ``i`` (from 1) shuffles and drops
    out from the seed streams ``(cfg.seed, s, i)`` and ``(cfg.seed, s + 1, i)``
    with ``s`` 11, or 21 in finetuning, where the start competes as round 0.
    """
    stream = 11 if pretraining else 21
    work = model.clone()
    best = work.clone()
    best_acc = best_index = None
    if not pretraining:
        best_acc, best_index = evaluate_model(work, val_samples, cfg.eval_batch_size).acc, 0
    optimizer = AdamState()
    log: list[dict] = []
    for index, (pairs, fields) in enumerate(rounds(work), start=1):
        shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream, index]))
        dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream + 1, index]))
        train_loss = _train_one_epoch(work, pairs, pretraining, cfg, optimizer, shuffle_rng, dropout_rng)
        val = evaluate_model(work, val_samples, cfg.eval_batch_size)
        log.append({**fields, "train_loss": train_loss, "val_acc": val.acc, "val_f1": val.f1})
        if best_acc is None or val.acc > best_acc:
            best, best_acc, best_index = work.clone(), val.acc, index
    return TrainResult(model=best, log=log, best_index=best_index, best_val_score=best_acc)


def pretrain(
    model: Classifier,
    train_samples: Sequence[TextSample],
    val_samples: Sequence[TextSample],
    cfg: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam over shuffled epochs; returns the best-val-ACC checkpoint.

    Ties keep the earliest epoch. The input model is never mutated; with zero
    epochs the result is an untouched copy and an empty log.
    """
    pairs = _labeled_pairs(train_samples)
    if not pairs:
        raise ValueError("source training data is empty")
    epochs = lambda work: ((pairs, {"epoch": epoch}) for epoch in range(1, cfg.pretrain_epochs + 1))
    return _train_stage(model, val_samples, cfg, epochs, pretraining=True)


def finetune(
    model: Classifier,
    target_pool: Sequence[TextSample],
    target_val: Sequence[TextSample],
    cfg: TrainConfig,
) -> TrainResult:
    """Progressive pseudo-label self-training on an unlabeled target pool.

    Round t pseudo-labels the whole pool with the model trained through
    round t - 1, then trains one epoch on the ``m_t`` entries that
    ``select_balanced`` picks from them, the same top fraction of each
    pseudo-class, and logs how many of them are pseudo-labelled stego
    (``selected_stego``). The returned checkpoint is the best
    target-validation ACC model seen across the whole stage; the stage's
    starting checkpoint competes too (round index 0), so a run whose
    self-training rounds all degrade falls back to where it started. With
    zero rounds the input checkpoint comes back unchanged (the no-adaptation
    ablation).
    """
    if not target_pool:
        raise ValueError("target pool is empty")
    if any(s.label is not None for s in target_pool):
        raise ValueError("target pool must be unlabeled; strip labels first")
    if cfg.finetune_rounds == 0:
        return TrainResult(model=model.clone(), log=[], best_index=None, best_val_score=None)
    samples_by_id = {s.id: s for s in target_pool}
    schedule = schedule_sizes(cfg.expansion, len(target_pool), cfg.finetune_rounds)

    def pseudo_rounds(work: Classifier):
        previous = None
        for round_idx, m_t in enumerate(schedule, start=1):
            pool = estimate_pseudo_labels(work, target_pool, cfg.eval_batch_size)
            labels = [e.label for e in pool.entries]  # in pool order, every round
            churn = 0.0 if previous is None else sum(a != b for a, b in zip(previous, labels)) / len(labels)
            previous = labels
            selected = select_balanced(pool, m_t)
            fields = {
                "round": round_idx,
                "m": m_t,
                "selected_stego": sum(e.label == STEGO for e in selected),
                "mean_confidence": float(np.mean([e.confidence for e in selected])),
                "churn": churn,
            }
            yield [(samples_by_id[e.sample_id], e.label) for e in selected], fields

    return _train_stage(model, target_val, cfg, pseudo_rounds, pretraining=False)
