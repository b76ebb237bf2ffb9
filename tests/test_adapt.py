from __future__ import annotations

import numpy as np
import pytest

from stegadapt.adapt import (
    PseudoLabel,
    PseudoPool,
    TrainConfig,
    estimate_pseudo_labels,
    evaluate_model,
    finetune,
    pretrain,
    schedule_sizes,
    select_balanced,
    select_candidates,
)
from stegadapt.corpus import TextSample, strip_labels
from stegadapt.encoder import EncoderConfig
from stegadapt.head import HeadConfig
from stegadapt.model import Classifier, load_checkpoint, save_checkpoint
from oracles import encoder_checksum, models_equal


# ---------------------------------------------------------------------------
# schedule_sizes
# ---------------------------------------------------------------------------


def test_schedule_matches_recurrence_exactly():
    assert schedule_sizes(0.1, 2000, 10) == tuple(range(200, 2001, 200))


def test_schedule_caps_at_pool_size():
    assert schedule_sizes(0.5, 10, 4) == (5, 10, 10, 10)


def test_schedule_single_round():
    assert schedule_sizes(0.1, 37, 1) == (4,)  # ceil(3.7)


def test_schedule_rejects_bad_expansion():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            schedule_sizes(bad, 100, 5)


def test_schedule_monotone_and_capped():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = float(rng.uniform(0.01, 0.99))
        n = int(rng.integers(1, 500))
        t = int(rng.integers(1, 20))
        sizes = schedule_sizes(p, n, t)
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= n
        if np.ceil(p * n) * t >= n:
            assert sizes[-1] == n


# ---------------------------------------------------------------------------
# pseudo labels and selection
# ---------------------------------------------------------------------------


def _toy_samples(n, vocab_size=12, seed=0, domain="T", labeled=None):
    """Two token dialects: label-0 samples use ids {4,5}, label-1 use {6,7}."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        low, high = (4, 6) if label == 0 else (6, 8)
        tokens = tuple(int(t) for t in rng.integers(low, high, 6))
        keep_label = labeled is None or labeled
        out.append(
            TextSample(
                id=f"{domain}{i:03d}",
                tokens=tokens,
                label=label if keep_label else None,
                domain=domain,
                bpw=1 if keep_label and label == 1 else None,
            )
        )
    return out


def _toy_model(seed=0):
    return Classifier.build(
        EncoderConfig(d_h=8, seed=seed),
        HeadConfig(d_h=8, hidden=4),
        seed=seed,
        vocab_size=12,
    )


def test_estimate_pseudo_labels_totality_and_argmax():
    model = _toy_model()
    samples = strip_labels(_toy_samples(9))
    pool = estimate_pseudo_labels(model, samples, 256)
    assert len(pool) == 9
    probs = model.predict(samples, 256)
    for entry, p in zip(pool.entries, probs):
        assert entry.confidence == pytest.approx(p.max())
        assert 0.5 <= entry.confidence <= 1.0
        assert entry.label == (1 if p[1] > p[0] else 0)


def test_estimate_pseudo_labels_tie_goes_to_cover():
    model = _toy_model()
    model.head.tensors["cls.w"][:] = 0.0
    model.head.tensors["cls.b"][:] = 0.0
    pool = estimate_pseudo_labels(model, strip_labels(_toy_samples(3)), 256)
    assert all(e.label == 0 and e.confidence == 0.5 for e in pool.entries)


def _pool_from(confs, ids=None, labels=None):
    ids = ids or [f"id{i}" for i in range(len(confs))]
    labels = labels or [0] * len(confs)
    return PseudoPool(tuple(PseudoLabel(i, l, c) for i, l, c in zip(ids, labels, confs)))


def test_select_candidates_top_k():
    pool = _pool_from([0.99, 0.7, 0.95], ids=["a", "b", "c"])
    selected = select_candidates(pool, 2)
    assert [e.sample_id for e in selected] == ["a", "c"]


def test_select_candidates_all_ties_lexicographic():
    pool = _pool_from([0.8, 0.8, 0.8, 0.8], ids=["d", "b", "c", "a"])
    selected = select_candidates(pool, 2)
    assert [e.sample_id for e in selected] == ["a", "b"]


def test_select_candidates_clips_with_warning():
    pool = _pool_from([0.9, 0.8])
    with pytest.warns(UserWarning):
        selected = select_candidates(pool, 5)
    assert len(selected) == 2


def test_select_candidates_matches_sort_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        confs = np.round(rng.uniform(0.5, 1.0, n), 2).tolist()  # rounding forces ties
        pool = _pool_from(confs)
        m = int(rng.integers(0, n + 1))
        selected = select_candidates(pool, m)
        oracle = sorted(confs, reverse=True)[:m]
        assert sorted((e.confidence for e in selected), reverse=True) == oracle


def _class_oracle(pool, label, k):
    """The full-sort oracle restricted to one pseudo-class."""
    ranked = sorted(pool.entries, key=lambda e: (-e.confidence, e.sample_id))
    return [e.sample_id for e in ranked if e.label == label][:k]


def test_select_balanced_splits_a_one_class_top_by_pool_share():
    # The 8 most confident entries are all cover; a quarter of the pool is stego.
    confs = [0.99 - 0.01 * i for i in range(30)] + [0.6 - 0.01 * i for i in range(10)]
    labels = [0] * 30 + [1] * 10
    pool = _pool_from(confs, ids=[f"s{i:02d}" for i in range(40)], labels=labels)
    assert {e.label for e in select_candidates(pool, 8)} == {0}
    selected = select_balanced(pool, 8)
    assert len(selected) == 8
    assert [e.sample_id for e in selected if e.label == 0] == _class_oracle(pool, 0, 6)
    assert [e.sample_id for e in selected if e.label == 1] == _class_oracle(pool, 1, 2)


def test_select_balanced_matches_per_class_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        confs = np.round(rng.uniform(0.5, 1.0, n), 2).tolist()  # rounding forces ties
        ids = [f"s{int(i):02d}" for i in rng.permutation(n)]
        labels = [int(l) for l in rng.random(n) < rng.uniform(0.0, 1.0)]
        pool = _pool_from(confs, ids=ids, labels=labels)
        m = int(rng.integers(0, n + 1))
        selected = select_balanced(pool, m)
        assert len(selected) == m
        assert list(selected) == sorted(selected, key=lambda e: (-e.confidence, e.sample_id))
        k = sum(e.label for e in selected)
        assert [e.sample_id for e in selected if e.label == 0] == _class_oracle(pool, 0, m - k)
        assert [e.sample_id for e in selected if e.label == 1] == _class_oracle(pool, 1, k)
        n_stego = sum(labels)
        if 0 < n_stego < n and m >= 2:
            assert 1 <= k <= m - 1
        if k not in (1, m - 1):
            assert abs(k - m * n_stego / n) <= 0.5


def test_select_balanced_one_class_pool_takes_all_from_it():
    pool = _pool_from([0.9, 0.7, 0.8, 0.6], labels=[1, 1, 1, 1])
    selected = select_balanced(pool, 3)
    assert [e.sample_id for e in selected] == ["id0", "id2", "id1"]


def test_select_balanced_clips_with_the_select_candidates_warning():
    pool = _pool_from([0.9, 0.8, 0.7], labels=[0, 1, 0])
    with pytest.warns(UserWarning) as balanced_warning:
        selected = select_balanced(pool, 5)
    with pytest.warns(UserWarning) as plain_warning:
        select_candidates(pool, 5)
    assert len(selected) == 3
    assert [str(w.message) for w in balanced_warning] == [str(w.message) for w in plain_warning]


def test_select_balanced_rejects_labels_outside_cover_and_stego():
    with pytest.raises(ValueError, match="pseudo-labels"):
        select_balanced(_pool_from([0.9, 0.8], labels=[0, 2]), 1)


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def _toy_cfg(**kwargs):
    defaults = dict(lr=0.01, batch_size=8, pretrain_epochs=30, finetune_rounds=4, expansion=0.3, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def test_pretrain_separable_toy_reaches_perfect_validation():
    model = _toy_model()
    train = _toy_samples(40, seed=1)
    val = _toy_samples(16, seed=2)
    result = pretrain(model, train, val, _toy_cfg())
    assert max(rec["val_acc"] for rec in result.log) == 1.0
    assert result.best_val_score == 1.0
    assert evaluate_model(result.model, val, 256).acc == 1.0


def test_pretrain_zero_epochs_returns_initial_params():
    model = _toy_model()
    result = pretrain(model, _toy_samples(8), _toy_samples(4), _toy_cfg(pretrain_epochs=0))
    assert result.log == [] and result.best_index is None
    assert models_equal(result.model, model)


def test_pretrain_deterministic():
    a = pretrain(_toy_model(), _toy_samples(16), _toy_samples(8), _toy_cfg(pretrain_epochs=5))
    b = pretrain(_toy_model(), _toy_samples(16), _toy_samples(8), _toy_cfg(pretrain_epochs=5))
    assert a.log == b.log
    assert models_equal(a.model, b.model)


def test_pretrain_rejects_unlabeled_samples():
    bad = _toy_samples(4) + strip_labels(_toy_samples(2, seed=9, domain="U"))
    with pytest.raises(ValueError, match="unlabeled"):
        pretrain(_toy_model(), bad, _toy_samples(4), _toy_cfg(pretrain_epochs=1))


def test_pretrain_does_not_mutate_input_and_trains_embedding():
    model = _toy_model()
    table_before = model.encoder.table.copy()
    result = pretrain(model, _toy_samples(16), _toy_samples(8), _toy_cfg(pretrain_epochs=2))
    np.testing.assert_array_equal(model.encoder.table, table_before)
    assert not np.array_equal(result.model.encoder.table, table_before)


def test_pretrain_model_selection_ties_to_earliest():
    model = _toy_model()
    result = pretrain(model, _toy_samples(40, seed=1), _toy_samples(16, seed=2), _toy_cfg())
    first_best = next(rec["epoch"] for rec in result.log if rec["val_acc"] == result.best_val_score)
    assert result.best_index == first_best


def test_pretrain_keeps_float64_master_weights_and_moments(monkeypatch, tmp_path):
    """The head computes in float32; Adam, the weights and checkpoints stay float64."""
    import stegadapt.adapt as adapt_module

    seen = []
    real_step = adapt_module.adam_step

    def step(params, grads, state, lr):
        seen.append(({name: g.dtype for name, g in grads.items()}, state))
        return real_step(params, grads, state, lr=lr)

    monkeypatch.setattr(adapt_module, "adam_step", step)
    result = pretrain(_toy_model(), _toy_samples(16), _toy_samples(8), _toy_cfg(pretrain_epochs=1))
    model = result.model
    masters = model.trainable_tensors(True)
    assert all(tensor.dtype == np.float64 for tensor in masters.values())
    expected = {name: np.float64 if name == "encoder.embedding" else np.float32 for name in masters}
    assert [grad_dtypes for grad_dtypes, _ in seen] == [expected, expected]
    state = seen[-1][1]
    assert state.m.keys() == state.v.keys() == masters.keys()
    assert all(moment.dtype == np.float64 for moments in (state.m, state.v) for moment in moments.values())

    samples = _toy_samples(9, seed=3)
    probs = model.predict(samples, 256)
    assert probs.dtype == np.float64
    save_checkpoint(tmp_path / "ckpt.npz", model)
    restored, _ = load_checkpoint(tmp_path / "ckpt.npz")
    assert all(tensor.dtype == np.float64 for tensor in restored.trainable_tensors(True).values())
    assert restored.predict(samples, 256).tobytes() == probs.tobytes()


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def test_finetune_zero_rounds_is_identity():
    model = _toy_model()
    pool = strip_labels(_toy_samples(12, seed=3))
    result = finetune(model, pool, _toy_samples(6, seed=4), _toy_cfg(finetune_rounds=0))
    assert result.log == []
    assert models_equal(result.model, model)


def test_finetune_rejects_empty_or_labeled_pool():
    model = _toy_model()
    with pytest.raises(ValueError):
        finetune(model, [], _toy_samples(4), _toy_cfg())
    with pytest.raises(ValueError, match="unlabeled"):
        finetune(model, _toy_samples(4), _toy_samples(4), _toy_cfg())


def test_finetune_round_log_matches_schedule():
    model = _toy_model()
    pool = strip_labels(_toy_samples(20, seed=3))
    cfg = _toy_cfg(finetune_rounds=4, expansion=0.3)
    result = finetune(model, pool, _toy_samples(8, seed=4), cfg)
    assert [rec["round"] for rec in result.log] == [1, 2, 3, 4]
    assert [rec["m"] for rec in result.log] == list(schedule_sizes(0.3, 20, 4))
    assert result.log[0]["churn"] == 0.0
    assert all(0.0 <= rec["churn"] <= 1.0 for rec in result.log)
    assert all(0.5 <= rec["mean_confidence"] <= 1.0 for rec in result.log)
    assert all(0 <= rec["selected_stego"] <= rec["m"] for rec in result.log)


def test_finetune_keeps_encoder_frozen():
    start = pretrain(_toy_model(), _toy_samples(16), _toy_samples(8), _toy_cfg(pretrain_epochs=2)).model
    checksum_before = encoder_checksum(start.encoder)
    result = finetune(start, strip_labels(_toy_samples(20, seed=5)), _toy_samples(8, seed=6), _toy_cfg())
    assert encoder_checksum(result.model.encoder) == checksum_before


def test_finetune_reports_globally_best_round():
    val = _toy_samples(8, seed=6)
    start = pretrain(_toy_model(), _toy_samples(24), _toy_samples(8), _toy_cfg(pretrain_epochs=3)).model
    result = finetune(start, strip_labels(_toy_samples(20, seed=5)), val, _toy_cfg())
    assert result.best_val_score >= max(rec["val_acc"] for rec in result.log)
    assert evaluate_model(result.model, val, 256).acc == result.best_val_score


def test_finetune_initial_checkpoint_competes_by_default():
    val = _toy_samples(8, seed=6)
    start = pretrain(_toy_model(), _toy_samples(24), _toy_samples(8), _toy_cfg(pretrain_epochs=3)).model
    start_val = evaluate_model(start, val, 256).acc
    result = finetune(start, strip_labels(_toy_samples(20, seed=5)), val, _toy_cfg())
    assert result.best_val_score >= start_val
    if result.best_index == 0:
        assert models_equal(result.model, start)


def test_finetune_deterministic_and_input_untouched():
    start = _toy_model()
    pool = strip_labels(_toy_samples(20, seed=5))
    val = _toy_samples(8, seed=6)
    snapshot = start.clone()
    a = finetune(start, pool, val, _toy_cfg())
    b = finetune(start, pool, val, _toy_cfg())
    assert a.log == b.log
    assert models_equal(a.model, b.model)
    assert models_equal(start, snapshot)


def test_finetune_reestimates_pseudo_labels_every_round(monkeypatch):
    """Round t pseudo-labels the pool with the model trained through round t - 1."""
    import stegadapt.adapt as adapt_module

    events = []
    real_estimate, real_train = adapt_module.estimate_pseudo_labels, adapt_module._train_one_epoch

    def estimate(model, samples, batch_size):
        events.append(("estimate", model.clone()))
        return real_estimate(model, samples, batch_size)

    def train(model, *args):
        loss = real_train(model, *args)
        events.append(("train", model.clone()))
        return loss

    monkeypatch.setattr(adapt_module, "estimate_pseudo_labels", estimate)
    monkeypatch.setattr(adapt_module, "_train_one_epoch", train)
    start = _toy_model()
    finetune(start, strip_labels(_toy_samples(20, seed=5)), _toy_samples(8, seed=6), _toy_cfg(finetune_rounds=3))
    assert [kind for kind, _ in events] == ["estimate", "train"] * 3
    assert models_equal(events[0][1], start)
    for t in (1, 2):
        estimated = events[2 * t][1]
        assert models_equal(estimated, events[2 * t - 1][1])
        assert not models_equal(estimated, events[2 * t - 2][1])
