from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from stegadapt.corpus import TextSample
from stegadapt.encoder import EncoderConfig
from stegadapt.errors import CheckpointError
from stegadapt.head import HeadConfig
from stegadapt.model import Classifier, config_hash, load_checkpoint, predicted_labels, save_checkpoint
from oracles import models_equal


def _samples(n, seed=0, vocab_size=20):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        tokens = tuple(int(t) for t in rng.integers(4, vocab_size, int(rng.integers(2, 9))))
        out.append(TextSample(id=f"s{i}", tokens=tokens, label=None, domain="M"))
    return out


def _model(seed=0, **head_kwargs):
    return Classifier.build(
        EncoderConfig(d_h=12, seed=seed),
        HeadConfig(d_h=12, hidden=5, **head_kwargs),
        seed=seed,
        vocab_size=20,
    )


def test_build_checks_dimension_agreement():
    with pytest.raises(ValueError):
        Classifier.build(EncoderConfig(d_h=8), HeadConfig(d_h=16, hidden=4), seed=0, vocab_size=20)


def test_predict_is_order_stable_and_batch_invariant():
    model = _model()
    samples = _samples(23)
    full = model.predict(samples, batch_size=256)
    chunked = model.predict(samples, batch_size=5)
    np.testing.assert_allclose(full, chunked, atol=1e-12)
    assert full.shape == (23, 2)
    np.testing.assert_allclose(full.sum(axis=1), 1.0, atol=1e-9)


def test_predicted_labels_tie_breaks_to_cover():
    probs = np.array([[0.5, 0.5], [0.4, 0.6], [0.7, 0.3]])
    np.testing.assert_array_equal(predicted_labels(probs), [0, 1, 0])


def test_clone_is_independent():
    model = _model()
    twin = model.clone()
    assert models_equal(model, twin)
    twin.head.tensors["cls.b"][:] += 1.0
    assert not models_equal(model, twin)


def test_trainable_tensors_respect_stage():
    model = _model()
    pretrain = model.trainable_tensors(True)
    finetune = model.trainable_tensors(False)
    assert "encoder.embedding" in pretrain
    assert "encoder.embedding" not in finetune
    assert any(k.startswith("head.") for k in finetune)


def test_checkpoint_roundtrip_restores_bit_identical_outputs(tmp_path):
    model = _model(seed=4)
    samples = _samples(9, seed=1)
    before = model.predict(samples, 256)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, extra={"stage": "pretrain", "val_acc": 0.75})
    restored, meta = load_checkpoint(path)
    after = restored.predict(samples, 256)
    assert before.tobytes() == after.tobytes()
    assert models_equal(model, restored)
    assert meta["extra"]["stage"] == "pretrain"
    assert meta["head_config"] == asdict(model.head.config)
    assert meta["encoder_config"] == asdict(model.encoder.config)
    assert "hashes" not in meta


def test_checkpoint_with_component_hashes_in_its_meta_still_loads(tmp_path):
    """Earlier files also hold a ``hashes`` entry, which loading never read."""
    model = _model(seed=5)
    samples = _samples(9, seed=2)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    with np.load(path) as archive:
        arrays = dict(archive)
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["hashes"] = {
        "encoder": config_hash({"kind": "builtin", "d_h": model.encoder.d_h}),
        "head": config_hash(asdict(model.head.config)),
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    restored, loaded = load_checkpoint(path)
    assert loaded["hashes"] == meta["hashes"]
    assert models_equal(model, restored)
    assert restored.predict(samples, 4).tobytes() == model.predict(samples, 4).tobytes()


def test_checkpoint_without_optimizer(tmp_path):
    model = _model(seed=2)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    with np.load(path) as archive:
        names = set(archive.files)
    assert names == {f"head.{k}" for k in model.head.tensors} | {"encoder.embedding", "meta"}
    _, meta = load_checkpoint(path)
    assert "adam_step" not in meta


def _meta_bytes(meta):
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda arrays: arrays.pop("meta"), "missing entry 'meta'"),
        (lambda arrays: arrays.pop("head.gate.w"), "missing entry 'head.gate.w'"),
        (lambda arrays: arrays.update(meta=np.frombuffer(b"{not json", dtype=np.uint8)), "bad metadata"),
        (lambda arrays: arrays.update(meta=_meta_bytes([1])), "bad metadata"),
        (lambda arrays: arrays.update(meta=_meta_bytes({"version": 99})), "unsupported checkpoint version 99"),
        (lambda arrays: arrays.update({"head.gate.w": np.zeros((3, 3))}), r"head tensors \['gate.w'\]"),
        (lambda arrays: arrays.update(meta=_meta_bytes({"version": 1})), "unsupported checkpoint version 1"),
    ],
)
def test_malformed_checkpoint_raises_checkpoint_error(tmp_path, damage, message):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, _model(seed=3))
    with np.load(path) as archive:
        arrays = dict(archive)
    damage(arrays)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert info.value.path == path


def test_interrupted_checkpoint_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "adapted.npz"
    save_checkpoint(path, _model(seed=1))
    before = path.read_bytes()

    def savez_fails_partway(fh, **arrays):
        fh.write(b"PK\x03\x04 truncated")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_fails_partway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _model(seed=2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adapted.npz"]


def test_component_hashes_isolate_ablated_field():
    base = _model(seed=0)
    gated_off = _model(seed=0, gate_bypass=True)
    assert base.encoder.config == gated_off.encoder.config
    assert replace(base.head.config, gate_bypass=True) == gated_off.head.config != base.head.config
