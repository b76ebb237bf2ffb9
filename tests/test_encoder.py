from __future__ import annotations

import re

import numpy as np
import pytest

from stegadapt.corpus import PAD, TextSample, UNK
from stegadapt.encoder import (
    BuiltinEncoder,
    EncoderConfig,
    PrecomputedEncoder,
    load_precomputed,
    sinusoidal_positions,
)
from stegadapt.errors import CorpusError, FeatureLookupError, IntegrityError
from stegadapt.head import HeadConfig
from stegadapt.model import Classifier
from feature_store import save_precomputed
from oracles import encode_single, encoder_checksum


def _sample(tokens, sid="s0"):
    return TextSample(id=sid, tokens=tokens, label=None, domain="M")


def _classifier(kind="builtin", seed=0, **sources):
    """A d_h = 8 model whose encoder ``Classifier.build`` makes from ``vocab_size`` or ``store``."""
    return Classifier.build(EncoderConfig(kind=kind, d_h=8), HeadConfig(d_h=8, hidden=4), seed=seed, **sources)


def _features(enc, tokens):
    """The (len(tokens), d_h) features ``encode_batch`` gives a one-sample batch."""
    return enc.encode_batch([_sample(tokens)])[0][0]


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(kind="builtin", d_h=1)
    with pytest.raises(ValueError):
        EncoderConfig(kind="transformer")


def test_builtin_unk_rows_differ_only_by_positions():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=1), vocab_size=10)
    h = _features(enc, (UNK, UNK))
    pos = sinusoidal_positions(2, 8)
    np.testing.assert_allclose(h[0] - h[1], pos[0] - pos[1])


def test_builtin_out_of_range_ids_use_unk_row():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=1), vocab_size=10)
    h_oov = _features(enc, (999,))
    h_unk = _features(enc, (UNK,))
    np.testing.assert_array_equal(h_oov, h_unk)


def test_builtin_shape_contract_and_empty_error():
    from types import SimpleNamespace

    enc = BuiltinEncoder(EncoderConfig(d_h=16, seed=0), vocab_size=12)
    assert _features(enc, (4, 5, 6)).shape == (3, 16)
    with pytest.raises(ValueError):
        enc.encode_batch([SimpleNamespace(id="x", tokens=())])
    with pytest.raises(TypeError):
        enc.encode_batch([_sample(("surface", "tokens"))])


def test_builtin_position_sensitivity():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=2), vocab_size=10)
    fwd = _features(enc, (4, 5, 6))
    rev = _features(enc, (6, 5, 4))
    assert not np.allclose(fwd, rev)


def test_builtin_deterministic_by_seed():
    a = BuiltinEncoder(EncoderConfig(d_h=8, seed=7), vocab_size=10)
    b = BuiltinEncoder(EncoderConfig(d_h=8, seed=7), vocab_size=10)
    np.testing.assert_array_equal(a.table, b.table)
    assert encoder_checksum(a) == encoder_checksum(b)


def test_builtin_frozen_checksum_stable_under_encoding():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=0), vocab_size=10)
    before = encoder_checksum(enc)
    enc.encode_batch([_sample((4,)), _sample((5, 6, 7), sid="s1")])
    assert encoder_checksum(enc) == before


def test_builtin_batch_matches_single_encoding():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=3), vocab_size=10)
    samples = [_sample((4, 5, 6), "a"), _sample((7,), "b")]
    feats, lengths, ids = enc.encode_batch(samples)
    assert feats.shape == (2, 3, 8)
    np.testing.assert_array_equal(lengths, [3, 1])
    np.testing.assert_allclose(feats[0], encode_single(enc, samples[0]))
    np.testing.assert_allclose(feats[1, :1], encode_single(enc, samples[1]))
    np.testing.assert_array_equal(feats[1, 1:], 0.0)


def test_builtin_batch_cleans_negative_and_out_of_vocab_ids():
    enc = BuiltinEncoder(EncoderConfig(d_h=8, seed=4), vocab_size=10)
    samples = [_sample((4, -1, 12), "a"), _sample((10,), "b"), _sample((-7, 5, 6, 9, 99), "c"), _sample((3, 2), "d")]
    feats, lengths, ids = enc.encode_batch(samples)
    np.testing.assert_array_equal(lengths, [3, 1, 5, 2])
    np.testing.assert_array_equal(
        ids,
        [[4, UNK, UNK, PAD, PAD], [UNK, PAD, PAD, PAD, PAD], [UNK, 5, 6, 9, UNK], [3, 2, PAD, PAD, PAD]],
    )
    for row, (sample, n) in enumerate(zip(samples, lengths)):
        assert feats[row, :n].tobytes() == encode_single(enc, sample).tobytes()
        np.testing.assert_array_equal(feats[row, n:], 0.0)


def test_builtin_trainable_only_during_pretrain():
    model = _classifier(vocab_size=10)
    assert model.trainable_tensors(True)["encoder.embedding"] is model.encoder.table
    assert "encoder.embedding" not in model.trainable_tensors(False)


def test_precomputed_never_trainable():
    model = _classifier("precomputed", store={"a": np.zeros((2, 8))})
    head = {f"head.{name}" for name in model.head.tensors}
    assert model.trainable_tensors(True).keys() == model.trainable_tensors(False).keys() == head


def test_builtin_gradient_accumulates_per_token_rows():
    enc = BuiltinEncoder(EncoderConfig(d_h=4, seed=0), vocab_size=8)
    ids = np.array([[4, 4, 5]])
    d_feats = np.ones((1, 3, 4))
    lengths = np.array([2])  # third position is padding
    grads = enc.gradient_tensors(ids, d_feats, lengths)["encoder.embedding"]
    np.testing.assert_array_equal(grads[4], 2 * np.ones(4))
    np.testing.assert_array_equal(grads[5], 0.0)


# ---------------------------------------------------------------------------
# precomputed store
# ---------------------------------------------------------------------------


def test_precomputed_roundtrip_and_passthrough(tmp_path):
    path = tmp_path / "feats.jsonl"
    matrix = np.arange(16, dtype=np.float64).reshape(2, 8)
    save_precomputed({"a": matrix, "b": matrix + 1}, d_h=8, path=path)
    store, d_h = load_precomputed(path)
    assert d_h == 8 and len(store) == 2
    enc = PrecomputedEncoder(EncoderConfig(kind="precomputed", d_h=8), store)
    np.testing.assert_array_equal(enc.encode(_sample((4,), "a")), matrix)


def test_precomputed_ragged_rows_are_format_error(tmp_path):
    path = tmp_path / "feats.jsonl"
    path.write_text('{"d_h": 8}\n{"id": "a", "h": [[1,2,3,4,5,6,7]]}\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_precomputed(path)


@pytest.mark.parametrize(
    "lines",
    [
        ['{"d_h": [2]}'],
        ['{"d_h": 2}', "5"],
        ['{"d_h": 2}', '{"id": "a", "h": 5}'],
        ['{"d_h": 2}', '{"id": "a", "h": [5]}'],
        ['{"d_h": 2}', '{"id": "a", "h": [[1e400, 0]]}'],
        ['{"d_h": 2}', '{"id": "a"}'],
    ],
    ids=["listed-d_h", "number-record", "number-h", "flat-h", "overflowing-value", "no-h"],
)
def test_precomputed_malformed_record_is_format_error_naming_its_line(tmp_path, lines):
    path = tmp_path / "feats.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line {len(lines)}: ")):
        load_precomputed(path)


def test_precomputed_duplicate_id_is_integrity_error(tmp_path):
    path = tmp_path / "feats.jsonl"
    row = '{"id": "a", "h": [[1,2]]}'
    path.write_text('{"d_h": 2}\n' + row + "\n" + row + "\n")
    with pytest.raises(IntegrityError, match="'a'"):
        load_precomputed(path)


def test_precomputed_empty_file_then_lookup_error(tmp_path):
    path = tmp_path / "feats.jsonl"
    path.write_text("")
    store, d_h = load_precomputed(path)
    assert store == {} and d_h is None
    enc = PrecomputedEncoder(EncoderConfig(kind="precomputed", d_h=8), store)
    with pytest.raises(FeatureLookupError):
        enc.encode(_sample((4,), "missing"))


def test_build_dispatches_on_encoder_kind():
    builtin = _classifier(seed=3, vocab_size=10).encoder
    assert isinstance(builtin, BuiltinEncoder) and builtin.config.seed == 3
    pre = _classifier("precomputed", seed=3, store={}).encoder
    assert isinstance(pre, PrecomputedEncoder) and pre.config.seed == 3
    with pytest.raises(ValueError, match="vocab_size"):
        _classifier()
    with pytest.raises(ValueError, match="feature store"):
        _classifier("precomputed")
