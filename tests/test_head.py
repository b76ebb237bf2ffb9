from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from stegadapt import head
from stegadapt.errors import NumericError
from stegadapt.head import (
    AdamState,
    HeadConfig,
    HeadParams,
    adam_step,
    backward_batch,
    batch_loss_ce,
    forward_batch,
    init_params,
)
from oracles import (
    bptt_directions_direction_major,
    central_difference_grads,
    loss_ce,
    max_gradient_mismatch,
    run_directions_direction_major,
)


def _pad(feature_list):
    lengths = np.array([f.shape[0] for f in feature_list])
    width = lengths.max()
    out = np.zeros((len(feature_list), width, feature_list[0].shape[1]))
    for i, f in enumerate(feature_list):
        out[i, : f.shape[0]] = f
    return out, lengths


def _single(f, params, mode="eval", dropout_rng=None):
    # A batch of one: its packed rows are the sample's tokens in time order.
    return forward_batch(f[None], [len(f)], params, mode, dropout_rng)


def _random_instance(seed, d_h=8, hidden=4, n=3, max_len=5, layers=1):
    rng = np.random.default_rng(seed)
    params = init_params(HeadConfig(d_h=d_h, hidden=hidden, layers=layers), seed=seed + 1)
    feats = [rng.normal(size=(int(rng.integers(1, max_len + 1)), d_h)) for _ in range(n)]
    labels = rng.integers(0, 2, n).tolist()
    return params, feats, labels


# A tie (3, 3), a length-1 row and a longest row that is not first, so the
# packed layout reorders rows, drops one before the others and keeps ties stable.
MIXED_LENGTHS = (3, 1, 5, 3, 2)


def _mixed_instance(seed, d_h=8, hidden=4, layers=1):
    rng = np.random.default_rng(seed)
    params = init_params(HeadConfig(d_h=d_h, hidden=hidden, layers=layers), seed=seed + 1)
    feats = [rng.normal(size=(n, d_h)) for n in MIXED_LENGTHS]
    labels = [0, 1, 1, 0, 1]
    return params, feats, labels


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------


def test_init_deterministic_by_seed():
    a = init_params(HeadConfig(d_h=8, hidden=4), seed=3)
    b = init_params(HeadConfig(d_h=8, hidden=4), seed=3)
    assert a.tensors.keys() == b.tensors.keys()
    for k in a.tensors:
        np.testing.assert_array_equal(a.tensors[k], b.tensors[k])


def test_init_forget_bias_is_one():
    params = init_params(HeadConfig(d_h=8, hidden=4, layers=2), seed=0)
    for layer in range(2):
        bias = params.tensors[f"lstm{layer}.b"]
        assert bias.shape == (2, 16)
        np.testing.assert_array_equal(bias[:, 4:8], 1.0)
        np.testing.assert_array_equal(bias[:, :4], 0.0)
        np.testing.assert_array_equal(bias[:, 8:], 0.0)


def test_init_input_matrix_bound():
    d_h, h = 8, 4
    params = init_params(HeadConfig(d_h=d_h, hidden=h), seed=0)
    bound = np.sqrt(6.0 / (d_h + h))
    wx = params.tensors["lstm0.wx"]
    assert wx.shape == (2, 4 * h, d_h)
    assert np.all(np.abs(wx) <= bound)


def test_init_draws_forward_then_reversed_weights_per_layer():
    """Each layer draws forward wx, forward wh, reversed wx, reversed wh, then the next layer."""
    d_h, h = 6, 3
    params = init_params(HeadConfig(d_h=d_h, hidden=h, layers=2), seed=9)
    rng = np.random.default_rng(9)
    for layer in range(2):
        d_in = d_h if layer == 0 else 2 * h
        for direction in range(2):
            for name, cols in (("wx", d_in), ("wh", h)):
                bound = np.sqrt(6.0 / (cols + h))
                expected = rng.uniform(-bound, bound, size=(4 * h, cols))
                np.testing.assert_array_equal(params.tensors[f"lstm{layer}.{name}"][direction], expected)


# ---------------------------------------------------------------------------
# forward trivial cases
# ---------------------------------------------------------------------------


def test_zero_gate_weights_halve_states():
    params = init_params(HeadConfig(d_h=6, hidden=3), seed=1)
    params.tensors["gate.w"][:] = 0.0
    params.tensors["gate.b"][:] = 0.0
    feats = np.random.default_rng(0).normal(size=(4, 6))
    trace = _single(feats, params)
    np.testing.assert_allclose(trace.gate, 0.5)
    np.testing.assert_allclose(trace.gated, 0.5 * trace.states)


def test_zero_classifier_gives_uniform_prediction():
    params = init_params(HeadConfig(d_h=6, hidden=3), seed=1)
    params.tensors["cls.w"][:] = 0.0
    params.tensors["cls.b"][:] = 0.0
    trace = _single(np.ones((2, 6)), params)
    np.testing.assert_allclose(trace.probs, [[0.5, 0.5]])


def test_zero_dynamics_give_zero_states():
    params = init_params(HeadConfig(d_h=6, hidden=3), seed=1)
    for key, tensor in params.tensors.items():
        if key.startswith("lstm"):
            tensor[:] = 0.0
    trace = _single(np.ones((1, 6)), params)
    np.testing.assert_array_equal(trace.states, 0.0)
    np.testing.assert_array_equal(trace.pooled, 0.0)


def test_forward_trace_invariants():
    params, feats, _ = _random_instance(5)
    trace = _single(feats[0], params)
    assert abs(trace.probs.sum() - 1.0) < 1e-9
    assert np.all((trace.gate > 0) & (trace.gate < 1))
    assert np.all(np.abs(trace.gated) <= np.abs(trace.states) + 1e-15)
    assert trace.states.shape == (feats[0].shape[0], 2 * params.config.hidden)


def test_forward_rejects_wrong_width():
    params = init_params(HeadConfig(d_h=6, hidden=3), seed=1)
    with pytest.raises(ValueError):
        _single(np.ones((2, 5)), params)


def test_forward_raises_numeric_error_on_nonfinite():
    params = init_params(HeadConfig(d_h=4, hidden=2), seed=1)
    with pytest.raises(NumericError):
        _single(np.full((2, 4), np.nan), params)


def test_batch_matches_per_sample_forward():
    params, feats, _ = _random_instance(7, n=4)
    padded, lengths = _pad(feats)
    batch = forward_batch(padded, lengths, params)
    for i, f in enumerate(feats):
        single = _single(f, params)
        np.testing.assert_allclose(batch.probs[i], single.probs[0], atol=1e-12)
        np.testing.assert_allclose(batch.pooled[i], single.pooled[0], atol=1e-12)
        # Row i's packed rows are its tokens in time order, like the single run's.
        np.testing.assert_allclose(batch.states[batch.packing.rows == i], single.states, atol=1e-12)


def test_gate_bypass_equals_forced_ones_bit_exact():
    base = init_params(HeadConfig(d_h=6, hidden=3), seed=2)
    bypass = HeadParams(HeadConfig(d_h=6, hidden=3, gate_bypass=True), {k: v.copy() for k, v in base.tensors.items()})
    forced = base.clone()
    forced.tensors["gate.w"][:] = 0.0
    forced.tensors["gate.b"][:] = 1e9  # sigmoid saturates to exactly 1.0 in float64
    feats = np.random.default_rng(3).normal(size=(5, 6))
    a = _single(feats, bypass)
    b = _single(feats, forced)
    assert a.probs.tobytes() == b.probs.tobytes()
    assert a.gated.tobytes() == b.gated.tobytes()


def test_permutation_sensitivity_sanity():
    # Generic weights notice token order; all-zero LSTM weights cannot.
    params, feats, _ = _random_instance(23, n=1, max_len=6)
    f = feats[0]
    if f.shape[0] < 2:
        f = np.vstack([f, f + 1.0])
    permuted = f[::-1].copy()
    assert not np.allclose(_single(f, params).probs, _single(permuted, params).probs)

    zeroed = params.clone()
    for key, tensor in zeroed.tensors.items():
        if key.startswith("lstm"):
            tensor[:] = 0.0
    np.testing.assert_array_equal(
        _single(f, zeroed).probs, _single(permuted, zeroed).probs
    )


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_uniform_prediction_is_ln2():
    assert loss_ce([0.5, 0.5], 1) == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_perfect_prediction_is_near_zero():
    assert loss_ce([0.0, 1.0], 1) == pytest.approx(0.0, abs=1e-9)


def test_loss_confident_mistake():
    assert loss_ce([0.9, 0.1], 1) == pytest.approx(-np.log(0.1), abs=1e-12)
    assert loss_ce([0.9, 0.1], 1) == pytest.approx(2.302585, abs=1e-6)


def test_loss_floor_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.random()
        for y in (0, 1):
            assert loss_ce([1 - p, p], y) >= 0.0


def test_batch_loss_is_mean():
    probs = np.array([[0.5, 0.5], [0.1, 0.9]])
    expected = (loss_ce(probs[0], 1) + loss_ce(probs[1], 0)) / 2
    assert batch_loss_ce(probs, [1, 0]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("probs, label", [([0.0, 1.0], 1), ([1.0, 0.0], 0), ([0.0, 1.0], 0), ([1.0, 0.0], 1)])
def test_loss_is_finite_for_saturated_float32_probs(probs, label):
    # In float32 the clip's 1 - LOG_EPS rounds to 1, so log(1 - p) would be log(0).
    assert np.isfinite(batch_loss_ce(np.array([probs], dtype=np.float32), [label]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_logit_gradient_closed_form():
    params, feats, _ = _random_instance(11, n=1)
    padded, lengths = _pad(feats[:1])
    trace = forward_batch(padded, lengths, params)
    grads, _ = backward_batch(trace, [1], params)
    # cls.b gradient equals dloss/dlogits for a single sample.
    expected = trace.probs[0] - np.array([0.0, 1.0])
    np.testing.assert_allclose(grads["cls.b"], expected, atol=1e-12)


def _check_against_finite_differences(params, feats, labels):
    padded, lengths = _pad(feats)

    def loss_fn():
        trace = forward_batch(padded, lengths, params, mode="eval")
        return batch_loss_ce(trace.probs, labels)

    trace = forward_batch(padded, lengths, params, mode="eval")
    analytic, d_feats = backward_batch(trace, labels, params)
    numeric = central_difference_grads(loss_fn, params.tensors)
    assert max_gradient_mismatch(analytic, numeric) < 1e-4
    numeric_feats = central_difference_grads(loss_fn, {"features": padded})
    assert max_gradient_mismatch({"features": d_feats}, numeric_feats) < 1e-4


def test_gradients_match_finite_differences():
    for seed in (0, 1, 2):
        _check_against_finite_differences(*_random_instance(seed, n=2, max_len=5))
    _check_against_finite_differences(*_mixed_instance(3))


def test_gradients_match_finite_differences_two_layers():
    _check_against_finite_differences(*_random_instance(4, n=2, max_len=4, layers=2))
    _check_against_finite_differences(*_mixed_instance(5, layers=2))


@pytest.mark.parametrize("layers", [1, 2])
def test_batch_gradients_are_mean_of_single_row_gradients(layers):
    # Batches of one have no padding, so this pins the packed batch path to
    # the unpadded one row by row.
    params, feats, labels = _mixed_instance(7, layers=layers)
    padded, lengths = _pad(feats)
    grads, d_feats = backward_batch(forward_batch(padded, lengths, params), labels, params)
    mean = {name: np.zeros_like(g) for name, g in grads.items()}
    for i, (f, y) in enumerate(zip(feats, labels)):
        single, d_single = backward_batch(forward_batch(f[None], lengths[i : i + 1], params), [y], params)
        for name, g in single.items():
            mean[name] += g / len(feats)
        np.testing.assert_allclose(d_feats[i, : f.shape[0]], d_single[0] / len(feats), rtol=0, atol=1e-12)
    for name in grads:
        np.testing.assert_allclose(grads[name], mean[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("layers", [1, 2])
def test_padding_is_never_read(layers):
    params, feats, labels = _mixed_instance(9, layers=layers)
    padded, lengths = _pad(feats)
    width = padded.shape[1]
    for mode in ("eval", "train"):
        ref = forward_batch(padded, lengths, params, mode, np.random.default_rng(0))
        ref_grads, ref_d = backward_batch(ref, labels, params)
        # Also an input 3 columns wider than its longest row.
        for extra in (0, 3):
            for fill in (np.nan, 1e6):
                filled = np.concatenate([padded, np.zeros((len(feats), extra, padded.shape[2]))], axis=1)
                pad = np.arange(width + extra)[None, :] >= lengths[:, None]
                filled[pad] = fill
                trace = forward_batch(filled, lengths, params, mode, np.random.default_rng(0))
                grads, d_feats = backward_batch(trace, labels, params)
                assert trace.probs.tobytes() == ref.probs.tobytes()
                assert trace.states.tobytes() == ref.states.tobytes()
                for name in grads:
                    assert grads[name].tobytes() == ref_grads[name].tobytes(), name
                assert d_feats.shape == filled.shape
                assert d_feats[:, :width].tobytes() == ref_d.tobytes()
                assert np.all(d_feats[pad] == 0.0)


def test_gate_bypass_gradients_are_zero_for_gate():
    params, feats, labels = _random_instance(6, n=2)
    bypass = HeadParams(HeadConfig(d_h=8, hidden=4, gate_bypass=True), params.tensors)
    padded, lengths = _pad(feats)
    trace = forward_batch(padded, lengths, bypass)
    grads, _ = backward_batch(trace, labels, bypass)
    np.testing.assert_array_equal(grads["gate.w"], 0.0)
    np.testing.assert_array_equal(grads["gate.b"], 0.0)


# ---------------------------------------------------------------------------
# compute dtype
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("gate_bypass", [False, True])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_float32_params_compute_in_float32(layers, gate_bypass, mode):
    """Float64 features into a float32 head: everything but the probabilities is float32."""
    params, feats, labels = _mixed_instance(21, layers=layers)
    params = HeadParams(replace(params.config, gate_bypass=gate_bypass), params.tensors).astype(np.float32)
    padded, lengths = _pad(feats)
    trace = forward_batch(padded, lengths, params, mode, np.random.default_rng(0))
    assert (trace.dropout_mask is not None) == (mode == "train")
    for f in fields(trace):
        value = getattr(trace, f.name)
        if isinstance(value, np.ndarray) and f.name not in ("lengths", "probs"):
            assert value.dtype == np.float32, f.name
    assert trace.probs.dtype == np.float64
    for cache in trace.pair_caches:
        for f in fields(cache):
            assert getattr(cache, f.name).dtype == np.float32, f.name
    grads, d_features = backward_batch(trace, labels, params)
    assert grads.keys() == params.tensors.keys()
    for name, grad in grads.items():
        assert grad.dtype == np.float32, name
    assert d_features.dtype == np.float32


FLOAT32_REL_TOL = 1e-4


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_float32_run_matches_float64_run(layers, mode):
    """Probabilities and every gradient agree to FLOAT32_REL_TOL of each tensor's largest entry."""
    params, feats, labels = _mixed_instance(23, layers=layers)
    padded, lengths = _pad(feats)
    runs = []
    for head in (params, params.astype(np.float32)):
        trace = forward_batch(padded, lengths, head, mode, np.random.default_rng(0))
        grads, d_features = backward_batch(trace, labels, head)
        runs.append({"probs": trace.probs, "features": d_features, **grads})
    double, single = runs
    for name, ref in double.items():
        scale = np.abs(ref).max()
        assert np.abs(single[name] - ref).max() <= FLOAT32_REL_TOL * scale, name


# ---------------------------------------------------------------------------
# time-major step loops against the direction-major oracle
# ---------------------------------------------------------------------------


# The oracle loops, wrapped to take and give the head's time-major caches and
# output gradients; each transpose copies exact values.
_CACHE_ARRAYS = ("sig", "cand", "cell", "tanh_cell", "hidden")


def _oracle_run_directions(x_pair, wx, wh, b, offsets, keep_activations):
    ref = run_directions_direction_major(x_pair, wx, wh, b, offsets)
    cache = head._PairCache(ref["x"], *(np.ascontiguousarray(ref[k].transpose(1, 0, 2)) for k in _CACHE_ARRAYS))
    return cache.hidden, cache


def _oracle_bptt_directions(cache, dh_out, wx, wh, packing):
    ref = {k: np.ascontiguousarray(getattr(cache, k).transpose(1, 0, 2)) for k in _CACHE_ARRAYS}
    ref["x"] = cache.x
    dh_ref = np.ascontiguousarray(dh_out.transpose(1, 0, 2))
    return bptt_directions_direction_major(ref, dh_ref, wx, wh, packing.offsets, packing.carried)


def _run_and_record(padded, lengths, labels, params, mode):
    """Every array a forward and backward pass produce, by name."""
    trace = forward_batch(padded, lengths, params, mode, np.random.default_rng(5))
    grads, d_features = backward_batch(trace, labels, params)
    out = {"d_features": d_features, **{f"grad.{k}": v for k, v in grads.items()}}
    for f in fields(trace):
        value = getattr(trace, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value
    for layer, cache in enumerate(trace.pair_caches):
        for f in fields(cache):
            out[f"lstm{layer}.{f.name}"] = getattr(cache, f.name)
    return out


@pytest.mark.parametrize("lengths", [MIXED_LENGTHS, (4,), (3, 3, 3, 3)], ids=["mixed", "one_row", "equal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_time_major_loops_match_direction_major_oracle_bitwise(lengths, dtype, layers, mode, monkeypatch):
    """Trace, probabilities, gradients and d_features are byte-identical to the oracle loops'."""
    rng = np.random.default_rng(31)
    params = init_params(HeadConfig(d_h=10, hidden=6, layers=layers), seed=32).astype(dtype)
    padded, lengths = _pad([rng.normal(size=(n, 10)) for n in lengths])
    labels = rng.integers(0, 2, lengths.size)
    got = _run_and_record(padded, lengths, labels, params, mode)
    monkeypatch.setattr(head, "_run_directions", _oracle_run_directions)
    monkeypatch.setattr(head, "_bptt_directions", _oracle_bptt_directions)
    want = _run_and_record(padded, lengths, labels, params, mode)
    assert got.keys() == want.keys()
    assert ("dropout_mask" in got) == (mode == "train")
    for name, value in want.items():
        assert got[name].dtype == value.dtype and got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("lengths", [MIXED_LENGTHS, (4,), (3, 3, 3, 3)], ids=["mixed", "one_row", "equal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2])
def test_forward_without_activations_matches_bitwise(lengths, dtype, layers):
    """An inference trace keeps the bits of every output, none of the layers' N-row activations, and no backward."""
    rng = np.random.default_rng(41)
    params = init_params(HeadConfig(d_h=10, hidden=6, layers=layers), seed=42).astype(dtype)
    padded, lengths = _pad([rng.normal(size=(n, 10)) for n in lengths])
    full = forward_batch(padded, lengths, params)
    lean = forward_batch(padded, lengths, params, keep_activations=False)
    for name in ("probs", "pooled_raw", "states", "gate", "gated"):
        want, got = getattr(full, name), getattr(lean, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert len(full.pair_caches) == layers and lean.pair_caches is None
    n_rows = int(lengths.sum())
    per_row = {f.name for f in fields(lean) if isinstance(getattr(lean, f.name), np.ndarray)
               and getattr(lean, f.name).shape[0] == n_rows}
    assert per_row == {"states", "gate", "gated"}  # the outputs, and nothing kept for backpropagation
    with pytest.raises(ValueError, match="keep_activations"):
        backward_batch(lean, rng.integers(0, 2, lengths.size), params)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_eval_forward_is_dropout_free_and_deterministic():
    params, feats, _ = _random_instance(13, n=1)
    a = _single(feats[0], params, mode="eval")
    b = _single(feats[0], params, mode="eval")
    assert a.pooled.tobytes() == b.pooled.tobytes()


def test_train_dropout_preserves_expectation():
    params, feats, _ = _random_instance(17, n=1)
    eval_pooled = _single(feats[0], params, mode="eval").pooled[0]
    padded, lengths = _pad(feats[:1])
    rng = np.random.default_rng(99)
    total = np.zeros_like(eval_pooled)
    n = 10_000
    for _ in range(n):
        trace = forward_batch(padded, lengths, params, mode="train", dropout_rng=rng)
        total += trace.pooled[0]
    mean = total / n
    sigma = np.abs(eval_pooled) / np.sqrt(n)
    assert np.all(np.abs(mean - eval_pooled) <= 3.0 * sigma + 1e-12)


def test_train_mode_requires_rng():
    params, feats, _ = _random_instance(19, n=1)
    padded, lengths = _pad(feats[:1])
    with pytest.raises(ValueError):
        forward_batch(padded, lengths, params, mode="train")


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    params = {"x": np.array([1.0])}
    state = AdamState()
    adam_step(params, {"x": np.array([1.0])}, state, lr=0.1)
    assert params["x"][0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_is_noop():
    params = {"x": np.arange(4.0)}
    before = params["x"].copy()
    state = AdamState()
    adam_step(params, {"x": np.zeros(4)}, state, lr=0.5)
    np.testing.assert_array_equal(params["x"], before)


def test_adam_runs_float32_gradients_in_float64():
    grad = np.array([0.1, -3.7, 1e-3], dtype=np.float32)
    runs = []
    for g in (grad, grad.astype(np.float64)):
        params = {"x": np.array([0.3, -0.7, 2.0])}
        state = AdamState()
        for _ in range(3):
            adam_step(params, {"x": g}, state, lr=0.01)
        runs.append([params["x"].tobytes(), state.m["x"].tobytes(), state.v["x"].tobytes()])
    assert runs[0] == runs[1]


def test_adam_trajectories_deterministic():
    def run():
        params = {"x": np.array([0.3, -0.7])}
        state = AdamState()
        rng = np.random.default_rng(5)
        for _ in range(20):
            adam_step(params, {"x": rng.normal(size=2)}, state, lr=0.01)
        return params["x"]

    np.testing.assert_array_equal(run(), run())


def _head(poisoned=None):
    """A small head; the tensor named ``poisoned`` is filled with NaN."""
    params = init_params(HeadConfig(d_h=4, hidden=2), seed=1)
    if poisoned is not None:
        params.tensors[poisoned][...] = np.nan
    return params


_X = np.ones((1, 3, 4))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: forward_batch(_X, [3], _head(), "test"), ValueError, "mode must be 'train' or 'eval', got 'test'"),
        (lambda: forward_batch(_X, [0], _head()), ValueError, "lengths must be in 1..T"),
        (lambda: forward_batch(_X, [4], _head()), ValueError, "lengths must be in 1..T"),
        (lambda: forward_batch(_X, [3], _head("gate.w")), NumericError, "non-finite values produced by stage 'gate'"),
        (
            lambda: forward_batch(_X, [3], _head("cls.w")),
            NumericError,
            "non-finite values produced by stage 'classifier'",
        ),
        (
            lambda: backward_batch(forward_batch(_X, [3], _head()), [0, 1], _head()),
            ValueError,
            "labels must align with the traced batch",
        ),
        (lambda: batch_loss_ce(np.zeros((0, 2)), []), ValueError, "probs and labels must be nonempty and aligned"),
        (lambda: HeadConfig(d_h=0), ValueError, "d_h and hidden must be >= 1"),
        (lambda: HeadConfig(hidden=0), ValueError, "d_h and hidden must be >= 1"),
        (lambda: HeadConfig(layers=0), ValueError, "layers must be >= 1"),
        (lambda: HeadConfig(dropout_keep=0.0), ValueError, "dropout_keep must be in (0, 1]"),
        (lambda: HeadConfig(dropout_keep=1.5), ValueError, "dropout_keep must be in (0, 1]"),
    ],
    ids=[
        "forward-mode", "forward-length-0", "forward-length-past-T", "forward-gate-nan", "forward-classifier-nan",
        "backward-misaligned-labels", "loss-empty", "config-d_h", "config-hidden", "config-layers",
        "config-dropout-0", "config-dropout-above-1",
    ],
)
def test_argument_check_raises_its_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error and str(caught.value) == message
