"""Detector head: Bi-LSTM, sigmoid feature gate, mean pooling, linear classifier.

Everything is plain numpy. :func:`forward_batch` and :func:`backward_batch`
compute in the dtype of the :class:`HeadParams` tensors: every activation,
gradient and buffer has that dtype, whatever the dtype of the input
features. The one exception is the (B, 2) softmax, which always runs in
float64, so ``probs`` is float64 and the logit gradient is cast back. The
finite-difference oracles run on float64 heads; the training and inference
paths of :class:`~stegadapt.model.Classifier` pass a float32 copy. The
forward pass keeps the per-stage activations it needs so
:func:`backward_batch` can produce exact analytic gradients for every
parameter plus the gradient with respect to the input features (used to
train the builtin encoder's embedding table while it is unfrozen).

Sequences inside a batch may have different lengths. The whole head runs on
a packed layout, the scheme of PyTorch's ``pack_padded_sequence``: rows
sorted by length, descending, and only the valid timestep-rows kept,
time-major, so each step works on one contiguous slice of the sequences
still running. The reversed direction gathers each sequence's tokens back to
front into the same slices. Both directions of a layer run together, each
activation stored time-major as (N, 2, ·) (see :class:`_PairCache`); the
layer's weights are stacked per direction on a leading axis of 2, and the
matrix products reach the activations through (2, N, ·) transposed views.
The input projection, the weight gradients, the input gradient and the gate
are each one product over the packed rows, and pooling sums each step's
slice in time order. Padded positions are never read: only the padded input
features and their gradient, which is exactly zero there whatever the
padding holds, keep the (B, T, d_h) layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericError

LOG_EPS = 1e-12


@dataclass(frozen=True)
class HeadConfig:
    d_h: int = 64
    hidden: int = 32
    layers: int = 1
    gate_bypass: bool = False
    dropout_keep: float = 0.5

    def __post_init__(self):
        if self.d_h < 1 or self.hidden < 1:
            raise ValueError("d_h and hidden must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")


@dataclass
class HeadParams:
    """All trainable head tensors, keyed by name.

    Layer ``l`` of the Bi-LSTM is ``lstm{l}.wx`` (2, 4h, d_in), ``lstm{l}.wh``
    (2, 4h, h) and ``lstm{l}.b`` (2, 4h): direction 0 reads the sequence as
    is and direction 1 reversed, the stacked layout every kernel runs on.
    Each direction's rows stack the input, forget, output, and
    cell-candidate blocks, in that order (the three sigmoid gates first, so
    one activation call covers them); forget biases start at 1.
    """

    config: HeadConfig
    tensors: dict[str, np.ndarray]

    def clone(self) -> "HeadParams":
        return HeadParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "HeadParams":
        """A copy with every tensor in ``dtype``, the dtype the head computes in."""
        return HeadParams(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()})

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype of :func:`forward_batch` and :func:`backward_batch`."""
        return self.tensors["cls.b"].dtype


def init_params(config: HeadConfig, seed) -> HeadParams:
    """Glorot-uniform matrices, zero biases except forget-gate biases at 1.

    Per layer the draws run forward ``wx``, forward ``wh``, then the same
    for the reversed direction.
    """
    rng = np.random.default_rng(seed)
    h = config.hidden
    tensors: dict[str, np.ndarray] = {}

    def glorot(rows, cols, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(rows, cols))

    for layer in range(config.layers):
        d_in = config.d_h if layer == 0 else 2 * h
        wx, wh = zip(*[(glorot(4 * h, d_in, d_in, h), glorot(4 * h, h, h, h)) for _ in range(2)])
        tensors[f"lstm{layer}.wx"] = np.stack(wx)
        tensors[f"lstm{layer}.wh"] = np.stack(wh)
        bias = np.zeros((2, 4 * h))
        bias[:, h : 2 * h] = 1.0
        tensors[f"lstm{layer}.b"] = bias
    tensors["gate.w"] = glorot(2 * h, 2 * h, 2 * h, 2 * h)
    tensors["gate.b"] = np.zeros(2 * h)
    tensors["cls.w"] = glorot(2, 2 * h, 2 * h, 2)
    tensors["cls.b"] = np.zeros(2)
    return HeadParams(config, tensors)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # tanh form: cannot overflow, saturates to exactly 0.0 / 1.0.
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class _Packing:
    """Where each valid timestep-row of a batch sits in the packed layout.

    Rows are sorted by length, descending (stable), and only valid
    timestep-rows are kept, time-major: step ``t`` occupies packed rows
    ``offsets[t]:offsets[t + 1]``, one per sequence still running, so the
    rows of step ``t + 1`` are a prefix of those of step ``t``.
    """

    rows: np.ndarray      # (N,) batch row of each packed row
    steps: np.ndarray     # (N,) timestep of each packed row
    reverse: np.ndarray   # (N,) packed row of the same token in the reversed frame
    offsets: np.ndarray   # (T + 1,)
    carried: np.ndarray   # (N,) bool: the sequence runs on to the next step


def _pack(lengths: np.ndarray) -> _Packing:
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    counts = (sorted_lengths[None, :] > np.arange(sorted_lengths[0])[:, None]).sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    steps = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(offsets[-1]) - offsets[steps]
    last = sorted_lengths[slot] - 1
    # Step t of the reversed pass reads token last - t; the map is its own inverse.
    return _Packing(order[slot], steps, offsets[last - steps] + slot, offsets, steps < last)


@dataclass
class _PairCache:
    """Forward and reversed-direction activations over the packed rows.

    Direction 0 is the pass over the input as-is, direction 1 the pass over
    per-sample reversed sequences, each in its own packed frame (the same
    step slices, tokens gathered through ``_Packing.reverse``). The
    activations are time-major, (N, 2, ·), so step ``t``'s rows
    ``offsets[t]:offsets[t + 1]`` of both directions are one contiguous
    block for each ufunc call. Direction-major (2, N, ·) arrays would split
    every step into two strided chunks, and at these batch sizes numpy's
    per-call cost follows the number of chunks. Only the layer input ``x``,
    which matrix products alone read, is stacked direction-major.
    """

    x: np.ndarray          # (2, N, d_in)
    sig: np.ndarray        # (N, 2, 3h) input/forget/output activations
    cand: np.ndarray       # (N, 2, h) tanh cell candidate
    cell: np.ndarray       # (N, 2, h)
    tanh_cell: np.ndarray  # (N, 2, h)
    hidden: np.ndarray     # (N, 2, h)


def _run_directions(
    x_pair: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, offsets: np.ndarray
) -> _PairCache:
    rows = x_pair.shape[1]
    h = wh.shape[2]
    dtype = np.result_type(x_pair, wx)
    zx = np.empty((rows, 2, 4 * h), dtype=dtype)
    # Written through a view into the time-major block: no transposed copy.
    np.matmul(x_pair, wx.transpose(0, 2, 1), out=zx.transpose(1, 0, 2))
    zx += b
    sig = np.empty((rows, 2, 3 * h), dtype=dtype)
    cand, cell, tanh_cell, hidden = (np.empty((rows, 2, h), dtype=dtype) for _ in range(4))
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    bounds = offsets.tolist()
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        z = zx[lo:hi]
        if t:
            prev = slice(bounds[t - 1], bounds[t - 1] + hi - lo)
            z = z + np.matmul(hidden[prev].transpose(1, 0, 2), wh_t).transpose(1, 0, 2)
        sig_t = _sigmoid(z[:, :, : 3 * h], out=sig[lo:hi])
        cand_t = np.tanh(z[:, :, 3 * h :], out=cand[lo:hi])
        cell_t = cell[lo:hi]
        np.multiply(sig_t[:, :, :h], cand_t, out=cell_t)
        if t:
            cell_t += sig_t[:, :, h : 2 * h] * cell[prev]
        tanh_t = np.tanh(cell_t, out=tanh_cell[lo:hi])
        np.multiply(sig_t[:, :, 2 * h :], tanh_t, out=hidden[lo:hi])
    return _PairCache(x_pair, sig, cand, cell, tanh_cell, hidden)


@dataclass
class BatchTrace:
    """Activations for one forward pass, per token over the N packed rows.

    ``states``, ``gate`` and ``gated`` are (N, 2h), row ``i`` being token
    ``packing.steps[i]`` of batch row ``packing.rows[i]``; the pooled and
    classifier arrays are per batch row, in input order. ``pair_caches``
    holds one :class:`_PairCache` per layer, time-major (N, 2, ·).
    """

    mode: str
    lengths: np.ndarray
    width: int               # T, the padded width of the input features
    packing: _Packing
    pair_caches: list
    states: np.ndarray       # Bi-LSTM outputs, (N, 2h)
    gate: np.ndarray         # sigmoid gate activations
    gated: np.ndarray        # gate * states
    pooled_raw: np.ndarray   # mean over valid steps, (B, 2h)
    dropout_mask: np.ndarray | None
    pooled: np.ndarray       # classifier input (post dropout in train mode)
    logits: np.ndarray
    probs: np.ndarray


def _mean_pool(gated: np.ndarray, packing: _Packing, lengths: np.ndarray) -> np.ndarray:
    # Step t adds to the first n_t sorted rows, so each row sums in time order.
    bounds = packing.offsets.tolist()
    sums = np.zeros((lengths.size, gated.shape[1]), dtype=gated.dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sums[: hi - lo] += gated[lo:hi]
    pooled = np.empty_like(sums)
    pooled[packing.rows[: lengths.size]] = sums
    return pooled / lengths[:, None].astype(gated.dtype)


def forward_batch(
    features: np.ndarray,
    lengths: np.ndarray,
    params: HeadParams,
    mode: str = "eval",
    dropout_rng: np.random.Generator | None = None,
) -> BatchTrace:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    if features.ndim != 3 or features.shape[2] != cfg.d_h:
        raise ValueError(f"features must be (B, T, {cfg.d_h}), got {features.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1) or np.any(lengths > features.shape[1]):
        raise ValueError("lengths must be in 1..T")

    packing = _pack(lengths)
    dtype = params.dtype
    states = features[packing.rows, packing.steps].astype(dtype, copy=False)
    pair_caches = []
    for layer in range(cfg.layers):
        wx, wh, b = (params.tensors[f"lstm{layer}.{name}"] for name in ("wx", "wh", "b"))
        cache = _run_directions(np.stack([states, states[packing.reverse]]), wx, wh, b, packing.offsets)
        pair_caches.append(cache)
        states = np.concatenate([cache.hidden[:, 0], cache.hidden[packing.reverse, 1]], axis=1)
    if not np.isfinite(states).all():
        raise NumericError("bilstm")

    if cfg.gate_bypass:
        gate = np.ones_like(states)
    else:
        gate = _sigmoid(states @ params.tensors["gate.w"].T + params.tensors["gate.b"])
    gated = gate * states
    if not np.isfinite(gated).all():
        raise NumericError("gate")

    pooled_raw = _mean_pool(gated, packing, lengths)
    dropout_mask = None
    pooled = pooled_raw
    if mode == "train" and cfg.dropout_keep < 1.0:
        if dropout_rng is None:
            raise ValueError("train mode needs a dropout rng")
        keep = dropout_rng.random(pooled_raw.shape) < cfg.dropout_keep
        dropout_mask = (keep / cfg.dropout_keep).astype(dtype, copy=False)
        pooled = pooled_raw * dropout_mask

    logits = pooled @ params.tensors["cls.w"].T + params.tensors["cls.b"]
    # float64 whatever the compute dtype: float32 probabilities saturate to
    # exactly 0 or 1, and the pseudo-label ranking reads them.
    probs = _softmax(logits.astype(np.float64, copy=False))
    if not np.isfinite(probs).all():
        raise NumericError("classifier")
    return BatchTrace(
        mode=mode,
        lengths=lengths,
        width=features.shape[1],
        packing=packing,
        pair_caches=pair_caches,
        states=states,
        gate=gate,
        gated=gated,
        pooled_raw=pooled_raw,
        dropout_mask=dropout_mask,
        pooled=pooled,
        logits=logits,
        probs=probs,
    )


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def batch_loss_ce(probs: np.ndarray, labels: Sequence[int]) -> float:
    """Mean cross-entropy over a batch."""
    labels = np.asarray(labels)
    if probs.shape[0] != labels.shape[0] or probs.shape[0] == 0:
        raise ValueError("probs and labels must be nonempty and aligned")
    # float64 first: in float32, 1 - LOG_EPS rounds to 1 and log(1 - p) to log(0).
    p = np.clip(probs[:, 1].astype(np.float64), LOG_EPS, 1.0 - LOG_EPS)
    return float(np.mean(-(labels * np.log(p) + (1 - labels) * np.log(1.0 - p))))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def _bptt_directions(
    cache: _PairCache, dh_out: np.ndarray, wx: np.ndarray, wh: np.ndarray, packing: _Packing
):
    """Backprop through both directions at once.

    ``dh_out`` is (N, 2, h), time-major like the cache, each direction's
    output gradient in its own packed frame; ``dz`` and both carries have
    the same layout, so each step reads and writes one contiguous block.
    The derivative factors ``1 - tanh(c)**2``, ``1 - sigmoid`` and
    ``1 - g**2`` are computed once over all rows before the loop. Returns
    weight gradients stacked per direction on a leading axis of 2 and input
    gradients (2, N, d_in) in each direction's frame.
    """
    bounds = packing.offsets.tolist()
    batch = bounds[1]
    h = wh.shape[2]
    dtype = dh_out.dtype
    dz = np.empty((dh_out.shape[0], 2, 4 * h), dtype=dtype)
    # A carry row is written only at the steps its sequence runs, so it is
    # still zero when the backward sweep reaches that sequence's last step.
    dh_carry = np.zeros((batch, 2, h), dtype=dtype)
    dc_carry = np.zeros((batch, 2, h), dtype=dtype)
    d_tanh_cell = 1.0 - cache.tanh_cell * cache.tanh_cell
    d_sig = 1.0 - cache.sig
    d_cand = 1.0 - cache.cand * cache.cand
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        n = hi - lo
        sig_t = cache.sig[lo:hi]
        tanh_t = cache.tanh_cell[lo:hi]
        dh = dh_out[lo:hi] + dh_carry[:n]
        dc = dc_carry[:n] + dh * sig_t[:, :, 2 * h :] * d_tanh_cell[lo:hi]
        d_pre = np.empty((n, 2, 3 * h), dtype=dtype)
        d_pre[:, :, :h] = dc * cache.cand[lo:hi]
        if t:
            d_pre[:, :, h : 2 * h] = dc * cache.cell[bounds[t - 1] : bounds[t - 1] + n]
        else:
            d_pre[:, :, h : 2 * h] = 0.0
        d_pre[:, :, 2 * h :] = dh * tanh_t
        dz_t = dz[lo:hi]
        dz_t[:, :, : 3 * h] = d_pre * sig_t * d_sig[lo:hi]
        dz_t[:, :, 3 * h :] = dc * sig_t[:, :, :h] * d_cand[lo:hi]
        np.matmul(dz_t.transpose(1, 0, 2), wh, out=dh_carry[:n].transpose(1, 0, 2))
        dc_carry[:n] = dc * sig_t[:, :, h : 2 * h]
    dz_cols = dz.transpose(1, 2, 0)
    dwx = np.matmul(dz_cols, cache.x)
    # Steps t >= 1 (the rows past the first ``batch``) read the hidden state
    # their sequence left at step t - 1: the carried rows, in the same order.
    dwh = np.matmul(dz_cols[:, :, batch:], cache.hidden[packing.carried].transpose(1, 0, 2))
    db = dz.sum(axis=0)
    dx = np.matmul(dz.transpose(1, 0, 2), wx)
    return dwx, dwh, db, dx


def backward_batch(
    trace: BatchTrace, labels: Sequence[int], params: HeadParams
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of the batch-mean cross-entropy for every head tensor.

    Also returns the gradient with respect to the input features, exactly
    zero on padded positions, for an unfrozen encoder to consume.
    """
    cfg = params.config
    dtype = params.dtype
    labels = np.asarray(labels)
    batch = trace.probs.shape[0]
    if labels.shape[0] != batch:
        raise ValueError("labels must align with the traced batch")
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}

    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(batch), labels] = 1.0
    dlogits = ((trace.probs - onehot) / batch).astype(dtype, copy=False)

    grads["cls.w"][:] = dlogits.T @ trace.pooled
    grads["cls.b"][:] = dlogits.sum(axis=0)
    dpooled = dlogits @ params.tensors["cls.w"]
    if trace.dropout_mask is not None:
        dpooled = dpooled * trace.dropout_mask

    packing = trace.packing
    dgated = (dpooled * (1.0 / trace.lengths).astype(dtype)[:, None])[packing.rows]

    if cfg.gate_bypass:
        d_upper = dgated
    else:
        dpre = dgated * trace.states * trace.gate * (1.0 - trace.gate)
        grads["gate.w"][:] = dpre.T @ trace.states
        grads["gate.b"][:] = dpre.sum(axis=0)
        d_upper = dgated * trace.gate + dpre @ params.tensors["gate.w"]

    h = cfg.hidden
    for layer in range(cfg.layers - 1, -1, -1):
        dh_pair = np.stack([d_upper[:, :h], d_upper[packing.reverse, h:]], axis=1)
        wx, wh = (params.tensors[f"lstm{layer}.{name}"] for name in ("wx", "wh"))
        dwx, dwh, db, dx = _bptt_directions(trace.pair_caches[layer], dh_pair, wx, wh, packing)
        grads.update({f"lstm{layer}.wx": dwx, f"lstm{layer}.wh": dwh, f"lstm{layer}.b": db})
        d_upper = dx[0] + dx[1][packing.reverse]
    d_features = np.zeros((batch, trace.width, cfg.d_h), dtype=dtype)
    d_features[packing.rows, packing.steps] = d_upper
    return grads, d_features


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[Mapping[str, np.ndarray], AdamState]:
    """Bias-corrected Adam, updating the parameter arrays in place.

    Each gradient is cast to its parameter's dtype first, so a float32
    gradient updates float64 master weights and moments in float64.
    """
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    for name, grad in grads.items():
        tensor = params[name]
        grad = grad.astype(tensor.dtype, copy=False)
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(tensor), np.zeros_like(tensor)
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * np.square(grad)
        tensor -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)
    return params, state
